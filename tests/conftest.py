"""Shared test helpers."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# The both-tails mpmath sweeps: 13 log-spaced b in [1e-3, 1e3] and 24
# log-spaced x in [1e-12, 2e3].
SWEEP_SHAPES = [10.0 ** (-3 + i / 2) for i in range(13)]
SWEEP_XS = [10.0 ** (-12 + (math.log10(2e3) + 12) * j / 23) for j in range(24)]


def ks_distance(samples, cdf):
    """Kolmogorov-Smirnov sup distance between an empirical sample and a cdf.

    samples need not be sorted; cdf is a callable evaluated pointwise.
    """
    xs = sorted(samples)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, f - i / n, (i + 1) / n - f)
    return d


def run_python(*args):
    """Run this interpreter with args and src first on PYTHONPATH, so that it
    imports this checkout's ghl3; the CompletedProcess, output as text."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def mp_pair(b, x):
    """(F, S) at x >= 0 at the current mpmath precision, each from its own
    incomplete beta, F = I_{t^2}(1/2, b) and S = I_s(b, 1/2), so neither
    is a difference; past x = 60, where t^2 = 1 - s would need more working
    digits than a test sets, F is read as 1 - S."""
    import mpmath as mp

    t = mp.mpf(x)
    s = mp.betainc(b, 0.5, 0, mp.sech(t / 2) ** 2, regularized=True)
    if x >= 60:
        return 1 - s, s
    return mp.betainc(0.5, b, 0, mp.tanh(t / 2) ** 2, regularized=True), s


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, *owners) binds owner.name on each owner to one
    wrapper that appends each call's arguments to a list and then calls the
    original, owners[0].name; it returns the list. The test's own
    monkeypatch restores the originals."""

    def install(name, *owners):
        calls = []
        original = getattr(owners[0], name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        for owner in owners:
            monkeypatch.setattr(owner, name, counting)
        return calls

    return install
