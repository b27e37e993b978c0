"""Generate the frozen accuracy oracle that bench/run.py scores ghl3 against.

Run once, offline, where mpmath is installed (it is never imported by the
benchmark itself):

    python3 bench/make_oracle.py            # rewrites bench/oracle.json

Every reference value is computed with mpmath at 50 significant digits from
the incomplete-beta form of the distribution, independently of ghl3, and
stored as the nearest binary64. Values below 1e-300 are stored as null: a
double cannot carry them to full relative precision, so they are not scored.

The grid deliberately contains the points where ghl3 is known to be weak at
the time the oracle was frozen: the cdf at small b and x >= 37 (where
2*I - 1 rounds to 1), the lower tail at x down to 1e-12 (cancellation in
2*I - 1), upper-tail quantiles at small b, and cdf_quadrature at large b and
large x (the density is a spike the first Kronrod panel misses).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

B_GRID = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1e3)
# 30 log-spaced points over [1e-12, 700], plus the two points where the
# small-b cdf defect was first reported.
X_GRID = tuple(
    sorted({float(10.0 ** (-12 + i * (math.log10(700.0) + 12) / 29)) for i in range(29)}
           | {700.0, 37.0, 100.0})
)
P_GRID = (1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999,
          1.0 - 1e-6, 1.0 - 1e-9)
MOMENT_ORDERS = (1, 2, 3, 4)
ORDSTAT_N = (5, 50, 1000)
# Order statistics are scored at these quantiles of each shape.
ORDSTAT_P = (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6)
MIN_VALUE = 1e-300


def survival(b: mp.mpf, x: mp.mpf) -> mp.mpf:
    """1 - F(x) = 2 I_{1/(1+e^x)}(b, b); exact in the far tail."""
    return 2 * mp.betainc(b, b, 0, 1 / (1 + mp.exp(x)), regularized=True)


def density(b: mp.mpf, x: mp.mpf) -> mp.mpf:
    return 2 / mp.beta(b, b) * mp.exp(b * x - 2 * b * mp.log(1 + mp.exp(x)))


def quantile(b: mp.mpf, p: float) -> mp.mpf:
    """x with F(x) = p, by bisection on log x (S is decreasing)."""
    target = 1 - mp.mpf(p)
    lo, hi = mp.log(mp.mpf("1e-20")), mp.log(mp.mpf("1e7"))
    for _ in range(120):
        mid = (lo + hi) / 2
        if survival(b, mp.exp(mid)) > target:
            lo = mid
        else:
            hi = mid
    return mp.exp((lo + hi) / 2)


def moment(b: mp.mpf, n: int) -> mp.mpf:
    """E[X^n] by tanh-sinh quadrature split at multiples of the density's scale."""
    scale = 1 / mp.sqrt(b) if b >= 1 else 1 / b
    points = [mp.mpf(0)] + [scale * k for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128)] + [mp.inf]
    return mp.quad(lambda x: x**n * density(b, x), points)


def even_moment_closed_form(b: mp.mpf, n: int) -> mp.mpf:
    # X = |log(U/(1-U))| with U ~ Beta(b, b); the logit has cumulants
    # 2*psi'(b) and 2*psi'''(b) at orders 2 and 4, odd ones vanish.
    k2 = 2 * mp.psi(1, b)
    if n == 2:
        return k2
    return 2 * mp.psi(3, b) + 3 * k2**2


def scored(v: mp.mpf) -> float | None:
    return float(v) if v >= MIN_VALUE else None


def ordstat(b: mp.mpf, r: int, n: int, x: mp.mpf) -> tuple[float | None, float | None]:
    s = survival(b, x)
    f = 1 - s
    pdf = density(b, x) * f ** (r - 1) * s ** (n - r) / mp.beta(r, n - r + 1)
    if f <= mp.mpf(0.5):
        cdf = mp.betainc(r, n - r + 1, 0, f, regularized=True)
    else:
        cdf = 1 - mp.betainc(n - r + 1, r, 0, s, regularized=True)
    return scored(pdf), scored(cdf)


def self_check() -> None:
    """Cross-check the mpmath routes against closed forms before trusting them."""
    one = mp.mpf(1)
    for x in (1e-12, 0.5, 30.0):
        exact = mp.tanh(mp.mpf(x) / 2)
        assert abs((1 - survival(one, mp.mpf(x))) - exact) <= mp.mpf("1e-30") * exact
    for b in (mp.mpf("0.01"), mp.mpf(2), mp.mpf(1000)):
        for n in (2, 4):
            quad, closed = moment(b, n), even_moment_closed_form(b, n)
            assert abs(quad - closed) <= mp.mpf("1e-30") * closed, (b, n, quad, closed)


def build() -> dict:
    self_check()
    cdf_rows, q_rows, m_rows, os_rows = [], [], [], []
    for b_f in B_GRID:
        b = mp.mpf(b_f)
        for x_f in X_GRID:
            s = survival(b, mp.mpf(x_f))
            cdf_rows.append([b_f, x_f, scored(1 - s), scored(s)])
        quantiles = {}
        for p in P_GRID:
            quantiles[p] = quantile(b, p)
            q_rows.append([b_f, p, float(quantiles[p])])
        for n in MOMENT_ORDERS:
            m = even_moment_closed_form(b, n) if n % 2 == 0 else moment(b, n)
            m_rows.append([b_f, n, float(m)])
        for p in ORDSTAT_P:
            x_f = float(quantiles[p])
            for n in ORDSTAT_N:
                for r in sorted({1, (n + 1) // 2, n}):
                    os_rows.append([b_f, r, n, x_f, *ordstat(b, r, n, mp.mpf(x_f))])
        print(f"b={b_f:g} done", file=sys.stderr)
    return {
        "cdf": {"columns": ["b", "x", "cdf", "survival"], "rows": cdf_rows},
        "quantile": {"columns": ["b", "p", "x"], "rows": q_rows},
        "moment": {"columns": ["b", "n", "moment"], "rows": m_rows},
        "ordstat": {"columns": ["b", "r", "n", "x", "pdf_rth", "cdf_rth"], "rows": os_rows},
    }


def render(tables: dict) -> str:
    """JSON with one grid row per line, so a regenerated oracle diffs row by row."""
    about = ("Reference values of the type III generalized half logistic distribution, "
             "mpmath at 50 digits; null marks a value below 1e-300. Written by make_oracle.py.")
    sections = [f'"about": {json.dumps(about)}']
    for key, table in tables.items():
        rows = ",\n  ".join(json.dumps(row) for row in table["rows"])
        sections.append(f'"{key}": {{"columns": {json.dumps(table["columns"])}, "rows": [\n  {rows}\n]}}')
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    out = Path(__file__).with_name("oracle.json")
    out.write_text(render(build()))
    print(f"wrote {out}", file=sys.stderr)
