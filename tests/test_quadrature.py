"""Quadrature tests against analytic antiderivatives and known integrals."""

import functools
import math
import operator
import random

import pytest

from ghl3 import (
    ConvergenceError,
    GeneralizedHalfLogistic,
    QuadResult,
    Tolerance,
    integrate_finite,
    integrate_semi_infinite,
    quadrature,
)
from ghl3.quadrature import _kronrod_panel, _moments_panel

TOL = Tolerance()


def base_logistic_pdf(t):
    return 2.0 * math.exp(t) / (1.0 + math.exp(t)) ** 2


class TestFinite:
    def test_exact_polynomial(self):
        r = integrate_finite(lambda u: 3 * u * u, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, abs=1e-13)
        assert r.evaluations >= 15

    def test_empty_interval(self):
        r = integrate_finite(lambda u: 1e308, 2.0, 2.0)
        assert r.value == 0.0
        assert r.err_estimate == 0.0

    def test_logistic_antiderivative(self):
        # antiderivative of 2 e^t/(1+e^t)^2 is -2/(1+e^t); over [0, 10]
        # the value is tanh(5).
        r = integrate_finite(base_logistic_pdf, 0.0, 10.0)
        assert r.value == pytest.approx(0.99990920426259513, abs=1e-12)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(math.sin, 1.0, 0.0)

    def test_endpoint_singularity_tolerated(self):
        # integrand is infinite at 0 but is never sampled there
        r = integrate_finite(lambda x: x**-0.5, 0.0, 1.0)
        assert r.value == pytest.approx(2.0, abs=1e-9)

    def test_subdivision_cap_carries_best_estimate(self):
        tight = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=3)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_finite(lambda x: x**-0.5, 0.0, 1.0, tight)
        best = excinfo.value.best
        assert isinstance(best, QuadResult)
        assert math.isfinite(best.value)
        assert abs(best.value - 2.0) <= best.err_estimate * 10 + 0.5

    def test_error_estimate_bounds_true_error(self):
        battery = [
            (math.sin, 0.0, math.pi, 2.0),
            (math.exp, 0.0, 1.0, math.e - 1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: math.cos(3.0 * x), 0.0, 2.0, math.sin(6.0) / 3.0),
            (base_logistic_pdf, 0.0, 6.0, math.tanh(3.0)),
        ]
        for f, lo, hi, truth in battery:
            r = integrate_finite(f, lo, hi)
            true_err = abs(r.value - truth)
            assert true_err <= max(TOL.abs_tol, TOL.rel_tol * abs(truth))
            assert r.err_estimate >= true_err

    def test_linearity(self):
        rng = random.Random(99)
        f = lambda x: math.exp(-x) * math.sin(2 * x)
        g = lambda x: 1.0 / (1.0 + x * x)
        for _ in range(20):
            alpha = rng.uniform(-3, 3)
            beta = rng.uniform(-3, 3)
            combo = integrate_finite(lambda x: alpha * f(x) + beta * g(x), 0.0, 4.0)
            parts = alpha * integrate_finite(f, 0.0, 4.0).value + beta * integrate_finite(g, 0.0, 4.0).value
            assert combo.value == pytest.approx(parts, abs=1e-9)

    def test_interval_additivity(self):
        f = base_logistic_pdf
        whole = integrate_finite(f, 0.0, 5.0)
        split = integrate_finite(f, 0.0, 1.7).value + integrate_finite(f, 1.7, 5.0).value
        assert abs(whole.value - split) <= 2.0 * max(TOL.abs_tol, TOL.rel_tol)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: math.inf, 0.0, 1.0)

    def test_breakpoints_match_the_single_call(self):
        battery = [
            (math.sin, 0.0, math.pi, (0.5, 1.0, 3.0)),
            (math.exp, 0.0, 1.0, (0.25,)),
            (lambda x: x**-0.5, 0.0, 1.0, (2.0**-20, 2.0**-10, 0.5)),
            (base_logistic_pdf, 0.0, 6.0, (1e-3, 1.0, 1.5, 5.999)),
        ]
        for f, lo, hi, breakpoints in battery:
            whole = integrate_finite(f, lo, hi)
            split = integrate_finite(f, lo, hi, breakpoints=breakpoints)
            assert split.evaluations >= 15 * (len(breakpoints) + 1)
            assert abs(split.value - whole.value) <= 2.0 * max(TOL.abs_tol, TOL.rel_tol * abs(whole.value))

    @pytest.mark.parametrize(
        "lo, hi, breakpoints",
        [
            (0.0, 1.0, (math.nan,)),
            (0.0, 1.0, (math.inf,)),
            (0.0, 1.0, (0.0,)),
            (0.0, 1.0, (1.0,)),
            (0.0, 1.0, (-0.5,)),
            (0.0, 1.0, (1.5,)),
            (0.0, 1.0, (0.5, 0.5)),
            (0.0, 1.0, (0.7, 0.3)),
            (2.0, 2.0, (2.0,)),
        ],
        ids=["nan", "inf", "at-lo", "at-hi", "below", "above", "repeated", "decreasing", "empty-span"],
    )
    def test_invalid_breakpoints_rejected(self, lo, hi, breakpoints):
        with pytest.raises(ValueError, match="breakpoints"):
            integrate_finite(math.cos, lo, hi, breakpoints=breakpoints)

    def test_panel_too_narrow_for_its_nodes_raises(self):
        # Two ulps wide: the outer Kronrod nodes would round onto the ends,
        # where this integrand divides by zero.
        xs = []

        def f(x):
            xs.append(x)
            return 1.0 / (x - 1.0)

        with pytest.raises(ConvergenceError) as info:
            integrate_finite(f, 1.0, 1.0 + 4.5e-16)
        assert xs == []
        assert info.value.best.evaluations == 0

    def test_bisection_stops_before_sampling_a_breakpoint(self):
        # The singularity at the breakpoint draws the bisection towards it;
        # it stops once the halves would sample their ends.
        c = 1.3
        xs = []

        def f(x):
            xs.append(x)
            return 1.0 / math.sqrt(abs(x - c))

        with pytest.raises(ConvergenceError) as info:
            integrate_finite(f, 1.0, 2.0, Tolerance(1e-300, 1e-300, 1000), breakpoints=(c,))
        assert c not in xs
        exact = 2.0 * math.sqrt(c - 1.0) + 2.0 * math.sqrt(2.0 - c)
        assert abs(info.value.best.value - exact) <= info.value.best.err_estimate


def loop_qk15(f, lo, hi):
    """QUADPACK's qk15 in its loop form: (value, err, resabs, resasc), the
    reference for the unrolled _kronrod_panel."""
    q = quadrature
    xgk = (q._X1, q._X2, q._X3, q._X4, q._X5, q._X6, q._X7)
    wgk = (q._WK1, q._WK2, q._WK3, q._WK4, q._WK5, q._WK6, q._WK7)
    wg = (q._WG2, q._WG4, q._WG6)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(center)
    resg = q._WG_CENTER * fc
    resk = q._WGK_CENTER * fc
    resabs = q._WGK_CENTER * abs(fc)
    pairs = []
    for j in range(7):
        dx = half * xgk[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        pairs.append((f1, f2))
        resk += wgk[j] * (f1 + f2)
        resabs += wgk[j] * (abs(f1) + abs(f2))
        if j & 1:
            resg += wg[j >> 1] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = q._WGK_CENTER * abs(fc - reskh)
    for j, (f1, f2) in enumerate(pairs):
        resasc += wgk[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs *= half
    resasc *= half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, max(err, 50.0 * math.ulp(1.0) * resabs), resabs, resasc


class TestKronrodPanel:
    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: x**5 - 3.0 * x * x + 1.0, 0.3, 2.1),
            (math.exp, -1.0, 3.0),
            (lambda x: math.cos(5.0 * x), 0.0, 3.0),
            (lambda x: 2.5, 1.0, 4.0),
        ],
        ids=["polynomial", "exp", "sign_change", "constant"],
    )
    def test_bit_identical_to_the_loop_form(self, f, lo, hi):
        value, err, resabs, resasc = loop_qk15(f, lo, hi)
        assert _kronrod_panel(f, lo, hi) == (value, err)
        # A sign change makes resabs differ from |resk|; a constant has resasc = 0.
        if f(lo) * f(hi) < 0.0:
            assert resabs > abs(value)
        if f(lo) == f(hi):
            assert resasc == 0.0

    def test_bit_identical_on_random_panels(self):
        rng = random.Random(15)
        d = GeneralizedHalfLogistic(3.7)
        fs = (math.cos, lambda x: x**3 * d.pdf(x), lambda x: 1.0 / (1.0 + x * x))
        for _ in range(300):
            lo = rng.uniform(0.0, 20.0)
            hi = lo + 10.0 ** rng.uniform(-10.0, 1.5)
            for f in fs:
                assert _kronrod_panel(f, lo, hi) == loop_qk15(f, lo, hi)[:2]

    def test_moments_panel_bit_identical_to_each_order_alone(self):
        # The joint panel samples the density once per node; each order's
        # sums equal the scalar panel of pdf(x) * x * ... * x (n products).
        rng = random.Random(15)
        d = GeneralizedHalfLogistic(3.7)
        orders = [lambda x, n=n: functools.reduce(operator.mul, [x] * n, d.pdf(x))
                  for n in range(1, 5)]
        for _ in range(300):
            lo = rng.uniform(0.0, 20.0)
            hi = lo + 10.0 ** rng.uniform(-10.0, 1.5)
            assert _moments_panel(d.pdf, 4, lo, hi) == [_kronrod_panel(g, lo, hi) for g in orders]

    def test_moments_panel_too_narrow_returns_none_without_sampling(self):
        xs = []
        assert _moments_panel(xs.append, 4, 1.0, 1.0 + 4.5e-16) is None
        assert xs == []

    def test_node_order(self):
        # The center, then each symmetric pair from the outermost node
        # inwards, left node before right.
        unrolled, looped = [], []
        _kronrod_panel(lambda x: unrolled.append(x) or x, 0.25, 3.5)
        loop_qk15(lambda x: looped.append(x) or x, 0.25, 3.5)
        assert unrolled == looped
        assert len(unrolled) == 15
        assert unrolled[0] == 1.875
        assert unrolled[1::2] == sorted(unrolled[1::2])
        assert unrolled[2::2] == sorted(unrolled[2::2], reverse=True)
        assert all(a < unrolled[0] < b for a, b in zip(unrolled[1::2], unrolled[2::2]))

    def test_too_narrow_returns_none_without_sampling(self):
        xs = []
        assert _kronrod_panel(xs.append, 1.0, 1.0 + 4.5e-16) is None
        assert xs == []

    def test_moments_bit_identical_to_the_loop_form(self, monkeypatch):
        # The moments as the loop-form panel and pdf = exp(log_pdf) give them.
        grid = [GeneralizedHalfLogistic(10.0 ** (-3 + i / 10)) for i in range(61)]
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_kronrod_panel", lambda f, lo, hi: loop_qk15(f, lo, hi)[:2])
            m.setattr(GeneralizedHalfLogistic, "pdf", lambda self, x: math.exp(self.log_pdf(x)))
            reference = [d.moment(n) for d in grid for n in range(1, 5)]
        assert [d.moment(n) for d in grid for n in range(1, 5)] == reference


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda x: math.exp(-x), 0.0)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_base_logistic_normalization(self):
        r = integrate_semi_infinite(base_logistic_pdf, 0.0)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_gamma_integral(self):
        r = integrate_semi_infinite(lambda x: x * math.exp(-2.0 * x), 0.0, decay_rate=2.0)
        assert r.value == pytest.approx(0.25, abs=1e-10)

    def test_nonzero_lower_bound(self):
        r = integrate_semi_infinite(lambda x: math.exp(-x), 3.0)
        assert r.value == pytest.approx(math.exp(-3.0), rel=1e-9)

    def test_slow_decay_rate_widens_truncation(self):
        r = integrate_semi_infinite(lambda x: 0.25 * math.exp(-0.25 * x), 0.0, decay_rate=0.25)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("f", [lambda x: 1.0 / (1.0 + x), math.sin])
    def test_non_decaying_integrand_detected(self, f):
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(f, 0.0)

    def test_explicit_truncation(self):
        r = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, truncation=80.0)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lo", [0.0, 1.0, 1e6])
    def test_tiny_decay_rate(self, lo):
        rate = 1e-300
        r = integrate_semi_infinite(lambda x: rate * math.exp(-rate * (x - lo)), lo, decay_rate=rate)
        assert r.value == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("lo", [0.0, 1.0, 1e6])
    def test_huge_decay_rate(self, lo):
        # The head's width times the rate overflows to inf, so the grading
        # is clamped; at lo = 1e6 the halving stops before panels too
        # narrow for their nodes.
        r = integrate_semi_infinite(lambda x: math.exp(lo - x), lo, decay_rate=1e308)
        assert r.value == pytest.approx(1.0, rel=1e-9)

    def test_graded_head_stops_before_panels_too_narrow_for_their_nodes(self):
        # Halving [1e6, 1e6 + 50] down to 1/decay_rate would leave edges a
        # few ulps above lo, where the first panel's nodes round onto lo.
        # The integral is about 1e-308.
        lo = 1e6
        xs = []

        def f(x):
            xs.append(x)
            return math.exp(-1e308 * (x - lo))

        r = integrate_semi_infinite(f, lo, decay_rate=1e308)
        assert min(xs) > lo
        assert abs(r.value - 1e-308) <= TOL.abs_tol

    @pytest.mark.parametrize("lo", [1e16, 1e17, 1e20])
    def test_head_too_narrow_for_its_nodes_raises(self, lo):
        # cut = lo + 50 lies a few ulps above lo, so the head's nodes would
        # round onto its ends; at 1e20 it rounds onto lo itself.
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite(lambda x: math.exp(lo - x), lo)

    def test_graded_head_finds_a_narrow_decay(self):
        # From one panel on [0, 50] the 15 nodes all miss a decay length
        # of 1/1000 and report about 3e-109 as converged.
        f = lambda x: 1000.0 * math.exp(-1000.0 * x)
        assert integrate_finite(f, 0.0, 50.0).value < 1e-90
        r = integrate_semi_infinite(f, 0.0, decay_rate=1000.0)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_head_beyond_the_double_range_raises(self):
        # 60/decay_rate overflows below about 3.3e-307; no node is sampled.
        xs = []
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_semi_infinite(lambda x: xs.append(x) or 0.0, 0.0, decay_rate=5e-324)
        assert excinfo.value.best == QuadResult(0.0, math.inf, 0)
        assert xs == []

    def test_bad_decay_rate(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(math.exp, 0.0, decay_rate=-1.0)


class TestToleranceAndResultTypes:
    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=0.0)
        with pytest.raises(ValueError):
            Tolerance(rel_tol=-1e-3)
        with pytest.raises(ValueError):
            Tolerance(max_subdivisions=0)

    def test_quad_result_validation(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3, 15)
        with pytest.raises(ValueError):
            QuadResult(1.0, 0.0, -1)

    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1e-10
        assert tol.rel_tol == 1e-10
        assert tol.max_subdivisions == 200
