"""Special-function tests: log-gamma, log-beta, incomplete beta, inverse.

Independent oracles: mpmath and scipy.special for broad grids, exact
closed forms where they exist (I_u(1,1) = u, I_u(2,2) = u^2 (3 - 2u)).
log_gamma wraps math.lgamma, so it is checked against mpmath, not lgamma.
"""

import ast
import inspect
import math
import random
import sys
import textwrap
import threading

import pytest
from scipy import special as sp

from ghl3 import ConvergenceError, QuadResult, inv_reg_inc_beta, log_beta, log_gamma, reg_inc_beta
from ghl3 import GeneralizedHalfLogistic, OrderIndex, RngStream, quadrature, sample, sample_order_stat, special


@pytest.mark.parametrize(
    "a, expected",
    [
        (1.0, 0.0),
        (5.0, math.log(24.0)),
        (0.5, 0.57236494292470009),  # ln(sqrt(pi))
        (2.0, 0.0),
        (10.0, math.log(362880.0)),
    ],
)
def test_log_gamma_known_values(a, expected):
    assert log_gamma(a) == pytest.approx(expected, abs=1e-13)


def test_log_gamma_accuracy_over_supported_range():
    # Hybrid abs/rel tolerance: lgamma crosses zero at 1 and 2, where a
    # pure relative bound is meaningless. The grid runs to 1e4 because
    # pdf_rth takes log_gamma(n + 1) for sample sizes up to 1e4.
    import mpmath as mp

    a = 1e-3
    with mp.workdps(30):
        while a <= 1e4:
            ref = mp.loggamma(a)
            err = abs(mp.mpf(log_gamma(a)) - ref)
            assert err <= 1e-13 * max(1.0, abs(ref)), f"a={a}"
            a *= 1.037


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
def test_log_gamma_domain(bad):
    with pytest.raises(ValueError):
        log_gamma(bad)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (1.0, 1.0, 0.0),
        (2.0, 2.0, -1.791759469228055),  # ln(1/6)
        (3.0, 3.0, -3.4011973816621554),  # ln(1/30)
        (0.5, 0.5, math.log(math.pi)),
    ],
)
def test_log_beta_known_values(a, b, expected):
    assert log_beta(a, b) == pytest.approx(expected, abs=1e-12)


def test_log_beta_propagates_domain_error():
    with pytest.raises(ValueError):
        log_beta(-1.0, 2.0)
    with pytest.raises(ValueError):
        log_beta(2.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("other", [0.5, 2.0, 30.0])
def test_log_beta_rejects_non_finite_shapes(bad, other):
    # In either position, and next to 1/2, where the series would take
    # inf (ln B = -inf) and where min/max would drop a NaN.
    with pytest.raises(ValueError):
        log_beta(bad, other)
    with pytest.raises(ValueError):
        log_beta(other, bad)


def test_log_beta_half_shape_against_mpmath():
    # The A&S 6.1.47 series from b = 20, lnGamma below it; lnGamma alone
    # is off by 7.7e-13 at b = 1e3.
    import mpmath as mp

    worst = 0.0
    with mp.workdps(30):
        for i in range(601):
            b = 10.0 ** (-3 + i / 100)
            ref = mp.log(mp.beta(0.5, b))
            worst = max(worst, abs(log_beta(0.5, b) - ref), abs(log_beta(b, 0.5) - ref))
    assert worst <= 2e-14


def test_log_beta_symmetric_bitwise():
    rng = random.Random(19)
    pairs = [(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)) for _ in range(150)]
    pairs += [(0.5, 10.0 ** rng.uniform(math.log10(20.0), 3)) for _ in range(50)]
    pairs += [(0.5, 20.0), (0.5, math.nextafter(20.0, 0.0))]
    for a, b in pairs:
        assert log_beta(a, b).hex() == log_beta(b, a).hex(), (a, b)


@pytest.mark.parametrize("fn", [reg_inc_beta, inv_reg_inc_beta])
@pytest.mark.parametrize("a, b", [(0.0, 2.0), (2.0, -1.0), (math.nan, 2.0), (2.0, math.inf)])
def test_shape_pair_validation(fn, a, b):
    with pytest.raises(ValueError, match="shape parameters must be finite and positive"):
        fn(a, b, 0.5)


_CF_SHAPES = [5e-324, 1e-300, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e4]


class TestRegIncBeta:
    def test_endpoints_exact(self):
        for a, b in [(0.5, 0.5), (1, 1), (2, 5), (300, 300)]:
            assert reg_inc_beta(a, b, 0.0) == 0.0
            assert reg_inc_beta(a, b, 1.0) == 1.0

    def test_uniform_case_is_identity(self):
        assert reg_inc_beta(1, 1, 0.37) == pytest.approx(0.37, abs=1e-13)

    def test_central_symmetry_point(self):
        assert reg_inc_beta(2, 2, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_quartic_closed_form(self):
        # I_u(2,2) = u^2 (3 - 2u)
        assert reg_inc_beta(2, 2, 0.25) == pytest.approx(0.15625, abs=1e-13)
        for u in [0.01, 0.1, 0.33, 0.5, 0.77, 0.999]:
            assert reg_inc_beta(2, 2, u) == pytest.approx(u * u * (3 - 2 * u), abs=1e-13)

    def test_against_scipy_random_grid(self):
        rng = random.Random(20240817)
        for _ in range(2000):
            a = 10 ** rng.uniform(-1, 2.8)
            b = 10 ** rng.uniform(-1, 2.8)
            u = rng.random()
            assert abs(reg_inc_beta(a, b, u) - sp.betainc(a, b, u)) <= 1e-12

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(500):
            a = 10 ** rng.uniform(-0.7, 2.3)
            b = 10 ** rng.uniform(-0.7, 2.3)
            u = rng.random()
            left = reg_inc_beta(a, b, u)
            right = 1.0 - reg_inc_beta(b, a, 1.0 - u)
            assert abs(left - right) <= 1e-12

    def test_monotone_in_u(self):
        rng = random.Random(12)
        for a, b in [(0.5, 0.5), (2, 2), (3, 7), (40, 40)]:
            us = sorted(rng.random() for _ in range(200))
            vals = [reg_inc_beta(a, b, u) for u in us]
            assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("u", [-0.1, 1.1, math.nan])
    def test_domain_error(self, u):
        with pytest.raises(ValueError):
            reg_inc_beta(2, 2, u)

    def test_half_shape_direct_side_relative_accuracy_against_mpmath(self):
        # At a = 1/2 ln B comes from the gamma-ratio series: ln Gamma terms
        # in the thousands would cancel to about 1e-12.
        import mpmath as mp

        rng = random.Random(20)
        with mp.workdps(40):
            for _ in range(200):
                b = 10.0 ** rng.uniform(math.log10(20.0), 3.0)
                u = rng.uniform(0.0, 1.5 / (b + 2.5)) * rng.choice([1.0, 1e-3, 1e-8])
                ref = mp.betainc(0.5, b, 0, u, regularized=True)
                assert abs(reg_inc_beta(0.5, b, u) - ref) <= 1e-14 * ref, (b, u)

    def test_kernel_slope_against_mpmath(self):
        # The kernel's third value is d ln I/d logit u = u^a (1-u)^b/(B I) below
        # the switch and d ln(1 - I)/d logit u = -u^a (1-u)^b/(B I_{1-u}(b, a))
        # above it, read from the fraction of the side it computed. u runs
        # towards 0 and 1 and sits next to the switch on each side. Worst
        # measured 2.8e-14 at this seed and 1.05e-13 over 20 seeds of this
        # design, at a ~ 800 and b ~ 1e-3 next to the switch, where the
        # fraction runs longest.
        import mpmath as mp

        rng = random.Random(34)
        ks = (0.25, 0.5, 1, 2, 4, 8, 16)
        with mp.workdps(40):
            for _ in range(40):
                a, b = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
                switch = (a + 1.0) / (a + b + 2.0)
                us = [10.0 ** -k for k in ks + (32, 64, 128, 300)] + [1.0 - 10.0 ** -k for k in ks]
                us += [switch * (1.0 - 2.0 ** -10), 1.0 - (1.0 - switch) * (1.0 - 2.0 ** -10)]
                for u in us:
                    v = 1.0 - u
                    front = math.exp(a * math.log(u) + b * math.log(v) - log_beta(a, b))
                    slope = special._reg_inc_beta_raw(a, b, u, v, front)[2]
                    # Each side reads only its own argument, u below and v above.
                    if u <= switch:
                        mu = mp.mpf(u)
                        ref = mu ** a * (1 - mu) ** b / (mp.beta(a, b) * mp.betainc(a, b, 0, mu, regularized=True))
                    else:
                        mv = mp.mpf(v)
                        ref = -(1 - mv) ** a * mv ** b / (mp.beta(a, b) * mp.betainc(b, a, 0, mv, regularized=True))
                    assert abs(slope - ref) <= 2.5e-13 * abs(ref), (a, b, u)

    def test_continued_fraction_failure_is_convergence_error(self):
        # Far outside the supported shapes the continued fraction runs out
        # of terms; that is a numeric failure, not a usage error.
        with pytest.raises(ConvergenceError) as excinfo:
            reg_inc_beta(1e12, 1e12, 0.4999999)
        assert math.isfinite(excinfo.value.best.value)

    @pytest.mark.parametrize(
        "a, b, u",
        [
            (1e16, 1e16, 0.5),
            # A Lentz floor made this 1.0; 40-digit mpmath gives 0.99379544809781.
            (0.028813318130261785, 4.3719706092143544e16, 2.353202731880076e-17),
        ],
    )
    def test_vanishing_denominator_is_convergence_error(self, a, b, u):
        # Past a + b ~ 1e16, a + 1 rounds to a and a denominator rounds to
        # 0: a ConvergenceError, never a ZeroDivisionError or a wrong value.
        with pytest.raises(ConvergenceError, match="broke down") as excinfo:
            reg_inc_beta(a, b, u)
        assert excinfo.value.best == QuadResult(0.0, math.inf, 0)

    @pytest.mark.parametrize("a", _CF_SHAPES)
    @pytest.mark.parametrize("b", _CF_SHAPES)
    def test_continued_fraction_at_its_switch(self, a, b):
        # The largest u the callers pass, and one ulp below it: with no
        # floor, every denominator stays away from 0 on the convergent side.
        u = (a + 1.0) / (a + b + 2.0)
        for v in (u, math.nextafter(u, 0.0)):
            value = special._betacf(a, b, v)
            assert math.isfinite(value) and value > 0.0, (a, b, v)

    def test_float_counters_match_int_counter_loop_bitwise(self):
        # Counters up to _CF_MAX_ITER are exact floats, so every term does
        # the IEEE operations of the int-counter loop on the same values.
        rng = random.Random(25)
        points = []
        for _ in range(10000):
            a, b = (10.0 ** rng.uniform(-323.3, 4.0) for _ in range(2))
            points.append((a, b))
            points.append((10.0 ** rng.uniform(-3.0, 4.0), 10.0 ** rng.uniform(-3.0, 4.0)))
        for _ in range(3000):
            n = int(10.0 ** rng.uniform(0.0, 4.0))
            r = rng.randint(1, n)
            points.append((r, n - r + 1))
            points.append((float(r), n - r + 1.0))
        for a, b in points:
            top = (a + 1.0) / (a + b + 2.0)
            u = top * rng.choice([1.0, rng.random(), rng.random() * 1e-12])
            if u > 0.0:
                assert special._betacf(a, b, u) == _int_counter_betacf(a, b, u), (a, b, u)


def _int_counter_betacf(a, b, u):
    # special._betacf as it was with an int counter m and m2 = 2 * m: the
    # reference for the float-counter loop on the convergent side.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / (1.0 - qab * u / qap)
    h = d
    for m in range(1, special._CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * u / ((qam + m2) * (a + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        aa = -(a + m) * (qab + m) * u / ((a + m2) * (qap + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < special._CF_EPS:
            return h
    raise AssertionError(f"reference loop did not converge at a={a}, b={b}, u={u}")


class TestInverse:
    def test_symmetric_median(self):
        assert inv_reg_inc_beta(2, 2, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_uniform_identity(self):
        assert inv_reg_inc_beta(1, 1, 0.9) == pytest.approx(0.9, abs=1e-13)

    def test_quartic_inverse(self):
        assert inv_reg_inc_beta(2, 2, 0.15625) == pytest.approx(0.25, abs=1e-12)

    def test_endpoints(self):
        assert inv_reg_inc_beta(3, 4, 0.0) == 0.0
        assert inv_reg_inc_beta(3, 4, 1.0) == 1.0

    def test_round_trip(self):
        qs = [1e-8, 1e-5, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-5, 1 - 1e-8]
        for a, b in [(1, 1), (2, 2), (3, 3), (10, 10), (50, 50), (200, 200), (4, 9)]:
            for q in qs:
                u = inv_reg_inc_beta(a, b, q)
                assert abs(reg_inc_beta(a, b, u) - q) <= 1e-10, (a, b, q)

    def test_round_trip_diffuse_shapes(self):
        # For min(a,b) < 1 the density diverges at u = 1, and the ulp
        # spacing of doubles near 1 caps the attainable residual; the
        # q grid stops at 1 - 1e-6 where 1e-10 is still representable.
        qs = [1e-8, 1e-5, 0.01, 0.5, 0.99, 1 - 1e-6]
        for a, b in [(0.5, 0.5), (0.3, 4.0), (7.0, 0.6)]:
            for q in qs:
                u = inv_reg_inc_beta(a, b, q)
                assert abs(reg_inc_beta(a, b, u) - q) <= 1e-10, (a, b, q)

    def test_interior_accuracy(self):
        for a, b in [(2, 2), (5, 5), (100, 100), (3, 8)]:
            for q in [1e-4, 0.2, 0.5, 0.8, 1 - 1e-4]:
                u = inv_reg_inc_beta(a, b, q)
                assert abs(reg_inc_beta(a, b, u) - q) <= 1e-12

    @pytest.mark.parametrize("q", [-0.01, 1.01, math.nan])
    def test_domain_error(self, q):
        with pytest.raises(ValueError):
            inv_reg_inc_beta(2, 2, q)

    @pytest.mark.parametrize("b", [1.5, 2.0, 5.0, 20.0, 100.0, 1000.0])
    def test_seed_lands_near_root(self, b):
        # The Abramowitz & Stegun 26.5.22 seed takes the upper-tail deviate;
        # fed the lower-tail one it lands on the mirror point 1 - u.
        sd = 0.5 / math.sqrt(2.0 * b + 1.0)
        for q in [0.55, 0.75, 0.9, 0.99, 1 - 1e-6]:
            seed = special._inverse_seed(b, b, q, log_beta(b, b), (), ())
            assert abs(seed - sp.betaincinv(b, b, q)) <= 0.1 * sd, q

    def test_kernel_evaluations_per_inverse(self, count_calls):
        # Work bound on the quantile's inverse, q = (1 + p)/2, counted in
        # incomplete-beta evaluations. Shapes below 1 stop at p = 0.999,
        # short of the u -> 1 corner where 1 - u underflows.
        calls = count_calls("_reg_inc_beta_raw", special)
        counts = []
        for k in range(12):
            b = 0.5 * 2000.0 ** (k / 11)
            ps = [1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]
            if b >= 1.0:
                ps += [1 - 1e-6, 1 - 1e-9]
            for p in ps:
                calls.clear()
                inv_reg_inc_beta(b, b, 0.5 * (1.0 + p))
                counts.append(len(calls))
        assert sum(counts) / len(counts) <= 3.5
        assert max(counts) <= 8

    def test_lopsided_shapes_converge(self):
        # Near u = a/(a+b) the continued fraction of such shapes runs out
        # of terms; with the switch at (a+1)/(a+b+2) every evaluation of
        # these solves lands on a side where it converges.
        import mpmath as mp

        with mp.workdps(30):
            u = inv_reg_inc_beta(1000.0, 0.001, 1e-6)
            assert abs(mp.betainc(1000.0, 0.001, 0, u, regularized=True) - 1e-6) <= 1e-11 * 1e-6
            q = 1.0 - 1e-6
            u = inv_reg_inc_beta(0.001, 1000.0, q)
            assert abs(mp.betainc(0.001, 1000.0, 0, u, regularized=True) - q) <= 1e-15

    def test_far_lower_tail_relative_residual(self, count_calls):
        # q far below the absolute tolerance: the residual is held relative
        # to q, and from a seed far above the root the step on ln I_u reaches
        # it in a few evaluations where the step on I_u - q crawls.
        import mpmath as mp

        calls = count_calls("_reg_inc_beta_raw", special)
        for a, b, q in [(300.0, 300.0, 1e-255), (468.25, 179.14, 2.5e-300),
                        (15.6, 2.28, 8.7e-299), (2.0, 5.0, 1e-200), (1000.0, 1000.0, 1e-100)]:
            calls.clear()
            u = inv_reg_inc_beta(a, b, q)
            with mp.workdps(30):
                assert abs(mp.betainc(a, b, 0, u, regularized=True) / q - 1) <= 1e-11, (a, b, q)
            assert len(calls) <= 6, (a, b, q)

    def test_half_shape_relative_residual_at_large_b(self):
        # At a = 1/2, the quantile's kernel, log_beta takes ln B from the
        # gamma-ratio series; the lnGamma form is off by up to 1e-12 at
        # b ~ 1e3, and the root would be with it.
        import mpmath as mp

        with mp.workdps(40):
            for b in [20.0, 100.0, 300.0, 1000.0]:
                for q in [1e-100, 1e-10, 1e-3, 0.3, 0.7, 0.99]:
                    got = mp.betainc(0.5, b, 0, inv_reg_inc_beta(0.5, b, q), regularized=True)
                    assert abs(got - q) <= 1e-13 * min(q, 1 - q), (b, q)

    def test_half_shape_relative_residual_at_series_seeded_b(self):
        # Below b = _HILL_FROM the (1/2, b) solve starts from the reverted tail
        # series and mostly stops after its first step: the root keeps the
        # large-b test's bound in both tails and across the side split.
        import mpmath as mp

        with mp.workdps(40):
            for b in [0.5, 0.7, 1.0, 1.2, 1.45]:
                for q in [1e-100, 1e-10, 1e-3, 0.3, 0.5, 0.6, 0.7, 0.99]:
                    got = mp.betainc(0.5, b, 0, inv_reg_inc_beta(0.5, b, q), regularized=True)
                    assert abs(got - q) <= 1e-13 * min(q, 1 - q), (b, q)

    @pytest.mark.parametrize("b", [0.5, 0.6, 0.8, 0.95, 1.1, 1.3, 1.4])
    def test_one_kernel_evaluation_per_half_shape_quantile(self, count_calls, b):
        # The quantile's inverse at the slow shapes: from the power laws (b < 1)
        # or Hill's seed (1 <= b < 1.36) it took 1.9-2.5 evaluations on average.
        # The reverted tail series seeds within the stop rule's 1e-5 on most p.
        calls = count_calls("_reg_inc_beta_raw", special)
        rng = random.Random(36)
        counts = []
        for _ in range(3000):
            calls.clear()
            inv_reg_inc_beta(0.5, b, rng.random())
            counts.append(len(calls))
        assert sum(counts) / len(counts) <= 1.2
        assert max(counts) <= 2

    def test_upper_tail_complement_relative_accuracy_against_mpmath(self):
        # Above q = 1/2 the solve steps on ln(1 - I_u), so 1 - u keeps its
        # relative digits: against the 40-digit root w of the complement
        # I_w(b, a) = 1 - q, within 2^-53 (the rounding of u) plus 1e-12 w,
        # wherever w >= 1e-12. A step on I_u - q was 8.2e-2 off at
        # (1000, 3, 1 - 1e-14).
        import mpmath as mp

        def newton(g, y):
            # g(y) gives (value, slope); from the solve's own root the
            # oracle needs two or three steps.
            for _ in range(100):
                val, slope = g(y)
                step = val / slope
                y -= step
                if abs(step) <= 1e-30 * max(1, abs(y)):
                    return y
            raise AssertionError("oracle did not converge")

        shapes = [1e-3, 0.03, 0.5, 1.0, 3.0, 30.0, 1e3]
        with mp.workdps(40):
            for a in shapes:
                for b in shapes:
                    beta = mp.beta(a, b)
                    for k in range(2, 15):
                        q = 1.0 - 10.0**-k
                        u = inv_reg_inc_beta(a, b, q)
                        got = 1 - mp.mpf(u)
                        log_t = mp.log(1 - mp.mpf(q))
                        if u < 0.5:
                            # w > 1/2: solve in v = ln(1 - w), on the upper
                            # integral of Beta(a, b) from e^v.
                            def g(v):
                                x = mp.exp(v)
                                s = mp.betainc(a, b, x, 1, regularized=True)
                                return mp.log(s) - log_t, -(x**a) * (1 - x) ** (b - 1) / (beta * s)

                            w = 1 - mp.exp(newton(g, mp.log(u)))
                        else:
                            def g(y):
                                x = mp.exp(y)
                                s = mp.betainc(b, a, 0, x, regularized=True)
                                return mp.log(s) - log_t, x**b * (1 - x) ** (a - 1) / (beta * s)

                            w = mp.exp(newton(g, mp.log(got) if u < 1.0 else mp.mpf(-40)))
                        if w >= 1e-12:
                            assert abs(got - w) <= 2.0**-53 + 1e-12 * w, (a, b, k)

    def test_underflowing_root_returns_zero_without_kernel_calls(self, count_calls):
        # The lower power law puts these roots below half the smallest
        # subnormal, which bisection would reach in 79 evaluations; a root
        # inside the subnormal range is still solved.
        calls = count_calls("_reg_inc_beta_raw", special)
        for a, b, q in [(0.0064, 0.0064, 3.3e-224), (0.5, 2.0, 1e-200)]:
            calls.clear()
            assert inv_reg_inc_beta(a, b, q) == 0.0
            assert not calls, (a, b, q)
        # The subnormal root 7.856e-324 rounds to 1e-323, two steps of the
        # subnormal spacing 5e-324.
        import mpmath as mp

        with mp.workdps(50):
            q = mp.mpf(1e-160)
            root = mp.exp(mp.findroot(
                lambda y: mp.log(mp.betainc(0.5, 1000, 0, mp.exp(y), regularized=True) / q), -744
            ))
            nearest = int(mp.nint(root / mp.mpf(5e-324))) * 5e-324
        assert nearest == 1e-323
        assert inv_reg_inc_beta(0.5, 1000.0, 1e-160) == nearest

    def test_subnormal_roots_take_few_evaluations(self, count_calls):
        # Seeded from the unclamped power law, with the step's ratio I/f
        # formed in logs, where the density of a shape below 1 overflows.
        # Bisecting down from a seed clamped at 1e-300 took up to 79.
        calls = count_calls("_reg_inc_beta_raw", special)
        rng = random.Random(20261018)
        counts = []
        for _ in range(20000):
            a, b = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
            q = 10.0 ** rng.uniform(-300, 0)
            calls.clear()
            if 0.0 < inv_reg_inc_beta(a, b, q) < sys.float_info.min:
                counts.append(len(calls))
        assert len(counts) >= 30
        assert max(counts) <= 8
        calls.clear()
        inv_reg_inc_beta(0.01795, 0.01402, 8.84e-7)
        assert len(calls) <= 8

    def test_slow_solve_converges(self, count_calls):
        # Tiny shapes with the root far from the seed, where the guarded
        # steps need over 100 evaluations: the solve still ends accurate.
        import mpmath as mp

        calls = count_calls("_reg_inc_beta_raw", special)
        a, b, q = 0.007568994244746794, 0.182811910241098, 0.9598158834829645
        u = inv_reg_inc_beta(a, b, q)
        with mp.workdps(30):
            assert abs(mp.betainc(a, b, 0, u, regularized=True) - q) <= 1e-15
        assert len(calls) <= 120


def _inverse_outcome(a, b, q):
    # The inverse's value as hex, or its exception's type and message.
    try:
        return inv_reg_inc_beta(a, b, q).hex()
    except Exception as exc:  # noqa: BLE001
        return f"{type(exc).__name__}: {exc}"


class TestInverseSetupCache:
    @pytest.mark.parametrize("b", [0.5, 2.0, 1000.0])
    def test_setup_runs_once_per_shape(self, count_calls, b):
        # A batch of draws shares one shape, so ln B(1/2, b) is formed once
        # for it; formed per draw, these made 200 and 10 calls.
        d = GeneralizedHalfLogistic(b)
        calls = count_calls("log_beta", special)
        special._inverse_setup.cache_clear()
        sample(d, RngStream(3), 200)
        assert len(calls) == 1
        calls.clear()
        special._inverse_setup.cache_clear()
        sample_order_stat(d, OrderIndex(2, 5), RngStream(4), 10)
        assert len(calls) == 1

    def test_cached_setup_changes_no_outcome(self):
        # Repeats, (a, b) then (b, a), 2 against 2.0, and 1/2 against other
        # values of a, interleaved: each value or error equals the one
        # formed from an empty cache. Past b = 1e150 the seed takes the tail
        # power laws.
        shapes = [(0.5, 2.0), (2.0, 0.5), (2, 3.0), (2.0, 3.0), (3.0, 2), (2.0, 2), (2, 2.0),
                  (0.5, 7.5), (1.5, 7.5), (7.5, 0.5), (0.5, 0.3), (0.3, 0.5), (0.5, 1.0),
                  (0.5, 1e3), (1e3, 0.5), (0.5, 1e150), (0.5, 1e200), (0.5, 1e300), (1e306, 1.0)]
        rng = random.Random(20261020)
        points = []
        for _ in range(600):
            a, b = rng.choice(shapes)
            for _ in range(rng.randint(1, 3)):
                q = rng.choice([0.0, 1.0, 1e-300, 1 - 1e-12, 10.0 ** rng.uniform(-300, 0), rng.random()])
                points.append((a, b, q, _inverse_outcome(a, b, q)))
        for a, b, q, got in points:
            special._inverse_setup.cache_clear()
            assert _inverse_outcome(a, b, q) == got, (a, b, q)

    @pytest.mark.parametrize("q", [1e-10, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("b", [1e151, 1e155, 1e165, 1e200, 1e299, 1e300])
    def test_power_law_seed_past_hill_constants(self, count_calls, b, q):
        # Hill's h = 1/(2b - 1/2) squares to 0 from b ~ 3.2e161, and his
        # g = 48/h^2 raised ZeroDivisionError there. As b -> inf, I_u(1/2, b)
        # -> erf(sqrt(b u)), whose error at these b is below any double.
        calls = count_calls("_reg_inc_beta_raw", special)
        special._inverse_setup.cache_clear()
        u = inv_reg_inc_beta(0.5, b, q)
        assert 1 <= len(calls) <= 3
        if u >= sys.float_info.min:
            small = math.erf(math.sqrt(b * u)) if q <= 0.5 else math.erfc(math.sqrt(b * u))
            assert small == pytest.approx(min(q, 1.0 - q), rel=1e-12)

    def test_root_below_hill_constants_underflow(self):
        # At (1/2, 1e300) h^2 underflows, but the root lies below the seed's
        # 1e-300 floor and the lower power law returns it first: u is about
        # a chi-square(1) median over 2b.
        special._inverse_setup.cache_clear()
        assert inv_reg_inc_beta(0.5, 1e300, 0.5) == pytest.approx(0.454936423119572 / 2e300, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_shape_raises_between_valid_calls(self, bad):
        # The shape check runs on every call, ahead of the cached setup, so a
        # bad shape raises every time, endpoints included, and the valid
        # shape around it keeps its value.
        want = inv_reg_inc_beta(0.5, 2.0, 0.3)
        for q in (0.3, 0.0, 1.0, 0.3):
            for a, b in [(bad, 2.0), (0.5, bad), (bad, bad), (2.0, bad)]:
                with pytest.raises(ValueError, match="shape parameters"):
                    inv_reg_inc_beta(a, b, q)
                assert inv_reg_inc_beta(0.5, 2.0, 0.3) == want

    def test_two_threads_at_two_shapes_match_serial(self):
        # Two threads take turns in the one-entry cache, each at its own
        # shape; a short switch interval interleaves them inside solves.
        dists = [GeneralizedHalfLogistic(0.7), GeneralizedHalfLogistic(40.0)]
        serial = [sample(d, RngStream(i), 3000) for i, d in enumerate(dists)]
        threaded = [None, None]

        def draw(i):
            threaded[i] = sample(dists[i], RngStream(i), 3000)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


@pytest.mark.parametrize("fn", [
    special.reg_inc_beta, special._inverse_seed, special.inv_reg_inc_beta,
    GeneralizedHalfLogistic.cdf_quadrature, GeneralizedHalfLogistic._pair,
    GeneralizedHalfLogistic.interval_prob, quadrature._qk15,
], ids=lambda fn: fn.__qualname__)
def test_no_two_argument_min_or_max_per_evaluation(fn):
    # Each runs once or more per evaluation, where a builtin min or max of two
    # values costs several times its comparison on CPython <= 3.12.
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    picks = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("min", "max") and len(node.args) >= 2]
    assert picks == [], f"{fn.__qualname__} calls min or max at lines {picks} of its source"
