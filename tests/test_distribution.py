"""Distribution tests.

Pinpoint expected values were frozen from a 30-digit mpmath computation
of 2*I_sigma(x)(b,b) - 1 and of the defining integrals; grid checks use
the quadrature route as the independent in-package oracle.
"""

import functools
import math
import random
import sys

import pytest

from ghl3 import (
    ConvergenceError,
    GeneralizedHalfLogistic,
    OrderIndex,
    QuadResult,
    Tolerance,
    cdf_rth,
    distribution,
    half_logistic_cdf,
    half_logistic_pdf,
    half_logistic_survival,
    integrate_semi_infinite,
    logistic_sigma,
    pdf_rth,
    quadrature,
    type3_logistic_pdf,
)

from conftest import SWEEP_SHAPES, SWEEP_XS, mp_pair

LN3 = math.log(3.0)


@functools.lru_cache(maxsize=None)
def survival_hazard_worst_errors() -> tuple[float, float]:
    """Worst relative errors of survival and hazard against 50-digit mpmath
    over 25 log-spaced b in [1e-3, 1e3] x 64 log-spaced x in [1e-12, 2e3],
    plus x past the point ~745 where sigma(-x) underflows. The reference is
    S = I_{sech^2(x/2)}(b, 1/2) and h = f/S."""
    import mpmath as mp

    xs = [10.0 ** (-12 + (math.log10(2e3) + 12) * j / 63) for j in range(64)]
    worst_s = worst_h = 0.0
    with mp.workdps(50):
        for i in range(25):
            b = 10.0 ** (-3 + i / 4)
            d = GeneralizedHalfLogistic(b)
            log_norm = mp.log(2) - mp.log(mp.beta(b, b))
            for x in xs + [740.0, 746.0, 1000.0, 2000.0]:
                t = mp.mpf(x)
                s = mp.betainc(b, 0.5, 0, mp.sech(t / 2) ** 2, regularized=True)
                if s <= 1e-300:
                    continue
                f = mp.exp(log_norm - b * t - 2 * b * mp.log1p(mp.exp(-t)))
                worst_s = max(worst_s, abs(d.survival(x) - s) / s)
                worst_h = max(worst_h, abs(d.hazard(x) - f / s) / (f / s))
    return float(worst_s), float(worst_h)


class TestBaseHalfLogistic:
    def test_pdf_values(self):
        assert half_logistic_pdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert half_logistic_pdf(LN3) == pytest.approx(0.375, abs=1e-15)
        assert half_logistic_pdf(1.0) == pytest.approx(0.39322386648296371, rel=1e-14)

    def test_cdf_values(self):
        assert half_logistic_cdf(0.0) == 0.0
        assert half_logistic_cdf(LN3) == pytest.approx(0.5, abs=1e-15)
        assert half_logistic_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_survival_values(self):
        assert half_logistic_survival(0.0) == pytest.approx(1.0, abs=1e-15)
        assert half_logistic_survival(LN3) == pytest.approx(0.5, abs=1e-15)
        assert half_logistic_survival(math.log(7.0)) == pytest.approx(0.25, abs=1e-15)

    def test_survival_complements_cdf(self):
        for y in [0.0, 0.3, 1.0, 2.5, 6.0, 20.0]:
            assert half_logistic_survival(y) == pytest.approx(1.0 - half_logistic_cdf(y), abs=1e-14)

    @pytest.mark.parametrize("fn", [half_logistic_pdf, half_logistic_cdf, half_logistic_survival])
    def test_negative_argument_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(-0.5)


class TestSymmetricParent:
    def test_values(self):
        assert type3_logistic_pdf(0.0, 1.0) == pytest.approx(0.25, rel=1e-14)
        assert type3_logistic_pdf(0.0, 2.0) == pytest.approx(0.375, rel=1e-14)

    def test_symmetry(self):
        # Exactly even, out to where the density underflows.
        for b in [0.001, 0.5, 1.0, 2.0, 7.0, 1000.0]:
            for y in [0.0, 1e-12, 1.3, 37.0, 700.0, 1e308]:
                assert type3_logistic_pdf(-y, b) == type3_logistic_pdf(y, b)

    def test_large_shapes_against_mpmath(self):
        # Normalized by the class's ln B(1/2, b): a ln B(b, b) from lgamma
        # terms that cancel in the thousands was 1.7e-12 off at b = 1000.
        import mpmath as mp

        with mp.workdps(40):
            for b in (100.0, 1000.0):
                for j in range(101):
                    y = j / 10
                    t = mp.mpf(y)
                    ref = mp.exp(b * t) / (mp.beta(b, b) * (1 + mp.exp(t)) ** (2 * b))
                    if ref < 1e-300:
                        continue  # underflows in binary64
                    assert abs(type3_logistic_pdf(y, b) - ref) <= 5e-13 * ref, (b, y)

    def test_whole_line_integrates_to_one(self):
        half = integrate_semi_infinite(lambda y: type3_logistic_pdf(y, 2.0), 0.0, decay_rate=2.0)
        assert 2.0 * half.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, y):
        with pytest.raises(ValueError, match="requires finite y"):
            type3_logistic_pdf(y, 2.0)


class TestLogisticSigma:
    def test_values(self):
        assert logistic_sigma(0.0) == 0.5
        assert logistic_sigma(LN3) == pytest.approx(0.75, rel=1e-15)

    def test_symmetry(self):
        for x in [0.1, 1.0, 4.2, 30.0]:
            assert logistic_sigma(-x) == pytest.approx(1.0 - logistic_sigma(x), abs=1e-15)

    def test_overflow_safe(self):
        assert logistic_sigma(800.0) == pytest.approx(1.0, abs=1e-15)
        assert logistic_sigma(-800.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            logistic_sigma(math.inf)


class TestDensity:
    def test_point_values(self):
        assert GeneralizedHalfLogistic(1.0).pdf(0.0) == pytest.approx(0.5, rel=1e-14)
        assert GeneralizedHalfLogistic(2.0).pdf(0.0) == pytest.approx(0.75, rel=1e-13)
        assert GeneralizedHalfLogistic(1.0).pdf(1.0) == pytest.approx(half_logistic_pdf(1.0), rel=1e-13)

    def test_reduction_to_half_logistic(self):
        d = GeneralizedHalfLogistic(1.0)
        for i in range(101):
            x = 6.0 * i / 100.0
            assert abs(d.pdf(x) - half_logistic_pdf(x)) <= 1e-12
            assert abs(d.cdf(x) - half_logistic_cdf(x)) <= 1e-12

    def test_folding_identity(self):
        for b in [0.5, 1.0, 2.0, 3.7, 10.0]:
            d = GeneralizedHalfLogistic(b)
            for i in range(101):
                x = 6.0 * i / 100.0
                assert abs(d.pdf(x) - 2.0 * type3_logistic_pdf(x, b)) <= 1e-12

    def test_normalization(self):
        for b in [0.5, 1.0, 2.0, 3.0, 5.0, 10.0]:
            d = GeneralizedHalfLogistic(b)
            total = integrate_semi_infinite(d.pdf, 0.0, d.tol, decay_rate=b)
            assert total.value == pytest.approx(1.0, abs=1e-9)

    def test_monotone_nonincreasing(self):
        for b in [0.5, 1.0, 2.0, 7.3]:
            d = GeneralizedHalfLogistic(b)
            prev = d.pdf(0.0)
            for i in range(1, 500):
                cur = d.pdf(10.0 * i / 499.0)
                assert cur <= prev + 1e-15
                prev = cur

    def test_log_pdf_consistency(self):
        rng = random.Random(5)
        for _ in range(200):
            b = 10 ** rng.uniform(-0.5, 1.5)
            x = rng.uniform(0.0, 25.0)
            d = GeneralizedHalfLogistic(b)
            p = d.pdf(x)
            if p > 1e-300:
                assert math.exp(d.log_pdf(x)) == pytest.approx(p, rel=1e-12)

    def test_log_pdf_no_overflow_far_out(self):
        d = GeneralizedHalfLogistic(2.0)
        lp = d.log_pdf(100.0)
        assert math.isfinite(lp)
        assert lp == pytest.approx(-197.515093350212, rel=1e-12)

    def test_huge_x_gives_zero_not_nan(self):
        # b*x and 2b*log(1 + e^x) both overflow here; their difference
        # was inf - inf = nan.
        d = GeneralizedHalfLogistic(1000.0)
        assert d.log_pdf(1e308) == -math.inf
        assert d.pdf(1e308) == 0.0

    @pytest.mark.parametrize(
        "shapes, bound",
        [
            # 25 log-spaced b in [1e-3, 1e3] x 40 log-spaced x in [1e-12, 700],
            # where the density is a normal double. ln f = b ln s - ln B(1/2, b)
            # is good to a few ulps of max(1, |ln f|), and exp carries that into
            # f as relative error: about 1.3e-13 at worst, where |ln f| nears 700.
            pytest.param([10.0 ** (-3 + i / 4) for i in range(25)], 3e-12, id="all-shapes"),
            # At 11 b in [300, 1e3], ln B(1/2, b) comes from the gamma-ratio
            # series, not from ln Gamma terms in the thousands, and
            # ln s = log1p(-tanh^2(x/2)) near the origin, so b ln s cancels
            # nothing. What is left is the rounding of ln f carried through exp,
            # about 1.3e-13 at worst on this grid.
            pytest.param([300.0 * (1e3 / 300.0) ** (i / 10) for i in range(11)], 5e-13, id="large-shapes"),
        ],
    )
    def test_relative_accuracy_against_mpmath(self, shapes, bound):
        import mpmath as mp

        worst = 0.0
        with mp.workdps(30):
            for b in shapes:
                d = GeneralizedHalfLogistic(b)
                log_norm = mp.log(2) - mp.log(mp.beta(b, b))
                for j in range(40):
                    x = mp.mpf(10.0 ** (-12 + (math.log10(700.0) + 12) * j / 39))
                    ref = mp.exp(log_norm - b * x - 2 * b * mp.log1p(mp.exp(-x)))
                    if ref >= 1e-300:
                        worst = max(worst, abs(d.pdf(float(x)) - ref) / ref)
        assert worst <= bound

    def test_density_and_log_density_on_a_random_grid_against_mpmath(self):
        # 3000 seeded (b, x), b log-uniform in [1e-3, 1e3] and x in
        # [1e-12, 700], against sech(x/2)^(2b) / B(1/2, b) at 40 digits, a
        # form none of the other references use. Near the origin ln s must
        # come from log1p(-tanh^2(x/2)): b (x + 2 log1p(e^-x)) cancels terms
        # near 2b ln 2 there and misses both bounds (3.3e-13 in f and
        # 1.2e-13 in ln f on this grid).
        import mpmath as mp

        rng = random.Random(26)
        worst_f = worst_log = worst_half = 0.0
        with mp.workdps(40):
            for _ in range(3000):
                b = 10.0 ** rng.uniform(-3.0, 3.0)
                x = 10.0 ** rng.uniform(-12.0, math.log10(700.0))
                d = GeneralizedHalfLogistic(b)
                ref = mp.sech(mp.mpf(x) / 2) ** (2 * b) / mp.beta(0.5, b)
                log_ref = mp.log(ref)
                worst_log = max(worst_log, abs(d.log_pdf(x) - log_ref) / max(1, abs(log_ref)))
                if ref >= 1e-300:
                    worst_f = max(worst_f, abs(d.pdf(x) - ref) / ref)
                half = mp.sech(mp.mpf(x) / 2) ** 2 / 2
                if half >= 1e-300:
                    worst_half = max(worst_half, abs(half_logistic_pdf(x) - half) / half)
        assert worst_f <= 2e-13
        assert worst_log <= 2e-14
        assert worst_half <= 2e-13

    def test_cached_log_beta_half_against_mpmath(self):
        # The series branch (b >= 20) and log_beta(1/2, b) below it.
        import mpmath as mp

        worst = 0.0
        with mp.workdps(30):
            for i in range(601):
                b = 10.0 ** (-3 + i / 100)
                ref = mp.log(mp.beta(0.5, b))
                worst = max(worst, abs(GeneralizedHalfLogistic(b)._log_beta_half - ref))
        assert worst <= 2e-14

    def test_negative_x_rejected(self):
        d = GeneralizedHalfLogistic(2.0)
        for method in (d.pdf, d.log_pdf, d.cdf, d.cdf_quadrature, d.survival, d.hazard):
            for x in (-1e-9, math.nan):
                with pytest.raises(ValueError, match=f"^{method.__name__} is supported"):
                    method(x)

    @pytest.mark.parametrize("b", [0.0, -2.0, math.inf, math.nan, 1e3 + 1])
    def test_invalid_shape_rejected(self, b):
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(b)

    def test_bool_shape_rejected(self):
        # bool is an int subclass, so True would otherwise pass as b = 1.
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(True)


@functools.lru_cache(maxsize=None)
def cdf_worst_errors() -> tuple[float, float]:
    """Worst relative errors of the cdf against 40-digit mpmath over 25
    log-spaced b in [1e-3, 1e3] x 119 log-spaced x in [1e-12, 560], plus
    the points just below each switch, as (near side, far side). The near
    side is t^2 < 3/(2b + 5) with t = tanh(x/2); the far side keeps the
    points with 1 - t^2 > 1e-6, where rounding t^2 costs few digits of
    1 - F. The reference is F = I_{t^2}(1/2, b)."""
    import mpmath as mp

    xs = [10.0 ** (-12 + (math.log10(560.0) + 12) * j / 118) for j in range(119)]
    worst_near = worst_far = 0.0
    with mp.workdps(40):
        for i in range(25):
            b = 10.0 ** (-3 + i / 4)
            d = GeneralizedHalfLogistic(b)
            x_switch = 2.0 * math.atanh(math.sqrt(1.5 / (b + 2.5)))
            for x in xs + [x_switch * (1.0 - 1e-9), x_switch * 0.99]:
                t2 = math.tanh(0.5 * x) ** 2
                near = t2 < 1.5 / (b + 2.5)
                if not near and 1.0 - t2 <= 1e-6:
                    continue
                ref = mp.betainc(0.5, b, 0, mp.tanh(mp.mpf(x) / 2) ** 2, regularized=True)
                err = float(abs(d.cdf(x) - ref) / ref)
                if near:
                    worst_near = max(worst_near, err)
                else:
                    worst_far = max(worst_far, err)
    return worst_near, worst_far


class TestCdf:
    def test_frozen_values(self):
        assert GeneralizedHalfLogistic(2.0).cdf(1.0) == pytest.approx(0.64383265260590658, abs=1e-13)
        assert GeneralizedHalfLogistic(2.0).cdf(0.5) == pytest.approx(0.36003225210835061, abs=1e-13)
        assert GeneralizedHalfLogistic(3.0).cdf(1.0) == pytest.approx(0.75101495712557739, abs=1e-13)
        assert GeneralizedHalfLogistic(3.0).cdf(2.0) == pytest.approx(0.97189245617037413, abs=1e-13)

    def test_at_origin_and_monotone(self):
        for i in range(61):
            assert GeneralizedHalfLogistic(10.0 ** (-3 + i / 10)).cdf(0.0) == 0.0
        for b in [0.5, 2.0, 9.0]:
            d = GeneralizedHalfLogistic(b)
            assert d.cdf(0.0) == 0.0
            xs = [7.0 * i / 200.0 for i in range(201)]
            vals = [d.cdf(x) for x in xs]
            assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))
            assert 0.0 <= min(vals) and max(vals) <= 1.0

    def test_b1_reduces_to_closed_form(self):
        d = GeneralizedHalfLogistic(1.0)
        assert d.cdf(LN3) == pytest.approx(0.5, abs=1e-14)

    def test_two_routes_agree_on_reference_grid(self):
        for b, count in [(2.0, 60), (3.0, 50)]:
            d = GeneralizedHalfLogistic(b)
            for i in range(count):
                x = i / 10.0
                assert abs(d.cdf(x) - d.cdf_quadrature(x)) <= 1e-9

    def test_near_side_relative_accuracy_against_mpmath(self):
        # Below the switch F is a front factor times a short continued
        # fraction, with no subtraction, down to x = 1e-12 at b = 0.001.
        worst_near, _ = cdf_worst_errors()
        assert worst_near <= 1e-14

    def test_far_side_relative_accuracy_against_mpmath(self):
        _, worst_far = cdf_worst_errors()
        assert worst_far <= 1e-12

    def test_quadrature_route_values(self):
        assert GeneralizedHalfLogistic(2.0).cdf_quadrature(0.5) == pytest.approx(
            0.36003225210835061, abs=1e-10
        )
        assert GeneralizedHalfLogistic(7.0).cdf_quadrature(0.0) == 0.0

    def test_quadrature_route_small_x_against_mpmath(self):
        # Below x = 1e-9 the route is the line x/B(1/2, b). Quadrature raised
        # "too narrow" at x = 5e-324 and was up to 8.8e-14 off at b = 1000.
        import mpmath as mp

        with mp.workdps(50):
            for b in (1e-310, 1e-3, 0.5, 2.0, 100.0, 1000.0):
                d = GeneralizedHalfLogistic(b)
                for x in (5e-324, 1e-320, 1e-300, 1e-12, 9e-10):
                    t = mp.tanh(mp.mpf(x) / 2)
                    ref = mp.betainc(0.5, b, 0, t * t, regularized=True)
                    got = d.cdf_quadrature(x)
                    if ref >= sys.float_info.min:
                        assert abs(got - ref) <= 4 * math.ulp(float(ref)), (b, x)
                    else:
                        assert abs(got - ref) <= 5e-324, (b, x)

    def test_quadrature_route_across_its_line_against_mpmath(self):
        # Either side of x = 1e-9, where the route leaves the line x f(0)
        # for quadrature of the density, F keeps its relative digits if the
        # density does: with ln f = log_norm - b (x + 2 log1p(e^-x)) F steps
        # by up to 7.2e-14 at b = 1000. At b <= 1 both sides carry
        # ln B(1/2, b)'s own error, about 1.5e-15 relative, so those shapes
        # are left out.
        import mpmath as mp

        with mp.workdps(40):
            for b in (2.0, 100.0, 1000.0):
                d = GeneralizedHalfLogistic(b)
                for x in (math.nextafter(1e-9, 0.0), 1e-9, 1.5e-9, 1e-8, 1e-6):
                    t = mp.tanh(mp.mpf(x) / 2)
                    ref = mp.betainc(0.5, b, 0, t * t, regularized=True)
                    assert abs(d.cdf_quadrature(x) - ref) <= 1e-15 * ref, (b, x)


class TestSurvivalHazard:
    def test_survival_matches_base_form(self):
        d = GeneralizedHalfLogistic(1.0)
        for x in [0.0, 0.5, 2.0, 10.0]:
            assert d.survival(x) == pytest.approx(2.0 / (math.exp(x) + 1.0), rel=1e-13)

    def test_survival_complements_cdf(self):
        for b in [0.5, 2.0, 3.0]:
            d = GeneralizedHalfLogistic(b)
            for x in [0.0, 0.7, 1.9, 5.0]:
                assert d.survival(x) == pytest.approx(1.0 - d.cdf(x), abs=1e-13)

    def test_survival_frozen_value(self):
        assert GeneralizedHalfLogistic(2.0).survival(1.0) == pytest.approx(
            0.35616734739409342, abs=1e-13
        )

    def test_hazard_at_origin(self):
        # f/(1-F) at 0 simplifies to pdf(0) since F(0) = 0
        assert GeneralizedHalfLogistic(1.0).hazard(0.0) == pytest.approx(0.5, rel=1e-13)

    def test_hazard_deep_tail_stays_finite(self):
        d = GeneralizedHalfLogistic(1.0)
        h = d.hazard(500.0)
        assert math.isfinite(h)
        assert h == pytest.approx(1.0, rel=1e-6)

    def test_hazard_finite_where_sigma_underflows(self):
        # Past x ~ 745 sigma(-x) is 0, so the continued fraction is 1 and
        # the hazard is b.
        assert GeneralizedHalfLogistic(1.0).hazard(760.0) == 1.0
        assert GeneralizedHalfLogistic(2.0).hazard(400.0) == pytest.approx(2.0, rel=1e-15)

    def test_survival_at_origin_is_exactly_one(self):
        for i in range(61):
            assert GeneralizedHalfLogistic(10.0 ** (-3 + i / 10)).survival(0.0) == 1.0

    def test_relative_accuracy_against_mpmath(self):
        worst_s, worst_h = survival_hazard_worst_errors()
        assert worst_s <= 2e-12
        assert worst_h <= 1e-13

    def test_survival_tight_relative_accuracy_against_mpmath(self):
        # Each side of the (b, 1/2)/(1/2, b) pair's switch reads ln s and
        # ln B(1/2, b) without cancellation.
        worst_s, _ = survival_hazard_worst_errors()
        assert worst_s <= 3e-13

    def test_hazard_times_survival_is_the_density_on_both_sides(self):
        # h = b/(t K) far out and h = f/S near the origin; both must give
        # h*S = f at the switch t^2 = 3/(2b + 5) and either side of it.
        import mpmath as mp

        with mp.workdps(40):
            for i in range(25):
                b = 10.0 ** (-3 + i / 4)
                d = GeneralizedHalfLogistic(b)
                log_norm = mp.log(2) - mp.log(mp.beta(b, b))
                x_switch = 2.0 * math.atanh(math.sqrt(1.5 / (b + 2.5)))
                for k in [0.01, 0.5, 0.999, 1.001, 2.0, 4.0]:
                    x = k * x_switch
                    f = mp.exp(log_norm - b * x - 2 * b * mp.log1p(mp.exp(-mp.mpf(x))))
                    assert abs(d.hazard(x) * d.survival(x) - f) <= 1e-13 * f, (b, k)

    @pytest.mark.parametrize("b", [1e-8, 1e-10, 1e-12])
    def test_continued_fraction_stops_one_ulp_from_one(self, b):
        # At small b the continued fraction's delta settles at 1 - 2^-53;
        # a stop rule below that gap ran all terms and raised there.
        d = GeneralizedHalfLogistic(b)
        for i in range(2000):
            x = 2.0 + i / 100.0
            assert 0.0 <= d.cdf(x) <= 1.0
            assert 0.0 <= d.survival(x) <= 1.0
            assert 0.0 < d.hazard(x) < math.inf


class TestIntervalProbability:
    def test_reference_difference(self):
        d = GeneralizedHalfLogistic(2.0)
        assert d.interval_prob(0.5, 1.0) == pytest.approx(0.28380040049755597, abs=1e-12)

    def test_degenerate_interval(self):
        for b in [0.5, 3.0]:
            assert GeneralizedHalfLogistic(b).interval_prob(1.3, 1.3) == 0.0

    def test_total_mass(self):
        assert GeneralizedHalfLogistic(3.0).interval_prob(0.0, 40.0) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(2.0).interval_prob(2.0, 1.0)

    @pytest.mark.parametrize(
        "b, a1, a2", [(0.1, 0.0, 1e-9), (2.0, 0.0, 1e-6), (0.01, 30.0, 40.0)]
    )
    def test_both_sides_of_the_switch_against_mpmath(self, b, a1, a2):
        # Near the origin F(a2) - F(a1) keeps the digits that S(a1) - S(a2)
        # would cancel; past the switch S(a1) - S(a2) keeps those of F,
        # which rounds to 1.
        import mpmath as mp

        with mp.workdps(40):
            def cdf(x):
                return mp.betainc(0.5, b, 0, mp.tanh(mp.mpf(x) / 2) ** 2, regularized=True)

            ref = cdf(a2) - cdf(a1)
        got = GeneralizedHalfLogistic(b).interval_prob(a1, a2)
        assert abs(got - ref) <= 1e-14 * ref

    @pytest.mark.parametrize(
        "b, a1, a2", [(0.01, 30.0, 40.0), (0.001, 37.0, 100.0), (2.0, 20.0, 21.0)]
    )
    def test_upper_tail_relative_accuracy_against_mpmath(self, b, a1, a2):
        # The closed-form cdf rounds to 1 at both ends here (true values
        # 0.0705, 0.0588 and 2.2e-17); S(a1) - S(a2) keeps them.
        import mpmath as mp

        with mp.workdps(50):
            def s(x):
                return mp.betainc(b, 0.5, 0, mp.sech(mp.mpf(x) / 2) ** 2, regularized=True)

            ref = s(a1) - s(a2)
        got = GeneralizedHalfLogistic(b).interval_prob(a1, a2)
        assert abs(got - ref) <= 1e-12 * ref

    def test_both_tails_relative_accuracy_against_mpmath(self):
        # Intervals between neighbours and between points four apart of
        # SWEEP_XS, at each of SWEEP_SHAPES. Worst measured 4.0e-13 (b = 1e-3,
        # where F = 1 - S on the far side is the small side).
        import mpmath as mp

        worst = 0.0
        with mp.workdps(60):
            for b in SWEEP_SHAPES:
                d = GeneralizedHalfLogistic(b)
                pairs = [mp_pair(b, x) for x in SWEEP_XS]
                for j, (f1, s1) in enumerate(pairs):
                    for k in (j + 1, j + 4):
                        if k < len(pairs):
                            f2, s2 = pairs[k]
                            ref = f2 - f1 if f2 <= 0.5 else s1 - s2
                            if ref >= 1e-300:
                                got = d.interval_prob(SWEEP_XS[j], SWEEP_XS[k])
                                worst = max(worst, abs(got - ref) / ref)
        assert worst <= 5e-13


class TestMoments:
    def test_zeroth_moment(self):
        assert GeneralizedHalfLogistic(4.2).moment(0) == 1.0

    def test_base_case_analytic_values(self):
        d = GeneralizedHalfLogistic(1.0)
        assert d.moment(1) == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
        assert d.moment(2) == pytest.approx(math.pi**2 / 3.0, abs=1e-8)
        assert d.moment(3) == pytest.approx(10.818512128436349, abs=1e-8)  # 9 zeta(3)
        assert d.moment(4) == pytest.approx(45.457575815867804, abs=1e-8)  # 7 pi^4/15

    def test_frozen_values(self):
        assert GeneralizedHalfLogistic(2.0).moment(1) == pytest.approx(0.88629436111989062, abs=1e-9)
        assert GeneralizedHalfLogistic(2.0).moment(2) == pytest.approx(1.2898681336964529, abs=1e-9)
        assert GeneralizedHalfLogistic(3.0).moment(3) == pytest.approx(1.1713044200371689, abs=1e-9)
        assert GeneralizedHalfLogistic(10.0).moment(4) == pytest.approx(0.13735930053713584, abs=1e-9)

    def test_relative_accuracy_against_mpmath(self):
        # 25 log-spaced b in [1e-3, 1e3] x n = 1..4 against 30-digit
        # mpmath: even orders from the logit cumulants 2*psi^(2j-1)(b),
        # odd ones by tanh-sinh split at powers of 4 of the density's
        # scale. A single first panel on the head missed the density's
        # bend near the origin at small b: 9.8e-9 at b=0.00178, n=1.
        import mpmath as mp

        worst = worst_joint = 0.0
        with mp.workdps(30):
            for i in range(25):
                b = 10.0 ** (-3 + i / 4)
                d = GeneralizedHalfLogistic(b)
                log_norm = mp.log(2) - mp.log(mp.beta(b, b))
                scale = 1 / mp.sqrt(b) if b >= 1 else 1 / mp.mpf(b)
                points = [0] + [scale * 4**k for k in range(-1, 4)] + [mp.inf]
                pdf = lambda x: mp.exp(log_norm - b * x - 2 * b * mp.log1p(mp.exp(-x)))
                k2 = 2 * mp.psi(1, b)
                refs = {n: mp.quad(lambda x: x**n * pdf(x), points) for n in (1, 3)}
                refs[2] = k2
                refs[4] = 2 * mp.psi(3, b) + 3 * k2**2
                joint = d.moments(4)
                for n, ref in refs.items():
                    worst = max(worst, abs(d.moment(n) - ref) / ref)
                    worst_joint = max(worst_joint, abs(joint[n - 1] - ref) / ref)
        assert worst <= 1e-10
        # One pass meets every order's tolerance on the shared partition.
        assert worst_joint <= 1e-12

    def test_even_moments_closed_form_against_mpmath(self):
        # moments' even orders from the logit cumulants, against the same
        # moment-cumulant recursion on 30-digit mp.psi cumulants, at 25
        # log-spaced b in [1e-3, 1e3]; order 200 at b = 1000, where (2j-1)!
        # and 1000^-2j of kappa_2j leave the double range but E[X^200] is 1e-83.
        import mpmath as mp

        def reference(b, n):
            kappa = [2 * mp.psi(2 * j - 1, b) for j in range(1, n // 2 + 1)]
            m = [mp.mpf(1)]
            for k in range(1, n // 2 + 1):
                m.append(sum(mp.binomial(2 * k - 1, 2 * j - 1) * kappa[j - 1] * m[k - j]
                             for j in range(1, k + 1)))
            return m

        worst = 0.0
        with mp.workdps(30):
            for i in range(25):
                b = 10.0 ** (-3 + i / 4)
                got, ref = GeneralizedHalfLogistic(b).moments(12), reference(b, 12)
                worst = max(worst, *(abs(got[n - 1] - ref[n // 2]) / ref[n // 2]
                                     for n in (2, 4, 6, 12)))
            far = GeneralizedHalfLogistic(1000.0).moments(200)[-1]
            ref = reference(1000.0, 200)[-1]
        assert worst <= 1e-14
        assert far == pytest.approx(float(ref), rel=1e-13)

    def test_high_even_moment_agrees_with_quadrature(self):
        d = GeneralizedHalfLogistic(2.0)
        assert d.moments(20)[-1] == pytest.approx(d.moment(20), rel=1e-12)

    @pytest.mark.parametrize("b", [1e-100, 1e-75, 1e-50, 1e-20])
    def test_moments_near_the_top_of_the_double_range(self, b):
        # E[X^n] = n!/b^n * (1 + O(b)). The tail blocks stop relative to
        # each total, which an absolute abs_tol/10 never met past ~1e200.
        d = GeneralizedHalfLogistic(b)
        got = [(n, d.moment(n)) for n in (1, 2, 3)] + list(enumerate(d.moments(3), 1))
        if b != 1e-100:  # E[X^4] = 2.4e401 there, which raises as tested below
            got += enumerate(d.moments(4), 1)
        for n, v in got:
            assert v == pytest.approx(math.factorial(n) / b**n, rel=2e-14), n

    def test_evaluations_per_moment(self):
        # The graded head starts where bisection from one panel would
        # arrive after splitting the left edge: 280 evaluations on average
        # from one panel, 220 graded.
        total = 0
        for i in range(61):
            b = 10.0 ** (-3 + i / 10)
            d = GeneralizedHalfLogistic(b)
            for n in range(1, 5):
                total += integrate_semi_infinite(
                    lambda x: x**n * d.pdf(x), 0.0, d.tol, decay_rate=b
                ).evaluations
        assert total / (61 * 4) <= 240

    def test_density_evaluations_per_moments_pass(self, count_calls):
        # One pass samples the density once per node for the odd orders (the
        # even ones are closed forms): about 250 evaluations, where four
        # calls to moment make about 880. The pass samples pdf's expression,
        # not pdf, so its one _log_s call per node is what is counted.
        calls = count_calls("_log_s", distribution)
        for i in range(61):
            GeneralizedHalfLogistic(10.0 ** (-3 + i / 10)).moments(4)
        assert 150 <= len(calls) / 61 <= 300

    @pytest.mark.parametrize("n_max", [4, 9])
    def test_pass_density_bit_identical_to_pdf(self, n_max):
        # moments hands the pass pdf's own expression without its support
        # check, so each odd order is the pass over pdf itself, bit for bit.
        for i in range(61):
            d = GeneralizedHalfLogistic(10.0 ** (-3 + i / 10))
            odd = quadrature._moments_semi_infinite(d.pdf, range(1, n_max + 1, 2), d.tol, d.b)[0]
            assert list(d.moments(n_max)[::2]) == [v for v, _ in odd], d.b

    def test_moments_agree_with_moment(self):
        for b in [0.01, 1.0, 2.0, 7.5, 300.0]:
            d = GeneralizedHalfLogistic(b)
            assert d.moments(4) == pytest.approx([d.moment(n) for n in range(1, 5)], rel=1e-10)
        assert GeneralizedHalfLogistic(2.0).moments(1) == pytest.approx((0.88629436111989062,))

    def test_first_moment_bit_identical_on_both_routes(self):
        # moment(1) integrates x * pdf(x) panel by panel through
        # integrate_finite, moments(1) forms the same products in the moments
        # pass: one adaptive loop gives both the same bits.
        for i in range(61):
            d = GeneralizedHalfLogistic(10.0 ** (-3 + i / 10))
            assert d.moments(1)[0] == d.moment(1)

    def test_moment_bit_identical_to_the_pass_at_one_order(self):
        # moment(n) integrates f(x) * x * ... * x, the pass's column at order
        # n, through the same loop, so both routes give the same bits.
        for i in range(61):
            d = GeneralizedHalfLogistic(10.0 ** (-3 + i / 10))
            for n in range(1, 9):
                [(value, _)], _ = quadrature._moments_semi_infinite(d.pdf, (n,), d.tol, d.b)
                assert d.moment(n) == value, (d.b, n)

    def test_moment_and_moments_share_one_subdivision_budget(self, monkeypatch):
        # Seven graded head panels and one split: 7 * 15 + 2 * 15 evaluations.
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
        d = GeneralizedHalfLogistic(0.001)
        for call in (lambda: d.moment(4), lambda: d.moments(4)):
            with pytest.raises(ConvergenceError, match="no convergence after 1 subdivisions") as excinfo:
                call()
            assert excinfo.value.best.evaluations == 135

    @pytest.mark.parametrize("n_max", [0, -1, True, 2.5, math.inf, math.nan, "4"])
    def test_moments_order_rejected(self, n_max):
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(2.0).moments(n_max)

    def test_head_beyond_the_double_range_raises_a_typed_error(self):
        # 60/b overflows, so the head [0, inf] cannot be cut into panels.
        d = GeneralizedHalfLogistic(5e-324)
        for call in (lambda: d.moment(1), lambda: d.moments(4)):
            with pytest.raises(ConvergenceError) as excinfo:
                call()
            assert excinfo.value.best == QuadResult(0.0, math.inf, 0)

    def test_head_past_half_the_double_range(self):
        # At b = 1e-306 the head ends at 6e307, so panel midpoints formed as
        # 0.5 * (lo + hi) overflowed; E[X] ~ 1/b is a finite double.
        d = GeneralizedHalfLogistic(1e-306)
        assert d.moment(1) == pytest.approx(1e306, rel=1e-12)
        assert d.moments(1)[0] == pytest.approx(1e306, rel=1e-12)

    def test_tail_block_beyond_the_double_range_raises_a_typed_error(self):
        # At b = 4e-307 the head [0, 1.5e308] is finite but the first tail
        # block ends at inf.
        d = GeneralizedHalfLogistic(4e-307)
        for call in (lambda: d.moment(1), lambda: d.moments(1)):
            with pytest.raises(ConvergenceError, match="beyond the double range"):
                call()

    def test_overflowing_moments_raise_a_typed_error(self):
        # E[X^4] ~ 24/b^4 is far beyond the double range at b = 1e-300, and
        # so is f(x) * x^4 on the head: the panel rejects it, where x**4
        # alone would raise a bare OverflowError.
        with pytest.raises(ValueError, match="non-finite"):
            GeneralizedHalfLogistic(1e-300).moments(4)
        # moment(n) forms the same products f(x) * x * ... * x, so the panel
        # rejects them with the same typed error.
        for b, n in [(1e-300, 2), (1e-300, 3), (1e-300, 4), (1e-100, 4)]:
            with pytest.raises(ValueError, match="non-finite"):
                GeneralizedHalfLogistic(b).moment(n)
        # x**4 alone overflows in the far tail at b = 1e-75, but f(x) * x^4
        # does not, and E[X^4] ~ 2.4e301 is a finite double.
        d = GeneralizedHalfLogistic(1e-75)
        assert abs(d.moment(4) - d.moments(4)[3]) <= 1e-14 * d.moments(4)[3]

    def test_mean_decreases_with_shape(self):
        means = [GeneralizedHalfLogistic(float(b)).moment(1) for b in range(1, 11)]
        assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(2.0).moment(-1)

    def test_bool_order_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(2.0).moment(True)

    def test_summary_stats_base_case(self):
        s = GeneralizedHalfLogistic(1.0).summary_stats()
        assert s.mean == pytest.approx(1.3862943611198906, abs=1e-9)
        assert s.variance == pytest.approx(1.3680560780236472, abs=1e-8)
        assert s.skewness == pytest.approx(1.5403288034048802, abs=1e-7)
        assert s.kurtosis == pytest.approx(6.5837356644567148, abs=1e-6)

    def test_variance_positive(self):
        for b in range(1, 11):
            assert GeneralizedHalfLogistic(float(b)).summary_stats().variance > 0.0


# The tiny-shape end of the domain: shapes from the smallest subnormal up to
# 1e-4, and x through zero, subnormals, the exp underflow near 745 and the
# top of the double range.
TINY_SHAPES = [5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4]
TINY_SHAPE_XS = [0.0, 5e-324, 1e-310, 1e-200, 1e-12, 1e-6, 0.5, 2.0, 5.0, 18.6, 37.0, 100.0,
                 745.0, 746.0, 1e4, 1e300, 1.7e308]


@pytest.mark.parametrize("b", TINY_SHAPES)
def test_tiny_shapes_give_a_value_in_range_or_a_typed_error(b):
    # Every call returns finite values in its range, or raises ValueError or
    # ConvergenceError with a message of its own, not math's bare "math
    # domain error" or "math range error". The quantile and median are not
    # in the sweep: they still raise "math domain error" at these shapes.
    d = GeneralizedHalfLogistic(b)
    idx = OrderIndex(2, 3)
    unit, positive = (0.0, 1.0), (0.0, math.inf)
    calls = [
        (lambda: d.moments(2), positive),
        (lambda: d.moment(1), positive),
        (lambda: d.moment(2), positive),
    ]
    for x in TINY_SHAPE_XS:
        calls += [
            (functools.partial(d.pdf, x), positive),
            (functools.partial(d.log_pdf, x), (-math.inf, math.inf)),
            (functools.partial(d.cdf, x), unit),
            (functools.partial(d.survival, x), unit),
            (functools.partial(d.hazard, x), positive),
            (functools.partial(d.interval_prob, 0.0, x), unit),
            (functools.partial(pdf_rth, d, idx, x), positive),
            (functools.partial(cdf_rth, d, idx, x), unit),
            (functools.partial(d.cdf_quadrature, x), unit),
        ]
    for call, (lo, hi) in calls:
        try:
            values = call()
        except (ValueError, ConvergenceError) as exc:
            assert str(exc) not in ("math domain error", "math range error"), call
            continue
        for v in values if isinstance(values, tuple) else (values,):
            assert math.isfinite(v) and lo <= v <= hi, (call, v)


class TestQuantilesAndMode:
    def test_median_values(self):
        # medians solve 2 I_sigma(x)(b,b) = 3/2; frozen from mpmath
        expected = {
            1.0: 1.0986122886681097,  # = ln 3 analytically
            2.0: 0.72473197398587314,
            3.0: 0.57781218627859009,
            4.0: 0.49443887675605038,
            5.0: 0.43906475288801004,
        }
        for b, med in expected.items():
            assert GeneralizedHalfLogistic(b).median() == pytest.approx(med, abs=1e-11)

    def test_median_splits_mass(self):
        for b in [0.5, 1.0, 2.0, 5.0, 30.0]:
            d = GeneralizedHalfLogistic(b)
            assert d.cdf(d.median()) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_at_zero(self):
        # B(1/2, b) ~ 1/b passes the double range below b ~ 1e-308.
        for b in (5e-324, 1e-310, 2.0, 3.0):
            assert GeneralizedHalfLogistic(b).quantile(0.0) == 0.0, b

    def test_linear_tail_where_b_overflows(self):
        # x = p/f(0) where B(1/2, b) = 1/f(0) overflows, against 30-digit
        # mpmath: f(0) ~ 1e-310 is subnormal, with about 44 of its 53 bits.
        import mpmath as mp

        b, p = 1e-310, 1e-320
        with mp.workdps(30):
            ref = mp.mpf(p) * mp.beta(0.5, mp.mpf(b))
        x = GeneralizedHalfLogistic(b).quantile(p)
        assert abs(x - ref) <= 1e-12 * ref

    def test_round_trip(self):
        ps = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        for b in [0.5, 1.0, 2.0, 3.0, 10.0]:
            d = GeneralizedHalfLogistic(b)
            for p in ps:
                assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_grid_inversion(self):
        # F(1.9) for b=2 sits at 0.9072 in the reference grid
        d = GeneralizedHalfLogistic(2.0)
        assert abs(d.quantile(0.9072) - 1.9) < 5e-4
        assert d.quantile(0.9072) == pytest.approx(1.8997351086188429, abs=1e-10)

    def test_monotone_in_p(self):
        d = GeneralizedHalfLogistic(2.5)
        ps = [i / 50.0 for i in range(50)]
        xs = [d.quantile(p) for p in ps]
        assert all(x1 <= x2 for x1, x2 in zip(xs, xs[1:]))

    def test_relative_accuracy_against_mpmath(self):
        # Reference root of F(x) = I_{tanh^2(x/2)}(1/2, b) = p at 40 digits.
        import mpmath as mp

        with mp.workdps(40):
            for b in [0.5, 2.0, 50.0, 1000.0]:
                ps = [0.1, 0.5, 0.9, 0.999] + ([1 - 1e-6] if b >= 2.0 else [])
                for p in ps:
                    x = GeneralizedHalfLogistic(b).quantile(p)
                    ref = mp.findroot(
                        lambda t: mp.betainc(0.5, b, 0, mp.tanh(t / 2) ** 2, regularized=True) - p,
                        mp.mpf(x),
                    )
                    assert abs(x - ref) <= 2e-11 * ref, (b, p)

    def test_lower_tail_relative_accuracy_against_mpmath(self):
        # Root of F(x) = p at 40 digits, solved in ln x from the origin's
        # slope F ~ f(0) x with f(0) = 2 / (B(b, b) 4^b). Below p ~ 1e-13 an
        # absolute residual bound on the solve lets the quantile land anywhere.
        import mpmath as mp

        with mp.workdps(40):
            for b in [1e-3, 0.03, 0.5, 2.0, 30.0, 1e3]:
                d = GeneralizedHalfLogistic(b)
                f0 = 2 / (mp.beta(b, b) * mp.mpf(4) ** b)
                for p in [1e-100, 1e-50, 1e-20, 1e-13, 1e-8, 1e-5, 1e-3]:
                    ref = mp.exp(mp.findroot(
                        lambda y: mp.log(mp.betainc(0.5, b, 0, mp.tanh(mp.exp(y) / 2) ** 2,
                                                    regularized=True) / p),
                        mp.log(p / f0),
                    ))
                    x = d.quantile(p)
                    assert abs(x - ref) <= 1e-11 * ref, (b, p)

    def test_upper_tail_relative_accuracy_against_mpmath(self):
        # Root of S(x) = I_{sech^2(x/2)}(b, 1/2) = 1 - p at 40 digits, solved
        # on ln S. A step on I_u - q left 1.2e-7 at b = 10, p = 1 - 1e-11.
        import mpmath as mp

        with mp.workdps(40):
            for b in [2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1e3]:
                d = GeneralizedHalfLogistic(b)
                for k in range(3, 13):
                    p = 1.0 - 10.0**-k
                    log_t = mp.log(1 - mp.mpf(p))
                    x = d.quantile(p)
                    ref = mp.findroot(
                        lambda t: mp.log(mp.betainc(b, 0.5, 0, mp.sech(t / 2) ** 2,
                                                    regularized=True)) - log_t,
                        mp.mpf(x),
                    )
                    assert abs(x - ref) <= 1e-11 * ref, (b, p)

    def test_far_lower_tail_against_mpmath(self):
        # x = p B(1/2, b) below 1e-9, where the inverse's u = tanh^2(x/2)
        # would underflow once p is below about 1e-154.
        import mpmath as mp

        with mp.workdps(40):
            for b in [1e-3, 2.0, 1e3]:
                d = GeneralizedHalfLogistic(b)
                for p in [1e-300, 1e-200, 1e-20]:
                    x = d.quantile(p)
                    got = mp.betainc(0.5, b, 0, mp.tanh(mp.mpf(x) / 2) ** 2, regularized=True)
                    assert abs(got - p) <= 1e-14 * p, (b, p)

    def test_largest_p_below_one(self):
        # (1 + p)/2 rounds to 1 at p = 1 - 2^-53; the seed takes its normal
        # deviate from (1 - p)/2 instead. With the solve on ln(1 - I_u) the
        # root is 1.6e-16 off at b = 1 (1% with an absolute residual); the
        # rounding of u next to 1 leaves 1.1e-10 at b = 2.
        import mpmath as mp

        top = math.nextafter(1.0, 0.0)
        with mp.workdps(40):
            for b in [1.0, 2.0, 50.0, 1000.0]:
                d = GeneralizedHalfLogistic(b)
                x = d.quantile(top)
                assert x >= d.quantile(1.0 - 1e-15), b
                ref = mp.findroot(
                    lambda t: mp.betainc(b, 0.5, 0, mp.sech(t / 2) ** 2, regularized=True) - 2.0**-53,
                    mp.mpf(x),
                )
                assert abs(x - ref) <= 2e-2 * ref, b

    def test_linear_tail_round_trips_through_cdf_quadrature(self):
        # Below x = 1e-9 the quantile inverts cdf_quadrature's line x f(0),
        # so the round trip only rounds twice.
        for i in range(61):
            d = GeneralizedHalfLogistic(10.0 ** (-3 + i / 10))
            for scale in (0.999, 0.5, 1e-7, 1e-150):
                p = 1e-9 * d._f0 * scale
                assert abs(d.cdf_quadrature(d.quantile(p)) - p) <= 2 * math.ulp(p), (d.b, p)

    def test_monotone_across_the_linear_tail(self):
        # The line x = p/f(0) hands over to the solve at x = 1e-9;
        # sample_order_stat relies on a nondecreasing quantile.
        for i in range(25):
            b = 10.0 ** (-3 + i / 4)
            d = GeneralizedHalfLogistic(b)
            p_edge = 1e-9 * d._f0
            for step in (1e-13, 1e-11, 1e-9):
                xs = [d.quantile(p_edge * (1.0 + k * step)) for k in range(-50, 51)]
                assert all(x1 <= x2 for x1, x2 in zip(xs, xs[1:])), (b, step)

    def test_kernel_evaluations_per_quantile(self, count_calls):
        # Work bound on the quantile's solve at (1/2, b), counted in
        # incomplete-beta evaluations, over both tails. The extra point took
        # 54 evaluations as a solve at (b, b).
        from ghl3 import special

        calls = count_calls("_reg_inc_beta_raw", special)
        ps = [1e-12 * 5e11 ** (k / 11) for k in range(12)]
        ps += [1.0 - 1e-9 * 5e8 ** (k / 11) for k in range(12)]
        points = [(1e-3 * 10 ** (k / 4), p) for k in range(25) for p in ps]
        points.append((0.5, 1.0 - 1e-6))
        counts = []
        for b, p in points:
            calls.clear()
            try:
                GeneralizedHalfLogistic(b).quantile(p)
            except ValueError:
                # At small b the upper-tail root rounds to u = 1 after the
                # solve, and atanh(1) raises; the solve's cost still counts.
                pass
            counts.append(len(calls))
        assert sum(counts) / len(counts) <= 2.5
        assert max(counts) <= 8

    def test_body_quantiles_take_one_or_two_evaluations(self, count_calls):
        # A trusted Halley step below 1e-5 of min(u, 1 - u) ends the solve
        # without another evaluation, and from b = 2 Hill's t-quantile seed
        # lies that close: most solves take one evaluation.
        from ghl3 import special

        calls = count_calls("_reg_inc_beta_raw", special)
        counts = []
        from_two = []
        for i in range(17):
            d = GeneralizedHalfLogistic(0.5 * 2000.0 ** (i / 16))
            for k in range(1, 28):
                calls.clear()
                d.quantile(k / 28)
                counts.append(len(calls))
                if d.b >= 2.0:
                    from_two.append(len(calls))
        assert sum(counts) / len(counts) <= 1.3
        assert sum(from_two) / len(from_two) <= 1.02
        assert max(counts) <= 3

    def test_hill_seed_band_relative_accuracy_against_mpmath(self):
        # Hill's t-quantile seed from b = 1 on: the root of
        # F(x) = I_{tanh^2(x/2)}(1/2, b) = p at 40 digits, for p uniform on
        # [1e-12, 1 - 1e-9] and, on every other draw, log-uniform in the
        # lower tail. Past p ~ 1 - 1e-4 the rounding of u next to 1 bounds
        # the accuracy instead (ROADMAP, solving in x).
        import mpmath as mp

        rng = random.Random(1311)
        with mp.workdps(40):
            for i in range(200):
                b = 1000.0 ** rng.random()
                p = rng.uniform(1e-12, 1.0 - 1e-9) if i % 2 else 10.0 ** rng.uniform(-12, -0.3)
                x = GeneralizedHalfLogistic(b).quantile(p)
                ref = mp.findroot(
                    lambda t: mp.betainc(0.5, b, 0, mp.tanh(t / 2) ** 2, regularized=True) - p,
                    mp.mpf(x),
                )
                assert abs(x - ref) <= 1e-13 * ref, (b, p)

    @pytest.mark.parametrize("b", [0.999, 1.0, 1.001, 2.499, 2.5, 2.501])
    def test_monotone_across_the_seed_switches(self, b):
        # The tail power laws hand over to Hill's seed at b = 1, and Hill's
        # nu < 5 correction ends at b = 2.5; sample_order_stat relies on a
        # nondecreasing quantile on either side of both.
        d = GeneralizedHalfLogistic(b)
        ps = [k / 8000 for k in range(8000)] + [1.0 - 10.0 ** (-j / 4) for j in range(16, 37)]
        xs = [d.quantile(p) for p in ps]
        assert all(x1 <= x2 for x1, x2 in zip(xs, xs[1:]))

    @pytest.mark.parametrize("p", [-0.1, 1.0, 1.5, math.nan])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            GeneralizedHalfLogistic(2.0).quantile(p)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 7.3])
    def test_mode_is_left_boundary(self, b):
        d = GeneralizedHalfLogistic(b)
        assert d.mode() == 0.0
        # density at the mode dominates nearby points
        assert d.pdf(0.0) >= d.pdf(1e-3)


class TestImmutability:
    def test_frozen(self):
        d = GeneralizedHalfLogistic(2.0)
        with pytest.raises(AttributeError):
            d.b = 3.0

    def test_custom_tolerance_carried(self):
        tol = Tolerance(abs_tol=1e-6, rel_tol=1e-6)
        d = GeneralizedHalfLogistic(2.0, tol)
        assert d.tol.abs_tol == 1e-6
        assert d.cdf_quadrature(1.0) == pytest.approx(d.cdf(1.0), abs=1e-5)
