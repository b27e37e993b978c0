"""Order-statistic density tests: identities, normalization, cdf consistency."""

import functools
import itertools
import math
import random

import pytest

from ghl3 import (
    GeneralizedHalfLogistic,
    OrderIndex,
    cdf_rth,
    integrate_semi_infinite,
    pdf_max,
    pdf_min,
    pdf_rth,
    sf_rth,
)
from ghl3 import order_statistics, special

from conftest import SWEEP_SHAPES, SWEEP_XS, mp_pair

SWEEP_RANKS = [(1, 1), (1, 5), (3, 5), (5, 5), (10, 10), (25, 50), (1, 1000), (500, 1000), (1000, 1000)]


@functools.lru_cache(maxsize=None)
def rank_worst_errors() -> tuple[float, float, float]:
    """Worst relative errors of pdf_rth, cdf_rth and sf_rth against 60-digit
    mpmath over SWEEP_SHAPES x SWEEP_XS x SWEEP_RANKS, both sides of the
    kernel's switch, with F and S from mp_pair."""
    import mpmath as mp

    worst_pdf = worst_cdf = worst_sf = 0.0
    with mp.workdps(60):
        for b in SWEEP_SHAPES:
            d = GeneralizedHalfLogistic(b)
            for x in SWEEP_XS:
                f, s = mp_pair(b, x)
                dens = mp.sech(mp.mpf(x) / 2) ** (2 * b) / mp.beta(0.5, b)
                for r, n in SWEEP_RANKS:
                    idx = OrderIndex(r, n)
                    ref = dens * f ** (r - 1) * s ** (n - r) / mp.beta(r, n - r + 1)
                    if ref >= 1e-300:
                        worst_pdf = max(worst_pdf, abs(pdf_rth(d, idx, x) - ref) / ref)
                    ref = mp.betainc(r, n - r + 1, 0, f, regularized=True)
                    if ref >= 1e-300:
                        worst_cdf = max(worst_cdf, abs(cdf_rth(d, idx, x) - ref) / ref)
                    ref = mp.betainc(n - r + 1, r, 0, s, regularized=True)
                    if ref >= 1e-300:
                        worst_sf = max(worst_sf, abs(sf_rth(d, idx, x) - ref) / ref)
    return float(worst_pdf), float(worst_cdf), float(worst_sf)


class TestOrderIndex:
    def test_valid(self):
        idx = OrderIndex(2, 5)
        assert (idx.r, idx.n) == (2, 5)

    @pytest.mark.parametrize("r, n", [(0, 3), (4, 3), (-1, 2), (1, 0), (1.5, 3)])
    def test_invalid(self, r, n):
        with pytest.raises(ValueError):
            OrderIndex(r, n)

    def test_integral_floats_are_stored_as_int(self):
        idx = OrderIndex(2.0, 5.0)
        assert (idx.r, idx.n) == (2, 5)
        assert type(idx.r) is int and type(idx.n) is int
        d = GeneralizedHalfLogistic(2.0)
        assert cdf_rth(d, idx, 1.0) == cdf_rth(d, OrderIndex(2, 5), 1.0)

    @pytest.mark.parametrize("r, n", [(True, True), (1, True), (True, 2)])
    def test_bool_rejected(self, r, n):
        # bool is an int subclass, so True would otherwise pass as 1.
        with pytest.raises(ValueError):
            OrderIndex(r, n)


class TestRthDensity:
    def test_single_observation_is_plain_density(self):
        d = GeneralizedHalfLogistic(2.0)
        idx = OrderIndex(1, 1)
        for x in [0.0, 0.4, 1.1, 3.0]:
            assert pdf_rth(d, idx, x) == pytest.approx(d.pdf(x), rel=1e-13)

    def test_minimum_of_two_at_median(self):
        # r=1, n=2: 2 (1-F) f = f at the median
        d = GeneralizedHalfLogistic(2.0)
        xm = d.median()
        assert pdf_rth(d, OrderIndex(1, 2), xm) == pytest.approx(d.pdf(xm), rel=1e-12)

    @pytest.mark.parametrize("r, n, b", [(2, 5, 3.0), (1, 2, 2.0), (5, 5, 1.0)])
    def test_normalizes_to_one(self, r, n, b):
        d = GeneralizedHalfLogistic(b)
        idx = OrderIndex(r, n)
        total = integrate_semi_infinite(lambda x: pdf_rth(d, idx, x), 0.0, d.tol, decay_rate=b)
        assert total.value == pytest.approx(1.0, abs=1e-8)

    def test_mixture_identity(self):
        # averaging the n rank densities recovers the parent density
        rng = random.Random(31)
        d = GeneralizedHalfLogistic(2.0)
        for n in (2, 3, 5):
            for _ in range(20):
                x = rng.uniform(0.0, 6.0)
                mixture = sum(pdf_rth(d, OrderIndex(r, n), x) for r in range(1, n + 1)) / n
                assert abs(mixture - d.pdf(x)) <= 1e-10

    def test_large_sample_sizes_do_not_overflow(self):
        d = GeneralizedHalfLogistic(2.0)
        xm = d.median()
        v = pdf_rth(d, OrderIndex(5000, 10000), xm)
        assert math.isfinite(v)
        assert v > 0.0

    def test_survival_underflow_gives_zero(self):
        # S(5) underflows to 0 at b = 1000, so S^(n-r) is 0, not log(0).
        d = GeneralizedHalfLogistic(1000.0)
        assert d.survival(5.0) == 0.0
        assert pdf_rth(d, OrderIndex(1, 5), 5.0) == 0.0


    @pytest.mark.parametrize("b", [1e-300, 1e-200])
    def test_tiny_shapes_give_finite_values(self, b):
        # The far side's S = f*t*K/b rounds to 1 + 2.4e-14 at b = 1e-300
        # unless clamped, and log(1 - S) raised. F is cdf_rth at r = n = 1.
        d = GeneralizedHalfLogistic(b)
        for x in [0.0, 1.0, 5.0, 745.0, 1e300]:
            assert 0.0 <= d.survival(x) <= 1.0, x
            assert 0.0 <= cdf_rth(d, OrderIndex(1, 1), x) <= 1.0, x
            assert 0.0 < d.hazard(x) < math.inf, x
            for r, n in [(1, 3), (2, 3), (3, 3)]:
                assert math.isfinite(pdf_rth(d, OrderIndex(r, n), x)), (x, r, n)
                assert 0.0 <= cdf_rth(d, OrderIndex(r, n), x) <= 1.0, (x, r, n)

    @pytest.mark.parametrize(
        "b, x, r, n", [(0.0018, 1e-12, 10, 10), (2.0, 1e-9, 3, 5), (1000.0, 1e-12, 10, 10)]
    )
    def test_near_origin_relative_accuracy_against_mpmath(self, b, x, r, n):
        # F is a few ulps here; read as 1 - S it kept a few bits, and
        # F^(r-1) spread that error to 10% at b = 0.0018.
        import mpmath as mp

        with mp.workdps(50):
            f = mp.betainc(0.5, b, 0, mp.tanh(mp.mpf(x) / 2) ** 2, regularized=True)
            dens = mp.sech(mp.mpf(x) / 2) ** (2 * b) / mp.beta(0.5, b)
            ref_pdf = dens * f ** (r - 1) * (1 - f) ** (n - r) / mp.beta(r, n - r + 1)
            ref_cdf = mp.betainc(r, n - r + 1, 0, f, regularized=True)
        d, idx = GeneralizedHalfLogistic(b), OrderIndex(r, n)
        assert abs(pdf_rth(d, idx, x) - ref_pdf) <= 3e-14 * ref_pdf
        assert abs(cdf_rth(d, idx, x) - ref_cdf) <= 3e-14 * ref_cdf

    def test_both_tails_relative_accuracy_against_mpmath(self):
        # Worst measured 7.5e-12, at b = 1e-3, x = 4.4, r = 25 of 50: there F
        # is the small side but is read as 1 - S, and F^24 spreads its error.
        worst_pdf, _, _ = rank_worst_errors()
        assert worst_pdf <= 1e-11


class TestExtremes:
    def test_max_reduces_to_density(self):
        d = GeneralizedHalfLogistic(3.0)
        for x in [0.0, 0.9, 2.2]:
            assert pdf_max(d, 1, x) == pytest.approx(d.pdf(x), rel=1e-13)

    def test_max_of_two_at_median(self):
        d = GeneralizedHalfLogistic(2.0)
        xm = d.median()
        assert pdf_max(d, 2, xm) == pytest.approx(d.pdf(xm), rel=1e-12)

    def test_max_vanishes_at_origin(self):
        d = GeneralizedHalfLogistic(2.0)
        for n in (2, 3, 10):
            assert pdf_max(d, n, 0.0) == 0.0

    def test_max_matches_general_rank(self):
        d = GeneralizedHalfLogistic(1.5)
        for n in (1, 2, 4, 7):
            for x in [0.1, 0.8, 2.0, 4.5]:
                assert abs(pdf_max(d, n, x) - pdf_rth(d, OrderIndex(n, n), x)) <= 1e-12

    def test_min_reduces_to_density(self):
        d = GeneralizedHalfLogistic(3.0)
        for x in [0.0, 0.9, 2.2]:
            assert pdf_min(d, 1, x) == pytest.approx(d.pdf(x), rel=1e-13)

    def test_min_of_three_at_origin(self):
        # F(0) = 0 so the minimum density is n * f(0) = 3 * 0.75
        d = GeneralizedHalfLogistic(2.0)
        assert pdf_min(d, 3, 0.0) == pytest.approx(2.25, rel=1e-13)

    def test_min_matches_general_rank(self):
        d = GeneralizedHalfLogistic(1.5)
        for n in (1, 2, 4, 7):
            for x in [0.1, 0.8, 2.0, 4.5]:
                assert abs(pdf_min(d, n, x) - pdf_rth(d, OrderIndex(1, n), x)) <= 1e-12

    def test_min_normalizes(self):
        d = GeneralizedHalfLogistic(2.0)
        total = integrate_semi_infinite(lambda x: pdf_min(d, 4, x), 0.0, d.tol, decay_rate=2.0)
        assert total.value == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 2.5])
    @pytest.mark.parametrize("fn", [pdf_max, pdf_min])
    def test_bad_sample_size(self, fn, n):
        with pytest.raises(ValueError):
            fn(GeneralizedHalfLogistic(2.0), n, 1.0)

    @pytest.mark.parametrize("fn", [pdf_max, pdf_min])
    def test_bool_sample_size_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(GeneralizedHalfLogistic(2.0), True, 1.0)


class TestRankCdf:
    def test_values_at_median(self):
        d = GeneralizedHalfLogistic(2.0)
        xm = d.median()
        assert cdf_rth(d, OrderIndex(2, 2), xm) == pytest.approx(0.25, abs=1e-12)
        assert cdf_rth(d, OrderIndex(1, 2), xm) == pytest.approx(0.75, abs=1e-12)

    def test_zero_at_origin(self):
        d = GeneralizedHalfLogistic(3.0)
        for r, n in [(1, 1), (2, 4), (5, 5)]:
            assert cdf_rth(d, OrderIndex(r, n), 0.0) == 0.0

    def test_nondecreasing(self):
        d = GeneralizedHalfLogistic(2.0)
        idx = OrderIndex(2, 3)
        xs = [8.0 * i / 100.0 for i in range(101)]
        vals = [cdf_rth(d, idx, x) for x in xs]
        assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_derivative_matches_density(self):
        d = GeneralizedHalfLogistic(2.0)
        idx = OrderIndex(2, 3)
        h = 1e-5
        for x in [0.4, 0.9, 1.6, 2.5]:
            fd = (cdf_rth(d, idx, x + h) - cdf_rth(d, idx, x - h)) / (2.0 * h)
            assert abs(fd - pdf_rth(d, idx, x)) <= 1e-6

    def test_float_shapes_match_int_shapes_bitwise(self):
        # cdf_rth passes the kernel float shapes; below 2^53 the int shapes
        # (r, n-r+1) give the same arithmetic.
        rng = random.Random(25)
        for _ in range(2000):
            d = GeneralizedHalfLogistic(10.0 ** rng.uniform(-3.0, 3.0))
            n = int(10.0 ** rng.uniform(0.0, 4.0))
            r = rng.randint(1, n)
            x = 10.0 ** rng.uniform(-6.0, 2.0)
            want = special.reg_inc_beta(r, n - r + 1, d._pair(x, "cdf_rth")[0])
            assert cdf_rth(d, OrderIndex(r, n), x) == want, (d.b, r, n, x)

    @pytest.mark.parametrize("r, n", [(500, 1000), (1, 10000)])
    def test_log_gamma_calls_do_not_grow_with_n(self, count_calls, r, n):
        # One incomplete beta for the rank, whose log_beta makes the only
        # three log_gamma calls; the survival makes none, as _pair reads the
        # cached ln B(1/2, b). The binomial sum made 3 per term.
        calls = count_calls("log_gamma", special, order_statistics)
        d = GeneralizedHalfLogistic(2.0)
        for x in (0.3, d.median(), 4.0):
            calls.clear()
            cdf_rth(d, OrderIndex(r, n), x)
            assert len(calls) <= 3, x

    def test_both_tails_relative_accuracy_against_mpmath(self):
        # Worst measured 7.8e-12, at the pdf_rth sweep's worst point.
        _, worst_cdf, _ = rank_worst_errors()
        assert worst_cdf <= 1e-11

    def test_one_kernel_call_per_evaluation(self, count_calls):
        # The kernel's own symmetry switch picks the side; neither cdf_rth
        # nor sf_rth restates it with a second route.
        calls = count_calls("reg_inc_beta", order_statistics)
        d = GeneralizedHalfLogistic(2.0)
        for fn, (r, n) in itertools.product((cdf_rth, sf_rth), [(1, 5), (3, 5), (5, 5), (500, 1000)]):
            for x in (0.0, 0.05, d.median(), 4.0, 30.0):
                calls.clear()
                fn(d, OrderIndex(r, n), x)
                assert len(calls) == 1, (fn.__name__, r, n, x)

    @pytest.mark.parametrize("b", [0.5, 2.0, 50.0])
    def test_far_side_relative_accuracy_against_mpmath(self, b):
        # Past F = r/(n+1) the kernel evaluates 1 - I_{1-F}(n-r+1, r) itself.
        import mpmath as mp

        d = GeneralizedHalfLogistic(b)
        ranks = [(1, 5), (3, 5), (5, 5), (10, 50), (25, 50), (50, 50), (1, 1000), (500, 1000), (1000, 1000)]
        checked = 0
        for (r, n), p in itertools.product(ranks, (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999)):
            x = d.quantile(p)
            if 1.0 - d.survival(x) <= r / (n + 1.0):
                continue
            with mp.workdps(50):
                s = mp.betainc(b, 0.5, 0, mp.sech(mp.mpf(x) / 2) ** 2, regularized=True)
                ref = mp.betainc(r, n - r + 1, 0, 1 - s, regularized=True)
            got = cdf_rth(d, OrderIndex(r, n), x)
            assert abs(got - ref) <= 2e-11 * ref, (r, n, p)
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize(
        "b, x, r, n",
        [
            (0.01, 230.2747219556415, 1, 5),
            (0.01, 230.2747219556415, 3, 5),
            (0.01, 230.2747219556415, 5, 5),
            (0.01, 230.2747219556415, 50, 50),
            (0.1, 138.29881350451882, 5, 5),
            (0.1, 138.29881350451882, 50, 50),
            (0.1, 138.29881350451882, 1000, 1000),
            (0.001, 105.36215819156126, 1, 5),
        ],
    )
    def test_upper_tail_relative_accuracy_against_mpmath(self, b, x, r, n):
        # Small shapes put much of the mass where sigma(x) rounds to 1, so
        # the cdf reads 1.0 there; the survival S = I_{sech^2(x/2)}(b, 1/2)
        # stays accurate and gives P(X_{r:n} <= x) = 1 - I_S(n-r+1, r).
        import mpmath as mp

        with mp.workdps(50):
            s = mp.betainc(b, 0.5, 0, mp.sech(mp.mpf(x) / 2) ** 2, regularized=True)
            ref = 1 - mp.betainc(n - r + 1, r, 0, s, regularized=True)
        got = cdf_rth(GeneralizedHalfLogistic(b), OrderIndex(r, n), x)
        assert abs(got - ref) <= 1e-11 * ref

    @pytest.mark.parametrize(
        "r, n, fn",
        [(500, 1000, pdf_rth), (50, 50, cdf_rth)],
    )
    def test_small_shape_reads_cdf_from_survival(self, r, n, fn):
        # At b = 0.001 sigma(x) rounds to 1 here, and so does the
        # closed-form cdf, though F = 0.1; F read as 1 - S does not.
        # True values 1.6e-223 (pdf_rth) and 1.0e-50 (cdf_rth).
        import mpmath as mp

        b, x = 0.001, 105.36215819156126
        with mp.workdps(50):
            s = mp.betainc(b, 0.5, 0, mp.sech(mp.mpf(x) / 2) ** 2, regularized=True)
            f = 1 - s
            if fn is cdf_rth:
                ref = mp.betainc(r, n - r + 1, 0, f, regularized=True)
            else:
                log_norm = mp.log(2) - mp.log(mp.beta(b, b))
                dens = mp.exp(log_norm - b * x - 2 * b * mp.log1p(mp.exp(-mp.mpf(x))))
                ref = dens * f ** (r - 1) * s ** (n - r) / mp.beta(r, n - r + 1)
        got = fn(GeneralizedHalfLogistic(b), OrderIndex(r, n), x)
        assert abs(got - ref) <= 1e-9 * ref


class TestRankSurvival:
    @pytest.mark.parametrize("r, n, x", [(1, 10, 15.0), (10, 10, 20.0), (5, 10, 8.0)])
    def test_upper_tail_where_one_minus_cdf_is_zero(self, r, n, x):
        # At b = 2, 1 - cdf_rth rounds to 0.0 here; the true values are
        # 3.11e-123, 2.55e-16 and 1.98e-35. Worst measured 1.1e-14 relative.
        import mpmath as mp

        d, idx = GeneralizedHalfLogistic(2.0), OrderIndex(r, n)
        with mp.workdps(50):
            s = mp.betainc(2.0, 0.5, 0, mp.sech(mp.mpf(x) / 2) ** 2, regularized=True)
            ref = mp.betainc(n - r + 1, r, 0, s, regularized=True)
        assert 1.0 - cdf_rth(d, idx, x) == 0.0
        assert abs(sf_rth(d, idx, x) - ref) <= 3e-14 * ref

    def test_both_tails_relative_accuracy_against_mpmath(self):
        # Worst measured 1.9e-12, at b = 0.01, x = 4.4, r = 1 of 1000: there
        # sf_rth is S^1000, which carries S's own error a thousandfold.
        _, _, worst_sf = rank_worst_errors()
        assert worst_sf <= 4e-12

    def test_complements_cdf_rth(self):
        # cdf_rth reads F and sf_rth reads S, and F + S = 1 only to half an
        # ulp of 1. Each side carries that through the slope of I_u(r, n-r+1),
        # dI/dF = pdf_rth / pdf, which reaches n. So the sum is within 4 ulps
        # only where the slope is small (every n <= 50 here). Worst measured:
        # 245 ulps at b = 10, x = 4.5e-6, r = 1 of 1000 (slope 999); past the
        # 4 ulps, at most 0.25 ulp per unit of slope.
        checked = 0
        for b in SWEEP_SHAPES:
            d = GeneralizedHalfLogistic(b)
            for x in SWEEP_XS:
                for r, n in SWEEP_RANKS:
                    idx = OrderIndex(r, n)
                    lower, upper = cdf_rth(d, idx, x), sf_rth(d, idx, x)
                    if lower > 1e-3 and upper > 1e-3:
                        slope = pdf_rth(d, idx, x) / d.pdf(x)
                        assert abs(lower + upper - 1.0) <= (4.0 + 0.5 * slope) * math.ulp(1.0), (b, x, r, n)
                        checked += 1
        assert checked >= 200

    def test_one_at_the_origin(self):
        d = GeneralizedHalfLogistic(3.0)
        for r, n in [(1, 1), (2, 4), (5, 5)]:
            assert sf_rth(d, OrderIndex(r, n), 0.0) == 1.0


@pytest.mark.parametrize("fn", [pdf_rth, cdf_rth, sf_rth])
@pytest.mark.parametrize("x", [-1e-9, math.nan])
def test_support_errors_name_the_function_called(fn, x):
    with pytest.raises(ValueError, match=f"^{fn.__name__} is supported"):
        fn(GeneralizedHalfLogistic(2.0), OrderIndex(1, 2), x)
