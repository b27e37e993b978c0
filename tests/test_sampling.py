"""Sampler tests: stream reproducibility, inverse-transform exactness,
and distributional agreement via Kolmogorov-Smirnov."""

import math

import pytest

from conftest import ks_distance
from ghl3 import GeneralizedHalfLogistic, OrderIndex, RngStream, cdf_rth, sample, sample_order_stat


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(seed=123)
        b = RngStream(seed=123)
        assert [a.next_uniform() for _ in range(50)] == [b.next_uniform() for _ in range(50)]

    def test_counter_resume(self):
        a = RngStream(seed=9)
        first = [a.next_uniform() for _ in range(10)]
        b = RngStream(seed=9, counter=5)
        assert [b.next_uniform() for _ in range(5)] == first[5:]

    def test_distinct_seeds_differ(self):
        a = RngStream(seed=1)
        b = RngStream(seed=2)
        assert a.next_uniform() != b.next_uniform()

    def test_draws_strictly_inside_unit_interval(self):
        s = RngStream(seed=777)
        us = [s.next_uniform() for _ in range(20000)]
        assert 0.0 < min(us) and max(us) < 1.0

    def test_counter_advances(self):
        s = RngStream(seed=4)
        s.next_uniform()
        s.next_uniform()
        assert s.counter == 2

    def test_frozen_reference_sequence(self):
        # pins cross-platform bit reproducibility
        s = RngStream(seed=0)
        got = [s.next_uniform() for _ in range(3)]
        again = RngStream(seed=0)
        assert got == [again.next_uniform() for _ in range(3)]
        assert all(u == ((k >> 12) + 0.5) * 2.0**-52 for u, k in zip(got, _raw_ints(0, 3)))

    @pytest.mark.parametrize("seed, counter", [(-1, 0), (2**64, 0), (0, -1), (0.5, 0)])
    def test_validation(self, seed, counter):
        with pytest.raises(ValueError):
            RngStream(seed=seed, counter=counter)

    @pytest.mark.parametrize("n", [1, 2, 257])
    @pytest.mark.parametrize("counter", [0, 5, 2**64 + 3])
    @pytest.mark.parametrize("seed", [0, 31337, 2**64 - 1])
    def test_batch_of_uniforms_matches_reference(self, seed, counter, n):
        # 2^64 + 3 makes seed + i * golden wrap the 64-bit mask.
        s = RngStream(seed, counter)
        got = s._uniforms(n)
        assert got == [((k >> 12) + 0.5) * 2.0**-52 for k in _raw_ints(seed, n, counter)]
        assert s.counter == counter + n
        one = RngStream(seed, counter)
        assert [one.next_uniform() for _ in range(n)] == got
        assert one.counter == s.counter

    def test_integral_float_seed_and_counter(self):
        # Stored as int, so the mix's & and >> accept them.
        a = RngStream(2.0, 3.0)
        b = RngStream(2, 3)
        assert [a.next_uniform() for _ in range(5)] == [b.next_uniform() for _ in range(5)]


def _raw_ints(seed, count, counter=0):
    # The 64-bit words of uniforms counter+1 .. counter+count, indexed here
    # rather than by RngStream. next_uniform and sample now share one
    # mapping, RngStream._uniforms, so this is the only copy of the
    # (seed, i) indexing outside it; the mix itself is imported, and the CI
    # step's `ghl3 sample` lines pin its bits.
    from ghl3.sampling import _GOLDEN, _MASK64, _mix64

    return [_mix64((seed + (counter + i + 1) * _GOLDEN) & _MASK64) for i in range(count)]


class TestSample:
    def test_reproducible(self):
        d = GeneralizedHalfLogistic(2.0)
        xs = sample(d, RngStream(seed=42), 100)
        ys = sample(d, RngStream(seed=42), 100)
        assert xs == ys

    def test_values_are_quantiles_of_stream_uniforms(self):
        d = GeneralizedHalfLogistic(3.0)
        probe = RngStream(seed=11)
        us = [probe.next_uniform() for _ in range(20)]
        xs = sample(d, RngStream(seed=11), 20)
        assert xs == [d.quantile(u) for u in us]

    def test_advances_counter_by_count(self):
        d = GeneralizedHalfLogistic(1.0)
        s = RngStream(seed=3)
        sample(d, s, 17)
        assert s.counter == 17

    def test_median_uniform_maps_to_median(self):
        d = GeneralizedHalfLogistic(2.0)
        assert d.quantile(0.5) == d.median()

    def test_support(self):
        d = GeneralizedHalfLogistic(0.5)
        xs = sample(d, RngStream(seed=8), 2000)
        assert all(x >= 0.0 and math.isfinite(x) for x in xs)

    def test_count_validation(self):
        d = GeneralizedHalfLogistic(2.0)
        with pytest.raises(ValueError):
            sample(d, RngStream(seed=1), 0)

    @pytest.mark.parametrize("b", [1.0, 2.0, 5.0])
    def test_ks_against_analytic_cdf(self, b):
        d = GeneralizedHalfLogistic(b)
        n = 20000
        xs = sample(d, RngStream(seed=2718), n)
        assert ks_distance(xs, d.cdf) < 1.63 / math.sqrt(n)


class TestSampleOrderStat:
    def test_single_draw_reduces_to_sample(self):
        d = GeneralizedHalfLogistic(2.0)
        xs = sample_order_stat(d, OrderIndex(1, 1), RngStream(seed=5), 25)
        assert xs == sample(d, RngStream(seed=5), 25)

    def test_rank_ordering_within_batches(self):
        d = GeneralizedHalfLogistic(2.0)
        lo = sample_order_stat(d, OrderIndex(1, 4), RngStream(seed=6), 200)
        mid = sample_order_stat(d, OrderIndex(2, 4), RngStream(seed=6), 200)
        hi = sample_order_stat(d, OrderIndex(4, 4), RngStream(seed=6), 200)
        assert all(a <= m <= h for a, m, h in zip(lo, mid, hi))

    def test_maxima_distribution(self):
        # cdf of the maximum is F^n
        d = GeneralizedHalfLogistic(2.0)
        n_batches = 10000
        xs = sample_order_stat(d, OrderIndex(3, 3), RngStream(seed=99), n_batches)
        assert ks_distance(xs, lambda x: d.cdf(x) ** 3) < 1.63 / math.sqrt(n_batches)

    def test_rank_cdf_distribution(self):
        d = GeneralizedHalfLogistic(1.0)
        idx = OrderIndex(2, 3)
        n_batches = 10000
        xs = sample_order_stat(d, idx, RngStream(seed=17), n_batches)
        assert ks_distance(xs, lambda x: cdf_rth(d, idx, x)) < 1.63 / math.sqrt(n_batches)

    @pytest.mark.parametrize("r, n", [(1, 7), (4, 7), (7, 7), (13, 50)])
    @pytest.mark.parametrize("b", [0.5, 2.0, 100.0])
    def test_one_quantile_per_batch_matches_sorting_all_draws(self, monkeypatch, count_calls, b, r, n):
        d = GeneralizedHalfLogistic(b)
        batches = 4
        for seed in (0, 31337, 2**64 - 1):
            # Reference: all n draws of a batch, sorted, keep the r-th.
            probe = RngStream(seed=seed, counter=5)
            want = [sorted(d.quantile(probe.next_uniform()) for _ in range(n))[r - 1]
                    for _ in range(batches)]
            calls = count_calls("quantile", GeneralizedHalfLogistic)
            stream = RngStream(seed=seed, counter=5)
            got = sample_order_stat(d, OrderIndex(r, n), stream, batches)
            monkeypatch.undo()
            assert got == want
            assert len(calls) == batches
            assert stream.counter == 5 + n * batches

    def test_integral_float_index(self):
        d = GeneralizedHalfLogistic(2.0)
        got = sample_order_stat(d, OrderIndex(2.0, 5.0), RngStream(seed=12), 3)
        assert got == sample_order_stat(d, OrderIndex(2, 5), RngStream(seed=12), 3)

    def test_batches_validation(self):
        d = GeneralizedHalfLogistic(2.0)
        with pytest.raises(ValueError):
            sample_order_stat(d, OrderIndex(1, 2), RngStream(seed=1), 0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, 2.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: GeneralizedHalfLogistic(2.0).moment(v),
        lambda v: sample(GeneralizedHalfLogistic(2.0), RngStream(seed=1), v),
        lambda v: sample_order_stat(GeneralizedHalfLogistic(2.0), OrderIndex(1, 2), RngStream(seed=1), v),
        lambda v: OrderIndex(v, 3),
        lambda v: OrderIndex(1, v),
        lambda v: RngStream(seed=v),
        lambda v: RngStream(seed=1, counter=v),
    ],
    ids=["moment", "sample", "sample_order_stat", "OrderIndex.r", "OrderIndex.n", "RngStream.seed", "RngStream.counter"],
)
def test_integer_arguments_raise_value_error(call, value):
    # int() of an infinity raises OverflowError and bool passes as 1; both
    # must be a ValueError.
    with pytest.raises(ValueError):
        call(value)
