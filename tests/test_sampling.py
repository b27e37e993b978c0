"""Sampler tests: stream reproducibility, inverse-transform exactness,
and distributional agreement via Kolmogorov-Smirnov."""

import hashlib
import math

import pytest

from conftest import ks_distance
from ghl3 import GeneralizedHalfLogistic, OrderIndex, RngStream, cdf_rth, sample, sample_order_stat
from ghl3.sampling import _LANES


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
        # Pins cross-platform bit reproducibility: literals taken from the
        # scalar mix, and the hash of the stream behind
        # `ghl3 sample --b 2 --count 100000 --seed 1`.
        s = RngStream(seed=0)
        assert [s.next_uniform().hex() for _ in range(3)] == [
            "0x1.c4415072f63b9p-1", "0x1.b9e279aa86e5ap-2", "0x1.b117462002520p-6"]
        s = RngStream(2**64 - 1, 2**64 + 3)
        assert [s.next_uniform().hex() for _ in range(2)] == ["0x1.b476cdb32ea62p-2", "0x1.69408e5caf00dp-1"]
        text = "\n".join(u.hex() for u in RngStream(1)._uniforms(100000))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2ff40b41f77f3667daa8e843207be3ff325e557718658d984ff4760b6f3c9a27")

    @pytest.mark.parametrize("seed, counter", [(-1, 0), (2**64, 0), (0, -1), (0.5, 0)])
    def test_validation(self, seed, counter):
        with pytest.raises(ValueError):
            RngStream(seed=seed, counter=counter)

    @pytest.mark.parametrize("n", sorted({1, 2, 257, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1}))
    @pytest.mark.parametrize("counter", [0, 5, 2**64 + 3, 2**70])
    @pytest.mark.parametrize("seed", [0, 31337, 2**64 - 1])
    def test_batch_of_uniforms_matches_reference(self, seed, counter, n):
        # 2^64 + 3 makes seed + i * golden wrap the 64-bit mask; n crosses
        # the edges of the lane chunks. The counter moves before any is read.
        s = RngStream(seed, counter)
        uniforms = s._uniforms(n)
        assert s.counter == counter + n
        got = list(uniforms)
        assert got == [((k >> 12) + 0.5) * 2.0**-52 for k in _raw_ints(seed, n, counter)]
        one = RngStream(seed, counter)
        assert [one.next_uniform() for _ in range(n)] == got
        assert one.counter == s.counter

    def test_integral_float_seed_and_counter(self):
        # Stored as int, so the mix's & and >> accept them.
        a = RngStream(2.0, 3.0)
        b = RngStream(2, 3)
        assert [a.next_uniform() for _ in range(5)] == [b.next_uniform() for _ in range(5)]


def _raw_ints(seed, count, counter=0):
    # The 64-bit words of uniforms counter+1 .. counter+count from a scalar
    # SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), one word at a time.
    mask = (1 << 64) - 1
    words = []
    for i in range(counter + 1, counter + count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        words.append(z ^ (z >> 31))
    return words


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

    @pytest.mark.parametrize("r, n, batches", [(1, 7, 4), (4, 7, 4), (7, 7, 4), (13, 50, 4),
                                               (2, 3, 200), (13, 50, 12)])
    @pytest.mark.parametrize("b", [0.5, 2.0, 100.0])
    def test_one_quantile_per_batch_matches_sorting_all_draws(self, monkeypatch, count_calls, b, r, n, batches):
        # n * batches past _LANES reads batches across lane chunks.
        d = GeneralizedHalfLogistic(b)
        for seed in (0, 31337, 2**64 - 1):
            # Reference: all n draws of a batch, sorted, keep the r-th.
            probe = RngStream(seed=seed, counter=5)
            want = [sorted(d.quantile(probe.next_uniform()) for _ in range(n))[r - 1]
                    for _ in range(batches)]
            calls = count_calls("quantile", GeneralizedHalfLogistic)
            streams = count_calls("_uniforms", RngStream)
            stream = RngStream(seed=seed, counter=5)
            got = sample_order_stat(d, OrderIndex(r, n), stream, batches)
            monkeypatch.undo()
            assert got == want
            assert len(calls) == batches
            assert len(streams) == 1
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
