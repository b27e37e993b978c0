"""Seeded, counter-based random variate generation by inverse transform.

The uniform source is SplitMix64's mix of seed + i * golden, so uniform i
depends only on (seed, i): streams can be resumed, split by seed, and give
bit-identical sequences on every platform. A call mixes up to _LANES words at
once in the 128-bit lanes of one int (a 64 x 64-bit product stays in its lane)
and reads a lane's top 52 bits k as the double 1 + k * 2^-52; less 1 - 2^-53,
that is exactly (k + 0.5) * 2^-52 (Sterbenz), strictly inside (0, 1).
Variates are quantile(u), with no rejection step.

A stream is single-owner mutable state; concurrent sampling needs
independent streams with distinct seeds.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .distribution import GeneralizedHalfLogistic, _check_whole
from .order_statistics import OrderIndex

__all__ = ["RngStream", "sample", "sample_order_stat"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LANES = 256
_ONES = sum(1 << 128 * k for k in range(_LANES))  # 1 in each 128-bit lane
_STEPS = sum((k * _GOLDEN & _MASK64) << 128 * k for k in range(_LANES))
_LANE_MASK = _MASK64 * _ONES
_ONE_BITS = 0x3FF0000000000000 * _ONES  # the exponent of 1.0 in each lane
_DOUBLE = struct.Struct("<d8x")  # a lane: the double, then 8 pad bytes
_HALF_ULP_BELOW_ONE = 1.0 - 2.0**-53


def _mixed(seed: int, first: int, m: int) -> bytes:
    # Lane k < m: seed + (first + k) * golden, mixed; masks drop lane k + 1's bits.
    low = (1 << 128 * m) - 1
    mask = _LANE_MASK & low
    z = ((seed + first * _GOLDEN & _MASK64) * (_ONES & low) + (_STEPS & low)) & mask
    z = ((z ^ z >> 30) & mask) * _MIX1 & mask
    z = ((z ^ z >> 27) & mask) * _MIX2 & mask
    return ((z ^ z >> 31) >> 12 | _ONE_BITS & low).to_bytes(16 * m, "little")


@dataclass
class RngStream:
    """Position `counter` in the uniform stream identified by `seed`. A batch
    of n uniforms is i = counter+1 .. counter+n from one call; counter moves by n."""

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        self.seed = _check_whole(self.seed, "seed", 0)
        if self.seed > _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        self.counter = _check_whole(self.counter, "counter", 0)

    def next_uniform(self) -> float:
        """Next uniform in (0, 1) exclusive; advances the counter by one."""
        return next(self._uniforms(1))

    def _uniforms(self, n: int) -> Iterator[float]:
        # The next n uniforms, mixed as they are read; advances the counter by n.
        seed, start = self.seed, self.counter + 1
        self.counter += n
        return (x - _HALF_ULP_BELOW_ONE
                for first in range(start, start + n, _LANES)
                for (x,) in _DOUBLE.iter_unpack(_mixed(seed, first, min(_LANES, start + n - first))))


def sample(d: GeneralizedHalfLogistic, stream: RngStream, count: int) -> list[float]:
    """Draw `count` variates as quantile(u) over successive uniforms u.

    Fully reproducible from the stream's (seed, counter); advances the
    counter by count.
    """
    return [d.quantile(u) for u in stream._uniforms(_check_whole(count, "count", 1))]


def sample_order_stat(
    d: GeneralizedHalfLogistic, idx: OrderIndex, stream: RngStream, batches: int
) -> list[float]:
    """Simulate the r-th order statistic: each output is the r-th smallest
    of n fresh draws. Reads n per batch from one stream of n * batches, which
    advances the counter by n * batches; as quantile is nondecreasing, it
    inverts only the r-th smallest of each batch."""
    n, k, batches = idx.n, idx.r - 1, _check_whole(batches, "batches", 1)
    us = stream._uniforms(n * batches)
    return [d.quantile(sorted(islice(us, n))[k]) for _ in range(batches)]
