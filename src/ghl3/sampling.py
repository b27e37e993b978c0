"""Seeded, counter-based random variate generation by inverse transform.

The uniform source is a stateless 64-bit mix (splitmix-style) of
seed + (counter+1) * golden, so draw i depends only on (seed, i): streams
can be resumed, split by seed, and give bit-identical sequences on every
platform. Uniforms are built from the top 52 bits as (k + 0.5) * 2^-52,
which keeps every draw strictly inside (0, 1) using exact float
arithmetic. Variates are then exactly quantile(u) -- no rejection step.
A batch's uniforms come from one call; draw i still depends only on (seed, i).

A stream is single-owner mutable state; concurrent sampling needs
independent streams with distinct seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distribution import GeneralizedHalfLogistic, _check_whole
from .order_statistics import OrderIndex

__all__ = ["RngStream", "sample", "sample_order_stat"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_2_POW_NEG52 = 2.0**-52


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


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
        return self._uniforms(1)[0]

    def _uniforms(self, n: int) -> list[float]:
        # The next n uniforms; advances the counter by n.
        seed, start = self.seed, self.counter + 1
        self.counter += n
        return [((_mix64((seed + i * _GOLDEN) & _MASK64) >> 12) + 0.5) * _2_POW_NEG52
                for i in range(start, start + n)]


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
    of n fresh draws. Consumes n uniforms per batch and, as quantile is
    nondecreasing, inverts only the r-th smallest of them."""
    n, k = idx.n, idx.r - 1
    return [d.quantile(sorted(stream._uniforms(n))[k])
            for _ in range(_check_whole(batches, "batches", 1))]
