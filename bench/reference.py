"""The host's speed, read from a fixed pure-Python kernel timed through a run.

The shared 2-vCPU host the benchmark was tuned on runs at two speeds for
minutes at a time: in its slow stretches both this kernel and every ghl3 op
take 1.4-1.8 times as long, in the same proportion (the ratio of an op's time
to the kernel's held within a few percent across both), so a whole 40 s run
can read 40-75% slow. The timed loop samples the kernel every EVERY_S
seconds, and the end-to-end times are reported at the reference speed: each
is multiplied by scale = REF_NS / (the kernel's fastest time in the run).
Where ghl3 gets faster or slower the kernel does not, so that change shows
in full; only the host's speed is taken out. The raw figures are printed
beside them.
"""

from __future__ import annotations

import math
import time

# The kernel's fastest time on that host in its fast stretches (Python 3.11).
REF_NS = 6_000_000
EVERY_S = 0.25


def kernel(rounds: int = 400) -> float:
    """Continued fractions of incomplete-beta shape, with calls and math."""

    def term(m: int, a: float, b: float, x: float) -> float:
        k = m // 2
        if m % 2:
            return -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1))
        return k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k))

    total = 0.0
    for j in range(rounds):
        a, b, x = 2.0 + j % 7, 3.5 + j % 5, 0.3 + 0.001 * j
        f = c = 1.0
        d = 0.0
        for m in range(1, 40):
            t = term(m, a, b, x)
            d = 1.0 + t * d
            d = 1.0 / d if d else 1e300
            c = 1.0 + t / c
            f *= c * d
        total += math.exp(a * math.log(x) + b * math.log1p(-x) - math.lgamma(a)) * f
    return total


class ReferenceSpeed:
    """Times of the kernel sampled through a run, and the scale they give."""

    def __init__(self) -> None:
        self.times_ns: list[int] = []
        self.next_ns = 0

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        self.times_ns.append(t1 - t0)
        self.next_ns = t1 + int(EVERY_S * 1e9)

    @property
    def scale(self) -> float:
        """REF_NS over the fastest sample: above 1 when the host ran fast."""
        return REF_NS / min(self.times_ns)
