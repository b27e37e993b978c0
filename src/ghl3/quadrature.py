"""Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals.

A 7/15-point nested pair gives the per-panel error estimate for free.
One adaptive loop bisects the worst panel until the summed estimate meets
the global tolerance, starting from breakpoints (QUADPACK qagp); a
semi-infinite head starts from panels graded towards its lower bound.
Panel nodes round strictly inside (or ConvergenceError is raised), so
integrable endpoint behavior is tolerated and lo, hi are never sampled.
One panel rule gives f(x) * x**n at each order n asked for from one sample
of f per node, as vector-valued adaptive quadrature does: integrate_finite
asks for order 0 alone, the private moments pass for the odd orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter, truediv
from typing import Callable, Sequence

__all__ = [
    "Tolerance",
    "QuadResult",
    "ConvergenceError",
    "integrate_finite",
    "integrate_semi_infinite",
]

# 15-point Kronrod nodes (positive half, descending) and weights, with the
# embedded 7-point Gauss weights. Values as published for the QUADPACK qk15
# rule; the Gauss nodes are the center and _X2, _X4, _X6.
_X1, _X2, _X3, _X4, _X5, _X6, _X7 = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG2, _WG4, _WG6 = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694

_EPS50 = 50.0 * math.ulp(1.0)
_err = itemgetter(1)

# Splits each adaptive run may make: the whole of a finite integral, or the
# head or one tail block of a semi-infinite one.
_MAX_SUBDIVISIONS = 200
# Tail extension for semi-infinite integrals: at most this many blocks of the
# head's width, appended until one adds under a tenth of each integrand's tolerance.
_MAX_TAIL_BLOCKS = 8


@dataclass(frozen=True)
class Tolerance:
    """Numeric policy of the adaptive integrators: error within max(abs_tol, rel_tol * |I|)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate, and evaluation count of one integration.

    evaluations is 0 only where the integrand is never sampled: the
    degenerate lo == hi shortcut, and QuadResult(0.0, inf, 0), the best
    estimate a ConvergenceError carries when a first panel is too narrow for
    its nodes, a semi-infinite head is too narrow or beyond the double range,
    or the incomplete beta continued fraction breaks down on a zero denominator.
    """

    value: float
    err_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.err_estimate < 0.0:
            raise ValueError("err_estimate must be nonnegative")
        if self.evaluations < 0:
            raise ValueError("evaluations must be nonnegative")


class ConvergenceError(RuntimeError):
    """Raised when the subdivision budget is exhausted, a tail will not decay,
    or the incomplete beta continued fraction breaks down or runs out of terms.

    Carries the best available estimate so callers can inspect how far
    the computation got (for the continued fraction, evaluations counts
    its terms).
    """

    def __init__(self, message: str, best: QuadResult):
        super().__init__(f"{message} (best estimate {best.value!r} +- {best.err_estimate!r})")
        self.best = best


def _qk15(lo, hi, fc, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7):
    """(value, err_estimate) of one _panel column, the integrand at the nodes of
    [lo, hi] in _panel's order: the qk15 sums in QUADPACK's order, bit-identical
    to its loop, and its error:
    |K15 - G7| sharpened by resasc, floored at 50 eps times the L1 norm resabs.
    """
    half = 0.5 * (hi - lo)
    resk = (_WGK_CENTER * fc + _WK1 * (l1 + r1) + _WK2 * (l2 + r2) + _WK3 * (l3 + r3)
            + _WK4 * (l4 + r4) + _WK5 * (l5 + r5) + _WK6 * (l6 + r6) + _WK7 * (l7 + r7))
    resg = _WG_CENTER * fc + _WG2 * (l2 + r2) + _WG4 * (l4 + r4) + _WG6 * (l6 + r6)
    h = 0.5 * resk
    resasc = (_WGK_CENTER * abs(fc - h) + _WK1 * (abs(l1 - h) + abs(r1 - h))
              + _WK2 * (abs(l2 - h) + abs(r2 - h)) + _WK3 * (abs(l3 - h) + abs(r3 - h))
              + _WK4 * (abs(l4 - h) + abs(r4 - h)) + _WK5 * (abs(l5 - h) + abs(r5 - h))
              + _WK6 * (abs(l6 - h) + abs(r6 - h)) + _WK7 * (abs(l7 - h) + abs(r7 - h)))
    value = resk * half
    if not math.isfinite(value):
        raise ValueError(
            f"integrand returned a non-finite value inside [{lo!r}, {hi!r}]"
        )
    resasc *= half
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # The weights sum to 2, so resabs <= resasc + |value|: form the floor only if it can bind.
    if err < 1.001 * _EPS50 * (resasc + abs(value)):
        resabs = (_WGK_CENTER * abs(fc) + _WK1 * (abs(l1) + abs(r1))
                  + _WK2 * (abs(l2) + abs(r2)) + _WK3 * (abs(l3) + abs(r3))
                  + _WK4 * (abs(l4) + abs(r4)) + _WK5 * (abs(l5) + abs(r5))
                  + _WK6 * (abs(l6) + abs(r6)) + _WK7 * (abs(l7) + abs(r7)))
        err = max(err, _EPS50 * (resabs * half))
    return value, err


def _panel(f: Callable[[float], float], orders: Sequence[int], lo: float, hi: float):
    """One 15-point panel: [(value, err_estimate)] of f(x) * x**n by _qk15 for
    each n in the increasing orders (0 is f itself), from one sample of f per
    node, or None without sampling f when the outer nodes would round onto lo
    or hi. Each order's column is the last one times the nodes, in place on
    the value locals, so it overflows only where the integrand does."""
    # Halves first: lo + hi overflows for a panel past about 9e307.
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * (hi - lo)
    d1 = half * _X1
    if not lo < center - d1 < center + d1 < hi:
        return None
    d2, d3, d4, d5, d6, d7 = half * _X2, half * _X3, half * _X4, half * _X5, half * _X6, half * _X7
    # The center, then each pair from the outermost inwards, left first.
    c, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7 = (
        center, center - d1, center + d1, center - d2, center + d2, center - d3, center + d3,
        center - d4, center + d4, center - d5, center + d5, center - d6, center + d6,
        center - d7, center + d7)
    # Named calls, not a comprehension or map: the cheaper call from bytecode.
    column = fc, fl1, fr1, fl2, fr2, fl3, fr3, fl4, fr4, fl5, fr5, fl6, fr6, fl7, fr7 = (
        f(c), f(l1), f(r1), f(l2), f(r2), f(l3), f(r3), f(l4), f(r4),
        f(l5), f(r5), f(l6), f(r6), f(l7), f(r7))
    panel = [_qk15(lo, hi, *column)] if orders[0] == 0 else []
    # Straight-line products and positional arguments: no tuple per order.
    for n in range(1, orders[-1] + 1):
        fc, fl1, fr1, fl2, fr2, fl3, fr3, fl4, fr4, fl5, fr5, fl6, fr6, fl7, fr7 = (
            fc * c, fl1 * l1, fr1 * r1, fl2 * l2, fr2 * r2, fl3 * l3, fr3 * r3, fl4 * l4,
            fr4 * r4, fl5 * l5, fr5 * r5, fl6 * l6, fr6 * r6, fl7 * l7, fr7 * r7)
        if n in orders:
            panel.append(_qk15(lo, hi, fc, fl1, fr1, fl2, fr2, fl3, fr3, fl4, fr4, fl5, fr5,
                               fl6, fr6, fl7, fr7))
    return panel


def _adaptive(f: Callable[[float], float], orders: Sequence[int], edges: Sequence[float],
              tol: Tolerance) -> tuple[list[tuple[float, float]], int]:
    """Adaptive bisection of f(x) * x**n for each n in orders, from the _panel
    of each span between edges: the [(value, err_estimate)] totals and the
    evaluations once each integral meets max(abs_tol, rel_tol * |I|). The worst
    panel pops first, by its largest error over the starting totals' tolerances
    (one integral: its error), ties in insertion order; a split updates a total
    as v1 + v2 - v."""
    spans, totals = [], None
    for a, b in zip(edges, edges[1:]):
        pairs = _panel(f, orders, a, b)
        if pairs is None:
            best = QuadResult(totals[-1][0] if totals else 0.0, math.inf, 15 * len(spans))
            raise ConvergenceError(f"panel [{a!r}, {b!r}] too narrow for its nodes", best)
        totals = pairs if totals is None else [(v + w, e + d) for (v, e), (w, d) in zip(totals, pairs)]
        spans.append((a, b, pairs))
    abs_tol, rel_tol = tol.abs_tol, tol.rel_tol
    new, heap, scale, splits = spans, [], None, 0
    while True:
        evaluations = 15 * (len(spans) + 2 * splits)
        for v, e in totals:
            if e > abs_tol and e > rel_tol * abs(v):
                break
        else:
            return totals, evaluations
        if scale is None:  # the heap fills only once the starting panels fall short
            scale, tick = [max(abs_tol, rel_tol * abs(v)) for v, _ in totals], count()
        for lo, hi, pairs in new:
            heappush(heap, (-max(map(truediv, map(_err, pairs), scale)), next(tick), lo, hi, pairs))
        if splits == _MAX_SUBDIVISIONS:
            raise ConvergenceError(
                f"no convergence after {splits} subdivisions on [{edges[0]!r}, {edges[-1]!r}]",
                QuadResult(*totals[-1], evaluations),
            )
        _, _, a, b, popped = heappop(heap)
        mid = 0.5 * a + 0.5 * b
        left, right = _panel(f, orders, a, mid), _panel(f, orders, mid, b)
        if left is None or right is None:
            # The halves of the worst panel would be sampled at their ends;
            # no further refinement is possible, so the tolerance is unreachable.
            raise ConvergenceError(f"worst panel [{a!r}, {b!r}] too narrow to subdivide",
                                   QuadResult(*totals[-1], evaluations))
        splits += 1
        totals = [(v + (v1 + v2 - v0), e + (e1 + e2 - e0))
                  for (v, e), (v1, e1), (v2, e2), (v0, e0) in zip(totals, left, right, popped)]
        new = (a, mid, left), (mid, b, right)


def integrate_finite(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = Tolerance(),
    *,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over [lo, hi] to max(abs_tol, rel_tol * |integral|).

    The heap starts from the panels between lo, the strictly increasing
    interior breakpoints and hi (QUADPACK qagp); the tolerance is global.
    Raises ConvergenceError, carrying the best estimate, if a panel is too
    narrow for its nodes or _MAX_SUBDIVISIONS splits do not reach the tolerance.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if lo > hi:
        raise ValueError(f"lo must not exceed hi, got [{lo!r}, {hi!r}]")
    edges = (lo, *breakpoints, hi)
    if breakpoints and not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"breakpoints must increase strictly inside ({lo!r}, {hi!r})")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0)
    [(value, err)], evaluations = _adaptive(f, (0,), edges, tol)
    return QuadResult(value, err, evaluations)


def _semi_infinite(integrate: Callable, lo: float, tol: Tolerance,
                   decay_rate: float) -> tuple[list[tuple[float, float]], int]:
    """integrate_semi_infinite's cut, head and tail blocks, for integrate(edges)
    giving (totals, evaluations) from the panels between edges as _adaptive
    does; the blocks stop once one adds less than 0.1 * max(abs_tol,
    rel_tol * |total|) to every integrand's total."""
    if not math.isfinite(lo):
        raise ValueError("lower bound must be finite")
    if not (math.isfinite(decay_rate) and decay_rate > 0.0):
        raise ValueError(f"decay_rate must be positive, got {decay_rate!r}")
    cut = lo + max(50.0, 60.0 / min(1.0, decay_rate))
    if not lo < cut < math.inf:
        problem = "too narrow for its nodes" if cut == lo else "beyond the double range"
        raise ConvergenceError(f"head [{lo!r}, {cut!r}] {problem}", QuadResult(0.0, math.inf, 0))

    # Halving stops near 1/decay_rate, or before a panel is under 512 ulps
    # of the head's ends wide, where its nodes could round onto them.
    width = cut - lo
    most = width / (1024.0 * math.ulp(max(abs(lo), abs(cut))))
    levels = math.ceil(math.log2(max(min(width * decay_rate, most), 1.0)))
    grading = [lo + math.ldexp(width, -k) for k in range(levels, 0, -1)]
    totals, evaluations = integrate((lo, *grading, cut))
    for k in range(_MAX_TAIL_BLOCKS):
        start, end = cut + k * width, cut + (k + 1) * width
        if end == math.inf:
            raise ConvergenceError(f"tail block [{start!r}, {end!r}] beyond the double range",
                                   QuadResult(*totals[-1], evaluations))
        block, block_evaluations = integrate((start, end))
        totals = [(v + w, e + d) for (v, e), (w, d) in zip(totals, block)]
        evaluations += block_evaluations
        if all(abs(w) < 0.1 * max(tol.abs_tol, tol.rel_tol * abs(v))
               for (w, _), (v, _) in zip(block, totals)):
            return totals, evaluations
    raise ConvergenceError(
        f"tail of [{lo!r}, inf) integrand is not decaying after "
        f"{_MAX_TAIL_BLOCKS} extension blocks",
        QuadResult(*totals[-1], evaluations),
    )


def integrate_semi_infinite(
    f: Callable[[float], float],
    lo: float,
    tol: Tolerance = Tolerance(),
    decay_rate: float = 1.0,
) -> QuadResult:
    """Integrate f over [lo, infinity) for exponentially decaying f.

    The head [lo, cut], with cut = lo + max(50, 60/min(1, decay_rate)),
    starts from panels graded by halving towards lo down to about
    1/decay_rate wide, under one global tolerance. Equal blocks are then
    appended until one adds less than 0.1 * max(abs_tol, rel_tol * |total|).
    An integrand that refuses to decay exhausts the block budget and
    raises ConvergenceError, as does a head too narrow for its nodes or a
    cut or tail block beyond the double range (decay_rate below about
    6.7e-307). The moments pass shares this cut, head and tail rule, the
    adaptive loop and its panel rule.
    """
    def integrate(edges):
        r = integrate_finite(f, edges[0], edges[-1], tol, breakpoints=edges[1:-1])
        return [(r.value, r.err_estimate)], r.evaluations

    [(value, err)], evaluations = _semi_infinite(integrate, lo, tol, decay_rate)
    return QuadResult(value, err, evaluations)


def _moments_semi_infinite(f: Callable[[float], float], orders: Sequence[int], tol: Tolerance,
                           decay_rate: float) -> tuple[list[tuple[float, float]], int]:
    """_adaptive of f(x) * x**n at orders over integrate_semi_infinite's head and blocks from 0."""
    return _semi_infinite(lambda edges: _adaptive(f, orders, edges, tol), 0.0, tol, decay_rate)
