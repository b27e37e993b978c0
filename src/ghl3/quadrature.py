"""Adaptive Gauss-Kronrod quadrature on finite and semi-infinite intervals.

A 7/15-point nested pair gives the per-panel error estimate for free;
adaptivity bisects the worst panel until the summed estimate meets the
global tolerance. The heap may start from breakpoints (QUADPACK qagp);
a semi-infinite head starts from panels graded towards its lower bound.
Panel nodes round strictly inside (or ConvergenceError is raised), so
integrable endpoint behavior is tolerated and lo, hi are never sampled.
The private moments pass integrates f(x) * x**n for n = 1..n_max at once,
one sample of f per node, as vector-valued adaptive quadrature does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from operator import mul
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

# Tail extension for semi-infinite integrals: blocks of this many decay
# lengths are appended until one contributes less than abs_tol/10.
_MAX_TAIL_BLOCKS = 8


@dataclass(frozen=True)
class Tolerance:
    """Numeric policy of the adaptive integrators."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate, and evaluation count of one integration.

    evaluations is 0 only for the degenerate lo == hi shortcut, which
    never samples the integrand.
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
    or the incomplete beta continued fraction runs out of terms.

    Carries the best available estimate so callers can inspect how far
    the computation got (for the continued fraction, evaluations counts
    its terms).
    """

    def __init__(self, message: str, best: QuadResult):
        super().__init__(f"{message} (best estimate {best.value!r} +- {best.err_estimate!r})")
        self.best = best


def _panel_nodes(lo: float, hi: float):
    """The 15 nodes of [lo, hi] in sampling order (the center, then each pair
    from the outermost inwards, left first), or None when the outer nodes
    would round onto lo or hi."""
    # Halves first: lo + hi overflows for a panel past about 9e307.
    center = 0.5 * lo + 0.5 * hi
    half = 0.5 * (hi - lo)
    d1 = half * _X1
    if not lo < center - d1 < center + d1 < hi:
        return None
    d2, d3, d4, d5, d6, d7 = half * _X2, half * _X3, half * _X4, half * _X5, half * _X6, half * _X7
    return (center, center - d1, center + d1, center - d2, center + d2, center - d3, center + d3,
            center - d4, center + d4, center - d5, center + d5, center - d6, center + d6,
            center - d7, center + d7)


def _qk15(lo, hi, fc, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7):
    """(value, err_estimate) from the integrand at _panel_nodes(lo, hi): the
    qk15 sums in QUADPACK's order, bit-identical to its loop, and its error:
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


def _kronrod_panel(f: Callable[[float], float], lo: float, hi: float):
    """One 15-point panel: (value, err_estimate) of f by _qk15, or None
    without sampling f when the outer nodes would round onto lo or hi."""
    nodes = _panel_nodes(lo, hi)
    if nodes is None:
        return None
    # Named calls, not a comprehension or map: the cheaper call from bytecode.
    c, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7 = nodes
    return _qk15(lo, hi, f(c), f(l1), f(r1), f(l2), f(r2), f(l3), f(r3), f(l4), f(r4),
                 f(l5), f(r5), f(l6), f(r6), f(l7), f(r7))


def _moments_panel(f: Callable[[float], float], n_max: int, lo: float, hi: float):
    """[(value, err_estimate) of f(x) * x**n for n = 1..n_max] from one sample
    of f per node, or None as for _kronrod_panel. Each order's column is the
    last one times the nodes, so it overflows only where the integrand does."""
    nodes = _panel_nodes(lo, hi)
    if nodes is None:
        return None
    column = [f(x) for x in nodes]
    panel = []
    for _ in range(n_max):
        column = tuple(map(mul, column, nodes))
        panel.append(_qk15(lo, hi, *column))
    return panel


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
    narrow for its nodes or max_subdivisions splits do not reach the tolerance.
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

    # Heap keyed on -err so the worst panel pops first; the counter breaks
    # ties deterministically.
    heap = []
    total_value = total_err = 0.0
    for a, b in zip(edges, edges[1:]):
        panel = _kronrod_panel(f, a, b)
        if panel is None:
            best = QuadResult(total_value, math.inf, 15 * len(heap))
            raise ConvergenceError(f"panel [{a!r}, {b!r}] too narrow for its nodes", best)
        value, err = panel
        heapq.heappush(heap, (-err, len(heap), a, b, value))
        total_value += value
        total_err += err
    tick = len(heap)
    evaluations = 15 * tick
    splits = 0
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total_value)):
        if splits >= tol.max_subdivisions:
            raise ConvergenceError(
                f"no convergence after {splits} subdivisions on [{lo!r}, {hi!r}]",
                QuadResult(total_value, total_err, evaluations),
            )
        neg_err, _, a, b, v = heapq.heappop(heap)
        mid = 0.5 * a + 0.5 * b
        left, right = _kronrod_panel(f, a, mid), _kronrod_panel(f, mid, b)
        if left is None or right is None:
            # The halves of the worst panel would be sampled at their ends;
            # no further refinement is possible, so the tolerance is unreachable.
            raise ConvergenceError(
                f"worst panel [{a!r}, {b!r}] too narrow to subdivide",
                QuadResult(total_value, total_err, evaluations),
            )
        (v1, e1), (v2, e2) = left, right
        evaluations += 30
        splits += 1
        total_value += v1 + v2 - v
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, tick, a, mid, v1))
        heapq.heappush(heap, (-e2, tick + 1, mid, b, v2))
        tick += 2
    return QuadResult(total_value, total_err, evaluations)


def _moments_finite(f: Callable[[float], float], n_max: int, tol: Tolerance, lo: float, hi: float,
                    breakpoints: Sequence[float]) -> tuple[list[float], list[float], int]:
    """integrate_finite of f(x) * x**n for n = 1..n_max from one heap, as
    (values, err_estimates, evaluations). Each order stops at its own
    tolerance max(abs_tol, rel_tol * |I_n|), and the heap pops the panel
    whose worst order is furthest from it. A ConvergenceError carries the
    highest order's best estimate."""
    edges = (lo, *breakpoints, hi)
    values, errs, heap = [0.0] * n_max, [0.0] * n_max, []
    spans, popped, evaluations = list(zip(edges, edges[1:])), (), 0
    for _ in range(tol.max_subdivisions + 1):
        panels = [_moments_panel(f, n_max, a, b) for a, b in spans]
        if None in panels:
            a, b = spans[panels.index(None)]
            raise ConvergenceError(f"panel [{a!r}, {b!r}] too narrow for its nodes",
                                   QuadResult(values[-1], math.inf, evaluations))
        evaluations += 15 * len(panels)
        for i in range(n_max):
            for panel in panels:
                values[i] += panel[i][0]
                errs[i] += panel[i][1]
            if popped:
                values[i] -= popped[i][0]
                errs[i] -= popped[i][1]
        tols = [max(tol.abs_tol, tol.rel_tol * abs(v)) for v in values]
        # Left ends are distinct, so equal keys never compare panels.
        for (a, b), panel in zip(spans, panels):
            heapq.heappush(heap, (-max([e / t for (_, e), t in zip(panel, tols)]), a, b, panel))
        if all(e <= t for e, t in zip(errs, tols)):
            return values, errs, evaluations
        _, a, b, popped = heapq.heappop(heap)
        spans = [(a, 0.5 * a + 0.5 * b), (0.5 * a + 0.5 * b, b)]
    raise ConvergenceError(
        f"no convergence after {tol.max_subdivisions} subdivisions on [{lo!r}, {hi!r}]",
        QuadResult(values[-1], errs[-1], evaluations))


def _semi_infinite(integrate: Callable, lo: float, tol: Tolerance, decay_rate: float,
                   truncation: float | None) -> tuple[list[float], list[float], int]:
    """integrate_semi_infinite's cut, head and tail blocks, for integrate(a, b,
    breakpoints) giving (values, err_estimates, evaluations) with one value
    per integrand; the blocks stop once every integrand's is below abs_tol/10."""
    if not math.isfinite(lo):
        raise ValueError("lower bound must be finite")
    if not (math.isfinite(decay_rate) and decay_rate > 0.0):
        raise ValueError(f"decay_rate must be positive, got {decay_rate!r}")
    if truncation is not None:
        if not (math.isfinite(truncation) and truncation > lo):
            raise ValueError("truncation must be finite and exceed lo")
        cut = truncation
    else:
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
    values, errs, evaluations = integrate(lo, cut, grading)
    for k in range(_MAX_TAIL_BLOCKS):
        start, end = cut + k * width, cut + (k + 1) * width
        if end == math.inf:
            raise ConvergenceError(f"tail block [{start!r}, {end!r}] beyond the double range",
                                   QuadResult(values[-1], errs[-1], evaluations))
        block, block_errs, block_evaluations = integrate(start, end, ())
        values = [v + w for v, w in zip(values, block)]
        errs = [e + d for e, d in zip(errs, block_errs)]
        evaluations += block_evaluations
        if all(abs(w) < 0.1 * tol.abs_tol for w in block):
            return values, errs, evaluations
    raise ConvergenceError(
        f"tail of [{lo!r}, inf) integrand is not decaying after "
        f"{_MAX_TAIL_BLOCKS} extension blocks",
        QuadResult(values[-1], errs[-1], evaluations),
    )


def integrate_semi_infinite(
    f: Callable[[float], float],
    lo: float,
    tol: Tolerance = Tolerance(),
    decay_rate: float = 1.0,
    truncation: float | None = None,
) -> QuadResult:
    """Integrate f over [lo, infinity) for exponentially decaying f.

    The head [lo, cut], with cut = lo + max(50, 60/min(1, decay_rate)) or
    the caller's truncation, starts from panels graded by halving towards
    lo down to about 1/decay_rate wide, under one global tolerance. Equal
    blocks are then appended until one contributes less than abs_tol/10.
    An integrand that refuses to decay exhausts the block budget and
    raises ConvergenceError, as does a head too narrow for its nodes or a
    cut or tail block beyond the double range (decay_rate below about
    6.7e-307). The moments pass shares this cut, head and tail rule.
    """
    def integrate(a, b, breakpoints):
        r = integrate_finite(f, a, b, tol, breakpoints=breakpoints)
        return (r.value,), (r.err_estimate,), r.evaluations

    (value,), (err,), evaluations = _semi_infinite(integrate, lo, tol, decay_rate, truncation)
    return QuadResult(value, err, evaluations)


def _moments_semi_infinite(f: Callable[[float], float], n_max: int, tol: Tolerance,
                           decay_rate: float) -> tuple[list[float], list[float], int]:
    """_moments_finite over integrate_semi_infinite's head and blocks from 0."""
    return _semi_infinite(partial(_moments_finite, f, n_max, tol), 0.0, tol, decay_rate, None)
