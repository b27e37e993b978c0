"""Log-gamma, log-beta, and the regularized incomplete beta function.

Everything here is scalar, pure, and written against binary64; the inverse's
one-entry cache of its per-shape setup changes no result or error. One kernel,
a Lentz continued fraction behind Numerical Recipes' switch at u > (a+1)/(a+b+2),
picks the side for reg_inc_beta, the inverse and the distribution's pair: given
u, 1 - u and the front factor, formed in logs from log_beta's ln B(a, b), it
gives I, 1 - I and that side's log-slope, or ConvergenceError on a denominator
that rounds to 0. The inverse steps on the log of the smaller side, with its
residual relative to min(q, 1 - q): one guarded Halley/Newton iteration inside a
bisection bracket that stops once a trusted Halley step is cubically small, after
one evaluation on almost every (1/2, b >= 1/2) solve, seeded below b = 1.36 by the
reverted tail series and from there by Hill's Student-t quantile.
"""

from __future__ import annotations

import functools
import math
import sys
from statistics import NormalDist

from .quadrature import ConvergenceError, QuadResult

__all__ = ["log_gamma", "log_beta", "reg_inc_beta", "inv_reg_inc_beta"]

# Above 2^-53, the gap below 1.0, so a delta settled one ulp from 1 stops.
_CF_EPS = 2.3e-16
_CF_MAX_ITER = 500

_F_TOL = 5e-14
# A trusted Halley step below this share of min(u, 1 - u) leaves an error of
# order its cube, so the solve returns it without another evaluation.
_STOP_STEP = 1e-5

_STD_NORMAL = NormalDist()
_BELOW_ONE = math.nextafter(1.0, 0.0)
_LOG_DBL_MAX = math.log(sys.float_info.max)
# ln u below which u rounds to 0.0: half the smallest subnormal.
_LOG_HALF_TINY = math.log(5e-324) - math.log(2.0)
_HALF_LN_PI = 0.5 * math.log(math.pi)
_HILL_FROM = 1.36  # Hill seeds the (1/2, b) inverse from here up, the reverted tail series below


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0, by math.lgamma.

    Raises ValueError for non-positive or non-finite arguments.
    """
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"log_gamma requires a finite positive argument, got {a!r}")
    return math.lgamma(a)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for finite positive shapes, else ValueError.

    With one shape 1/2 and the other b >= 20, in either order, ln(pi)/2 -
    ln(b)/2 + (1 - 1/(24b^2) + 1/(80b^4) - 17/(1792b^6))/(8b), from the
    gamma-ratio series of Abramowitz & Stegun 6.1.47: the ln Gamma form
    would cancel terms in the thousands there, leaving up to 1e-12.
    Otherwise ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b).
    """
    # Not min/max: they drop a NaN, which must reach log_gamma and raise.
    if b < a:
        a, b = b, a
    if a == 0.5 and 20.0 <= b < math.inf:
        w = 1.0 / (b * b)
        series = (1.0 - w * (1.0 / 24 - w * (1.0 / 80 - w * 17.0 / 1792))) / (8.0 * b)
        return _HALF_LN_PI - 0.5 * math.log(b) + series
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _check_shape_pair(a: float, b: float) -> None:
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise ValueError(f"shape parameters must be finite and positive, got a={a!r}, b={b!r}")


def _betacf(a: float, b: float, u: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz).

    On the convergent side u <= (a+1)/(a+b+2), where the symmetry switch
    puts every call, the first denominator is at least 2/(a+b+2) and every
    later one measured at least 1.5/(a+b+2). One rounds to 0 only past
    a + b ~ 1e16, where a + 1 rounds to a: ConvergenceError carrying
    QuadResult(0.0, inf, 0). So does running out of _CF_MAX_ITER terms,
    carrying the partial value. The term counters m and 2m are floats,
    exact up to _CF_MAX_ITER, so every operation in a term is float-float.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    m = 0.0
    try:
        d = 1.0 / (1.0 - qab * u / qap)
        h = d
        for _ in range(_CF_MAX_ITER):
            m += 1.0
            m2 = m + m
            am2 = a + m2
            aa = m * (b - m) * u / ((qam + m2) * am2)
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            h *= d * c
            aa = -(a + m) * (qab + m) * u / (am2 * (qap + m2))
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _CF_EPS:
                return h
    except ZeroDivisionError:
        raise ConvergenceError(
            f"incomplete beta continued fraction broke down for a={a}, b={b}, u={u}",
            QuadResult(0.0, math.inf, 0),
        ) from None
    raise ConvergenceError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}, u={u}",
        QuadResult(h, abs(h * (delta - 1.0)), _CF_MAX_ITER),
    )


def _reg_inc_beta_raw(a: float, b: float, u: float, v: float, front: float) -> tuple[float, float, float]:
    # Checked shapes, u in [0, 1], v = 1 - u and front = u^a v^b / B(a,b) from the caller.
    # (I, 1 - I, slope): the fraction's own side without a subtraction, and its log-slope
    # in logit u, a/K > 0 below Numerical Recipes' switch and -b/K' < 0 above it.
    if u <= (a + 1.0) / (a + b + 2.0):
        k = _betacf(a, b, u)
        i = front * k / a
        return i, 1.0 - i, a / k
    k = _betacf(b, a, v)
    j = front * k / b
    return 1.0 - j, j, -b / k


def reg_inc_beta(a: float, b: float, u: float) -> float:
    """Regularized incomplete beta function I_u(a, b).

    Monotone nondecreasing in u, exact at u = 0 and u = 1. Absolute
    accuracy is ~1e-13 or better over the supported shape range.
    """
    _check_shape_pair(a, b)
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0
    front = math.exp(a * math.log(u) + b * math.log1p(-u) - log_beta(a, b))
    i = _reg_inc_beta_raw(a, b, u, 1.0 - u, front)[0]
    # Picks on per-evaluation paths are comparisons: on CPython <= 3.12 a
    # two-argument min or max costs ~140 ns against ~20. Each keeps the builtin's
    # tie rule, max(x, y) = y if y > x else x and min with <, so NaN and -0.0
    # come out exactly as from min and max.
    return (i if i < 1.0 else 1.0) if i > 0.0 else 0.0


def _hill_constants(b: float) -> tuple[float, ...]:
    # Hill's nu-only constants at nu = 2b: nu, h, g, c before its tail correction, d.
    nu, h = 2.0 * b, 1.0 / (2.0 * b - 0.5)
    g = 48.0 / (h * h)
    c = ((20700.0 * h / g - 98.0) * h - 16.0) * h + 96.36
    return nu, h, g, c, ((94.5 / (g + c) - 3.0) / g + 1.0) * math.sqrt(h * math.pi / 2.0) * nu


def _reverted_tail(a: float, b: float) -> tuple[float, ...]:
    # The lower tail series I_w(a, b) = w^a C(w) / (a B), C(w) = sum_k (1 - b)_k / k! a / (a + k) w^k,
    # as z = (a B I)^(1/a) = w C^(1/a) (Miller's power recurrence) reverted (A&S 3.6.25) to five
    # terms: c1..c5 of w = z (1 + c1 z + ... + c5 z^5).
    r, p1 = 1.0 / a, 1.0 - b
    p2 = p1 * (2.0 - b) * 0.5
    p3 = p2 * (3.0 - b) / 3.0
    p4 = p3 * (4.0 - b) * 0.25
    e1, e2, e3 = p1 * a / (a + 1.0), p2 * a / (a + 2.0), p3 * a / (a + 3.0)
    e4, e5 = p4 * a / (a + 4.0), p4 * (5.0 - b) * 0.2 * a / (a + 5.0)
    g1 = r * e1
    g2 = (r - 1.0) * e1 * g1 * 0.5 + r * e2
    g3 = ((r - 2.0) * e1 * g2 + (2.0 * r - 1.0) * e2 * g1) / 3.0 + r * e3
    g4 = ((r - 3.0) * e1 * g3 + (2.0 * r - 2.0) * e2 * g2 + (3.0 * r - 1.0) * e3 * g1) * 0.25 + r * e4
    g5 = ((r - 4.0) * e1 * g4 + (2.0 * r - 3.0) * e2 * g3 + (3.0 * r - 2.0) * e3 * g2
          + (4.0 * r - 1.0) * e4 * g1) * 0.2 + r * e5
    h = g1 * g1
    return (-g1, 2.0 * h - g2, 5.0 * g1 * (g2 - h) - g3,
            3.0 * g2 * (g2 - 7.0 * h) + 6.0 * g1 * g3 + 14.0 * h * h - g4,
            7.0 * (g1 * g4 + g2 * g3) - 28.0 * (h * g3 + g1 * g2 * (g2 - 3.0 * h)) - 42.0 * h * h * g1 - g5)


@functools.lru_cache(maxsize=1)
def _inverse_setup(a: float, b: float) -> tuple[float, float, float, tuple[float, ...], tuple]:
    # The inverse's per-shape work at checked shapes. Hill's constants stop at
    # b = 1e150, short of h^2 underflowing at b ~ 3e161; power laws seed past it.
    # Where they seed: NR's split and both sides' series, 0.0 (factor 1) off a = 1/2 <= b < _HILL_FROM.
    hill = _hill_constants(b) if a == 0.5 and _HILL_FROM <= b <= 1e150 else ()
    if hill or (a >= 1.0 and b >= 1.0):
        return log_beta(a, b), a - 1.0, b - 1.0, hill, ()
    t, v = (a / (a + b)) ** a / a, (b / (a + b)) ** b / b
    series = a == 0.5 and 0.5 <= b < _HILL_FROM
    low, high = (_reverted_tail(a, b), _reverted_tail(b, a)) if series else ((0.0,) * 5,) * 2
    return log_beta(a, b), a - 1.0, b - 1.0, hill, (t / (t + v), low, high)


def _inverse_seed(a: float, b: float, q: float, log_b: float, hill: tuple[float, ...], power: tuple) -> float:
    """Initial guess for I_u(a,b) = q, strictly inside (0, 1), or 0.0 when
    the root rounds to 0.0.

    Given `hill` (a = 1/2, _HILL_FROM <= b <= 1e150), the kernel u = T^2/(2b + T^2)
    with T Hill's Student t quantile (CACM Algorithm 396) for 2b degrees of
    freedom at two-tailed level 1 - q. Other shapes >= 1: the normal approximation
    of Abramowitz & Stegun 26.5.22 with the upper-tail deviate -Phi^-1(q)
    (Numerical Recipes `invbetai`). Otherwise the tail power laws I_u ~
    u^a / (a B) and 1 - I_u ~ (1-u)^b / (b B), split where NR splits them, each
    times its side's reverted series in `power`, 1 off a = 1/2 <= b < _HILL_FROM;
    below u = 1e-300 the lower one is the root, unclamped.
    """
    log_low = (math.log(q) + math.log(a) + log_b) / a  # ln u of the lower power law
    if log_low < _LOG_HALF_TINY:
        # So deep in the lower tail I_u = u^a / (a B) to binary64
        # precision, and its root lies below half the smallest subnormal.
        return 0.0
    if log_low < -690.0:
        # Unclamped: from the 1e-300 floor a subnormal root takes bisection.
        return math.exp(log_low)
    if hill:
        # T = sqrt(nu)(2V - 1)/(2 sqrt(V(1 - V))) is Student t with nu = 2b
        # for V ~ Beta(b, b), so u = T^2/(nu + T^2): Hill's quantile at the
        # two-tailed level 1 - q gives y = T^2/nu, tail branch as in R's qt.
        (nu, h, g, c, d), p2 = hill, 1.0 - q
        y = (d * p2) ** (2.0 / nu)
        if y > 0.05 + h:
            z = _STD_NORMAL.inv_cdf(0.5 * p2)
            z2 = z * z
            if nu < 5.0:
                c += 0.3 * (nu - 4.5) * (z + 0.6)
            c += (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + g
            w = (((((0.4 * z2 + 6.3) * z2 + 36.0) * z2 + 94.5) / c - z2 - 3.0) / g + 1.0) * z
            y = math.expm1(h * w * w)
        else:
            w = 1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2.0) * 3.0)
            y = ((w + 0.5 / (nu + 4.0)) * y - 1.0) * (nu + 1.0) / (nu + 2.0) + 1.0 / y
        u = y / (1.0 + y)
    elif a >= 1.0 and b >= 1.0:
        z = -_STD_NORMAL.inv_cdf(q)
        al = (z * z - 3.0) / 6.0
        sa = 1.0 / (2.0 * a - 1.0)
        sb = 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (sa + sb)
        w = z * math.sqrt(h + al) / h - (sb - sa) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        # exp(700) keeps the far lower tail finite.
        u = a / (a + b * math.exp(700.0 if 350.0 < w else 2.0 * w))
    else:
        lower = q < power[0]
        z = math.exp(log_low if lower else (math.log1p(-q) + math.log(b) + log_b) / b)
        c1, c2, c3, c4, c5 = power[1] if lower else power[2]
        z *= 1.0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * c5))))
        u = z if lower else 1.0 - z
    if b >= 1.0:
        # I_u <= u^a / (a B) for b >= 1, so the lower power law lies below
        # the root; it takes over in the far lower tail, where the normal
        # deviate loses the root.
        low = math.exp(log_low)
        u = low if low > u else u
    u = 1e-300 if 1e-300 > u else u
    return _BELOW_ONE if _BELOW_ONE < u else u


def inv_reg_inc_beta(a: float, b: float, q: float) -> float:
    """Inverse of reg_inc_beta in its last argument: u with I_u(a, b) = q.

    Halley steps (plain Newton where the Halley correction is not
    trusted) on ln I_u up to q = 1/2 and on ln(1 - I_u) above, from a Hill
    t-quantile, Abramowitz & Stegun 26.5.22 or tail series seed inside
    the bracket [0, 1]. Every iterate becomes an end of the bracket and a
    step that leaves it bisects instead, so the next iterate lies strictly
    inside and the bracket shrinks on every pass. The solve ends on a
    residual within 2 _F_TOL min(q, 1 - q), on a step that rounds away, or
    after a trusted Halley step within _STOP_STEP of min(u, 1 - u), whose
    error is of order its cube. The per-shape setup is cached one entry deep,
    formed once for a batch at one shape; no result or error changes by it.
    """
    _check_shape_pair(a, b)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0

    log_b, am1, bm1, hill, power = _inverse_setup(a, b)
    lo, hi = 0.0, 1.0
    u = _inverse_seed(a, b, q, log_b, hill, power)
    if u == 0.0:
        return 0.0
    # The smaller side, I_u against q or 1 - I_u against 1 - q (exact for
    # q >= 1/2): a residual relative to it lets a tiny one steer the solve.
    side, target, pick = (1.0, q, 0) if q <= 0.5 else (-1.0, 1.0 - q, 1)
    tol = 2.0 * _F_TOL * target
    log_t = math.log(target)

    while True:
        v, log_u, log1m_u = 1.0 - u, math.log(u), math.log1p(-u)
        front = math.exp(a * log_u + b * log1m_u - log_b)
        small = _reg_inc_beta_raw(a, b, u, v, front)[pick]
        fu = side * (small - target)
        if fu > 0.0:
            hi = u
        else:
            lo = u
        # Density f of the beta distribution at u, in log space; next to a
        # pole of a shape below 1 it can pass the binary64 range.
        log_dens = am1 * log_u + bm1 * log1m_u - log_b
        # Halley on ln(small / target), with f''/f' = (a-1)/u - (b-1)/(1-u)
        # for the beta density: from far off a tiny target, a step on
        # small - target crawls along the steep tail, while the one on the
        # log is exact for an exponential tail. It needs only small/f,
        # formed in logs: next to a subnormal root f overflows, while I/f ~
        # u/a does not. A small side that underflows bisects, and a
        # correction outside (0, 2) means the step leaves the region where
        # the local model holds, so the Newton step is taken.
        log_small = math.log(small) if small > 0.0 else -math.inf
        log_scale = log_small - log_dens
        scale = math.exp(log_scale) if log_scale < _LOG_DBL_MAX else math.inf
        curv = am1 / u - bm1 / v
        if not 0.0 < scale < math.inf:
            step = curv = math.nan
        else:
            step = side * scale * (log_small - log_t)
            curv -= side / scale
        corr = 1.0 - 0.5 * step * curv
        trusted = 0.0 < corr < 2.0
        if trusted:
            step /= corr
        u_new = u - step
        # A residual within tolerance ends the solve; the last step is free.
        if abs(fu) <= tol:
            return u_new if lo < u_new < hi else u
        if trusted and abs(step) <= _STOP_STEP * (v if v < u else u) and lo < u_new < hi:
            return u_new
        if u_new == u:
            # The step rounds away: u is the root to binary64 precision.
            return u
        if not (lo < u_new < hi):
            u_new = 0.5 * (lo + hi)
            if u_new == lo or u_new == hi:
                # The bracket is one ulp wide.
                return u_new
        u = u_new
