"""Log-gamma, log-beta, and the regularized incomplete beta function.

Everything here is scalar, pure, and written against binary64. The
incomplete beta function is evaluated by a modified-Lentz continued
fraction with Numerical Recipes' symmetry switch at u > (a+1)/(a+b+2);
its inverse is a guarded Halley/Newton iteration inside a bisection
bracket that stops once a trusted Halley step is cubically small, after
one evaluation at (1/2, b >= 2) from Hill's Student-t quantile seed.
Arguments up to ~1e3 are handled in log space so B(b,b) never underflows.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

from .quadrature import ConvergenceError, QuadResult

__all__ = ["log_gamma", "log_beta", "reg_inc_beta", "inv_reg_inc_beta"]

# Above 2^-53, the gap below 1.0, so a delta settled one ulp from 1 stops.
_CF_EPS = 2.3e-16
_CF_MAX_ITER = 500
_CF_TINY = 1e-300

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


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0, by math.lgamma.

    Raises ValueError for non-positive or non-finite arguments.
    """
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"log_gamma requires a finite positive argument, got {a!r}")
    return math.lgamma(a)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _log_beta_half(b: float) -> float:
    """ln B(1/2, b) for b > 0, the normalizer of the (1/2, b) kernel.

    For b >= 20, ln(pi)/2 minus the gamma-ratio series ln Gamma(b+1/2) -
    ln Gamma(b) = ln(b)/2 - (1 - 1/(24b^2) + 1/(80b^4) - 17/(1792b^6))/(8b)
    (Abramowitz & Stegun 6.1.47): log_beta would cancel ln Gamma terms in
    the thousands there, leaving up to 1e-12.
    """
    if b < 20.0:
        return log_beta(0.5, b)
    w = 1.0 / (b * b)
    series = (1.0 - w * (1.0 / 24 - w * (1.0 / 80 - w * 17.0 / 1792))) / (8.0 * b)
    return _HALF_LN_PI - 0.5 * math.log(b) + series


def _check_shape_pair(a: float, b: float) -> None:
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise ValueError(f"shape parameters must be finite and positive, got a={a!r}, b={b!r}")


def _betacf(a: float, b: float, u: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz).

    Converges rapidly for u < (a+1)/(a+b+2); callers arrange that via the
    symmetry switch. Raises ConvergenceError, carrying the partial value,
    when _CF_MAX_ITER terms do not suffice.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * u / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * u / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * u / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}, u={u}",
        QuadResult(h, abs(h * (delta - 1.0)), _CF_MAX_ITER),
    )


def _reg_inc_beta_raw(a: float, b: float, u: float, log_b: float) -> float:
    # Hot path shared with the inverse; arguments already validated,
    # 0 < u < 1 strictly (the callers own the endpoints), and log B(a,b)
    # precomputed by the caller.
    front = math.exp(a * math.log(u) + b * math.log1p(-u) - log_b)
    if u <= (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, u) / a
    return 1.0 - front * _betacf(b, a, 1.0 - u) / b


def reg_inc_beta(a: float, b: float, u: float) -> float:
    """Regularized incomplete beta function I_u(a, b).

    Monotone nondecreasing in u, exact at u = 0 and u = 1. Absolute
    accuracy is ~1e-13 or better over the supported shape range. At
    a = 1/2, the cdf's kernel, ln B comes from the _log_beta_half series.
    """
    _check_shape_pair(a, b)
    if not (0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0
    log_b = _log_beta_half(b) if a == 0.5 else log_beta(a, b)
    return min(1.0, max(0.0, _reg_inc_beta_raw(a, b, u, log_b)))


def _inverse_seed(a: float, b: float, q: float, log_b: float) -> float:
    """Initial guess for I_u(a,b) = q, strictly inside (0, 1), or 0.0 when
    the root rounds to 0.0.

    At a = 1/2 and b >= 1, the quantile's kernel, u = T^2/(2b + T^2) with T
    Hill's Student t quantile (CACM Algorithm 396) for 2b degrees of freedom
    at two-tailed level 1 - q. Other shapes >= 1: the normal approximation
    of Abramowitz & Stegun 26.5.22 with the upper-tail deviate -Phi^-1(q)
    (Numerical Recipes `invbetai`). Otherwise the tail power laws I_u ~
    u^a / (a B) and 1 - I_u ~ (1-u)^b / (b B), split where NR splits them;
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
    if a == 0.5 and b >= 1.0:
        # T = sqrt(nu)(2V - 1)/(2 sqrt(V(1 - V))) is Student t with nu = 2b
        # for V ~ Beta(b, b), so u = T^2/(nu + T^2): Hill's quantile at the
        # two-tailed level 1 - q gives y = T^2/nu, tail branch as in R's qt.
        nu, p2 = 2.0 * b, 1.0 - q
        h = 1.0 / (nu - 0.5)
        g = 48.0 / (h * h)
        c = ((20700.0 * h / g - 98.0) * h - 16.0) * h + 96.36
        d = ((94.5 / (g + c) - 3.0) / g + 1.0) * math.sqrt(h * math.pi / 2.0) * nu
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
        u = a / (a + b * math.exp(min(2.0 * w, 700.0)))
    else:
        t = (a / (a + b)) ** a / a
        v = (b / (a + b)) ** b / b
        if q < t / (t + v):
            u = math.exp(log_low)
        else:
            u = 1.0 - math.exp((math.log1p(-q) + math.log(b) + log_b) / b)
    if b >= 1.0:
        # I_u <= u^a / (a B) for b >= 1, so the lower power law lies below
        # the root; it takes over in the far lower tail, where the normal
        # deviate loses the root.
        u = max(u, math.exp(log_low))
    return min(max(u, 1e-300), _BELOW_ONE)


def inv_reg_inc_beta(a: float, b: float, q: float) -> float:
    """Inverse of reg_inc_beta in its last argument: u with I_u(a, b) = q.

    Halley steps (plain Newton where the Halley correction is not
    trusted), on ln I_u below q = 1/2, from a Hill t-quantile, Abramowitz &
    Stegun 26.5.22 or tail power-law seed inside the bracket [0, 1]. Every
    iterate becomes an end of the bracket and a step that leaves it bisects
    instead, so the next iterate lies strictly inside and the bracket
    shrinks on every pass. The solve ends on a residual within _F_TOL,
    relative to q below q = 1/2, on a step that rounds away, or after a
    trusted Halley step within _STOP_STEP of min(u, 1 - u), whose error is
    of order its cube.
    """
    _check_shape_pair(a, b)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0

    # As in reg_inc_beta: an error in ln B moves the quantile alike.
    log_b = _log_beta_half(b) if a == 0.5 else log_beta(a, b)
    am1 = a - 1.0
    bm1 = b - 1.0
    lo, hi = 0.0, 1.0
    u = _inverse_seed(a, b, q, log_b)
    if u == 0.0:
        return 0.0
    # Relative in the lower tail, so that a tiny q still steers the solve.
    tol = _F_TOL * min(1.0, 2.0 * q)

    while True:
        i_u = _reg_inc_beta_raw(a, b, u, log_b)
        fu = i_u - q
        if fu > 0.0:
            hi = u
        else:
            lo = u
        # Density f of the beta distribution at u, in log space; next to a
        # pole of a shape below 1 it can pass the binary64 range.
        log_dens = am1 * math.log(u) + bm1 * math.log1p(-u) - log_b
        # Halley on I_u - q, with f''/f' = (a-1)/u - (b-1)/(1-u) for the
        # beta density. Below q = 1/2 it works on ln(I_u / q) instead:
        # from far above a tiny q, the step on I_u - q crawls down the
        # steep tail, while the one on the log is exact for an exponential
        # tail. That step needs only I/f, formed in logs: next to a
        # subnormal root f overflows, while I/f ~ u/a does not. A
        # correction outside (0, 2) means the step leaves the region where
        # the local model holds, so the Newton step is taken.
        low = q < 0.5 and i_u > 0.0
        log_scale = math.log(i_u) - log_dens if low else -log_dens
        scale = math.exp(log_scale) if log_scale < _LOG_DBL_MAX else math.inf
        curv = am1 / u - bm1 / (1.0 - u)
        if not 0.0 < scale < math.inf:
            step = curv = math.nan
        elif low:
            step = scale * (math.log(i_u) - math.log(q))
            curv -= 1.0 / scale
        else:
            step = fu * scale
        corr = 1.0 - 0.5 * step * curv
        trusted = 0.0 < corr < 2.0
        if trusted:
            step /= corr
        u_new = u - step
        # A residual within tolerance ends the solve unless the local model
        # says the root is still far off, as in the upper tail where 1 - q
        # is below _F_TOL. The last step is free: the density is in hand.
        if abs(fu) <= tol and (trusted or math.isnan(step)):
            return u_new if lo < u_new < hi else u
        if trusted and abs(step) <= _STOP_STEP * min(u, 1.0 - u) and lo < u_new < hi:
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
