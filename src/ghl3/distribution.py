"""The type III generalized half logistic distribution.

The family lives on [0, inf) with a single positive shape parameter b and
density

    f(x; b) = (2 / B(b, b)) * e^(b*x) / (1 + e^x)^(2*b),

the fold onto the half line of the symmetric type III generalized logistic
density e^(b*y) / (B(b,b) * (1 + e^y)^(2*b)). b = 1 recovers the standard
half logistic distribution 2*e^x / (1 + e^x)^2.

The cdf is computed two ways on purpose:

* closed form: tanh^2(X/2) = (2V - 1)^2 ~ Beta(1/2, b) for V ~ Beta(b, b),
  so with t = tanh(x/2) and s = sech^2(x/2) = 1 - t^2 the cdf is
  F(x) = I_{t^2}(1/2, b) and the survival S = I_s(b, 1/2);
* direct adaptive quadrature of the density (cdf_quadrature), kept as an
  independent cross-check of the closed form.

Both are exposed; odd moments integrate the density, even ones are exact.
By B(b, b) = 2^(1-2b) B(1/2, b) the density is s^b / B(1/2, b), and every
density reads ln s from one _log_s(x). Survival, hazard, interval
probabilities and the order statistics read F, S and ln f from one short
continued fraction of the pair (_pair); the cdf is one reg_inc_beta call,
and the quantile and median invert it at (1/2, b). All operations are pure
and instances are immutable, so values are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat

from .quadrature import Tolerance, _moments_semi_infinite, integrate_finite, integrate_semi_infinite
from .special import _betacf, inv_reg_inc_beta, log_beta, reg_inc_beta

__all__ = [
    "GeneralizedHalfLogistic",
    "SummaryStats",
    "half_logistic_pdf",
    "half_logistic_cdf",
    "half_logistic_survival",
    "type3_logistic_pdf",
    "logistic_sigma",
]

_LN4 = math.log(4.0)
_LOG_S_SWITCH = 2.0 * math.asinh(1.0)  # tanh^2(x/2) = 1/2; t*t is still below 1/2 at this double
_SQRT_PI = math.sqrt(math.pi)
_MAX_SHAPE = 1e3
# B_2l / (2l)! for l = 1..10: the Euler-Maclaurin tail of the Hurwitz zeta (A&S 6.4.11).
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
                    1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000,
                    -174611 / 802857662698291200000)


def logistic_sigma(x: float) -> float:
    """Standard logistic function e^x / (1 + e^x), overflow-safe."""
    if not math.isfinite(x):
        raise ValueError(f"logistic_sigma requires a finite argument, got {x!r}")
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    t = math.exp(x)
    return t / (1.0 + t)


def _check_support(x: float, what: str) -> None:
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"{what} is supported on [0, inf), got {x!r}")


def _check_shape(b: float) -> None:
    if isinstance(b, bool) or not (math.isfinite(b) and 0.0 < b <= _MAX_SHAPE):
        raise ValueError(f"shape must lie in (0, {_MAX_SHAPE:g}], got {b!r}")


def _check_whole(value: object, what: str, least: int) -> int:
    """value as an int if it is a whole number >= least, else ValueError;
    a bool or an infinity (whose int() overflows) is not a whole number."""
    if type(value) is int and value >= least:
        return value
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value) or value < least):
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _even_moments(b: float, n_max: int) -> list[float]:
    """[E[X^2], E[X^4], ...] to order n_max. X = |logit V| with V ~ Beta(b, b), whose logit has no
    odd cumulants and kappa_2j = 2 psi^(2j-1)(b), so m_2k = sum_j C(2k-1, 2j-1) kappa_2j m_2k-2j,
    formed as 2 (2k-1)!/(2k-2j)!/b^2j (a ratio at a time) times b^2j zeta(2j, b) (direct terms to
    b + i >= 2j + 10, then the Euler-Maclaurin tail) times m_2k-2j: no factor overflows alone."""
    zetas, m = [], [1.0]
    for s in range(2, n_max + 1, 2):
        i = max(0, math.ceil(s + 10 - b))
        z = b + i
        tail, term = 0.5 + z / (s - 1), s / z
        for l, c in enumerate(_EULER_MACLAURIN):
            tail, term = tail + c * term, term * (s + 2 * l + 1) * (s + 2 * l + 2) / (z * z)
        zetas.append(sum((b / (b + k)) ** s for k in range(i)) + (b / z) ** s * tail)
        p, total = (2 * s - 2) / b / b, 0.0
        for j in range(1, s // 2 + 1):
            total += p * zetas[j - 1] * m[s // 2 - j]
            p = p * ((s - 2 * j) * (s - 2 * j - 1)) / b / b
        m.append(total)
    if not math.isfinite(m[-1]):
        raise ValueError(f"E[X^{2 * len(m) - 2}] at b={b!r} is non-finite: it leaves the double range")
    return m[1:]


def _log_s(x: float) -> float:
    """ln s with s = sech^2(x/2), x >= 0: log1p(-t^2) with t = tanh(x/2) while t^2 < 1/2
    keeps the digits of s, then ln 4 - x - 2*log1p(e^-x), finite where s underflows."""
    if x <= _LOG_S_SWITCH:
        t = math.tanh(0.5 * x)
        return math.log1p(-t * t)
    return _LN4 - x - 2.0 * math.log1p(math.exp(-x))


def half_logistic_pdf(y: float) -> float:
    """Density 2*e^y / (1 + e^y)^2 = sech^2(y/2)/2 of the standard half logistic, y >= 0."""
    _check_support(y, "half_logistic_pdf")
    return 0.5 * math.exp(_log_s(y))


def half_logistic_cdf(y: float) -> float:
    """Cdf (e^y - 1) / (1 + e^y) of the standard half logistic, y >= 0.

    Identical to tanh(y/2), which is how it is evaluated.
    """
    _check_support(y, "half_logistic_cdf")
    return math.tanh(0.5 * y)


def half_logistic_survival(y: float) -> float:
    """Survival 2 / (e^y + 1) of the standard half logistic, y >= 0."""
    _check_support(y, "half_logistic_survival")
    return 2.0 * logistic_sigma(-y)


def type3_logistic_pdf(y: float, b: float) -> float:
    """Density e^(b*y) / (B(b,b) * (1 + e^y)^(2b)) on the whole real line.

    Half the generalized half logistic density at |y|, so exactly even and
    normalized by the same ln B(1/2, b) as the class.
    """
    if not math.isfinite(y):
        raise ValueError(f"type3_logistic_pdf requires finite y, got {y!r}")
    return 0.5 * GeneralizedHalfLogistic(b).pdf(abs(y))


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float


@dataclass(frozen=True)
class GeneralizedHalfLogistic:
    """Type III generalized half logistic distribution with shape b.

    tol is the numeric policy handed to the quadrature-backed operations
    (cdf_quadrature, moment, moments). ln B(1/2, b), which every density
    reads, and f(0) = 1/B(1/2, b), the slope of the line F = x f(0) that
    cdf_quadrature and the quantile share near the origin, are cached.
    """

    b: float
    tol: Tolerance = Tolerance()
    _log_beta_half: float = field(init=False, repr=False, compare=False)
    _f0: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_shape(self.b)
        b = self.b
        log_beta_half = log_beta(0.5, b)
        object.__setattr__(self, "_log_beta_half", log_beta_half)
        # Up to b = 1, 1/B is b G(b + 1/2)/(G(b + 1) sqrt(pi)): exp(-ln B) would turn
        # ln B's absolute error into relative error, and underflow below b ~ 1e-307.
        f0 = (b * (math.gamma(b + 0.5) / math.gamma(b + 1.0)) / _SQRT_PI if b <= 1.0
              else math.exp(-log_beta_half))
        object.__setattr__(self, "_f0", f0)

    # -- density ---------------------------------------------------------

    def log_pdf(self, x: float) -> float:
        """log f(x) = b ln s - ln B(1/2, b) with s = sech^2(x/2); nothing
        overflows, and ln s stays finite where s underflows."""
        if not 0.0 <= x < math.inf:
            _check_support(x, "log_pdf")
        return self.b * _log_s(x) - self._log_beta_half

    def pdf(self, x: float) -> float:
        """Density (2 / B(b,b)) e^(b x) / (1 + e^x)^(2b) = exp(log_pdf(x)), x >= 0."""
        if not 0.0 <= x < math.inf:
            _check_support(x, "pdf")
        return math.exp(self.b * _log_s(x) - self._log_beta_half)

    # -- distribution function, two routes --------------------------------

    def cdf(self, x: float) -> float:
        """F(x) = I_{t^2}(1/2, b) with t = tanh(x/2); near the origin a front
        factor times a short continued fraction, with no digits cancelled."""
        _check_support(x, "cdf")
        return reg_inc_beta(0.5, self.b, math.tanh(0.5 * x) ** 2)

    def cdf_quadrature(self, x: float) -> float:
        """F(x) by adaptive quadrature of the density over [0, x].

        Independent of the incomplete-beta route; used to cross-check it.
        Below x = 1e-9 it is the line x f(0) = x/B(1/2, b), which the
        quantile inverts. Propagates ConvergenceError if the integrator gives up.
        """
        _check_support(x, "cdf_quadrature")
        if x < 1e-9:
            return x * self._f0
        res = integrate_finite(self.pdf, 0.0, x, self.tol)
        return min(1.0, max(0.0, res.value))

    def _pair(self, x: float, what: str) -> tuple[float, float, float, float]:
        """(F, S, ln f, h) at x >= 0 (what names the caller in support errors)
        from one continued fraction of the pair F = I_{t^2}(1/2, b),
        S = I_s(b, 1/2), ln f = b ln s - ln B(1/2, b), on the side of Numerical
        Recipes' switch t^2 = 3/(2b + 5) where it is short: near it F = 2*f*t*K'
        with K' at (1/2, b, t^2), S = 1 - F and h = f/S, so F(0) = 0 exactly;
        far out S = f*t*K/b with K at (b, 1/2, s), clamped to 1 for tiny b,
        F = 1 - S and h = b/(t*K), finite where f and S underflow."""
        if not 0.0 <= x < math.inf:
            _check_support(x, what)
        b = self.b
        t = math.tanh(0.5 * x)
        t2 = t * t
        log_s = _log_s(x)
        log_f = b * log_s - self._log_beta_half
        f = math.exp(log_f)
        if t2 < 1.5 / (b + 2.5):
            big_f = 2.0 * f * t * _betacf(0.5, b, t2)
            return big_f, 1.0 - big_f, log_f, f / (1.0 - big_f)
        tk = t * _betacf(b, 0.5, math.exp(log_s))
        big_s = min(1.0, f * tk / b)
        return 1.0 - big_s, big_s, log_f, b / tk

    def survival(self, x: float) -> float:
        """1 - F(x) = I_s(b, 1/2) with s = sech^2(x/2), exactly 1 at x = 0.
        Far out it is formed without a subtraction, so it keeps its digits
        where F rounds to 1."""
        return self._pair(x, "survival")[1]

    def hazard(self, x: float) -> float:
        """f(x) / (1 - F(x)): finite for every x, f(0) = 1/B(1/2, b) at the
        origin, tending to b."""
        return self._pair(x, "hazard")[3]

    def interval_prob(self, a1: float, a2: float) -> float:
        """P(a1 < X < a2), 0 <= a1 <= a2, from one _pair per endpoint:
        F(a2) - F(a1) while F(a2) <= S(a1), else S(a1) - S(a2), so the
        difference is taken between the smaller values, which keep their digits."""
        f1, s1, _, _ = self._pair(a1, "interval_prob")
        f2, s2, _, _ = self._pair(a2, "interval_prob")
        if a1 > a2:
            raise ValueError(f"interval endpoints out of order: {a1!r} > {a2!r}")
        return max(0.0, f2 - f1 if f2 <= s1 else s1 - s2)

    # -- moments -----------------------------------------------------------

    def moment(self, n: int) -> float:
        """Raw moment E[X^n] for integer n >= 0, by semi-infinite quadrature
        of f(x) * x * ... * x, the moments pass's products, so it equals the
        pass at order n bit for bit; as there, an order far below abs_tol is
        only absolutely accurate. ValueError where f(x) * x^n leaves the
        double range."""
        n = _check_whole(n, "moment order", 0)
        if n == 0:
            return 1.0
        # Joins moments' pass once bench/test_bench.py no longer pins this
        # call's evaluation count and integrate_finite spans (ROADMAP item 1).
        return integrate_semi_infinite(
            lambda x: math.prod(repeat(x, n), start=self.pdf(x)), 0.0, self.tol, decay_rate=self.b
        ).value

    def moments(self, n_max: int) -> tuple[float, ...]:
        """Raw moments (E[X], ..., E[X^n_max]) for integer n_max >= 1: the odd
        orders from one adaptive pass that samples the density once per node
        until each meets max(abs_tol, rel_tol * |E[X^n]|) (about 250 density
        evaluations for n_max = 4, where four calls to moment make about 880),
        so an odd moment far below abs_tol is only absolutely accurate; the even
        ones in closed form. ValueError where a moment or f(x) * x^n leaves the
        double range."""
        n_max = _check_whole(n_max, "highest moment order", 1)
        # pdf's expression, so its bits, without its support check: panel nodes lie inside (0, inf).
        b, log_beta_half = self.b, self._log_beta_half
        odd, _ = _moments_semi_infinite(lambda x: math.exp(b * _log_s(x) - log_beta_half),
                                        range(1, n_max + 1, 2), self.tol, b)
        moments = [0.0] * n_max
        moments[::2] = [v for v, _ in odd]
        moments[1::2] = _even_moments(self.b, n_max)
        return tuple(moments)

    def summary_stats(self) -> SummaryStats:
        """Mean, variance, skewness, kurtosis from moments(4): E[X] and E[X^3]
        from one quadrature pass, E[X^2] and E[X^4] in closed form."""
        m1, m2, m3, m4 = self.moments(4)
        var = m2 - m1 * m1
        skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1**3) / var**1.5
        kurt = (m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4) / (var * var)
        return SummaryStats(mean=m1, variance=var, skewness=skew, kurtosis=kurt)

    # -- quantiles ----------------------------------------------------------

    def quantile(self, p: float) -> float:
        """100p-percentage point: the x with F(x) = p, for p in [0, 1).

        tanh^2(X/2) ~ Beta(1/2, b), so with u = I^{-1}_p(1/2, b) the quantile
        is 2*atanh(sqrt(u)) = 2*log1p(sqrt(u)) - log1p(-u); the second form
        reads 1 - u exactly near u = 1, where sqrt(u) rounds. Below x = 1e-9
        it is x = p/f(0), the inverse of cdf_quadrature's line. Unbounded as
        p -> 1, hence the open top end.
        """
        if not (0.0 <= p < 1.0):
            raise ValueError(f"quantile requires p in [0, 1), got {p!r}")
        # F(x) = x f(0) (1 - b x^2/12 + ...): below x = 1e-9 the correction is
        # under 1e-16 for every b <= 1e3, while u = x^2/4 would underflow once
        # p is below about 1e-154. p = 0 goes to the solve, which returns u = 0.
        if 0.0 < p < 1e-9 * self._f0:
            return p / self._f0
        u = inv_reg_inc_beta(0.5, self.b, p)
        return 2.0 * math.log1p(math.sqrt(u)) - math.log1p(-u)

    def median(self) -> float:
        """The point x with F(x) = 1/2."""
        return self.quantile(0.5)

    def mode(self) -> float:
        """Always 0: the density's stationarity condition has no interior
        solution and f is nonincreasing on [0, inf) for every b."""
        return 0.0
