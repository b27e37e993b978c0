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

Both are exposed; moments build on the density. The cdf, survival and
hazard read one short continued fraction of that pair; the quantile and
median invert the incomplete beta at (1/2, b).
All operations are pure and instances are immutable, so values are safe to
share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .quadrature import Tolerance, _moments_semi_infinite, integrate_finite, integrate_semi_infinite
from .special import _betacf, _log_beta_half, inv_reg_inc_beta, log_beta, reg_inc_beta

__all__ = [
    "GeneralizedHalfLogistic",
    "SummaryStats",
    "half_logistic_pdf",
    "half_logistic_cdf",
    "half_logistic_survival",
    "type3_logistic_pdf",
    "logistic_sigma",
]

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)
_MAX_SHAPE = 1e3


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


def _near_origin(t2: float, b: float) -> bool:
    """Numerical Recipes' switch of the (1/2, b) kernel at t^2 = 3/(2b + 5)."""
    return t2 < 1.5 / (b + 2.5)


def _check_shape(b: float) -> None:
    if isinstance(b, bool) or not (math.isfinite(b) and 0.0 < b <= _MAX_SHAPE):
        raise ValueError(f"shape must lie in (0, {_MAX_SHAPE:g}], got {b!r}")


def _check_whole(value: object, what: str, least: int) -> int:
    """value as an int if it is a whole number >= least, else ValueError;
    a bool or an infinity (whose int() overflows) is not a whole number."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value) or value < least):
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def half_logistic_pdf(y: float) -> float:
    """Density 2*e^y / (1 + e^y)^2 of the standard half logistic, y >= 0."""
    _check_support(y, "half_logistic_pdf")
    return math.exp(_LN2 - y - 2.0 * math.log1p(math.exp(-y)))


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

    Evaluated through |y|, so exactly even; folding it onto [0, inf)
    doubles it into the generalized half logistic density.
    """
    _check_shape(b)
    if not math.isfinite(y):
        raise ValueError(f"type3_logistic_pdf requires finite y, got {y!r}")
    y = abs(y)
    return math.exp(-log_beta(b, b) - b * (y + 2.0 * math.log1p(math.exp(-y))))


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
    (cdf_quadrature, moment, moments). log_norm caches ln 2 - ln B(b, b), the log
    of the normalizing constant, as 2b ln 2 - ln B(1/2, b) by the
    duplication formula B(b, b) = 2^(1-2b) B(1/2, b); ln B(1/2, b), which
    the survival and hazard read too, is cached beside it.
    """

    b: float
    tol: Tolerance = Tolerance()
    log_norm: float = field(init=False, repr=False, compare=False)
    _log_beta_half: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_shape(self.b)
        log_beta_half = _log_beta_half(self.b)
        object.__setattr__(self, "_log_beta_half", log_beta_half)
        object.__setattr__(self, "log_norm", 2.0 * self.b * _LN2 - log_beta_half)

    # -- density ---------------------------------------------------------

    def log_pdf(self, x: float) -> float:
        """log f(x) = log_norm - b*(x + 2*log(1 + e^-x)); nothing overflows,
        so a huge x gives -inf."""
        if not 0.0 <= x < math.inf:
            _check_support(x, "log_pdf")
        return self.log_norm - self.b * (x + 2.0 * math.log1p(math.exp(-x)))

    def pdf(self, x: float) -> float:
        """Density (2 / B(b,b)) * e^(b*x) / (1 + e^x)^(2b) for x >= 0."""
        if not 0.0 <= x < math.inf:
            _check_support(x, "pdf")
        return math.exp(self.log_norm - self.b * (x + 2.0 * math.log1p(math.exp(-x))))

    # -- distribution function, two routes --------------------------------

    def cdf(self, x: float) -> float:
        """F(x) = I_{t^2}(1/2, b) with t = tanh(x/2); near the origin a front
        factor times a short continued fraction, with no digits cancelled."""
        _check_support(x, "cdf")
        return reg_inc_beta(0.5, self.b, math.tanh(0.5 * x) ** 2)

    def cdf_quadrature(self, x: float) -> float:
        """F(x) by adaptive quadrature of the density over [0, x].

        Independent of the incomplete-beta route; used to cross-check it.
        Propagates ConvergenceError if the integrator gives up.
        """
        _check_support(x, "cdf_quadrature")
        res = integrate_finite(self.pdf, 0.0, x, self.tol)
        return min(1.0, max(0.0, res.value))

    def _survival_hazard(self, x: float) -> tuple[float, float]:
        """(S, h) at x >= 0 from one continued fraction of the pair
        S = I_s(b, 1/2), F = I_{t^2}(1/2, b), with f = s^b / B(1/2, b), on
        the side of _near_origin's switch where it is short: far out
        S = f*t*K/b and h = b/(t*K) with K at (b, 1/2, s); near the origin
        S = 1 - 2*f*t*K' and h = f/S with K' at (1/2, b, t^2), so S(0) = 1
        and h(0) = f(0) exactly.
        """
        b = self.b
        t = math.tanh(0.5 * x)
        t2 = t * t
        # ln s = log1p(-t^2) while t^2 keeps the digits of s; log_pdf's form
        # cancels two terms near 2b ln 2 there. Further out the form keeps
        # working where s underflows (x > ~745): there K = 1 and S = f*t/b.
        if t2 < 0.5:
            log_s = math.log1p(-t2)
        else:
            log_s = _LN4 - x - 2.0 * math.log1p(math.exp(-x))
        f = math.exp(b * log_s - self._log_beta_half)
        if _near_origin(t2, b):
            big_s = 1.0 - 2.0 * f * t * _betacf(0.5, b, t2)
            return big_s, f / big_s
        tk = t * _betacf(b, 0.5, math.exp(log_s))
        return f * tk / b, b / tk

    def survival(self, x: float) -> float:
        """1 - F(x) = I_s(b, 1/2) with s = sech^2(x/2), exactly 1 at x = 0.
        Far out it is formed without a subtraction, so it keeps its digits
        where F rounds to 1."""
        _check_support(x, "survival")
        return self._survival_hazard(x)[0]

    def hazard(self, x: float) -> float:
        """f(x) / (1 - F(x)): finite for every x, f(0) = 1/B(1/2, b) at the
        origin, tending to b."""
        _check_support(x, "hazard")
        return self._survival_hazard(x)[1]

    def interval_prob(self, a1: float, a2: float) -> float:
        """P(a1 < X < a2), 0 <= a1 <= a2: F(a2) - F(a1) below the kernel's
        switch, where F keeps its digits, else S(a1) - S(a2), as F nears 1."""
        _check_support(a1, "interval_prob")
        _check_support(a2, "interval_prob")
        if a1 > a2:
            raise ValueError(f"interval endpoints out of order: {a1!r} > {a2!r}")
        if _near_origin(math.tanh(0.5 * a2) ** 2, self.b):
            return max(0.0, self.cdf(a2) - self.cdf(a1))
        return max(0.0, self.survival(a1) - self.survival(a2))

    # -- moments -----------------------------------------------------------

    def moment(self, n: int) -> float:
        """Raw moment E[X^n] for integer n >= 0, by semi-infinite quadrature."""
        n = _check_whole(n, "moment order", 0)
        if n == 0:
            return 1.0
        # Joins moments' pass once bench/test_bench.py no longer pins this
        # call's evaluation count and integrate_finite spans (ROADMAP item 1).
        res = integrate_semi_infinite(
            lambda x: x**n * self.pdf(x), 0.0, self.tol, decay_rate=self.b
        )
        return res.value

    def moments(self, n_max: int) -> tuple[float, ...]:
        """Raw moments (E[X], ..., E[X^n_max]) for integer n_max >= 1 from one
        adaptive pass that samples the density once per node and stops when
        every order meets its own tolerance: about 260 density evaluations
        for n_max = 4, where four calls to moment make about 880. Raises
        ValueError where f(x) * x^n_max leaves the double range."""
        n_max = _check_whole(n_max, "highest moment order", 1)
        return tuple(_moments_semi_infinite(self.pdf, n_max, self.tol, self.b)[0])

    def summary_stats(self) -> SummaryStats:
        """Mean, variance, skewness, kurtosis from the first four raw moments,
        which one moments pass gives."""
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
        it is the line x = p*B(1/2, b). Unbounded as p -> 1, hence the open
        top end.
        """
        if not (0.0 <= p < 1.0):
            raise ValueError(f"quantile requires p in [0, 1), got {p!r}")
        # F(x) = x/B(1/2, b) * (1 - b x^2/12 + ...): below x = 1e-9 the
        # correction is under 1e-16 for every b <= 1e3, while u = x^2/4
        # would underflow once p is below about 1e-154.
        x = p * math.exp(self._log_beta_half)
        if x < 1e-9:
            return x
        u = inv_reg_inc_beta(0.5, self.b, p)
        return 2.0 * math.log1p(math.sqrt(u)) - math.log1p(-u)

    def median(self) -> float:
        """The point x with F(x) = 1/2."""
        return self.quantile(0.5)

    def mode(self) -> float:
        """Always 0: the density's stationarity condition has no interior
        solution and f is nonincreasing on [0, inf) for every b."""
        return 0.0
