"""Order-statistic densities for the generalized half logistic family.

The r-th of n draws has density

    f_{r:n}(x) = F(x)^(r-1) * (1 - F(x))^(n-r) * f(x) / B(r, n-r+1),

with the maximum (r = n) and minimum (r = 1) as the usual special cases,
cdf I_F(x)(r, n-r+1) and survival I_S(x)(n-r+1, r) (David & Nagaraja,
Order Statistics, 2.1).
Everything is computed from one pair of the kernel, F, S and ln f at x
from a single short continued fraction -- never by nesting quadrature
inside quadrature -- and in log space or through the incomplete beta, so
sample sizes up to 10^4 neither overflow nor lose the tails. Near the
origin the pair forms F without a subtraction, so F^(r-1) keeps its digits
down to the smallest x; far out it forms S from ln s, so 1 - S stays below
1 at small b, where the closed-form cdf rounds to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distribution import GeneralizedHalfLogistic, _check_whole
from .special import log_gamma, reg_inc_beta

__all__ = ["OrderIndex", "pdf_rth", "pdf_max", "pdf_min", "cdf_rth", "sf_rth"]


@dataclass(frozen=True)
class OrderIndex:
    """Rank r within a sample of size n, 1 <= r <= n; both stored as int."""

    r: int
    n: int

    def __post_init__(self) -> None:
        r = _check_whole(self.r, "rank r", 1)
        n = _check_whole(self.n, "sample size n", 1)
        if r > n:
            raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)


def pdf_rth(d: GeneralizedHalfLogistic, idx: OrderIndex, x: float) -> float:
    """Density of the r-th order statistic of n draws at x >= 0."""
    r, n = idx.r, idx.n
    big_f, big_s, log_f, _ = d._pair(x, "pdf_rth")
    if (r > 1 and big_f == 0.0) or (r < n and big_s == 0.0):
        return 0.0
    # ln(n! / ((r-1)! (n-r)!)) = -ln B(r, n-r+1)
    log_val = log_gamma(n + 1.0) - log_gamma(float(r)) - log_gamma(n - r + 1.0) + log_f
    if r > 1:
        log_val += (r - 1) * math.log(big_f)
    if r < n:
        log_val += (n - r) * math.log(big_s)
    return math.exp(log_val)


def pdf_max(d: GeneralizedHalfLogistic, n: int, x: float) -> float:
    """Density n * F(x)^(n-1) * f(x) of the largest of n draws."""
    return pdf_rth(d, OrderIndex(n, n), x)


def pdf_min(d: GeneralizedHalfLogistic, n: int, x: float) -> float:
    """Density n * (1 - F(x))^(n-1) * f(x) of the smallest of n draws."""
    return pdf_rth(d, OrderIndex(1, n), x)


def cdf_rth(d: GeneralizedHalfLogistic, idx: OrderIndex, x: float) -> float:
    """P(X_{r:n} <= x) = I_F(x)(r, n-r+1), the binomial tail sum over
    j = r..n of C(n,j) F(x)^j (1-F(x))^(n-j).

    One kernel call; the kernel's own symmetry switch picks the side.
    """
    r, n = idx.r, idx.n
    return reg_inc_beta(float(r), n - r + 1.0, d._pair(x, "cdf_rth")[0])


def sf_rth(d: GeneralizedHalfLogistic, idx: OrderIndex, x: float) -> float:
    """P(X_{r:n} > x) = I_S(x)(n-r+1, r), cdf_rth's complement by the symmetry of I,
    from S with no subtraction, so it keeps its digits where cdf_rth rounds to 1."""
    r, n = idx.r, idx.n
    return reg_inc_beta(n - r + 1.0, float(r), d._pair(x, "sf_rth")[1])
