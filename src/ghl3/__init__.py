"""Generalized half logistic distribution (type III): density, cdf,
quantiles, moments, order statistics, and reproducible sampling."""

from . import distribution, order_statistics, quadrature, sampling, special
from .distribution import *  # noqa: F403
from .order_statistics import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .sampling import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*distribution.__all__, *order_statistics.__all__, *quadrature.__all__,
           *sampling.__all__, *special.__all__, "__version__"]
