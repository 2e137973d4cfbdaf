"""irslink: performance toolkit for reflecting-surface short-packet links.

Evaluates average data rate and average decoding error probability of a
controller -> reflecting surface -> device link under finite blocklength,
with and without channel state information: exact quadrature, closed-form
bounds/approximations, high-SNR asymptotics, and a seeded Monte-Carlo
oracle that validates all of them.
"""

from . import channel, fbl, metrics_csi, metrics_nocsi, montecarlo, numerics
from .channel import GammaMatch, SystemParams, gamma_match
from .fbl import LinearizationParams, linearization_params
from .montecarlo import McConfig, McEstimate
from .numerics import QuadratureSpec

__version__ = "0.1.0"

__all__ = [
    "channel",
    "fbl",
    "metrics_csi",
    "metrics_nocsi",
    "montecarlo",
    "numerics",
    "GammaMatch",
    "SystemParams",
    "gamma_match",
    "LinearizationParams",
    "linearization_params",
    "McConfig",
    "McEstimate",
    "QuadratureSpec",
    "__version__",
]
