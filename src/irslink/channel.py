"""SNR distributions of the reflected link, each a function of SystemParams.

The link is controller -> reflecting surface (N passive elements) -> device.
Per-element coefficients are independent circularly-symmetric complex
Gaussians: h_n ~ CN(0, alpha) on the incoming hop and g_n ~ CN(0, beta) on
the outgoing hop.

Two operating modes are covered:

  - no CSI: all phases zero, the cascade gain is |sum conj(g_n) h_n|^2
    and the SNR density is an exact Bessel-K form;
  - CSI: per-element co-phasing gives snr = rho * (sum |g_n||h_n|)^2,
    handled through a Gamma moment match of the per-element product.

Density/CDF evaluation routes through the weighted Bessel product and log
domain arithmetic so that N = 40 and large SNR stay finite.  Per-trial
channel draws live in montecarlo, whose kernel evaluates the same two SNR
expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import bessel_k_weighted, reg_gamma_lower

__all__ = [
    "SystemParams",
    "GammaMatch",
    "snr_pdf_nocsi",
    "snr_cdf_nocsi",
    "gamma_match",
    "snr_cdf_csi",
    "snr_pdf_csi",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Full scenario parameterization.

    n_elements: number of reflecting elements N
    alpha, beta: per-element channel variances of the two hops
    rho: transmit SNR P/sigma^2 (linear)
    blocklength: channel uses per packet M
    target_eps: decoding error target used by rate evaluation
    packet_bits: payload size D in bits used by error evaluation
    """

    n_elements: int
    alpha: float = 1.0
    beta: float = 1.0
    rho: float = 1.0
    blocklength: int = 200
    target_eps: float = 1e-8
    packet_bits: float = 100.0

    def __post_init__(self):
        if self.n_elements < 1 or self.n_elements != int(self.n_elements):
            raise ValueError(f"n_elements must be a positive integer, got {self.n_elements}")
        for name in ("alpha", "beta", "rho", "packet_bits"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.blocklength < 1 or self.blocklength != int(self.blocklength):
            raise ValueError(f"blocklength must be a positive integer, got {self.blocklength}")
        if not 0.0 < self.target_eps < 1.0:
            raise ValueError(f"target_eps must be in (0, 1), got {self.target_eps}")


@dataclass(frozen=True)
class GammaMatch:
    """Moment-matched Gamma(shape, scale) fit of the per-element product |g||h|."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("GammaMatch requires positive shape and scale")


# ---------------------------------------------------------------------------
# no-CSI distributions (exact)
# ---------------------------------------------------------------------------

def snr_pdf_nocsi(x, params: SystemParams):
    """Density of the zero-phase SNR rho |sum conj(g_n) h_n|^2.

    With b = 1/(rho alpha beta) and z = 2 sqrt(b x) this is
    (2 b / Gamma(N)) (z/2)^(N-1) K_{N-1}(z), i.e. A x^((N-1)/2) K_{N-1}(z)
    with the normalizing constant folded into the weighted Bessel product,
    which stays finite where the two factors overflow pairwise.  The x -> 0
    limit is the positive constant b/(N-1) for N >= 2 (full cancellation
    across elements keeps density at the origin) and diverges
    logarithmically for N = 1.
    """
    n = params.n_elements
    b = 1.0 / (params.rho * params.alpha * params.beta)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_pdf_nocsi requires x >= 0")
    z = 2.0 * np.sqrt(b * x_arr)
    pref = 2.0 * b * math.exp(-math.lgamma(n))
    if n == 1 and np.any(np.atleast_1d(z) == 0.0):
        scalar = np.ndim(x) == 0
        z_arr = np.atleast_1d(z)
        out = np.full(z_arr.shape, np.inf)
        pos = z_arr > 0.0
        out[pos] = pref * bessel_k_weighted(0, z_arr[pos])
        return float(out[0]) if scalar else out
    return pref * bessel_k_weighted(n - 1, z)


def snr_cdf_nocsi(x, params: SystemParams):
    """CDF of the zero-phase SNR, 1 - (2/(N-1)!) (bx)^(N/2) K_N(2 sqrt(bx)).

    The weighted Bessel product keeps the prefactor-Bessel pair finite for
    any N in range; exact 0 at x = 0 and monotone to 1.
    """
    b = 1.0 / (params.rho * params.alpha * params.beta)
    n = params.n_elements
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_nocsi requires x >= 0")
    z = 2.0 * np.sqrt(b * x_arr)
    val = 1.0 - 2.0 * math.exp(-math.lgamma(n)) * bessel_k_weighted(n, z)
    if np.ndim(x) == 0:
        return float(min(max(val, 0.0), 1.0))
    return np.clip(val, 0.0, 1.0)


# ---------------------------------------------------------------------------
# CSI distributions (Gamma moment match)
# ---------------------------------------------------------------------------

def gamma_match(alpha: float, beta: float) -> GammaMatch:
    """Gamma(shape, scale) with the mean and variance of |g||h|.

    Mean pi/4 sqrt(alpha beta) and variance (16 - pi^2)/16 alpha beta give
    shape = pi^2/(16 - pi^2) and scale = (16 - pi^2)/(4 pi) sqrt(alpha beta).
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("gamma_match requires positive variances")
    pi2 = math.pi * math.pi
    shape = pi2 / (16.0 - pi2)
    scale = (16.0 - pi2) / (4.0 * math.pi) * math.sqrt(alpha * beta)
    return GammaMatch(shape=shape, scale=scale)


def snr_cdf_csi(x, params: SystemParams, match: GammaMatch | None = None):
    """CDF of the co-phased SNR under the Gamma model for sum |g_n||h_n|.

    The sum of N matched Gamma variables is Gamma(N k, theta) and
    gamma = rho * (sum)^2, so F(x) = P(N k, (1/theta) sqrt(x/rho)).
    """
    match = match or gamma_match(params.alpha, params.beta)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_csi requires x >= 0")
    a = params.n_elements * match.shape
    u = np.sqrt(x_arr / params.rho) / match.scale
    val = reg_gamma_lower(a, u)
    return float(val) if np.ndim(x) == 0 else val


def snr_pdf_csi(x, params: SystemParams, match: GammaMatch | None = None):
    """Density of the co-phased SNR under the Gamma model (log-domain assembly)."""
    match = match or gamma_match(params.alpha, params.beta)
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0):
        raise ValueError("snr_pdf_csi requires x >= 0")
    a = params.n_elements * match.shape
    theta = match.scale
    rho = params.rho
    log_pref = -(_LN2 + math.lgamma(a) + a * math.log(theta) + 0.5 * a * math.log(rho))
    out = np.zeros_like(x_arr)
    pos = x_arr > 0.0
    xp = x_arr[pos]
    out[pos] = np.exp(log_pref + (0.5 * a - 1.0) * np.log(xp)
                      - np.sqrt(xp / rho) / theta)
    if np.any(~pos):
        out[~pos] = 0.0 if a > 2.0 else (np.inf if a < 2.0 else math.exp(log_pref))
    return float(out[0]) if scalar else out
