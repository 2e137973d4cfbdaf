"""SNR distributions and channel-realization geometry for the reflected link.

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
domain arithmetic so that N = 40 and large SNR stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import bessel_k_weighted, reg_gamma_lower

__all__ = [
    "SystemParams",
    "NoCsiDist",
    "GammaMatch",
    "ChannelRealization",
    "cascade_pdf",
    "snr_pdf_nocsi",
    "snr_cdf_nocsi",
    "gamma_match",
    "xi_pdf",
    "xi_cdf",
    "snr_cdf_csi",
    "snr_pdf_csi",
    "optimal_phases",
    "realized_snr",
    "cascade_gain",
]

_TWO_PI = 2.0 * math.pi
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
class NoCsiDist:
    """Coefficients of the zero-phase SNR density A x^((N-1)/2) K_{N-1}(2 sqrt(Bx))."""

    a_coef: float
    b_coef: float

    @classmethod
    def from_params(cls, params: SystemParams) -> "NoCsiDist":
        n = params.n_elements
        rab = params.rho * params.alpha * params.beta
        log_a = _LN2 - math.lgamma(n) - 0.5 * (n + 1) * math.log(rab)
        return cls(a_coef=math.exp(log_a), b_coef=1.0 / rab)


@dataclass(frozen=True)
class GammaMatch:
    """Moment-matched Gamma(shape, scale) fit of the per-element product |g||h|."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("GammaMatch requires positive shape and scale")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the N complex channel pairs plus the applied phase vector."""

    h: np.ndarray
    g: np.ndarray
    phases: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        g = np.asarray(self.g, dtype=complex)
        if h.shape != g.shape or h.ndim != 1:
            raise ValueError("h and g must be 1-D arrays of equal length")
        phases = self.phases
        if phases is None:
            phases = np.zeros(h.shape[0])
        phases = np.mod(np.asarray(phases, dtype=float), _TWO_PI)
        if phases.shape != h.shape:
            raise ValueError("phases must match the channel length")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "phases", phases)

    @property
    def n_elements(self) -> int:
        return self.h.shape[0]


# ---------------------------------------------------------------------------
# no-CSI distributions (exact)
# ---------------------------------------------------------------------------

def _bessel_density(x, n: int, b: float):
    """Shared kernel (2 b / Gamma(n)) (z/2)^(n-1) K_{n-1}(z), z = 2 sqrt(b x).

    This equals A x^((n-1)/2) K_{n-1}(2 sqrt(b x)) with the normalizing
    constant folded in, but stays finite where the two factors overflow
    pairwise.  The x -> 0 limit is the positive constant b/(n-1) for n >= 2
    (full cancellation across elements keeps density at the origin) and
    diverges logarithmically for n = 1.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("density requires x >= 0")
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


def cascade_pdf(x, params: SystemParams):
    """Density of the zero-phase cascade gain H = |sum conj(g_n) h_n|^2."""
    return _bessel_density(x, params.n_elements, 1.0 / (params.alpha * params.beta))


def snr_pdf_nocsi(x, params: SystemParams):
    """Density of the zero-phase SNR gamma = rho * H (scale rule of cascade_pdf)."""
    dist = NoCsiDist.from_params(params)
    return _bessel_density(x, params.n_elements, dist.b_coef)


def snr_cdf_nocsi(x, params: SystemParams):
    """CDF of the zero-phase SNR, 1 - (2/(N-1)!) (Bx)^(N/2) K_N(2 sqrt(Bx)).

    The weighted Bessel product keeps the prefactor-Bessel pair finite for
    any N in range; exact 0 at x = 0 and monotone to 1.
    """
    dist = NoCsiDist.from_params(params)
    n = params.n_elements
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_nocsi requires x >= 0")
    z = 2.0 * np.sqrt(dist.b_coef * x_arr)
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


def xi_pdf(x, match: GammaMatch):
    """Gamma density of the per-element product |g||h| under the moment match."""
    k, theta = match.shape, match.scale
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0):
        raise ValueError("xi_pdf requires x >= 0")
    out = np.zeros_like(x_arr)
    pos = x_arr > 0.0
    out[pos] = np.exp((k - 1.0) * np.log(x_arr[pos]) - x_arr[pos] / theta
                      - math.lgamma(k) - k * math.log(theta))
    if np.any(~pos):
        out[~pos] = 0.0 if k > 1.0 else (1.0 / theta if k == 1.0 else np.inf)
    return float(out[0]) if scalar else out


def xi_cdf(x, match: GammaMatch):
    """Gamma CDF of the per-element product (regularized lower incomplete gamma)."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("xi_cdf requires x >= 0")
    val = reg_gamma_lower(match.shape, x_arr / match.scale)
    return float(val) if np.ndim(x) == 0 else val


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


# ---------------------------------------------------------------------------
# realization geometry
# ---------------------------------------------------------------------------

def optimal_phases(realization: ChannelRealization) -> np.ndarray:
    """Co-phasing angles -angle(g_n) - angle(h_n), wrapped to [0, 2 pi).

    Zero-magnitude coefficients (possible in synthetic tests) get phase 0.
    """
    g, h = realization.g, realization.h
    phases = np.mod(-np.angle(g) - np.angle(h), _TWO_PI)
    phases[np.abs(g) * np.abs(h) == 0.0] = 0.0
    return phases


def realized_snr(realization: ChannelRealization, mode: str, rho: float) -> float:
    """Instantaneous SNR of one realization.

    mode 'nocsi': rho * |sum conj(g_n) h_n|^2 (identity reflection, matching
    the receive-side conjugation of the signal model).
    mode 'csi':   rho * (sum |g_n| |h_n|)^2 (coherent co-phasing).
    """
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    if mode == "nocsi":
        s = np.sum(np.conj(realization.g) * realization.h)
        return float(rho * np.abs(s) ** 2)
    if mode == "csi":
        s = np.sum(np.abs(realization.g) * np.abs(realization.h))
        return float(rho * s ** 2)
    raise ValueError(f"mode must be 'csi' or 'nocsi', got {mode!r}")


def cascade_gain(realization: ChannelRealization) -> complex:
    """Composite gain sum g_n h_n e^{j phase_n} under the stored phase vector."""
    return complex(np.sum(realization.g * realization.h
                          * np.exp(1j * realization.phases)))
