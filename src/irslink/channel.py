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
domain arithmetic so that N = 40 and large SNR stay finite; the no-CSI CDF
switches to the small-argument series of K_N (numerics, shared with the
weighted Bessel product) where 1 - (...) K_N would cancel, so it keeps its
relative digits down to 1e-300.  The no-CSI CDF is refused for N > 169
(its Bessel branch overflows inside every SNR curve there) and the density
raises where (z/2)^(N-1) K_{N-1} overflows, so no large-N no-CSI value
comes back silently wrong.

In both modes the SNR is rho alpha beta times a unit-scale variable Y whose
law is the mode's law at rho = alpha = beta = 1.  log_snr_rule tabulates
that law once per (mode, N) as a fixed quadrature rule in log y, so an
average over the SNR costs one vectorized evaluation per rho.

Per-trial channel draws live in montecarlo, whose kernel evaluates the same
two SNR expressions.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .numerics import (
    _TAIL_CUTOFF,
    _bessel_k_cdf_series,
    _dot_per_rho,
    bessel_k_weighted,
    gauss_legendre_panels,
    reg_gamma_lower,
)

__all__ = [
    "SystemParams",
    "GammaMatch",
    "snr_pdf_nocsi",
    "snr_cdf_nocsi",
    "gamma_match",
    "snr_cdf_csi",
    "snr_pdf_csi",
    "log_snr_rule",
    "snr_average",
]

_LN2 = math.log(2.0)

# Largest N whose no-CSI CDF is computed: kve(N, z) overflows for some
# z >= 2 from N = 170 on, inside every SNR curve.
NOCSI_MAX_N = 169
_LOG_TINY = math.log(sys.float_info.min)


@dataclass(frozen=True)
class SystemParams:
    """Full scenario parameterization.

    n_elements: number of reflecting elements N
    alpha, beta: per-element channel variances of the two hops
    rho: transmit SNR P/sigma^2 (linear); the rule-based metrics (through
        snr_average and fbl.average_error) also take a 1-D array of them
        and return one value per rho, and the SNR CDFs broadcast an array
        rho against x
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
        for name in ("alpha", "beta", "packet_bits"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        rho = self.rho
        if not (np.all(rho > 0.0) if isinstance(rho, np.ndarray) else rho > 0.0):
            raise ValueError(f"rho must be > 0, got {rho}")
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
    logarithmically for N = 1.  Where 2b/Gamma(N) falls below the normal
    double range (N >~ 170) the constant is applied in log space; the
    density raises OverflowError where the Bessel product itself does.
    """
    n = params.n_elements
    b = 1.0 / (params.rho * params.alpha * params.beta)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_pdf_nocsi requires x >= 0")
    z = 2.0 * np.sqrt(b * x_arr)
    log_pref = math.log(2.0 * b) - math.lgamma(n)
    if log_pref < _LOG_TINY:
        with np.errstate(divide="ignore"):
            val = np.exp(np.log(bessel_k_weighted(n - 1, z)) + log_pref)
        return float(val) if np.ndim(x) == 0 else val
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
    any N in range.  Below q = bx = N/4, where F < ~0.4 and the difference
    from 1 cancels, the value comes from the small-argument series of K_N
    in numerics instead (relative accuracy ~1e-15 down to F ~ 1e-300).
    Exact 0 at x = 0 and monotone to 1.  An array params.rho broadcasts
    against x; each value depends only on its own q = bx.
    """
    b = 1.0 / (params.rho * params.alpha * params.beta)
    n = params.n_elements
    if n > NOCSI_MAX_N:
        raise OverflowError(
            f"no-CSI SNR CDF needs N <= {NOCSI_MAX_N}: K_N overflows double range "
            f"for N = {n}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_nocsi requires x >= 0")
    q = b * x_arr
    scalar = np.ndim(q) == 0
    q = np.atleast_1d(q)
    small = q <= 0.25 * n
    if small.all():
        val = _bessel_k_cdf_series(n, q.ravel()).reshape(q.shape)
    else:
        val = np.empty_like(q)
        z = 2.0 * np.sqrt(q[~small])
        val[~small] = 1.0 - 2.0 * math.exp(-math.lgamma(n)) * bessel_k_weighted(n, z)
        if small.any():
            val[small] = _bessel_k_cdf_series(n, q[small])
    if scalar:
        return float(min(max(val[0], 0.0), 1.0))
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


def _gamma_law(params: SystemParams, match: GammaMatch | None = None):
    """Shape a = N k and scale theta of the Gamma model of sum |g_n||h_n|.

    match defaults to gamma_match(alpha, beta) of params.
    """
    match = match or gamma_match(params.alpha, params.beta)
    return params.n_elements * match.shape, match.scale


def snr_cdf_csi(x, params: SystemParams):
    """CDF of the co-phased SNR under the Gamma model for sum |g_n||h_n|.

    The sum of N matched Gamma variables is Gamma(N k, theta) and
    gamma = rho * (sum)^2, so F(x) = P(N k, (1/theta) sqrt(x/rho)).  An
    array params.rho broadcasts against x.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_csi requires x >= 0")
    a, theta = _gamma_law(params)
    val = reg_gamma_lower(a, np.sqrt(x_arr / params.rho) / theta)
    return float(val) if np.ndim(val) == 0 else val


def snr_pdf_csi(x, params: SystemParams):
    """Density of the co-phased SNR under the Gamma model (log-domain assembly)."""
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0):
        raise ValueError("snr_pdf_csi requires x >= 0")
    a, theta = _gamma_law(params)
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
# unit-scale laws as fixed rules in log y
# ---------------------------------------------------------------------------

_SCAN_LOG_Y = np.arange(-130.0, 25.0, 0.25)
_RULE_ORDER = 16


@functools.lru_cache(maxsize=64)
def log_snr_rule(mode: str, n_elements: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_j and weights w_j with E[g(Y)] ~= sum_j w_j g(y_j).

    Y is the unit-scale SNR of the mode ('nocsi' or 'csi') with N elements:
    the mode's SNR law at rho = alpha = beta = 1.  In either mode the SNR is
    rho alpha beta Y, since the no-CSI b and the CSI Gamma scale theta^2
    both carry alpha beta.
    The rule is Gauss-Legendre in v = ln y against the density of ln Y,
    y f(y), normalized to total weight 1: panels of 16 nodes span the range
    where that density exceeds 1e-16 of its peak (found on a 0.25-step scan
    of v).  Panels are 2 wide for no CSI, whose ln Y has standard deviation
    >= pi / sqrt(6), and min(2, sd of ln Y) wide for CSI, whose law narrows
    like 2 / sqrt(N k).  The arrays are built on first use, cached and
    read-only.
    """
    unit = SystemParams(n_elements=n_elements)
    if mode == "nocsi":
        pdf = snr_pdf_nocsi
        width = 2.0
    elif mode == "csi":
        pdf = snr_pdf_csi
        a, _ = _gamma_law(unit)
        width = min(2.0, 2.0 * math.sqrt(float(sc.polygamma(1, a))))
    else:
        raise ValueError(f"mode must be 'nocsi' or 'csi', got {mode!r}")

    def log_density(v):
        y = np.exp(v)
        return pdf(y, unit) * y

    with np.errstate(under="ignore"):
        scan = log_density(_SCAN_LOG_Y)
    keep = np.flatnonzero(scan >= _TAIL_CUTOFF * scan.max())
    lo = _SCAN_LOG_Y[max(keep[0] - 1, 0)]
    hi = _SCAN_LOG_Y[min(keep[-1] + 1, _SCAN_LOG_Y.size - 1)]
    panels = max(1, math.ceil((hi - lo) / width))
    v, w = gauss_legendre_panels(np.linspace(lo, hi, panels + 1), _RULE_ORDER)
    with np.errstate(under="ignore"):
        w = w * log_density(v)
    w /= w.sum()
    y = np.exp(v)
    y.flags.writeable = False
    w.flags.writeable = False
    return y, w


def snr_average(g, params: SystemParams, mode: str):
    """E[g(SNR)] for the mode's SNR law, per rho, on the cached rule of log_snr_rule.

    params.rho is a float or a 1-D array; the result is a float or one
    value per rho.  g must be elementwise: it is called on the (rho, node)
    grid of SNR values rho alpha beta y_j, one row block at a time, and
    each row is reduced by its own dot product with the weights (see
    numerics._dot_per_rho), so a value does not depend on the other rho.
    """
    y, w = log_snr_rule(mode, params.n_elements)
    return _dot_per_rho(w, lambda rho: g(rho * params.alpha * params.beta * y), params.rho)
