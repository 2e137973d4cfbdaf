"""SNR distributions of the reflected link, each a function of SystemParams.

The link is controller -> reflecting surface (N passive elements) -> device.
Per-element coefficients are independent circularly-symmetric complex
Gaussians: h_n ~ CN(0, alpha) on the incoming hop and g_n ~ CN(0, beta) on
the outgoing hop.

Two operating modes are covered:

  - no CSI: all phases zero, the cascade gain is |sum conj(g_n) h_n|^2
    and the SNR density is an exact Bessel-K form;
  - CSI: per-element co-phasing gives snr = rho * (sum |g_n||h_n|)^2,
    handled through a unit-variance Gamma moment match of |g_n||h_n|.

The no-CSI law is one Bessel-K form, F_N(q) = 1 - (2/Gamma(N)) q^(N/2)
K_N(2 sqrt q) at q = bx, evaluated by numerics._k_law: the small-argument
series of K_N where 1 - (...) would cancel, so the CDF keeps its relative
digits down to 1e-300, and above it the scaled K_N from the upward
integer-order recurrence, in log space.  By A&S 9.6.28 the density is the
survival of the same law one order down, b/(N-1) (1 - F_{N-1}(q)), and
2b K_0(2 sqrt q) for N = 1.  Both are refused for N > 169 (see
NOCSI_MAX_N), so no large-N no-CSI value comes back silently wrong.

In both modes the SNR is s Y, s = rho alpha beta = SystemParams.snr_scale,
with Y the unit-scale variable of the mode's law at rho = alpha = beta = 1.
log_snr_rule tabulates that law once per (mode, N) as a fixed quadrature
rule in log y, log_snr_mean gives its level E[ln Y], and cdf_exponent the
power p that bounds the growth of its CDF, F(x)/x^p non-increasing.

Per-trial channel draws live in montecarlo, whose kernel evaluates the same
two SNR expressions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .numerics import (
    _TAIL_CUTOFF,
    EULER_GAMMA,
    _dot_per_rho,
    _k_law,
    digamma,
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
    "log_snr_mean",
    "cdf_exponent",
]

_LN2 = math.log(2.0)

# Largest N whose no-CSI law (CDF and density) is computed.  The K-law's
# tail applies 2/Gamma(N) outside the exp of its log-space assembly, and
# just above q = N/4 that exponent, about ln(Gamma(N)/2), overflows from
# N = 172 on; from N = 179, exp(-lgamma(N)) is 0 (0 * inf), and from
# N = 186 the series' q^N overflows.  N = 170 and 171 are still finite, but
# are refused with the rest.
NOCSI_MAX_N = 169


@dataclass(frozen=True)
class SystemParams:
    """Full scenario parameterization.

    n_elements: number of reflecting elements N
    alpha, beta: per-element channel variances of the two hops
    rho: transmit SNR P/sigma^2 (linear); every deterministic metric also
        takes a 1-D array of them and returns one value per rho, and the
        SNR CDFs broadcast an array rho against x
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

    @property
    def snr_scale(self):
        """rho alpha beta, a float or one value per rho: the SNR is this times a unit-scale Y."""
        return self.rho * self.alpha * self.beta


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

def _nocsi_q(x, params: SystemParams):
    """b = 1/snr_scale and q = b x; raises for N > NOCSI_MAX_N before any work."""
    n = params.n_elements
    if n > NOCSI_MAX_N:
        raise OverflowError(f"no-CSI SNR law needs N <= {NOCSI_MAX_N}, got N = {n}")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("the no-CSI SNR law requires x >= 0")
    b = 1.0 / params.snr_scale
    # the error rule's top nodes reach past 1e300: q = +inf is a valid argument (F = 1)
    with np.errstate(over="ignore"):
        return b, b * x_arr


def snr_pdf_nocsi(x, params: SystemParams):
    """Density of the zero-phase SNR rho |sum conj(g_n) h_n|^2, the derivative of the CDF.

    By A&S 9.6.28, d/dz [z^v K_v(z)] = -z^v K_{v-1}(z), so for N >= 2 it
    is b/(N-1) (1 - F_{N-1}(bx)), the survival of the same K-law one order
    down (numerics._k_law), and for N = 1 it is 2b K_0(2 sqrt(bx)).  At
    x = 0 it is b/(N-1) for N >= 2 (full cancellation across elements
    keeps density at the origin) and inf for N = 1 (a logarithmic
    divergence).  Raises OverflowError for N > NOCSI_MAX_N, like the CDF.
    """
    n = params.n_elements
    b, q = _nocsi_q(x, params)
    if n == 1:
        val = 2.0 * b * sc.k0(2.0 * np.sqrt(q))
    else:
        val = b / (n - 1) * _k_law(n - 1, q, survival=True)
    return float(val) if np.ndim(val) == 0 else val


def snr_cdf_nocsi(x, params: SystemParams):
    """CDF of the zero-phase SNR, F_N(bx) = 1 - (2/(N-1)!) (bx)^(N/2) K_N(2 sqrt(bx)).

    From numerics._k_law: relative accuracy ~1e-15 down to F ~ 1e-300,
    exact 0 at x = 0 and monotone to 1.  An array params.rho broadcasts
    against x; each value depends only on its own q = bx.  Raises
    OverflowError for N > NOCSI_MAX_N.
    """
    _, q = _nocsi_q(x, params)
    val = _k_law(params.n_elements, q)
    return float(val) if np.ndim(val) == 0 else val


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


def _gamma_law(params: SystemParams):
    """Shape a = N k and scale theta0 of the Gamma model of sum |g_n||h_n| at unit variances."""
    match = gamma_match(1.0, 1.0)
    return params.n_elements * match.shape, match.scale


def snr_cdf_csi(x, params: SystemParams):
    """CDF of the co-phased SNR under the Gamma model for sum |g_n||h_n|.

    The unit-variance sum is Gamma(N k, theta0) and the SNR is snr_scale s
    times its square, so F(x) = P(N k, sqrt(x/s)/theta0).  An array
    params.rho broadcasts against x.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("snr_cdf_csi requires x >= 0")
    a, theta0 = _gamma_law(params)
    # as in _nocsi_q, x / s = +inf is a valid argument (F = 1)
    with np.errstate(over="ignore"):
        arg = np.sqrt(x_arr / params.snr_scale) / theta0
    val = reg_gamma_lower(a, arg)
    return float(val) if np.ndim(val) == 0 else val


def _stirlerr(a: float) -> float:
    """ln Gamma(a + 1) - (a + 1/2) ln a + a - ln(2 pi)/2, the error of Stirling's formula.

    The asymptotic series through a^-13 from a = 10 on, where its next term
    is below 3e-17; below, the recurrence stirlerr(a) = stirlerr(a + 1)
    + (a + 1/2) ln(1 + 1/a) - 1, whose steps are small and exact to ~1e-16.
    """
    shift = 0.0
    while a < 10.0:
        shift += (a + 0.5) * math.log1p(1.0 / a) - 1.0
        a += 1.0
    t = 1.0 / (a * a)
    return shift + (1.0 / 12.0 - t * (1.0 / 360.0 - t * (1.0 / 1260.0 - t * (
        1.0 / 1680.0 - t * (1.0 / 1188.0 - t * (691.0 / 360360.0 - t / 156.0)))))) / a


def snr_pdf_csi(x, params: SystemParams):
    """Density of the co-phased SNR under the Gamma model.

    f(x) = u^a e^(-u) / (2 x Gamma(a)) at u = sqrt(x/s)/theta0.  With
    Stirling's form of ln Gamma(a) and r = u/a, ln f = a (ln r - (r - 1))
    + ln(a/(2 pi))/2 - stirlerr(a) - ln(2x): no terms of size a ln a are
    left to cancel, so the density keeps its relative digits at large N.
    """
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0.0):
        raise ValueError("snr_pdf_csi requires x >= 0")
    a, theta0 = _gamma_law(params)
    s = params.snr_scale
    log_norm = 0.5 * math.log(a / (2.0 * math.pi)) - _stirlerr(a) - _LN2
    out = np.zeros_like(x_arr)
    # x = +inf keeps the 0 it starts with, as in snr_pdf_nocsi
    pos = (x_arr > 0.0) & (x_arr < np.inf)
    xp = x_arr[pos]
    r = np.sqrt(xp) / (math.sqrt(s) * a * theta0)
    out[pos] = np.exp(a * (np.log(r) - (r - 1.0)) + log_norm - np.log(xp))
    zero = x_arr == 0.0
    if np.any(zero):
        out[zero] = 0.0 if a > 2.0 else (np.inf if a < 2.0 else 0.5 / (theta0 * theta0 * s))
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
    the mode's SNR law at rho = alpha = beta = 1; the SNR is snr_scale Y.
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
    grid of SNR values s y_j, s = snr_scale, one row block at a time, and
    each block is weighted and summed along its rows in one reduction
    (numerics._dot_per_rho), which sums every row in the order its length
    fixes, so a value does not depend on the other rho.
    """
    y, w = log_snr_rule(mode, params.n_elements)
    return _dot_per_rho(w, lambda s: g(s * y), params.snr_scale)


def log_snr_mean(params: SystemParams, mode: str) -> float:
    """E[ln Y] of the mode's unit-scale SNR Y, the level of its high-SNR rate.

    psi(N) - g0 without CSI (Y = G E, G ~ Gamma(N, 1), E ~ Exp(1)), and
    2 (psi(N k) + ln theta0) for the square of the Gamma model.
    """
    if mode == "nocsi":
        return float(digamma(params.n_elements)) - EULER_GAMMA
    if mode == "csi":
        a, theta0 = _gamma_law(params)
        return 2.0 * (float(digamma(a)) + math.log(theta0))
    raise ValueError(f"mode must be 'nocsi' or 'csi', got {mode!r}")


def cdf_exponent(params: SystemParams, mode: str) -> float:
    """p with F(x)/x^p non-increasing in x for the mode's SNR CDF F, its small-x order.

    1 without CSI: F(x) = E_G[1 - e^(-bx/G)], G ~ Gamma(N, 1), and
    (1 - e^(-u))/u decreases.  a/2 = N k/2 for the Gamma model: F(x) =
    P(a, u) with u proportional to sqrt(x), and P(a, u)/u^a =
    int_0^1 t^(a-1) e^(-ut) dt / Gamma(a) decreases.  fbl.average_error
    bounds the error rule's tail with it.
    """
    if mode == "nocsi":
        return 1.0
    if mode == "csi":
        a, _ = _gamma_law(params)
        return 0.5 * a
    raise ValueError(f"mode must be 'nocsi' or 'csi', got {mode!r}")
