"""Average rate and error metrics for the zero-phase (no CSI) link.

Each metric exists in up to three strengths:

  - "numerical": the exact rate or error curve averaged over the exact
    Bessel-K SNR law on fixed rules (the reference everything else is
    judged by): ADR against the unit-scale density in log y
    (channel.log_snr_rule), ADEP by parts against the CDF on the nodes of
    fbl.error_rule.  Both rules are free of rho and cached, so a point
    costs one vectorized rate or CDF evaluation;
  - closed-form bounds / ramp approximations with the error curve replaced
    by its linearization;
  - high-SNR asymptotics exposing the scaling laws.

The Shannon average (upper bound) runs on the same ADR rule.  The ramp's
moment integral is the one adaptive quadrature left here.
"""

from __future__ import annotations

import math

import numpy as np

from . import fbl
from .channel import SystemParams, snr_average, snr_cdf_nocsi, snr_pdf_nocsi
# integrate_semi_infinite is not called here; the binding stays for the
# benchmark's tracer, which patches it in this namespace (bench/test_bench.py)
from .numerics import (  # noqa: F401
    DomainError,
    EULER_GAMMA,
    digamma,
    integrate_interval,
    integrate_semi_infinite,
    q_inv,
)

__all__ = [
    "adr_numerical",
    "adr_lower_bound",
    "adr_upper_bound",
    "adr_asymptotic",
    "adep_numerical",
    "adep_linearized",
    "adep_approx",
    "adep_asymptotic",
]

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# average data rate
# ---------------------------------------------------------------------------

def adr_numerical(params: SystemParams) -> float:
    """Average rate: the short-packet rate averaged over the SNR law."""
    m, eps = params.blocklength, params.target_eps
    return snr_average(lambda x: fbl.achievable_rate(x, m, eps), params, "nocsi")


def adr_upper_bound(params: SystemParams) -> float:
    """Average Shannon rate over the SNR law (penalty term dropped)."""
    return snr_average(lambda x: np.log2(1.0 + x), params, "nocsi")


def adr_lower_bound(params: SystemParams) -> float:
    """Lower rate bound: Shannon average minus the worst-case penalty.

    Bounding the dispersion by 1 turns the penalty integral into the plain
    density normalization, so the bound is the upper bound shifted down by
    Qinv(eps) / (sqrt(M) ln2).
    """
    pen = q_inv(params.target_eps) / (math.sqrt(params.blocklength) * _LN2)
    return adr_upper_bound(params) - pen


def adr_asymptotic(params: SystemParams) -> float:
    """High-SNR rate: (H_{N-1} + ln(alpha beta rho) - Qinv(eps)/sqrt(M) - 2 g0) / ln2.

    The harmonic number is read through the digamma identity
    H_{N-1} = psi(N) + g0.
    """
    n, m = params.n_elements, params.blocklength
    rab = params.rho * params.alpha * params.beta
    return (digamma(n) + EULER_GAMMA + math.log(rab)
            - q_inv(params.target_eps) / math.sqrt(m)
            - 2.0 * EULER_GAMMA) / _LN2


# ---------------------------------------------------------------------------
# average decoding error probability
# ---------------------------------------------------------------------------

def adep_numerical(params: SystemParams) -> float:
    """Average error: the exact error curve averaged by parts against the CDF."""
    val = fbl.average_error(lambda x: snr_cdf_nocsi(x, params),
                            params.blocklength, params.packet_bits)
    return min(max(val, 0.0), 1.0)


def _ramp_pieces(params: SystemParams, lp: fbl.LinearizationParams):
    """CDF values at the (clamped) ramp knees plus the knee positions."""
    lo = max(0.0, lp.knee_lo)
    hi = lp.knee_hi
    f_lo, f_hi = snr_cdf_nocsi(np.array([lo, hi]), params).tolist()
    return lo, hi, f_lo, f_hi


def adep_linearized(params: SystemParams) -> float:
    """Ramp-averaged error using the exact CDF and a quadrature moment term.

    F(lo) + (1/2 + mu x0)(F(hi) - F(lo)) - mu * int_lo^hi x f(x) dx with the
    lower knee clamped at 0 (the plateau then carries no mass).
    """
    lp = fbl.linearization_params(params.blocklength, params.packet_bits)
    lo, hi, f_lo, f_hi = _ramp_pieces(params, lp)
    mu, x0 = lp.slope_mu, lp.center_x0
    moment = integrate_interval(lambda t: t * snr_pdf_nocsi(t, params), lo, hi)
    val = f_lo + (0.5 + mu * x0) * (f_hi - f_lo) - mu * moment
    return min(max(val, 0.0), 1.0)


def adep_approx(params: SystemParams) -> float:
    """Closed-form ramp error with the two-term small-argument Bessel kernel.

    The Bessel factor of the moment integrand is replaced by its leading
    small-argument pair, which turns the moment into monomial antiderivatives
    x^2/2 and x^3/3.  After the prefactors cancel the moment term reads

      mu/(alpha beta rho) * [df2/(N-1) - df1/((N-1)(N-2) alpha beta rho)]

    subtracted from the CDF ramp pieces.  Needs N >= 3 for the second kernel
    term.  adep_linearized keeps the exact Bessel moment (by quadrature), so
    the difference of the two isolates the kernel-approximation error.
    """
    n = params.n_elements
    if n < 3:
        raise DomainError(
            f"adep_approx needs n_elements >= 3 (factorials of N-2 and N-3), got {n}"
        )
    lp = fbl.linearization_params(params.blocklength, params.packet_bits)
    lo, hi, f_lo, f_hi = _ramp_pieces(params, lp)
    mu, x0 = lp.slope_mu, lp.center_x0
    rab = params.rho * params.alpha * params.beta
    df2 = 0.5 * (hi * hi - lo * lo)
    df1 = (hi ** 3 - lo ** 3) / 3.0
    moment_term = mu * (df2 / (n - 1.0) - df1 / ((n - 1.0) * (n - 2.0) * rab)) / rab
    val = f_lo + (0.5 + mu * x0) * (f_hi - f_lo) - moment_term
    return min(max(val, 0.0), 1.0)


def adep_asymptotic(params: SystemParams, rs_convention: str = "nats") -> float:
    """High-SNR error, sqrt(2 pi) e^(1/(2M)+r) / (2 sqrt(M) (N-1) alpha beta rho).

    r is the per-use rate under the chosen convention; the scaling in
    (alpha beta rho) is exactly -1 (diversity order one: density mass at the
    origin survives any number of elements without co-phasing).
    """
    n, m = params.n_elements, params.blocklength
    if n < 2:
        raise DomainError(f"adep_asymptotic needs n_elements >= 2, got {n}")
    rs = fbl.packet_rate(m, params.packet_bits, rs_convention)
    rab = params.rho * params.alpha * params.beta
    return (math.sqrt(2.0 * math.pi) * math.exp(0.5 / m + rs)
            / (2.0 * math.sqrt(m) * (n - 1.0) * rab))
