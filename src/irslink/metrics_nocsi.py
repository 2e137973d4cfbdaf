"""Average rate and error metrics for the zero-phase (no CSI) link.

Each metric exists in up to three strengths:

  - "numerical": the exact rate or error curve averaged over the exact
    Bessel-K SNR law on fixed rules (the reference everything else is
    judged by): ADR against the unit-scale density in log y
    (channel.log_snr_rule), ADEP by parts against the CDF on the nodes of
    fbl.error_rule.  Both rules are free of rho and cached, so these
    methods, the rate bounds included, take a 1-D array of rho in
    params.rho and evaluate the whole curve in one vectorized rate or CDF
    call per row block;
  - closed-form bounds / ramp approximations with the error curve replaced
    by its linearization;
  - high-SNR asymptotics exposing the scaling laws.

The Shannon average (upper bound) runs on the same ADR rule.  The ramp
average is, by parts, mu times the integral of the CDF between the knees;
it is the one adaptive quadrature left here.
"""

from __future__ import annotations

import math

import numpy as np

from . import fbl
from .channel import SystemParams, snr_average, snr_cdf_nocsi
from .fbl import _LN2, _clamp_prob, _ramp_average, _rate_penalty
# integrate_semi_infinite is not called here; the binding stays for the
# benchmark's tracer, which patches it in this namespace (bench/test_bench.py)
from .numerics import (  # noqa: F401
    DomainError,
    EULER_GAMMA,
    QuadratureSpec,
    digamma,
    integrate_interval,
    integrate_semi_infinite,
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

# The ramp integral has a relative tolerance only: an absolute floor would
# stop refining the small averages at high SNR.
_RAMP_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)


# ---------------------------------------------------------------------------
# average data rate
# ---------------------------------------------------------------------------

def adr_numerical(params: SystemParams):
    """Average rate: the short-packet rate averaged over the SNR law, per rho."""
    m, eps = params.blocklength, params.target_eps
    return snr_average(lambda x: fbl.achievable_rate(x, m, eps), params, "nocsi")


def adr_upper_bound(params: SystemParams):
    """Average Shannon rate over the SNR law (penalty term dropped), per rho."""
    return snr_average(lambda x: np.log2(1.0 + x), params, "nocsi")


def adr_lower_bound(params: SystemParams):
    """Lower rate bound, per rho: Shannon average minus the worst-case penalty.

    Bounding the dispersion by 1 turns the penalty integral into the plain
    density normalization, so the bound is the upper bound shifted down by
    Qinv(eps) / (sqrt(M) ln2).
    """
    return adr_upper_bound(params) - _rate_penalty(params.blocklength, params.target_eps)


def adr_asymptotic(params: SystemParams) -> float:
    """High-SNR rate: (H_{N-1} + ln(alpha beta rho) - Qinv(eps)/sqrt(M) - 2 g0) / ln2.

    The harmonic number is read through the digamma identity
    H_{N-1} = psi(N) + g0.
    """
    rab = params.rho * params.alpha * params.beta
    return ((digamma(params.n_elements) + EULER_GAMMA + math.log(rab) - 2.0 * EULER_GAMMA)
            / _LN2 - _rate_penalty(params.blocklength, params.target_eps))


# ---------------------------------------------------------------------------
# average decoding error probability
# ---------------------------------------------------------------------------

def adep_numerical(params: SystemParams):
    """Average error, per rho: the exact error curve averaged by parts against the CDF."""
    return _clamp_prob(fbl.average_error(snr_cdf_nocsi, params))


def adep_linearized(params: SystemParams) -> float:
    """Ramp-averaged error, by parts mu * int_lo^hi F(x) dx on the exact CDF.

    The ramp falls from 1 to 0 between its knees lo (clamped at 0) and hi
    with slope -mu, so E[ramp(X)] = mu * int_lo^hi F(x) dx; the integral is
    adaptive, to a relative tolerance of 1e-10.
    """
    lp = fbl.linearization_params(params.blocklength, params.packet_bits)
    ramp = integrate_interval(lambda x: snr_cdf_nocsi(x, params), lp.knee_lo, lp.knee_hi,
                              _RAMP_SPEC)
    return _clamp_prob(lp.slope_mu * ramp)


def adep_approx(params: SystemParams) -> float:
    """Closed-form ramp error with the two-term small-argument Bessel kernel.

    Written with the CDF at the knees lo (clamped at 0) and hi, the ramp
    average is F(lo) + (1/2 + mu x0)(F(hi) - F(lo)) - mu int_lo^hi x f(x) dx.
    The Bessel factor of the moment integrand is replaced by its leading
    small-argument pair, which turns the moment into monomial antiderivatives
    x^2/2 and x^3/3.  After the prefactors cancel the moment term reads

      mu/(alpha beta rho) * [df2/(N-1) - df1/((N-1)(N-2) alpha beta rho)]

    Needs N >= 3 for the second kernel term.  adep_linearized averages the
    same ramp over the exact law, so the difference of the two isolates the
    kernel-approximation error.
    """
    n = params.n_elements
    if n < 3:
        raise DomainError(
            f"adep_approx needs n_elements >= 3 (factorials of N-2 and N-3), got {n}"
        )
    lp = fbl.linearization_params(params.blocklength, params.packet_bits)
    lo, hi = lp.knee_lo, lp.knee_hi
    rab = params.rho * params.alpha * params.beta
    df2 = 0.5 * (hi * hi - lo * lo)
    df1 = (hi ** 3 - lo ** 3) / 3.0
    moment_term = lp.slope_mu * (df2 / (n - 1.0) - df1 / ((n - 1.0) * (n - 2.0) * rab)) / rab
    return _ramp_average(lambda x: snr_cdf_nocsi(x, params), lp, moment_term)


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
