"""Average rate and error metrics for the co-phased (CSI) link.

All CSI-side statistics run through the Gamma moment match of the element
product |g||h| at unit variances: the co-phased SNR is s XI^2 with
s = rho alpha beta (SystemParams.snr_scale) and XI ~ Gamma(N k, theta0).
The log-rate approximation and the rate gap read its level E[ln XI^2]
(channel.log_snr_mean).  The "numerical" rate and error average the exact
rate or error curve over that law on the fixed rules shared with the
no-CSI metrics (channel.log_snr_rule for ADR, the lattice in ln x of
fbl.average_error by parts for ADEP).  The ADEP cuts its lattice with
p = N k/2 and steps it finer for the law's spread, sqrt(2/p) in ln x: at
M = 200, D = 100 a row is 39 points at N = 1, 47 at N = 20, 113 at
N = 256 and 202 at N = 1024.  The closed forms below combine incomplete
gammas and the error tail's two 1F1 values (scipy's hyp1f1), assembled in
log magnitude where factors would otherwise overflow.  Every metric takes a float or a 1-D array in
params.rho and returns a float or one value per rho, each value depending
on its own rho alone.

The paper's rate closed form (three pFq series and a digamma term) is an
identity, not an approximation: it equals the Gamma-model Shannon average
minus the rate penalty at unit dispersion, shannon_gamma -
Qinv(eps)/(sqrt(M) ln2), and is computed that way.  Its gap to
adr_numerical_gamma is the dispersion term, which grows as N k shrinks,
not an error.  Probability outputs are clamped to [0, 1] by
fbl._clamp_prob, silently.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hyp1f1

from . import fbl
from .channel import (
    GammaMatch,
    SystemParams,
    _gamma_law,
    cdf_exponent,
    gamma_match,
    log_snr_mean,
    snr_average,
    snr_cdf_csi,
)
from .fbl import _LN2, _clamp_prob, _ramp_average, _rate_asymptote, _rate_penalty
from .numerics import _per_rho, reg_gamma_lower

__all__ = [
    "adr_numerical_gamma",
    "adr_closed_form",
    "adr_simplified",
    "shannon_gamma",
    "rate_gap",
    "adep_numerical",
    "adep_linearized",
    "ramp_moment_closed_form",
    "adep_asymptotic",
]


# ---------------------------------------------------------------------------
# average data rate
# ---------------------------------------------------------------------------

def adr_numerical_gamma(params: SystemParams):
    """Average rate, per rho: the short-packet rate averaged over the Gamma-model SNR law."""
    m, eps = params.blocklength, params.target_eps
    return snr_average(lambda x: fbl.achievable_rate(x, m, eps), params, "csi")


def shannon_gamma(params: SystemParams):
    """Average Shannon rate under the Gamma model (no blocklength penalty), per rho."""
    return snr_average(lambda x: np.log2(1.0 + x), params, "csi")


def adr_closed_form(params: SystemParams):
    """Closed-form average rate, per rho: the paper's pFq form, through its identity.

    The paper assembles, per unit of the density normalization
    2 rho^(a/2) theta^a Gamma(a) with a = N k:

      2F3(1,1; 2, (3-a)/2, (4-a)/2; z) / ((a-1)(a-2) rho theta^2 ln2)
      - pi sec(pi a/2) 1F2((a+1)/2; 3/2, (a+3)/2; z) * s1 / ((a+1) ln2)
      + pi csc(pi a/2) 1F2(a/2; 1/2, a/2+1; z) * s2 / (a ln2)
      + 2 (psi(a) - ln(1/(theta sqrt(rho)))) / ln2
      - Qinv(eps) / (sqrt(M) ln2)

    with z = -1/(4 rho theta^2), s1 = rho^-((a+1)/2) theta^-(a+1) / Gamma(a)
    and s2 = rho^(-a/2) theta^-a / Gamma(a).  The first four terms are the
    Gamma-model Shannon average E[log2(1+X)] and the last is the rate
    penalty at unit dispersion, so the closed form is exactly
    shannon_gamma(params) - Qinv(eps)/(sqrt(M) ln2), and that is how it is
    computed: in one call for every rho, with no sec/csc poles and none of
    the cancellation the alternating series suffer at low SNR.  It is the
    Shannon average minus the worst-case penalty, the CSI twin of the
    no-CSI adr_lower_bound.  It lies below adr_numerical_gamma by the
    dispersion term E[(1 - sqrt(V(X))) Qinv(eps)/sqrt(M)]/ln2, which is not
    small where the SNR is often near 0 (small N k, low SNR): at 0 dB it is
    0.20 bits at N = 1.

    params.rho is a float or a 1-D array; the result is a float or one
    value per rho.
    """
    return shannon_gamma(params) - _rate_penalty(params.blocklength, params.target_eps)


def adr_simplified(params: SystemParams):
    """Log-approximated average rate per rho, (2 (psi(a) + ln theta0) + ln s)/ln2 - penalty."""
    return _rate_asymptote(log_snr_mean(params, "csi"), params)


def rate_gap(params: SystemParams) -> float:
    """Asymptotic CSI-over-no-CSI rate gain at equal element count: the two levels' difference.

    (2 psi(k N) + 2 ln theta0 - psi(N) + g0) / ln2, free of rho alpha beta; non-integer
    harmonic limits are read through the digamma identity sum_{j=1}^{x-1} 1/j -> psi(x) + g0.
    """
    return (log_snr_mean(params, "csi") - log_snr_mean(params, "nocsi")) / _LN2


# ---------------------------------------------------------------------------
# average decoding error probability
# ---------------------------------------------------------------------------

def _ramp_delta_p(lp: fbl.LinearizationParams, s, a: float, theta: float):
    """P(a+2, u(hi)) - P(a+2, u(lo)) with u(x) = sqrt(x/s)/theta at the ramp knees, per s."""
    return (reg_gamma_lower(a + 2.0, np.sqrt(lp.knee_hi / s) / theta)
            - reg_gamma_lower(a + 2.0, np.sqrt(lp.knee_lo / s) / theta))


def adep_numerical(params: SystemParams):
    """Average error, per rho: the error curve averaged by parts against the Gamma-model CDF."""
    return _clamp_prob(fbl.average_error(snr_cdf_csi, params, cdf_exponent(params, "csi")))


def adep_linearized(params: SystemParams):
    """Ramp-averaged error under the Gamma model, per rho, fully closed form.

    This is mu int_lo^hi F(x) dx, the by-parts ramp average that the no-CSI
    adep_linearized integrates numerically, written with the CDF at the
    knees and a moment term.  The moment integral int x^(a/2) e^(-u(x)) dx
    has the antiderivative -2 s^(a/2+1) theta0^(a+2) UpperGamma(a+2, u(x)),
    u(x) = sqrt(x/s)/theta0; dividing by the density normalization
    collapses the moment term to

      mu s theta0^2 a (a+1) [P(a+2, u(hi)) - P(a+2, u(lo))]

    which is evaluated through regularized lower gammas to dodge the
    cancellation of near-equal upper gammas at high SNR.  The CDF is called
    once, on the (rho, knee) grid.
    """
    lp = fbl.linearization_params(params.blocklength, params.packet_bits)
    a, theta0 = _gamma_law(params)
    s = params.snr_scale
    delta_p = _ramp_delta_p(lp, s, a, theta0)
    moment_term = lp.slope_mu * s * theta0 * theta0 * a * (a + 1.0) * delta_p
    return _ramp_average(snr_cdf_csi, params, lp, moment_term)


def ramp_moment_closed_form(params: SystemParams, match: GammaMatch | None = None,
                            lp: fbl.LinearizationParams | None = None) -> float:
    """Closed form of the ramp moment int_lo^hi x^(a/2) e^(-u(x)) dx, as the paper prints it.

    u(x) = sqrt(x/rho)/theta, match defaulting to gamma_match(alpha, beta).
    The upper incomplete gammas of the antiderivative pair
    -2 rho^(a/2+1) theta^(a+2) UpperGamma(a+2, u) are folded into a
    regularized lower difference: exactly equivalent, and it keeps its
    digits where P(a+2, u) is tiny and the upper gammas nearly cancel.
    """
    lp = lp or fbl.linearization_params(params.blocklength, params.packet_bits)
    match = match or gamma_match(params.alpha, params.beta)
    a, theta = params.n_elements * match.shape, match.scale
    rho = params.rho
    delta_p = _ramp_delta_p(lp, rho, a, theta)
    if delta_p <= 0.0:
        return 0.0
    log_c = (0.5 * a + 1.0) * math.log(rho) + (a + 2.0) * math.log(theta)
    return 2.0 * math.exp(log_c + math.lgamma(a + 2.0) + math.log(delta_p))


def _times_exp(f: float, x: float) -> float:
    """f e^x with ln|f| added to the exponent, so a huge f times a tiny e^x keeps its digits."""
    return math.copysign(math.exp(x + math.log(abs(f))), f) if f else 0.0


def adep_asymptotic(params: SystemParams, form: str = "two_term",
                    rs_convention: str = "nats"):
    """High-SNR error under the Gamma model, per rho.

    form='two_term' (default): both confluent hypergeometric terms of the
    tail expansion, scaling as s^(-a/2) with s = alpha beta rho and a = N k.

    form='single_term': the reported collapsed constant form

      1F1((2-a)/4; 1/2; -M r^2/2) 2^(1.28564 a - 2) M^(-a/4)
        Gamma(a/4)/Gamma(a) s^(1/2 - a),

    kept verbatim including its empirical constant; its SNR exponent is
    exactly 1/2 - a.

    All but ln s is computed once per call, the 1F1 values by scipy; one
    beyond the double range (large a and |z|) raises OverflowError naming a and z.
    """
    if form not in ("two_term", "single_term"):
        raise ValueError(f"form must be 'two_term' or 'single_term', got {form!r}")
    a, theta0 = _gamma_law(params)
    m = params.blocklength
    rs = fbl.packet_rate(m, params.packet_bits, rs_convention)
    z = -0.5 * m * rs * rs
    f_a = float(hyp1f1(0.25 * (2.0 - a), 0.5, z))
    f_b = float(hyp1f1(1.0 - 0.25 * a, 1.5, z))
    if not math.isfinite(f_a + f_b):
        raise OverflowError(f"adep_asymptotic needs finite 1F1 tail values, got "
                            f"{f_a:g} and {f_b:g} at a = N k = {a:g}, z = -M r^2/2 = {z:g}")
    # each term is c f s^power e^log_c
    if form == "single_term":
        power = 0.5 - a
        terms = [(1.0, f_a, (1.28564 * a - 2.0) * _LN2 - 0.25 * a * math.log(m)
                  + math.lgamma(0.25 * a) - math.lgamma(a))]
    else:
        log_pref = ((0.25 * a - 3.5) * _LN2 - 0.25 * a * math.log(m)
                    - a * math.log(theta0) - math.lgamma(a))
        power = -0.5 * a
        terms = [(math.sqrt(2.0), f_a, log_pref + math.lgamma(0.25 * a)),
                 (2.0 * math.sqrt(m) * rs, f_b, log_pref + math.lgamma(0.25 * (a + 2.0)))]
    return _per_rho(lambda s: sum(c * _times_exp(f, log_c + power * math.log(s))
                                  for c, f, log_c in terms), params.snr_scale)
