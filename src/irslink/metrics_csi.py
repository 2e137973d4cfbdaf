"""Average rate and error metrics for the co-phased (CSI) link.

All CSI-side statistics run through the Gamma moment match of the element
product |g||h|: the co-phased SNR is modeled as rho * XI^2 with
XI ~ Gamma(N k, theta).  The "numerical" rate and error average the exact
rate or error curve over that law on the fixed rules shared with the
no-CSI metrics (channel.log_snr_rule for ADR, fbl.error_rule by parts for
ADEP).  The closed forms below combine incomplete gammas, digammas and
generalized hypergeometric values; everything is assembled in log
magnitude where factors would otherwise overflow.

The sec/csc factors of the rate closed form have poles at integer
a = N k.  The shape k = pi^2/(16 - pi^2) is irrational, so a never lands
on a pole, but it comes within POLE_GUARD of one for some physical N
(1287, 1669, 2574, 2956 and 3861 up to 4096); there the closed form falls
back to the numerical rate and flags the event.  It falls back the same
way at low SNR, where cancellation in and among its pFq terms costs more
than DIGITS_LOST_MAX of the 16 digits (about -18 dB and below).

Probability outputs are clamped to [0, 1]; clamp events and pole fallbacks
are counted on module-level thread-safe counters so sweeps can report them.
"""

from __future__ import annotations

import logging
import math
import threading

import numpy as np

from . import fbl, metrics_nocsi
from .channel import (
    GammaMatch,
    SystemParams,
    gamma_match,
    snr_average,
    snr_cdf_csi,
)
from .numerics import (
    EULER_GAMMA,
    digamma,
    hyp_pfq,
    q_inv,
    reg_gamma_lower,
    reg_gamma_upper,
)

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
    "adep_ratio",
    "pole_fallback_count",
    "clamp_count",
    "reset_counters",
]

_LN2 = math.log(2.0)
POLE_GUARD = 1e-3
DIGITS_LOST_MAX = 8.0

logger = logging.getLogger(__name__)


class _EventCounter:
    """Thread-safe event tally for clamp / fallback reporting."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self) -> None:
        with self._lock:
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def reset(self) -> None:
        with self._lock:
            self._count = 0


_POLE_FALLBACKS = _EventCounter()
_CLAMPS = _EventCounter()


def pole_fallback_count() -> int:
    return _POLE_FALLBACKS.count


def clamp_count() -> int:
    return _CLAMPS.count


def reset_counters() -> None:
    _POLE_FALLBACKS.reset()
    _CLAMPS.reset()


def _clamp_prob(val: float) -> float:
    if 0.0 <= val <= 1.0:
        return val
    _CLAMPS.bump()
    return min(max(val, 0.0), 1.0)


def _shape_sum(params: SystemParams, match: GammaMatch) -> float:
    return params.n_elements * match.shape


# ---------------------------------------------------------------------------
# average data rate
# ---------------------------------------------------------------------------

def adr_numerical_gamma(params: SystemParams) -> float:
    """Average rate: the short-packet rate averaged over the Gamma-model SNR law."""
    m, eps = params.blocklength, params.target_eps
    return snr_average(lambda x: fbl.achievable_rate(x, m, eps), params, "csi")


def shannon_gamma(params: SystemParams) -> float:
    """Average Shannon rate under the Gamma model (no blocklength penalty)."""
    return snr_average(lambda x: np.log2(1.0 + x), params, "csi")


def adr_closed_form(params: SystemParams) -> float:
    """Closed-form average rate with hypergeometric correction terms.

    Assembles, per unit of the density normalization 2 rho^(a/2) theta^a
    Gamma(a) with a = N k:

      2F3(1,1; 2, (3-a)/2, (4-a)/2; z) / ((a-1)(a-2) rho theta^2 ln2)
      - pi sec(pi a/2) 1F2((a+1)/2; 3/2, (a+3)/2; z) * s1 / ((a+1) ln2)
      + pi csc(pi a/2) 1F2(a/2; 1/2, a/2+1; z) * s2 / (a ln2)
      + 2 (psi(a) - ln(1/(theta sqrt(rho)))) / ln2
      - Qinv(eps) / (sqrt(M) ln2)

    with z = -1/(4 rho theta^2) and s1, s2 the log-domain scale factors.
    Within POLE_GUARD of a sec/csc pole the closed form is abandoned for
    adr_numerical_gamma; the fallback is logged and counted.  At low SNR the
    alternating series cancel (hyp_pfq reports max|term| / |sum|) and so do
    the large terms t1..t3 among themselves; where the two together cost
    more than DIGITS_LOST_MAX of the 16 digits it falls back the same way,
    logged.
    """
    match = gamma_match(params.alpha, params.beta)
    a = _shape_sum(params, match)
    half_pi_a = 0.5 * math.pi * a
    if min(abs(math.sin(half_pi_a)), abs(math.cos(half_pi_a))) < POLE_GUARD:
        _POLE_FALLBACKS.bump()
        logger.warning(
            "closed-form rate near sec/csc pole (a=%g); falling back to quadrature", a)
        return adr_numerical_gamma(params)

    theta = match.scale
    rho = params.rho
    z = -0.25 / (rho * theta * theta)

    f23, c23 = hyp_pfq([1.0, 1.0], [2.0, 1.5 - 0.5 * a, 2.0 - 0.5 * a], z,
                       with_cancellation=True)
    f12_sec, c_sec = hyp_pfq([0.5 * (a + 1.0)], [1.5, 0.5 * a + 1.5], z,
                             with_cancellation=True)
    f12_csc, c_csc = hyp_pfq([0.5 * a], [0.5, 0.5 * a + 1.0], z, with_cancellation=True)

    t1 = f23 / (_LN2 * (a - 1.0) * (a - 2.0) * rho * theta * theta)
    log_s1 = -(0.5 * (a + 1.0) * math.log(rho) + (a + 1.0) * math.log(theta)
               + math.lgamma(a))
    t2 = -math.pi / math.cos(half_pi_a) * f12_sec * math.exp(log_s1) / ((a + 1.0) * _LN2)
    log_s2 = -(0.5 * a * math.log(rho) + a * math.log(theta) + math.lgamma(a))
    t3 = math.pi / math.sin(half_pi_a) * f12_csc * math.exp(log_s2) / (a * _LN2)
    t45 = 2.0 * (digamma(a) - math.log(1.0 / (theta * math.sqrt(rho)))) / _LN2
    penalty = q_inv(params.target_eps) / (math.sqrt(params.blocklength) * _LN2)
    val = t1 + t2 + t3 + t45 - penalty
    # rounding of each series is amplified by its own cancellation and then
    # by the cancellation among the terms
    spread = abs(t1) * c23 + abs(t2) * c_sec + abs(t3) * c_csc + abs(t45) + penalty
    lost = math.log10(spread / abs(val)) if val != 0.0 else math.inf
    if lost > DIGITS_LOST_MAX:
        logger.warning(
            "closed-form rate loses %.1f of 16 digits to cancellation (a=%g, z=%g); "
            "falling back to quadrature", lost, a, z)
        return adr_numerical_gamma(params)
    return val


def adr_simplified(params: SystemParams) -> float:
    """Log-approximated average rate, 2(psi(a) - ln(1/(theta sqrt(rho))))/ln2 - penalty."""
    match = gamma_match(params.alpha, params.beta)
    a = _shape_sum(params, match)
    lead = 2.0 * (digamma(a) - math.log(1.0 / (match.scale * math.sqrt(params.rho))))
    penalty = q_inv(params.target_eps) / math.sqrt(params.blocklength)
    return (lead - penalty) / _LN2


def rate_gap(params: SystemParams) -> float:
    """Asymptotic CSI-over-no-CSI rate gain at equal element count.

    (2 psi(k N) - psi(N) + g0 + 2 ln theta0) / ln2 with theta0 the unit
    variance Gamma scale; the channel variances cancel.  Non-integer
    harmonic limits are read through the digamma identity
    sum_{j=1}^{x-1} 1/j -> psi(x) + g0.
    """
    base = gamma_match(1.0, 1.0)
    a = params.n_elements * base.shape
    return (2.0 * digamma(a) - digamma(params.n_elements) + EULER_GAMMA
            + 2.0 * math.log(base.scale)) / _LN2


# ---------------------------------------------------------------------------
# average decoding error probability
# ---------------------------------------------------------------------------

def adep_numerical(params: SystemParams) -> float:
    """Average error: the error curve averaged by parts against the Gamma-model CDF."""
    match = gamma_match(params.alpha, params.beta)
    return _clamp_prob(fbl.average_error(lambda x: snr_cdf_csi(x, params, match),
                                         params.blocklength, params.packet_bits))


def adep_linearized(params: SystemParams) -> float:
    """Ramp-averaged error under the Gamma model, fully closed form.

    The ramp moment integral int x^(a/2) e^(-u(x)) dx has the antiderivative
    -2 rho^(a/2+1) theta^(a+2) UpperGamma(a+2, u(x)), u(x) = sqrt(x/rho)/theta;
    dividing by the density normalization collapses the moment term to

      mu rho theta^2 a (a+1) [P(a+2, u(hi)) - P(a+2, u(lo))]

    which is evaluated through regularized lower gammas to dodge the
    cancellation of near-equal upper gammas at high SNR.
    """
    match = gamma_match(params.alpha, params.beta)
    lp = fbl.linearization_params(params.blocklength, params.packet_bits)
    a = _shape_sum(params, match)
    theta, rho = match.scale, params.rho
    lo = max(0.0, lp.knee_lo)
    hi = lp.knee_hi
    mu, x0 = lp.slope_mu, lp.center_x0
    f_lo = snr_cdf_csi(lo, params, match)
    f_hi = snr_cdf_csi(hi, params, match)
    u_lo = math.sqrt(lo / rho) / theta
    u_hi = math.sqrt(hi / rho) / theta
    delta_p = reg_gamma_lower(a + 2.0, u_hi) - reg_gamma_lower(a + 2.0, u_lo)
    moment_term = mu * rho * theta * theta * a * (a + 1.0) * delta_p
    val = f_lo + (0.5 + mu * x0) * (f_hi - f_lo) - moment_term
    return _clamp_prob(val)


def ramp_moment_closed_form(params: SystemParams, match: GammaMatch | None = None,
                            lp: fbl.LinearizationParams | None = None,
                            literal_upper: bool = False) -> float:
    """Closed form of the ramp moment int_lo^hi x^(a/2) e^(-u(x)) dx.

    By default the upper incomplete gammas of the antiderivative are folded
    into a regularized lower difference (exactly equivalent, numerically
    stable).  literal_upper=True evaluates the printed antiderivative pair
    -2 rho^(a/2+1) theta^(a+2) UpperGamma(a+2, u) verbatim, which loses all
    precision once P(a+2, u) is tiny; it exists for fidelity checks at
    parameter points where the direct difference is representable.
    """
    match = match or gamma_match(params.alpha, params.beta)
    lp = lp or fbl.linearization_params(params.blocklength, params.packet_bits)
    a = _shape_sum(params, match)
    theta, rho = match.scale, params.rho
    lo = max(0.0, lp.knee_lo)
    hi = lp.knee_hi
    u_lo = math.sqrt(lo / rho) / theta
    u_hi = math.sqrt(hi / rho) / theta
    log_c = (0.5 * a + 1.0) * math.log(rho) + (a + 2.0) * math.log(theta)
    if literal_upper:
        log_gamma_a2 = math.lgamma(a + 2.0)
        upper_lo = math.exp(log_c + log_gamma_a2 + math.log(reg_gamma_upper(a + 2.0, u_lo)))
        upper_hi = math.exp(log_c + log_gamma_a2 + math.log(reg_gamma_upper(a + 2.0, u_hi)))
        return 2.0 * (upper_lo - upper_hi)
    delta_p = reg_gamma_lower(a + 2.0, u_hi) - reg_gamma_lower(a + 2.0, u_lo)
    if delta_p <= 0.0:
        return 0.0
    return 2.0 * math.exp(log_c + math.lgamma(a + 2.0) + math.log(delta_p))


def adep_asymptotic(params: SystemParams, form: str = "two_term",
                    rs_convention: str = "nats") -> float:
    """High-SNR error under the Gamma model.

    form='two_term' (default): both confluent hypergeometric terms of the
    tail expansion, scaling as (alpha beta rho)^(-a/2) with a = N k.

    form='single_term': the reported collapsed constant form

      1F1((2-a)/4; 1/2; -M r^2/2) 2^(1.28564 a - 2) M^(-a/4)
        Gamma(a/4)/Gamma(a) (alpha beta rho)^(1/2 - a),

    kept verbatim including its empirical constant; its SNR exponent is
    exactly 1/2 - a.
    """
    match = gamma_match(params.alpha, params.beta)
    a = _shape_sum(params, match)
    m = params.blocklength
    rs = fbl.packet_rate(m, params.packet_bits, rs_convention)
    z = -0.5 * m * rs * rs
    f_a = hyp_pfq([0.25 * (2.0 - a)], [0.5], z)
    if form == "single_term":
        rab = params.rho * params.alpha * params.beta
        log_val = ((1.28564 * a - 2.0) * _LN2 - 0.25 * a * math.log(m)
                   + math.lgamma(0.25 * a) - math.lgamma(a)
                   + (0.5 - a) * math.log(rab))
        return f_a * math.exp(log_val)
    if form != "two_term":
        raise ValueError(f"form must be 'two_term' or 'single_term', got {form!r}")
    f_b = hyp_pfq([1.0 - 0.25 * a], [1.5], z)
    theta, rho = match.scale, params.rho
    log_pref = ((0.25 * a - 3.5) * _LN2 - 0.25 * a * math.log(m)
                - 0.5 * a * math.log(rho) - a * math.log(theta) - math.lgamma(a))
    term_a = math.sqrt(2.0) * f_a * math.exp(log_pref + math.lgamma(0.25 * a))
    term_b = (2.0 * math.sqrt(m) * rs * f_b
              * math.exp(log_pref + math.lgamma(0.25 * (a + 2.0))))
    return term_a + term_b


def adep_ratio(params: SystemParams, rs_convention: str = "nats") -> float:
    """CSI-to-no-CSI ratio of the asymptotic error probabilities.

    Quotient of the two-term CSI asymptote and the no-CSI asymptote, so the
    SNR scaling is exactly (alpha beta rho)^(1 - a/2).
    """
    num = adep_asymptotic(params, form="two_term", rs_convention=rs_convention)
    den = metrics_nocsi.adep_asymptotic(params, rs_convention=rs_convention)
    return num / den
