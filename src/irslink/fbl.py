"""Short-packet rate and error formulas plus the Q-ramp linearization.

The normal approximation for M channel uses at error target eps is

    R = log2(1 + gamma) - sqrt(V(gamma)/M) Qinv(eps)/ln2,
    V(gamma) = 1 - (1 + gamma)^-2,

and the matching decoding error for a D-bit packet is

    eps = Q( sqrt(M/V(gamma)) * (ln(1 + gamma) - D ln2 / M) ).

The Q argument w(gamma) rises strictly from -inf to +inf, so with T a
standard normal, eps(gamma) = P(T > w(gamma)) and the average error over
any SNR law with CDF F is E_T[F(x(T))], x = w^-1.  error_rule tabulates
x(t_i) and the normal weights once per (M, D); the average errors of a
whole vector of rho then cost one vectorized CDF call per row block, on
the nodes below the rule's provably negligible tail (see average_error).

Two rate conventions float around the asymptotic error formulas: the exact
Q argument above uses D ln2 / M nats per use ("nats", the default here),
while some relaxed derivations read D/M as if it were already in nats
("bits").  packet_rate exposes the switch; every asymptotic consumer takes
it as a keyword.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import _dot_per_rho, _per_rho, gauss_legendre_panels, q_func, q_inv

__all__ = [
    "LinearizationParams",
    "dispersion",
    "achievable_rate",
    "decode_error_prob",
    "error_rule",
    "average_error",
    "linearization_params",
    "packet_rate",
]

_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
# The ramp slope needs 2 pi (2^(2D/M) - 1) finite, which holds up to
# D/M ~ 510.67; the limit is kept at a round value below that.
_RAMP_MAX_RATIO = 510.0


@dataclass(frozen=True)
class LinearizationParams:
    """Ramp replacement of the error curve: slope slope_mu, center center_x0.

    The ramp is 1 below center_x0 - 1/(2 mu), falls linearly through 1/2 at
    center_x0, and is 0 above center_x0 + 1/(2 mu).  knee_lo is that lower
    knee clamped at 0, where the SNR starts.
    """

    slope_mu: float
    center_x0: float

    def __post_init__(self):
        if not (self.slope_mu > 0.0 and self.center_x0 > 0.0):
            raise ValueError("LinearizationParams requires positive slope and center")

    @property
    def knee_lo(self) -> float:
        return max(0.0, self.center_x0 - 0.5 / self.slope_mu)

    @property
    def knee_hi(self) -> float:
        return self.center_x0 + 0.5 / self.slope_mu


def dispersion(gamma):
    """Channel dispersion V(gamma) = 1 - (1 + gamma)^-2, in [0, 1).

    Computed as gamma (gamma + 2) / (1 + gamma)^2 to keep full precision
    near gamma = 0.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("dispersion requires gamma >= 0")
    val = g * (g + 2.0) / (1.0 + g) ** 2
    return float(val) if np.ndim(gamma) == 0 else val


@functools.lru_cache(maxsize=16)
def _q_inv_once(eps: float) -> float:
    """q_inv(eps), computed once per distinct eps.

    The ADR quadratures call achievable_rate once per panel with one eps.
    """
    return q_inv(eps)


def _rate_penalty(blocklength: int, eps: float) -> float:
    """Qinv(eps) / (sqrt(M) ln2): the rate penalty at unit dispersion."""
    return _q_inv_once(float(eps)) / (math.sqrt(blocklength) * _LN2)


def _rate_asymptote(log_mean: float, params):
    """High-SNR rate per rho, (log_mean + ln snr_scale)/ln2 - penalty, log_mean = E[ln Y]."""
    penalty = _rate_penalty(params.blocklength, params.target_eps)
    return _per_rho(lambda s: (log_mean + math.log(s)) / _LN2 - penalty, params.snr_scale)


def achievable_rate(gamma, blocklength: int, eps: float):
    """Normal-approximation rate in bits per channel use.

    May be negative at low SNR; the averaging integrals consume the signed
    value, so no clamping happens here.  Negative gamma is rejected by
    dispersion.
    """
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    g = np.asarray(gamma, dtype=float)
    penalty = np.sqrt(dispersion(g) / blocklength) * _q_inv_once(float(eps)) / _LN2
    val = np.log2(1.0 + g) - penalty
    return float(val) if np.ndim(gamma) == 0 else val


def _check_packet(blocklength: int, bits: float) -> None:
    """Reject a blocklength below 1 or a payload that is not positive."""
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    if not bits > 0.0:
        raise ValueError("bits must be > 0")


def decode_error_prob(gamma, blocklength: int, bits: float):
    """Packet error probability Q(sqrt(M/V) (ln(1+gamma) - D ln2/M)).

    gamma = 0 returns 1 by convention: a zero-rate channel cannot carry a
    positive payload, and V(0) = 0 makes the argument degenerate.
    """
    _check_packet(blocklength, bits)
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("decode_error_prob requires gamma >= 0")
    scalar = np.ndim(gamma) == 0
    g = np.atleast_1d(g)
    out = np.ones_like(g)
    pos = g > 0.0
    gp = g[pos]
    arg = np.sqrt(blocklength / dispersion(gp)) * (np.log1p(gp) - bits * _LN2 / blocklength)
    out[pos] = q_func(arg)
    return float(out[0]) if scalar else out


# The rule spans t in [-8, 38].  The integrand phi(t) F(x(t)) rises on t < 0
# (F increases), so the part below -8 is at most 2 Q(8) ~ 1e-15 of the total;
# the part above 38 is at most Q(38) < 1e-315, below any value >= 1e-300
# that matters.  Its peak can sit anywhere in [0, 38] (steep CSI laws) with
# width <= 1, which panels of unit width resolve.  Near t = 0, x(t) turns
# over on the scale tau = sqrt(D ln2 / 2) (its inverse has branch points at
# t = +-2i tau), so for payloads below ~3 bits the panels are also split at
# +-tau 2^j up to 1.
_ERROR_RULE_EDGES = np.arange(-8.0, 38.5, 1.0)
_ERROR_RULE_ORDER = 8
# average_error drops the rule's top nodes once their share of the sum is
# provably at most this, relative, for every rho (see _error_rule_length).
_TAIL_SHARE = 2.0 ** -60


def _q_argument_inverse(t: np.ndarray, blocklength: int, bits: float) -> np.ndarray:
    """x >= 0 with sqrt(M/V(x)) (ln(1+x) - D ln2/M) = t, by bisection in ln ln(1+x)."""
    c = bits * _LN2 / blocklength
    root_m = math.sqrt(blocklength)

    def arg(log_u):
        u = np.exp(log_u)
        return root_m * (u - c) / np.sqrt(-np.expm1(-2.0 * u))

    lo = np.full_like(t, math.log(1e-300))
    hi = np.full_like(t, math.log(c + np.max(np.abs(t)) / root_m + 1.0))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = arg(mid) > t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    # for large D/M the top nodes overflow to +inf, where every CDF is 1
    with np.errstate(over="ignore"):
        return np.expm1(np.exp(0.5 * (lo + hi)))


@functools.lru_cache(maxsize=16)
def error_rule(blocklength: int, bits: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i and weights w_i with E[eps(X)] ~= sum_i w_i F(x_i).

    eps is decode_error_prob(., M, D) and F the CDF of the SNR X, whatever
    its law: by parts in the Q argument, E[eps(X)] = E_T[F(x(T))] with T
    standard normal.  Gauss-Legendre nodes t_i (8 per unit of t on
    [-8, 38], plus panels graded toward t = 0 for payloads under ~3 bits)
    are mapped through x(t) = w^-1(t) and weighted by phi(t_i); nodes
    whose weight underflows are dropped.  Built on first use per (M, D),
    cached and read-only.  The full rule is returned; average_error
    evaluates F only on its nodes below a provably negligible tail, 135 of
    368 at M = 200, D = 100 for the no-CSI law.
    """
    _check_packet(blocklength, bits)
    tau = math.sqrt(0.5 * bits * _LN2)
    fine = tau * 2.0 ** np.arange(max(0, math.ceil(-math.log2(tau))))
    edges = np.union1d(_ERROR_RULE_EDGES, np.concatenate([-fine, fine]))
    t, w = gauss_legendre_panels(edges, _ERROR_RULE_ORDER)
    w = w * np.exp(-0.5 * t * t) / math.sqrt(_TWO_PI)
    keep = w > 0.0
    x = _q_argument_inverse(t[keep], blocklength, bits)
    w = w[keep]
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=64)
def _error_rule_length(blocklength: int, bits: float, exponent: float) -> int:
    """Number k of leading nodes of error_rule(M, D) whose sum average_error keeps.

    For a CDF with F(x)/x^p non-increasing (p = exponent) and increasing
    nodes, sum_{i>=k} w_i F_i <= (F_k/x_k^p) sum_{i>=k} w_i x_i^p and
    sum_{i<k} w_i F_i >= (F_k/x_k^p) sum_{i<k} w_i x_i^p, whatever the
    scale rho.  k is the first index where sum_{i>=k} w_i x_i^p is at most
    _TAIL_SHARE times sum_{i<k} w_i x_i^p, so the dropped tail is at most
    that share of the kept sum; the sums are taken in logs, since x^p
    overflows for large p.  All nodes are kept if any is +inf.
    """
    x, w = error_rule(blocklength, bits)
    if not np.all(np.isfinite(x)):
        return x.size
    log_terms = np.log(w) + exponent * np.log(x)
    log_head = np.logaddexp.accumulate(log_terms)
    log_tail = np.logaddexp.accumulate(log_terms[::-1])[::-1]
    cut = np.flatnonzero(log_tail[1:] <= log_head[:-1] + math.log(_TAIL_SHARE))
    return int(cut[0]) + 1 if cut.size else x.size


def average_error(cdf, params, exponent: float):
    """E[decode_error_prob(X, M, D)] per rho, for an SNR X with CDF cdf(x, params) (unclamped).

    M, D and rho are params.blocklength, params.packet_bits and params.rho;
    rho is a float or a 1-D array, and the result a float or one value per
    rho.  exponent is a p with cdf(x)/x^p non-increasing in x (the law's
    channel.cdf_exponent): with it the rule's top nodes whose share is
    provably at most 2^-60 of the sum, for every rho, are not evaluated
    (_error_rule_length; no CSI at M = 200, D = 100 keeps 135 of 368).
    cdf must broadcast an array params.rho against x: it is called on the
    kept nodes of error_rule(M, D) with a column of rho values, one row
    block at a time, and each block is weighted and summed along its rows
    in one reduction (numerics._dot_per_rho), which sums every row in the
    order its length fixes, so a value does not depend on the other rho.
    """
    x, w = error_rule(params.blocklength, params.packet_bits)
    k = _error_rule_length(params.blocklength, params.packet_bits, exponent)
    x, w = x[:k], w[:k]
    return _dot_per_rho(w, lambda rho: cdf(x, replace(params, rho=rho)), params.rho)


def _clamp_prob(val):
    """val clipped to [0, 1], silently, elementwise for an ndarray; NaN passes through."""
    if isinstance(val, np.ndarray):
        return np.clip(val, 0.0, 1.0)
    return min(max(val, 0.0), 1.0)


def linearization_params(blocklength: int, bits: float) -> LinearizationParams:
    """Ramp slope and center for the given packet configuration.

    center_x0 = 2^(D/M) - 1 and slope_mu = sqrt(M / (2 pi (2^(2D/M) - 1))),
    the negative derivative of the error curve at its half-power point.
    Raises OverflowError for D/M >= _RAMP_MAX_RATIO, where the slope
    underflows.
    """
    _check_packet(blocklength, bits)
    ratio = bits / blocklength
    if ratio >= _RAMP_MAX_RATIO:
        raise OverflowError(f"ramp needs D/M < {_RAMP_MAX_RATIO:g}, got D/M = {ratio:g}")
    x0 = math.expm1(ratio * _LN2)
    mu = math.sqrt(blocklength / (_TWO_PI * math.expm1(2.0 * ratio * _LN2)))
    return LinearizationParams(slope_mu=mu, center_x0=x0)


def _ramp_average(cdf, params, lp: LinearizationParams, moment_term):
    """Ramp-averaged error F(lo) + (1/2 + mu x0)(F(hi) - F(lo)) - moment_term per rho, in [0, 1].

    moment_term is mu int_lo^hi x f(x) dx, a float or one value per rho.
    cdf(x, params) is called once, on the knee column [[lo], [hi]], which
    broadcasts against params.rho (a float or a 1-D array); the result is a
    float or one value per rho.
    """
    f_lo, f_hi = cdf(np.array([[lp.knee_lo], [lp.knee_hi]]), params)
    val = _clamp_prob(f_lo + (0.5 + lp.slope_mu * lp.center_x0) * (f_hi - f_lo) - moment_term)
    return float(val[0]) if np.ndim(params.rho) == 0 else val


def packet_rate(blocklength: int, bits: float, convention: str = "nats") -> float:
    """Per-use rate fed into the asymptotic error formulas.

    'nats' (default): D ln2 / M, consistent with the exact error formula.
    'bits': D / M read directly, matching the relaxed derivations that
    drop the ln2 weighting.
    """
    if convention == "nats":
        return bits * _LN2 / blocklength
    if convention == "bits":
        return bits / blocklength
    raise ValueError(f"convention must be 'nats' or 'bits', got {convention!r}")
