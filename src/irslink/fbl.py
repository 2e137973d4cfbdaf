"""Short-packet rate and error formulas plus the Q-ramp linearization.

The normal approximation for M channel uses at error target eps is

    R = log2(1 + gamma) - sqrt(V(gamma)/M) Qinv(eps)/ln2,
    V(gamma) = 1 - (1 + gamma)^-2,

and the matching decoding error for a D-bit packet is

    eps = Q( sqrt(M/V(gamma)) * (ln(1 + gamma) - D ln2 / M) ).

The Q argument w(gamma) rises strictly from -inf to +inf, so with T a
standard normal, eps(gamma) = P(T > w(gamma)), and by parts the average
error over an SNR law with CDF F is E[F(X_eps)], X_eps the SNR where eps
falls.  In v = ln x its density g(v) = phi(w) dw/dv is in closed form,
and the scale rho of the law is a shift: average_error sums g against the
unit-scale CDF on a lattice in v fixed per (M, D) (_error_window), so a
whole vector of rho costs one CDF call on rho-free points and one closed
form g per (rho, point).

Two rate conventions float around the asymptotic error formulas: the exact
Q argument above uses D ln2 / M nats per use ("nats", the default here),
while some relaxed derivations read D/M as if it were already in nats
("bits").  packet_rate exposes the switch; every asymptotic consumer takes
it as a keyword.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _BLOCK_DOUBLES, _per_rho, _row_sums, q_func, q_inv

__all__ = [
    "LinearizationParams",
    "dispersion",
    "achievable_rate",
    "decode_error_prob",
    "average_error",
    "linearization_params",
    "packet_rate",
]

_LN2 = math.log(2.0)
# ln 2 with its leading 32 bits apart (fdlibm's split): e _LN2_HI is exact
# for every double exponent e.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
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
    near gamma = 0.  It is 1.0 from gamma ~ 1e17 on; gamma is taken at
    most 1e154, below where gamma (gamma + 2) overflows (inf / inf), so
    +inf gives the limit 1 too.  NaN or negative gamma raises ValueError.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("dispersion requires gamma >= 0, not NaN")
    g = np.minimum(g, 1e154)
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
    value, so no clamping happens here.  gamma = +inf gives +inf; NaN or
    negative gamma is rejected by dispersion.
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
    gamma = +inf returns the limit 0; NaN or negative gamma raises
    ValueError.
    """
    _check_packet(blocklength, bits)
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("decode_error_prob requires gamma >= 0, not NaN")
    scalar = np.ndim(gamma) == 0
    g = np.atleast_1d(g)
    out = np.ones_like(g)
    pos = g > 0.0
    gp = g[pos]
    arg = np.sqrt(blocklength / dispersion(gp)) * (np.log1p(gp) - bits * _LN2 / blocklength)
    out[pos] = q_func(arg)
    return float(out[0]) if scalar else out


# The ADEP rule is a trapezoid rule in v = ln x on the window where the Q
# argument w(e^v) lies in [-9, t_cut].  By parts, ADEP is the mean of F at
# the SNR where eps falls, whose density in t = w is phi(t): the part below
# t = -9 is at most Q(9) ~ 1.1e-19 < 2^-60 of the total (F increases), and
# above t = 38 at most Q(38) < 1e-315, below any value >= 1e-300 that
# matters.  t_cut <= 38 is set by the share bound of _error_window.
_WINDOW_T = (-9.0, 38.0)
# Fine grid in v on which _error_window places the cut and reads the steepness.
_WINDOW_GRID = 4097
# The lattice step over the width of the integrand (see _error_window): a
# Gaussian sampled at c times its width aliases by 2 exp(-2 pi^2 / c^2),
# 1e-20 at c = 0.65 and below 2^-60 up to c = 0.69.
_LATTICE_C = 0.65
# average_error drops the lattice points above t_cut: their share of the sum
# is at most this, relative, for every rho (see _error_window).
_TAIL_SHARE = 2.0 ** -60
# ln of the largest double: e^(j h) above it is +inf, where every CDF is 1.
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)


def _q_argument(v, blocklength: int, bits: float, positive: bool):
    """(w, dw/dv) at x = e^v: the Q argument of decode_error_prob and its slope in v.

    With V = x (2 + x)/(1 + x)^2 and k = sqrt(M / (x (2 + x))),
    w = k (ln(1+x) - D ln2/M) (1 + x) and dw/dv = k (x - (ln(1+x) - D ln2/M)/(2 + x)),
    which is > 0.  positive says that every v is > 0, and then the same
    is written in y = 1/x = e^-v, which cannot overflow there; otherwise
    every v must be below ~354, where x (2 + x) overflows.  Both keep
    their digits, at x -> 0 and at x -> inf.
    """
    root_m = math.sqrt(blocklength)
    if positive:
        y = np.exp(-v)
        excess = v + np.log1p(y) - bits * _LN2 / blocklength
        one_2y = 1.0 + 2.0 * y
        k = root_m / np.sqrt(one_2y)
        return k * excess * (1.0 + y), k * (1.0 - excess * (y * y) / one_2y)
    x = np.exp(v)
    excess = np.log1p(x) - bits * _LN2 / blocklength
    two_x = 2.0 + x
    k = root_m / np.sqrt(x * two_x)
    return k * excess * (1.0 + x), k * (x - excess / two_x)


@functools.lru_cache(maxsize=16)
def _q_argument_roots(blocklength: int, bits: float) -> tuple[float, float]:
    """v_lo and v_top with w(e^v) = -9 and 38, by bisection in v.

    w(e^v) > sqrt(M) (v - D ln2/M) > 38 at v = D ln2/M + 39, and w < -9 at
    v = -700 unless D/sqrt(M) < ~1e-151 (then v_lo stays at -700).  For
    tiny payloads the window sits near ln(D ln2/M), for large D/M near
    D ln2/M itself.  From v_lo <= 0 on, -9 <= w <= 38 bounds D ln2/M below
    ln2 + 9 and so v_top below 49: a window lies below 354 or above 0.
    """
    roots = []
    for t in _WINDOW_T:
        lo, hi = -700.0, bits * _LN2 / blocklength + 39.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if _q_argument(mid, blocklength, bits, mid > 0.0)[0] > t:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return roots[0], roots[1]


@functools.lru_cache(maxsize=64)
def _error_window(blocklength: int, bits: float, exponent: float):
    """(h, v_lo, steps, h steps): the ADEP lattice step, window start and row steps 0..length-1.

    The window runs from w(e^v) = -9 to t_cut.  h is _LATTICE_C times the
    width of the integrand g(v) F1: the error density g(v) = phi(w) dw/dv
    varies on the scale 1/max dw/dv over the window, the law on sqrt(2/p)
    or wider for the CDF exponent p (the Gamma model of order 2p has ln Y
    with standard deviation 2 sqrt(psi'(2p)) >= sqrt(2/p); the no-CSI
    law, p = 1, is wider), and a product of Gaussians of widths a and b
    has width (a^-2 + b^-2)^(-1/2).  A row of length lattice points from
    the first at or above v_lo reaches past the cut.

    The cut: for a CDF with F(x)/x^p non-increasing and lattice points
    v_j, sum_{j>=k} g_j F_j <= (F_k/x_k^p) sum_{j>=k} g_j e^(p v_j) and
    sum_{j<k} g_j F_j >= (F_k/x_k^p) sum_{j<k} g_j e^(p v_j), whatever
    the scale rho.  t_cut is the first point of a fine grid in v where the
    integral of g e^(pv) from one step h below it is at most _TAIL_SHARE
    times the integral below that, in logs (e^(pv) overflows for large
    p); the lattice sums of that smooth, Gaussian-tailed function follow
    its integrals, and the step of margin covers the offset of any
    lattice.  Where no point qualifies (steep laws, large p), t_cut = 38.
    Cached per (M, D, p).
    """
    _check_packet(blocklength, bits)
    v_lo, v_top = _q_argument_roots(blocklength, bits)
    v = np.linspace(v_lo, v_top, _WINDOW_GRID)
    w, slope = _q_argument(v, blocklength, bits, v_lo > 0.0)
    h = _LATTICE_C / np.sqrt(np.maximum.accumulate(slope) ** 2 + 0.5 * exponent)
    log_terms = np.log(slope) - 0.5 * w * w + exponent * v
    log_head = np.logaddexp.accumulate(log_terms)
    log_tail = np.logaddexp.accumulate(log_terms[::-1])[::-1]
    back = np.searchsorted(v, v - h)
    cut = np.flatnonzero((back > 0) & (log_tail[back] <= log_head[back - 1]
                                       + math.log(_TAIL_SHARE)))
    k = int(cut[0]) if cut.size else v.size - 1
    # h is rounded down to 20 fractional bits, so every h j is exact
    h_cut = math.floor(float(h[k]) * 2.0 ** 20) / 2.0 ** 20
    steps = np.arange(int((v[k] - v_lo) / h_cut) + 2)
    grid = h_cut * steps
    steps.flags.writeable = grid.flags.writeable = False
    return h_cut, v_lo, steps, grid


def average_error(cdf, params, exponent: float):
    """E[decode_error_prob(X, M, D)] per rho, for an SNR X with CDF cdf(x, params) (unclamped).

    M, D and rho are params.blocklength, params.packet_bits and params.rho;
    rho is a float or a 1-D array, and the result a float or one value per
    rho.  cdf must depend on params only through N and snr_scale s (both
    SNR laws do), and exponent is a p with cdf(x)/x^p non-increasing in x
    (the law's channel.cdf_exponent).

    By parts in v = ln x, E[eps(X)] = int g(v) F1(e^v / s) dv, where
    g(v) = phi(w) dw/dv is the density, in closed form, of the v where eps
    falls (w the Q argument of eps) and F1 the unit-scale CDF.  In
    u = v - ln s the scale is a shift, and the trapezoid rule on the
    lattice u_j = j h of _error_window(M, D, p) gives
    E[eps(X)] = h sum_j g(ln s + j h) F1(e^(j h)); for this smooth
    integrand with Gaussian ends it converges exponentially in 1/h.  Row
    k keeps the length lattice points from j_k = ceil((v_lo - ln s_k)/h),
    which cover the window [-9, t_cut] in w, and its weights g_j are
    divided by their sum: h sum_j g_j is 1 up to Q(9) + Q(t_cut) < 2^-60
    and the rounding of the g_j.  F1 = cdf(., _unit_params) is evaluated
    once, on the union of the rows' indices, with no rho in it; only g is
    evaluated per (rho, point), and only on rows where F1 varies: F1 does
    not decrease, so a row whose end values agree is constant and
    averages to that value exactly (0 where F1 underflows on the whole
    row, 1 where it is 1).  A point e^(j h) past the double range is +inf,
    where F1 = 1.  Rows are reduced by numerics._row_sums in blocks of at
    most _BLOCK_DOUBLES doubles, and j_k, g and F1 depend on s_k alone, so
    a value does not depend on the other rho.
    """
    if np.ndim(params.rho) > 1:
        raise ValueError(f"rho must be a float or a 1-D array, got shape {np.shape(params.rho)}")
    m, bits = params.blocklength, params.packet_bits
    h, v_lo, steps, grid = _error_window(m, bits, exponent)
    length = steps.size
    first, shift = _row_starts(params.snr_scale, h, v_lo)
    # the union of the rows' index ranges [first_k, first_k + length), in runs
    runs = []
    for j in sorted(first.tolist()):
        if runs and j <= runs[-1][1]:
            runs[-1][1] = j + length
        else:
            runs.append([j, j + length])
    index = np.concatenate([np.arange(a, b) for a, b in runs])
    log_x = h * index
    if log_x[-1] < _LOG_MAX_DOUBLE:
        x = np.exp(log_x)
    else:
        with np.errstate(over="ignore"):
            x = np.exp(log_x)
    f1 = cdf(x, _unit_params(type(params), params.n_elements))
    offset = np.searchsorted(index, first)
    # a row whose end values agree is constant and averages to that value
    out = f1[offset]
    live = np.nonzero(out != f1[offset + (length - 1)])[0]
    # row k samples g at v = ln s_k + h j_k + h i, i < length, all in the window
    block = max(1, _BLOCK_DOUBLES // length)
    for start in range(0, live.size, block):
        rows = live[start:start + block]
        w, slope = _q_argument(shift[rows, None] + grid, m, bits, v_lo > 0.0)
        g = np.exp(-0.5 * w * w) * slope
        out[rows] = _row_sums(f1[offset[rows, None] + steps], g) / np.add.reduce(g, axis=-1)
    return float(out[0]) if np.ndim(params.rho) == 0 else out


def _row_starts(snr_scale, h: float, v_lo: float):
    """(j_k, v_k) per rho: a row's first index ceil((v_lo - ln s_k)/h) and v_k = ln s_k + h j_k.

    ln s = e ln2 + ln m for s = m 2^e, with e ln2 split at _LN2_HI: e _LN2_HI
    + h j_k is exact (h has at most 20 fractional bits), so v is good to
    ~1e-16 absolute, not to the ulp of ln s (2e-15 at 40 dB), which would
    shift the whole row and move a value by that times its slope in ln s.
    """
    mantissa, exponent = np.frexp(np.array(snr_scale, ndmin=1))
    log_hi = exponent * _LN2_HI
    log_lo = exponent * _LN2_LO + np.log(mantissa)
    first = np.ceil((v_lo - log_hi - log_lo) / h)
    return first, (log_hi + h * first) + log_lo


@functools.lru_cache(maxsize=64)
def _unit_params(cls, n_elements: int):
    """The params of the unit-scale law, rho = alpha = beta = 1, whose snr_scale is exactly 1."""
    return cls(n_elements=n_elements)


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
