"""Special-function kernel, fixed Gauss-Legendre rules and adaptive quadrature.

Everything downstream (channel distributions, rate/error metrics) funnels
through this module, so the contracts here are deliberately strict:

  - the standard special functions the link metrics need (digamma, the
    regularized lower incomplete gamma, the Gaussian tail Q and its
    inverse) come from the mature scipy implementations, as does the
    confluent 1F1 pair of the CSI error tail, which metrics_csi calls
    from scipy directly;
  - the modified Bessel K enters only through the no-CSI K-law
    F_n(q) = 1 - (2/Gamma(n)) q^(n/2) K_n(2 sqrt q) and its survival
    (_k_law): the small-argument series of K_n where 1 - (...) cancels,
    above it e^z K_n(z) by the upward integer-order recurrence from
    scipy's k0e and k1e (_bessel_k_scaled), assembled in log space so the
    pairwise overflow of q^(n/2) and K_n never shows.  The no-CSI CDF is
    F_N, and by A&S 9.6.28 its density is b/(N-1) times the survival one
    order down;
  - the ADR integrals run on fixed composite Gauss-Legendre rules
    (gauss_legendre_panels) built once per rho-free configuration, and
    _dot_per_rho reduces a whole vector of rho on them in row blocks
    (_per_rho maps the closed forms' float formulas over such a vector);
    the adaptive Gauss-Kronrod engine (integrate_interval,
    integrate_semi_infinite) remains for the no-CSI ramp integral of the
    CDF, which integrate_interval takes as one family of integrands per
    curve (one row per rho), and as the tight reference in tests; every
    list of its panels (a family's first panel, a split's two halves, the
    initial decades) is one integrand call and one _gk15_rows reduction;
  - every weighted sum, of a rule block and of a Gauss-Kronrod panel, is
    one _row_sums over its rows: numpy's pairwise sum along the last
    axis, so a row's value is bit for bit that of the row on its own and
    a curve's values do not depend on the other points of the curve.

All functions are pure and thread-safe; array inputs are supported where
noted.  Angles, tolerances and counts are plain floats/ints.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

__all__ = [
    "DomainError",
    "ToleranceError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "digamma",
    "reg_gamma_lower",
    "q_func",
    "q_inv",
    "gauss_legendre_panels",
    "integrate_semi_infinite",
    "integrate_interval",
]

EULER_GAMMA = float(np.euler_gamma)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_DOUBLE_MAX = float(np.finfo(float).max)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ToleranceError(RuntimeError):
    """Quadrature could not reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate={estimate!r}, error_bound={error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound


# Fraction of the peak below which a decaying tail is cut off, both by
# integrate_semi_infinite and by the fixed log-y rules of the SNR laws.
_TAIL_CUTOFF = 1e-16

# Doubles in one batched block (64 KiB, well inside a 2 MB L2): the
# rule-based metrics evaluate their (rho, node) grids in row blocks of this
# size (_dot_per_rho), and the K_n series builds its (terms, elements)
# powers in chunks of it (and their three weighted copies, 3x that), so an
# 81-point curve's temporaries stay under 1 MiB.
_BLOCK_DOUBLES = 2 ** 13


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for the adaptive quadrature engine."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.abs_tol >= 0.0:
            raise DomainError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# gamma-family special functions
# ---------------------------------------------------------------------------

def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0.

    For integer N this equals -euler_gamma + sum_{k=1}^{N-1} 1/k.
    """
    if not np.all(np.asarray(x) > 0.0):
        raise DomainError(f"digamma requires x > 0, got {x}")
    return sc.digamma(x)


def reg_gamma_lower(a, x):
    """Regularized lower incomplete gamma P(a, x); array-friendly."""
    return sc.gammainc(a, x)


# ---------------------------------------------------------------------------
# modified Bessel functions of the second kind
# ---------------------------------------------------------------------------

# Terms of the small-argument series of K_n; their ratio is at most 1/2
# where the series is used (q <= n/4), so 60 terms reach 1e-18.
_SERIES_TERMS = 60
_LOG_SERIES_TOL = math.log(1e-18)
_SERIES_K_MINUS_1 = (np.arange(_SERIES_TERMS) - 1.0)[:, None]
# Orders whose series coefficients are cached: Gamma(n) is finite up to 171.
_SERIES_MAX_ORDER = 171


@functools.lru_cache(maxsize=_SERIES_MAX_ORDER)
def _k_series_coefficients(n: int) -> np.ndarray:
    """Rows c_k, d_k, e_k (k = 0.._SERIES_TERMS-1) of the K_n series in q.

    c_k = (-1)^(k+1) (n-k-1)! / ((n-1)! k!) for 1 <= k <= n-1, else 0;
    d_k = n! / (k! (n+k)!);  e_k = -d_k (psi(k+1) + psi(n+k+1)).
    """
    coef = np.zeros((3, _SERIES_TERMS))
    c = 1.0 / max(n - 1.0, 1.0)
    d = 1.0
    harm_k, harm_nk = 0.0, math.fsum(1.0 / j for j in range(1, n + 1))
    for k in range(_SERIES_TERMS):
        if 1 <= k <= n - 1:
            coef[0, k] = c
            if k < n - 1:
                c = -c / ((k + 1.0) * (n - k - 1.0))
        coef[1, k] = d
        coef[2, k] = d * (2.0 * EULER_GAMMA - harm_k - harm_nk)
        d /= (k + 1.0) * (n + k + 1.0)
        harm_k += 1.0 / (k + 1.0)
        harm_nk += 1.0 / (n + k + 1.0)
    coef.flags.writeable = False
    return coef


def _bessel_k_cdf_series(n: int, q: np.ndarray) -> np.ndarray:
    """F_n(q) = 1 - (2/Gamma(n)) q^(n/2) K_n(2 sqrt q) for n >= 1, 0 <= q <= n/4.

    Inserting A&S 9.6.11 for K_n(2 sqrt(q)) cancels the leading 1
    analytically and leaves

      sum_{k=1}^{n-1} c_k q^k
      + (-1)^n q^n / ((n-1)! n!) sum_{k>=0} (d_k ln q + e_k) q^k

    (coefficients in _k_series_coefficients).  For q <= n/4 the
    terms of both sums shrink by a factor r = q/(n-1) <= 1/2 each; the first
    sum alternates and the second keeps one sign, so F_n keeps its relative
    digits down to ~1e-300.  F_n(0) = 0 exactly.  q is a 1-D array.

    Each element keeps the terms its own r needs for 1e-18: k - 1 <= y with
    y = ln(1e-18) / ln(r), int(y) + 2 terms (at most 60).  Its powers q^k
    fill one column of a (terms, elements) array, zero past its own count,
    and each sum adds that column's terms in order of k.  So an element's
    value depends on its q alone, not on the other elements of the call.
    Elements are taken in chunks whose powers fill at most _BLOCK_DOUBLES
    doubles, grouped by term count where there is more than one chunk.
    """
    # ln q, finite at q = 0 (whose value q^n (...) is 0 either way)
    log_q = np.log(np.maximum(q, 5e-324))
    y = _LOG_SERIES_TOL / (log_q - math.log(max(n - 1.0, 1.0)))
    if q.size * _SERIES_TERMS > _BLOCK_DOUBLES:
        order = np.argsort(y.astype(np.int8), kind="stable")
    else:
        order = np.arange(q.size)
    coef = _k_series_coefficients(n)
    lead = math.exp(-math.lgamma(n) - math.lgamma(n + 1.0))
    if n % 2:
        lead = -lead
    out = np.empty_like(q)
    start = 0
    while start < q.size:
        stop = min(q.size, start + _BLOCK_DOUBLES // _series_top(y[order[start]]))
        stop = min(stop, start + _BLOCK_DOUBLES // _series_top(y[order[stop - 1]]))
        # numpy adds up a one-column array pairwise, not in order of k: use two
        idx = order[start:stop] if stop - start > 1 else order[[start, start]]
        q_idx, y_idx = q[idx], y[idx]
        top = _series_top(y_idx.max())
        powers = np.where(_SERIES_K_MINUS_1[:top] <= y_idx, q_idx, 0.0)
        powers[0] = 1.0
        np.cumprod(powers, axis=0, out=powers)
        finite, sum_d, sum_e = np.add.reduce(coef[:, :top, None] * powers, axis=1)
        out[idx] = finite + q_idx ** n * lead * (log_q[idx] * sum_d + sum_e)
        start = stop
    return out


def _series_top(y: float) -> int:
    """Terms of the K_n series an element with that y keeps: min(60, int(y) + 2)."""
    return min(_SERIES_TERMS, int(y) + 2)


def _bessel_k_scaled(n: int, z: np.ndarray) -> np.ndarray:
    """e^z K_n(z) for integer n >= 1 and a 1-D array of z > 0.

    Upward recurrence K_{m+1} = K_{m-1} + (2m/z) K_m (A&S 9.6.26), which
    is stable for K, from scipy's scaled k0e and k1e (k1e alone for n = 1);
    the scaled values obey the same recurrence.
    """
    k = sc.k1e(z)
    if n == 1:
        return k
    k_prev = sc.k0e(z)
    step = np.empty_like(z)
    # positional out arguments: on short arrays the call overhead is the cost
    for m in range(1, n):
        np.divide(k, z, step)
        np.multiply(step, 2.0 * m, step)
        np.add(k_prev, step, k_prev)
        k_prev, k = k, k_prev
    return k


def _k_law(n: int, q: np.ndarray, survival: bool = False) -> np.ndarray:
    """F_n(q) = 1 - (2/Gamma(n)) q^(n/2) K_n(2 sqrt q), or 1 - F_n(q) with survival.

    For 1 <= n <= 169 and q >= 0 (+inf included), an array of any shape;
    the caller checks n.  Up to q = n/4, where F_n < ~0.4, the value comes
    from the small-argument series (_bessel_k_cdf_series); above it the
    tail (2/Gamma(n)) (z/2)^n K_n(z), z = 2 sqrt q > sqrt n, is assembled in
    log space from the scaled K_n of _bessel_k_scaled, is the survival
    itself, and underflows to 0 far below q = 1e308; q = +inf is taken as
    the largest double, so its tail is that 0 and no inf - inf arises.
    """
    small = q <= 0.25 * n
    out = np.empty_like(q)
    if not small.all():
        z = 2.0 * np.sqrt(np.minimum(q[~small], _DOUBLE_MAX))
        tail = 2.0 * math.exp(-math.lgamma(n)) * np.exp(
            n * np.log(0.5 * z) + np.log(_bessel_k_scaled(n, z)) - z)
        out[~small] = tail if survival else 1.0 - tail
    if small.any():
        cdf = _bessel_k_cdf_series(n, q[small])
        out[small] = 1.0 - cdf if survival else cdf
    return out


# ---------------------------------------------------------------------------
# Gaussian tail functions
# ---------------------------------------------------------------------------

def q_func(x):
    """Gaussian tail Q(x) = 0.5 * erfc(x / sqrt(2)); array-friendly."""
    return 0.5 * sc.erfc(np.asarray(x, dtype=float) / _SQRT2)


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1).

    Seeded from the inverse complementary error function, then polished
    with two Newton steps so the round trip holds deep in the tail.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"q_inv requires 0 < p < 1, got {p}")
    x = _SQRT2 * float(sc.erfcinv(2.0 * p))
    for _ in range(2):
        pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
        if pdf == 0.0:
            break
        x += (float(q_func(x)) - p) / pdf
    return x


# ---------------------------------------------------------------------------
# fixed composite Gauss-Legendre rules
# ---------------------------------------------------------------------------

def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the order-point rule on [-1, 1].

    Newton iteration on P_order from the Tricomi starting values; no linear
    algebra, so no LAPACK workspace is mapped in.
    """
    k = np.arange(order, 0, -1)
    x = np.cos(np.pi * (k - 0.25) / (order + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, order + 1):
            p_prev, p = p, ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j
        slope = order * (x * p - p_prev) / (x * x - 1.0)
        step = p / slope
        x -= step
        if np.max(np.abs(step)) < 1e-16:
            break
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def gauss_legendre_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an order-point Gauss-Legendre rule on each panel.

    edges is an increasing sequence of panel boundaries; the result
    integrates sum(w * f(x)) over [edges[0], edges[-1]], exactly for
    polynomials of degree 2 * order - 1 on every panel.  Nodes ascend.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise DomainError("gauss_legendre_panels requires increasing panel edges")
    if order < 1:
        raise DomainError(f"gauss_legendre_panels requires order >= 1, got {order}")
    x, w = _gauss_legendre(order)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _row_sums(rows: np.ndarray, w: np.ndarray):
    """sum_j rows[..., j] w[j] for each row: one value per row, or a float64 for a 1-D row.

    numpy adds up the products along their contiguous last axis pairwise
    (a short loop below 8 terms, 8 partial sums up to 128, halves above),
    a summation order fixed by the row length alone: so each row's sum is
    bit for bit that of the row on its own, whatever the other rows.  The
    products are laid out in C order for that, whatever the layout of
    rows; a matrix product or BLAS dot would not guarantee the order.
    """
    return np.add.reduce(np.multiply(rows, w, order="C"), axis=-1)


def _dot_per_rho(w: np.ndarray, grid, rho):
    """The weighted sum of each row of grid(rho[:, None]) with w, one value per rho.

    rho is a float or a 1-D array; grid maps a column of rho values to
    their rows of len(w) values.  It is called once per block of at most
    _BLOCK_DOUBLES // len(w) rows (at least one), and each block is reduced
    by one _row_sums, whose row values depend only on their own row: so
    every value depends only on its rho, and a float rho gives the float
    of the one-row case.
    """
    if np.ndim(rho) > 1:
        raise ValueError(f"rho must be a float or a 1-D array, got shape {np.shape(rho)}")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.empty(rho_arr.shape)
    step = max(1, _BLOCK_DOUBLES // w.size)
    for start in range(0, rho_arr.size, step):
        out[start:start + step] = _row_sums(grid(rho_arr[start:start + step, None]), w)
    return float(out[0]) if np.ndim(rho) == 0 else out


def _per_rho(formula, rho):
    """formula(r) at the float rho, or one value per element r of the 1-D array rho.

    The closed forms and asymptotes are a few float operations per rho, so
    a curve maps them in float arithmetic rather than through numpy, whose
    fixed cost per call outweighs them on short curves, and whose exp and
    log round differently from math's in the last bit for a few percent of
    arguments: a curve's values are bit for bit those of its scalar calls.
    A float rho raises what formula raises; in an array, a rho where
    formula overflows (math.exp raises) gets inf, so that rho fails alone.
    """
    if np.ndim(rho) == 0:
        return formula(float(rho))

    def one(r):
        try:
            return formula(r)
        except OverflowError:
            return math.inf

    return np.array([one(r) for r in rho.tolist()])


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod rule with embedded 7-point Gauss rule (nodes on [-1, 1]).
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# The embedded 7-point Gauss weights, on the Kronrod nodes: 0 at the other 8.
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0, 0.381830050505119, 0.0,
    0.417959183673469,
    0.0, 0.381830050505119, 0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])


def _gk15_panels(f, a: np.ndarray, b: np.ndarray):
    """(integrals, error estimates) of the panels [a_j, b_j] from one call of f.

    a and b are 1-D arrays of the P panels' bounds.  f gets their 15 P
    Kronrod abscissae as one flat array, panel after panel, and returns
    their values, or a (k, 15 P) array of them for a family of k
    integrands; the pairs come back with shape (P,), or (k, P).  A value
    that is not finite raises DomainError naming its abscissa.
    """
    x = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _XGK
    vals = np.asarray(f(x.ravel()), dtype=float)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = x.ravel()[np.argwhere(~finite)[0, -1]]
        raise DomainError(f"integrand not finite at x={bad}")
    return _gk15_rows(vals.reshape(vals.shape[:-1] + x.shape), a, b)


def _gk15_rows(vals: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(integrals, error estimates) of the panels [a_j, b_j], one per row of the (..., P, 15) values.

    a_j < b_j.  Every sum is a _row_sums, so each row's pair depends only
    on that row and its panel.  The error estimate is QUADPACK's: |K - G|
    scaled by resasc, the Kronrod sum of |f - mean|, as resasc min(1, r^1.5)
    with r = 200 |K - G| / resasc; a row whose resasc is 0 (a constant row
    whose mean is exact, such as zeros) keeps |K - G|, and its 0/0 or x/0
    is discarded without a warning.  r^1.5 is taken as r sqrt(r), which
    numpy rounds correctly.
    """
    width = b - a
    half = 0.5 * width
    resk = half * _row_sums(vals, _WGK)
    resg = half * _row_sums(vals, _WG)
    mean = resk / width
    resasc = half * _row_sums(np.abs(vals - mean[..., None]), _WGK)
    err = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = 200.0 * err / resasc
        scaled = resasc * np.minimum(1.0, ratio * np.sqrt(ratio))
    return resk, np.where(resasc != 0.0, scaled, err)


def _error_bound(spec: QuadratureSpec, total):
    """The error a total may carry, max(abs_tol, rel_tol |total|); per element of an array."""
    return np.maximum(spec.abs_tol, spec.rel_tol * abs(total))


def _adaptive(f, panels, spec: QuadratureSpec) -> float:
    """The sum of the panels (a, b, integral, error), refined until its error meets the tolerance.

    Each split evaluates both halves of the panel of largest error in one
    call of f (30 abscissae); ToleranceError when the splits run out.
    """
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for a, b, val, err in panels:
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        total += val
        total_err += err
    splits = 0
    while total_err > _error_bound(spec, total):
        if not heap or splits >= spec.max_subdivisions:
            raise ToleranceError("quadrature tolerance not met", total, total_err)
        _, _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel at floating-point resolution; accept its estimate
            total_err -= err
            continue
        vals, errs = _gk15_panels(f, np.array([a, mid]), np.array([mid, b]))
        (lv, rv), (le, re) = vals.tolist(), errs.tolist()
        total += (lv + rv) - val
        total_err += (le + re) - err
        heapq.heappush(heap, (-le, counter, a, mid, lv, le))
        heapq.heappush(heap, (-re, counter + 1, mid, b, rv, re))
        counter += 2
        splits += 1
    return total


def integrate_interval(f, lo: float, hi: float, spec: QuadratureSpec | None = None):
    """Adaptive integral of f over the finite interval [lo, hi].

    f must accept an ndarray of abscissae and return an ndarray of values,
    or a (k, len(x)) array of them, one row per integrand of a family; then
    f(x, i) must return row i alone, and the result is an array of the k
    integrals.  The first Gauss-Kronrod panel on [lo, hi] is evaluated and
    reduced once for every row (_gk15_panels); a row whose panel meets the
    tolerance takes it, and only the other rows are refined, each alone
    from its panel, on f(x, i).  A row's panel sums depend only on that
    row, so its integral is bit for bit that of a 1-D call on its
    integrand, which is the one-row case.  Endpoints are never evaluated,
    so integrable endpoint singularities are tolerated.  For hi == lo the
    result is 0.0, or k zeros for a family, whose k is read from f at an
    empty array of abscissae.  A bound or a value of f that is not finite
    raises DomainError.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integrate_interval requires finite bounds, got [{lo}, {hi}]")
    if hi < lo:
        raise DomainError(f"integrate_interval requires hi >= lo, got [{lo}, {hi}]")
    if hi == lo:
        zeros = np.zeros(np.shape(f(np.empty(0)))[:-1])
        return float(zeros) if zeros.ndim == 0 else zeros
    lo, hi = float(lo), float(hi)
    totals, errs = _gk15_panels(f, np.array([lo]), np.array([hi]))
    family = totals.ndim == 2
    totals, errs = totals.reshape(-1), errs.reshape(-1)
    for i in np.flatnonzero(errs > _error_bound(spec, totals)).tolist():
        row_f = (lambda x, i=i: f(x, i)) if family else f
        totals[i] = _adaptive(row_f, [(lo, hi, float(totals[i]), float(errs[i]))], spec)
    return totals if family else float(totals[0])


_SCAN_GRID = np.geomspace(1e-12, 1e15, 271)


def integrate_semi_infinite(f, spec: QuadratureSpec | None = None) -> float:
    """Adaptive integral of f over [0, inf) for decaying integrands.

    The peak of |f| is located on a geometric scan grid, the tail is
    truncated where the scanned magnitude stays below 1e-16 of the
    peak, and the remaining range is compactified with x = c t/(1-t)
    before adaptive Gauss-Kronrod subdivision from one panel per decade.
    Deterministic for fixed inputs.  f must accept ndarray abscissae; a
    value that is not finite, on the scan or at a node, raises DomainError.
    """
    spec = spec or DEFAULT_QUADRATURE
    with np.errstate(all="ignore"):
        scan = np.abs(np.asarray(f(_SCAN_GRID), dtype=float))
    if not np.isfinite(scan).all():
        # non-finite interior values come from genuine singularities mid-range;
        # the link-metric integrands only diverge at 0, which the scan skips
        bad = _SCAN_GRID[~np.isfinite(scan)][0]
        raise DomainError(f"integrand not finite at x={bad}")
    peak = float(scan.max())
    if peak == 0.0:
        return 0.0
    x_peak = float(_SCAN_GRID[scan.argmax()])

    # truncation point: the grid point after the last scanned magnitude
    # above cutoff, which is at or past the peak
    stop = int(np.flatnonzero(scan > _TAIL_CUTOFF * peak)[-1]) + 1
    if stop == scan.size:
        raise ToleranceError(
            "integrand tail not below cutoff by x=1e15; cannot truncate", 0.0, math.inf
        )
    upper = float(_SCAN_GRID[stop])
    scale = min(max(x_peak, 1e-6), 1e12)

    def g(t: np.ndarray) -> np.ndarray:
        x = scale * t / (1.0 - t)
        return np.asarray(f(x), dtype=float) * scale / (1.0 - t) ** 2

    # initial panel edges: decade marks up to the truncation point, so the
    # peak region and any integrable singularity at 0 start well bracketed;
    # all of their panels are evaluated in one call
    decades = [10.0 ** e for e in range(-12, 16)]
    edges_x = np.array([0.0] + [d for d in decades if d < upper] + [upper])
    edges_t = edges_x / (edges_x + scale)
    distinct = edges_t[:-1] != edges_t[1:]
    a, b = edges_t[:-1][distinct], edges_t[1:][distinct]
    vals, errs = _gk15_panels(g, a, b)
    return _adaptive(g, zip(a.tolist(), b.tolist(), vals.tolist(), errs.tolist()), spec)
