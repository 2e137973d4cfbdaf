"""Special-function kernel, fixed Gauss-Legendre rules and adaptive quadrature.

Everything downstream (channel distributions, rate/error metrics) funnels
through this module, so the contracts here are deliberately strict:

  - the standard special functions the link metrics need (digamma,
    regularized incomplete gammas, the Gaussian tail Q and its inverse)
    come from the mature scipy implementations;
  - the generalized hypergeometric pFq is summed here so that it can
    report how many digits its alternating terms cancel;
  - the modified Bessel K is exposed only as the weighted product
    (z/2)^n * K_n(z): the bare factors overflow/underflow pairwise for
    large n, while the product stays moderate.  All density/CDF code
    routes through it, and it raises OverflowError where even the product
    leaves double range.  The small-argument series of K_n lives here
    too, as the complement F_n(q) = 1 - (2/Gamma(n)) q^(n/2) K_n(2 sqrt q):
    the no-CSI CDF uses it where 1 - (...) cancels, and the weighted
    product where scipy's scaled kve overflows;
  - the metric integrals run on fixed composite Gauss-Legendre rules
    (gauss_legendre_panels) built once per rho-free configuration, and
    _dot_per_rho reduces a whole vector of rho on them in row blocks; the
    adaptive Gauss-Kronrod engine (integrate_interval,
    integrate_semi_infinite) remains for the no-CSI ramp integral of the
    CDF and as the tight reference in tests.

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
    "NonConvergenceError",
    "ToleranceError",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "digamma",
    "reg_gamma_lower",
    "reg_gamma_upper",
    "bessel_k_weighted",
    "q_func",
    "q_inv",
    "hyp_pfq",
    "gauss_legendre_panels",
    "integrate_semi_infinite",
    "integrate_interval",
]

EULER_GAMMA = float(np.euler_gamma)

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class NonConvergenceError(RuntimeError):
    """Series summation exceeded its term budget without converging."""


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
        if self.abs_tol < 0.0:
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


def reg_gamma_upper(a, x):
    """Regularized upper incomplete gamma Q(a, x); array-friendly."""
    return sc.gammaincc(a, x)


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


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _raise_overflow(n: int, z: float):
    raise OverflowError(
        f"(z/2)^n K_n(z) at n={n}, z={float(z)!r} overflows double range")


def _product_from_kve(n: int, z: np.ndarray, kve: np.ndarray) -> np.ndarray:
    log_vals = n * np.log(0.5 * z) + np.log(kve) - z
    if log_vals.size and log_vals.max() > _LOG_FLOAT_MAX:
        _raise_overflow(n, z[log_vals.argmax()])
    return np.exp(log_vals)


def bessel_k_weighted(n: int, z) -> np.ndarray | float:
    """(z/2)^n * K_n(z) for integer n >= 0, z >= 0 (z > 0 when n = 0).

    The product stays O(Gamma(n)) for small z where K_n alone overflows,
    and decays like e^-z for large z.  It comes from scipy's scaled kve
    where that is finite; where kve overflows (z = 0, or tiny z < 2 for
    large n) it is Gamma(n)/2 (1 - F_n(z^2/4)) with F_n from the
    small-argument series of K_n, so z = 0 gives the limit Gamma(n)/2 for
    n >= 1.  Past scipy's argument range (z > ~1.07e9) the product
    underflows and 0 is returned.  Raises OverflowError, without a
    RuntimeWarning, where the product leaves double range or scipy's kve
    overflows at z >= 2 (large n).
    """
    if n < 0 or n != int(n):
        raise DomainError(f"bessel_k_weighted requires integer n >= 0, got {n}")
    n = int(n)
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if np.any(z_arr < 0.0) or (n == 0 and np.any(z_arr == 0.0)):
        raise DomainError("bessel_k_weighted requires z >= 0 (z > 0 for n = 0)")

    with np.errstate(over="ignore"):
        kve = sc.kve(n, z_arr)
    finite = np.isfinite(kve)
    if finite.all():
        out = _product_from_kve(n, z_arr, kve)
    else:
        # kve is nan past its argument range (z > ~1.07e9), where the product
        # e^(n ln(z/2) - z) O(1) underflows to 0 for n < ~5e7
        out = np.zeros_like(z_arr)
        out[finite] = _product_from_kve(n, z_arr[finite], kve[finite])
        overflow = np.isinf(kve)
        if overflow.any():
            z_small = z_arr[overflow]
            if z_small.max() >= 2.0 or math.lgamma(n) > _LOG_FLOAT_MAX:
                _raise_overflow(n, z_small[-1])
            out[overflow] = 0.5 * math.exp(math.lgamma(n)) * (
                1.0 - _bessel_k_cdf_series(n, 0.25 * z_small * z_small))
    return float(out[0]) if scalar else out


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
# generalized hypergeometric pFq
# ---------------------------------------------------------------------------

_PFQ_REL_TOL = 1e-15
_PFQ_MAX_TERMS = 10 ** 6


def hyp_pfq(a_list, b_list, z: float, *, with_cancellation: bool = False):
    """Generalized hypergeometric pFq(a_list; b_list; z) by term-ratio summation.

    term_{k+1} = term_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1)

    Stops once |term| / |partial sum| < 1e-15 for two consecutive terms
    (a single small term can be an accidental sign-change zero); raises
    NonConvergenceError after 10^6 terms.

    with_cancellation=True returns (value, max|term| / |sum|): the sum
    keeps about 16 - log10 of that ratio significant digits.
    """
    a = [float(v) for v in a_list]
    b = [float(v) for v in b_list]
    for bj in b:
        if bj <= 0.0 and bj == int(bj):
            raise DomainError(f"pFq pole: b parameter {bj} is a nonpositive integer")
    total = 1.0
    largest = 1.0
    if z != 0.0:
        term = 1.0
        small_streak = 0
        for k in range(_PFQ_MAX_TERMS):
            num = 1.0
            for ai in a:
                num *= ai + k
            den = 1.0
            for bj in b:
                den *= bj + k
            term *= num / den * z / (k + 1.0)
            total += term
            mag = abs(term)
            if mag > largest:
                largest = mag
            if mag < _PFQ_REL_TOL * abs(total):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
                if term == 0.0:
                    break
        else:
            raise NonConvergenceError(
                f"pFq({a_list}; {b_list}; {z}) did not converge within {_PFQ_MAX_TERMS} terms"
            )
    if not with_cancellation:
        return total
    return total, (largest / abs(total) if total != 0.0 else math.inf)


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


def _dot_per_rho(w: np.ndarray, grid, rho):
    """np.dot(w, row) for each row of grid(rho[:, None]), one value per rho.

    rho is a float or a 1-D array; grid maps a column of rho values to
    their rows of len(w) values.  It is called once per block of at most
    _BLOCK_DOUBLES // len(w) rows (at least one), and each row is reduced
    on its own, so every value depends only on its rho; a float rho gives
    the float of the one-row case.
    """
    if np.ndim(rho) > 1:
        raise ValueError(f"rho must be a float or a 1-D array, got shape {np.shape(rho)}")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.empty(rho_arr.shape)
    step = max(1, _BLOCK_DOUBLES // w.size)
    for start in range(0, rho_arr.size, step):
        rows = grid(rho_arr[start:start + step, None])
        for i, row in enumerate(rows, start):
            out[i] = np.dot(w, row)
    return float(out[0]) if np.ndim(rho) == 0 else out


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
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: returns (integral, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid + half * _XGK
    vals = np.asarray(f(nodes), dtype=float)
    resk = half * float(np.dot(_WGK, vals))
    resg = half * float(np.dot(_WG, vals[_GAUSS_IDX]))
    # QUADPACK-style scaled error estimate
    mean = resk / (b - a) if b != a else 0.0
    resasc = half * float(np.dot(_WGK, np.abs(vals - mean)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def _adaptive(f, panels: list[tuple[float, float]], spec: QuadratureSpec) -> tuple[float, float]:
    """Refine the given panels until the summed error meets the tolerance."""
    heap: list[tuple[float, int, float, float, float, float]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for a, b in panels:
        if a == b:
            continue
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
        total += val
        total_err += err
    splits = 0
    while heap and total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if splits >= spec.max_subdivisions:
            raise ToleranceError("quadrature tolerance not met", total, total_err)
        neg_err, _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # panel at floating-point resolution; accept its estimate
            total_err -= err
            continue
        lv, le = _gk15(f, a, mid)
        rv, re = _gk15(f, mid, b)
        total += (lv + rv) - val
        total_err += (le + re) - err
        heapq.heappush(heap, (-le, counter, a, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re, counter, mid, b, rv, re))
        counter += 1
        splits += 1
    return total, total_err


def integrate_interval(f, lo: float, hi: float,
                       spec: QuadratureSpec | None = None) -> float:
    """Adaptive integral of f over the finite interval [lo, hi].

    f must accept an ndarray of abscissae and return an ndarray of values;
    endpoints are never evaluated, so integrable endpoint singularities
    are tolerated.
    """
    spec = spec or DEFAULT_QUADRATURE
    if hi < lo:
        raise DomainError(f"integrate_interval requires hi >= lo, got [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    total, err = _adaptive(f, [(float(lo), float(hi))], spec)
    if err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        raise ToleranceError("interval quadrature tolerance not met", total, err)
    return total


_SCAN_GRID = np.geomspace(1e-12, 1e15, 271)


def integrate_semi_infinite(f, spec: QuadratureSpec | None = None) -> float:
    """Adaptive integral of f over [0, inf) for decaying integrands.

    The peak of |f| is located on a geometric scan grid, the tail is
    truncated where the scanned magnitude stays below 1e-16 of the
    peak, and the remaining range is compactified with x = c t/(1-t)
    before adaptive Gauss-Kronrod subdivision.  Deterministic for fixed
    inputs.  f must accept ndarray abscissae.
    """
    spec = spec or DEFAULT_QUADRATURE
    with np.errstate(all="ignore"):
        scan = np.abs(np.asarray(f(_SCAN_GRID), dtype=float))
    scan = np.where(np.isfinite(scan), scan, np.inf)
    if np.any(np.isinf(scan)):
        # non-finite interior values come from genuine singularities mid-range;
        # the link-metric integrands only diverge at 0, which the scan skips
        bad = _SCAN_GRID[np.isinf(scan)][0]
        raise DomainError(f"integrand not finite at x={bad}")
    peak = float(scan.max())
    if peak == 0.0:
        return 0.0
    i_peak = int(scan.argmax())
    x_peak = float(_SCAN_GRID[i_peak])

    # truncation point: first grid point past the peak with the whole
    # remaining scanned tail below cutoff
    below = scan <= _TAIL_CUTOFF * peak
    upper = None
    for i in range(i_peak + 1, len(scan)):
        if below[i:].all():
            upper = float(_SCAN_GRID[i])
            break
    if upper is None:
        raise ToleranceError(
            "integrand tail not below cutoff by x=1e15; cannot truncate", 0.0, math.inf
        )

    scale = min(max(x_peak, 1e-6), 1e12)

    def to_t(x: float) -> float:
        return x / (x + scale)

    def g(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = scale * t / (1.0 - t)
        return np.asarray(f(x), dtype=float) * scale / (1.0 - t) ** 2

    # initial panel edges: decade marks up to the truncation point, so the
    # peak region and any integrable singularity at 0 start well bracketed
    decades = [10.0 ** e for e in range(-12, 16)]
    edges_x = [0.0] + [d for d in decades if d < upper] + [upper]
    edges_t = [to_t(x) for x in edges_x]
    panels = [(edges_t[i], edges_t[i + 1]) for i in range(len(edges_t) - 1)]

    total, err = _adaptive(g, panels, spec)
    if err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        raise ToleranceError("semi-infinite quadrature tolerance not met", total, err)
    return total
