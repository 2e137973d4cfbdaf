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
    leaves double range;
  - the metric integrals run on fixed composite Gauss-Legendre rules
    (gauss_legendre_panels) built once per rho-free configuration; the
    adaptive Gauss-Kronrod engine (integrate_interval,
    integrate_semi_infinite) remains for the ramp moment integral and as
    the tight reference in tests.

All functions are pure and thread-safe; array inputs are supported where
noted.  Angles, tolerances and counts are plain floats/ints.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget knobs for the adaptive quadrature engine.

    tail_cutoff is the fraction of the integrand peak below which the
    far tail is truncated when integrating over [0, inf).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    tail_cutoff: float = 1e-16

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise DomainError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")
        if not 0.0 < self.tail_cutoff < 1.0:
            raise DomainError(f"tail_cutoff must be in (0, 1), got {self.tail_cutoff}")


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

def _bessel_k_weighted_series(n: int, z: np.ndarray) -> np.ndarray:
    """Small-z series for (z/2)^n K_n(z), n >= 1.

    Sums the terminating part 0.5 * sum_{k=0}^{n-1} (-1)^k (n-k-1)!/k! (z/2)^(2k);
    the remainder is O((z/2)^(2n) log z) and negligible in the z range where
    this branch is taken (where the scaled Bessel overflows).
    """
    q = 0.25 * z * z  # (z/2)^2
    term = np.full_like(q, 0.5 * math.exp(math.lgamma(n)))
    total = term.copy()
    for k in range(1, n):
        term = term * (-q) / (k * (n - k))
        total = total + term
        if np.all(np.abs(term) < 1e-25 * np.abs(total)):
            break
    return total


_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _raise_overflow(n: int, z: float):
    raise OverflowError(
        f"(z/2)^n K_n(z) at n={n}, z={float(z)!r} overflows double range")


def _product_from_kve(n: int, z: np.ndarray, kve: np.ndarray) -> np.ndarray:
    log_vals = n * np.log(0.5 * z) + np.log(kve) - z
    if log_vals.size and log_vals.max() > _LOG_FLOAT_MAX:
        _raise_overflow(n, z[log_vals.argmax()])
    return np.exp(log_vals)


def _bessel_k_weighted_positive(n: int, z: np.ndarray) -> np.ndarray:
    """(z/2)^n K_n(z) for z > 0, from scipy's scaled kve where it is finite."""
    with np.errstate(over="ignore"):
        kve = sc.kve(n, z)
    finite = np.isfinite(kve)
    if finite.all():
        return _product_from_kve(n, z, kve)
    vals = np.empty_like(z)
    if finite.any():
        vals[finite] = _product_from_kve(n, z[finite], kve[finite])
    overflow = np.isinf(kve)
    if np.any(overflow & (z >= 2.0)) or (overflow.any() and math.lgamma(n) > _LOG_FLOAT_MAX):
        _raise_overflow(n, z[overflow][-1])
    if overflow.any():
        # kve overflow at z < 2: only happens for tiny z with large n
        vals[overflow] = _bessel_k_weighted_series(n, z[overflow])
    huge = np.isnan(kve)
    if huge.any():
        # beyond the library's argument range (z > ~1e9); the e^-z factor
        # drives the product to zero, so the leading asymptotic suffices
        zh = z[huge]
        vals[huge] = np.exp(n * np.log(0.5 * zh) + 0.5 * np.log(np.pi / (2.0 * zh)) - zh)
    return vals


def bessel_k_weighted(n: int, z) -> np.ndarray | float:
    """(z/2)^n * K_n(z) for integer n >= 0, z >= 0 (z > 0 when n = 0).

    The product stays O(Gamma(n)) for small z where K_n alone overflows,
    and decays like e^-z for large z.  At z = 0 the limit Gamma(n)/2 is
    returned for n >= 1.  Past scipy's argument range (z > ~1e9) the
    leading large-z asymptote is used.  Raises OverflowError, without a
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

    zero = z_arr == 0.0
    if not zero.any():
        out = _bessel_k_weighted_positive(n, z_arr)
    else:
        out = np.full_like(z_arr, 0.5 * math.exp(math.lgamma(n)))
        if not zero.all():
            out[~zero] = _bessel_k_weighted_positive(n, z_arr[~zero])
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

def hyp_pfq(a_list, b_list, z: float, rel_tol: float = 1e-15,
            max_terms: int = 10 ** 6, *, with_cancellation: bool = False):
    """Generalized hypergeometric pFq(a_list; b_list; z) by term-ratio summation.

    term_{k+1} = term_k * prod(a_i + k) / prod(b_j + k) * z / (k + 1)

    Stops once |term| / |partial sum| < rel_tol for two consecutive terms
    (a single small term can be an accidental sign-change zero).

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
        for k in range(max_terms):
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
            if mag < rel_tol * abs(total):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
                if term == 0.0:
                    break
        else:
            raise NonConvergenceError(
                f"pFq({a_list}; {b_list}; {z}) did not converge within {max_terms} terms"
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
    truncated where the scanned magnitude stays below tail_cutoff times
    the peak, and the remaining range is compactified with x = c t/(1-t)
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
    below = scan <= spec.tail_cutoff * peak
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
