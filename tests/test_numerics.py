"""Special-function and quadrature contracts.

Frozen expected values were produced by independent oracles (mpmath
quadrature of integral definitions, bisection)
and are cross-checked in-test where cheap.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sc

from irslink import numerics as nx
from irslink.channel import SystemParams, snr_cdf_nocsi, snr_pdf_nocsi
from irslink.numerics import (
    DomainError,
    QuadratureSpec,
    ToleranceError,
)

# mpmath oracle values (quadrature of the defining integrals / bisection)
DIGAMMA_5 = 1.5061176684318005
QINV_1E8 = 5.6120012441747887


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------

def test_digamma_one_is_minus_euler():
    assert abs(nx.digamma(1.0) + nx.EULER_GAMMA) < 1e-14


def test_digamma_harmonic_identity():
    # psi(N) = -g0 + sum_{k<N} 1/k, checked directly for several N
    for n in (2, 5, 17, 40):
        harm = sum(1.0 / k for k in range(1, n))
        assert abs(nx.digamma(float(n)) - (-nx.EULER_GAMMA + harm)) < 1e-12
    assert abs(nx.digamma(5.0) - DIGAMMA_5) < 1e-12


def test_digamma_recurrence():
    x = 3.7
    assert abs((nx.digamma(x + 1.0) - nx.digamma(x)) - 1.0 / x) < 1e-12


def test_digamma_domain():
    with pytest.raises(DomainError):
        nx.digamma(0.0)


# ---------------------------------------------------------------------------
# Bessel K
# ---------------------------------------------------------------------------

# The K-law F_n(q) = 1 - (2/Gamma(n)) q^(n/2) K_n(2 sqrt q) carries the weighted
# Bessel product (z/2)^n K_n(z), z = 2 sqrt q, in its survival 1 - F_n.

def _survival(n, q):
    return float(nx._k_law(n, np.array([q]), survival=True)[0])


def test_bessel_k_weighted_matches_direct():
    for n in (1, 3, 10, 40):
        for z in (1e-3, 0.5, 3.0, 30.0):
            q = 0.25 * z * z
            expect = 2.0 / math.gamma(n) * (z / 2.0) ** n * float(sc.kv(n, z))
            surv, cdf = _survival(n, q), float(nx._k_law(n, np.array([q]))[0])
            assert abs(surv - expect) <= 1e-11 * expect
            # each branch computes one of the pair and takes the other as 1 minus it
            assert (cdf == 1.0 - surv) if q > 0.25 * n else (surv == 1.0 - cdf)
    # N = 1's density is 2b K_0(2 sqrt(bx)) itself
    p1 = SystemParams(n_elements=1, rho=0.5)
    for x in (1e-6, 0.3, 40.0):
        expect = 4.0 * float(sc.kv(0, 2.0 * math.sqrt(2.0 * x)))
        assert abs(snr_pdf_nocsi(x, p1) - expect) <= 1e-14 * expect


def test_bessel_k_weighted_series_branch_continuity():
    # the series (q <= n/4) and the tail (q > n/4) agree at the switch, in
    # the survival the density reads as much as in the CDF
    for n in (1, 2, 40, 168, 169):
        q = 0.25 * n
        above = np.nextafter(q, np.inf)
        below_s, above_s = nx._k_law(n, np.array([q, above]), survival=True)
        assert abs(above_s - below_s) <= 1e-12 * below_s
        below_f, above_f = nx._k_law(n, np.array([q, above]))
        assert abs(above_f - below_f) <= 1e-12 * below_f


@pytest.mark.parametrize("n", [1, 2, 20, 64, 169])
def test_bessel_k_cdf_series_is_elementwise(n):
    # an element's value depends on its q alone: the same in a bulk call
    # (chunked, grouped by term count), alone, and in reversed order
    rng = np.random.default_rng(n)
    q = np.concatenate([rng.uniform(0.0, 0.25 * n, 1000),
                        10.0 ** rng.uniform(-300.0, math.log10(0.25 * n), 1000),
                        [0.0, 5e-324, 0.25 * n]])
    bulk = nx._bessel_k_cdf_series(n, q)
    assert np.all(np.isfinite(bulk))
    alone = np.array([nx._bessel_k_cdf_series(n, q[i:i + 1])[0] for i in range(q.size)])
    assert np.array_equal(bulk, alone)
    assert np.array_equal(bulk, nx._bessel_k_cdf_series(n, q[::-1].copy())[::-1])


def test_bessel_k_weighted_overflow_raises():
    # past N = 169 (NOCSI_MAX_N) the K-law is not computed: the CDF and the
    # density refuse before any work, with a note that names both N, and
    # nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (170, 256):
            p = SystemParams(n_elements=n, rho=0.01)
            for law in (snr_cdf_nocsi, snr_pdf_nocsi):
                with pytest.raises(OverflowError, match=f"N <= 169, got N = {n}"):
                    law(0.326, p)
                with pytest.raises(OverflowError):
                    law(np.array([0.5, 11.42, 40.0]), p)


def test_bessel_k_weighted_beyond_argument_range():
    # far out (z ~ 2e9) the tail underflows to 0, so the density is 0 and
    # the CDF 1
    assert _survival(20, 1e18) == 0.0
    assert float(nx._k_law(20, np.array([1e18]))[0]) == 1.0
    for n in (1, 2, 20):
        p = SystemParams(n_elements=n)
        assert snr_pdf_nocsi(np.array([1e3, 5e18]), p)[1] == 0.0
        assert snr_cdf_nocsi(5e18, p) == 1.0


@pytest.mark.parametrize("n", [1, 2, 20, 64, 169])
def test_bessel_k_scaled_matches_mpmath(n):
    # the upward recurrence over the whole range the tail sees, z = 2 sqrt q
    # from sqrt(n) (q = n/4) to 1e9, against e^z K_n(z) at 40 digits
    mp = pytest.importorskip("mpmath")
    z = np.geomspace(math.sqrt(n), 1e9, 60)
    got = nx._bessel_k_scaled(n, z)
    with mp.workdps(40):
        for zi, gi in zip(z, got):
            exact = mp.besselk(n, zi) * mp.exp(zi)
            assert abs(gi / exact - 1) <= 3e-14, (n, zi)


@pytest.mark.parametrize("n", [1, 2, 20, 169])
def test_k_law_at_infinity(n):
    # q = +inf is a valid argument: CDF 1, survival 0, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = np.array([np.inf])
        assert nx._k_law(n, q)[0] == 1.0
        assert nx._k_law(n, q, survival=True)[0] == 0.0


def test_bessel_k_weighted_zero_limit():
    # the density tends to b/(N-1) at the origin for N >= 2, exactly, and is
    # inf there for N = 1
    for n in (2, 4, 20):
        p = SystemParams(n_elements=n, rho=0.5)
        assert snr_pdf_nocsi(0.0, p) == 2.0 / (n - 1)
        mixed = snr_pdf_nocsi(np.array([0.0, 0.5]), p)
        assert mixed.tolist() == [2.0 / (n - 1), snr_pdf_nocsi(0.5, p)]
    p1 = SystemParams(n_elements=1, rho=0.5)
    assert snr_pdf_nocsi(0.0, p1) == math.inf
    mixed = snr_pdf_nocsi(np.array([0.0, 0.5]), p1)
    assert mixed.tolist() == [math.inf, snr_pdf_nocsi(0.5, p1)]


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def test_q_func_symmetry_point():
    assert nx.q_func(0.0) == 0.5
    assert nx.q_inv(0.5) == 0.0


def test_q_inv_deep_tail():
    assert abs(nx.q_inv(1e-8) - QINV_1E8) < 1e-12 * QINV_1E8


@pytest.mark.parametrize("p", [1e-3, 1e-8, 0.3, 0.9, 1e-12])
def test_q_roundtrip(p):
    x = nx.q_inv(p)
    assert abs(float(nx.q_func(x)) - p) <= 1e-10 * p


def test_q_inv_strictly_decreasing():
    ps = np.geomspace(1e-12, 0.5, 40)
    ps = np.concatenate([ps[:-1], 1.0 - ps[::-1]])
    xs = [nx.q_inv(float(p)) for p in ps]
    assert all(b < a for a, b in zip(xs, xs[1:]))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.2])
def test_q_inv_domain(p):
    with pytest.raises(DomainError):
        nx.q_inv(p)


# ---------------------------------------------------------------------------
# fixed Gauss-Legendre panels
# ---------------------------------------------------------------------------

def test_gauss_legendre_panels_exact_for_polynomials():
    x, w = nx.gauss_legendre_panels([-1.0, 0.5, 2.0, 7.0], 4)
    assert x.size == w.size == 12 and np.all(np.diff(x) > 0.0)
    for deg in range(8):
        exact = (7.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert abs(np.dot(w, x ** deg) - exact) <= 1e-13 * max(abs(exact), 1.0)


def test_gauss_legendre_panels_domain():
    with pytest.raises(DomainError):
        nx.gauss_legendre_panels([0.0, 0.0, 1.0], 4)
    with pytest.raises(DomainError):
        nx.gauss_legendre_panels([0.0], 4)
    with pytest.raises(DomainError):
        nx.gauss_legendre_panels([0.0, 1.0], 0)


def test_per_rho_maps_a_float_formula():
    # a curve's values are those of its scalar calls: math's exp, not
    # numpy's, which rounds differently in the last bit for some arguments
    x = np.linspace(-700.0, 700.0, 1001)
    assert nx._per_rho(math.exp, x).tolist() == [math.exp(v) for v in x.tolist()]
    one = nx._per_rho(math.log, np.float64(3.0))
    assert isinstance(one, float) and one == math.log(3.0)
    # in an array, a rho where the formula overflows is inf, alone; a float
    # rho raises, so a scalar call keeps the reason
    assert nx._per_rho(math.exp, np.array([1.0, 710.0])).tolist() == [math.e, math.inf]
    with pytest.raises(OverflowError):
        nx._per_rho(math.exp, 710.0)


def _wide_rows(rng, r, k):
    """r rows of k terms of both signs over 26 decades: any change of summation order shows."""
    return rng.standard_normal((r, k)) * np.exp(rng.uniform(-30.0, 30.0, (r, k)))


# numpy's pairwise sum: a plain loop below 8 terms, 8 partial sums up to
# 128 terms (15, the Gauss-Kronrod panel), halves above (135, 368 and
# 800; an ADEP lattice row is 39 to 354 points at M = 200, D = 100)
@pytest.mark.parametrize("k", [3, 7, 15, 135, 368, 800])
def test_row_sums_equal_one_row_reductions(k):
    rng = np.random.default_rng(k)
    w = rng.uniform(0.0, 1.0, k)
    for r in (1, 2, 7, 60, 81):
        rows = _wide_rows(rng, r, k)
        sums = nx._row_sums(rows, w)
        assert sums.shape == (r,)
        assert sums.tolist() == [float(nx._row_sums(row.copy(), w)) for row in rows]
        # the same sums whatever the memory layout of the block
        assert nx._row_sums(np.asfortranarray(rows), w).tolist() == sums.tolist()


def test_dot_per_rho_rows_equal_one_row_calls():
    # blocks of _BLOCK_DOUBLES // 368 = 22 rows: 81 rho span four of them
    rng = np.random.default_rng(5)
    w = rng.uniform(0.0, 1.0, 368)
    terms = _wide_rows(rng, 1, 368)[0]

    def grid(rho):
        return np.sin(rho) * terms

    rho = np.linspace(0.1, 8.0, 81)
    curve = nx._dot_per_rho(w, grid, rho)
    assert curve.tolist() == [nx._dot_per_rho(w, grid, r) for r in rho.tolist()]
    assert type(nx._dot_per_rho(w, grid, 2.0)) is float


def test_gk15_rows_equal_each_row_reduced_alone():
    # panels with different bounds reduced at once, as a split's two halves
    # and the initial decades are: each (row, panel) pair is bit for bit
    # that row reduced alone on its panel
    a = np.array([0.0, 0.41421356237309503, -3.0])
    b = np.array([1.0, 2.7, -2.5])
    rng = np.random.default_rng(15)
    wide = _wide_rows(rng, 40 * a.size, 15).reshape(40, a.size, 15)
    wide[3] = 0.0  # both halves of QUADPACK's error ratio vanish
    wide[7] = 1.0
    # smooth rows keep the estimate's ratio below 1, where its power shows
    # in the last bit; the wide rows cap it at 1
    nodes = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * nx._XGK
    smooth = np.exp(np.linspace(0.5, 40.0, 400)[:, None, None] * nodes / (b - a)[:, None])
    vals = np.concatenate([wide, smooth])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        totals, errs = nx._gk15_rows(vals, a, b)
        alone = [nx._gk15_rows(vals[i, j].copy()[None], a[j:j + 1], b[j:j + 1])
                 for i in range(vals.shape[0]) for j in range(a.size)]
    assert totals.shape == errs.shape == (440, 3)
    assert [(t.item(), e.item()) for t, e in alone] == list(zip(totals.ravel().tolist(),
                                                                errs.ravel().tolist()))
    assert totals[3].tolist() == [0.0] * 3 and errs[3].tolist() == [0.0] * 3


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=float("nan"))
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


def test_integrate_exponential():
    assert abs(nx.integrate_semi_infinite(lambda x: np.exp(-x)) - 1.0) < 1e-8
    assert abs(nx.integrate_semi_infinite(lambda x: x * np.exp(-x)) - 1.0) < 1e-8


def test_integrate_bessel_density_normalizer():
    # int x^((N-1)/2) K_{N-1}(2 sqrt(Bx)) dx = Gamma(N) / (2 B^((N+1)/2)), N=5, B=0.2
    n, b = 5, 0.2
    val = nx.integrate_semi_infinite(
        lambda x: x ** ((n - 1) / 2.0) * sc.kv(n - 1, 2.0 * np.sqrt(b * x)))
    expect = math.gamma(n) / (2.0 * b ** ((n + 1) / 2.0))
    assert abs(val - expect) <= 1e-8 * expect


def test_integrate_zero_integrand():
    assert nx.integrate_semi_infinite(lambda x: np.zeros_like(x)) == 0.0


def test_integrate_shifted_gaussian():
    val = nx.integrate_semi_infinite(
        lambda x: np.exp(-0.5 * (x - 7.0) ** 2) / math.sqrt(2.0 * math.pi))
    assert abs(val - 1.0) < 1e-9


def test_integrate_tolerance_error_carries_estimate():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300, max_subdivisions=1)
    with pytest.raises(ToleranceError) as err:
        nx.integrate_semi_infinite(lambda x: np.exp(-x) * np.sin(x) ** 2, spec)
    assert np.isfinite(err.value.estimate)
    assert err.value.error_bound > 0.0


def test_integrate_interval_log_singularity():
    # int_0^1 ln(1/x) dx = 1; endpoint is never evaluated
    val = nx.integrate_interval(lambda x: -np.log(x), 0.0, 1.0)
    assert abs(val - 1.0) < 1e-9


def test_integrate_interval_validation():
    with pytest.raises(DomainError):
        nx.integrate_interval(lambda x: x, 1.0, 0.0)
    assert nx.integrate_interval(lambda x: x, 2.0, 2.0) == 0.0


def _family(funcs, calls):
    """Integrand family of the 1-D funcs: f(x) stacks their rows, f(x, i) is row i.

    Each call is logged in calls as (row or None, number of abscissae).
    """
    def f(x, *row):
        calls.append((row[0] if row else None, x.size))
        return funcs[row[0]](x) if row else np.array([g(x) for g in funcs])
    return f


# smooth (one panel), endpoint singularity and narrow peak (both refined)
ROWS = (lambda x: np.exp(-x), np.sqrt, lambda x: 1.0 / (1.0 + 400.0 * (x - 0.3) ** 2))


def test_integrate_interval_family_rows_equal_scalar_calls():
    calls = []
    vals = nx.integrate_interval(_family(ROWS, calls), 0.0, 1.0)
    assert isinstance(vals, np.ndarray) and vals.shape == (3,)
    # bit for bit the 1-D calls, whatever path each row took
    assert vals.tolist() == [nx.integrate_interval(g, 0.0, 1.0) for g in ROWS]
    assert abs(vals[1] - 2.0 / 3.0) < 1e-9
    # the first panel is one call for every row of 15 abscissae; only
    # the rows that miss the tolerance there are refined, each alone on its
    # own row, and each split is one call on both halves' 30 abscissae
    assert calls[0] == (None, 15)
    assert all(n == 30 for _, n in calls[1:])
    refined = {row for row, _ in calls[1:]}
    assert refined == {1, 2}
    assert sum(row == 1 for row, _ in calls) > 2  # subdivided


def test_integrate_interval_family_mixes_constant_passing_and_refined_rows():
    # constant rows (a zero row is the 0/0 case of the error estimate; the
    # no-CSI ramp is all ones at -40 dB) beside a row that passes on the
    # first panel and two that refine: each row equals its 1-D call, and
    # no row's estimate divides by zero
    funcs = (np.zeros_like, np.ones_like) + ROWS
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = nx.integrate_interval(_family(funcs, calls), 0.0, 1.0)
        scalar = [nx.integrate_interval(g, 0.0, 1.0) for g in funcs]
    assert vals.tolist() == scalar
    assert vals[0] == 0.0 and abs(vals[1] - 1.0) < 1e-14
    assert {row for row, _ in calls[1:]} == {3, 4}


def test_integrate_interval_family_row_out_of_budget_raises():
    spec = QuadratureSpec(max_subdivisions=3)
    with pytest.raises(ToleranceError) as family:
        nx.integrate_interval(_family(ROWS, []), 0.0, 1.0, spec)
    # row 0 passes; the error is that of row 1, the first row out of budget
    with pytest.raises(ToleranceError) as row:
        nx.integrate_interval(ROWS[1], 0.0, 1.0, spec)
    assert str(family.value) == str(row.value)
    assert family.value.estimate == row.value.estimate


@pytest.mark.parametrize("f, lo, hi, where", [
    (np.exp, 0.0, np.inf, "finite bounds, got [0.0, inf]"),
    (np.exp, math.nan, 1.0, "finite bounds, got [nan, 1.0]"),
    # the first abscissa, 0.5 - 0.5 * 0.991455371120813
    (lambda x: np.full_like(x, math.nan), 0.0, 1.0, "x=0.0042723144395935275"),
    (lambda x: 1.0 / (x - 0.5), 0.0, 1.0, "x=0.5"),   # the first panel's centre
    (lambda x: 1.0 / (x - 0.25), 0.0, 1.0, "x=0.25"),  # a split half's centre
])
def test_integrate_interval_rejects_non_finite_bounds_and_values(f, lo, hi, where):
    with np.errstate(divide="ignore"), pytest.raises(DomainError) as err:
        nx.integrate_interval(f, lo, hi)
    assert str(err.value).endswith(where)


def test_integrate_interval_one_dimensional_returns_float():
    val = nx.integrate_interval(np.exp, 0.0, 1.0)
    assert type(val) is float
    assert abs(val - (math.e - 1.0)) < 1e-12


def test_integrate_interval_empty_interval():
    # 0.0 for a 1-D integrand; k zeros for a family, whose k is read from
    # one call on an empty array of abscissae (no abscissa is evaluated)
    one = nx.integrate_interval(lambda x: -np.log(x), 0.0, 0.0)
    assert type(one) is float and one == 0.0
    calls = []
    zeros = nx.integrate_interval(_family(ROWS, calls), 0.5, 0.5)
    assert isinstance(zeros, np.ndarray) and zeros.tolist() == [0.0, 0.0, 0.0]
    assert calls == [(None, 0)]


def test_integrate_non_decaying_tail_rejected():
    with pytest.raises(ToleranceError):
        nx.integrate_semi_infinite(lambda x: 1.0 / (1.0 + x))
