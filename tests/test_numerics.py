"""Special-function and quadrature contracts.

Frozen expected values were produced by independent oracles (mpmath
quadrature of integral definitions, high-precision naive series, bisection)
and are cross-checked in-test where cheap.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sc

from irslink import numerics as nx
from irslink.numerics import (
    DomainError,
    NonConvergenceError,
    QuadratureSpec,
    ToleranceError,
)

# mpmath oracle values (quadrature of the defining integrals / bisection)
DIGAMMA_5 = 1.5061176684318005
QINV_1E8 = 5.6120012441747887
F23_SPEC = 0.99399048976163752  # 2F3(1,1; 2, 0.695, 1.195; -0.01)


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

def test_bessel_k_weighted_matches_direct():
    for n in (0, 1, 3, 10, 40):
        for z in (1e-3, 0.5, 3.0, 30.0):
            expect = (z / 2.0) ** n * float(sc.kv(n, z))
            got = nx.bessel_k_weighted(n, z)
            assert abs(got - expect) <= 1e-11 * abs(expect)


def test_bessel_k_weighted_series_branch_continuity():
    # kve overflows below z ~ 5e-7 at n = 40, where the product comes from the
    # shared small-argument series of K_n; the kve branch must agree with it
    n = 40
    assert np.isfinite(sc.kve(n, 1e-6)) and np.isinf(sc.kve(n, 1e-9))
    half_gamma = 0.5 * math.gamma(n)
    for z in (1e-6, 1e-9):
        q = np.asarray([0.25 * z * z])
        series = half_gamma * (1.0 - nx._bessel_k_cdf_series(n, q)[0])
        assert abs(nx.bessel_k_weighted(n, z) - series) <= 1e-12 * series
    # deep in the overflow zone the value approaches Gamma(n)/2
    deep = nx.bessel_k_weighted(n, 1e-9)
    assert abs(deep - half_gamma) <= 1e-10 * half_gamma


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
    # kve(256, z) overflows at moderate z; the product (~1.5e504 here) is
    # not representable, so no value comes back and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            nx.bessel_k_weighted(256, 11.42)
        with pytest.raises(OverflowError):
            nx.bessel_k_weighted(256, np.array([0.5, 11.42, 40.0]))


def test_bessel_k_weighted_beyond_argument_range():
    # past z ~ 1e9 scipy's kve gives nan; the true product underflows to 0
    assert nx.bessel_k_weighted(20, 2e9) == 0.0
    assert nx.bessel_k_weighted(1, np.array([1e3, 5e9]))[1] == 0.0


def test_bessel_k_weighted_zero_limit():
    for n in (1, 4, 20):
        assert nx.bessel_k_weighted(n, 0.0) == 0.5 * math.exp(math.lgamma(n))
        mixed = nx.bessel_k_weighted(n, np.array([0.0, 0.5]))
        assert mixed.tolist() == [0.5 * math.exp(math.lgamma(n)), nx.bessel_k_weighted(n, 0.5)]
    with pytest.raises(DomainError):
        nx.bessel_k_weighted(0, 0.0)


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
# generalized hypergeometric
# ---------------------------------------------------------------------------

def _naive_pfq(a_list, b_list, z, terms=400):
    """Independent extended-precision partial-sum oracle."""
    import mpmath as mp
    with mp.workdps(60):
        total = mp.mpf(1)
        term = mp.mpf(1)
        for k in range(terms):
            num = mp.mpf(1)
            for ai in a_list:
                num *= mp.mpf(ai) + k
            den = mp.mpf(1)
            for bj in b_list:
                den *= mp.mpf(bj) + k
            term *= num / den * mp.mpf(z) / (k + 1)
            total += term
        return float(total)


def test_hyp_pfq_empty_and_zero():
    assert nx.hyp_pfq([1.0, 2.0], [3.0], 0.0) == 1.0
    assert nx.hyp_pfq([], [], 0.0) == 1.0


def test_hyp_1f1_identity():
    # 1F1(1; 2; z) = (e^z - 1)/z
    val = nx.hyp_pfq([1.0], [2.0], 1.0)
    assert abs(val - (math.e - 1.0)) < 1e-14 * (math.e - 1.0)


def test_hyp_2f3_frozen_oracle_value():
    t = 0.805
    val = nx.hyp_pfq([1.0, 1.0], [2.0, 1.5 - t, 2.0 - t], -0.01)
    assert abs(val - F23_SPEC) < 1e-12 * abs(F23_SPEC)


def test_hyp_pfq_vs_naive_oracle():
    cases = [
        ([0.5], [1.5, 2.25], -3.7),
        ([1.0, 1.0], [2.0, -14.0994, -14.5994 + 1.0], -1.05),
        ([16.1], [0.5, 17.1], -5.0),
    ]
    for a, b, z in cases:
        mine = nx.hyp_pfq(a, b, z)
        oracle = _naive_pfq(a, b, z)
        assert abs(mine - oracle) <= 1e-10 * max(abs(oracle), 1e-30), (a, b, z)


def test_hyp_pfq_reports_cancellation():
    # 1F1(1; 2; z) = (e^z - 1)/z: at z = -30 the alternating terms reach
    # 30^30/31! ~ 2.5e10 against a sum of ~1/30, so ~12 digits cancel, and
    # the error of the sum is of the size the ratio predicts
    val, ratio = nx.hyp_pfq([1.0], [2.0], -30.0, with_cancellation=True)
    assert val == nx.hyp_pfq([1.0], [2.0], -30.0)
    assert 11.5 < math.log10(ratio) < 12.5
    exact = -math.expm1(-30.0) / 30.0
    assert abs(val - exact) <= 1e-15 * ratio * exact
    # positive terms cannot cancel: the sum dominates every term
    val, ratio = nx.hyp_pfq([1.0], [2.0], 1.0, with_cancellation=True)
    assert abs(val - (math.e - 1.0)) < 1e-14 * val
    assert ratio <= 1.0
    assert nx.hyp_pfq([1.0], [2.0], 0.0, with_cancellation=True) == (1.0, 1.0)


def test_hyp_pfq_pole_domain():
    with pytest.raises(DomainError):
        nx.hyp_pfq([1.0], [0.0], 0.5)
    with pytest.raises(DomainError):
        nx.hyp_pfq([1.0], [2.0, -3.0], 0.5)


def test_hyp_pfq_non_convergence(monkeypatch):
    monkeypatch.setattr(nx, "_PFQ_MAX_TERMS", 5)
    with pytest.raises(NonConvergenceError, match="within 5 terms"):
        nx.hyp_pfq([1.0], [2.0], 30.0)


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


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=-1.0)
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


def test_integrate_non_decaying_tail_rejected():
    with pytest.raises(ToleranceError):
        nx.integrate_semi_infinite(lambda x: 1.0 / (1.0 + x))
