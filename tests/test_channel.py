"""Channel distribution contracts: exact no-CSI forms and the CSI Gamma match."""

import math

import numpy as np
import pytest

from irslink import numerics as nx
from irslink.channel import (
    ChannelRealization,
    GammaMatch,
    NoCsiDist,
    SystemParams,
    cascade_gain,
    cascade_pdf,
    gamma_match,
    optimal_phases,
    realized_snr,
    snr_cdf_csi,
    snr_cdf_nocsi,
    snr_pdf_csi,
    snr_pdf_nocsi,
    xi_cdf,
    xi_pdf,
)


def _rayleigh_product_samples(rng, count, alpha=1.0, beta=1.0):
    h = rng.normal(scale=math.sqrt(alpha / 2), size=(count, 2))
    g = rng.normal(scale=math.sqrt(beta / 2), size=(count, 2))
    return np.hypot(h[:, 0], h[:, 1]) * np.hypot(g[:, 0], g[:, 1])


# ---------------------------------------------------------------------------
# SystemParams / NoCsiDist / GammaMatch
# ---------------------------------------------------------------------------

def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_elements=0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, alpha=-1.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, rho=0.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, blocklength=0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, target_eps=1.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, packet_bits=0.0)


def test_nocsi_dist_coefficients():
    for n, rho, alpha, beta in [(5, 2.0, 1.0, 1.0), (20, 100.0, 0.5, 2.5), (40, 1.0, 1.0, 1.0)]:
        p = SystemParams(n_elements=n, rho=rho, alpha=alpha, beta=beta)
        d = NoCsiDist.from_params(p)
        rab = rho * alpha * beta
        a_expect = 2.0 / (math.gamma(n) * math.sqrt(rab) ** (n + 1))
        assert abs(d.a_coef - a_expect) <= 1e-12 * a_expect
        assert abs(d.b_coef - 1.0 / rab) <= 1e-12 / rab


def test_gamma_match_values():
    m = gamma_match(1.0, 1.0)
    pi2 = math.pi ** 2
    assert abs(m.shape - pi2 / (16.0 - pi2)) < 1e-15
    assert abs(m.scale - (16.0 - pi2) / (4.0 * math.pi)) < 1e-15
    assert abs(m.shape - 1.60994) < 1e-4
    assert abs(m.scale - 0.48786) < 5e-5


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (4.0, 1.0), (0.3, 2.7)])
def test_gamma_match_moment_identities(alpha, beta):
    m = gamma_match(alpha, beta)
    mean = m.shape * m.scale
    var = m.shape * m.scale ** 2
    assert abs(mean - 0.25 * math.pi * math.sqrt(alpha * beta)) <= 1e-12 * mean
    assert abs(var - (16.0 - math.pi ** 2) / 16.0 * alpha * beta) <= 1e-12 * var


def test_gamma_match_validation():
    with pytest.raises(ValueError):
        gamma_match(0.0, 1.0)
    with pytest.raises(ValueError):
        GammaMatch(shape=-1.0, scale=1.0)


# ---------------------------------------------------------------------------
# no-CSI density/CDF
# ---------------------------------------------------------------------------

def test_cascade_pdf_normalization_and_mean():
    p = SystemParams(n_elements=10)
    total = nx.integrate_semi_infinite(lambda x: cascade_pdf(x, p))
    assert abs(total - 1.0) < 1e-6
    mean = nx.integrate_semi_infinite(lambda x: x * cascade_pdf(x, p))
    assert abs(mean - 10.0) < 1e-6 * 10.0


def test_cascade_mean_against_monte_carlo():
    rng = np.random.default_rng(1234)
    n, count = 10, 200_000
    h = rng.normal(scale=math.sqrt(0.5), size=(count, n)) \
        + 1j * rng.normal(scale=math.sqrt(0.5), size=(count, n))
    g = rng.normal(scale=math.sqrt(0.5), size=(count, n)) \
        + 1j * rng.normal(scale=math.sqrt(0.5), size=(count, n))
    gains = np.abs(np.sum(np.conj(g) * h, axis=1)) ** 2
    se = gains.std(ddof=1) / math.sqrt(count)
    assert abs(gains.mean() - 10.0) < 3.0 * se


def test_cascade_pdf_origin_limit():
    # density tends to 1/((N-1) alpha beta) at the origin, not zero: full
    # cross-element cancellation keeps probability mass near zero gain
    for n in (2, 3, 10):
        p = SystemParams(n_elements=n)
        lim = cascade_pdf(0.0, p)
        assert abs(lim - 1.0 / (n - 1)) <= 1e-9 / (n - 1)
        assert abs(cascade_pdf(1e-13, p) - lim) <= 1e-5 * lim
    # N = 1 diverges logarithmically (integrable)
    p1 = SystemParams(n_elements=1)
    assert cascade_pdf(0.0, p1) == math.inf
    assert cascade_pdf(1e-12, p1) > 10.0


def test_snr_pdf_scaling_rule():
    # f_gamma(x; rho) = f_H(x/rho)/rho
    p = SystemParams(n_elements=7, rho=10.0)
    x = 2.0
    lhs = snr_pdf_nocsi(x, p)
    rhs = cascade_pdf(x / 10.0, p) / 10.0
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_snr_pdf_normalization_and_mean():
    p = SystemParams(n_elements=20)
    assert abs(nx.integrate_semi_infinite(lambda x: snr_pdf_nocsi(x, p)) - 1.0) < 1e-6
    p2 = SystemParams(n_elements=5, rho=4.0)
    mean = nx.integrate_semi_infinite(lambda x: x * snr_pdf_nocsi(x, p2))
    assert abs(mean - 20.0) <= 1e-6 * 20.0


def test_snr_cdf_nocsi_endpoints():
    p = SystemParams(n_elements=20)
    assert snr_cdf_nocsi(0.0, p) == 0.0
    assert abs(snr_cdf_nocsi(1e6, p) - 1.0) < 1e-12


def test_snr_cdf_matches_quadrature():
    p = SystemParams(n_elements=20, rho=1.0)
    spec = nx.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=2000)
    quad = nx.integrate_interval(lambda t: snr_pdf_nocsi(t, p), 0.0, 20.0, spec)
    assert abs(quad - snr_cdf_nocsi(20.0, p)) < 1e-9


def test_snr_cdf_monotone_in_range():
    for n in (1, 2, 5, 40):
        p = SystemParams(n_elements=n, rho=3.0)
        grid = np.geomspace(1e-8, 1e4, 200)
        vals = snr_cdf_nocsi(grid, p)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= 0.0)


# ---------------------------------------------------------------------------
# CSI Gamma-model density/CDF
# ---------------------------------------------------------------------------

def test_xi_pdf_normalization():
    m = gamma_match(1.0, 1.0)
    assert abs(nx.integrate_semi_infinite(lambda x: xi_pdf(x, m)) - 1.0) < 1e-9


def test_xi_cdf_endpoints():
    m = gamma_match(1.0, 1.0)
    assert xi_cdf(0.0, m) == 0.0
    assert abs(xi_cdf(1e3, m) - 1.0) < 1e-12


def test_xi_gamma_fit_ks_distance():
    # the moment-matched Gamma is approximate; its KS distance to the true
    # per-element product law stays below 0.03
    rng = np.random.default_rng(77)
    samples = np.sort(_rayleigh_product_samples(rng, 1_000_000))
    m = gamma_match(1.0, 1.0)
    grid = np.linspace(1e-3, 6.0, 500)
    emp = np.searchsorted(samples, grid, side="right") / samples.size
    ks = np.max(np.abs(emp - xi_cdf(grid, m)))
    assert ks < 0.03


def test_snr_cdf_csi_endpoints():
    p = SystemParams(n_elements=20)
    assert snr_cdf_csi(0.0, p) == 0.0
    assert abs(snr_cdf_csi(1e8, p) - 1.0) < 1e-12


def test_snr_pdf_csi_is_cdf_derivative():
    p = SystemParams(n_elements=20, rho=1.0)
    x, h = 5.0, 1e-4
    cd = (snr_cdf_csi(x + h, p) - snr_cdf_csi(x - h, p)) / (2.0 * h)
    pdf = snr_pdf_csi(x, p)
    assert abs(cd - pdf) <= 1e-6 * abs(pdf)


def test_snr_pdf_csi_integrates_to_cdf():
    p = SystemParams(n_elements=20, rho=1.0)
    spec = nx.QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14)
    for x in (50.0, 300.0):
        quad = nx.integrate_interval(lambda t: snr_pdf_csi(t, p), 0.0, x, spec)
        assert abs(quad - snr_cdf_csi(x, p)) < 1e-8


def test_snr_csi_gamma_fit_ks_distance():
    rng = np.random.default_rng(99)
    n, count = 20, 100_000
    h = rng.normal(scale=math.sqrt(0.5), size=(count, n)) \
        + 1j * rng.normal(scale=math.sqrt(0.5), size=(count, n))
    g = rng.normal(scale=math.sqrt(0.5), size=(count, n)) \
        + 1j * rng.normal(scale=math.sqrt(0.5), size=(count, n))
    snr = np.sort(np.sum(np.abs(g) * np.abs(h), axis=1) ** 2)
    p = SystemParams(n_elements=n, rho=1.0)
    grid = np.geomspace(50.0, 700.0, 300)
    emp = np.searchsorted(snr, grid, side="right") / count
    ks = np.max(np.abs(emp - snr_cdf_csi(grid, p)))
    assert ks < 0.02


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def test_realization_validation_and_wrapping():
    with pytest.raises(ValueError):
        ChannelRealization(h=np.ones(3), g=np.ones(4))
    r = ChannelRealization(h=np.ones(2), g=np.ones(2), phases=np.array([7.0, -1.0]))
    assert np.all(r.phases >= 0.0) and np.all(r.phases < 2.0 * math.pi)


def test_optimal_phases_angle_arithmetic():
    r = ChannelRealization(h=np.array([1.0 + 0j]), g=np.array([1.0 + 0j]))
    assert optimal_phases(r)[0] == 0.0
    r2 = ChannelRealization(h=np.array([np.exp(1j * math.pi / 6)]),
                            g=np.array([np.exp(1j * math.pi / 3)]))
    assert abs(optimal_phases(r2)[0] - (2.0 * math.pi - math.pi / 2)) < 1e-12


def test_optimal_phases_zero_magnitude_convention():
    r = ChannelRealization(h=np.array([0.0 + 0j, 1.0 + 1j]),
                           g=np.array([1.0 + 0j, 2.0 - 1j]))
    ph = optimal_phases(r)
    assert ph[0] == 0.0


def test_realized_snr_examples():
    r = ChannelRealization(h=np.array([1.0 + 0j]), g=np.array([1.0 + 0j]))
    assert realized_snr(r, "nocsi", 2.0) == 2.0
    assert realized_snr(r, "csi", 2.0) == 2.0
    r2 = ChannelRealization(h=np.array([1.0 + 0j, 1.0 + 0j]),
                            g=np.array([1.0 + 0j, -1.0 + 0j]))
    assert realized_snr(r2, "nocsi", 1.0) == 0.0
    assert realized_snr(r2, "csi", 1.0) == 4.0
    with pytest.raises(ValueError):
        realized_snr(r, "bogus", 1.0)


def test_csi_dominates_nocsi_random():
    rng = np.random.default_rng(5)
    for n in (2, 5, 20):
        for _ in range(200):
            r = ChannelRealization(
                h=rng.normal(size=n) + 1j * rng.normal(size=n),
                g=rng.normal(size=n) + 1j * rng.normal(size=n))
            c = realized_snr(r, "csi", 1.0)
            nc = realized_snr(r, "nocsi", 1.0)
            assert c >= nc * (1.0 - 1e-12)


def test_cophasing_achieves_csi_snr():
    rng = np.random.default_rng(6)
    n = 12
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    base = ChannelRealization(h=h, g=g)
    aligned = ChannelRealization(h=h, g=g, phases=optimal_phases(base))
    gain = cascade_gain(aligned)
    csi = realized_snr(base, "csi", 1.0)
    assert abs(abs(gain) ** 2 - csi) <= 1e-12 * csi
