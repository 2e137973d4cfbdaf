"""Channel distribution contracts: exact no-CSI forms and the CSI Gamma match."""

import math

import numpy as np
import pytest
import scipy.special as sc

from irslink import montecarlo as mo, numerics as nx
from irslink.channel import (
    GammaMatch,
    SystemParams,
    gamma_match,
    snr_cdf_csi,
    snr_cdf_nocsi,
    snr_pdf_csi,
    snr_pdf_nocsi,
)


def _rayleigh_product_samples(rng, count, alpha=1.0, beta=1.0):
    h = rng.normal(scale=math.sqrt(alpha / 2), size=(count, 2))
    g = rng.normal(scale=math.sqrt(beta / 2), size=(count, 2))
    return np.hypot(h[:, 0], h[:, 1]) * np.hypot(g[:, 0], g[:, 1])


# ---------------------------------------------------------------------------
# SystemParams / GammaMatch
# ---------------------------------------------------------------------------

def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_elements=0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, alpha=-1.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, rho=0.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, rho=np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, blocklength=0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, target_eps=1.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=4, packet_bits=0.0)


def test_nocsi_dist_coefficients():
    # the no-CSI law is A x^((N-1)/2) K_{N-1}(2 sqrt(b x)) with
    # A = 2/(Gamma(N) (rho alpha beta)^((N+1)/2)) and b = 1/(rho alpha beta)
    for n, rho, alpha, beta in [(5, 2.0, 1.0, 1.0), (20, 100.0, 0.5, 2.5), (40, 1.0, 1.0, 1.0)]:
        p = SystemParams(n_elements=n, rho=rho, alpha=alpha, beta=beta)
        rab = rho * alpha * beta
        a_coef = 2.0 / (math.gamma(n) * math.sqrt(rab) ** (n + 1))
        b_coef = 1.0 / rab
        for x in (0.3 * n * rab, n * rab, 2.0 * n * rab):
            z = 2.0 * math.sqrt(b_coef * x)
            pdf = a_coef * x ** ((n - 1) / 2) * sc.kv(n - 1, z)
            cdf = 1.0 - 2.0 / math.gamma(n) * (b_coef * x) ** (n / 2) * sc.kv(n, z)
            assert abs(snr_pdf_nocsi(x, p) - pdf) <= 1e-12 * pdf
            assert abs(snr_cdf_nocsi(x, p) - cdf) <= 1e-12


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
    # at rho = 1 the SNR is the cascade gain |sum conj(g_n) h_n|^2, mean N
    p = SystemParams(n_elements=10, rho=1.0)
    total = nx.integrate_semi_infinite(lambda x: snr_pdf_nocsi(x, p))
    assert abs(total - 1.0) < 1e-6
    mean = nx.integrate_semi_infinite(lambda x: x * snr_pdf_nocsi(x, p))
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
    # density tends to 1/((N-1) rho alpha beta) at the origin, not zero: full
    # cross-element cancellation keeps probability mass near zero gain
    for n in (2, 3, 10):
        p = SystemParams(n_elements=n, rho=1.0)
        lim = snr_pdf_nocsi(0.0, p)
        assert abs(lim - 1.0 / (n - 1)) <= 1e-9 / (n - 1)
        assert abs(snr_pdf_nocsi(1e-13, p) - lim) <= 1e-5 * lim
    # N = 1 diverges logarithmically (integrable)
    p1 = SystemParams(n_elements=1, rho=1.0)
    assert snr_pdf_nocsi(0.0, p1) == math.inf
    assert snr_pdf_nocsi(1e-12, p1) > 10.0


def test_snr_pdf_scaling_rule():
    # f(x; rho) = f(x/rho; 1)/rho
    p = SystemParams(n_elements=7, rho=10.0)
    x = 2.0
    lhs = snr_pdf_nocsi(x, p)
    rhs = snr_pdf_nocsi(x / 10.0, SystemParams(n_elements=7, rho=1.0)) / 10.0
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
    # at N = 1 and rho = 1 the CSI SNR is xi^2 for one matched Gamma xi, so
    # xi has density 2t f(t^2)
    p = SystemParams(n_elements=1, rho=1.0)
    total = nx.integrate_semi_infinite(lambda t: 2.0 * t * snr_pdf_csi(t * t, p))
    assert abs(total - 1.0) < 1e-9


def test_xi_cdf_endpoints():
    p = SystemParams(n_elements=1, rho=1.0)
    assert snr_cdf_csi(0.0, p) == 0.0
    assert abs(snr_cdf_csi(1e3 ** 2, p) - 1.0) < 1e-12
    m = gamma_match(1.0, 1.0)
    for t in (0.1, 1.0, 3.0):
        assert snr_cdf_csi(t * t, p) == nx.reg_gamma_lower(m.shape, t / m.scale)


def test_xi_gamma_fit_ks_distance():
    # the moment-matched Gamma is approximate; its KS distance to the true
    # per-element product law stays below 0.03
    rng = np.random.default_rng(77)
    samples = np.sort(_rayleigh_product_samples(rng, 1_000_000))
    m = gamma_match(1.0, 1.0)
    grid = np.linspace(1e-3, 6.0, 500)
    emp = np.searchsorted(samples, grid, side="right") / samples.size
    ks = np.max(np.abs(emp - nx.reg_gamma_lower(m.shape, grid / m.scale)))
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
# realizations: the Monte-Carlo kernel's per-trial SNR
# ---------------------------------------------------------------------------

# amplitude uniform of a unit-magnitude hop at alpha = beta = 1
_UNIT = -math.expm1(-1.0)


def _realized_snr(monkeypatch, mode, rho, amp_h, ph_h, amp_g, ph_g):
    """Kernel SNR of one trial whose uniforms are given per element."""
    row = np.concatenate([amp_h, ph_h, amp_g, ph_g])[None, :]
    monkeypatch.setattr(mo, "_uniform_block", lambda *args: row.copy())
    p = SystemParams(n_elements=len(amp_h), rho=rho)
    return float(mo._snr_block(p, mode, 0, 0, 1)[0])


def test_realized_snr_examples(monkeypatch):
    one = ([_UNIT], [0.0], [_UNIT], [0.0])
    assert abs(_realized_snr(monkeypatch, "nocsi", 2.0, *one) - 2.0) <= 1e-14
    assert abs(_realized_snr(monkeypatch, "csi", 2.0, *one) - 2.0) <= 1e-14
    # conj(g) h = +1 and -1 on the two elements: full cancellation without CSI
    two = ([_UNIT, _UNIT], [0.0, 0.5], [_UNIT, _UNIT], [0.0, 0.0])
    assert _realized_snr(monkeypatch, "nocsi", 1.0, *two) <= 1e-14
    assert abs(_realized_snr(monkeypatch, "csi", 1.0, *two) - 4.0) <= 1e-14
    with pytest.raises(ValueError):
        _realized_snr(monkeypatch, "bogus", 1.0, *one)


def test_optimal_phases_angle_arithmetic(monkeypatch):
    # h at pi/6 and g at pi/3 give conj(g) h at -pi/6, the angle co-phasing
    # undoes; against a zero-phase element the no-CSI SNR is |e^(-j pi/6) + 1|^2
    uniforms = ([_UNIT, _UNIT], [1.0 / 12.0, 0.0], [_UNIT, _UNIT], [1.0 / 6.0, 0.0])
    h, g = mo._channels_from_uniforms(np.concatenate(uniforms)[None, :], 1.0, 1.0)
    assert abs(np.angle(np.conj(g[0, 0]) * h[0, 0]) + math.pi / 6.0) < 1e-12
    nocsi = _realized_snr(monkeypatch, "nocsi", 1.0, *uniforms)
    assert abs(nocsi - (2.0 + math.sqrt(3.0))) <= 1e-14
    assert abs(_realized_snr(monkeypatch, "csi", 1.0, *uniforms) - 4.0) <= 1e-14


def test_optimal_phases_zero_magnitude_convention(monkeypatch):
    # a zero-magnitude element has no defined phase and adds nothing, even at
    # the tangent pole D = pi of the no-CSI kernel
    uniforms = ([0.0, _UNIT], [0.5, 0.3], [_UNIT, _UNIT], [0.0, 0.1])
    for mode in ("csi", "nocsi"):
        snr = _realized_snr(monkeypatch, mode, 3.0, *uniforms)
        assert abs(snr - 3.0) <= 1e-14 * 3.0


def test_csi_dominates_nocsi_random():
    for n in (2, 5, 20):
        p = SystemParams(n_elements=n, rho=1.0)
        csi = mo._snr_block(p, "csi", 5, 0, 200)
        nocsi = mo._snr_block(p, "nocsi", 5, 0, 200)
        assert np.all(csi >= nocsi * (1.0 - 1e-12))


def test_cophasing_achieves_csi_snr():
    # rotating each element by -arg(conj(g_n) h_n) makes the zero-phase sum
    # reach the CSI SNR (sum |g_n||h_n|)^2
    n = 12
    p = SystemParams(n_elements=n, rho=1.0)
    h, g = mo._channels_from_uniforms(mo._uniform_block(6, 0, 1, n), 1.0, 1.0)
    terms = np.conj(g[0]) * h[0]
    gain = np.sum(terms * np.exp(-1j * np.angle(terms)))
    csi = mo._snr_block(p, "csi", 6, 0, 1)[0]
    assert abs(abs(gain) ** 2 - csi) <= 1e-12 * csi
