"""Short-packet rate/error formula contracts."""

import math
import warnings

import numpy as np
import pytest

from irslink import fbl, metrics_csi, metrics_nocsi
from irslink.channel import SystemParams, snr_pdf_csi, snr_pdf_nocsi
from irslink.numerics import integrate_interval, q_func, q_inv

# mpmath oracle: Q(ln2 sqrt(200/0.9375) (2 - 0.5)) = Q(15.186094)
DEEP_TAIL_ERROR = 2.1860421603259983e-52


def test_dispersion_values():
    assert fbl.dispersion(0.0) == 0.0
    assert abs(fbl.dispersion(1.0) - 0.75) < 1e-15
    assert abs(fbl.dispersion(1e9) - 1.0) < 1e-8
    # stable near zero: V(g) = g(g+2)/(1+g)^2, full relative precision
    g = 1e-12
    assert abs(fbl.dispersion(g) / (g * (g + 2.0) / (1.0 + g) ** 2) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        fbl.dispersion(-0.5)


def test_formulas_at_infinite_snr_are_their_limits():
    # V(inf) and eps(inf) were NaN with a RuntimeWarning, and R(inf) warned;
    # so was V from gamma ~ 1.3e154 on, where gamma (gamma + 2) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fbl.dispersion(math.inf) == 1.0
        assert fbl.decode_error_prob(math.inf, 200, 100.0) == 0.0
        assert fbl.achievable_rate(math.inf, 200, 1e-8) == math.inf
        g = np.array([0.0, 3.0, 1e300, np.inf])
        assert fbl.dispersion(g).tolist() == [0.0, 0.9375, 1.0, 1.0]
        eps = fbl.decode_error_prob(g, 200, 100.0)
        assert eps[0] == 1.0 and eps[-1] == 0.0
        assert fbl.achievable_rate(g, 200, 1e-8)[-1] == math.inf


def test_formulas_reject_nan_snr():
    # decode_error_prob(nan) returned 1.0: NaN fails g > 0 and took the gamma = 0 convention
    for g in (math.nan, np.array([1.0, np.nan])):
        for formula in (fbl.dispersion, lambda x: fbl.decode_error_prob(x, 200, 100.0),
                        lambda x: fbl.achievable_rate(x, 200, 1e-8)):
            with pytest.raises(ValueError, match="NaN"):
                formula(g)


def test_finite_snr_formulas_unchanged():
    # the infinite-SNR limits leave every finite value bit for bit the plain formula
    g = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e153, 400)])
    assert np.array_equal(fbl.dispersion(g), g * (g + 2.0) / (1.0 + g) ** 2)
    g = g[2:]
    arg = np.sqrt(200 / fbl.dispersion(g)) * (np.log1p(g) - 100.0 * math.log(2.0) / 200)
    assert np.array_equal(fbl.decode_error_prob(g, 200, 100.0), q_func(arg))


def test_achievable_rate_median_eps_is_shannon():
    # Qinv(0.5) = 0 removes the penalty exactly
    for g in (0.5, 3.0, 100.0):
        assert fbl.achievable_rate(g, 200, 0.5) == math.log2(1.0 + g)


def test_achievable_rate_reference_point():
    rate = fbl.achievable_rate(3.0, 200, 1e-8)
    expect = 2.0 - math.sqrt(0.9375 / 200.0) * q_inv(1e-8) / math.log(2.0)
    assert abs(rate - expect) < 1e-14
    assert abs(rate - 1.4457) < 1e-4


def test_achievable_rate_memoized_q_inv_is_bit_identical():
    # q_inv(eps) is cached per eps; repeated calls give the uncached formula exactly
    g = np.geomspace(1e-3, 1e3, 50)
    for eps in (1e-8, np.float64(1e-5), 0.1):
        expect = (np.log2(1.0 + g)
                  - np.sqrt(fbl.dispersion(g) / 200) * q_inv(float(eps)) / math.log(2.0))
        for _ in range(2):
            assert np.array_equal(fbl.achievable_rate(g, 200, eps), expect)


def test_achievable_rate_zero_snr():
    assert fbl.achievable_rate(0.0, 200, 1e-8) == 0.0


def test_achievable_rate_validation():
    with pytest.raises(ValueError):
        fbl.achievable_rate(1.0, 0, 1e-8)
    with pytest.raises(ValueError):
        fbl.achievable_rate(1.0, 200, 0.0)
    with pytest.raises(ValueError):
        fbl.achievable_rate(-1.0, 200, 1e-8)


def test_decode_error_half_power_point():
    # at gamma = 2^(D/M) - 1 the argument vanishes and the error is 1/2
    # (to float rounding of log1p at the ramp center)
    m, d = 200, 100.0
    x0 = 2.0 ** (d / m) - 1.0
    assert abs(fbl.decode_error_prob(x0, m, d) - 0.5) < 1e-12


def test_decode_error_deep_tail():
    val = fbl.decode_error_prob(3.0, 200, 100.0)
    assert abs(val - DEEP_TAIL_ERROR) <= 1e-12 * DEEP_TAIL_ERROR


def test_decode_error_limits_and_convention():
    assert fbl.decode_error_prob(0.0, 200, 100.0) == 1.0
    assert fbl.decode_error_prob(1e12, 200, 100.0) == 0.0


def test_decode_error_monotone():
    m, d = 200, 100.0
    gs = np.geomspace(1e-3, 1e3, 60)
    vals = fbl.decode_error_prob(gs, m, d)
    assert np.all(np.diff(vals) <= 0.0)
    # nonincreasing in blocklength at fixed D
    for g in (0.3, 0.41421356, 2.0):
        errs = [fbl.decode_error_prob(g, m2, d) for m2 in (100, 200, 400, 800)]
        if g > 2.0 ** (d / 100) - 1.0:
            assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_linearization_params_reference():
    lp = fbl.linearization_params(200, 100.0)
    assert abs(lp.center_x0 - (math.sqrt(2.0) - 1.0)) < 1e-15
    assert abs(lp.slope_mu - math.sqrt(200.0 / (2.0 * math.pi))) < 1e-12
    assert abs(lp.slope_mu - 5.6419) < 1e-4


def test_linearization_small_packet_limits():
    lp = fbl.linearization_params(200, 1e-9)
    assert lp.center_x0 < 1e-11
    assert lp.slope_mu > 1e4


def test_linearization_ramp_limit_is_named():
    # 2^(2D/M) overflows the slope from D/M ~ 510.67: a note, not a bare math range error
    lp = fbl.linearization_params(2, 1019.0)
    assert lp.slope_mu > 0.0 and math.isfinite(lp.knee_hi)
    for bits in (1020.0, 2000.0, 8000.0):
        with pytest.raises(OverflowError,
                           match=rf"^ramp needs D/M < 510, got D/M = {bits / 2:g}$"):
            fbl.linearization_params(2, bits)
    p = SystemParams(n_elements=8, rho=1.0, blocklength=2, packet_bits=2000.0)
    for ramp in (metrics_nocsi.adep_linearized, metrics_nocsi.adep_approx,
                 metrics_csi.adep_linearized):
        with pytest.raises(OverflowError, match="ramp needs D/M < 510, got D/M = 1000"):
            ramp(p)


def test_adep_lattice_overflowing_points_are_silent():
    # at M = 2, D = 8000 the whole window lies past the double range, so
    # every lattice point e^v is +inf, where F = 1
    fbl._q_argument_roots.cache_clear()
    fbl._error_window.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_lo = fbl._error_window(2, 8000.0, 1.0)[1]
        p = SystemParams(n_elements=8, rho=10.0, blocklength=2, packet_bits=8000.0)
        assert metrics_nocsi.adep_numerical(p) == 1.0
        assert metrics_csi.adep_numerical(p) == 1.0
    assert v_lo > math.log(np.finfo(float).max)


@pytest.mark.parametrize("metrics,pdf", [(metrics_nocsi, snr_pdf_nocsi),
                                         (metrics_csi, snr_pdf_csi)])
def test_linearized_q_is_the_adep_linearized_ramp(metrics, pdf):
    # adep_linearized averages the ramp of linearization_params(M, D)
    # against the SNR density: plateau mass below the lower knee plus the
    # ramp-weighted mass between the knees
    for n in (1, 2, 20, 40):
        for snr_db in (-10, 0, 10, 20, 30):
            p = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0))
            lp = fbl.linearization_params(p.blocklength, p.packet_bits)
            lo, hi = max(0.0, lp.knee_lo), lp.knee_hi

            def ramp(x):
                return np.clip(0.5 - lp.slope_mu * (x - lp.center_x0), 0.0, 1.0)

            ref = (integrate_interval(lambda x: pdf(x, p), 0.0, lo)
                   + integrate_interval(lambda x: ramp(x) * pdf(x, p), lo, hi))
            val = metrics.adep_linearized(p)
            assert abs(val - ref) <= 1e-8 * ref, (n, snr_db, val, ref)


def test_rate_penalty_strict_below_half():
    for g in (0.1, 1.0, 50.0):
        assert fbl.achievable_rate(g, 200, 1e-3) < math.log2(1.0 + g)


def test_packet_rate_conventions():
    assert abs(fbl.packet_rate(200, 100.0, "nats") - 100.0 * math.log(2.0) / 200.0) < 1e-16
    assert fbl.packet_rate(200, 100.0, "bits") == 0.5
    with pytest.raises(ValueError):
        fbl.packet_rate(200, 100.0, "furlongs")
