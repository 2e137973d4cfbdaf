"""No-CSI metric contracts: bounds, asymptotics, ramp approximations."""

import dataclasses
import math

import numpy as np
import pytest

from irslink import fbl, metrics_nocsi as mn, numerics
from irslink.channel import SystemParams, snr_cdf_nocsi
from irslink.numerics import DomainError, q_inv

P20 = SystemParams(n_elements=20, rho=1.0)
LN2 = math.log(2.0)


def _at(p, **kw):
    return dataclasses.replace(p, **kw)


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_adr_numerical_headline_value():
    val = mn.adr_numerical(P20)
    assert 2.7 <= val <= 3.3
    assert abs(val - 3.1572084668707343) < 1e-6 * val  # regression


def test_adr_numerical_median_eps_equals_shannon():
    p = _at(P20, target_eps=0.5)
    assert abs(mn.adr_numerical(p) - mn.adr_upper_bound(p)) < 1e-6


def test_adr_numerical_close_to_asymptotic_at_20db():
    p = _at(P20, rho=100.0)
    assert abs(mn.adr_numerical(p) - mn.adr_asymptotic(p)) < 0.05


def test_adr_lower_bound_is_shifted_upper():
    for rho in (1.0, 100.0):
        p = _at(P20, rho=rho)
        pen = q_inv(p.target_eps) / (math.sqrt(p.blocklength) * LN2)
        assert abs(pen - 0.5725) < 1e-3
        assert abs(mn.adr_lower_bound(p) - (mn.adr_upper_bound(p) - pen)) < 1e-12


def test_adr_bound_ordering_spot():
    for rho in (1.0, 10.0, 100.0):
        p = _at(P20, rho=rho)
        lo, num, up = mn.adr_lower_bound(p), mn.adr_numerical(p), mn.adr_upper_bound(p)
        assert lo <= num <= up


def test_adr_lower_equals_upper_at_median_eps():
    p = _at(P20, target_eps=0.5)
    assert abs(mn.adr_lower_bound(p) - mn.adr_upper_bound(p)) < 1e-12


def test_adr_asymptotic_values():
    # (H_19 + ln(100) - qinv/sqrt(200) - 2 g0)/ln2, oracle built from raw sums
    p = _at(P20, rho=100.0)
    harm = sum(1.0 / k for k in range(1, 20))
    expect = (harm + math.log(100.0) - q_inv(1e-8) / math.sqrt(200.0)
              - 2.0 * np.euler_gamma) / LN2
    got = mn.adr_asymptotic(p)
    assert abs(got - expect) < 1e-12
    assert abs(got - 9.524) < 1e-3
    assert abs(mn.adr_asymptotic(P20) - 2.880) < 1e-3


def test_adr_asymptotic_doubling_rho_adds_one_bit():
    a = mn.adr_asymptotic(_at(P20, rho=7.0))
    b = mn.adr_asymptotic(_at(P20, rho=14.0))
    assert abs((b - a) - 1.0) < 1e-12


def test_adr_monotone_in_rho_and_n():
    vals = [mn.adr_numerical(_at(P20, rho=10.0 ** (s / 10.0))) for s in (-10, 0, 10, 20)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    byn = [mn.adr_numerical(SystemParams(n_elements=n, rho=1.0)) for n in (2, 5, 10, 20, 40)]
    assert all(b > a for a, b in zip(byn, byn[1:]))


# ---------------------------------------------------------------------------
# error probability
# ---------------------------------------------------------------------------

def test_adep_numerical_limits():
    # vanishing payload: the error drops to the blocklength-limited floor
    tiny = mn.adep_numerical(_at(P20, rho=100.0, packet_bits=1e-9))
    std = mn.adep_numerical(_at(P20, rho=100.0))
    assert tiny < 1e-5
    assert tiny < 0.02 * std
    # collapsing SNR drives the error to one
    assert mn.adep_numerical(_at(P20, rho=1e-9)) > 1.0 - 1e-3


def test_adep_asymptotic_fixed_gap_same_slope():
    # the relaxed tail approximation sits a constant factor below the exact
    # average (it discards the left-plateau mass) but shares its slope
    ratios = []
    for snr_db in (20, 30, 40):
        p = _at(P20, rho=10.0 ** (snr_db / 10.0))
        ratios.append(mn.adep_numerical(p) / mn.adep_asymptotic(p))
    assert all(1.0 < r < 5.0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.05  # gap is fixed in log scale
    s_num = (math.log(mn.adep_numerical(_at(P20, rho=10 ** 3.5)))
             - math.log(mn.adep_numerical(_at(P20, rho=1e3)))) / (0.5 * math.log(10.0))
    assert abs(s_num - (-1.0)) < 0.05


def test_adep_linearized_tracks_numerical():
    # within 5% wherever the error sits in [1e-6, 0.5]
    for snr_db in range(0, 41, 4):
        p = _at(P20, rho=10.0 ** (snr_db / 10.0))
        num = mn.adep_numerical(p)
        if not 1e-6 <= num <= 0.5:
            continue
        lin = mn.adep_linearized(p)
        assert abs(lin - num) <= 0.05 * num, (snr_db, num, lin)


def test_adep_approx_tracks_numerical():
    for snr_db in range(0, 41, 4):
        p = _at(P20, rho=10.0 ** (snr_db / 10.0))
        num = mn.adep_numerical(p)
        if not 1e-5 <= num <= 0.3:
            continue
        app = mn.adep_approx(p)
        assert abs(app - num) <= 0.10 * num, (snr_db, num, app)


def test_adep_approx_domain_error_small_n():
    with pytest.raises(DomainError):
        mn.adep_approx(SystemParams(n_elements=2, rho=10.0))


def test_adep_approx_cubed_knee_overflow_is_named():
    # hi^3 overflows from D/M ~ 340.4 (M = 2), below the ramp's D/M < 510
    # limit: a note naming the knee and D/M, not a bare errno message
    p = SystemParams(n_elements=8, blocklength=2, packet_bits=680.0)
    assert 0.0 <= mn.adep_approx(p) <= 1.0
    with pytest.raises(OverflowError, match=r"^adep_approx needs the cubed upper knee hi\^3 "
                                            r"finite, got hi = \S+ at D/M = 350$"):
        mn.adep_approx(dataclasses.replace(p, packet_bits=700.0))


def test_adep_linearized_step_limit(monkeypatch):
    # mu -> infinity collapses the ramp onto the CDF at the center; probed at
    # mu = 1e5 where CDF differencing across the ramp still has full precision
    p = _at(P20, rho=100.0)
    x0 = 2.0 ** 0.5 - 1.0
    lp = fbl.LinearizationParams(slope_mu=1e5, center_x0=x0)
    monkeypatch.setattr(fbl, "linearization_params", lambda m, d: lp)
    val = mn.adep_linearized(p)
    assert abs(val - snr_cdf_nocsi(x0, p)) <= 1e-4 * snr_cdf_nocsi(x0, p)


@pytest.mark.parametrize("n, m, d", [(1, 200, 100.0), (2, 200, 100.0), (20, 200, 100.0),
                                     (169, 200, 100.0), (1, 2, 0.02)])
def test_adep_linearized_curve_equals_scalar_calls(monkeypatch, n, m, d):
    # one integral call per curve, bit for bit its scalar calls; at N = 1,
    # M = 2, D = 0.02 every rho misses the tolerance on the shared first
    # panel and is refined alone (one numerics._adaptive call per such rho)
    refined = []
    adaptive = numerics._adaptive

    def counting(f, panels, spec):
        refined.append(f)
        return adaptive(f, panels, spec)

    rho = 10.0 ** (np.arange(-40.0, 61.0, 5.0) / 10.0)
    p = SystemParams(n_elements=n, blocklength=m, packet_bits=d, rho=rho)
    scalar = [mn.adep_linearized(_at(p, rho=r)) for r in rho.tolist()]
    monkeypatch.setattr(numerics, "_adaptive", counting)
    curve = mn.adep_linearized(p)
    assert curve.tolist() == scalar
    assert len(refined) == (rho.size if d == 0.02 else 0)


def test_adep_linearized_in_unit_interval():
    for rho in (1e-6, 1.0, 1e4):
        val = mn.adep_linearized(_at(P20, rho=rho))
        assert 0.0 <= val <= 1.0


def test_adep_linearized_converges_with_blocklength():
    # fixed D/M = 1/2; the ramp narrows like 1/sqrt(M)
    rels = []
    for m in (100, 200, 400, 800):
        p = _at(P20, rho=100.0, blocklength=m, packet_bits=m / 2.0)
        num = mn.adep_numerical(p)
        rels.append(abs(mn.adep_linearized(p) - num) / num)
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[-1] < 0.25 * rels[0]


def test_adep_asymptotic_frozen_values():
    p = _at(P20, rho=100.0)
    nats = mn.adep_asymptotic(p, rs_convention="nats")
    bits = mn.adep_asymptotic(p, rs_convention="bits")
    assert abs(nats - 6.612901802796567e-05) <= 1e-12 * nats
    assert abs(bits - 7.709466344691694e-05) <= 1e-12 * bits


def test_adep_asymptotic_slope_exactly_minus_one():
    a = mn.adep_asymptotic(_at(P20, rho=10.0))
    b = mn.adep_asymptotic(_at(P20, rho=10.0 * math.e))
    assert abs(math.log(a / b) - 1.0) < 1e-12


def test_adep_asymptotic_packet_scaling():
    # doubling D multiplies the value by e^(delta r)
    p1 = _at(P20, rho=100.0, packet_bits=100.0)
    p2 = _at(P20, rho=100.0, packet_bits=200.0)
    ratio = mn.adep_asymptotic(p2) / mn.adep_asymptotic(p1)
    assert abs(ratio - math.exp(100.0 * LN2 / 200.0)) < 1e-12 * ratio


def test_adep_asymptotic_needs_two_elements():
    with pytest.raises(DomainError):
        mn.adep_asymptotic(SystemParams(n_elements=1))


def test_adep_monotonicity():
    by_rho = [mn.adep_numerical(_at(P20, rho=10.0 ** (s / 10.0))) for s in (0, 10, 20, 30)]
    assert all(b < a for a, b in zip(by_rho, by_rho[1:]))
    by_n = [mn.adep_numerical(SystemParams(n_elements=n, rho=100.0)) for n in (2, 5, 20, 40)]
    assert all(b < a for a, b in zip(by_n, by_n[1:]))
    by_d = [mn.adep_numerical(_at(P20, rho=100.0, packet_bits=d)) for d in (50.0, 100.0, 150.0)]
    assert all(b > a for a, b in zip(by_d, by_d[1:]))
