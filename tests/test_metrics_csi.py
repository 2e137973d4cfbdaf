"""CSI metric contracts: Gamma-model rate/error forms and the gap/ratio laws."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from irslink import fbl, metrics_csi as mc, metrics_nocsi as mn
from irslink.channel import SystemParams, gamma_match, snr_cdf_csi
from irslink.montecarlo import McConfig, empirical_adep, empirical_adr
from irslink.numerics import integrate_interval, q_inv

P20 = SystemParams(n_elements=20, rho=1.0)
LN2 = math.log(2.0)


def _at(p, **kw):
    return dataclasses.replace(p, **kw)


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_adr_numerical_gamma_headline_value():
    val = mc.adr_numerical_gamma(P20)
    assert 7.1 <= val <= 7.7
    assert abs(val - 7.335732627446646) < 1e-6 * val  # regression


def test_adr_numerical_gamma_median_eps_is_shannon():
    p = _at(P20, target_eps=0.5)
    assert abs(mc.adr_numerical_gamma(p) - mc.shannon_gamma(p)) < 1e-6


def test_adr_numerical_gamma_vs_monte_carlo():
    est = empirical_adr(P20, "csi", McConfig(trials=100_000, seed=42))
    quad = mc.adr_numerical_gamma(P20)
    assert abs(est.value - quad) < 0.015 * quad
    assert abs(est.value - quad) < 2.0 * est.stderr


def test_adr_closed_form_matches_quadrature(caplog):
    for n in (10, 20):
        for rho in (1.0, 10.0, 100.0):
            p = SystemParams(n_elements=n, rho=rho)
            with caplog.at_level(logging.WARNING, logger="irslink.metrics_csi"):
                cf = mc.adr_closed_form(p)
            ng = mc.adr_numerical_gamma(p)
            assert abs(cf - ng) <= 1e-4 * abs(ng), (n, rho)
            assert cf != ng, (n, rho)  # the closed form itself, not a fallback
    assert not caplog.records


def test_adr_closed_form_median_eps_drops_penalty():
    p = _at(P20, target_eps=0.5)
    base = mc.adr_closed_form(P20)
    assert abs(mc.adr_closed_form(p) - base
               - 5.6120012441747887 / (math.sqrt(200.0) * LN2)) < 1e-10


def test_adr_closed_form_pole_fallback(caplog):
    # a = N k comes within POLE_GUARD of the integer 2072 at N = 1287
    p = SystemParams(n_elements=1287, rho=1.0)
    with caplog.at_level(logging.WARNING, logger="irslink.metrics_csi"):
        val = mc.adr_closed_form(p)
    assert len(caplog.records) == 1
    assert caplog.records[0].levelno == logging.WARNING
    assert "pole" in caplog.records[0].message
    assert val == mc.adr_numerical_gamma(p)


def test_adr_closed_form_cancellation_fallback(caplog):
    # z = -1/(4 rho theta^2) grows at low SNR: the alternating pFq series and
    # the terms they feed cancel, and the printed form gave -2.2e34, 8.2e13
    # and 1.43 (against 1.24) at N = 20
    for snr_db in (-30.0, -25.0, -20.0):
        p = _at(P20, rho=10.0 ** (snr_db / 10.0))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="irslink.metrics_csi"):
            val = mc.adr_closed_form(p)
        assert val == mc.adr_numerical_gamma(p), snr_db
        assert len(caplog.records) == 1 and "digits" in caplog.records[0].message
    # at -15 dB the closed form keeps its digits: it matches the same
    # formula summed at 80 digits by mpmath (hyper, loggamma, digamma)
    p = _at(P20, rho=10.0 ** -1.5)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="irslink.metrics_csi"):
        val = mc.adr_closed_form(p)
    assert not caplog.records
    assert abs(val - 2.53522511197673) <= 1e-9 * val


def test_adr_simplified_reference():
    val = mc.adr_simplified(P20)
    assert abs(val - 7.329308462036155) < 1e-12 * val
    assert abs(val - 7.33) < 5e-3


def test_adr_simplified_doubling_rho_adds_one_bit():
    a = mc.adr_simplified(_at(P20, rho=3.0))
    b = mc.adr_simplified(_at(P20, rho=6.0))
    assert abs((b - a) - 1.0) < 1e-12


def test_adr_simplified_harmonic_form_identity():
    # digamma reading of the non-integer harmonic sum reproduces the same value
    m = gamma_match(1.0, 1.0)
    for p in (P20, _at(P20, rho=25.0, alpha=2.0, beta=0.5)):
        a = p.n_elements * m.shape
        theta0 = m.scale
        rab = p.rho * p.alpha * p.beta
        harm2 = 2.0 * (mc.digamma(a) + mc.EULER_GAMMA)
        alt = (harm2 + math.log(theta0 ** 2 * rab)
               - q_inv(p.target_eps) / math.sqrt(p.blocklength)
               - 2.0 * mc.EULER_GAMMA) / LN2
        assert abs(alt - mc.adr_simplified(p)) < 1e-12


def test_adr_simplified_converges_to_quadrature():
    p = _at(P20, rho=1000.0)
    assert abs(mc.adr_simplified(p) - mc.adr_numerical_gamma(p)) < 0.05


def test_rate_gap_value_and_consistency():
    gap = mc.rate_gap(P20)
    assert abs(gap - 4.449) < 1e-3
    diff = mc.adr_simplified(P20) - mn.adr_asymptotic(P20)
    assert abs(gap - diff) < 1e-9
    # channel variances cancel in the gap
    p2 = _at(P20, alpha=4.0, beta=0.5, rho=13.0)
    assert abs(mc.rate_gap(p2) - (mc.adr_simplified(p2) - mn.adr_asymptotic(p2))) < 1e-9


def test_rate_gap_constant_term():
    theta0 = gamma_match(1.0, 1.0).scale
    assert abs(2.0 * math.log2(theta0) - (-2.07103)) < 1e-4


def test_rate_gap_increasing_in_n():
    gaps = [mc.rate_gap(SystemParams(n_elements=n)) for n in (5, 10, 20, 40, 60)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# error probability
# ---------------------------------------------------------------------------

def test_adep_numerical_limits():
    assert mc.adep_numerical(_at(P20, rho=1e-9)) > 1.0 - 1e-3


def test_adep_numerical_beats_nocsi():
    for snr_db in (-10, 0, 10):
        p = _at(P20, rho=10.0 ** (snr_db / 10.0))
        assert mc.adep_numerical(p) < mn.adep_numerical(p)


def test_adep_numerical_vs_monte_carlo():
    # compare where the value is Monte-Carlo measurable
    p = _at(P20, rho=0.01)  # -20 dB, ADEP ~ 2e-5
    est = empirical_adep(p, "csi", McConfig(trials=1_000_000, seed=13, batch=100_000))
    num = mc.adep_numerical(p)
    assert 0.5 < est.value / num < 2.0


def test_adep_linearized_tracks_numerical_where_meaningful():
    # the ramp is accurate while the density is not too steep across it,
    # i.e. for errors above roughly 0.1
    for snr_db in (-30, -28, -26):
        p = _at(P20, rho=10.0 ** (snr_db / 10.0))
        num = mc.adep_numerical(p)
        lin = mc.adep_linearized(p)
        assert abs(lin - num) <= 0.10 * num, (snr_db, num, lin)


def test_adep_linearized_parallel_log_slope():
    # at small errors the ramp value drifts below the quadrature value but
    # the log-log slopes stay close (parallel curves on the usual plots)
    p1, p2 = _at(P20, rho=10.0 ** (-2.0)), _at(P20, rho=10.0 ** (-1.5))
    s_num = math.log(mc.adep_numerical(p2) / mc.adep_numerical(p1))
    s_lin = math.log(mc.adep_linearized(p2) / mc.adep_linearized(p1))
    assert abs(s_lin - s_num) < 0.12 * abs(s_num)


def test_adep_linearized_worse_at_n40():
    # matched error levels: N=40 shows the larger ramp discrepancy
    p20 = _at(P20, rho=10.0 ** (-1.8))
    p40 = SystemParams(n_elements=40, rho=10.0 ** (-2.6))
    dev20 = abs(mc.adep_linearized(p20) / mc.adep_numerical(p20) - 1.0)
    dev40 = abs(mc.adep_linearized(p40) / mc.adep_numerical(p40) - 1.0)
    assert dev40 > dev20


def test_adep_linearized_step_limit(monkeypatch):
    p = _at(P20, rho=0.01)
    x0 = 2.0 ** 0.5 - 1.0
    lp = fbl.LinearizationParams(slope_mu=1e9, center_x0=x0)
    monkeypatch.setattr(fbl, "linearization_params", lambda m, d: lp)
    val = mc.adep_linearized(p)
    ref = snr_cdf_csi(x0, p)
    assert abs(val - ref) <= 1e-4 * ref


def test_adep_linearized_in_unit_interval():
    for rho in (1e-8, 1e-3, 1.0, 1e4):
        val = mc.adep_linearized(_at(P20, rho=rho))
        assert 0.0 <= val <= 1.0


def test_clamp_prob_clips_silently(caplog):
    # one silent clamp serves the probability outputs of both modes
    with caplog.at_level(logging.DEBUG, logger="irslink"):
        assert fbl._clamp_prob(1.5) == 1.0
        assert fbl._clamp_prob(-0.1) == 0.0
        assert fbl._clamp_prob(0.3) == 0.3
        assert math.isnan(fbl._clamp_prob(math.nan))
    assert not caplog.records
    assert mc._clamp_prob is mn._clamp_prob is fbl._clamp_prob


def test_ramp_moment_closed_form_vs_quadrature():
    # acceptance-grade fidelity of the antiderivative pair
    lp = fbl.linearization_params(200, 100.0)
    lo, hi = max(0.0, lp.knee_lo), lp.knee_hi
    for n in (20, 40):
        for rho in (0.01, 0.1, 1.0, 100.0):
            p = SystemParams(n_elements=n, rho=rho)
            m = gamma_match(1.0, 1.0)
            a = n * m.shape
            closed = mc.ramp_moment_closed_form(p, m, lp)
            quad = integrate_interval(
                lambda t: t ** (0.5 * a) * np.exp(-np.sqrt(t / rho) / m.scale), lo, hi)
            assert abs(closed - quad) <= 1e-6 * quad, (n, rho)


def test_ramp_moment_literal_upper_form_where_representable():
    # small shape and low SNR keep the upper-gamma difference well conditioned
    p = SystemParams(n_elements=2, rho=0.005)
    m = gamma_match(1.0, 1.0)
    lp = fbl.linearization_params(200, 100.0)
    a = 2 * m.shape
    lo, hi = max(0.0, lp.knee_lo), lp.knee_hi
    literal = mc.ramp_moment_closed_form(p, m, lp, literal_upper=True)
    quad = integrate_interval(
        lambda t: t ** (0.5 * a) * np.exp(-np.sqrt(t / 0.005) / m.scale), lo, hi)
    assert abs(literal - quad) <= 1e-6 * quad


def test_adep_asymptotic_two_vs_single_term():
    two = mc.adep_asymptotic(P20, form="two_term")
    one = mc.adep_asymptotic(P20, form="single_term")
    assert 0.5 < two / one < 2.0
    with pytest.raises(ValueError):
        mc.adep_asymptotic(P20, form="three_term")


def test_adep_asymptotic_single_term_exponent():
    # slope of ln(eps) vs ln(alpha beta rho) is exactly 1/2 - N k
    a = 20 * gamma_match(1.0, 1.0).shape
    v1 = mc.adep_asymptotic(_at(P20, rho=2.0), form="single_term")
    v2 = mc.adep_asymptotic(_at(P20, rho=2.0 * math.e), form="single_term")
    assert abs(math.log(v2 / v1) - (0.5 - a)) < 1e-3


def test_adep_asymptotic_two_term_exponent():
    a = 20 * gamma_match(1.0, 1.0).shape
    v1 = mc.adep_asymptotic(_at(P20, rho=2.0))
    v2 = mc.adep_asymptotic(_at(P20, rho=2.0 * math.e))
    assert abs(math.log(v2 / v1) - (-0.5 * a)) < 1e-9


def test_adep_asymptotic_decreasing_in_rho():
    vals = [mc.adep_asymptotic(_at(P20, rho=r)) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_adep_ratio_consistency_and_exponent():
    p = _at(P20, rho=2.0)
    quotient = mc.adep_asymptotic(p) / mn.adep_asymptotic(p)
    assert abs(mc.adep_ratio(p) - quotient) <= 1e-9 * quotient
    a = 20 * gamma_match(1.0, 1.0).shape
    r1, r2 = mc.adep_ratio(p), mc.adep_ratio(_at(P20, rho=2.0 * math.e))
    assert abs(math.log(r2 / r1) - (1.0 - 0.5 * a)) < 1e-9


def test_adep_ratio_below_one_at_unit_snr_and_up():
    for rho in (1.0, 10.0, 100.0):
        assert mc.adep_ratio(_at(P20, rho=rho)) < 1.0


def test_adep_ratio_matches_printed_constant_structure():
    # reconstruction with the reported decimal constants 0.199471 / 0.891137
    # agrees with the exact quotient to those constants' rounding level
    p = P20
    m = gamma_match(1.0, 1.0)
    a = 20 * m.shape
    mblk = p.blocklength
    rs = fbl.packet_rate(mblk, p.packet_bits, "nats")
    f_a = mc.hyp_pfq([0.25 * (2.0 - a)], [0.5], -0.5 * mblk * rs * rs)
    log_printed = (math.log(0.199471) + math.lgamma(20.0) - math.lgamma(19.0)
                   + (0.5 - 0.25 * a) * math.log(mblk) + math.lgamma(0.25 * a)
                   + 0.891137 * a - 0.5 / mblk - rs - math.lgamma(a))
    printed = f_a * math.exp(log_printed)
    assert abs(printed / mc.adep_ratio(p) - 1.0) < 0.02
