"""CSI metric contracts: Gamma-model rate/error forms, the rate gap and the error tail."""

import dataclasses
import logging
import math
import sys

import numpy as np
import pytest

from irslink import fbl, metrics_csi as mc, metrics_nocsi as mn
from irslink.channel import SystemParams, gamma_match, snr_cdf_csi
from irslink.montecarlo import McConfig, empirical_adep, empirical_adr
from irslink.numerics import EULER_GAMMA, digamma, integrate_interval, q_inv

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


def _shannon_minus_penalty(p):
    """The value adr_closed_form equals: the Shannon average minus the unit-dispersion penalty."""
    return mc.shannon_gamma(p) - fbl._rate_penalty(p.blocklength, p.target_eps)


def _printed_closed_form(p):
    """The paper's printed rate closed form at p (a float rho), summed by mpmath at 80 digits."""
    mp = pytest.importorskip("mpmath")
    match = gamma_match(p.alpha, p.beta)
    with mp.workdps(80):
        a, theta, rho = p.n_elements * mp.mpf(match.shape), mp.mpf(match.scale), mp.mpf(p.rho)
        ln2 = mp.log(2)
        z = -1 / (4 * rho * theta ** 2)
        t1 = (mp.hyper([1, 1], [2, (3 - a) / 2, (4 - a) / 2], z)
              / ((a - 1) * (a - 2) * rho * theta ** 2 * ln2))
        s1 = mp.exp(-((a + 1) / 2 * mp.log(rho) + (a + 1) * mp.log(theta) + mp.loggamma(a)))
        t2 = (-mp.pi * mp.sec(mp.pi * a / 2) * mp.hyper([(a + 1) / 2], [1.5, (a + 3) / 2], z)
              * s1 / ((a + 1) * ln2))
        s2 = mp.exp(-(a / 2 * mp.log(rho) + a * mp.log(theta) + mp.loggamma(a)))
        t3 = (mp.pi * mp.csc(mp.pi * a / 2) * mp.hyper([a / 2], [0.5, a / 2 + 1], z)
              * s2 / (a * ln2))
        lead = 2 * (mp.digamma(a) - mp.log(1 / (theta * mp.sqrt(rho)))) / ln2
        penalty = (mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p.target_eps))
                   / (mp.sqrt(p.blocklength) * ln2))
        return float(t1 + t2 + t3 + lead - penalty)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 64, 256, 1024, 1287])
def test_adr_closed_form_matches_printed_series(n):
    # the printed pFq form, summed at 80 digits so that its alternating
    # series keep their digits, is the value adr_closed_form computes through
    # the identity, from the sec/csc pole neighbourhood of N = 1287 to the
    # low-SNR end where the same series summed in doubles cancel
    for snr_db in range(-30, 51, 5):
        p = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0))
        ref = _printed_closed_form(p)
        val = mc.adr_closed_form(p)
        assert abs(val - ref) <= 1e-14 * abs(ref), (snr_db, val, ref)


def test_adr_closed_form_value_at_minus_15_db():
    # the printed formula summed at 80 digits by mpmath (hyper, loggamma, digamma)
    val = mc.adr_closed_form(_at(P20, rho=10.0 ** -1.5))
    assert abs(val - 2.53522511197673) <= 1e-9 * val


def test_adr_closed_form_median_eps_drops_penalty():
    p = _at(P20, target_eps=0.5)
    base = mc.adr_closed_form(P20)
    assert abs(mc.adr_closed_form(p) - base
               - 5.6120012441747887 / (math.sqrt(200.0) * LN2)) < 1e-10


@pytest.mark.parametrize("n, ab, lo_db", [(1, 1.0, -60), (64, 0.03, -30), (1287, 1.0, -30)])
def test_adr_closed_form_curve_is_the_identity(caplog, n, ab, lo_db):
    # the rows the printed series could not reach in double precision: terms
    # that overflow (|z| of order 1e5, from about -51 dB at N = 1 and -21 dB
    # at alpha beta = 9e-4), cancellation at low SNR, and N = 1287, where
    # a = N k comes within 1e-3 of the sec/csc pole at 2072
    rho = 10.0 ** (np.arange(lo_db, 51.0) / 10.0)
    p = SystemParams(n_elements=n, alpha=ab, beta=ab, rho=rho)
    with caplog.at_level(logging.DEBUG, logger="irslink.metrics_csi"):
        curve = mc.adr_closed_form(p)
    assert not caplog.records
    assert list(curve) == [mc.adr_closed_form(_at(p, rho=r)) for r in rho.tolist()]
    assert list(curve) == list(_shannon_minus_penalty(p))
    assert all(b >= a for a, b in zip(curve, curve[1:]))


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
        harm2 = 2.0 * (digamma(a) + EULER_GAMMA)
        alt = (harm2 + math.log(theta0 ** 2 * rab)
               - q_inv(p.target_eps) / math.sqrt(p.blocklength)
               - 2.0 * EULER_GAMMA) / LN2
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
    est = empirical_adep(p, "csi", McConfig(trials=1_000_000, seed=13))
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


def _error_tail_reference(n, blocklength, bits, convention):
    """adep_asymptotic's two forms at 50 digits with mpmath's 1F1, as functions of a float rho.

    Also returns whether a 1F1 value lies beyond the double range, where
    the library raises instead.
    """
    mp = pytest.importorskip("mpmath")
    match = gamma_match(1.0, 1.0)
    rs_float = fbl.packet_rate(blocklength, bits, convention)
    with mp.workdps(50):
        a, theta = n * mp.mpf(match.shape), mp.mpf(match.scale)
        m, rs = mp.mpf(blocklength), mp.mpf(rs_float)
        z = -m * rs ** 2 / 2
        f_a = mp.hyp1f1((2 - a) / 4, mp.mpf(0.5), z)
        f_b = mp.hyp1f1(1 - a / 4, mp.mpf(1.5), z)
        single = (f_a * 2 ** (mp.mpf(1.28564) * a - 2) * m ** (-a / 4)
                  * mp.gamma(a / 4) / mp.gamma(a))
        two = (2 ** (a / 4 - mp.mpf(3.5)) * m ** (-a / 4) * theta ** (-a) / mp.gamma(a)
               * (mp.sqrt(2) * f_a * mp.gamma(a / 4)
                  + 2 * mp.sqrt(m) * rs * f_b * mp.gamma((a + 2) / 4)))
        overflows = max(abs(f_a), abs(f_b)) > sys.float_info.max

    def value(form, rho):
        with mp.workdps(50):
            rho = mp.mpf(rho)
            if form == "single_term":
                return float(single * rho ** (mp.mpf(0.5) - a))
            return float(two * rho ** (-a / 2))

    return value, overflows


@pytest.mark.parametrize("convention", ["nats", "bits"])
@pytest.mark.parametrize("n", [1, 5, 20, 64, 1024])
def test_adep_asymptotic_matches_mpmath(n, convention):
    # scipy's 1F1 keeps its digits where the alternating series cancels
    # (|z| = M r^2/2 up to 900 here); values are compared relatively down to
    # the smallest normal double, and a 1F1 beyond the double range is a
    # named OverflowError, not a NaN
    for blocklength, bits in [(200, 100.0), (50, 300.0), (200, 500.0)]:
        ref, overflows = _error_tail_reference(n, blocklength, bits, convention)
        for form in ("two_term", "single_term"):
            for snr_db in (0, 20, 40, 60):
                p = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0),
                                 blocklength=blocklength, packet_bits=bits)
                if overflows:
                    with pytest.raises(OverflowError, match=r"finite 1F1 tail values.*a = N k"):
                        mc.adep_asymptotic(p, form=form, rs_convention=convention)
                    continue
                val = mc.adep_asymptotic(p, form=form, rs_convention=convention)
                expected = ref(form, p.rho)
                assert abs(val - expected) <= 1e-12 * max(abs(expected), sys.float_info.min), (
                    blocklength, bits, form, snr_db, val, expected)
