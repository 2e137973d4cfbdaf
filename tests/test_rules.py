"""Fixed quadrature rules behind the "numerical" ADR/ADEP methods.

The rules are checked against the adaptive engine run tight (rel_tol 1e-12,
abs_tol 0) on the density form of each metric, and the no-CSI CDF they
read against mpmath's Bessel K at high precision.
"""

import math
import warnings

import numpy as np
import pytest

from irslink import fbl, metrics_csi as mc, metrics_nocsi as mn
from irslink.channel import (
    NOCSI_MAX_N,
    SystemParams,
    gamma_match,
    log_snr_rule,
    snr_cdf_nocsi,
    snr_pdf_csi,
    snr_pdf_nocsi,
)
from irslink.numerics import QuadratureSpec, integrate_semi_infinite

TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)
PDF = {"nocsi": snr_pdf_nocsi, "csi": snr_pdf_csi}
ADEP = {"nocsi": mn.adep_numerical, "csi": mc.adep_numerical}
ADR = {"nocsi": mn.adr_numerical, "csi": mc.adr_numerical_gamma}
SHANNON = {"nocsi": mn.adr_upper_bound, "csi": mc.shannon_gamma}


def _reference(mode, p, curve):
    """Tight adaptive quadrature of curve(x) against the mode's SNR density."""
    return integrate_semi_infinite(lambda x: curve(x) * PDF[mode](x, p), TIGHT)


def _mp_nocsi_cdf(q, n):
    """1 - (2/(N-1)!) q^(N/2) K_N(2 sqrt(q)) at 130 digits, enough for F >= 1e-100."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(130):
        q = mp.mpf(q)
        return float(1 - 2 * q ** (mp.mpf(n) / 2) * mp.besselk(n, 2 * mp.sqrt(q))
                     / mp.gamma(n))


def _nocsi_cdf_reference(q, n):
    """mpmath above F ~ 1e-100; below, the leading term, exact to relative O(q)."""
    lead = q / (n - 1.0) if n > 1 else q * (1.0 - 2.0 * np.euler_gamma - math.log(q))
    return lead if lead < 1e-100 else _mp_nocsi_cdf(q, n)


# ---------------------------------------------------------------------------
# no-CSI CDF small-argument branch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 8, 40])
def test_nocsi_cdf_relative_accuracy_down_to_1e_300(n):
    p = SystemParams(n_elements=n)
    worst, smallest = 0.0, 1.0
    for q in np.geomspace(1e-301, 0.25 * n, 16):
        ref = _nocsi_cdf_reference(q, n)
        if not 1e-300 <= ref <= 1e-3:
            continue
        smallest = min(smallest, ref)
        worst = max(worst, abs(snr_cdf_nocsi(q, p) - ref) / ref)
    assert smallest < 1e-280
    assert worst <= 1e-10, worst


@pytest.mark.parametrize("n", [1, 2, 8, 40, 169])
def test_nocsi_cdf_branches_meet(n):
    # the series (q <= N/4) and the Bessel form (q > N/4) agree at the switch
    p = SystemParams(n_elements=n)
    q = 0.25 * n
    below, above = snr_cdf_nocsi(np.array([q, np.nextafter(q, np.inf)]), p)
    assert abs(above - below) <= 1e-12 * below
    assert abs(below - _mp_nocsi_cdf(q, n)) <= 1e-12 * below


def test_nocsi_law_fails_past_its_range():
    # N = 256, rho = 0.01 at x = 0.326: the CDF returned 1.0 (mpmath: 0.1200)
    assert NOCSI_MAX_N == 169
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (NOCSI_MAX_N + 1, 171, 256, 1024):
            p = SystemParams(n_elements=n, rho=0.01)
            with pytest.raises(OverflowError):
                snr_cdf_nocsi(0.326, p)
            for metric in (mn.adep_numerical, mn.adep_linearized, mn.adep_approx):
                with pytest.raises(OverflowError):
                    metric(p)
            if n >= 171:  # the ADR rule's scan crosses where K_{N-1} overflows
                for metric in (mn.adr_numerical, mn.adr_upper_bound):
                    with pytest.raises(OverflowError):
                        metric(p)
            if n >= 256:  # z = 11.4 lies in that window
                with pytest.raises(OverflowError):
                    snr_pdf_nocsi(0.326, p)


def test_nocsi_density_past_gamma_overflow():
    # 2b/Gamma(N) underflows for N >= 172; the density is then scaled in log
    # space and stays exact where the Bessel product is representable
    mp = pytest.importorskip("mpmath")
    for n, x in ((172, 5.0), (256, 2000.0)):
        p = SystemParams(n_elements=n, rho=0.01)
        with mp.workdps(50):
            b = mp.mpf(100)
            z = 2 * mp.sqrt(b * x)
            ref = float(2 * b / mp.gamma(n) * (z / 2) ** (n - 1) * mp.besselk(n - 1, z))
        assert abs(snr_pdf_nocsi(x, p) - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# ADR rule in log y
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode,n", [("nocsi", 1), ("nocsi", 20), ("nocsi", 169),
                                    ("csi", 1), ("csi", 20), ("csi", 1024)])
def test_log_snr_rule_moments(mode, n):
    y, w = log_snr_rule(mode, n)
    assert not (y.flags.writeable or w.flags.writeable)
    assert np.all(np.diff(y) > 0.0) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-14
    if mode == "nocsi":
        mean = n  # E |sum conj(g) h|^2 with unit variances
    else:
        m = gamma_match(1.0, 1.0)
        a = n * m.shape
        mean = m.scale ** 2 * a * (a + 1.0)  # theta^2 E[U^2], U ~ Gamma(a, 1)
    assert abs(np.dot(w, y) - mean) <= 1e-12 * mean
    assert log_snr_rule(mode, n) is log_snr_rule(mode, n)


def test_log_snr_rule_rejects_unknown_mode():
    with pytest.raises(ValueError):
        log_snr_rule("bogus", 4)


@pytest.mark.parametrize("mode", ["nocsi", "csi"])
def test_adr_rule_matches_tight_reference(mode):
    ns = (1, 8, 64) + ((256, 1024) if mode == "csi" else ())
    for n in ns:
        for snr_db in (-30, 0, 30, 60):
            for m, eps in ((200, 1e-8), (50, 1e-5)):
                p = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0),
                                 blocklength=m, target_eps=eps, alpha=0.7, beta=2.3)
                ref = _reference(mode, p, lambda x: fbl.achievable_rate(x, m, eps))
                assert abs(ADR[mode](p) - ref) <= 1e-9 * max(abs(ref), 1e-3), (n, snr_db)
                shannon = _reference(mode, p, lambda x: np.log2(1.0 + x))
                assert abs(SHANNON[mode](p) - shannon) <= 1e-9 * shannon, (n, snr_db)


@pytest.mark.parametrize("mode", ["nocsi", "csi"])
def test_numerical_rate_at_median_eps_is_shannon(mode):
    # Qinv(1/2) = 0: the two averages run on the same rule and agree exactly
    p = SystemParams(n_elements=20, rho=3.0, target_eps=0.5)
    assert ADR[mode](p) == SHANNON[mode](p)


# ---------------------------------------------------------------------------
# ADEP rule by parts
# ---------------------------------------------------------------------------

def test_error_rule_nodes_invert_the_q_argument():
    # node x_i sits at Q argument t_i and carries phi(t_i) times its panel
    # weight, so the weights below a panel edge s add up to Phi(s)
    for m, d in ((200, 100.0), (50, 20.0), (2000, 1e-9)):
        x, w = fbl.error_rule(m, d)
        assert not (x.flags.writeable or w.flags.writeable)
        arg = np.sqrt(m / fbl.dispersion(x)) * (np.log1p(x) - d * math.log(2.0) / m)
        assert np.all(np.diff(arg) > 0.0)
        assert -8.0 < arg[0] and arg[-1] < 38.0
        for edge in (0.0, 2.0, 5.0):
            below = math.fsum(w[arg < edge])
            assert abs(below - 0.5 * math.erfc(-edge / math.sqrt(2.0))) <= 1e-14
        assert fbl.error_rule(m, d) is fbl.error_rule(m, d)


@pytest.mark.parametrize("mode", ["nocsi", "csi"])
def test_adep_rule_matches_tight_reference(mode):
    for n in (1, 2, 20, 40):
        for snr_db in range(0, 61, 10):
            for m, d in ((200, 100.0), (50, 20.0)):
                p = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0),
                                 blocklength=m, packet_bits=d)
                ref = _reference(mode, p, lambda x: fbl.decode_error_prob(x, m, d))
                if ref < 1e-300:
                    continue
                assert abs(ADEP[mode](p) - ref) <= 1e-8 * ref, (n, snr_db, m)


@pytest.mark.parametrize("mode", ["nocsi", "csi"])
def test_adep_rule_tiny_and_large_payloads(mode):
    # tiny D puts a sharp turn of x(t) at t = 0; M at both ends of its range
    for m, d in ((200, 1e-9), (200, 1e-3), (50, 1.0), (2000, 100.0), (50, 200.0)):
        for n in (1, 2):
            p = SystemParams(n_elements=n, rho=10.0, blocklength=m, packet_bits=d)
            ref = _reference(mode, p, lambda x: fbl.decode_error_prob(x, m, d))
            assert abs(ADEP[mode](p) - ref) <= 1e-8 * ref, (m, d, n)


def test_adep_rule_steep_csi_law():
    # N = 256 at -30 dB: ADEP ~ 1e-155 with the by-parts peak far out at t ~ 20
    p = SystemParams(n_elements=256, rho=1e-3)
    ref = _reference("csi", p, lambda x: fbl.decode_error_prob(x, 200, 100.0))
    assert 1e-160 < ref < 1e-150
    assert abs(mc.adep_numerical(p) - ref) <= 1e-8 * ref


# ---------------------------------------------------------------------------
# no-CSI ramp by parts
# ---------------------------------------------------------------------------

def _mp_ramp_nocsi(n, rho, m, d):
    """mu int_lo^hi F(x) dx for the no-CSI law at 40 digits.

    With s = 2 sqrt(x/rho) and d/ds[s^(N+1) K_(N+1)(s)] = -s^(N+1) K_N(s),
    int_lo^hi F dx = (hi - lo) - (2 rho/(N-1)!) [G(s_lo) - G(s_hi)] where
    G(s) = (s/2)^(N+1) K_(N+1)(s) and G(0) = N!/2.
    """
    mp = pytest.importorskip("mpmath")
    lp = fbl.linearization_params(m, d)
    lo = max(0.0, lp.center_x0 - 0.5 / lp.slope_mu)
    hi = lp.center_x0 + 0.5 / lp.slope_mu
    with mp.workdps(40):
        def g(x):
            if x == 0.0:
                return mp.factorial(n) / 2
            s = 2 * mp.sqrt(mp.mpf(x) / rho)
            return (s / 2) ** (n + 1) * mp.besselk(n + 1, s)

        integral = mp.mpf(hi) - mp.mpf(lo) - 2 * mp.mpf(rho) / mp.gamma(n) * (g(lo) - g(hi))
        return float(lp.slope_mu * integral)


def test_nocsi_ramp_is_mu_times_cdf_integral():
    # the lower knee clamps at 0 for D = 1 and D = 1e-3; the former moment
    # form was 2.7e-7 off at N = 1, (2000, 1e-3), 0 dB
    for n in (1, 2, 8, 40):
        for snr_db in (0, 20, 40, 60):
            for m, d in ((200, 100.0), (200, 1.0), (2000, 1e-3)):
                rho = 10.0 ** (snr_db / 10.0)
                p = SystemParams(n_elements=n, rho=rho, blocklength=m, packet_bits=d)
                ref = _mp_ramp_nocsi(n, rho, m, d)
                assert abs(mn.adep_linearized(p) - ref) <= 1e-9 * ref, (n, snr_db, m, d)
