"""Acceptance criteria: every numbered exit check at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each criterion is one test; the printed line carries the
measured quantities next to their thresholds.
"""

import dataclasses
import io
import math

import numpy as np
import pytest

from irslink import fbl, metrics_csi as mc, metrics_nocsi as mn, montecarlo as mo
from irslink.channel import (
    SystemParams,
    gamma_match,
    snr_cdf_csi,
    snr_cdf_nocsi,
    snr_pdf_csi,
    snr_pdf_nocsi,
)
from irslink.cli import SweepSpec, emit_csv, run_sweep
from irslink.montecarlo import McConfig
from irslink.numerics import DomainError, QuadratureSpec, integrate_interval, \
    integrate_semi_infinite, q_inv

LN2 = math.log(2.0)
P20 = SystemParams(n_elements=20, rho=1.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_distribution_correctness():
    tight = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_subdivisions=2000)
    worst_cdf = 0.0
    worst_norm = 0.0
    for n in (1, 2, 5, 10, 20, 40):
        for rho in (1.0, 100.0):
            p = SystemParams(n_elements=n, rho=rho)
            norm = integrate_semi_infinite(lambda x: snr_pdf_nocsi(x, p))
            norm_csi = integrate_semi_infinite(lambda x: snr_pdf_csi(x, p))
            worst_norm = max(worst_norm, abs(norm - 1.0), abs(norm_csi - 1.0))
            grid = np.geomspace(1e-6, 20.0, 200) * rho * n
            cum, prev = 0.0, 0.0
            for x in grid:
                cum += integrate_interval(lambda t: snr_pdf_nocsi(t, p), prev, x, tight)
                prev = x
                worst_cdf = max(worst_cdf, abs(cum - snr_cdf_nocsi(x, p)))
    _report(1, worst_cdf < 1e-8 and worst_norm < 1e-6,
            f"CDF-vs-quadrature max abs diff {worst_cdf:.2e} (< 1e-8), "
            f"PDF normalization worst |err| {worst_norm:.2e} (< 1e-6)")


def test_criterion_02_gamma_fit_ks():
    grid = np.geomspace(1.0, 2e3, 600)
    emp = mo.empirical_snr_cdf(P20, "csi", McConfig(trials=100_000, seed=7), grid)
    ks = float(np.max(np.abs(emp - snr_cdf_csi(grid, P20))))
    _report(2, ks < 0.02, f"KS distance of Gamma-model CDF vs 1e5 draws: {ks:.4f} (< 0.02)")


def test_criterion_03_headline_rates():
    adr_n = mn.adr_numerical(P20)
    adr_c = mc.adr_numerical_gamma(P20)
    mcfg = McConfig(trials=100_000, seed=42)
    est_n = mo.empirical_adr(P20, "nocsi", mcfg)
    est_c = mo.empirical_adr(P20, "csi", mcfg)
    ok = (2.7 <= adr_n <= 3.3 and 7.1 <= adr_c <= 7.7
          and abs(est_n.value - adr_n) < 2.0 * est_n.stderr
          and abs(est_c.value - adr_c) < 2.0 * est_c.stderr)
    _report(3, ok,
            f"no-CSI {adr_n:.3f} in [2.7,3.3], CSI {adr_c:.3f} in [7.1,7.7]; "
            f"MC z-scores {abs(est_n.value-adr_n)/est_n.stderr:.2f}, "
            f"{abs(est_c.value-adr_c)/est_c.stderr:.2f} (< 2)")


def test_criterion_04_shannon_gap():
    p = dataclasses.replace(P20, rho=1000.0)
    gap = mn.adr_upper_bound(p) - mn.adr_numerical(p)
    expect = q_inv(1e-8) / (math.sqrt(200.0) * LN2)
    _report(4, abs(gap - expect) < 0.02,
            f"Shannon gap at 30 dB: {gap:.4f} vs {expect:.4f} "
            f"(|diff| {abs(gap-expect):.2e} < 0.02)")


def test_criterion_05_bound_ordering():
    violations = 0
    for n in (20, 40):
        for snr_db in range(-10, 31, 2):
            p = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0))
            lo, mid, hi = (mn.adr_lower_bound(p), mn.adr_numerical(p),
                           mn.adr_upper_bound(p))
            if not lo <= mid <= hi:
                violations += 1
    _report(5, violations == 0,
            f"lower <= numerical <= upper violations over N={{20,40}} x "
            f"[-10..30] dB: {violations} (== 0)")


def test_criterion_06_adr_asymptotics():
    worst_nocsi = 0.0
    worst_csi = 0.0
    for n in (20, 40):
        p = SystemParams(n_elements=n, rho=1000.0)
        worst_nocsi = max(worst_nocsi, abs(mn.adr_asymptotic(p) - mn.adr_numerical(p)))
        worst_csi = max(worst_csi, abs(mc.adr_simplified(p) - mc.adr_numerical_gamma(p)))
    _report(6, worst_nocsi < 0.05 and worst_csi < 0.05,
            f"at 30 dB: no-CSI |asym - num| {worst_nocsi:.4f}, "
            f"CSI |simplified - num| {worst_csi:.4f} (both < 0.05 bits)")


def test_criterion_07_adep_consistency():
    worst_lin = 0.0
    worst_app = 0.0
    checked = 0
    for snr_db in range(0, 41, 2):
        p = dataclasses.replace(P20, rho=10.0 ** (snr_db / 10.0))
        num = mn.adep_numerical(p)
        if not 1e-6 <= num <= 0.5:
            continue
        checked += 1
        worst_lin = max(worst_lin, abs(mn.adep_linearized(p) - num) / num)
        worst_app = max(worst_app, abs(mn.adep_approx(p) - num) / num)
    with pytest.raises(DomainError):
        mn.adep_approx(SystemParams(n_elements=2, rho=10.0))
    _report(7, checked > 5 and worst_lin < 0.05 and worst_app < 0.10,
            f"over {checked} grid points with ADEP in [1e-6, 0.5]: linear ramp "
            f"worst rel dev {worst_lin:.4f} (< 0.05), kernel approx "
            f"{worst_app:.4f} (< 0.10); N<3 raises domain error")


def test_criterion_08_diversity_slope():
    dbs = np.array([30.0, 32.5, 35.0, 37.5, 40.0])
    rhos = 10.0 ** (dbs / 10.0)
    eps = [mn.adep_numerical(dataclasses.replace(P20, rho=r)) for r in rhos]
    slope = float(np.polyfit(np.log(rhos), np.log(eps), 1)[0])
    v1 = mn.adep_asymptotic(dataclasses.replace(P20, rho=1e3))
    v2 = mn.adep_asymptotic(dataclasses.replace(P20, rho=1e4))
    formula_slope = math.log(v2 / v1) / math.log(10.0)
    ok = -1.05 <= slope <= -0.95 and abs(formula_slope + 1.0) < 1e-12
    _report(8, ok,
            f"fitted log-log slope over 30-40 dB: {slope:.4f} (in [-1.05,-0.95]); "
            f"closed-form slope {formula_slope:.12f} (== -1)")


def test_criterion_09_gap_formula():
    gap = mc.rate_gap(P20)
    diff = mc.adr_simplified(P20) - mn.adr_asymptotic(P20)
    _report(9, abs(gap - diff) < 1e-6 and abs(gap - 4.449) < 5e-3,
            f"rate gap {gap:.6f} vs simplified-minus-asymptotic {diff:.6f} "
            f"(|diff| {abs(gap-diff):.2e} < 1e-6; value ~ 4.449)")


def test_criterion_10_per_realization_dominance():
    violations = 0
    for n in (1, 2, 5, 10, 20, 40):
        p = SystemParams(n_elements=n, rho=1.0)
        csi = mo._snr_block(p, "csi", 11, 0, 10_000)
        nocsi = mo._snr_block(p, "nocsi", 11, 0, 10_000)
        violations += int(np.sum(csi < nocsi * (1.0 - 1e-12)))
    m, d = P20.blocklength, P20.packet_bits
    csi = mo._snr_block(P20, "csi", 23, 0, 10_000)
    nocsi = mo._snr_block(P20, "nocsi", 23, 0, 10_000)
    err_violation = int(np.sum(fbl.decode_error_prob(csi, m, d)
                               > fbl.decode_error_prob(nocsi, m, d)))
    _report(10, violations == 0 and err_violation == 0,
            f"SNR dominance violations over 1e4 draws x 6 N values: {violations}; "
            f"per-seed error-prob dominance violations: {err_violation} (== 0)")


def test_criterion_11_determinism_across_batches(monkeypatch):
    outputs = []
    for batch in (137, 1_000, 10_000):
        monkeypatch.setattr(mo, "_CHUNK_TRIALS", batch)
        spec = SweepSpec(metric="adep", mode="csi", methods=("montecarlo",),
                         snr_start_db=-10.0, snr_stop_db=0.0, snr_step_db=5.0,
                         n_values=(20,), mc=McConfig(trials=10_000, seed=99))
        buf = io.StringIO()
        emit_csv(run_sweep(spec), buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(11, ok, "Monte-Carlo sweep CSV bit-identical across batch sizes "
                    "137/1000/10000 at fixed (seed, trials)")


def test_criterion_12_printed_formula_fidelity():
    lp = fbl.linearization_params(200, 100.0)
    lo, hi = max(0.0, lp.knee_lo), lp.knee_hi
    worst = 0.0
    for n in (20, 40):
        for rho in (0.01, 1.0, 100.0):
            p = SystemParams(n_elements=n, rho=rho)
            m = gamma_match(1.0, 1.0)
            a = n * m.shape
            closed = mc.ramp_moment_closed_form(p, m, lp)
            quad = integrate_interval(
                lambda t: t ** (0.5 * a) * np.exp(-np.sqrt(t / rho) / m.scale),
                lo, hi)
            worst = max(worst, abs(closed - quad) / quad)
    a20 = 20 * gamma_match(1.0, 1.0).shape
    v1 = mc.adep_asymptotic(dataclasses.replace(P20, rho=2.0), form="single_term")
    v2 = mc.adep_asymptotic(dataclasses.replace(P20, rho=2.0 * math.e),
                            form="single_term")
    slope_err = abs(math.log(v2 / v1) - (0.5 - a20))
    _report(12, worst < 1e-6 and slope_err < 1e-3,
            f"ramp-moment closed form vs quadrature worst rel dev {worst:.2e} "
            f"(< 1e-6); collapsed-form SNR exponent error {slope_err:.2e} (< 1e-3)")
