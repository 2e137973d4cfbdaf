"""Checks of the benchmark itself, on reduced copies of its workloads."""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.load_irslink()

import checker  # noqa: E402
import passes  # noqa: E402
import workloads  # noqa: E402
from irslink import cli, numerics  # noqa: E402
from irslink.montecarlo import McConfig  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _reduced(curves, points=3, trials=200, max_n=20):
    """The workload's curves cut to a few SNR points, few trials and small N."""
    out = []
    for c in curves:
        if c.n > max_n:
            continue
        start = float(c.spec.snr_grid_db[0])
        stop = start + (points - 1) * c.spec.snr_step_db
        spec = replace(c.spec, snr_start_db=start, snr_stop_db=stop,
                       mc=replace(c.spec.mc, trials=min(c.spec.mc.trials, trials)))
        out.append(workloads.Curve(c.group, spec))
    return out


@pytest.fixture(scope="module")
def small_presets():
    return _reduced(workloads.presets(3))


@pytest.fixture(scope="module")
def traced_presets(small_presets):
    untraced = passes.run_pass(small_presets, fill=True)
    tracer = Tracer()
    with tracer:
        traced = passes.run_pass(small_presets, fill=False)
    return untraced, tracer, traced


def test_traced_csv_is_bit_identical_to_untraced(traced_presets):
    untraced, _, traced = traced_presets
    assert traced.csv == untraced.csv
    assert passes.consistency_problems([untraced, traced]) == []


def test_self_times_account_for_traced_sweep(traced_presets):
    _, tracer, traced = traced_presets
    own = tracer.self_times()
    roots = tracer.span_total("cli.run_sweep") + tracer.span_total("cli.emit_csv")
    assert math.isclose(math.fsum(own.values()), roots, rel_tol=1e-9)
    remainder = traced.sweep_s - math.fsum(own.values())
    assert 0.0 <= remainder <= 0.05 * traced.sweep_s
    assert own["montecarlo"] + own["fbl"] > 0.0


def test_tracer_counts_and_restores_namespaces(traced_presets, small_presets):
    _, tracer, _ = traced_presets
    layers = passes.layer_metrics(small_presets, tracer, traced_presets[2])
    mc_points = sum(c.points for c in small_presets if c.kind == "mc")
    assert layers["montecarlo.calls"] == mc_points
    assert layers["montecarlo.points_per_draw"] == 1.0
    assert layers["numerics.quad.panels"] > 0
    assert layers["numerics.quad.abscissae"] >= 15 * layers["numerics.quad.panels"]
    assert set(f"{layer}.self_s" for layer in LAYERS if layer != "cli") <= set(layers)
    from irslink import metrics_nocsi
    assert metrics_nocsi.integrate_semi_infinite is numerics.integrate_semi_infinite
    assert cli.run_sweep.__module__ == "irslink.cli"
    assert not hasattr(cli.run_sweep, "__wrapped__")


def test_second_seed_keeps_analytic_failures_and_changes_draws():
    results = {}
    for seed in (1, 2):
        curves = _reduced(workloads.analytic_grid(seed), points=12)
        result = passes.run_pass(curves, fill=False)
        failed, problems, points = passes.grade("analytic_grid", curves, result)
        results[seed] = (curves, result, failed, problems)
    (c1, r1, f1, p1), (c2, r2, f2, p2) = results[1], results[2]
    assert p1 == [] and p2 == []
    assert f1 == f2
    for a, b, ra, rb in zip(c1, c2, r1.results, r2.results):
        if a.kind == "mc":
            assert a.spec.mc.seed != b.spec.mc.seed
        else:
            assert a.spec == b.spec and ra.y == rb.y
    assert workloads.presets(5) == workloads.presets(5)


def _curve(metric, mode, method, n, xs, ys, notes=None):
    return cli.MetricCurve(metric, mode, method, n, list(xs), list(ys), notes=notes)


def test_grade_flags_raised_nonfinite_and_out_of_range():
    spec = cli.SweepSpec(metric="adr", mode="csi", methods=("closed_form",),
                         snr_start_db=-30.0, snr_stop_db=0.0, snr_step_db=10.0,
                         n_values=(20,), mc=McConfig())
    curve = _curve("adr", "csi", "closed_form", 20, [-30.0, -20.0, -10.0, 0.0],
                   [None, float("nan"), 1e30, 1.0],
                   notes=["OverflowError: math range error", "", "", ""])
    reasons = [f.reason for f in checker.grade("w", spec, curve)]
    assert len(reasons) == 3
    assert reasons[0].startswith("raised OverflowError")
    assert reasons[1].startswith("non-finite")
    assert "outside" in reasons[2]

    adep = replace(spec, metric="adep", mode="nocsi", methods=("asymptotic",))
    asymptote = _curve("adep", "nocsi", "asymptotic", 20, [-30.0], [40.0])
    assert checker.grade("w", adep, asymptote) == []
    ramp = _curve("adep", "nocsi", "linearized", 20, [-30.0], [1.5])
    assert len(checker.grade("w", adep, ramp)) == 1


def test_cross_check_flags_disagreement():
    num = _curve("adr", "nocsi", "numerical", 8, [0.0], [1.0])
    mc = cli.MetricCurve("adr", "nocsi", "montecarlo", 8, [0.0], [1.2], y_err=[0.01])
    lower = _curve("adr", "nocsi", "lower_bound", 8, [0.0], [0.5])
    upper = _curve("adr", "nocsi", "upper_bound", 8, [0.0], [0.9])
    problems = checker.cross_check([num, mc, lower, upper])
    assert len(problems) == 2
    ok = cli.MetricCurve("adr", "nocsi", "montecarlo", 8, [0.0], [1.02], y_err=[0.01])
    assert checker.cross_check([num, ok, lower, _curve("adr", "nocsi", "upper_bound", 8,
                                                       [0.0], [1.1])]) == []


def test_run_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
