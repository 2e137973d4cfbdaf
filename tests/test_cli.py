"""CLI contracts: sweep validation, CSV format, presets, exit codes."""

import csv
import io
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import irslink
from irslink import cli, metrics_csi, metrics_nocsi, montecarlo
from irslink.channel import SystemParams
from irslink.cli import MetricCurve, PRESETS, SweepSpec, emit_csv, main, run_sweep
from irslink.montecarlo import McConfig
from irslink.numerics import NonConvergenceError, ToleranceError

FAST_MC = McConfig(trials=50, seed=1)

# The library call behind each CLI method, written out independently of the
# CLI's own table; an alias is checked against its target's call.
ALIAS_TARGETS = {
    ("adr", "nocsi", "approx"): "lower_bound",
    ("adr", "nocsi", "shannon"): "upper_bound",
    ("adr", "csi", "approx"): "closed_form",
}
LIBRARY_CALLS = {
    ("adr", "nocsi", "numerical"): metrics_nocsi.adr_numerical,
    ("adr", "nocsi", "lower_bound"): metrics_nocsi.adr_lower_bound,
    ("adr", "nocsi", "upper_bound"): metrics_nocsi.adr_upper_bound,
    ("adr", "nocsi", "asymptotic"): metrics_nocsi.adr_asymptotic,
    ("adr", "nocsi", "montecarlo"): lambda p: montecarlo.empirical_adr(p, "nocsi", FAST_MC),
    ("adr", "csi", "numerical"): metrics_csi.adr_numerical_gamma,
    ("adr", "csi", "closed_form"): metrics_csi.adr_closed_form,
    ("adr", "csi", "asymptotic"): metrics_csi.adr_simplified,
    ("adr", "csi", "shannon"): metrics_csi.shannon_gamma,
    ("adr", "csi", "montecarlo"): lambda p: montecarlo.empirical_adr(p, "csi", FAST_MC),
    ("adep", "nocsi", "numerical"): metrics_nocsi.adep_numerical,
    ("adep", "nocsi", "linearized"): metrics_nocsi.adep_linearized,
    ("adep", "nocsi", "approx"): metrics_nocsi.adep_approx,
    ("adep", "nocsi", "asymptotic"): metrics_nocsi.adep_asymptotic,
    ("adep", "nocsi", "montecarlo"): lambda p: montecarlo.empirical_adep(p, "nocsi", FAST_MC),
    ("adep", "csi", "numerical"): metrics_csi.adep_numerical,
    ("adep", "csi", "linearized"): metrics_csi.adep_linearized,
    ("adep", "csi", "asymptotic"): metrics_csi.adep_asymptotic,
    ("adep", "csi", "montecarlo"): lambda p: montecarlo.empirical_adep(p, "csi", FAST_MC),
}


def small_spec(**kw):
    base = dict(metric="adr", mode="nocsi", methods=("numerical", "asymptotic"),
                snr_start_db=0.0, snr_stop_db=4.0, snr_step_db=2.0,
                n_values=(2,), mc=FAST_MC)
    base.update(kw)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_empty_methods():
    with pytest.raises(ValueError):
        small_spec(methods=())


def test_spec_rejects_method_mode_mismatch():
    with pytest.raises(ValueError):
        small_spec(methods=("lower_bound",), mode="csi")
    with pytest.raises(ValueError):
        small_spec(metric="adep", methods=("upper_bound",))


def test_spec_rejects_bad_grid():
    with pytest.raises(ValueError):
        small_spec(snr_step_db=0.0)
    with pytest.raises(ValueError):
        small_spec(snr_stop_db=-20.0)


@pytest.mark.parametrize("bad", [
    dict(n_values=(0,)), dict(n_values=(2, 2.5)), dict(blocklength=0),
    dict(target_eps=2.0), dict(alpha=-1.0), dict(beta=0.0), dict(packet_bits=0.0)])
def test_spec_rejects_bad_parameter_block(bad):
    with pytest.raises(ValueError):
        small_spec(**bad)


def test_spec_grid_inclusive():
    assert list(small_spec().snr_grid_db) == [0.0, 2.0, 4.0]


def test_curve_validation():
    with pytest.raises(ValueError):
        MetricCurve(metric="adr", mode="nocsi", method="numerical", n=2,
                    x=[0.0, 0.0], y=[1.0, 2.0])
    with pytest.raises(ValueError):
        MetricCurve(metric="adr", mode="nocsi", method="numerical", n=2,
                    x=[0.0], y=[1.0, 2.0])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("metric,mode,method", [
    (metric, mode, method)
    for (metric, mode), methods in cli.VALID_METHODS.items() for method in methods])
def test_run_sweep_shape_and_values(metric, mode, method):
    spec = small_spec(metric=metric, mode=mode, methods=(method,),
                      snr_start_db=2.0, snr_stop_db=2.0, n_values=(3,))
    (c,) = run_sweep(spec)
    assert (c.metric, c.mode, c.method, c.n, c.x) == (metric, mode, method, 3, [2.0])
    target = ALIAS_TARGETS.get((metric, mode, method), method)
    direct = LIBRARY_CALLS[(metric, mode, target)](SystemParams(n_elements=3, rho=10.0 ** 0.2))
    if method == "montecarlo":
        assert c.y == [direct.value] and c.y_err == [direct.stderr]
    else:
        assert c.y == [direct] and c.y_err is None
    if target != method:
        (t,) = run_sweep(replace(spec, methods=(target,)))
        assert t.y == c.y


def _library_point(call, params):
    """(value, note) of one library call, as run_sweep records it."""
    try:
        return call(params), ""
    except (ToleranceError, NonConvergenceError, OverflowError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("metric,mode,method", [
    (metric, mode, method)
    for (metric, mode), methods in cli.VALID_METHODS.items() for method in methods
    if method != "montecarlo"])
def test_point_does_not_depend_on_its_curve(metric, mode, method):
    # a rule-based curve is one batched call; -30..50 dB crosses both
    # branches of the no-CSI CDF at every N
    call = LIBRARY_CALLS[(metric, mode, ALIAS_TARGETS.get((metric, mode, method), method))]
    for n in (1, 20, 64):
        spec = small_spec(metric=metric, mode=mode, methods=(method,), n_values=(n,),
                          snr_start_db=-30.0, snr_stop_db=50.0, snr_step_db=10.0)
        buf = io.StringIO()
        (curve,) = run_sweep(spec)
        emit_csv([curve], buf)
        rows = buf.getvalue().splitlines()[1:]
        assert len(rows) == 9
        for i, snr_db in enumerate(spec.snr_grid_db):
            one = io.StringIO()
            emit_csv(run_sweep(replace(spec, snr_start_db=snr_db, snr_stop_db=snr_db)), one)
            assert one.getvalue().splitlines()[1:] == [rows[i]], (n, snr_db)
            value, note = _library_point(
                call, SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0)))
            assert (curve.y[i], curve.notes[i]) == (value, note), (n, snr_db)


@pytest.mark.parametrize("metric", ["adep", "adr"])
def test_batched_sweep_memory_bounded_by_block(metric):
    # an 81-point no-CSI curve is one call, evaluated in row blocks
    spec = small_spec(metric=metric, methods=("numerical",), n_values=(64,),
                      snr_start_db=-30.0, snr_stop_db=50.0, snr_step_db=1.0)
    run_sweep(spec)  # the cached rules are built outside the measurement
    tracemalloc.start()
    try:
        run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_run_sweep_montecarlo_has_error_bars():
    curves = run_sweep(small_spec(methods=("montecarlo",)))
    (c,) = curves
    assert c.y_err is not None and all(e > 0.0 for e in c.y_err)


def test_run_sweep_records_failures(monkeypatch):
    def boom(params):
        raise ToleranceError("stub failure", 0.0, 1.0)
    monkeypatch.setattr(metrics_nocsi, "adr_numerical", boom)
    curves = run_sweep(small_spec(methods=("numerical",)))
    (c,) = curves
    assert all(y is None for y in c.y)
    assert all("ToleranceError" in note for note in c.notes)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_emit_csv_roundtrip():
    curves = run_sweep(small_spec())
    buf = io.StringIO()
    emit_csv(curves, buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == 6
    assert list(rows[0].keys()) == ["metric", "mode", "method", "n", "snr_db",
                                    "value", "stderr", "note"]
    by_key = {(r["method"], float(r["snr_db"])): r for r in rows}
    for c in curves:
        for x, y in zip(c.x, c.y):
            # 17 significant digits round-trip exactly
            assert float(by_key[(c.method, x)]["value"]) == y


def test_emit_csv_quotes_notes_with_commas():
    # the overflow note of the N = 256 no-CSI rate names both n and z
    curves = run_sweep(small_spec(methods=("asymptotic", "numerical"), n_values=(256,),
                                  snr_stop_db=0.0))
    buf = io.StringIO()
    emit_csv(curves, buf)
    text = buf.getvalue()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["method"] for r in rows] == ["asymptotic", "numerical"]
    assert all(None not in r for r in rows)  # no surplus fields
    failed = rows[1]
    assert failed["value"] == "" and failed["stderr"] == ""
    assert failed["note"] == curves[1].notes[0]
    assert failed["note"].startswith("OverflowError:") and "n=255, z=" in failed["note"]
    # a row without a comma in any field is written unquoted
    assert text.splitlines()[1] == f"adr,nocsi,asymptotic,256,0,{curves[0].y[0]:.17g},,"


def test_emit_csv_path_and_errors(tmp_path):
    curves = run_sweep(small_spec(methods=("asymptotic",)))
    dest = tmp_path / "out.csv"
    emit_csv(curves, dest)
    assert dest.read_text().startswith("metric,mode,method,n,snr_db,value,stderr,note")
    with pytest.raises(OSError):
        emit_csv(curves, tmp_path / "no" / "such" / "dir.csv")


# ---------------------------------------------------------------------------
# presets and settings merge
# ---------------------------------------------------------------------------

def test_presets_use_reference_parameter_block():
    assert set(PRESETS) == {"fig2", "fig3", "fig4", "fig5"}
    for name, preset in PRESETS.items():
        merged = dict(cli._BASE_DEFAULTS)
        merged.update(preset)
        assert merged["alpha"] == 1.0 and merged["beta"] == 1.0
        assert merged["m"] == 200
        assert merged["eps"] == 1e-8
        assert merged["bits"] == 100.0
        assert merged["trials"] == 10_000
        assert merged["n"] == "20,40"
    assert PRESETS["fig2"]["metric"] == "adr" and PRESETS["fig2"]["mode"] == "nocsi"
    assert PRESETS["fig5"]["metric"] == "adep" and PRESETS["fig5"]["mode"] == "csi"
    assert "linearized" in PRESETS["fig5"]["methods"]


def test_fig2_row_count(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["--preset", "fig2", "--trials", "10", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    grid_points = 21
    assert len(rows) - 1 == 5 * 2 * grid_points


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("alpha = 2.0\nsnr_stop = 0.0\nsnr_start=0.0\n# comment\n")
    out = tmp_path / "o.csv"
    code = main(["--preset", "fig2", "--config", str(cfg), "--trials", "10",
                 "--methods", "asymptotic", "--alpha", "4.0", "--n", "3",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1  # single grid point from config
    expect = metrics_nocsi.adr_asymptotic(
        SystemParams(n_elements=3, alpha=4.0, rho=1.0))  # flag wins over config
    assert float(rows[0]["value"]) == expect


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor=9\n")
    assert main(["--config", str(cfg)]) == 1


def test_config_file_values_convert_like_flags(tmp_path):
    args = ["--metric", "adep", "--methods", "asymptotic", "--n", "3",
            "--snr-start", "0", "--snr-stop", "0"]
    cfg = tmp_path / "m.cfg"
    cfg.write_text("m = 300\nbits = 50\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert main(args + ["--config", str(cfg), "--out", str(from_file)]) == 0
    assert main(args + ["--m", "300", "--bits", "50", "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    cfg.write_text("m = 300.0\n")
    assert main(args + ["--config", str(cfg)]) == 1


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------

def test_exit_invalid_invocation():
    assert main(["--metric", "bogus"]) == 1
    assert main(["--metric", "adr", "--mode", "csi", "--methods", "lower_bound"]) == 1
    assert main(["--snr-step", "-2"]) == 1
    # a standard error needs two trials
    assert main(["--methods", "montecarlo", "--trials", "1",
                 "--snr-start", "0", "--snr-stop", "0"]) == 1


@pytest.mark.parametrize("flag,value", [
    ("--n", "0"), ("--m", "0"), ("--eps", "2"), ("--alpha", "-1"), ("--bits", "0")])
def test_exit_invalid_parameter_block(capsys, flag, value):
    code = main(["--methods", "asymptotic", "--snr-start", "0", "--snr-stop", "0",
                 flag, value])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("irslink: error: ")


def test_exit_partial_failure(monkeypatch, tmp_path, capsys):
    def boom(params):
        raise ToleranceError("stub failure", 0.0, 1.0)
    monkeypatch.setattr(metrics_nocsi, "adr_numerical", boom)
    out = tmp_path / "x.csv"
    code = main(["--methods", "numerical,asymptotic", "--n", "2",
                 "--snr-start", "0", "--snr-stop", "2", "--snr-step", "2",
                 "--out", str(out)])
    assert code == 2
    text = out.read_text()
    assert "ToleranceError" in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_is_a_failed_point(monkeypatch, tmp_path, bad):
    monkeypatch.setattr(metrics_nocsi, "adep_linearized", lambda params: bad)
    out = tmp_path / "x.csv"
    code = main(["--metric", "adep", "--mode", "nocsi", "--methods", "linearized",
                 "--n", "2", "--snr-start", "0", "--snr-stop", "2", "--snr-step", "2",
                 "--out", str(out)])
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2
    assert all(r["value"] == "" and r["stderr"] == "" for r in rows)
    assert all(r["note"] == f"non-finite value {bad}" for r in rows)


def test_cli_csv_identical_across_batch_sizes(tmp_path):
    outs = []
    for batch in ("100", "137", "1000"):
        dest = tmp_path / f"b{batch}.csv"
        code = main(["--metric", "adep", "--mode", "csi", "--methods", "montecarlo",
                     "--n", "4", "--snr-start", "0", "--snr-stop", "4",
                     "--snr-step", "2", "--trials", "1000", "--seed", "5",
                     "--batch", batch, "--out", str(dest)])
        assert code == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_rs_convention_flag_changes_asymptotics(tmp_path):
    vals = {}
    for conv in ("nats", "bits"):
        dest = tmp_path / f"{conv}.csv"
        code = main(["--metric", "adep", "--mode", "nocsi", "--methods", "asymptotic",
                     "--n", "20", "--snr-start", "20", "--snr-stop", "20",
                     "--snr-step", "1", "--rs-convention", conv, "--out", str(dest)])
        assert code == 0
        vals[conv] = float(list(csv.DictReader(dest.open()))[0]["value"])
    assert abs(vals["nats"] - 6.612901802796567e-05) < 1e-15
    assert abs(vals["bits"] - 7.709466344691694e-05) < 1e-15


def test_stdout_output(capsys):
    code = main(["--methods", "asymptotic", "--n", "2", "--snr-start", "0",
                 "--snr-stop", "0", "--snr-step", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("metric,mode,method,n,snr_db,value,stderr,note")


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(irslink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "irslink.cli",
         "--methods", "asymptotic", "--n", "2", "--snr-start", "0", "--snr-stop", "0",
         "--snr-step", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("metric,mode,method,n,snr_db,value,stderr,note")
