"""Timed passes over a workload and the metrics derived from them.

A visit to a group evaluates each of its curves through `cli.run_sweep`
and writes them with `cli.emit_csv` to an in-memory sink, the way one CLI
invocation per preset would.  An untraced pass cycles over the groups
until its deadline and stops after any group, so a run overshoots its
length by one group at most.  Every curve's time is the median of its
samples.

On a shared host the CPU speed can change by tens of percent over
seconds, so a curve timed only at its one or two visits reads whatever
phase those fell in.  Curves cheaper than CHEAP_S are therefore also
sampled between all other evaluations (for FILL_SHARE of their time),
which spreads their samples over the whole run.  Traced passes visit every group once, without
extra samples, so their counts are those of one pass.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

from irslink import cli

import checker
from tracer import LAYERS, Tracer

CHEAP_S = 0.2
FILL_SHARE = 0.25
KINDS = ("mc", "quad", "closed")


@dataclass
class PassResult:
    """Samples of one or more cycles over the workload's groups.

    curve_s[i] holds one time per evaluation of curve i and emit_s[group]
    one per visit; results and csv are those of the first evaluation.
    """

    curve_s: list[list[float]]
    emit_s: dict[str, list[float]] = field(default_factory=dict)
    csv: dict[str, str] = field(default_factory=dict)
    results: list = field(default_factory=list)
    sweeps: int = 0
    raised: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def sweep_s(self) -> float:
        """One cycle's time, from the median of every curve and emit."""
        return (math.fsum(statistics.median(t) for t in self.curve_s)
                + math.fsum(statistics.median(t) for t in self.emit_s.values()))


def groups(curves) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, c in enumerate(curves):
        out.setdefault(c.group, []).append(i)
    return out


def _evaluate(curve):
    """One run_sweep call; an exception out of it becomes an all-failed curve."""
    try:
        return cli.run_sweep(curve.spec), False
    except Exception as exc:  # the sweep must report per-point failures, not raise
        grid = [float(v) for v in curve.spec.snr_grid_db]
        note = f"run_sweep raised {type(exc).__name__}: {exc}"
        return [cli.MetricCurve(curve.spec.metric, curve.spec.mode, curve.method, curve.n,
                                grid, [None] * len(grid), notes=[note] * len(grid))], True


def _fingerprint(curve) -> str:
    return repr((curve.method, curve.n, curve.x, curve.y, curve.y_err, curve.notes))


def run_pass(curves, fill: bool, deadline: float | None = None) -> PassResult:
    """Visit every group once, then keep cycling until `deadline`.

    Cycling stops after the first group that ends past the deadline (or
    after one cycle without a deadline); every group is visited at least
    once.  With `fill`, every evaluation is followed by extra samples of
    the cheap curves, round robin, for FILL_SHARE of its time.
    """
    out = PassResult(curve_s=[[] for _ in curves], results=[None] * len(curves))
    cheap: deque[int] = deque()
    members_of = groups(curves)
    cycle = 0
    while True:
        for group, members in members_of.items():
            results = []
            for i in members:
                elapsed = _sample(curves, i, out)
                if fill and cycle == 0 and elapsed < CHEAP_S:
                    cheap.append(i)
                spent = 0.0
                while fill and cheap and spent < FILL_SHARE * elapsed:
                    spent += _sample(curves, cheap[0], out)
                    cheap.rotate(-1)
                results.append(out.results[i])
            _emit(group, results, out)
            if cycle and time.perf_counter() >= deadline:
                return out
        cycle += 1
        if deadline is None or time.perf_counter() >= deadline:
            return out


def _sample(curves, i: int, out: PassResult) -> float:
    """Evaluate curve i once, record its time and check it against its first result."""
    curve = curves[i]
    t0 = time.perf_counter()
    result, raised = _evaluate(curve)
    elapsed = time.perf_counter() - t0
    out.curve_s[i].append(elapsed)
    out.sweeps += 1
    out.raised += raised
    if out.results[i] is None:
        out.results[i] = result[0]
        out.problems += _structure_problems(curve, result)
    elif _fingerprint(result[0]) != _fingerprint(out.results[i]):
        out.problems.append(f"{curve.group} {curve.method} N={curve.n}: "
                            "repeated evaluation differs")
    return elapsed


def _emit(group: str, results: list, out: PassResult) -> None:
    sink = io.StringIO()
    t0 = time.perf_counter()
    cli.emit_csv(results, sink)
    out.emit_s.setdefault(group, []).append(time.perf_counter() - t0)
    text = sink.getvalue()
    if out.csv.setdefault(group, text) != text:
        out.problems.append(f"{group}: CSV differs between visits")


def _structure_problems(curve, result) -> list[str]:
    grid = [float(v) for v in curve.spec.snr_grid_db]
    if (len(result) != 1 or result[0].method != curve.method or result[0].n != curve.n
            or result[0].x != grid or len(result[0].y) != len(grid)):
        return [f"{curve.group} {curve.method} N={curve.n}: unexpected sweep shape"]
    return []


def consistency_problems(passes: list[PassResult]) -> list[str]:
    """Problems within passes, plus any CSV that differs from the first pass's."""
    problems = [p for ps in passes for p in ps.problems]
    for k, ps in enumerate(passes[1:], 1):
        for group, text in ps.csv.items():
            if text != passes[0].csv[group]:
                problems.append(f"pass {k}: CSV of {group} differs from pass 0")
    return problems


def grade(workload: str, curves, result: PassResult):
    """(failed points, cross-check problems, attempted points) of one pass."""
    failed = []
    for curve, mc in zip(curves, result.results):
        failed += checker.grade(workload, curve.spec, mc)
    problems = []
    for members in groups(curves).values():
        problems += checker.cross_check([result.results[i] for i in members])
    return failed, problems, sum(c.points for c in curves)


def timing_metrics(curves, result: PassResult) -> dict[str, float]:
    """sweep_s and per-point times per method kind, from medians over visits."""
    curve_s = [statistics.median(t) for t in result.curve_s]
    out = {"sweep_s": result.sweep_s}
    for kind in KINDS:
        idx = [i for i, c in enumerate(curves) if c.kind == kind]
        points = sum(curves[i].points for i in idx)
        if points:
            out[f"{kind}_ms_per_point"] = 1e3 * math.fsum(curve_s[i] for i in idx) / points
    return out


def layer_metrics(curves, tracer: Tracer, result: PassResult) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    counts = tracer.counts
    own = tracer.self_times()
    out = {f"{layer}.self_s": own[layer] for layer in LAYERS if layer != "cli"}
    for key in ("montecarlo.calls", "montecarlo.trials",
                "numerics.quad.calls", "numerics.quad.abscissae", "numerics.quad.panels",
                "numerics.quad.raised", "numerics.pfq.calls",
                "numerics.special.calls", "numerics.special.points",
                "channel.calls", "channel.points", "fbl.calls", "fbl.points",
                "metrics_nocsi.calls", "metrics_nocsi.raised",
                "metrics_csi.calls", "metrics_csi.raised",
                "metrics_csi.pole_fallbacks", "metrics_csi.clamps"):
        out[key] = float(counts[key])
    out["montecarlo.uniform_bytes"] = float(tracer.max_uniform_bytes)
    mc_points = sum(c.points for c in curves if c.kind == "mc")
    draws = counts["montecarlo.draws"]
    out["montecarlo.points_per_draw"] = mc_points / draws if draws else 0.0
    out["cli.self_s"] = own["cli"]
    out["cli.run_sweep.s"] = tracer.span_total("cli.run_sweep")
    out["cli.emit_csv.s"] = tracer.span_total("cli.emit_csv")
    out["cli.emit_csv.bytes"] = float(sum(len(t.encode()) for t in result.csv.values()))
    out["trace.sweep_s"] = result.sweep_s
    out["trace.unattributed_s"] = result.sweep_s - math.fsum(own.values())
    return out
