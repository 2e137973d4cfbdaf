"""Sweep benchmark for irslink.

Usage, from the repository root:

    python3 bench/run.py --workload presets --seed 1 --seconds 25 --trace 0

One closed-loop caller with one thread drives the library from this
process, one curve at a time, like a user running the CLI.  BLAS and
OpenMP threads are pinned to 1.  The workload (see workloads.py) is built
from --seed; the library receives only the generated `SweepSpec`s.

--trace 0 measures the end-to-end metrics untraced: the workload's groups
are visited in turn until --seconds have passed (each at least once), and
every curve's time is the median over its visits (see passes.py).  setup_s is the median over SETUP_SAMPLES
fresh processes of the time from process start until the workload is
generated and warmed up, ready to sweep.

--trace 1 runs one untraced pass, then traced passes until --seconds have
passed, and reports the per-layer numbers (see tracer.py) of the traced
passes, the tracing overhead, and the spans of the first traced pass in
bench/out/.

Every run checks its outputs (see checker.py): every point is graded ok or
failed and failed points are listed; `correct` requires identical CSV from
every pass, traced or not, and agreement between independent methods.
The last line of stdout is one JSON object with `correct`, `attempted` and
`failed` (run_sweep calls made, and those that raised) and `metrics`.
A full record with machine info goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s", "sweep_s": "s", "mc_ms_per_point": "ms", "quad_ms_per_point": "ms",
    "closed_ms_per_point": "ms", "peak_rss_mb": "MB", "ok_frac": "frac",
    "montecarlo.uniform_bytes": "B-computed", "montecarlo.points_per_draw": "ratio",
    "cli.emit_csv.bytes": "B", "check.failed_frac": "frac",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def load_irslink():
    """Import irslink from this checkout's src/, never from anywhere else."""
    package = SRC / "irslink"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: irslink sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import irslink
    if Path(irslink.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported irslink from {irslink.__file__}, not {package}")
    return irslink


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pin": {v: os.environ.get(v) for v in THREAD_VARS},
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def measure_setup(args) -> float:
    """Median time from a fresh process's start until it is ready to sweep."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"bench: set-up process failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return statistics.median(samples)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="irslink sweep benchmark")
    p.add_argument("--workload", required=True,
                   choices=("presets", "analytic_grid", "large_n"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_irslink()
    import passes
    import workloads
    from irslink import cli
    from tracer import Tracer

    curves = workloads.WORKLOADS[args.workload](args.seed)
    for curve in workloads.warmup_curves(curves):
        cli.run_sweep(curve.spec)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        reference = passes.run_pass(curves, fill=True)
        runs, layer_runs, first_tracer = [], [], None
        while not runs or time.perf_counter() < deadline:
            tracer = Tracer()
            with tracer:
                result = passes.run_pass(curves, fill=False)
            runs.append(result)
            layer_runs.append(passes.layer_metrics(curves, tracer, result))
            first_tracer = first_tracer or tracer
        all_runs = [reference] + runs
        # times are medians over traced passes, counts those of the first
        metrics = {k: statistics.median(m[k] for m in layer_runs)
                   if unit_of(k) == "s" else v for k, v in layer_runs[0].items()}
        metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - reference.sweep_s
        visits = len(runs)
    else:
        result = passes.run_pass(curves, fill=True, deadline=deadline)
        all_runs = [result]
        metrics = passes.timing_metrics(curves, result)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        visits = max(len(t) for t in result.emit_s.values())

    failed, problems, points = passes.grade(args.workload, curves, all_runs[0])
    problems += passes.consistency_problems(all_runs)
    if args.trace:
        metrics["check.failed_frac"] = len(failed) / points
    else:
        metrics["ok_frac"] = 1.0 - len(failed) / points
        metrics["setup_s"] = measure_setup(args)

    info = machine_info()
    attempted = sum(r.sweeps for r in all_runs)
    raised = sum(r.raised for r in all_runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": visits, "machine": info,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
        "failed_points": [p._asdict() for p in failed], "problems": problems,
        "curves": [{"group": c.group, "method": c.method, "n": c.n, "kind": c.kind,
                    "points": c.points, "seconds": t}
                   for c, t in zip(curves, all_runs[0].curve_s)],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        first_tracer.save(OUT / f"{stem}-spans.npz")

    print(f"machine: nproc={info['nproc']} cpu={info['cpu_model']!r} caches={info['caches']} "
          f"numpy={info['numpy']} scipy={info['scipy']} blas_threads=1")
    print(f"workload {args.workload} seed {args.seed}: {visits} pass(es), "
          f"{points} points, {len(failed)} failed, {len(problems)} check problem(s)")
    for fp in failed:
        print("FAILED " + ",".join(str(v) for v in fp))
    for problem in problems:
        print("PROBLEM " + problem)
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value!r} {unit_of(name)}")
    print(json.dumps({
        "correct": not problems and raised == 0,
        "attempted": attempted,
        "failed": raised,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
