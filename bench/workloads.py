"""Workload generators: every workload is a list of single-method, single-N curves.

Each curve is one `cli.SweepSpec` with one method and one N, so its time is
the time of one (method, N) curve through `cli.run_sweep`.  Curves are
grouped the way a user would emit them: one CSV per preset, or one per
metric/mode pair.  Only the Monte-Carlo seed depends on the benchmark seed;
the analytic inputs are fixed, so their results repeat across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from irslink import cli
from irslink.montecarlo import McConfig

PAIRS = (("adr", "nocsi"), ("adr", "csi"), ("adep", "nocsi"), ("adep", "csi"))

# Methods that integrate against an SNR density (quad_ms_per_point).  The
# adr/nocsi `approx` entry is the CLI alias of `lower_bound`, so it
# integrates too.  Everything not listed here and not `montecarlo` is a
# closed form, ramp or asymptote (closed_ms_per_point).
QUADRATURE_METHODS = {
    ("adr", "nocsi"): {"numerical", "lower_bound", "upper_bound", "shannon", "approx"},
    ("adr", "csi"): {"numerical", "shannon"},
    ("adep", "nocsi"): {"numerical"},
    ("adep", "csi"): {"numerical"},
}

# CLI method names that dispatch to the same evaluator as another name.
ALIASES = {
    ("adr", "nocsi"): {"approx", "shannon"},
    ("adr", "csi"): {"approx"},
    ("adep", "nocsi"): set(),
    ("adep", "csi"): set(),
}

# Smallest N each evaluator's docstring admits (default 1): adep_approx
# needs N >= 3, the no-CSI error asymptote N >= 2.
MIN_N = {("adep", "nocsi", "approx"): 3, ("adep", "nocsi", "asymptotic"): 2}

ASYMPTOTIC_METHODS = {"asymptotic"}

ANALYTIC_N = (1, 8, 20, 64)
ANALYTIC_SNR_DB = (-30.0, 50.0, 1.0)
# A small Monte-Carlo oracle slice: the ADR quadrature is checked against it,
# and it keeps mc_ms_per_point defined on this workload.
ANALYTIC_MC_SNR_DB = (10.0, 10.0, 1.0)
ANALYTIC_MC_TRIALS = 2_000

LARGE_N_TRIALS = {256: 20_000, 1024: 5_000}
LARGE_N_SNR_DB = (-20.0, 0.0, 20.0)


@dataclass(frozen=True)
class Curve:
    """One (method, N) curve of a workload, emitted as part of `group`."""

    group: str
    spec: cli.SweepSpec

    @property
    def method(self) -> str:
        return self.spec.methods[0]

    @property
    def n(self) -> int:
        return self.spec.n_values[0]

    @property
    def kind(self) -> str:
        """'mc', 'quad' or 'closed': which per-point metric the curve feeds."""
        if self.method == "montecarlo":
            return "mc"
        if self.method in QUADRATURE_METHODS[(self.spec.metric, self.spec.mode)]:
            return "quad"
        return "closed"

    @property
    def points(self) -> int:
        return len(self.spec.snr_grid_db)


def mc_seed(seed: int) -> int:
    """Monte-Carlo stream seed derived from the benchmark seed."""
    return int(np.random.SeedSequence(int(seed)).generate_state(1, dtype=np.uint64)[0])


def _curves(group: str, metric: str, mode: str, methods, n_values, snr,
            mc: McConfig = McConfig(), trials_by_n=None) -> list[Curve]:
    start, stop, step = snr
    out = []
    for method in methods:
        for n in n_values:
            if n < MIN_N.get((metric, mode, method), 1):
                continue
            cfg = mc if trials_by_n is None else replace(mc, trials=trials_by_n[n])
            spec = cli.SweepSpec(
                metric=metric, mode=mode, methods=(method,),
                snr_start_db=start, snr_stop_db=stop, snr_step_db=step,
                n_values=(n,), mc=cfg)
            out.append(Curve(group, spec))
    return out


def presets(seed: int) -> list[Curve]:
    """fig2..fig5 exactly as `cli.PRESETS` lists them, at the CLI defaults."""
    mc = McConfig(seed=mc_seed(seed))
    out = []
    for name in sorted(cli.PRESETS):
        p = cli.PRESETS[name]
        methods = p["methods"].split(",")
        n_values = tuple(int(v) for v in p["n"].split(","))
        out += _curves(name, p["metric"], p["mode"], methods, n_values,
                       (p["snr_start"], p["snr_stop"], p["snr_step"]), mc)
    return out


def analytic_grid(seed: int) -> list[Curve]:
    """Every distinct non-Monte-Carlo evaluator on a fine SNR grid.

    Plus one Monte-Carlo ADR point per mode and N, the oracle that the
    quadrature is checked against; only that slice depends on the seed.
    """
    mc = McConfig(trials=ANALYTIC_MC_TRIALS, seed=mc_seed(seed))
    out = []
    for metric, mode in PAIRS:
        methods = [m for m in cli.VALID_METHODS[(metric, mode)]
                   if m != "montecarlo" and m not in ALIASES[(metric, mode)]]
        out += _curves(f"{metric}-{mode}", metric, mode, methods, ANALYTIC_N,
                       ANALYTIC_SNR_DB)
        if metric == "adr":
            out += _curves(f"{metric}-{mode}", metric, mode, ["montecarlo"], ANALYTIC_N,
                           ANALYTIC_MC_SNR_DB, mc)
    return out


def large_n(seed: int) -> list[Curve]:
    """All methods of all four pairs at N = 256 and 1024 over two SNR points."""
    mc = McConfig(seed=mc_seed(seed))
    out = []
    for metric, mode in PAIRS:
        out += _curves(f"{metric}-{mode}", metric, mode,
                       cli.VALID_METHODS[(metric, mode)], tuple(LARGE_N_TRIALS),
                       LARGE_N_SNR_DB, mc, LARGE_N_TRIALS)
    return out


WORKLOADS = {"presets": presets, "analytic_grid": analytic_grid, "large_n": large_n}


def warmup_curves(curves: list[Curve]) -> list[Curve]:
    """One cheap point per distinct (metric, mode, method, N): first SNR, 64 trials."""
    seen, out = set(), []
    for c in curves:
        key = (c.spec.metric, c.spec.mode, c.method, c.n)
        if key in seen:
            continue
        seen.add(key)
        first = float(c.spec.snr_grid_db[0])
        spec = replace(c.spec, snr_start_db=first, snr_stop_db=first,
                       mc=replace(c.spec.mc, trials=min(c.spec.mc.trials, 64)))
        out.append(Curve(c.group, spec))
    return out
