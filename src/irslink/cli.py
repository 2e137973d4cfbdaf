"""Command-line sweeps over SNR: method selection, presets, CSV emission.

The CLI is a thin orchestrator: every number it prints comes from a library
call with the same parameters.  Four presets (fig2..fig5) reproduce the
reference evaluation layout: alpha = beta = 1, M = 200, eps = 1e-8 for rate
sweeps, D = 100 bits for error sweeps, 10000 Monte-Carlo trials.

CSV contract: header  metric,mode,method,n,snr_db,value,stderr,note  with
one row per sweep point, 17-significant-digit decimals, empty value plus a
reason note for points whose evaluation failed or was not finite.  Exit
codes: 0 full success, 1 invalid invocation, 2 at least one per-point
failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import metrics_csi, metrics_nocsi, montecarlo
from .channel import SystemParams
from .montecarlo import McConfig
from .numerics import NonConvergenceError, ToleranceError

__all__ = [
    "SweepSpec",
    "MetricCurve",
    "PRESETS",
    "run_sweep",
    "emit_csv",
    "parse_config",
    "main",
]


def _point(call, *args) -> tuple:
    """(value, stderr, "") from call(*args) -> (value, stderr), or (None, None, note) if it fails."""
    try:
        value, stderr = call(*args)
    except (ToleranceError, NonConvergenceError, OverflowError, ValueError) as exc:
        return None, None, f"{type(exc).__name__}: {exc}"
    return value, stderr, ""


def _per_point(evaluate_point):
    """Curve evaluator calling evaluate_point(params, mc, rs_convention) at each rho."""
    def evaluate(spec, n, rhos):
        return [_point(evaluate_point, spec._params(n, rho), spec.mc, spec.rs_convention)
                for rho in rhos]
    return evaluate


def _exact(formula):
    """Curve evaluator of a deterministic formula(params, rs_convention), point by point."""
    return _per_point(lambda params, mc, rs_convention: (formula(params, rs_convention), None))


def _sampled(estimator):
    """Curve evaluator of a Monte-Carlo estimator(params, mc) -> McEstimate, point by point."""
    def evaluate_point(params, mc, rs_convention):
        est = estimator(params, mc)
        return est.value, est.stderr
    return _per_point(evaluate_point)


def _batched(metric):
    """Curve evaluator of a rule-based metric(params): one call for the whole rho vector.

    If that call fails, every point of the curve carries its note.
    """
    def evaluate(spec, n, rhos):
        values, _, note = _point(lambda: (metric(spec._params(n, np.array(rhos))), None))
        if note:
            return [(None, None, note)] * len(rhos)
        return [(float(v), None, "") for v in values]
    return evaluate


# Evaluators shared by a method and its alias.  Every evaluator looks its
# library function up through the module when called, so code that swaps a
# module attribute (tests, tracing) reaches the sweep.
_adr_nocsi_lower = _batched(lambda p: metrics_nocsi.adr_lower_bound(p))
_adr_nocsi_upper = _batched(lambda p: metrics_nocsi.adr_upper_bound(p))
_adr_csi_closed = _exact(lambda p, rs: metrics_csi.adr_closed_form(p))

# (metric, mode) -> {method: evaluator(spec, n, rhos) -> [(value|None, stderr|None,
# note)] per rho}; the rule-based methods are _batched, the others _per_point.
_EVALUATORS = {
    ("adr", "nocsi"): {
        "numerical": _batched(lambda p: metrics_nocsi.adr_numerical(p)),
        "lower_bound": _adr_nocsi_lower,
        "upper_bound": _adr_nocsi_upper,
        "approx": _adr_nocsi_lower,
        "asymptotic": _exact(lambda p, rs: metrics_nocsi.adr_asymptotic(p)),
        "shannon": _adr_nocsi_upper,
        "montecarlo": _sampled(lambda p, mc: montecarlo.empirical_adr(p, "nocsi", mc)),
    },
    ("adr", "csi"): {
        "numerical": _batched(lambda p: metrics_csi.adr_numerical_gamma(p)),
        "closed_form": _adr_csi_closed,
        "approx": _adr_csi_closed,
        "asymptotic": _exact(lambda p, rs: metrics_csi.adr_simplified(p)),
        "shannon": _batched(lambda p: metrics_csi.shannon_gamma(p)),
        "montecarlo": _sampled(lambda p, mc: montecarlo.empirical_adr(p, "csi", mc)),
    },
    ("adep", "nocsi"): {
        "numerical": _batched(lambda p: metrics_nocsi.adep_numerical(p)),
        "linearized": _exact(lambda p, rs: metrics_nocsi.adep_linearized(p)),
        "approx": _exact(lambda p, rs: metrics_nocsi.adep_approx(p)),
        "asymptotic": _exact(
            lambda p, rs: metrics_nocsi.adep_asymptotic(p, rs_convention=rs)),
        "montecarlo": _sampled(lambda p, mc: montecarlo.empirical_adep(p, "nocsi", mc)),
    },
    ("adep", "csi"): {
        "numerical": _batched(lambda p: metrics_csi.adep_numerical(p)),
        "linearized": _exact(lambda p, rs: metrics_csi.adep_linearized(p)),
        "asymptotic": _exact(
            lambda p, rs: metrics_csi.adep_asymptotic(p, rs_convention=rs)),
        "montecarlo": _sampled(lambda p, mc: montecarlo.empirical_adep(p, "csi", mc)),
    },
}

VALID_METHODS = {pair: tuple(methods) for pair, methods in _EVALUATORS.items()}
_METRICS = tuple(dict.fromkeys(metric for metric, _ in _EVALUATORS))
_MODES = tuple(dict.fromkeys(mode for _, mode in _EVALUATORS))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: metric/mode/methods over an SNR grid and N list."""

    metric: str
    mode: str
    methods: tuple
    snr_start_db: float
    snr_stop_db: float
    snr_step_db: float
    n_values: tuple
    alpha: float = SystemParams.alpha
    beta: float = SystemParams.beta
    blocklength: int = SystemParams.blocklength
    target_eps: float = SystemParams.target_eps
    packet_bits: float = SystemParams.packet_bits
    mc: McConfig = field(default_factory=McConfig)
    rs_convention: str = "nats"

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.methods:
            raise ValueError("at least one method is required")
        valid = VALID_METHODS[(self.metric, self.mode)]
        for meth in self.methods:
            if meth not in valid:
                raise ValueError(
                    f"method {meth!r} not valid for {self.metric}/{self.mode}; "
                    f"choose from {valid}")
        if not self.snr_step_db > 0.0:
            raise ValueError("snr_step_db must be > 0")
        if self.snr_stop_db < self.snr_start_db:
            raise ValueError("snr_stop_db must be >= snr_start_db")
        if not self.n_values:
            raise ValueError("at least one N value is required")
        if self.rs_convention not in ("nats", "bits"):
            raise ValueError("rs_convention must be 'nats' or 'bits'")
        for n in self.n_values:
            self._params(n, rho=1.0)  # SystemParams checks the parameter block

    def _params(self, n: int, rho) -> SystemParams:
        return SystemParams(
            n_elements=n, alpha=self.alpha, beta=self.beta, rho=rho,
            blocklength=self.blocklength, target_eps=self.target_eps,
            packet_bits=self.packet_bits)

    @property
    def snr_grid_db(self) -> np.ndarray:
        count = int(round((self.snr_stop_db - self.snr_start_db) / self.snr_step_db)) + 1
        grid = self.snr_start_db + self.snr_step_db * np.arange(count)
        return grid[grid <= self.snr_stop_db + 1e-9]


@dataclass
class MetricCurve:
    """One labeled sweep trace; y entries are None where evaluation failed."""

    metric: str
    mode: str
    method: str
    n: int
    x: list
    y: list
    y_err: list | None = None
    notes: list | None = None

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("x must be strictly increasing")
        if self.notes is None:
            self.notes = [""] * len(self.x)


def run_sweep(spec: SweepSpec) -> list[MetricCurve]:
    """Evaluate every (method, N, SNR) combination the sweep spec requests.

    Each (method, N) curve is one evaluator call on the curve's whole rho
    vector.  Per-point failures, including non-finite values, are recorded
    as missing values with a reason note; the sweep itself never aborts on
    them.
    """
    grid = spec.snr_grid_db
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in grid.tolist()]
    evaluators = _EVALUATORS[(spec.metric, spec.mode)]
    curves = []
    for method in sorted(spec.methods):
        evaluate = evaluators[method]
        for n in sorted(spec.n_values):
            ys, errs, notes = [], [], []
            for val, err, note in evaluate(spec, int(n), rhos):
                if val is not None and not math.isfinite(val):
                    val, err, note = None, None, f"non-finite value {val}"
                ys.append(val)
                errs.append(err)
                notes.append(note)
            has_err = any(e is not None for e in errs)
            curves.append(MetricCurve(
                metric=spec.metric, mode=spec.mode, method=method, n=int(n),
                x=[float(v) for v in grid], y=ys,
                y_err=errs if has_err else None, notes=notes))
    return curves


def _fmt(v) -> str:
    return "" if v is None else format(float(v), ".17g")


def emit_csv(curves: list[MetricCurve], destination) -> None:
    """Write curves as CSV rows sorted by (method, n, snr_db), quoting only where needed."""

    def write(fh):
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(("metric", "mode", "method", "n", "snr_db", "value", "stderr", "note"))
        for c in sorted(curves, key=lambda c: (c.method, c.n)):
            errs = c.y_err or [None] * len(c.x)
            for x, y, e, note in zip(c.x, c.y, errs, c.notes):
                rows.writerow((c.metric, c.mode, c.method, c.n,
                               _fmt(x), _fmt(y), _fmt(e), note))

    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise OSError(f"cannot write CSV to {destination!r}: {exc}") from exc
    else:
        write(destination)


PRESETS = {
    "fig2": dict(metric="adr", mode="nocsi",
                 methods="numerical,lower_bound,asymptotic,shannon,montecarlo",
                 n="20,40", snr_start=-10.0, snr_stop=30.0, snr_step=2.0),
    "fig3": dict(metric="adep", mode="nocsi",
                 methods="numerical,linearized,approx,asymptotic,montecarlo",
                 n="20,40", snr_start=0.0, snr_stop=40.0, snr_step=2.0),
    "fig4": dict(metric="adr", mode="csi",
                 methods="numerical,closed_form,asymptotic,shannon,montecarlo",
                 n="20,40", snr_start=-10.0, snr_stop=30.0, snr_step=2.0),
    "fig5": dict(metric="adep", mode="csi",
                 methods="numerical,linearized,montecarlo",
                 n="20,40", snr_start=0.0, snr_stop=40.0, snr_step=2.0),
}

_BASE_DEFAULTS = dict(
    metric="adr", mode="nocsi", methods="numerical", n="20",
    snr_start=-10.0, snr_stop=30.0, snr_step=2.0,
    m=SystemParams.blocklength, eps=SystemParams.target_eps, bits=SystemParams.packet_bits,
    alpha=SystemParams.alpha, beta=SystemParams.beta,
    trials=McConfig.trials, seed=McConfig.seed, batch=McConfig.batch,
    rs_convention=SweepSpec.rs_convention, out="-",
)


def parse_config(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment, blank lines ignored."""
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _BASE_DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            settings[key] = value
    return settings


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="irslink", description=(
        "Sweep average data rate (adr) or average decoding error probability "
        "(adep) of the reflected link over an SNR grid and emit CSV."))
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="figure preset supplying metric/mode/methods/N/grid")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--metric", choices=_METRICS)
    p.add_argument("--mode", choices=_MODES)
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--n", help="comma-separated element counts")
    p.add_argument("--snr-start", type=float, dest="snr_start", help="grid start in dB")
    p.add_argument("--snr-stop", type=float, dest="snr_stop", help="grid stop in dB")
    p.add_argument("--snr-step", type=float, dest="snr_step", help="grid step in dB")
    p.add_argument("--m", type=int, help="blocklength (channel uses)")
    p.add_argument("--eps", type=float, help="error target for rate sweeps")
    p.add_argument("--bits", type=float, help="packet size for error sweeps")
    p.add_argument("--alpha", type=float, help="incoming-hop variance")
    p.add_argument("--beta", type=float, help="outgoing-hop variance")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials")
    p.add_argument("--seed", type=int, help="Monte-Carlo seed")
    p.add_argument("--batch", type=int, help="Monte-Carlo batch size")
    p.add_argument("--rs-convention", choices=["nats", "bits"], dest="rs_convention",
                   help="rate convention for asymptotic error formulas")
    p.add_argument("--out", help="output CSV path, '-' for stdout")
    p.set_defaults(**_BASE_DEFAULTS)
    return p


def _parse_args(argv) -> tuple[SweepSpec, str]:
    """Sweep spec and output path, layered base < preset < config file < flags.

    The preset and the config file become parser defaults, so argparse's
    type= converts config strings exactly as it converts flags.
    """
    parser = _build_parser()
    first = parser.parse_args(argv)
    if first.preset:
        parser.set_defaults(**PRESETS[first.preset])
    if first.config:
        parser.set_defaults(**parse_config(first.config))
    s = parser.parse_args(argv)
    return SweepSpec(
        metric=s.metric, mode=s.mode,
        methods=tuple(t.strip() for t in s.methods.split(",") if t.strip()),
        snr_start_db=s.snr_start, snr_stop_db=s.snr_stop, snr_step_db=s.snr_step,
        n_values=tuple(int(t) for t in s.n.split(",") if t.strip()),
        alpha=s.alpha, beta=s.beta, blocklength=s.m,
        target_eps=s.eps, packet_bits=s.bits,
        mc=McConfig(trials=s.trials, seed=s.seed, batch=s.batch),
        rs_convention=s.rs_convention), s.out


def main(argv=None) -> int:
    try:
        spec, out = _parse_args(argv)
    except (_CliError, ValueError, OSError) as exc:
        print(f"irslink: error: {exc}", file=sys.stderr)
        return 1

    curves = run_sweep(spec)
    try:
        emit_csv(curves, sys.stdout if out == "-" else out)
    except OSError as exc:
        print(f"irslink: error: {exc}", file=sys.stderr)
        return 1
    failures = sum(1 for c in curves for y in c.y if y is None)
    if failures:
        print(f"irslink: {failures} point(s) failed; see note column", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
