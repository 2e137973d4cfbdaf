"""Output checks: per-point grading and cross-method consistency.

A point fails if its evaluation raised (empty value with a note), if it is
not finite, or, for every method except the asymptotes, if it lies outside
the metric's physical range:

  ADEP: [0, 1]
  ADR:  [-Qinv(eps) / (sqrt(M) ln2), log2(1 + E[snr])]
        E[snr] = rho N alpha beta                         without CSI
        E[snr] = rho N alpha beta (1 + (N - 1) pi^2 / 16)  with CSI

Asymptotes legitimately exceed these ranges at low SNR, so they only have
to be finite.  Failed points are counted, not hidden: they are a property
of the program under test.

The cross-checks are what `correct` rests on besides determinism: the ADR
quadrature must agree with the Monte-Carlo oracle within its standard
error, and the no-CSI rate bounds must bracket the quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from irslink.channel import SystemParams
from irslink.numerics import q_inv

from workloads import ASYMPTOTIC_METHODS

_LN2 = math.log(2.0)

# |quadrature - Monte-Carlo| may be at most this many Monte-Carlo standard errors.
MC_Z_LIMIT = 5.0
# Relative slack for comparisons between two quadratures at rel_tol 1e-9.
QUAD_REL_SLACK = 1e-8


class FailedPoint(NamedTuple):
    workload: str
    metric: str
    mode: str
    method: str
    n: int
    snr_db: float
    reason: str


def physical_range(metric: str, mode: str, params: SystemParams) -> tuple[float, float]:
    if metric == "adep":
        return 0.0, 1.0
    mean_snr = params.rho * params.n_elements * params.alpha * params.beta
    if mode == "csi":
        mean_snr *= 1.0 + (params.n_elements - 1) * math.pi ** 2 / 16.0
    lo = -q_inv(params.target_eps) / (math.sqrt(params.blocklength) * _LN2)
    return lo, math.log2(1.0 + mean_snr)


def grade(workload: str, spec, curve) -> list[FailedPoint]:
    """Failed points of one `MetricCurve` produced from the one-method `spec`."""
    failed = []
    for snr_db, y, note in zip(curve.x, curve.y, curve.notes):
        reason = None
        if y is None:
            reason = f"raised {note}"
        elif not math.isfinite(y):
            reason = f"non-finite value {float(y)!r}"
        elif curve.method not in ASYMPTOTIC_METHODS:
            params = SystemParams(
                n_elements=curve.n, alpha=spec.alpha, beta=spec.beta,
                rho=10.0 ** (snr_db / 10.0), blocklength=spec.blocklength,
                target_eps=spec.target_eps, packet_bits=spec.packet_bits)
            lo, hi = physical_range(curve.metric, curve.mode, params)
            if not lo <= y <= hi:
                reason = f"value {float(y)!r} outside [{lo!r}, {hi!r}]"
        if reason is not None:
            failed.append(FailedPoint(workload, curve.metric, curve.mode, curve.method,
                                      curve.n, snr_db, reason))
    return failed


def _ok_values(curve) -> dict:
    return {x: (y, e) for x, y, e in zip(curve.x, curve.y, curve.y_err or [None] * len(curve.x))
            if y is not None and math.isfinite(y)}


def cross_check(curves) -> list[str]:
    """Disagreements between methods of one group; each entry is one message.

    `curves` are the `MetricCurve`s of one CSV group.  Only points that both
    sides computed are compared: failed points are graded by `grade`.
    """
    by_key = {(c.metric, c.mode, c.method, c.n): _ok_values(c) for c in curves}
    problems = []
    for (metric, mode, method, n), vals in by_key.items():
        if metric != "adr" or method != "numerical":
            continue
        mc = by_key.get((metric, mode, "montecarlo", n), {})
        for x, (y, _) in vals.items():
            if x in mc:
                m, err = mc[x]
                if abs(y - m) > MC_Z_LIMIT * err + 1e-12:
                    problems.append(
                        f"adr/{mode} N={n} {x:g} dB: numerical {y!r} vs montecarlo "
                        f"{m!r} +/- {err!r}")
        if mode != "nocsi":
            continue
        lower = by_key.get((metric, mode, "lower_bound", n), {})
        for upper_name in ("upper_bound", "shannon"):
            upper = by_key.get((metric, mode, upper_name, n), {})
            for x, (y, _) in vals.items():
                if x not in lower or x not in upper:
                    continue
                lo, hi = lower[x][0], upper[x][0]
                slack = QUAD_REL_SLACK * max(abs(lo), abs(y), abs(hi)) + 1e-12
                if not (lo - slack <= y <= hi + slack):
                    problems.append(
                        f"adr/nocsi N={n} {x:g} dB: numerical {y!r} outside bounds "
                        f"[{lo!r}, {hi!r}] ({upper_name})")
    return problems
