"""Seeded Monte-Carlo oracle for the reflected link.

Ground truth for everything analytic: draws channel realizations, applies
the phase policy of the requested mode and averages the exact per-trial
rate / error expressions.

Reproducibility contract: trial i consumes exactly 4N uniform doubles from
a PCG64DXSM stream seeded by the seed and advanced by 4N*i draws (one
64-bit draw per double), and per-trial metric values are reduced with
numpy's fixed pairwise summation over the full trial vector.  Estimates
are therefore bit-identical for a given (seed, trials) however the trials
are split into chunks or distributed across workers.

Channels follow an explicit Box-Muller transform (rejection-free, fixed
consumption), with real/imaginary parts at half the complex variance.  The
SNR kernel needs only each element's amplitude product |h_i||g_i| and, for
no-CSI, its phase difference, so it works in real arithmetic; the complex
channels of _channels_from_uniforms are its test reference.

Memory: the per-trial values of all trials are kept for the reduction;
_CHUNK_TRIALS bounds the trials of one metric evaluation (its SNR and
temporaries), and the kernel draws uniforms in tiles of _TILE_UNIFORMS
doubles, so draw memory is fixed whatever N and trials.

The error estimator averages the exact per-trial error expression rather
than Bernoulli decode outcomes: the target quantity is the expectation of
that expression, and counting single-packet failures at targets near 1e-6
would need infeasibly many trials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64DXSM, Generator

from . import fbl
from .channel import SystemParams

__all__ = [
    "McConfig",
    "McEstimate",
    "empirical_adr",
    "empirical_adep",
    "empirical_snr_cdf",
]

_TWO_PI = 2.0 * math.pi
_MODES = ("csi", "nocsi")
# Uniforms drawn at once by the SNR kernel: 2^16 doubles = 512 KiB.
_TILE_UNIFORMS = 2 ** 16
# Trials whose SNR and metric values are evaluated at once.
_CHUNK_TRIALS = 20_000


@dataclass(frozen=True)
class McConfig:
    """Trial count and stream seed of a Monte-Carlo estimate, both integers."""

    trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("trials", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # a standard error needs two trials
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {self.trials}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


class McEstimate(NamedTuple):
    value: float
    stderr: float


def _uniform_block(seed: int, start_trial: int, count: int, n_elements: int) -> np.ndarray:
    """(count, 4N) uniforms for trials [start_trial, start_trial + count).

    Each trial owns 4N consecutive doubles of the PCG64DXSM stream of the
    seed, which is advanced by 4N*i draws to reach trial i (each double
    takes one 64-bit draw), so substreams depend only on (seed, trial index).
    """
    bg = PCG64DXSM(int(seed)).advance(start_trial * 4 * n_elements)
    return Generator(bg).random((count, 4 * n_elements))


def _channels_from_uniforms(u: np.ndarray, alpha: float, beta: float):
    """Box-Muller both hops from one uniform block; returns (h, g)."""
    n = u.shape[1] // 4
    amp_h = np.sqrt(-2.0 * np.log1p(-u[:, :n]))
    amp_g = np.sqrt(-2.0 * np.log1p(-u[:, 2 * n:3 * n]))
    h = math.sqrt(alpha / 2.0) * amp_h * np.exp(1j * _TWO_PI * u[:, n:2 * n])
    g = math.sqrt(beta / 2.0) * amp_g * np.exp(1j * _TWO_PI * u[:, 3 * n:])
    return h, g


def _snr_block(params: SystemParams, mode: str, seed: int,
               start_trial: int, count: int) -> np.ndarray:
    """Per-trial SNR of trials [start_trial, start_trial + count).

    Real-arithmetic kernel over tiles of at most _TILE_UNIFORMS uniforms.
    With L = log1p(-u) of a hop's amplitude uniform, Box-Muller gives
    |h_i||g_i| = sqrt(alpha beta) A_i with A_i = sqrt(L_h L_g), and the
    phase of conj(g_i) h_i is D_i = 2 pi (u_h_phase - u_g_phase).  So

        CSI:    rho alpha beta (sum A)^2
        no-CSI: rho alpha beta ((sum A cos D)^2 + (sum A sin D)^2)

    i.e. rho (sum |g||h|)^2 and rho |sum conj(g) h|^2 without complex numbers.
    The no-CSI sums come from one tangent per element: with t = tan(D/2)
    and r = A / (1 + t^2), A cos D = 2r - A and A sin D = 2rt.  (numpy 2.x
    on x86-64 vectorizes float64 tan but calls libm for sin and cos, so one
    tangent costs a fraction of a sine plus a cosine.)  D/2 is pi times a
    multiple of 2^-53, so |t| <= tan(fl(pi/2)) ~ 1.6e16 and t^2 stays
    finite; each term keeps an absolute error of a few ulp of A, as with
    cos and sin.  An unknown mode is rejected before any draw.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be 'csi' or 'nocsi', got {mode!r}")
    n = params.n_elements
    rows = max(1, _TILE_UNIFORMS // (4 * n))
    out = np.empty(count)
    work = np.empty((min(rows, count), n)) if mode == "nocsi" else None
    for lo in range(0, count, rows):
        k = min(rows, count - lo)
        u = _uniform_block(seed, start_trial + lo, k, n)
        # A overwrites the h amplitudes, tan(D/2) the h phases
        amp, amp_g = u[:, :n], u[:, 2 * n:3 * n]
        for col in (amp, amp_g):
            np.log1p(np.negative(col, out=col), out=col)
        np.sqrt(np.multiply(amp, amp_g, out=amp), out=amp)
        if mode == "csi":
            np.square(np.sum(amp, axis=1), out=out[lo:lo + k])
            continue
        t = u[:, n:2 * n]
        np.subtract(t, u[:, 3 * n:], out=t)
        t *= math.pi
        np.tan(t, out=t)
        r = np.square(t, out=work[:k])
        r += 1.0
        np.divide(amp, r, out=r)
        re = 2.0 * np.sum(r, axis=1) - np.sum(amp, axis=1)
        im = 2.0 * np.sum(np.multiply(r, t, out=t), axis=1)
        np.add(re * re, im * im, out=out[lo:lo + k])
    out *= params.snr_scale
    return out


def _per_trial_values(params: SystemParams, mode: str, mc: McConfig, fn) -> np.ndarray:
    values = np.empty(mc.trials)
    for start in range(0, mc.trials, _CHUNK_TRIALS):
        count = min(_CHUNK_TRIALS, mc.trials - start)
        snr = _snr_block(params, mode, mc.seed, start, count)
        values[start:start + count] = fn(snr)
    return values


def _reduce(values: np.ndarray) -> McEstimate:
    """Mean and standard error of at least two per-trial values.

    The deviations are scaled by 2^-e, with 2^e just above their largest
    magnitude, before they are squared, so the variance of tiny values
    (below ~1e-154) does not underflow to 0.  The scaling is exact: where
    the unscaled squares do not underflow the result is bit-identical.
    """
    n = values.size
    mean = float(np.sum(values) / n)
    dev = values - mean
    _, e = math.frexp(float(np.max(np.abs(dev))))
    var = float(np.sum(np.ldexp(dev, -e, out=dev) ** 2) / (n - 1))
    return McEstimate(mean, math.ldexp(math.sqrt(var / n), e))


def empirical_adr(params: SystemParams, mode: str, mc: McConfig) -> McEstimate:
    """Mean short-packet rate over seeded trials (CSI mode co-phases first)."""
    m, eps = params.blocklength, params.target_eps
    return _reduce(_per_trial_values(
        params, mode, mc, lambda snr: fbl.achievable_rate(snr, m, eps)))


def empirical_adep(params: SystemParams, mode: str, mc: McConfig) -> McEstimate:
    """Mean exact per-trial error expression over seeded trials."""
    m, d = params.blocklength, params.packet_bits
    return _reduce(_per_trial_values(
        params, mode, mc, lambda snr: fbl.decode_error_prob(snr, m, d)))


def empirical_snr_cdf(params: SystemParams, mode: str, mc: McConfig,
                      grid) -> np.ndarray:
    """Empirical SNR CDF on a sorted grid (for distribution-fit checks)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be sorted ascending")
    snr = np.sort(_per_trial_values(params, mode, mc, lambda s: s))
    return np.searchsorted(snr, grid, side="right") / mc.trials
