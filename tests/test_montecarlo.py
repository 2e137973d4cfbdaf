"""Monte-Carlo oracle contracts: determinism, moments, agreement with quadrature."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from irslink import metrics_csi, metrics_nocsi, montecarlo as mo
from irslink.channel import SystemParams
from irslink.montecarlo import McConfig

P20 = SystemParams(n_elements=20, rho=1.0)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=0)
    with pytest.raises(ValueError, match="trials must be >= 2"):
        McConfig(trials=1)
    with pytest.raises(ValueError, match="trials must be an integer"):
        McConfig(trials=100.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        McConfig(trials=100, seed=1.5)
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    with pytest.raises(ValueError):
        McConfig(seed=2 ** 64)


def test_batch_independence_bit_identical(monkeypatch):
    # N = 1024 draws 16-trial tiles: chunks of 1 and 13 straddle them
    cases = [(P20, 30_000, (999, 7_000, 30_000)),
             (SystemParams(n_elements=1024, rho=1.0), 100, (1, 13, 5_000))]

    def adr(params, mode, trials, chunk):
        monkeypatch.setattr(mo, "_CHUNK_TRIALS", chunk)
        return mo.empirical_adr(params, mode, McConfig(trials=trials, seed=3))

    for params, trials, batches in cases:
        for mode in ("nocsi", "csi"):
            ests = [adr(params, mode, trials, b) for b in batches]
            assert all(e.value == ests[0].value and e.stderr == ests[0].stderr
                       for e in ests), (params.n_elements, mode)


def test_draw_memory_bounded_by_tile():
    p = SystemParams(n_elements=1024, rho=1.0)
    tracemalloc.start()
    try:
        mo.empirical_adr(p, "nocsi", McConfig(trials=5_000, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("n", [1, 20, 40, 256, 1024])
def test_kernel_matches_complex_reference(n):
    # the real-arithmetic kernel against |sum conj(g) h|^2 and (sum |g||h|)^2
    # on the complex channels of the same uniforms
    p = SystemParams(n_elements=n, alpha=0.7, beta=2.3, rho=3.0)
    start, count = 5, 40 if n >= 256 else 2_000
    h, g = mo._channels_from_uniforms(mo._uniform_block(8, start, count, n), 0.7, 2.3)
    csi_ref = p.rho * np.sum(np.abs(g) * np.abs(h), axis=1) ** 2
    nocsi_ref = p.rho * np.abs(np.sum(np.conj(g) * h, axis=1)) ** 2
    csi = mo._snr_block(p, "csi", 8, start, count)
    nocsi = mo._snr_block(p, "nocsi", 8, start, count)
    assert np.all(np.abs(csi - csi_ref) <= 1e-14 * csi_ref)
    assert np.all(np.abs(nocsi - nocsi_ref) <= 1e-14 * csi_ref)


def test_sample_realization_determinism():
    # trial i's uniforms, and so its channels, depend only on (seed, i)
    row = mo._uniform_block(9, 17, 1, 20)
    assert np.array_equal(row, mo._uniform_block(9, 17, 1, 20))
    assert not np.array_equal(row, mo._uniform_block(9, 18, 1, 20))
    assert not np.array_equal(row, mo._uniform_block(10, 17, 1, 20))


def test_sample_realization_matches_batch_stream():
    # realization i equals row i - start of any batch covering it
    h, g = mo._channels_from_uniforms(mo._uniform_block(9, 15, 4, 20), 1.0, 1.0)
    h1, g1 = mo._channels_from_uniforms(mo._uniform_block(9, 17, 1, 20), 1.0, 1.0)
    assert np.array_equal(h1[0], h[2]) and np.array_equal(g1[0], g[2])


def test_stream_rows_match_across_tile_boundary_at_max_seed():
    # N = 1024 draws 16-trial tiles; trial j of one long block is the
    # single-trial block of j, also past the tile edge and at the largest seed
    seed, n, k = 2 ** 64 - 1, 1024, 20
    block = mo._uniform_block(seed, 0, k, n)
    for j in (0, 1, 15, 16, 17, k - 1):
        assert np.array_equal(block[j], mo._uniform_block(seed, j, 1, n)[0]), j


def test_stream_trials_do_not_overlap():
    # each trial owns its own 4N draws: the stream must advance 4N per trial
    n, k = 10, 20
    u = np.concatenate([mo._uniform_block(5, j, 1, n).ravel() for j in range(k)])
    assert np.unique(u).size == 4 * n * k


def test_sampler_moments():
    u = mo._uniform_block(123, 0, 500_000, 1)
    h, _ = mo._channels_from_uniforms(u, 1.0, 1.0)
    mag = np.abs(h[:, 0])
    assert abs(np.mean(mag ** 2) - 1.0) < 5e-3
    assert abs(np.mean(mag) - math.sqrt(math.pi) / 2.0) < 5e-3 * math.sqrt(math.pi) / 2.0


def test_per_realization_dominance():
    # CSI snr >= no-CSI snr for every seeded draw (1e-12 relative slack
    # covers float noise in the N=1 equality case)
    for n in (1, 2, 5, 20, 40):
        p = SystemParams(n_elements=n, rho=1.0)
        csi = mo._snr_block(p, "csi", 11, 0, 10_000)
        nocsi = mo._snr_block(p, "nocsi", 11, 0, 10_000)
        assert np.all(csi >= nocsi * (1.0 - 1e-12)), n


def test_empirical_adr_matches_quadrature():
    mcfg = McConfig(trials=100_000, seed=42)
    est_n = mo.empirical_adr(P20, "nocsi", mcfg)
    est_c = mo.empirical_adr(P20, "csi", mcfg)
    assert abs(est_n.value - metrics_nocsi.adr_numerical(P20)) < 2.0 * est_n.stderr
    assert abs(est_c.value - metrics_csi.adr_numerical_gamma(P20)) < 2.0 * est_c.stderr
    assert abs(est_c.value - 7.4) < 0.15
    assert est_c.value >= est_n.value


def test_empirical_adep_matches_quadrature():
    mcfg = McConfig(trials=100_000, seed=13)
    est = mo.empirical_adep(P20, "nocsi", mcfg)
    num = metrics_nocsi.adep_numerical(P20)
    assert abs(est.value - num) < 3.0 * est.stderr
    est_c = mo.empirical_adep(P20, "csi", mcfg)
    assert est_c.value <= est.value


def test_empirical_adep_vanishing_payload():
    p = dataclasses.replace(P20, rho=100.0, packet_bits=1e-9)
    est = mo.empirical_adep(p, "nocsi", McConfig(trials=20_000, seed=1))
    assert est.value < 1e-4


def test_empirical_snr_cdf_contract():
    grid = np.geomspace(1e-2, 2e3, 200)
    mcfg = McConfig(trials=100_000, seed=7)
    emp = mo.empirical_snr_cdf(P20, "nocsi", mcfg, grid)
    assert np.all(np.diff(emp) >= 0.0)
    from irslink.channel import snr_cdf_nocsi, snr_cdf_csi
    assert np.max(np.abs(emp - snr_cdf_nocsi(grid, P20))) < 0.01
    emp_c = mo.empirical_snr_cdf(P20, "csi", mcfg, grid)
    assert np.max(np.abs(emp_c - snr_cdf_csi(grid, P20))) < 0.02
    with pytest.raises(ValueError):
        mo.empirical_snr_cdf(P20, "nocsi", mcfg, grid[::-1])


def test_empirical_snr_cdf_rejects_nan_keeps_infinities():
    # a NaN passes the sort check (its differences are NaN): [nan, 0.1] gave [1, 0]
    mcfg = McConfig(trials=1_000, seed=3)
    for grid in ([np.nan, 0.1], [0.1, np.nan], [np.nan]):
        with pytest.raises(ValueError, match="NaN"):
            mo.empirical_snr_cdf(P20, "nocsi", mcfg, grid)
    emp = mo.empirical_snr_cdf(P20, "csi", mcfg, [-np.inf, 0.0, 1.0, np.inf])
    assert emp[0] == 0.0 and emp[-1] == 1.0 and np.all(np.diff(emp) >= 0.0)


def test_reduce_stderr_of_tiny_values():
    # squaring deviations of ~1e-180 would underflow to a zero variance
    v = np.random.default_rng(4).random(1_000)
    ref, tiny = mo._reduce(v), mo._reduce(1e-180 * v)
    assert abs(tiny.stderr - 1e-180 * ref.stderr) <= 1e-15 * 1e-180 * ref.stderr
    assert abs(tiny.value - 1e-180 * ref.value) <= 1e-15 * 1e-180 * ref.value


def test_stderr_scaling():
    ses = [mo.empirical_adr(P20, "nocsi", McConfig(trials=t, seed=21)).stderr
           for t in (1_000, 10_000, 100_000)]
    for k in range(2):
        ratio = ses[k] / ses[k + 1]
        assert abs(ratio - math.sqrt(10.0)) < 0.2 * math.sqrt(10.0)


def test_invalid_mode_rejected(monkeypatch):
    # rejected before any uniform is drawn
    def no_draw(*args):
        raise AssertionError("drew uniforms for an invalid mode")
    monkeypatch.setattr(mo, "_uniform_block", no_draw)
    mc = McConfig(trials=10, seed=0)
    for call in (lambda: mo.empirical_adr(P20, "sideways", mc),
                 lambda: mo.empirical_adep(P20, "sideways", mc),
                 lambda: mo.empirical_snr_cdf(P20, "sideways", mc, [1.0])):
        with pytest.raises(ValueError, match="mode"):
            call()
