"""Property-based invariants (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from irslink import fbl, montecarlo as mo, numerics as nx
from irslink.channel import SystemParams

COMMON = settings(max_examples=60, deadline=None)


@COMMON
@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
def test_q_roundtrip_property(p):
    assert abs(float(nx.q_func(nx.q_inv(p))) - p) <= 1e-9 * p


@COMMON
@given(st.floats(min_value=0.0, max_value=1e6))
def test_dispersion_range(g):
    v = fbl.dispersion(g)
    assert 0.0 <= v < 1.0


@COMMON
@given(st.integers(min_value=0, max_value=2 ** 64 - 1), st.integers(min_value=1, max_value=24))
def test_csi_dominates_property(seed, n):
    # co-phasing never loses to zero phases on the same draw (1e-12 relative
    # slack covers float noise in the N=1 equality case)
    p = SystemParams(n_elements=n, alpha=0.7, beta=2.3, rho=1.0)
    csi = mo._snr_block(p, "csi", seed, 0, 64)
    nocsi = mo._snr_block(p, "nocsi", seed, 0, 64)
    assert np.all(csi >= nocsi * (1.0 - 1e-12))


@COMMON
@given(st.floats(min_value=1e-6, max_value=0.49),
       st.floats(min_value=0.01, max_value=1e4))
def test_rate_penalty_strict_property(eps, g):
    assert fbl.achievable_rate(g, 200, eps) < math.log2(1.0 + g)
