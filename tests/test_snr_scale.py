"""The SNR is rho alpha beta times a unit-scale law: outputs read only that product.

Also gates the level of the high-SNR rate asymptotes, (E[ln Y] + ln s)/ln2
minus the penalty, against the rate they approximate.
"""

import numpy as np
import pytest

from irslink import cli, metrics_csi as mc, metrics_nocsi as mn
from irslink.channel import SystemParams
from irslink.montecarlo import McConfig

SNR_DB = np.arange(-30.0, 51.0)


@pytest.mark.parametrize("metric,mode,method", [
    (metric, mode, method)
    for (metric, mode), methods in cli.VALID_METHODS.items() for method in methods])
def test_outputs_depend_on_the_product_rho_alpha_beta_only(metric, mode, method):
    # (rho/16) * 2 * 8 is rho exactly, so every value must be bit-identical
    def evaluate(spec, n, rhos):
        return cli._curve(spec, method, n, rhos)

    kw = dict(metric=metric, mode=mode, methods=(method,), snr_start_db=-30.0,
              snr_stop_db=50.0, snr_step_db=1.0, n_values=(3,),
              mc=McConfig(trials=200, seed=5))
    unit = cli.SweepSpec(**kw)
    scaled = cli.SweepSpec(**kw, alpha=2.0, beta=8.0)
    rhos = (10.0 ** (SNR_DB / 10.0)).tolist()
    for n in (3, 20):
        assert (evaluate(scaled, n, [r / 16.0 for r in rhos])
                == evaluate(unit, n, rhos)), n


# |asymptote - numerical| in bits at 60 dB, and the measured gap it bounds
_LEVEL_GATES = {
    "nocsi": {1: 3e-4, 20: 3e-6, 64: 1e-6},    # 1.44e-4, 1.32e-6, 4.26e-7
    "csi": {1: 5e-4, 20: 1.3e-8, 64: 1.2e-9},  # 2.42e-4, 6.43e-9, 5.88e-10
}
_RATE_PAIRS = {
    "nocsi": (mn.adr_asymptotic, mn.adr_numerical),
    "csi": (mc.adr_simplified, mc.adr_numerical_gamma),
}


@pytest.mark.parametrize("mode", ["nocsi", "csi"])
@pytest.mark.parametrize("n", [1, 20, 64])
def test_adr_asymptote_level(mode, n):
    asymptote, numerical = _RATE_PAIRS[mode]
    p = SystemParams(n_elements=n, rho=10.0 ** np.array([4.0, 5.0, 6.0]))
    gap = np.abs(asymptote(p) - numerical(p))
    assert gap[-1] <= _LEVEL_GATES[mode][n], gap
    assert gap[0] > gap[1] > gap[2], gap
