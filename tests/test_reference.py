"""The numerical ADEP against committed mpmath values (no mpmath at test time).

tests/adep_reference.csv is written by tests/make_adep_reference.py: the
density form of the ADEP in ln x at 50 digits, checked at 60 digits on
other split points, at M = 200, D = 100.
"""

import csv
import pathlib

import pytest

from irslink import metrics_csi, metrics_nocsi
from irslink.channel import SystemParams

REFERENCE = pathlib.Path(__file__).with_name("adep_reference.csv")
ADEP = {"nocsi": metrics_nocsi.adep_numerical, "csi": metrics_csi.adep_numerical}
# The stated relative tolerance of adep_numerical: at least 10x the worst
# error measured on these rows, of this rule (3.9e-14) and of the t-space
# rule before it (3.7e-14), both at CSI rows, where scipy's regularized
# gamma sets the floor in the deep tail.
TOLERANCE = 5e-13


def _rows():
    with REFERENCE.open(newline="") as handle:
        return [pytest.param(r["mode"], int(r["n"]), float(r["snr_db"]), float(r["adep"]),
                             id=f"{r['mode']}-N{r['n']}-{r['snr_db']}dB")
                for r in csv.DictReader(handle)]


@pytest.mark.parametrize("mode,n,snr_db,ref", _rows())
def test_adep_numerical_matches_mpmath(mode, n, snr_db, ref):
    got = ADEP[mode](SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0)))
    assert abs(got - ref) <= TOLERANCE * ref
