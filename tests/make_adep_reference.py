"""Write tests/adep_reference.csv: mpmath values of the numerical ADEP (tests only).

Each row is E[eps(X)] for a packet of D bits on M channel uses, integrated
in v = ln x against the density of ln X at 50 digits:

    ADEP = int Q(w(e^v)) p(v) dv,  w(x) = sqrt(M/V(x)) (ln(1+x) - D ln2/M),

where p is the density of ln X, X = s Y with s = snr_scale:
  - no CSI: Y has density 2 y^((N-1)/2) K_(N-1)(2 sqrt y)/(N-1)!, so
    p(v) = y f(y) at y = e^v/s;
  - Gamma-model CSI: sqrt(Y) ~ Gamma(N k, theta0), so ln Y = 2 ln G and
    p(v) = e^(a u - e^u/theta0)/(2 Gamma(a) theta0^a) at u = (v - ln s)/2.

This is the density form, not the library's by-parts lattice, so the two
share no code.  Below v_a, where w = -20, Q(w) = 1 within Q(20) ~ 3e-89,
so that part is the CDF F(e^v_a) in closed form.  From v_a the integral
runs to where the log-integrand has fallen 80 (e^-80 ~ 2e-35) below its
peak, split every 1/40 unit of v (the error curve falls over
~1/sqrt(M) in v).  Every value is recomputed at 60 digits with splits
every 1/48 and must agree to 1e-25, relative, or the script fails.  (At
40 digits the values drift by up to 7e-18.)  Run from the repository
root:

    PYTHONPATH=src python tests/make_adep_reference.py

The output is written bit for bit from these values, so a rerun reproduces
the committed file.
"""

from __future__ import annotations

import csv
import pathlib

import mpmath as mp

from irslink.channel import SystemParams, gamma_match

OUT = pathlib.Path(__file__).with_name("adep_reference.csv")
# (mode, N, SNR in dB), all at the default packet M = 200, D = 100
ROWS = (
    ("csi", 20, 41.0),
    ("csi", 20, 0.0),
    ("csi", 64, 30.0),
    ("nocsi", 20, 20.0),
    ("nocsi", 64, -16.0),
    ("nocsi", 2, 40.0),
    ("csi", 1, 20.0),
)
AGREE = mp.mpf("1e-25")


def _law(mode, n, params):
    """(ln of the integrand, the Q argument w, the CDF of X), functions of v = ln x."""
    m, d = params.blocklength, params.packet_bits
    log_s = mp.log(mp.mpf(params.snr_scale))
    rate = mp.mpf(d) * mp.log(2) / m
    if mode == "csi":
        match = gamma_match(1.0, 1.0)
        # the library's shape N k, rounded to a double as it is there
        a, theta0 = mp.mpf(n * match.shape), mp.mpf(match.scale)
        log_norm = mp.log(2) + mp.loggamma(a) + a * mp.log(theta0)
    else:
        log_fact = mp.loggamma(n)

    def log_density(v):
        if mode == "csi":
            u = (v - log_s) / 2
            return a * u - mp.exp(u) / theta0 - log_norm
        y = mp.exp(v - log_s)
        return (mp.log(2) + v - log_s + (n - 1) * (v - log_s) / 2
                + mp.log(mp.besselk(n - 1, 2 * mp.sqrt(y))) - log_fact)

    def cdf(v):
        y = mp.exp(v - log_s)
        if mode == "csi":
            return mp.gammainc(a, 0, mp.sqrt(y) / theta0, regularized=True)
        return 1 - 2 * y ** (mp.mpf(n) / 2) * mp.besselk(n, 2 * mp.sqrt(y)) / mp.gamma(n)

    def q_argument(v):
        x = mp.exp(v)
        return mp.sqrt(m * (1 + x) ** 2 / (x * (x + 2))) * (mp.log1p(x) - rate)

    def log_integrand(v):
        return mp.log(mp.erfc(q_argument(v) / mp.sqrt(2)) / 2) + log_density(v)

    return log_integrand, q_argument, cdf


def adep(mode, n, snr_db, dps, split):
    """ADEP of one row at dps digits, split every 1/split unit of v.

    Below v_a, where w = -20, Q(w) is 1 within Q(20) ~ 3e-89, so that part
    is F(e^v_a) and the quadrature runs from v_a on.
    """
    params = SystemParams(n_elements=n, rho=10.0 ** (snr_db / 10.0))
    with mp.workdps(dps):
        log_f, q_argument, cdf = _law(mode, n, params)
        grid = [mp.mpf(k) / split for k in range(-80 * split, 60 * split + 1)]
        with mp.workdps(20):
            start = next(k for k, v in enumerate(grid) if q_argument(v) > -20)
            values = [log_f(v) for v in grid[start:]]
        peak = max(values)
        stop = start + max(k for k, val in enumerate(values) if val > peak - 80) + 1
        return cdf(grid[start]) + mp.quad(lambda v: mp.exp(log_f(v)), grid[start:stop + 1])


def main() -> None:
    with OUT.open("w", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["mode", "n", "snr_db", "adep"])
        for mode, n, snr_db in ROWS:
            value = adep(mode, n, snr_db, 50, 40)
            check = adep(mode, n, snr_db, 60, 48)
            if abs(value - check) > AGREE * abs(check):
                raise SystemExit(f"{mode} N={n} {snr_db} dB: {value} and {check} disagree")
            out.writerow([mode, n, f"{snr_db:g}", repr(float(value))])
            print(mode, n, snr_db, float(value), flush=True)


if __name__ == "__main__":
    main()
