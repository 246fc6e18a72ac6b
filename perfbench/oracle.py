"""Reference values computed without any part of covertcomm.

Each function takes plain numbers (not SystemParams) and rebuilds its
result from the model's defining expressions with scipy and mpmath:

- false alarm: the noise-only energy is Gamma(qL, sigma0_sq), so
  P_fa = Q(qL, y) with y the threshold in noise units;
- miss detection: for a fixed warden gain g the occupied-slot energy
  mixes Gamma shapes qL + n with negative-binomial weights
  NB(n; kL, 1 - x), x = rho g / (rho g + sigma0_sq); the result is
  averaged over g ~ Exp(omega_e) by adaptive quadrature;
- reliable transmission: exp(-gamma_u k sigma0_sq / (m p omega_u));
- covert rate: e^c E1(c) / ln 2 with c = k sigma0_sq / (m omega_u p);
- Tricomi U spot values: mpmath.hyperu at 30 significant digits.

Nothing here is stored: every value is computed when asked for. Run as
a script it recomputes the mpmath-pinned references that covertcomm's
tests also use and fails if any is off by more than 1e-12 relative:

    python3 perfbench/oracle.py
"""

import math
import warnings
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, special, stats
from scipy.integrate import IntegrationWarning

# shapes beyond which P(qL + n, y) is below this are dropped from the mixture
_P_FLOOR = 1e-300


@lru_cache(maxsize=64)
def _shape_column(s0: int, y: float) -> np.ndarray:
    """P(s0 + n, y) for n = 0, 1, ... down to the floor."""
    # P falls off once s0 + n passes y by a few standard deviations
    n_max = max(64, int(y - s0 + 40.0 * math.sqrt(y + 1.0) + 200.0))
    col = special.gammainc(s0 + np.arange(n_max, dtype=float), y)
    alive = np.flatnonzero(col > _P_FLOOR)
    return col[: alive[-1] + 1] if alive.size else col[:1]


def threshold_units(q, L, gamma_e, sigma0_sq=1.0, mode="per_sample_normalized"):
    """Detector threshold divided by the noise floor."""
    if mode == "raw":
        return gamma_e / sigma0_sq
    return gamma_e * q * L


def false_alarm(q, L, gamma_e, sigma0_sq=1.0):
    return float(special.gammaincc(q * L, threshold_units(q, L, gamma_e, sigma0_sq)))


def miss_conditional(m, k, q, L, p_b, g, gamma_e, sigma0_sq=1.0):
    """Miss probability at a fixed warden gain g."""
    y = threshold_units(q, L, gamma_e, sigma0_sq)
    col = _shape_column(q * L, y)
    rg = m * p_b / (q * k * L) * g
    x = rg / (rg + sigma0_sq)
    w = stats.nbinom.pmf(np.arange(col.size), k * L, 1.0 - x)
    return float(w @ col)


def miss_detection(m, k, q, L, p_b, gamma_e, sigma0_sq=1.0, omega_e=1.0):
    """Miss probability averaged over the exponential warden gain."""
    y = threshold_units(q, L, gamma_e, sigma0_sq)
    if p_b == 0.0:
        return float(special.gammainc(q * L, y))
    col = _shape_column(q * L, y)
    n = np.arange(col.size)
    rho = m * p_b / (q * k * L)

    def integrand(g):
        rg = rho * g
        x = rg / (rg + sigma0_sq)
        return math.exp(-g / omega_e) / omega_e * float(
            stats.nbinom.pmf(n, k * L, 1.0 - x) @ col
        )

    # the mean occupied energy crosses the threshold near g_star, where
    # the conditional miss probability drops from ~1 to ~0
    g_star = (y - q * L) * sigma0_sq * q / (m * p_b)
    g_hi = omega_e * math.log(1e17)
    pts = [g_star] if 0.0 < g_star < g_hi else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = integrate.quad(
            integrand, 0.0, g_hi, points=pts, limit=400, epsabs=1e-16, epsrel=1e-13
        )
    # beyond g_hi the Exp(omega_e) mass is 1e-17 and the integrand <= its density
    return val


def dep(m, k, q, L, p_b, gamma_e, sigma0_sq=1.0, omega_e=1.0):
    return false_alarm(q, L, gamma_e, sigma0_sq) + miss_detection(
        m, k, q, L, p_b, gamma_e, sigma0_sq, omega_e
    )


def rtp(m, k, p_b, gamma_u, sigma0_sq=1.0, omega_u=2.0):
    if gamma_u == 0.0:
        return 1.0
    if p_b == 0.0:
        return 0.0
    return math.exp(-gamma_u * k * sigma0_sq / (m * p_b * omega_u))


def covert_rate(m, k, p, sigma0_sq=1.0, omega_u=2.0):
    c = k * sigma0_sq / (m * omega_u * p)
    # exp(c) E1(c) = E1 scaled; special.exp1 underflows only for c > ~700
    return float(math.exp(c) * special.exp1(c) / math.log(2.0))


def p_low(m, k, gamma_u, eps_u, sigma0_sq=1.0, omega_u=2.0):
    """Smallest power with rtp >= 1 - eps_u (inverted outage law)."""
    return -gamma_u * k * sigma0_sq / (m * omega_u * math.log1p(-eps_u))


@lru_cache(maxsize=None)
def log_tricomi_u(a, b, z):
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.hyperu(a, b, z)))


# Pinned mpmath references (40-digit evaluations of the defining
# expressions) that covertcomm's own test suite also uses.
# (m, k, q, L, p_b or snr_db, value)
PINNED_MD_DEFAULTS = [  # m=4, q=64, L=8, gamma_e=2, p_b from SNR in dB
    (4, 30.0, 0.99941402762147469),
    (4, 37.0, 0.80573295733497135),
    (4, 44.0, 0.28473658913969154),
    (8, 37.0, 0.804928522343085),
    (16, 37.0, 0.80449976254698811),
]
PINNED_MD_SMALL = [  # m=2, k=2, q=8, L=2, gamma_e=2: (p_b, P_MD)
    (0.5, 0.99923429126906034),
    (2.0, 0.99863962834854341),
    (8.0, 0.98643977091416998),
    (50.0, 0.72522811143158397),
]
PINNED_MD_CONDITIONAL = [  # small instance: (p_b, g, P_MD | g)
    (4.0, 1.3, 0.99734471810689381),
    (16.0, 0.25, 0.99804712529040749),
    (1.0, 3.0, 0.99850034251401206),
    (50.0, 0.04, 0.99885514882740542),
]
PINNED_RATE = [(1.0, 1.3314785926679746), (0.25, 0.52128700371590688),
               (10.0, 3.7429717995314557)]  # defaults: (p, bits per use)
PINNED_FA_DEFAULTS = 1.0306329691736318e-70


def self_check():
    """Worst relative error against the pinned references, with its case."""
    errs = []
    for k, snr, ref in PINNED_MD_DEFAULTS:
        got = miss_detection(4, k, 64, 8, 10.0 ** (snr / 10.0), 2.0)
        errs.append((abs(got - ref) / ref, f"P_MD k={k} {snr} dB"))
    for p_b, ref in PINNED_MD_SMALL:
        got = miss_detection(2, 2, 8, 2, p_b, 2.0)
        errs.append((abs(got - ref) / ref, f"P_MD small p_b={p_b}"))
    for p_b, g, ref in PINNED_MD_CONDITIONAL:
        got = miss_conditional(2, 2, 8, 2, p_b, g, 2.0)
        errs.append((abs(got - ref) / ref, f"P_MD|g small p_b={p_b} g={g}"))
    for p, ref in PINNED_RATE:
        errs.append((abs(covert_rate(4, 4, p) - ref) / ref, f"rate p={p}"))
    ref = PINNED_FA_DEFAULTS
    errs.append((abs(false_alarm(64, 8, 2.0) - ref) / ref, "P_FA defaults"))
    return max(errs)


if __name__ == "__main__":
    worst, case = self_check()
    print(f"oracle vs pinned references: worst relative error {worst:.3g} ({case})")
    raise SystemExit(0 if worst <= 1e-12 else 1)
