"""A third miss route, in closed form at high power, as an oracle for both
routes of analytic.miss_detection_prob.

With u = rho g / sigma0_sq, the gain average is md = int_0^inf H(u) c e^(-c u) du,
where c = sigma0_sq / (rho omega_e) and H(u) = sum_n NB(n; kL, u / (1 + u))
P(qL + n, y) is the conditional miss. Expanding e^(-c u) in powers of c u
and integrating each power against the negative-binomial weights (a Beta
integral, DLMF 5.12.1: int_0^inf NB(n; kL, x(u)) u^(j-1) du =
(n+1)_(j-1) Gamma(kL-j) / Gamma(kL) for 1 <= j < kL) gives

    md = sum_{j=1}^{kL-1} (-1)^(j-1) c^j Gamma(kL-j) / (Gamma(kL) (j-1)!)
             * sum_n (n+1)_(j-1) P(qL+n, y) + R.

The moment j = kL diverges, so the expansion stops there. The oracle shares
nothing with the two routes but P(qL + n, y) from scipy's gammainc.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaln, logsumexp

from covertcomm.analytic import miss_detection_prob
from covertcomm.params import SystemParams, power_from_snr_db

_CERT = 1e-12  # share of the sum that the last term and the bound on R may hold


def _expansion(params: SystemParams) -> tuple[float, bool]:
    """The expansion's md, and whether it is certified at this point.

    Certified means:

    - the last kept term and the bound on R below are both within 1e-12
      of the sum;
    - the terms' absolute values add to at most 1e4 times the sum, so the
      alternating sum keeps 1e-12 relative of its rounding;
    - the n sums have reached terms below e^-50 of the largest one.

    The bound on R: NB(n; kL, x) <= C(n+kL-1, n) (1 + u)^-kL, so
    H(u) <= A (1 + u)^-kL with A = sum_n C(n+kL-1, n) P(qL+n, y). The
    Taylor remainder r of e^-t after kL - 1 terms obeys
    |r(t)| <= t^(kL-1) / (kL-1)! for t <= 1 and 2 t^(kL-2) / (kL-2)! for
    t >= 1 (Lagrange), so splitting the integral at u = 1 / c gives

        |R| <= A c^kL (ln(1 + 1/c) + 2 (kL - 1)) / (kL - 1)!.

    kL = 1 keeps no term and is left out.
    """
    kl, s0 = params.k * params.L, params.q * params.L
    assert kl >= 2
    y = params.effective_threshold / params.sigma0_sq
    log_c = math.log(params.sigma0_sq / (params.rho * params.omega_e))
    # P(qL + n, y) has underflowed well before n reaches 3y
    n = np.arange(int(3.0 * y + 50.0 * math.sqrt(y) + 500.0) - s0, dtype=float)
    with np.errstate(divide="ignore"):
        log_p = np.log(gammainc(s0 + n, y))
    j = np.arange(1.0, kl)
    # log sum_n (n+1)_(j-1) P(qL+n, y), one row per j
    log_s = logsumexp(gammaln(n + j[:, None]) - gammaln(n + 1.0) + log_p, axis=1)
    log_t = j * log_c + gammaln(kl - j) - gammaln(kl) - gammaln(j) + log_s
    terms = np.where(j % 2 == 1, 1.0, -1.0) * np.exp(log_t)
    md = math.fsum(terms)
    log_a_terms = gammaln(n + kl) - gammaln(n + 1.0) - gammaln(kl) + log_p
    log_a = logsumexp(log_a_terms)
    log_r = (
        log_a + kl * log_c - math.lgamma(kl)
        + math.log(math.log1p(math.exp(-log_c)) + 2.0 * (kl - 1))
    )
    certified = (
        md > 0.0
        and abs(terms[-1]) <= _CERT * md
        and log_r <= math.log(_CERT * md)
        and float(np.abs(terms).sum()) <= 1e4 * md
        and log_a_terms[-1] < log_a - 50.0
    )
    return md, certified


@st.composite
def _high_power_points(draw):
    q = draw(st.sampled_from((8, 16, 64)))
    L = draw(st.sampled_from((1, 2, 4, 8)))
    k = draw(st.integers(max(1, -(-2 // L)), min(q, 128 // L)))
    return SystemParams(
        m=draw(st.integers(1, 4)),
        k=k,
        q=q,
        L=L,
        gamma_e=draw(st.floats(1.2, 3.0)),
        p_b=power_from_snr_db(draw(st.floats(40.0, 250.0))),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_high_power_points())
def test_both_routes_match_the_expansion(params):
    want, certified = _expansion(params)
    assume(certified)
    quad = miss_detection_prob(params)
    # the quadrature route's documented error: 1e-13 relative or 1e-18 absolute
    assert abs(quad - want) <= 1e-10 * want + 1e-18
    if want >= 1e-12:
        series = miss_detection_prob(params, method="series")
        assert abs(series - want) <= 1e-10 * want


def test_expansion_leading_term_at_the_defaults():
    # md -> c sum_n P(qL+n, y) / (kL - 1) as c -> 0. P(qL+n, y) is the
    # chance that X ~ Poisson(y) reaches qL + n, so the sum is
    # E[(X - qL + 1)^+]; at the defaults (qL = 512, y = 1024) X < 512 has a
    # chance below 1e-50, and the sum is y - qL + 1 = 513. The next term
    # moves md by about c 513 / (2 (kL - 2)), 4.4e-12 at 150 dB
    params = SystemParams(p_b=power_from_snr_db(150.0))
    md, certified = _expansion(params)
    assert certified
    c = params.sigma0_sq / (params.rho * params.omega_e)
    assert abs(md / (c * 513.0 / 31.0) - 1.0) < 1e-10
