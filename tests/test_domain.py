"""The closed forms over the whole domain SystemParams accepts.

A hypothesis sweep draws every field, both threshold modes and any k in
[1, q], with p_b from 0 up to 1e308 and infinity, and the noise floor,
both fading means and gamma_u over the whole positive float range, from
the smallest subnormal up to 1e308. Every probability must come back
finite and in [0, 1], or raise ConvergenceError (the shape-table cap),
the reliability power bound must be >= 0 and the covert rate finite and
>= 0; pytest turns a RuntimeWarning into an error, so a nan or inf that
numpy only warns about fails too.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertcomm.analytic import (
    covert_rate,
    dep,
    false_alarm_prob,
    miss_detection_conditional,
    miss_detection_prob,
    rtp,
)
from covertcomm.optimizer import power_lower_bound
from covertcomm.params import THRESHOLD_MODES, SystemParams
from covertcomm.specfun import ConvergenceError, reg_gamma_lower


def _log_uniform(lo, hi, below=None, above=None):
    # 10^e for e over [log10 lo, log10 hi], widened by one decade on each side
    # that has an edge value: e there draws the edge, so it comes up about as
    # often as any one decade, not as often as the whole range
    a, b = math.log10(lo) - (below is not None), math.log10(hi) + (above is not None)
    return st.floats(a, b).map(
        lambda e: below if e < math.log10(lo) else above if e > math.log10(hi) else 10.0**e
    )


_POWERS = _log_uniform(1e-8, 1e308, below=0.0, above=math.inf)
# the noise floor and fading means: every positive float up to 1e308
_SCALES = _log_uniform(5e-324, 1e308)
_GAINS = _log_uniform(1e-6, 1e6, below=0.0, above=math.inf)


@st.composite
def _params(draw):
    q = draw(st.integers(1, 64))
    L = draw(st.integers(1, 16))
    sigma0_sq = draw(_SCALES)
    mode = draw(st.sampled_from(THRESHOLD_MODES))
    # the threshold in multiples of the noise-only mean energy q L sigma0_sq
    ratio = draw(st.floats(0.0, 8.0))
    return SystemParams(
        m=draw(st.integers(1, 8)),
        k=draw(st.integers(1, q)),
        q=q,
        L=L,
        p_b=draw(_POWERS),
        sigma0_sq=sigma0_sq,
        omega_e=draw(_SCALES),
        omega_u=draw(_SCALES),
        gamma_e=ratio * q * L * sigma0_sq if mode == "raw" else ratio,
        gamma_u=draw(_log_uniform(5e-324, 1e308, below=0.0, above=math.inf)),
        eps_e=draw(st.floats(1e-6, 1.0)),
        eps_u=draw(st.floats(1e-6, 1.0)),
        threshold_mode=mode,
    )


def _probability(f, *args):
    """f(*args), checked to lie in [0, 1]; None where it raised ConvergenceError."""
    try:
        v = f(*args)
    except ConvergenceError:
        return None
    assert 0.0 <= v <= 1.0, (f.__name__, args, v)  # nan and inf fail here too
    return v


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_params(), _GAINS, st.lists(_POWERS, min_size=1, max_size=4))
# both infinite edges at once, which the draws rarely pair: rtp's exponent is inf / inf
@example(SystemParams(gamma_u=math.inf, p_b=math.inf), 1.0, [1.0, math.inf])
# scale quotients past the float range: ln c of the miss routes overflows or
# underflows, rtp's exponent is x / 0 or inf / inf, p_low is x / 0, and the
# rate's c is x / 0 or 0
@example(SystemParams(omega_e=1e-320), 1.0, [1.0])
@example(SystemParams(sigma0_sq=1e300, omega_e=1e-10), 1.0, [1.0])
@example(SystemParams(omega_e=1e300, sigma0_sq=1e-300), 1.0, [1.0])
@example(SystemParams(omega_e=1e300, p_b=1e100), 1.0, [1e100])
@example(SystemParams(p_b=1e-200, omega_u=1e-200), 1.0, [1e-200])
@example(SystemParams(p_b=math.inf, sigma0_sq=1e306, gamma_u=100.0), 1.0, [math.inf])
@example(SystemParams(omega_u=1e-320, eps_u=1e-10), 1.0, [1e-10])
@example(SystemParams(sigma0_sq=1e-320, omega_u=1e300), 1.0, [1e10])
def test_probabilities_over_the_domain(params, g, powers):
    fa = _probability(false_alarm_prob, params)
    _probability(rtp, params)
    assert power_lower_bound(params) >= 0.0  # nan fails here too
    for p in powers:
        if 0.0 < p < math.inf:
            assert 0.0 <= covert_rate(params, p) < math.inf, (params, p)
    _probability(miss_detection_conditional, params, g)
    md = _probability(miss_detection_prob, params)
    if md is not None:
        # the two sides read P(qL, y) through different scipy calls
        assert md <= 1.0 - fa + 1e-15
        assert _probability(dep, params) is not None
    deps = [_probability(dep, params.with_(p_b=p)) for p in sorted(powers)]
    deps = [d for d in deps if d is not None]
    assert all(b <= a + 1e-12 for a, b in zip(deps, deps[1:])), (sorted(powers), deps)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([8, 16, 64]),
    st.sampled_from([2, 4, 8, 16]),
    st.integers(1, 8),
    st.floats(0.5, 8.0),
    _log_uniform(1e-2, 1e8),
    _log_uniform(1e-3, 1e3),
)
def test_conditional_miss_with_every_slot_occupied(q, L, m, gamma_e, p_b, g):
    # with k = q the statistic is Gamma(qL, rho g + sigma0_sq), so the mixture
    # sums to P(qL, y / (1 + rho g / sigma0_sq)); this reaches (1 - x)^kL far
    # below e^-700, where the sum starts past its first weights
    params = SystemParams(q=q, L=L, k=q, m=m, gamma_e=gamma_e, p_b=p_b)
    y = params.effective_threshold / params.sigma0_sq
    want = reg_gamma_lower(q * L, y / (1.0 + params.rho * g / params.sigma0_sq))
    got = miss_detection_conditional(params, g)
    if want >= 1e-280:
        assert abs(got - want) <= 1e-10 * want, (params, g, got, want)
