"""The closed forms over the whole domain SystemParams accepts.

A hypothesis sweep draws every field, both threshold modes and any k in
[1, q], with p_b from 0 up to 1e30, the range the CLI's power grids
reach. Every probability must come back finite and in [0, 1], or raise
ConvergenceError (the shape-table cap); pytest turns a RuntimeWarning
into an error, so a nan or inf that numpy only warns about fails too.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from covertcomm.analytic import (
    dep,
    false_alarm_prob,
    miss_detection_conditional,
    miss_detection_prob,
    rtp,
)
from covertcomm.params import THRESHOLD_MODES, SystemParams
from covertcomm.specfun import ConvergenceError


def _log_uniform(lo, hi, below=None, above=None):
    # 10^e for e over [log10 lo, log10 hi], widened by one decade on each side
    # that has an edge value: e there draws the edge, so it comes up about as
    # often as any one decade, not as often as the whole range
    a, b = math.log10(lo) - (below is not None), math.log10(hi) + (above is not None)
    return st.floats(a, b).map(
        lambda e: below if e < math.log10(lo) else above if e > math.log10(hi) else 10.0**e
    )


_POWERS = _log_uniform(1e-8, 1e30, below=0.0)
_GAINS = _log_uniform(1e-6, 1e6, below=0.0, above=math.inf)


@st.composite
def _params(draw):
    q = draw(st.integers(1, 64))
    L = draw(st.integers(1, 16))
    sigma0_sq = draw(_log_uniform(1e-3, 1e3))
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
        omega_e=draw(_log_uniform(1e-3, 1e3)),
        omega_u=draw(_log_uniform(1e-3, 1e3)),
        gamma_e=ratio * q * L * sigma0_sq if mode == "raw" else ratio,
        gamma_u=draw(st.just(0.0) | _log_uniform(1e-3, 1e3)),
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
def test_probabilities_over_the_domain(params, g, powers):
    fa = _probability(false_alarm_prob, params)
    _probability(rtp, params)
    _probability(miss_detection_conditional, params, g)
    md = _probability(miss_detection_prob, params)
    if md is not None:
        # the two sides read P(qL, y) through different scipy calls
        assert md <= 1.0 - fa + 1e-15
        assert _probability(dep, params) is not None
    deps = [_probability(dep, params.with_(p_b=p)) for p in sorted(powers)]
    deps = [d for d in deps if d is not None]
    assert all(b <= a + 1e-12 for a, b in zip(deps, deps[1:])), (sorted(powers), deps)
