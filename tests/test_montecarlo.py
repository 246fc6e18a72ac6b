"""Monte Carlo detector and link simulators: statistical agreement with
the closed forms, reproducibility, and distributional sanity."""

import math

import numpy as np
import pytest
from scipy import stats

from covertcomm.analytic import (
    covert_rate,
    false_alarm_prob,
    miss_detection_conditional,
    miss_detection_prob,
    rtp,
)
from covertcomm.montecarlo import (
    EstimateWithError,
    RngSpec,
    detector_statistic_samples,
    simulate_detector,
    simulate_rate,
    simulate_rtp,
)
from covertcomm.params import SystemParams, power_from_snr_db

_BASE = SystemParams()
_AT37 = _BASE.with_(p_b=power_from_snr_db(37.0))
_SMALL = SystemParams(m=2, k=2, q=8, L=2, gamma_e=2.0, p_b=50.0)


def _within(est: EstimateWithError, truth: float, sigmas: float = 3.0) -> bool:
    # rule-of-three floor keeps zero-count cells honest
    slack = sigmas * est.std_error + 3.0 / est.trials
    return abs(est.mean - truth) <= slack


def test_rng_spec_validation():
    with pytest.raises(ValueError):
        RngSpec(seed=-1)
    with pytest.raises(ValueError):
        RngSpec(seed=2**64)
    with pytest.raises(ValueError):
        RngSpec(seed=1, stream=-2)


def test_rng_spec_streams_are_independent():
    a = RngSpec(123, 0).generator().random(4)
    b = RngSpec(123, 1).generator().random(4)
    assert not np.allclose(a, b)


def test_estimate_fields():
    fa, md = simulate_detector(_AT37, trials=200, rng=RngSpec(5, 0))
    for est in (fa, md):
        assert est.trials == 200
        assert 0.0 <= est.mean <= 1.0
        assert est.std_error >= 0.0


def test_trials_floor_enforced():
    with pytest.raises(ValueError):
        simulate_detector(_BASE, trials=99, rng=RngSpec(1, 0))
    with pytest.raises(ValueError):
        simulate_rtp(_BASE, trials=50, rng=RngSpec(1, 0))
    with pytest.raises(ValueError):
        simulate_rate(_BASE, 1.0, trials=10, rng=RngSpec(1, 0))


def test_detector_reproducible_and_stream_sensitive():
    a = simulate_detector(_AT37, trials=2000, rng=RngSpec(42, 7))
    b = simulate_detector(_AT37, trials=2000, rng=RngSpec(42, 7))
    c = simulate_detector(_AT37, trials=2000, rng=RngSpec(42, 8))
    assert a == b
    # false alarm is 0.0 in both streams (P_FA ~ 1e-70 at the defaults),
    # so the miss estimate carries the stream dependence
    assert a[1].mean != c[1].mean


def test_detector_matches_closed_forms():
    fa, md = simulate_detector(_AT37, trials=20_000, rng=RngSpec(9, 1))
    assert _within(fa, false_alarm_prob(_AT37))
    assert _within(md, miss_detection_prob(_AT37))


def test_detector_spans_chunks():
    # a block at the defaults is 512 draws, so this crosses the internal
    # chunk boundary several times
    fa, md = simulate_detector(_AT37, trials=15_000, rng=RngSpec(9, 2))
    assert fa.trials == md.trials == 15_000
    assert _within(md, miss_detection_prob(_AT37))


def test_noise_statistic_distribution():
    # normalized noise-only statistic follows a Gamma(qL, 1) law
    t = detector_statistic_samples(_BASE, trials=10_000, rng=RngSpec(77, 0))
    ks = stats.kstest(t / _BASE.sigma0_sq, "gamma", args=(_BASE.q * _BASE.L,))
    assert ks.pvalue > 0.01


def test_signal_statistic_mean():
    g = 1.3
    t = detector_statistic_samples(
        _AT37, trials=20_000, rng=RngSpec(77, 1), signal=True, g=g
    )
    n = _BASE.q * _BASE.L
    k_l = _BASE.k * _BASE.L
    want = n * _AT37.sigma0_sq + k_l * _AT37.rho * g
    z = (t.mean() - want) / (t.std(ddof=1) / math.sqrt(t.size))
    assert abs(z) < 4.0


@pytest.mark.parametrize(
    "params,g",
    [
        (_SMALL, 1.0),
        (_SMALL.with_(k=8), 1.5),  # k = q: no idle slots in the block
        (_AT37, 2.0),
        (_AT37.with_(k=64), 1.6),
    ],
    ids=["q8-k2", "q8-k8", "defaults-k4", "defaults-k64"],
)
def test_signal_statistic_law(params, g):
    # fraction of signal-present blocks at or below the threshold is the
    # conditional miss probability at that gain
    n = 20_000
    t = detector_statistic_samples(
        params, trials=n, rng=RngSpec(78, params.k), signal=True, g=g
    )
    frac = float(np.count_nonzero(t <= params.effective_threshold)) / n
    se = math.sqrt(frac * (1.0 - frac) / (n - 1))
    truth = miss_detection_conditional(params, g)
    assert 0.1 < truth < 0.9
    assert abs(frac - truth) <= 4.0 * se + 3.0 / n


def test_rtp_matches_closed_form():
    for p_b, stream in ((0.5, 0), (1.0, 1), (4.0, 2)):
        params = _BASE.with_(p_b=p_b)
        est = simulate_rtp(params, trials=100_000, rng=RngSpec(31, stream))
        assert _within(est, rtp(params)), f"p_b={p_b}"


def test_rtp_edges():
    est = simulate_rtp(_BASE.with_(gamma_u=0.0), trials=1000, rng=RngSpec(3, 0))
    assert est.mean == 1.0 and est.std_error == 0.0
    est = simulate_rtp(_BASE.with_(p_b=0.0), trials=1000, rng=RngSpec(3, 1))
    assert est.mean == 0.0


def test_rate_matches_closed_form():
    est = simulate_rate(_BASE, 1.0, trials=100_000, rng=RngSpec(13, 0))
    truth = covert_rate(_BASE, 1.0)
    assert abs(est.mean - truth) <= 3.0 * est.std_error


def test_rate_rejects_bad_power():
    with pytest.raises(ValueError):
        simulate_rate(_BASE, 0.0, trials=1000, rng=RngSpec(1, 0))


def test_rate_rejects_infinite_power():
    with pytest.raises(ValueError, match="power p must be finite"):
        simulate_rate(_BASE, math.inf, trials=1000, rng=RngSpec(1, 0))
