"""Monte Carlo detector and link simulators: statistical agreement with
the closed forms, reproducibility, and distributional sanity."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from covertcomm import montecarlo
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


def test_rng_spec_rejects_non_integers():
    # int() would truncate these: RngSpec(1, 1.5) drew the stream of
    # RngSpec(1, 1) yet compared unequal to it
    with pytest.raises(ValueError, match="stream"):
        RngSpec(1, 1.5)
    with pytest.raises(ValueError, match="seed"):
        RngSpec(1.5, 0)
    spec = RngSpec(np.uint64(3), np.int64(2))
    assert spec == RngSpec(3, 2)
    assert spec.generator().random() == RngSpec(3, 2).generator().random()


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


def test_trial_counts_must_be_integers():
    # a float count is refused, not truncated (150.7 trials would run 150)
    for run in (
        lambda t: simulate_detector(_SMALL, t, RngSpec(1, 0)),
        lambda t: simulate_rtp(_SMALL, t, RngSpec(1, 0)),
        lambda t: simulate_rate(_SMALL, 1.0, t, RngSpec(1, 0)),
        lambda t: detector_statistic_samples(_SMALL, t, RngSpec(1, 0)),
    ):
        for bad in (150.7, 150.0, 2.9):
            with pytest.raises(ValueError, match="trials must be an integer"):
                run(bad)
    # numpy integers are still counts
    fa, _ = simulate_detector(_SMALL, np.int64(150), RngSpec(1, 0))
    assert fa.trials == 150 and type(fa.trials) is int
    assert detector_statistic_samples(_SMALL, np.int32(3), RngSpec(1, 0)).shape == (3,)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        detector_statistic_samples(_SMALL, 0, RngSpec(1, 0))


def test_statistic_samples_reject_a_negative_or_nan_gain():
    # a negative gain made negative energies, a nan one nan energies
    at = SystemParams(p_b=1e4)
    for g in (-5.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="channel gain must be >= 0"):
            detector_statistic_samples(at, 10, RngSpec(1, 0), signal=True, g=g)
    assert detector_statistic_samples(at, 10, RngSpec(1, 0), signal=True, g=0.0).min() > 0.0


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
    est = simulate_rtp(
        _BASE.with_(gamma_u=math.inf, p_b=math.inf), trials=1000, rng=RngSpec(3, 2)
    )
    assert est.mean == 0.0


def test_rate_matches_closed_form():
    est = simulate_rate(_BASE, 1.0, trials=100_000, rng=RngSpec(13, 0))
    truth = covert_rate(_BASE, 1.0)
    assert abs(est.mean - truth) <= 3.0 * est.std_error


def test_rtp_and_rate_span_chunks(monkeypatch):
    # the same draws in the same order, so a run over chunks of 1000
    # counts the same hits and sums the same rates as one chunk
    params = _BASE.with_(p_b=1.0)
    rtp_whole = simulate_rtp(params, trials=2_500, rng=RngSpec(41, 0))
    rate_whole = simulate_rate(params, 1.0, trials=2_500, rng=RngSpec(41, 1))
    monkeypatch.setattr(montecarlo, "_CHUNK_FLOATS", 1_000)
    assert simulate_rtp(params, trials=2_500, rng=RngSpec(41, 0)) == rtp_whole
    rate = simulate_rate(params, 1.0, trials=2_500, rng=RngSpec(41, 1))
    assert rate.trials == rate_whole.trials
    assert rate.mean == pytest.approx(rate_whole.mean, rel=1e-12, abs=0.0)
    assert rate.std_error == pytest.approx(rate_whole.std_error, rel=1e-9, abs=0.0)


# sha256 of the draws' bytes, recorded with a second energy call per chunk
# for the noise-only law
_SAMPLE_SHA256 = {
    (False, None): "f54bdc037f7d95f7bcdc0457630a19f83e1757e60a069c5c61d58f9d489fd0c2",
    (True, None): "8164b3288f7086719575d907cce2b7d3a242eacbf2a2a48cb89787e61442e248",
    (True, 0.7): "e9ce6244f2e01d83013a095a99ce9c35861ba59863243534053d0a62bdf060de",
}


@pytest.mark.parametrize("signal, g", list(_SAMPLE_SHA256))
def test_statistic_samples_keep_their_bytes_across_chunks(monkeypatch, signal, g):
    # two rows per chunk, so 37 trials span 19 chunks
    monkeypatch.setattr(montecarlo, "_CHUNK_FLOATS", 16)
    params = SystemParams(q=4, L=2, k=1, p_b=50.0)
    x = detector_statistic_samples(params, 37, RngSpec(5, 0), signal=signal, g=g)
    assert hashlib.sha256(x.tobytes()).hexdigest() == _SAMPLE_SHA256[signal, g]


_AT40 = _BASE.with_(p_b=power_from_snr_db(40.0))


def _streamed_results(params):
    return (
        simulate_detector(params, 2_500, RngSpec(8, 0)),
        *(detector_statistic_samples(params, 2_500, RngSpec(8, 1), signal, g).tobytes()
          for signal, g in ((False, None), (True, None), (True, 0.7))),
        simulate_rtp(params, 2_500, RngSpec(8, 2)),
    )


@pytest.mark.parametrize("block", [8, 1_100], ids=["block-8", "block-1100"])
def test_draw_block_leaves_every_bit(monkeypatch, block):
    # the reference holds each chunk's draws in one array, as whole arrays
    # of draws would; 2 500 trials are a chunk of 1953 rows and one of 547;
    # 8 doubles is less than one block of qL = 512, so the buffer holds one
    # block (runs of 1 row of 512 or 480 draws, or 16 rows of 32); 1 100
    # is a multiple of none of the widths, and its runs of 2, 34 and 2 rows
    # split neither row count evenly
    monkeypatch.setattr(montecarlo, "_DRAW_FLOATS", 1 << 30)
    whole = _streamed_results(_AT37)
    monkeypatch.setattr(montecarlo, "_DRAW_FLOATS", block)
    assert _streamed_results(_AT37) == whole


def test_row_sums_are_the_whole_array_row_sums():
    # runs of 2 rows of 512 draws give the bits of one (2500, 512) array
    # of draws summed along its rows
    got = montecarlo._row_sums(np.random.default_rng(5), np.empty(1_100), 512,
                               np.empty(2_500))
    want = np.random.default_rng(5).standard_exponential((2_500, 512)).sum(axis=1)
    assert got.tobytes() == want.tobytes()


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "run, ceiling_mib",
    [
        (lambda: simulate_detector(_AT40, 20_000, RngSpec(2, 0)), 1.5),
        (lambda: detector_statistic_samples(_AT40, 20_000, RngSpec(2, 1), True), 1.5),
        (lambda: simulate_rtp(_AT40, 2_000_000, RngSpec(2, 2)), 1.5),
        (lambda: simulate_rate(_AT40, 1.0, 2_000_000, RngSpec(2, 3)), 8.5),
    ],
    ids=["detector", "statistic-samples", "rtp", "rate"],
)
def test_estimator_memory_does_not_grow_with_trials(run, ceiling_mib):
    # the draws stream through one scratch buffer; whole arrays of the
    # draws would peak at 7.7, 7.4, 15.3 and 30.5 MiB here
    assert _traced_peak(run) <= ceiling_mib * 2**20


def test_rate_rejects_bad_power():
    with pytest.raises(ValueError):
        simulate_rate(_BASE, 0.0, trials=1000, rng=RngSpec(1, 0))


def test_rate_rejects_infinite_power():
    with pytest.raises(ValueError, match="power p must be finite"):
        simulate_rate(_BASE, math.inf, trials=1000, rng=RngSpec(1, 0))


@pytest.mark.parametrize("p_b, g", [(math.inf, 0.0), (0.0, math.inf)],
                         ids=["p_b-inf-g-0", "p_b-0-g-inf"])
def test_statistic_samples_without_received_power(p_b, g):
    # g = 0 or p_b = 0 is no received power, as in the closed forms, even
    # where the other factor is inf: the samples are those of p_b = g = 0,
    # not 0 * inf = NaN
    spec = RngSpec(11, 2)
    want = detector_statistic_samples(SystemParams(p_b=0.0), 300, spec, True, 0.0)
    got = detector_statistic_samples(SystemParams(p_b=p_b), 300, spec, True, g)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()
