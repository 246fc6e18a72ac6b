"""Monte Carlo estimators that mirror the closed forms sample by sample.

These simulators draw every complex sample of a detection block rather
than the aggregated Gamma laws the closed forms rest on, so they act as
independent oracles for the analytic module. The detector only needs
each sample's energy, and for x ~ CN(0, v) the energy |x|^2 is exactly
v * Exp(1) (the sum of two squared N(0, v/2) parts is chi-squared with
two degrees of freedom, scaled by v/2), so one standard exponential
draw per complex sample gives the same law as a pair of real normals.
Streams are addressed through PCG64 jumps, which makes every estimate
reproducible for a given (seed, stream) pair and lets sweeps hand out
disjoint substreams without coordination.

The draws stream through one scratch buffer per estimator call:
_DRAW_FLOATS doubles (or one block of qL, where that is more), except in
simulate_rate, whose sums over _CHUNK_FLOATS draws fix its mean. A
generator fills an array one draw after another, so a run of rows drawn
into the buffer holds the values that one whole array of draws would
hold there, and every estimate keeps its bits whatever the buffer's size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import _integer

# the trial grouping: a detector chunk is _CHUNK_FLOATS // qL trials, whose
# gains are drawn after all their noise-only blocks, and simulate_rate sums
# its rates per _CHUNK_FLOATS draws; so this fixes where each draw falls and
# every estimate's bits. It sizes no array but simulate_rate's buffer.
_CHUNK_FLOATS = 1_000_000

# doubles per scratch buffer (256 KB), the most any estimator but
# simulate_rate holds of its draws at once
_DRAW_FLOATS = 1 << 15


@dataclass(frozen=True)
class RngSpec:
    """Addresses one reproducible random stream.

    seed selects the PCG64 base state; stream applies that many jumps,
    each advancing the generator by 2^64 draws, so distinct streams
    never overlap.
    """

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if not 0 <= _integer("seed", self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        if _integer("stream", self.stream) < 0:
            raise ValueError(f"stream must be >= 0, got {self.stream!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed).jumped(self.stream))


@dataclass(frozen=True)
class EstimateWithError:
    """Sample mean plus its standard error (sample std over sqrt(trials))."""

    mean: float
    std_error: float
    trials: int


def _check_trials(trials: int) -> int:
    trials = _integer("trials", trials)
    if trials < 100:
        raise ValueError(f"need at least 100 trials for a standard error, got {trials}")
    return trials


def _binomial_estimate(hits: int, trials: int) -> EstimateWithError:
    phat = hits / trials
    se = np.sqrt(phat * (1.0 - phat) / (trials - 1))
    return EstimateWithError(mean=float(phat), std_error=float(se), trials=trials)


def _chunks(total: int, size: int):
    done = 0
    while done < total:
        n = min(size, total - done)
        yield n
        done += n


def _draw_buffer(params, rows: int) -> np.ndarray:
    """Scratch for rows blocks of qL draws: _DRAW_FLOATS doubles, or one block."""
    width = params.q * params.L
    return np.empty(min(rows * width, max(_DRAW_FLOATS, width)))


def _row_sums(gen: np.random.Generator, buf: np.ndarray, width: int, out: np.ndarray):
    """Fill out with the row sums of an (out.size, width) array of Exp(1) draws.

    The rows are drawn in runs that fit buf and summed run by run; each
    row's pairwise sum is that of the whole array's row, so out holds the
    same bits as gen.standard_exponential((out.size, width)).sum(axis=1).
    """
    rows = buf.size // width
    for pos in range(0, out.size, rows):
        run = buf[: min(rows, out.size - pos) * width].reshape(-1, width)
        gen.standard_exponential(out=run)
        run.sum(axis=1, out=out[pos : pos + len(run)])
    return out


def _block_energy(gen: np.random.Generator, params, buf: np.ndarray, out: np.ndarray,
                  gains=None) -> np.ndarray:
    """Write into out the energy statistic of out.size blocks of qL complex samples.

    Each sample's energy is its variance times one Exp(1) draw. With
    gains None every sample is noise of variance sigma0_sq; otherwise the
    kL samples in the user slots have variance rho * g + sigma0_sq, with
    g the row's warden gain (an array of out.size, or one float for all
    rows). buf is the draws' scratch, at least qL doubles.
    """
    q, k, L = params.q, params.k, params.L
    s2 = params.sigma0_sq
    if gains is None:
        _row_sums(gen, buf, q * L, out)
        out *= s2
        return out
    _row_sums(gen, buf, k * L, out)
    out *= params.rho * gains + s2
    if q > k:
        idle = _row_sums(gen, buf, (q - k) * L, np.empty(out.size))
        idle *= s2
        out += idle
    return out


def simulate_detector(
    params, trials: int, rng: RngSpec
) -> tuple[EstimateWithError, EstimateWithError]:
    """Estimate (false alarm, miss detection) probabilities by sampling.

    Each trial draws a full block of qL complex samples for the
    noise-only statistic, then a fresh warden gain g ~ Exp(omega_e) and
    block for the signal-present statistic. A complex sample of variance
    v enters through its energy, which is exactly v * Exp(1), so every
    sample costs one exponential draw.
    """
    trials = _check_trials(trials)
    gen = rng.generator()
    thr = params.effective_threshold
    chunk = min(trials, max(1, _CHUNK_FLOATS // (params.q * params.L)))
    buf = _draw_buffer(params, chunk)
    stat = np.empty(chunk)
    fa_hits = 0
    md_hits = 0
    for n in _chunks(trials, chunk):
        t = _block_energy(gen, params, buf, stat[:n])
        fa_hits += int(np.count_nonzero(t > thr))
        g = gen.exponential(params.omega_e, n)
        t = _block_energy(gen, params, buf, stat[:n], g)
        md_hits += int(np.count_nonzero(t <= thr))
    return _binomial_estimate(fa_hits, trials), _binomial_estimate(md_hits, trials)


def detector_statistic_samples(
    params, trials: int, rng: RngSpec, signal: bool = False, g: float | None = None
) -> np.ndarray:
    """Raw draws of the block energy statistic, for distribution tests.

    With signal=False the samples follow the noise-only law
    Gamma(qL, sigma0_sq). With signal=True the warden gain is drawn per
    trial unless a fixed g >= 0 is supplied.
    """
    trials = _integer("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if g is not None and not g >= 0.0:
        raise ValueError(f"channel gain must be >= 0, got {g!r}")
    if g is not None and (g == 0.0 or params.p_b == 0.0):
        params, g = params.with_(p_b=0.0), 0.0  # no received power, never 0 * inf
    gen = rng.generator()
    chunk = min(trials, max(1, _CHUNK_FLOATS // (params.q * params.L)))
    buf = _draw_buffer(params, chunk)
    out = np.empty(trials)
    for pos in range(0, trials, chunk):
        t = out[pos : pos + chunk]
        gains = None
        if signal:
            gains = g if g is not None else gen.exponential(params.omega_e, t.size)
        _block_energy(gen, params, buf, t, gains)
    return out


def _exponentials(gen: np.random.Generator, out: np.ndarray, scale: float) -> np.ndarray:
    # numpy draws Exp(scale) as scale * Exp(1), one element at a time, so
    # this gives the bits of gen.exponential(scale, out.size)
    gen.standard_exponential(out=out)
    out *= scale
    return out


def simulate_rtp(params, trials: int, rng: RngSpec) -> EstimateWithError:
    """Estimate the reliable transmission probability by sampling gains."""
    trials = _check_trials(trials)
    gen = rng.generator()
    if params.gamma_u == 0.0:
        need = 0.0
    elif params.p_b == 0.0 or params.gamma_u == math.inf:
        need = np.inf
    else:
        need = (
            params.gamma_u
            * params.k
            * params.sigma0_sq
            / (params.m * params.p_b)
        )
    # a count of sequential draws: runs of any size give the same hits
    buf = np.empty(min(trials, _DRAW_FLOATS))
    hits = 0
    for n in _chunks(trials, buf.size):
        h = _exponentials(gen, buf[:n], params.omega_u)
        hits += int(np.count_nonzero(h >= need))
    return _binomial_estimate(hits, trials)


def simulate_rate(params, p: float, trials: int, rng: RngSpec) -> EstimateWithError:
    """Estimate the ergodic rate E[log2(1 + beta h)] at finite transmit power p > 0."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"transmit power p must be finite and > 0, got {p!r}")
    trials = _check_trials(trials)
    gen = rng.generator()
    beta = params.m * p / (params.k * params.sigma0_sq)
    total = 0.0
    total_sq = 0.0
    # each group's pairwise sum fixes the mean's bits, so the groups stay
    # _CHUNK_FLOATS long; one buffer holds each in turn, worked in place
    buf = np.empty(min(trials, _CHUNK_FLOATS))
    for n in _chunks(trials, buf.size):
        r = _exponentials(gen, buf[:n], params.omega_u)
        r *= beta
        r += 1.0
        np.log2(r, out=r)
        total += float(r.sum())
        total_sq += float(r @ r)
    mean = total / trials
    var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    return EstimateWithError(
        mean=mean, std_error=float(np.sqrt(var / trials)), trials=trials
    )
