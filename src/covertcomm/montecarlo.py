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
"""

import math
from dataclasses import dataclass

import numpy as np

# keeps each array of draws near 8 MB regardless of block size; 48 MB
# arrays measured slower, each one a fresh mapping whose pages fault in
_CHUNK_FLOATS = 1_000_000


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
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        if int(self.stream) < 0:
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
    trials = int(trials)
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


def _block_energy(gen: np.random.Generator, params, n: int, gains=None) -> np.ndarray:
    """Energy statistic of n detection blocks of qL complex samples.

    Each sample's energy is its variance times one Exp(1) draw. With
    gains None every sample is noise of variance sigma0_sq; otherwise the
    kL samples in the user slots have variance rho * g + sigma0_sq, with
    g the row's warden gain (an array of n, or one float for all rows).
    """
    q, k, L = params.q, params.k, params.L
    s2 = params.sigma0_sq
    if gains is None:
        return s2 * gen.standard_exponential((n, q * L)).sum(axis=1)
    t = (params.rho * gains + s2) * gen.standard_exponential((n, k * L)).sum(axis=1)
    if q > k:
        t += s2 * gen.standard_exponential((n, (q - k) * L)).sum(axis=1)
    return t


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
    chunk = max(1, _CHUNK_FLOATS // (params.q * params.L))
    fa_hits = 0
    md_hits = 0
    for n in _chunks(trials, chunk):
        t0 = _block_energy(gen, params, n)
        fa_hits += int(np.count_nonzero(t0 > thr))
        g = gen.exponential(params.omega_e, n)
        t1 = _block_energy(gen, params, n, g)
        md_hits += int(np.count_nonzero(t1 <= thr))
    return _binomial_estimate(fa_hits, trials), _binomial_estimate(md_hits, trials)


def detector_statistic_samples(
    params, trials: int, rng: RngSpec, signal: bool = False, g: float | None = None
) -> np.ndarray:
    """Raw draws of the block energy statistic, for distribution tests.

    With signal=False the samples follow the noise-only law
    Gamma(qL, sigma0_sq). With signal=True the warden gain is drawn per
    trial unless a fixed g is supplied.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = rng.generator()
    chunk = max(1, _CHUNK_FLOATS // (params.q * params.L))
    out = np.empty(trials)
    pos = 0
    for n in _chunks(trials, chunk):
        if not signal:
            out[pos : pos + n] = _block_energy(gen, params, n)
        else:
            gains = g if g is not None else gen.exponential(params.omega_e, n)
            out[pos : pos + n] = _block_energy(gen, params, n, gains)
        pos += n
    return out


def simulate_rtp(params, trials: int, rng: RngSpec) -> EstimateWithError:
    """Estimate the reliable transmission probability by sampling gains."""
    trials = _check_trials(trials)
    gen = rng.generator()
    if params.gamma_u == 0.0:
        need = 0.0
    elif params.p_b == 0.0:
        need = np.inf
    else:
        need = (
            params.gamma_u
            * params.k
            * params.sigma0_sq
            / (params.m * params.p_b)
        )
    hits = 0
    for n in _chunks(trials, 4_000_000):
        h = gen.exponential(params.omega_u, n)
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
    for n in _chunks(trials, 4_000_000):
        h = gen.exponential(params.omega_u, n)
        r = np.log2(1.0 + beta * h)
        total += float(r.sum())
        total_sq += float(r @ r)
    mean = total / trials
    var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    return EstimateWithError(
        mean=mean, std_error=float(np.sqrt(var / trials)), trials=trials
    )
