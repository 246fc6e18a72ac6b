"""Slot-hopping scheduler over a sensed q x p time-frequency grid.

Each base station senses all q frequency slots once per time slot
(imperfectly), folds the observation into a per-slot occupancy belief
with a two-state Markov prior, and then assigns one slot to each of its
users under the hopping rule that a user never repeats its previous
slot. Ground truth (jammer and external traffic) evolves independently
of what the stations believe, so sensing noise translates directly into
jammer hits and lost blocks.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .montecarlo import RngSpec
from .params import _integer

GREEDY_BELIEF = "greedy_belief"
RANDOM_HOP = "random_hop"
POLICIES = (GREEDY_BELIEF, RANDOM_HOP)

_SRC_JAMMER = 1
_SRC_EXTERNAL = 2
_SRC_TAGS = ("free", "jammer", "external")

# doubles per greedy_belief draw in an episode (256 KB)
_RUN_FLOATS = 1 << 15


class OverloadError(RuntimeError):
    """A station could not find admissible slots for all its users.

    assignment holds the partial allocation with -1 for the users that
    could not be placed.
    """

    def __init__(self, message, assignment=None):
        super().__init__(message)
        self.assignment = assignment


@dataclass(frozen=True)
class GridConfig:
    """Static description of one scheduling scenario."""

    q: int = 64
    p: int = 1000
    L: int = 8
    m: int = 4
    users_per_bs: tuple[int, ...] = (1, 1, 1, 1)
    jammed_slots: frozenset[int] = frozenset()
    external_occupancy_prob: float = 0.0
    sense_miss_prob: float = 0.0
    sense_fa_prob: float = 0.0
    belief_persistence: float = 0.8
    distinct_within_block: bool = False
    shared_control_matrix: bool = False

    def __post_init__(self):
        for name in ("q", "p", "L", "m"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.q < 1 or self.p < 1 or self.L < 1 or self.m < 1:
            raise ValueError(
                f"grid dimensions must be >= 1, got q={self.q}, p={self.p}, "
                f"L={self.L}, m={self.m}"
            )
        users = tuple(_integer("users_per_bs entry", u) for u in self.users_per_bs)
        object.__setattr__(self, "users_per_bs", users)
        if len(users) != self.m:
            raise ValueError(
                f"users_per_bs must list {self.m} stations, got {len(users)}"
            )
        if any(u < 0 for u in users):
            raise ValueError(f"user counts must be >= 0, got {users}")
        if sum(users) > self.q:
            raise ValueError(
                f"{sum(users)} users cannot fit {self.q} slots collision-free"
            )
        if self.L > self.p:
            raise ValueError(f"block length L={self.L} exceeds horizon p={self.p}")
        jam = frozenset(_integer("jammed_slots entry", f) for f in self.jammed_slots)
        object.__setattr__(self, "jammed_slots", jam)
        if any(not 0 <= f < self.q for f in jam):
            raise ValueError(f"jammed slots out of range [0, {self.q}): {sorted(jam)}")
        for name in (
            "external_occupancy_prob",
            "sense_miss_prob",
            "sense_fa_prob",
            "belief_persistence",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def k(self) -> int:
        """Total served users, i.e. slots occupied per time slot."""
        return sum(self.users_per_bs)


@dataclass(frozen=True, eq=False)
class BeliefState:
    """Per-slot posterior probability of non-legitimate occupation."""

    probs: np.ndarray

    @staticmethod
    def uniform(q: int, prior: float = 0.5) -> "BeliefState":
        return BeliefState(probs=np.full(q, float(prior)))


@dataclass(frozen=True)
class EpisodeStats:
    """Aggregate outcome counters for one scheduled episode.

    collisions counts cells holding two or more legitimate users;
    jammer_hits counts user transmissions on cells a jammer or external
    device occupied; blocks_delivered counts completed runs of L
    consecutive clean transmissions (sole user on the slot, nothing
    hostile on it) per user. pattern_entropy is the mean over users of
    the Shannon entropy of their empirical slot histogram, in bits.
    """

    collisions: int
    jammer_hits: int
    hop_violations: int
    blocks_delivered: int
    overloads: int
    pattern_entropy: float

    def as_dict(self) -> dict:
        return asdict(self)


class OccupancyGrid:
    """Ground-truth record of one episode.

    source holds the non-legitimate occupation (free / jammer /
    external) per cell; assignments holds each user's slot per time slot
    with -1 for idle. Legitimate users are kept out of source so the
    background the stations were fighting stays visible after the fact.
    """

    def __init__(self, q: int, p: int, n_users: int):
        self.q = q
        self.p = p
        self.source = np.zeros((p, q), dtype=np.int8)
        self.assignments = np.full((p, n_users), -1, dtype=np.int32)

    def occupant(self, t: int, f: int) -> str:
        """Tag for one cell; the lowest-numbered user wins over background."""
        users = np.flatnonzero(self.assignments[t] == f)
        if users.size:
            return f"user{users[0]}"
        return _SRC_TAGS[self.source[t, f]]

    def rows(self):
        """Yield (t, f, tag) for every cell, in row-major order.

        Same tags as occupant(), read off one table of the whole grid.
        """
        tags = np.array(_SRC_TAGS, dtype=object)[self.source]
        # highest-numbered user first, so the lowest one on a cell wins
        for u in reversed(range(self.assignments.shape[1])):
            ts = np.flatnonzero(self.assignments[:, u] >= 0)
            tags[ts, self.assignments[ts, u]] = f"user{u}"
        for t, row in enumerate(tags):
            for f, tag in enumerate(row):
                yield t, f, tag


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    return rng


def sense(truth: np.ndarray, cfg: GridConfig, rng) -> np.ndarray:
    """One noisy full-band observation: boolean occupied-or-not per slot.

    Occupied slots are seen with probability 1 - sense_miss_prob, free
    slots misread as occupied with probability sense_fa_prob. truth may
    have any shape; an (m, q) truth, one row per station, draws the same
    uniforms row by row as m consecutive calls on its (q,) rows. rng may
    be an RngSpec or a live numpy Generator.
    """
    gen = _as_generator(rng)
    truth = np.asarray(truth, dtype=bool)
    return _seen(gen.random(truth.shape), truth, cfg)


def _seen(u: np.ndarray, truth: np.ndarray, cfg: GridConfig) -> np.ndarray:
    """The sensing rule on given uniforms; truth broadcasts against u."""
    return u < np.where(truth, 1.0 - cfg.sense_miss_prob, cfg.sense_fa_prob)


def update_beliefs(
    state: BeliefState, observed: np.ndarray, cfg: GridConfig
) -> BeliefState:
    """Bayes update of the occupancy beliefs for one observation round.

    The prior first mixes through the two-state persistence kernel
    (a slot keeps its state with probability belief_persistence), then
    the noisy observation reweights it through the sensor's likelihoods.
    The update is elementwise, so probs and observed may have any common
    shape: an (m, q) pair, one row per station, gives each row the same
    bits as a call on that row alone.
    """
    observed = np.asarray(observed, dtype=bool)
    pi = state.probs
    rho = cfg.belief_persistence
    prior = rho * pi + (1.0 - rho) * (1.0 - pi)
    # the likelihoods of what was seen, given a truly occupied or free slot
    miss, fa = cfg.sense_miss_prob, cfg.sense_fa_prob
    like_occ = np.where(observed, 1.0 - miss, miss)
    like_free = np.where(observed, fa, 1.0 - fa)
    num = prior * like_occ
    den = num + (1.0 - prior) * like_free
    # where den is 0 the posterior keeps its prior
    return BeliefState(probs=np.divide(num, den, out=prior, where=den > 0.0))


def decide(
    beliefs: BeliefState,
    prev: np.ndarray,
    policy,
    rng,
    *,
    occupied=None,
    excluded=None,
) -> np.ndarray:
    """Assign one slot to each user of a station for the next time slot.

    prev holds each user's slot from the previous time slot (-1 if
    idle); no user is ever handed its own previous slot, and users of
    the same station never share a slot. occupied adds slots already
    claimed elsewhere this time slot (shared control matrix); excluded
    adds per-user forbidden sets (block-distinct hopping). A -1 in prev,
    occupied or excluded bans nothing.

    policy is "greedy_belief" (fill users with the least-suspect slots,
    ties to the lowest index), "random_hop" (uniform over admissible
    slots, ignoring beliefs), or a callable (beliefs, prev, gen) ->
    assignment array that is given free rein.

    Raises OverloadError when some user cannot be placed; the partial
    assignment rides on the exception. rng may be an RngSpec or a live
    numpy Generator (only random_hop and custom policies consume it).
    """
    gen = _as_generator(rng)
    prev = np.asarray(prev, dtype=int)
    n = prev.size
    q = beliefs.probs.size
    if callable(policy):
        out = np.asarray(policy(beliefs, prev, gen), dtype=int)
        if out.shape != (n,):
            raise ValueError(
                f"custom policy returned shape {out.shape}, expected {(n,)}"
            )
        if np.any((out < -1) | (out >= q)):
            raise ValueError("custom policy assigned a slot outside [0, q)")
        return out
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")

    order = None
    if policy == GREEDY_BELIEF:
        order = beliefs.probs.argsort(kind="stable").tolist()
    picks = _pick(
        order, frozenset(range(q)), prev.tolist(),
        set(occupied) if occupied else set(),
        [()] * n if excluded is None else excluded, gen,
    )
    out = np.array(picks, dtype=int)
    unplaced = picks.count(-1)
    if unplaced:
        raise OverloadError(
            f"{unplaced} of {n} users could not be placed", assignment=out
        )
    return out


def _pick(order, slots, prev, taken, excluded, gen) -> list:
    """The built-in picking rules: one slot per user of a station, in order.

    order lists the slots best first (greedy_belief: the first one not
    banned) or is None (random_hop: uniform over the ones not banned,
    one draw per user with an admissible slot). slots is the frozenset
    of all q slots. A user's banned slots are its previous slot prev[u],
    the slots of excluded[u] and taken, the slots claimed so far this
    time slot, which gains every pick. Values outside slots ban nothing.
    An unplaced user gets -1.
    """
    picks = []
    for u, prev_f in enumerate(prev):
        excl = excluded[u]
        if order is not None:
            for f in order:
                if f != prev_f and f not in taken and f not in excl:
                    break
            else:
                f = -1
        else:
            # the i-th admissible slot: draw i, then step over the banned
            # slots at or below it
            skip = sorted({prev_f, *taken, *excl} & slots)
            f = -1
            if len(skip) < len(slots):
                f = int(gen.integers(len(slots) - len(skip)))
                for b in skip:
                    if b > f:
                        break
                    f += 1
        picks.append(f)
        taken.add(f)  # an unplaced user's -1 matches no slot
    return picks


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    pmf = counts[counts > 0] / total
    return float(-(pmf * np.log2(pmf)).sum())


def run_episode_trace(cfg: GridConfig, policy, rng: RngSpec):
    """Run one episode and return (EpisodeStats, OccupancyGrid).

    Stations act in index order within each time slot; with the shared
    control matrix enabled, later stations see the slots earlier ones
    claimed. A user a built-in policy cannot place stays idle for that
    time slot; the overload counter is read off the finished grid as its
    -1 entries (0 under a custom policy, whose -1 is its own choice).

    The grid is the episode's only record. The jammed columns are written
    into it once, before the first time slot. A time slot reads the
    previous row (all -1 at t = 0) and the current block's rows so far
    (block-distinct hopping) from it once, builds its own row as a list,
    whose earlier stations' entries are the shared control matrix's
    claims, and writes that row once. Under every policy station b's
    beliefs are row b of one (m, q) array.

    Each time slot draws q uniforms for external traffic, then q sensing
    uniforms per station in index order (stations without users
    included), interleaved with the draws of decide for policies that
    draw. greedy_belief picks without drawing, so a run of time slots
    takes these uniforms in one call (the same doubles in the same order)
    and updates every row at once; random_hop never reads what it senses;
    a custom policy senses, updates and decides station by station. The
    built-in policies pick through the same routine as decide.
    """
    if not (callable(policy) or policy in POLICIES):
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    greedy = policy == GREEDY_BELIEF
    custom = callable(policy)
    gen = rng.generator()
    q, m, L = cfg.q, cfg.m, cfg.L
    n_users = cfg.k
    grid = OccupancyGrid(q, cfg.p, n_users)
    jammed = sorted(cfg.jammed_slots)
    grid.source[:, jammed] = _SRC_JAMMER

    beliefs = BeliefState(probs=np.full((m, q), 0.5))
    orders = [None] * m  # random_hop ranks no slots
    # user index ranges per station
    bounds = np.concatenate([[0], np.cumsum(cfg.users_per_bs)]).tolist()
    slots = frozenset(range(q))
    idle = [-1] * n_users
    no_bans = [()] * n_users

    # time slots per draw: a bounded run under greedy_belief, so scratch
    # memory does not grow with p
    run = max(1, _RUN_FLOATS // ((m + 1) * q)) if greedy else 1
    for t0 in range(0, cfg.p, run):
        u = gen.random((min(run, cfg.p - t0), m + 1 if greedy else 1, q))
        src = grid.source[t0 : t0 + len(u)]
        src[u[:, 0] < cfg.external_occupancy_prob] = _SRC_EXTERNAL
        # a station senses src > 0, true on every jammed cell whether or not
        # an external draw overwrote it; random_hop reads none of it
        if greedy:
            seen = _seen(u[:, 1:], src[:, None] > 0, cfg)
        for t in range(t0, t0 + len(u)):
            if greedy:
                beliefs = update_beliefs(beliefs, seen[t - t0], cfg)
                orders = beliefs.probs.argsort(axis=1, kind="stable").tolist()
            prev = grid.assignments[t - 1].tolist() if t else idle
            bans = no_bans
            if cfg.distinct_within_block:
                bans = grid.assignments[t - t % L : t].T.tolist()
            alloc = idle.copy()
            for b in range(m):
                if custom:
                    state = BeliefState(probs=beliefs.probs[b])
                    obs = sense(src[t - t0] > 0, cfg, gen)
                    state.probs[:] = update_beliefs(state, obs, cfg).probs
                elif not greedy:
                    gen.random(q)  # random_hop's sensing uniforms, never read
                lo, hi = bounds[b], bounds[b + 1]
                if hi == lo:
                    continue
                if custom:
                    picks = decide(state, prev[lo:hi], policy, gen).tolist()
                else:
                    taken = set(alloc[:lo]) if cfg.shared_control_matrix else set()
                    picks = _pick(
                        orders[b], slots, prev[lo:hi], taken, bans[lo:hi], gen
                    )
                alloc[lo:hi] = picks
            grid.assignments[t] = alloc
    grid.source[:, jammed] = _SRC_JAMMER  # the jammer's tag over external draws

    overloads = 0 if custom else int(np.count_nonzero(grid.assignments < 0))
    return _episode_stats(grid, L, overloads), grid


def _episode_stats(grid: OccupancyGrid, L: int, overloads: int) -> EpisodeStats:
    """Outcome counters of a finished episode, read off its grid."""
    alloc = grid.assignments
    p, n_users = alloc.shape
    q = grid.q
    active = alloc >= 0
    t_idx, u_idx = np.nonzero(active)
    f_idx = alloc[t_idx, u_idx]
    # users per occupied cell, keyed t q + f over the transmissions alone,
    # so the scratch scales with the p x users allocation, not the p x q grid
    cells = t_idx * q + f_idx
    keys, users = np.unique(cells, return_counts=True)
    shared = users[np.searchsorted(keys, cells)] > 1
    hostile = grid.source[t_idx, f_idx] > 0
    # a transmission is clean when the user has the cell to itself and
    # no jammer or external source sits on it; a block is L clean time
    # slots in a row, so a run of r clean slots delivers r // L blocks
    clean = np.zeros((n_users, p + 2), dtype=np.int8)  # idle pad at both ends
    clean[u_idx, t_idx + 1] = ~hostile & ~shared
    edges = np.diff(clean.ravel())
    runs = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    slot_counts = np.bincount(u_idx * q + f_idx, minlength=n_users * q).reshape(
        n_users, q
    )
    # an episode without users has no slot histogram to average
    entropy = (
        float(np.mean([_entropy_bits(c) for c in slot_counts])) if n_users else 0.0
    )
    return EpisodeStats(
        collisions=int(np.count_nonzero(users > 1)),
        jammer_hits=int(np.count_nonzero(hostile)),
        # an active user on its previous slot; idle users never match
        hop_violations=int(np.count_nonzero(active[1:] & (alloc[1:] == alloc[:-1]))),
        blocks_delivered=int((runs // L).sum()),
        overloads=overloads,
        pattern_entropy=entropy,
    )


def run_episode(cfg: GridConfig, policy, rng: RngSpec) -> EpisodeStats:
    """Run one episode and return its aggregate statistics."""
    stats, _ = run_episode_trace(cfg, policy, rng)
    return stats
