"""Grid scheduler: sensing, belief tracking, allocation policies, and
episode bookkeeping on hand-checkable configurations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertcomm.montecarlo import RngSpec
from covertcomm.scheduler import (
    GREEDY_BELIEF,
    RANDOM_HOP,
    _SRC_EXTERNAL,
    _SRC_JAMMER,
    BeliefState,
    EpisodeStats,
    GridConfig,
    OccupancyGrid,
    OverloadError,
    _entropy_bits,
    _episode_stats,
    decide,
    run_episode,
    run_episode_trace,
    sense,
    update_beliefs,
)

_JAM = frozenset({3, 17, 40, 55})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 0},
        {"p": 0},
        {"L": 0},
        {"m": 0},
        {"users_per_bs": (1, 1)},                      # wrong station count
        {"m": 2, "users_per_bs": (3, -1)},
        {"q": 4, "m": 1, "users_per_bs": (5,)},        # more users than slots
        {"p": 4, "L": 8, "m": 1, "users_per_bs": (1,)},
        {"m": 1, "users_per_bs": (1,), "jammed_slots": frozenset({64})},
        {"m": 1, "users_per_bs": (1,), "sense_miss_prob": 1.5},
        {"m": 1, "users_per_bs": (1,), "belief_persistence": -0.1},
    ],
)
def test_grid_config_rejects(kwargs):
    with pytest.raises(ValueError):
        GridConfig(**kwargs)


@pytest.mark.parametrize(
    "field,kwargs",
    [
        ("q", {"q": 8.0}),
        ("p", {"p": np.float64(100.0)}),
        ("L", {"L": 2.5}),
        ("m", {"m": 1.0, "users_per_bs": (1,)}),
        ("users_per_bs", {"m": 2, "users_per_bs": (1.7, 1)}),
        ("jammed_slots", {"m": 1, "users_per_bs": (1,), "jammed_slots": {3.9}}),
    ],
)
def test_grid_config_rejects_non_integers(field, kwargs):
    # int() would truncate these silently, and a float q or p would fail
    # only inside the episode
    with pytest.raises(ValueError, match=field):
        GridConfig(**kwargs)


def test_grid_config_accepts_numpy_integers():
    cfg = GridConfig(q=np.int64(8), p=np.int32(20), L=np.uint8(2), m=np.int64(2),
                     users_per_bs=np.array([2, 1]), jammed_slots={np.int16(3)})
    assert cfg == GridConfig(q=8, p=20, L=2, m=2, users_per_bs=(2, 1),
                             jammed_slots=frozenset({3}))
    assert all(type(v) is int for v in (cfg.q, cfg.p, cfg.L, cfg.m, *cfg.users_per_bs))


def test_grid_config_totals():
    cfg = GridConfig(m=2, users_per_bs=(3, 2))
    assert cfg.k == 5


def test_sense_perfect_and_degenerate():
    cfg = GridConfig(m=1, users_per_bs=(1,))
    truth = np.array([True, False, True, False])
    assert np.array_equal(sense(truth, cfg, RngSpec(1, 0)), truth)
    blind = GridConfig(m=1, users_per_bs=(1,), sense_miss_prob=1.0)
    assert not sense(truth, blind, RngSpec(1, 0)).any()


def test_sense_rows_match_consecutive_calls():
    # an (m, q) truth, one row per station, reads the same uniforms as m
    # consecutive (q,) calls and leaves the generator in the same state
    cfg = GridConfig(m=3, users_per_bs=(1, 1, 1), q=16,
                     sense_miss_prob=0.3, sense_fa_prob=0.2)
    truth = np.random.default_rng(7).random((3, 16)) < 0.5
    for rows in (truth, np.broadcast_to(truth[0], truth.shape)):
        whole_gen = RngSpec(12, 0).generator()
        row_gen = RngSpec(12, 0).generator()
        whole = sense(rows, cfg, whole_gen)
        by_row = np.array([sense(r, cfg, row_gen) for r in rows])
        assert whole.shape == rows.shape
        assert np.array_equal(whole, by_row)
        assert whole_gen.random() == row_gen.random()


_BELIEF_CFGS = pytest.mark.parametrize(
    "cfg",
    [
        GridConfig(m=1, users_per_bs=(1,), q=8, sense_miss_prob=0.1,
                   sense_fa_prob=0.05, belief_persistence=0.8),
        # certain sensing on a frozen state: some updates divide 0 by 0
        # and keep their prior
        GridConfig(m=1, users_per_bs=(1,), q=8, belief_persistence=1.0),
    ],
    ids=["noisy", "certain"],
)


@_BELIEF_CFGS
def test_update_beliefs_rows_match_row_calls(cfg):
    gen = np.random.default_rng(8)
    probs = gen.random((4, 8))
    probs[:, :2] = (0.0, 1.0)
    observed = gen.random((4, 8)) < 0.5
    whole = update_beliefs(BeliefState(probs=probs), observed, cfg).probs
    assert whole.shape == probs.shape
    for b in range(4):
        row = update_beliefs(BeliefState(probs=probs[b]), observed[b], cfg).probs
        assert whole[b].tobytes() == row.tobytes()


@_BELIEF_CFGS
def test_update_beliefs_matches_scalar_bayes_rule(cfg):
    # the rule written out with Python floats, one slot at a time, in the
    # same operation order; a zero evidence keeps the prior
    gen = np.random.default_rng(9)
    probs = gen.random((4, 8))
    probs[:, :2] = (0.0, 1.0)
    observed = gen.random((4, 8)) < 0.5
    rho, miss, fa = cfg.belief_persistence, cfg.sense_miss_prob, cfg.sense_fa_prob
    want = []
    for pi, seen in zip(probs.ravel().tolist(), observed.ravel().tolist()):
        prior = rho * pi + (1.0 - rho) * (1.0 - pi)
        num = prior * ((1.0 - miss) if seen else miss)
        den = num + (1.0 - prior) * (fa if seen else (1.0 - fa))
        want.append(num / den if den > 0.0 else prior)
    got = update_beliefs(BeliefState(probs=probs), observed, cfg).probs
    assert got.tobytes() == np.array(want).reshape(probs.shape).tobytes()


def test_update_beliefs_converges_on_static_truth():
    cfg = GridConfig(
        m=1, users_per_bs=(1,), sense_miss_prob=0.1, sense_fa_prob=0.05
    )
    state = BeliefState.uniform(4)
    truth = np.array([True, False, False, False])
    gen = RngSpec(2, 0).generator()
    for _ in range(60):
        state = update_beliefs(state, sense(truth, cfg, gen), cfg)
    assert state.probs[0] > 0.9
    assert (state.probs[1:] < 0.3).all()
    # persistence keeps the posterior away from hard 0/1
    assert (state.probs > 0.0).all() and (state.probs < 1.0).all()


def test_decide_greedy_prefers_low_belief_and_respects_hop():
    beliefs = BeliefState(probs=np.array([0.9, 0.1, 0.5, 0.1]))
    # tie between slots 1 and 3 goes to the lower index; user 1 cannot
    # reuse its previous slot
    out = decide(beliefs, np.array([-1, 1]), GREEDY_BELIEF, RngSpec(3, 0))
    assert out.tolist() == [1, 3]


def test_decide_random_hop_stays_admissible():
    beliefs = BeliefState.uniform(6)
    prev = np.array([2, 4])
    for stream in range(20):
        out = decide(beliefs, prev, RANDOM_HOP, RngSpec(4, stream))
        assert out[0] != 2 and out[1] != 4
        assert out[0] != out[1]


def _candidate_list_pick(q, prev, gen, occupied, excluded):
    # random_hop as it once read: draw an index into the list of
    # admissible slots, user by user
    taken = set(occupied) if occupied else set()
    picks = []
    for u, prev_f in enumerate(prev.tolist()):
        banned = taken | {prev_f}
        if excluded is not None:
            banned.update(excluded[u])
        cand = [f for f in range(q) if f not in banned]
        f = cand[int(gen.integers(len(cand)))] if cand else -1
        picks.append(f)
        taken.add(f)
    return picks


def test_decide_random_hop_matches_candidate_list():
    # random banned sets: idle previous slots (-1), slots claimed by
    # other stations (sometimes -1 too) and per-user exclusions, often
    # too many to place everyone
    pool = np.random.default_rng(9)
    overloads = 0
    for trial in range(400):
        q = int(pool.integers(1, 13))
        n = int(pool.integers(1, q + 2))
        prev = pool.integers(-1, q, size=n)
        occupied = set(pool.integers(-1, q, size=pool.integers(0, q)).tolist())
        excluded = (
            [set(pool.integers(0, q, size=pool.integers(0, q)).tolist())
             for _ in range(n)]
            if trial % 2 else None
        )
        gen = RngSpec(10, trial).generator()
        ref_gen = RngSpec(10, trial).generator()
        try:
            got = decide(BeliefState.uniform(q), prev, RANDOM_HOP, gen,
                         occupied=occupied, excluded=excluded)
        except OverloadError as err:
            got = err.assignment
            overloads += 1
        want = _candidate_list_pick(q, prev, ref_gen, occupied, excluded)
        assert got.tolist() == want
        assert gen.random() == ref_gen.random()  # same number of draws
    assert 50 < overloads < 350


def test_decide_occupied_and_excluded():
    beliefs = BeliefState.uniform(4)
    out = decide(
        beliefs, np.array([-1]), GREEDY_BELIEF, RngSpec(5, 0),
        occupied={0, 1}, excluded=[{2}],
    )
    assert out.tolist() == [3]


def test_decide_overload_carries_partial_assignment():
    beliefs = BeliefState.uniform(3)
    with pytest.raises(OverloadError) as err:
        decide(
            beliefs, np.array([0, 1, 2]), GREEDY_BELIEF, RngSpec(6, 0),
            occupied={0},
        )
    part = err.value.assignment
    assert part is not None and (part >= -1).all()
    assert (part < 0).sum() >= 1


def test_decide_custom_policy_contract():
    beliefs = BeliefState.uniform(4)

    def pin(b, prev, gen):
        return np.zeros(prev.size, dtype=int)

    assert decide(beliefs, np.array([3]), pin, RngSpec(7, 0)).tolist() == [0]

    def bad_shape(b, prev, gen):
        return np.zeros(prev.size + 1, dtype=int)

    with pytest.raises(ValueError):
        decide(beliefs, np.array([3]), bad_shape, RngSpec(7, 0))

    def out_of_range(b, prev, gen):
        return np.full(prev.size, 9)

    with pytest.raises(ValueError):
        decide(beliefs, np.array([3]), out_of_range, RngSpec(7, 0))

    with pytest.raises(ValueError):
        decide(beliefs, np.array([3]), "clever", RngSpec(7, 0))


def test_perfect_sensing_episode_is_clean():
    cfg = GridConfig(q=64, p=1000, L=8, m=1, users_per_bs=(8,),
                     jammed_slots=_JAM)
    st = run_episode(cfg, GREEDY_BELIEF, RngSpec(11, 0))
    assert st.collisions == 0
    assert st.jammer_hits == 0
    assert st.hop_violations == 0
    assert st.overloads == 0
    # every user completes every L-slot block
    assert st.blocks_delivered == 8 * (1000 // 8)


def test_episode_determinism():
    cfg = GridConfig(q=16, p=300, L=4, m=2, users_per_bs=(2, 2),
                     sense_miss_prob=0.1, jammed_slots=frozenset({1}))
    a = run_episode(cfg, GREEDY_BELIEF, RngSpec(21, 5))
    b = run_episode(cfg, GREEDY_BELIEF, RngSpec(21, 5))
    assert a == b
    assert a.as_dict()["jammer_hits"] == a.jammer_hits


def test_greedy_beats_random_on_jammer_hits():
    cfg = GridConfig(q=64, p=1000, L=8, m=1, users_per_bs=(8,),
                     jammed_slots=_JAM, sense_miss_prob=0.1,
                     sense_fa_prob=0.05)
    greedy = run_episode(cfg, GREEDY_BELIEF, RngSpec(31, 0))
    random = run_episode(cfg, RANDOM_HOP, RngSpec(31, 0))
    assert greedy.jammer_hits < random.jammer_hits
    # both built-in policies honor the hopping rule unconditionally
    assert greedy.hop_violations == 0 and random.hop_violations == 0
    # a belief-blind hopper lands on the 4 jammed of 63 admissible slots
    # at roughly the blind rate
    blind = 8 * 1000 * len(_JAM) / 63
    assert random.jammer_hits == pytest.approx(blind, rel=0.15)


def test_independent_stations_collide_at_product_rate():
    # two stations, no shared control matrix: per time slot the second
    # station's u2 picks overlap the first station's u1 picks with mean
    # u1*u2/q by symmetry over slot labels
    cfg = GridConfig(q=8, p=300, L=2, m=2, users_per_bs=(2, 2))
    rates = [
        run_episode(cfg, RANDOM_HOP, RngSpec(41, ep)).collisions / cfg.p
        for ep in range(40)
    ]
    mean = float(np.mean(rates))
    se = float(np.std(rates, ddof=1) / math.sqrt(len(rates)))
    assert abs(mean - 2 * 2 / 8) <= 4 * se


def test_shared_control_matrix_prevents_collisions():
    base = dict(q=16, p=400, L=2, m=2, users_per_bs=(2, 3))
    apart = GridConfig(**base, shared_control_matrix=True)
    st = run_episode(apart, RANDOM_HOP, RngSpec(51, 0))
    assert st.collisions == 0
    # identical beliefs without coordination: both stations pick the
    # same best cells, two shared cells every slot
    together = GridConfig(**base)
    st = run_episode(together, GREEDY_BELIEF, RngSpec(51, 0))
    assert st.collisions == 2 * 400


def test_block_distinct_hopping_can_overload():
    # a 5-slot block cannot visit 5 distinct frequencies when only 4
    # exist, so exactly one placement per block fails
    cfg = GridConfig(q=4, p=10, L=5, m=1, users_per_bs=(1,),
                     distinct_within_block=True)
    st = run_episode(cfg, GREEDY_BELIEF, RngSpec(61, 0))
    assert st.overloads == 2
    assert st.hop_violations == 0


def test_external_traffic_counts_as_hits():
    cfg = GridConfig(q=8, p=200, L=2, m=1, users_per_bs=(1,),
                     external_occupancy_prob=1.0)
    st = run_episode(cfg, GREEDY_BELIEF, RngSpec(71, 0))
    assert st.jammer_hits == 200
    assert st.blocks_delivered == 0


def test_hop_violations_counted_for_custom_policy():
    def stubborn(beliefs, prev, gen):
        return np.zeros(prev.size, dtype=int)

    cfg = GridConfig(q=4, p=100, L=2, m=1, users_per_bs=(1,))
    st = run_episode(cfg, stubborn, RngSpec(81, 0))
    assert st.hop_violations == 99
    assert st.pattern_entropy == 0.0
    # a policy that idles every user uses no slot at all
    idle = run_episode(cfg, lambda beliefs, prev, gen: np.full(prev.size, -1),
                       RngSpec(81, 0))
    assert idle.hop_violations == 0 and idle.pattern_entropy == 0.0


def test_entropy_orders_policies():
    cfg = GridConfig(q=64, p=2000, L=8, m=1, users_per_bs=(1,),
                     jammed_slots=_JAM, sense_miss_prob=0.1)
    greedy = run_episode(cfg, GREEDY_BELIEF, RngSpec(91, 0))
    random = run_episode(cfg, RANDOM_HOP, RngSpec(91, 0))
    assert greedy.pattern_entropy < random.pattern_entropy
    assert random.pattern_entropy > 5.5


def test_trace_grid_tags():
    def pin(beliefs, prev, gen):
        # alternate slots 0/1 to honor hopping
        base = prev.copy()
        base[base < 0] = 1
        return 1 - base

    cfg = GridConfig(q=4, p=6, L=2, m=1, users_per_bs=(1,),
                     jammed_slots=frozenset({0, 2}))
    stats, grid = run_episode_trace(cfg, pin, RngSpec(95, 0))
    # user alternates between the jammed slot 0 and the free slot 1
    assert grid.occupant(0, 0) == "user0"
    assert grid.occupant(1, 0) in ("user0", "jammer")
    assert grid.occupant(0, 2) == "jammer"
    assert grid.occupant(0, 3) == "free"
    rows = list(grid.rows())
    assert len(rows) == 4 * 6
    assert rows[0][:2] == (0, 0)
    tags = {tag for _, _, tag in rows}
    assert tags == {"user0", "jammer", "free"}
    assert stats.jammer_hits == 3  # the three slots spent on frequency 0


def _random_slots(rng, shape, q):
    return rng.integers(-1, q, size=shape)


@pytest.mark.parametrize(
    "q, p, n_users, assign, shared",
    [
        # several users per slot, idle users, and every background tag
        (6, 40, 5, _random_slots, True),
        (1, 1, 0, _random_slots, False),
        (5, 12, 4, lambda rng, shape, q: (np.arange(shape[0]) % q)[:, None], True),
        (6, 20, 3, lambda rng, shape, q: -1, False),
        (64, 300, 8, _random_slots, True),
    ],
    ids=["mixed", "one_cell_no_users", "all_on_one_slot", "all_idle", "q64_p300"],
)
def test_grid_rows_match_occupant(q, p, n_users, assign, shared):
    rng = np.random.default_rng(3)
    grid = OccupancyGrid(q=q, p=p, n_users=n_users)
    grid.source[:] = rng.integers(0, 3, size=grid.source.shape)
    grid.assignments[:] = assign(rng, grid.assignments.shape, q)
    want = [(t, f, grid.occupant(t, f)) for t in range(p) for f in range(q)]
    rows = list(grid.rows())
    assert rows == want
    assert all(
        type(t) is int and type(f) is int and type(tag) is str for t, f, tag in rows
    )
    assert shared == any(len(set(r[r >= 0])) < np.sum(r >= 0) for r in grid.assignments)
    if q > 1:
        assert {"free", "jammer", "external"} <= {tag for _, _, tag in want}


def test_episode_without_users():
    cfg = GridConfig(q=8, p=20, L=2, m=2, users_per_bs=(0, 0))
    for policy in (GREEDY_BELIEF, RANDOM_HOP):
        assert run_episode(cfg, policy, RngSpec(97, 0)) == EpisodeStats(
            0, 0, 0, 0, 0, 0.0
        )
    # no station decides here, so the episode itself rejects the name
    with pytest.raises(ValueError, match="unknown policy"):
        run_episode(cfg, "clever", RngSpec(97, 0))


def test_stats_fields_round_trip():
    st = EpisodeStats(1, 2, 3, 4, 5, 6.5)
    assert st.as_dict() == {
        "collisions": 1,
        "jammer_hits": 2,
        "hop_violations": 3,
        "blocks_delivered": 4,
        "overloads": 5,
        "pattern_entropy": 6.5,
    }


# a noisy 4-station grid with the shared control matrix, and a
# block-distinct grid too small for it, so placements overload and
# uncoordinated stations collide
_NOISY = GridConfig(
    q=64, p=1000, L=8, m=4, users_per_bs=(2, 2, 2, 2),
    jammed_slots=_JAM, external_occupancy_prob=0.02,
    sense_miss_prob=0.1, sense_fa_prob=0.05, shared_control_matrix=True,
)
_TIGHT = GridConfig(
    q=5, p=240, L=5, m=2, users_per_bs=(2, 1),
    jammed_slots=frozenset({2}), external_occupancy_prob=0.1,
    sense_miss_prob=0.2, sense_fa_prob=0.1, distinct_within_block=True,
)
# a station without users between two with users; it still senses, so
# its draws advance the stream for the stations after it
_IDLE_STATION = GridConfig(
    q=16, p=300, L=4, m=3, users_per_bs=(2, 0, 3),
    jammed_slots=frozenset({1, 9}), external_occupancy_prob=0.05,
    sense_miss_prob=0.15, sense_fa_prob=0.1, shared_control_matrix=True,
)
# both coordination rules at once, on a grid small enough to overload:
# the exclusions then hold idle (-1) entries of unplaced users
_BOTH_RULES = GridConfig(
    q=6, p=240, L=4, m=3, users_per_bs=(2, 1, 2),
    jammed_slots=frozenset({3}), external_occupancy_prob=0.05,
    sense_miss_prob=0.2, sense_fa_prob=0.1,
    distinct_within_block=True, shared_control_matrix=True,
)
_INDEPENDENT = GridConfig(
    q=16, p=300, L=4, m=3, users_per_bs=(2, 1, 2),
    jammed_slots=frozenset({5}), external_occupancy_prob=0.05,
    sense_miss_prob=0.1, sense_fa_prob=0.1,
)


def _belief_weighted(beliefs, prev, gen):
    # reads the station's beliefs and draws between stations' sensing
    w = 1.0 - beliefs.probs
    return gen.choice(w.size, size=prev.size, replace=False, p=w / w.sum())


@pytest.mark.parametrize(
    "cfg,spec,policy,want",
    [
        (_NOISY, RngSpec(2024, 3), GREEDY_BELIEF,
         EpisodeStats(0, 25, 0, 984, 0, 4.112246966633499)),
        (_NOISY, RngSpec(2024, 3), RANDOM_HOP,
         EpisodeStats(0, 668, 0, 669, 0, 5.958171250071377)),
        (_TIGHT, RngSpec(2024, 4), GREEDY_BELIEF,
         EpisodeStats(156, 136, 0, 2, 39, 2.2801575193030597)),
        (_TIGHT, RngSpec(2024, 4), RANDOM_HOP,
         EpisodeStats(88, 198, 0, 9, 6, 2.3218229954198057)),
        (_IDLE_STATION, RngSpec(2024, 5), GREEDY_BELIEF,
         EpisodeStats(0, 16, 0, 364, 0, 3.666520368541972)),
        (_IDLE_STATION, RngSpec(2024, 5), RANDOM_HOP,
         EpisodeStats(0, 253, 0, 227, 0, 3.966797102836194)),
        (_BOTH_RULES, RngSpec(2024, 7), GREEDY_BELIEF,
         EpisodeStats(0, 120, 0, 222, 25, 2.41348151117553)),
        (_BOTH_RULES, RngSpec(2024, 7), RANDOM_HOP,
         EpisodeStats(0, 246, 0, 137, 15, 2.577861338058068)),
        (_INDEPENDENT, RngSpec(2024, 6), _belief_weighted,
         EpisodeStats(169, 34, 108, 174, 0, 3.901177382304501)),
    ],
    ids=["noisy-greedy", "noisy-random", "tight-greedy", "tight-random",
         "idle-station-greedy", "idle-station-random", "both-rules-greedy",
         "both-rules-random", "custom-belief-draws"],
)
def test_episode_golden(cfg, spec, policy, want):
    # pinned episode outcomes: any change to the order or number of
    # random draws, or to the allocation rules, shows up here
    assert run_episode(cfg, policy, spec) == want


def _per_slot_stats(grid, L, overloads):
    # slot-by-slot bookkeeping over the finished grid, as the episode
    # loop once kept it; the reference for the whole-grid counters
    p, n_users = grid.assignments.shape
    prev = np.full(n_users, -1)
    streak = np.zeros(n_users, dtype=int)
    slot_counts = np.zeros((n_users, grid.q), dtype=np.int64)
    collisions = jammer_hits = hop_violations = blocks = 0
    for t in range(p):
        alloc = grid.assignments[t].astype(int)
        truth = grid.source[t] > 0
        active = alloc >= 0
        occ_count = np.bincount(alloc[active], minlength=grid.q)
        collisions += int(np.count_nonzero(occ_count >= 2))
        jammer_hits += int(np.count_nonzero(truth[alloc[active]]))
        hop_violations += int(np.count_nonzero(active & (prev >= 0) & (alloc == prev)))
        slot_counts[np.flatnonzero(active), alloc[active]] += 1
        safe = np.where(active, alloc, 0)
        clean = active & ~truth[safe] & (occ_count[safe] == 1)
        streak = np.where(clean, streak + 1, 0)
        full = streak >= L
        blocks += int(np.count_nonzero(full))
        streak[full] = 0
        prev = alloc
    entropy = float(np.mean([_entropy_bits(c) for c in slot_counts]))
    return EpisodeStats(
        collisions, jammer_hits, hop_violations, blocks, overloads, entropy
    )


def _erratic(beliefs, prev, gen):
    # idle users, repeated slots and shared slots, which the built-in
    # policies never produce
    return gen.integers(-1, 3, size=prev.size)


@pytest.mark.parametrize(
    "cfg,policy",
    [
        (_NOISY, GREEDY_BELIEF),
        (_TIGHT, RANDOM_HOP),
        (GridConfig(q=3, p=200, L=2, m=2, users_per_bs=(2, 1),
                    jammed_slots=frozenset({0}), external_occupancy_prob=0.3),
         _erratic),
    ],
    ids=["noisy-greedy", "tight-random", "erratic"],
)
def test_episode_counters_match_per_slot_reference(cfg, policy):
    stats, grid = run_episode_trace(cfg, policy, RngSpec(2025, 0))
    assert stats == _per_slot_stats(grid, cfg.L, stats.overloads)


def _per_station_episode(cfg, policy, spec):
    # the episode loop as it read before the time slot was batched: each
    # station senses, updates its beliefs and decides in turn through the
    # public functions, reading the previous row, the block's rows and the
    # earlier stations' claims from the grid; the reference for
    # run_episode_trace's whole grids
    gen = spec.generator()
    grid = OccupancyGrid(cfg.q, cfg.p, cfg.k)
    jam = np.zeros(cfg.q, dtype=bool)
    jam[list(cfg.jammed_slots)] = True
    beliefs = [BeliefState.uniform(cfg.q) for _ in range(cfg.m)]
    bounds = np.concatenate([[0], np.cumsum(cfg.users_per_bs)]).astype(int)
    idle = np.full(cfg.k, -1, dtype=np.int32)
    overloads = 0
    for t in range(cfg.p):
        ext = gen.random(cfg.q) < cfg.external_occupancy_prob
        row = grid.source[t]
        row[ext] = _SRC_EXTERNAL
        row[jam] = _SRC_JAMMER
        truth = row > 0
        prev = grid.assignments[t - 1] if t else idle
        alloc = grid.assignments[t]
        for b in range(cfg.m):
            beliefs[b] = update_beliefs(beliefs[b], sense(truth, cfg, gen), cfg)
            lo, hi = bounds[b], bounds[b + 1]
            if hi == lo:
                continue
            excl = None
            if cfg.distinct_within_block:
                excl = [set(col) for col in
                        grid.assignments[t - t % cfg.L : t, lo:hi].T.tolist()]
            occupied = set(alloc[:lo].tolist()) if cfg.shared_control_matrix else None
            try:
                got = decide(beliefs[b], prev[lo:hi], policy, gen,
                             occupied=occupied, excluded=excl)
            except OverloadError as err:
                got = err.assignment
                overloads += int(np.count_nonzero(got < 0))
            alloc[lo:hi] = got
    return grid, overloads


def _ranked_draws(beliefs, prev, gen):
    # reads the beliefs and draws; returns idle users, repeated and
    # shared slots
    ranked = np.argsort(beliefs.probs + gen.random(beliefs.probs.size), kind="stable")
    out = ranked[gen.integers(0, 2, size=prev.size)]
    out[gen.random(prev.size) < 0.2] = -1
    return out


@st.composite
def _grid_configs(draw):
    q = draw(st.integers(2, 12))
    users = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                 .filter(lambda u: sum(u) <= q))
    L = draw(st.integers(1, 6))
    prob = st.floats(0.0, 1.0)
    return GridConfig(
        q=q, p=draw(st.integers(L, 60)), L=L, m=len(users),
        users_per_bs=tuple(users),
        jammed_slots=frozenset(draw(st.sets(st.integers(0, q - 1), max_size=3))),
        external_occupancy_prob=draw(prob), sense_miss_prob=draw(prob),
        sense_fa_prob=draw(prob), belief_persistence=draw(prob),
        distinct_within_block=draw(st.booleans()),
        shared_control_matrix=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_grid_configs(),
       st.sampled_from([GREEDY_BELIEF, RANDOM_HOP, _ranked_draws]),
       st.integers(0, 2**32))
def test_episode_matches_per_station_reference(cfg, policy, seed):
    spec = RngSpec(seed, 0)
    stats, grid = run_episode_trace(cfg, policy, spec)
    ref, overloads = _per_station_episode(cfg, policy, spec)
    assert np.array_equal(grid.assignments, ref.assignments)
    assert np.array_equal(grid.source, ref.source)
    assert stats == _episode_stats(ref, cfg.L, overloads)


def test_episode_scratch_does_not_grow_with_p(monkeypatch):
    # greedy_belief draws runs of time slots at once; its peak memory
    # beyond its own grid stays flat when the horizon grows tenfold (both
    # horizons span several runs). The whole-grid counters read the
    # finished grid after the loop, so the peak is taken when they start.
    extra = {}

    def stats_after_loop(grid, L, overloads):
        peak = tracemalloc.get_traced_memory()[1]
        extra[grid.p] = peak - grid.source.nbytes - grid.assignments.nbytes
        return _episode_stats(grid, L, overloads)

    monkeypatch.setattr("covertcomm.scheduler._episode_stats", stats_after_loop)
    for p in (2_000, 20_000):
        cfg = GridConfig(q=32, p=p, L=4, m=1, users_per_bs=(2,),
                         jammed_slots=frozenset({5}), external_occupancy_prob=0.05,
                         sense_miss_prob=0.1, sense_fa_prob=0.1,
                         distinct_within_block=True)
        tracemalloc.start()
        try:
            run_episode(cfg, GREEDY_BELIEF, RngSpec(99, 0))
        finally:
            tracemalloc.stop()
    assert extra[20_000] <= extra[2_000] + 16 * 1024


def test_episode_stats_scratch_does_not_grow_with_q():
    # the counters count users per occupied cell, not per cell of the
    # p x q grid: 8 busy users over 20 000 time slots take the same scratch
    # at q = 256 as at q = 16 (the per-cell count took 41 MB against 2.6 MB)
    p, n_users = 20_000, 8
    peak = {}
    for q in (16, 256):
        grid = OccupancyGrid(q, p, n_users)
        t = np.arange(p)[:, None]
        # two users share each time slot's first cell, so collisions occur
        grid.assignments[:] = (t + np.array([0, 0, 1, 2, 3, 4, 5, 6])) % q
        grid.source[::7, 3] = _SRC_JAMMER
        tracemalloc.start()
        try:
            stats = _episode_stats(grid, 4, 0)
            peak[q] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.collisions == p
    assert peak[256] <= 1.25 * peak[16]
