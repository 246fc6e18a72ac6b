"""End-to-end acceptance gate.

Nine numbered criteria, each printed as its own pass/fail line even
under captured output. Tolerances and grid sizes are part of the
contract; Monte Carlo comparisons add a 3/trials rule-of-three floor so
probabilities far below 1/trials (where the empirical standard error
collapses to zero) are judged against the resolution the trial budget
can actually deliver.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from covertcomm import cli
from covertcomm.analytic import (
    covert_rate,
    dep,
    false_alarm_prob,
    miss_detection_prob,
    rtp,
)
from covertcomm.montecarlo import (
    RngSpec,
    simulate_detector,
    simulate_rate,
    simulate_rtp,
)
from covertcomm.optimizer import max_users, power_lower_bound, power_upper_bound
from covertcomm.params import SystemParams, power_from_snr_db
from covertcomm.specfun import (
    kummer_1f1,
    reg_gamma_lower,
    reg_gamma_upper,
    tricomi_u,
)
from covertcomm.scheduler import (
    GREEDY_BELIEF,
    RANDOM_HOP,
    GridConfig,
    run_episode,
)

_DEFAULTS = SystemParams()  # m=4 k=4 q=64 L=8, unit noise, gamma_e=2
_SMALL = SystemParams(m=2, k=2, q=8, L=2, gamma_e=2.0)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _rel(got, want):
    return abs(got - want) / abs(want)


def _worst(errors):
    # a NaN anywhere makes the worst NaN, which fails every <= gate; Python's
    # max keeps a NaN only when it comes first
    return float(np.max(list(errors)))


def test_criterion_1_special_function_identities(capsys):
    t0 = time.perf_counter()

    pq_grid = [(s, x) for s in (0.5, 1.0, 3.0, 8.0, 64.0, 512.0, 3000.0)
               for x in (0.0, 0.5, 1.0, 8.0, 100.0, 512.0, 1024.0, 5000.0)]
    assert len(pq_grid) >= 25
    worst_pq = _worst(
        abs(reg_gamma_lower(s, x) + reg_gamma_upper(s, x) - 1.0)
        for s, x in pq_grid
    )

    kummer_grid = [(a, z) for a in (0.5, 1.0, 2.5, 8.0, 32.0)
                   for z in (0.0, 1.0, 5.0, 12.0, 20.0, 30.0, 40.0, 50.0)]
    assert len(kummer_grid) >= 25
    worst_kummer = _worst(
        _rel(kummer_1f1(a, a, z), math.exp(z)) for a, z in kummer_grid
    )

    power_grid = [(a, z) for a in (0.5, 1.0, 2.0, 3.5, 6.0)
                  for z in (0.1, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0)]
    assert len(power_grid) >= 25
    worst_power = _worst(
        _rel(tricomi_u(a, a + 1.0, z), z ** -a) for a, z in power_grid
    )

    transform_grid = [(a, b, z) for a in (1.5, 2.0, 3.0, 4.5, 6.0)
                      for b in (-2.5, -1.0, 0.5, 1.5, 2.5)
                      for z in (0.5, 2.0, 10.0)]
    assert len(transform_grid) >= 25
    worst_transform = _worst(
        _rel(tricomi_u(a, b, z),
             z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z))
        for a, b, z in transform_grid
    )

    elapsed = time.perf_counter() - t0
    ok = (worst_pq <= 1e-12 and worst_kummer <= 1e-10
          and worst_power <= 1e-9 and worst_transform <= 1e-8
          and elapsed < 5.0)
    _report(
        capsys, 1, ok,
        f"identities P+Q={worst_pq:.2e} (<=1e-12), "
        f"1F1(a;a;z)={worst_kummer:.2e} (<=1e-10), "
        f"U(a,a+1,z)={worst_power:.2e} (<=1e-9), "
        f"transform={worst_transform:.2e} (<=1e-8), {elapsed:.2f}s (<5s)",
    )


def test_criterion_2_detector_vs_monte_carlo(capsys):
    t0 = time.perf_counter()
    trials = 100_000
    floor = 3.0 / trials
    z_scores = []
    stream = 0
    for k in (4, 8, 16):
        for snr in (30.0, 37.0, 44.0):
            params = _DEFAULTS.with_(k=k, p_b=power_from_snr_db(snr))
            fa, md = simulate_detector(params, trials=trials,
                                       rng=RngSpec(2024, stream))
            stream += 1
            cells = [
                (false_alarm_prob(params), fa.mean, fa.std_error),
                (miss_detection_prob(params), md.mean, md.std_error),
                (dep(params), fa.mean + md.mean,
                 math.hypot(fa.std_error, md.std_error)),
            ]
            z_scores += [abs(mean - truth) / (3 * se + floor)
                         for truth, mean, se in cells]
    worst_z = _worst(z_scores)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 1.0 and elapsed < 60.0
    _report(
        capsys, 2, ok,
        f"3x3 grid at 1e5 trials, worst |diff|/(3SE+3/n)={worst_z:.3f} "
        f"(<=1), {elapsed:.1f}s (<60s)",
    )


def test_criterion_3_series_vs_quadrature(capsys):
    points = [_SMALL.with_(p_b=p) for p in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 50.0)]
    points += [
        _DEFAULTS.with_(k=k, p_b=power_from_snr_db(37.0)) for k in (4, 8)
    ]
    assert len(points) >= 9
    worst = _worst(
        _rel(miss_detection_prob(p, method="series"),
             miss_detection_prob(p, method="quadrature"))
        for p in points
    )
    ok = worst <= 1e-6
    _report(
        capsys, 3, ok,
        f"miss-detection series vs quadrature on {len(points)} points, "
        f"worst rel diff={worst:.2e} (<=1e-6)",
    )


def test_criterion_4_link_forms_vs_monte_carlo(capsys):
    t0 = time.perf_counter()
    trials = 1_000_000
    floor = 3.0 / trials

    rtp_z = []
    for i, p_b in enumerate((0.5, 1.0, 4.0)):
        params = _DEFAULTS.with_(p_b=p_b)
        est = simulate_rtp(params, trials=trials, rng=RngSpec(404, i))
        rtp_z.append(abs(est.mean - rtp(params)) / (3 * est.std_error + floor))
    worst_rtp = _worst(rtp_z)

    rate_z = []
    for i, p in enumerate((0.25, 1.0, 10.0)):
        est = simulate_rate(_DEFAULTS, p, trials=trials, rng=RngSpec(405, i))
        rate_z.append(abs(est.mean - covert_rate(_DEFAULTS, p)) / (3 * est.std_error))
    worst_rate = _worst(rate_z)

    quad_errors = []
    for p in (0.1, 0.5, 1.0, 5.0, 20.0):
        for k in (2, 4, 8, 16, 32):
            params = _DEFAULTS.with_(k=k)
            beta = params.m * p / (params.k * params.sigma0_sq)
            omega = params.omega_u

            def integrand(h):
                return math.log2(1.0 + beta * h) * math.exp(-h / omega) / omega

            want, err = integrate.quad(integrand, 0.0, np.inf, limit=200)
            quad_errors.append(_rel(covert_rate(params, p), want))
    worst_quad = _worst(quad_errors)

    elapsed = time.perf_counter() - t0
    ok = (worst_rtp <= 1.0 and worst_rate <= 1.0 and worst_quad <= 1e-8
          and elapsed < 30.0)
    _report(
        capsys, 4, ok,
        f"rtp worst |diff|/(3SE+floor)={worst_rtp:.3f} (<=1), "
        f"rate worst |diff|/3SE={worst_rate:.3f} (<=1) at 1e6 trials; "
        f"rate vs quadrature on 5x5 grid={worst_quad:.2e} (<=1e-8); "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_5_snr_and_slot_trends(capsys):
    snrs = [37.0 + 0.5 * i for i in range(21)]
    assert len(snrs) == 21
    ks = (4, 8, 16)
    dep_grid = {
        k: [dep(_DEFAULTS.with_(k=k, p_b=power_from_snr_db(s))) for s in snrs]
        for k in ks
    }
    rtp_grid = {
        k: [rtp(_DEFAULTS.with_(k=k, p_b=power_from_snr_db(s))) for s in snrs]
        for k in ks
    }
    eps = 1e-12
    dep_down_snr = all(
        a >= b - eps for k in ks for a, b in zip(dep_grid[k], dep_grid[k][1:])
    )
    rtp_up_snr = all(
        a <= b + eps for k in ks for a, b in zip(rtp_grid[k], rtp_grid[k][1:])
    )
    dep_down_k = all(
        dep_grid[k1][i] >= dep_grid[k2][i] - eps
        for k1, k2 in zip(ks, ks[1:]) for i in range(len(snrs))
    )
    rtp_down_k = all(
        rtp_grid[k1][i] >= rtp_grid[k2][i] - eps
        for k1, k2 in zip(ks, ks[1:]) for i in range(len(snrs))
    )
    ok = dep_down_snr and rtp_up_snr and dep_down_k and rtp_down_k
    _report(
        capsys, 5, ok,
        "21-point SNR grid [37,47] dB, k in {4,8,16}: "
        f"dep nonincreasing in snr={dep_down_snr}, "
        f"rtp nondecreasing in snr={rtp_up_snr}, "
        f"dep nonincreasing in k={dep_down_k}, "
        f"rtp nonincreasing in k={rtp_down_k}",
    )


def test_criterion_6_power_interval(capsys):
    p_low = power_lower_bound(_DEFAULTS)
    rtp_gap = abs(rtp(_DEFAULTS.with_(p_b=p_low)) - (1.0 - _DEFAULTS.eps_u))

    p_up = power_upper_bound(_DEFAULTS, p_max=1e5, tol=1e-7)
    clipped = p_up == 1e5
    dep_gap = abs(dep(_DEFAULTS.with_(p_b=p_up)) - (1.0 - _DEFAULTS.eps_e))

    ks = list(range(2, 17))
    lows = [power_lower_bound(_DEFAULTS.with_(k=k)) for k in ks]
    ups = [power_upper_bound(_DEFAULTS.with_(k=k), p_max=1e5) for k in ks]
    lows_up = all(a <= b + 1e-12 for a, b in zip(lows, lows[1:]))
    ups_up = all(a <= b * (1.0 + 1e-9) for a, b in zip(ups, ups[1:]))

    ok = rtp_gap <= 1e-10 and not clipped and dep_gap <= 1e-4 and lows_up and ups_up
    _report(
        capsys, 6, ok,
        f"rtp(p_low) gap={rtp_gap:.2e} (<=1e-10), "
        f"dep(p_up) gap={dep_gap:.2e} (<=1e-4, unclipped={not clipped}), "
        f"bounds nondecreasing over k=2..16: low={lows_up} up={ups_up}",
    )


def test_criterion_7_user_capacity(capsys):
    # independent feasibility scan: the reliability constraint inverts in
    # closed form, and dep falls with power, so k is feasible exactly
    # when the least reliable-power point is still covert
    def brute_force_k_star(params, p_max):
        best = 0
        for k in range(1, params.q + 1):
            pk = params.with_(k=k)
            need = -(pk.gamma_u * k * pk.sigma0_sq) / (
                pk.m * pk.omega_u * math.log1p(-pk.eps_u)
            )
            if need > p_max:
                continue
            if dep(pk.with_(p_b=max(need, 1e-12))) >= 1.0 - pk.eps_e:
                best = k
        return best

    cases = [
        (_SMALL, 10.0),
        (_SMALL, 31.6),
        (_SMALL.with_(eps_u=0.05), 10.0),
        (_SMALL.with_(eps_e=0.3), 10.0),
    ]
    equal = True
    pairs = []
    for params, p_max in cases:
        got = max_users(params, p_max=p_max).k_star
        want = brute_force_k_star(params, p_max)
        pairs.append((got, want))
        equal = equal and got == want

    snrs = [6.0 + i for i in range(11)]
    tables = {}
    for eps_u in (0.05, 0.1):
        tables[eps_u] = [
            max_users(_SMALL.with_(eps_u=eps_u),
                      p_max=power_from_snr_db(s)).k_star
            for s in snrs
        ]
    snr_trend = all(
        a <= b for row in tables.values() for a, b in zip(row, row[1:])
    )
    eps_trend = all(a <= b for a, b in zip(tables[0.05], tables[0.1]))

    ok = equal and snr_trend and eps_trend
    _report(
        capsys, 7, ok,
        f"max_users vs brute force on q=8 L=2 instance: {pairs} "
        f"(all equal={equal}); 2x11 grid k* nondecreasing in snr={snr_trend}, "
        f"in eps_u={eps_trend}",
    )


def test_criterion_8_scheduler_behavior(capsys):
    jam = frozenset({3, 17, 40, 55})
    clean_cfg = GridConfig(q=64, p=1000, L=8, m=1, users_per_bs=(8,),
                           jammed_slots=jam)
    clean = run_episode(clean_cfg, GREEDY_BELIEF, RngSpec(88, 0))
    spotless = (clean.collisions == 0 and clean.jammer_hits == 0
                and clean.hop_violations == 0)

    noisy_cfg = GridConfig(q=64, p=1000, L=8, m=1, users_per_bs=(8,),
                           jammed_slots=jam, sense_miss_prob=0.1)
    hits = {
        policy: run_episode(noisy_cfg, policy, RngSpec(88, 1)).jammer_hits
        for policy in (GREEDY_BELIEF, RANDOM_HOP)
    }
    greedy_wins = hits[GREEDY_BELIEF] < hits[RANDOM_HOP]

    entropy_cfg = GridConfig(q=64, p=10_000, L=8, m=1, users_per_bs=(1,))
    entropy = run_episode(entropy_cfg, RANDOM_HOP, RngSpec(88, 2)).pattern_entropy
    entropy_gap = abs(entropy - math.log2(63))

    ok = spotless and greedy_wins and entropy_gap <= 0.1
    _report(
        capsys, 8, ok,
        f"perfect sensing counters all zero={spotless}; "
        f"jammer hits greedy={hits[GREEDY_BELIEF]} < "
        f"random={hits[RANDOM_HOP]}={greedy_wins}; "
        f"random-hop entropy {entropy:.3f} within 0.1 of "
        f"log2(63)={math.log2(63):.3f} (gap {entropy_gap:.3f})",
    )


def test_criterion_9_validation_report_determinism(capsys, tmp_path):
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main([
            "validate", "--trials", "20000", "--seed", "2718",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    ok = identical and report["passed"]
    _report(
        capsys, 9, ok,
        f"two validation runs byte-identical={identical}, "
        f"{report['n_checks']} checks all passing={report['passed']}",
    )
