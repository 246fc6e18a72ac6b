"""Layer harness: the Monte Carlo, scheduler, specfun and analytic layers, one revision or two.

    python3 bench/layers.py                                  # the working tree alone
    python3 bench/layers.py --against REV --out BENCH_<n>.json

Each run is a fresh process that imports covertcomm from one side's src/
and measures, on fixed inputs:
- montecarlo: exponential draws per second and the tracemalloc peak of
  each estimator. simulate_detector runs at perfbench's `simulate` points,
  (k, SNR) = (1, 36), (4, 40) and (16, 44) dB with 20 000 trials;
  detector_statistic_samples at k = 4, 40 dB, 20 000 trials with drawn
  gains; simulate_rtp and simulate_rate at 2e6 trials.
- scheduler: time slots per second of run_episode on perfbench's
  `simulate` grid, under each policy.
- specfun: calls per second of log_tricomi_u at perfbench's `curves`
  spot calls, a in {1, 2, 3, 5, 8} with b = 2 - kL and z = c for
  k in {1, 4, 16, 64} at 30, 38 and 44 dB (60 calls); and of
  reg_gamma_lower over validate's incomplete-gamma grid (56 calls).
- analytic: calls per second of dep on perfbench's `curves` grid, warm
  (k in {1, 4, 16, 64} at 30 to 44 dB in steps of 2, 32 calls) and cold
  (k in {1, 4, 16} on the same SNRs, 24 calls, every lru_cache of
  analytic cleared before each call, so each builds its shape tables and
  conditional-miss blocks), and of miss_detection_prob(method="series")
  at four of those points.
Times are time.process_time minima over REPEATS passes, after one warm
pass whose results are digested.

With --against REV, the revision's committed src/ is extracted into a
temporary directory (by git archive, so nothing is registered in the
repository). The working tree and REV then run in PAIRS pairs of fresh
processes, the side that runs first alternating. The report gives each
figure's median and quartiles per side and the pairs the working tree
won (ties count for neither). Every run's result digests must equal
every other run's, on both sides, or the harness exits 1, so a faster
wrong program cannot win.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zipfile
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRIALS = 20_000
LINK_TRIALS = 2_000_000
MC_POINTS = ((1, 36.0), (4, 40.0), (16, 44.0))  # perfbench's simulate points
EPISODES = 2  # per policy, as in a perfbench simulate round
REPEATS = 3  # timed calls of each figure per run; the least counts
PAIRS = 10  # fresh-process runs per side
SPOT_A = (1.0, 2.0, 3.0, 5.0, 8.0)  # perfbench's curves spot calls
SPOT_K = (1, 4, 16, 64)
SPOT_SNR = (30.0, 38.0, 44.0)
CURVE_SNR = tuple(30.0 + 2.0 * i for i in range(8))  # perfbench's curves grid
COLD_K = (1, 4, 16)
SERIES_POINTS = ((1, 30.0), (4, 38.0), (16, 44.0), (64, 44.0))
GAMMA_S = (0.5, 1.0, 3.0, 8.0, 64.0, 512.0, 3000.0)  # validate's grid
GAMMA_X = (0.0, 0.5, 1.0, 8.0, 100.0, 512.0, 1024.0, 5000.0)
# what each layer's rate counts
COUNTS = {"montecarlo": "draws", "scheduler": "slots", "specfun": "calls",
          "analytic": "calls"}

# figure -> (unit, better)
FIGURES = {
    **{f"montecarlo.{name}.{what}": unit
       for name in ("detector", "statistic_samples", "rtp", "rate")
       for what, unit in (("draws_per_s", ("1/s", "higher")),
                          ("peak_mib", ("MiB", "lower")))},
    **{f"scheduler.{policy}.slots_per_s": ("1/s", "higher")
       for policy in ("greedy_belief", "random_hop")},
    **{f"specfun.{name}.calls_per_s": ("1/s", "higher")
       for name in ("tricomi", "reg_gamma")},
    **{f"analytic.{name}.calls_per_s": ("1/s", "higher")
       for name in ("dep_warm", "dep_cold", "md_series")},
}


def _jobs():
    """name -> (draws, slots or calls per pass, the pass's calls)."""
    from covertcomm import analytic, scheduler, specfun
    from covertcomm import montecarlo as mc
    from covertcomm.params import SystemParams, power_from_snr_db

    base = SystemParams()

    def at(k, snr):
        return base.with_(k=k, p_b=power_from_snr_db(snr))

    at40 = base.with_(p_b=power_from_snr_db(40.0))
    block = base.q * base.L
    grid = scheduler.GridConfig(
        q=64, p=1000, L=8, m=4, users_per_bs=(2, 2, 2, 2),
        jammed_slots=frozenset({3, 17, 40, 55}), external_occupancy_prob=0.02,
        sense_miss_prob=0.1, sense_fa_prob=0.05, shared_control_matrix=True,
    )
    jobs = {
        "montecarlo.detector": (
            len(MC_POINTS) * TRIALS * (2 * block + 1),
            [lambda p=at(k, snr), j=j:
             mc.simulate_detector(p, TRIALS, mc.RngSpec(7, j))
             for j, (k, snr) in enumerate(MC_POINTS)]),
        "montecarlo.statistic_samples": (
            TRIALS * (block + 1),
            [lambda: mc.detector_statistic_samples(at40, TRIALS, mc.RngSpec(7, 3), True)]),
        "montecarlo.rtp": (
            LINK_TRIALS,
            [lambda: mc.simulate_rtp(at40.with_(p_b=1.0), LINK_TRIALS, mc.RngSpec(7, 4))]),
        "montecarlo.rate": (
            LINK_TRIALS,
            [lambda: mc.simulate_rate(at40, 1.0, LINK_TRIALS, mc.RngSpec(7, 5))]),
    }
    for i, policy in enumerate(scheduler.POLICIES):
        jobs[f"scheduler.{policy}"] = (
            EPISODES * grid.p,
            [lambda policy=policy, j=j: scheduler.run_episode(grid, policy, mc.RngSpec(7, j))
             for j in range(8 + EPISODES * i, 8 + EPISODES * (i + 1))])
    spots = []
    for k in SPOT_K:
        for snr in SPOT_SNR:
            p = at(k, snr)
            spots += [(a, 2.0 - k * p.L, p.sigma0_sq / (p.rho * p.omega_e)) for a in SPOT_A]
    jobs["specfun.tricomi"] = (
        len(spots), [lambda: [specfun.log_tricomi_u(*abz) for abz in spots]])
    jobs["specfun.reg_gamma"] = (
        len(GAMMA_S) * len(GAMMA_X),
        [lambda: [specfun.reg_gamma_lower(s, x) for s in GAMMA_S for x in GAMMA_X]])

    caches = [f for f in vars(analytic).values() if hasattr(f, "cache_clear")]

    def cold_dep(p):
        for cache in caches:
            cache.cache_clear()
        return analytic.dep(p)

    warm = [at(k, snr) for k in SPOT_K for snr in CURVE_SNR]
    cold = [at(k, snr) for k in COLD_K for snr in CURVE_SNR]
    series = [at(k, snr) for k, snr in SERIES_POINTS]
    jobs["analytic.dep_warm"] = (len(warm), [lambda: [analytic.dep(p) for p in warm]])
    jobs["analytic.dep_cold"] = (len(cold), [lambda: [cold_dep(p) for p in cold]])
    jobs["analytic.md_series"] = (
        len(series), [lambda: [analytic.miss_detection_prob(p, "series") for p in series]])
    return jobs


def _digest(result) -> str:
    data = result.tobytes() if hasattr(result, "tobytes") else repr(result).encode()
    return hashlib.sha256(data).hexdigest()


def measure() -> dict:
    """One side's figures and result digests, in this process."""
    figures, digests = {}, {}
    for name, (work, calls) in _jobs().items():
        layer = name.split(".")[0]
        digests[name] = hashlib.sha256(
            "".join(_digest(call()) for call in calls).encode()).hexdigest()
        if layer == "montecarlo":
            peak = 0
            for call in calls:
                tracemalloc.start()
                try:
                    call()
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            figures[f"{name}.peak_mib"] = peak / 2**20
        best = [float("inf")] * len(calls)
        for _ in range(REPEATS):
            for i, call in enumerate(calls):
                t0 = time.process_time()
                call()
                best[i] = min(best[i], time.process_time() - t0)
        figures[f"{name}.{COUNTS[layer]}_per_s"] = work / sum(best)
    return {"figures": figures, "digests": digests}


def _git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _src_facts(src: str) -> dict:
    """wc -l of src/covertcomm/*.py, and one sha256 over those files in name order."""
    pkg = os.path.join(src, "covertcomm")
    lines, digest = {}, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            lines[name] = data.count(b"\n")
            digest.update(data)
    return {"src_lines": lines, "src_lines_total": sum(lines.values()),
            "src_sha256": digest.hexdigest()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_side(src: str) -> dict:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", src],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def report(runs: dict) -> dict:
    """Per figure: each side's median and quartiles, and the pairs head won."""
    out = {}
    for fig, (unit, better) in FIGURES.items():
        row = {"unit": unit, "better": better}
        for side, side_runs in runs.items():
            row[side] = _summary([r["figures"][fig] for r in side_runs])
        if "base" in runs:
            sign = 1.0 if better == "higher" else -1.0
            row["head_won"] = sum(sign * (h["figures"][fig] - b["figures"][fig]) > 0
                                  for h, b in zip(runs["head"], runs["base"]))
            row["head_over_base"] = row["head"]["median"] / row["base"]["median"]
        out[fig] = row
    return out


def _mismatches(runs: dict) -> list:
    first = runs["head"][0]["digests"]
    return sorted({name for side_runs in runs.values() for r in side_runs
                   for name, d in r["digests"].items() if d != first[name]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="a git revision to compare the working tree with")
    parser.add_argument("--out", metavar="PATH", help="write the report as JSON here")
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, args.child)
        import covertcomm

        if os.path.commonpath([covertcomm.__file__, args.child]) != args.child:
            raise SystemExit(f"error: covertcomm came from {covertcomm.__file__}, "
                             f"not {args.child}")
        json.dump(measure(), sys.stdout)
        return 0

    start = time.perf_counter()
    head_src = os.path.join(ROOT, "src")
    sides = {"head": {"rev": "working tree", "sha": _git("rev-parse", "HEAD"),
                      "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
                      **_src_facts(head_src)}}
    with tempfile.TemporaryDirectory(prefix="covertcomm-bench-") as tmp:
        srcs = {"head": head_src}
        if args.against:
            sha = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
            archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=zip", sha, "src"],
                                     check=True, capture_output=True).stdout
            with zipfile.ZipFile(io.BytesIO(archive)) as zf:
                zf.extractall(tmp)
            srcs["base"] = os.path.join(tmp, "src")
            sides["base"] = {"rev": args.against, "sha": sha, **_src_facts(srcs["base"])}
        runs = {side: [] for side in srcs}
        for i in range(PAIRS):
            order = list(srcs) if i % 2 == 0 else list(reversed(srcs))
            for side in order:
                runs[side].append(_run_side(srcs[side]))
                print(f"pair {i + 1}/{PAIRS} {side} done", file=sys.stderr)

    mismatched = _mismatches(runs)
    result = {
        "harness": "bench/layers.py",
        "argv": sys.argv[1:] if argv is None else list(argv),
        "machine": {"nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                              else os.cpu_count()),
                    "cpu_model": _cpu_model(),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "sides": sides,
        "pairs": PAIRS,
        "repeats": REPEATS,
        "digests": runs["head"][0]["digests"],
        "digests_match": not mismatched,
        "mismatched": mismatched,
        "figures": report(runs),
        "wall_s": round(time.perf_counter() - start, 1),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    for fig, row in result["figures"].items():
        cells = [f"{side} {row[side]['median']:.4g} [{row[side]['q1']:.4g}, "
                 f"{row[side]['q3']:.4g}]" for side in ("base", "head") if side in row]
        won = f"  head won {row['head_won']}/{PAIRS}" if "head_won" in row else ""
        print(f"{fig:40s} {row['unit']:4s} " + "  ".join(cells) + won)
    if mismatched:
        print(f"error: result digests differ between runs: {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
