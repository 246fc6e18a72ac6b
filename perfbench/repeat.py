"""Repeat benchmark runs and report each metric's median and quartiles.

    python3 perfbench/repeat.py                          # 10 seeds x 3 workloads
    python3 perfbench/repeat.py --workloads curves --seeds 1:5
    python3 perfbench/repeat.py --trace                  # plus one traced run each

For every end-to-end metric it prints the median, the quartiles and
their spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json; a spread at or above a third of the bound is marked
UNSTEADY. It also checks that every run was correct and that failed
operations are the same share of attempted ones in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def parse_seeds(spec):
    if ":" in spec:
        lo, hi = (int(part) for part in spec.split(":"))
        return list(range(lo, hi + 1))
    return [int(part) for part in spec.split(",")]


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1:10", help="lo:hi inclusive, or a,b,c")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, detail = run_once(workload, seed, args.seconds, 0)
            runs.append((result, detail))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        results = [r for r, _ in runs]
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        same_share = len(shares) == 1
        correct = all(r["correct"] for r in results)
        steady &= same_share and correct
        print(f"== {workload}: {len(results)} runs, correct={correct}, "
              f"failed share {sorted(map(str, shares))} same={same_share}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            flag = "" if m["name"] == "setup_s" or rel < m["bound"] / 3 else "  UNSTEADY"
            steady &= not flag
            print(f"   {m['name']:16s} median {med:.6g} {m['unit']}  Q1 {q1:.6g}  Q3 {q3:.6g}"
                  f"  spread {rel:.2%} (bound {m['bound']:.0%}){flag}")
        for name in runs[0][1]["rates"]:
            values = [d["rates"][name] for _, d in runs]
            med, q1, q3, rel = spread(values)
            print(f"   {name:16s} median {med:.6g} 1/s  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {rel:.2%}")
        for name in runs[0][1]["raw"]:
            values = [d["raw"][name] for _, d in runs]
            med, q1, q3, rel = spread(values)
            print(f"   raw {name:16s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {rel:.2%}")
        if args.trace:
            traced, _ = run_once(workload, seeds[0], args.seconds, 1)
            print(f"   traced run (seed {seeds[0]}):")
            for name, m in traced["metrics"].items():
                print(f"     {name:34s} {m['value']:.6g} {m['unit']}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
