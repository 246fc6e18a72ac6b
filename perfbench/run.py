"""Run one covertcomm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

The run repeats whole rounds of the workload's operations until the
timed calls add up to --seconds, checks every result, and prints a
summary, a DETAIL line (failures, per-kind rates, machine and program
facts) and, as the last line, one JSON object with correct, attempted,
failed and metrics. --trace 0 gives the end-to-end metrics; --trace 1
alternates untraced and traced rounds and gives the per-layer metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from warmup import SRC, WARMUPS, program_path  # noqa: E402

SETUP_SAMPLES = 3


def measure_setup(workload):
    """Median time of fresh processes that import covertcomm and warm up,
    scaled by a reference process timed before and after each; and the
    raw median."""
    from calibrate import REFERENCE_PROCESS, REFERENCE_PROCESS_NOMINAL_S

    def timed(cmd):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    probe = [sys.executable, os.path.join(HERE, "warmup.py"), "--workload", workload]
    ref = [timed(REFERENCE_PROCESS)]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        raw.append(timed(probe))
        ref.append(timed(REFERENCE_PROCESS))
        scaled.append(raw[-1] * REFERENCE_PROCESS_NOMINAL_S / ((ref[-2] + ref[-1]) / 2))
    return statistics.median(scaled), statistics.median(raw)


def run_round(wl, r, tracer, cal):
    ops = wl.round_ops(r)
    if tracer is not None:
        tracer.install(wl.trace_targets)
    try:
        for op in ops:
            cal.sample()
            span = tracer.open("op." + op.kind) if tracer is not None else None
            op.start = time.perf_counter()
            try:
                op.result = op.call()
            except Exception as err:  # a failed operation, reported with its inputs
                op.error = err
            op.seconds = time.perf_counter() - op.start
            if span is not None:
                tracer.close(span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    cal.sample(force=True)
    for op in ops:
        op.scaled = op.seconds / cal.factor(op.start, op.start + op.seconds, wl.mix[op.kind])
        wl.check_op(op)
    wl.check_round(r, ops)
    return ops


def ok_rows(op):
    return sum(1 for why in op.reasons if why is None)


def kind_rates(wl, ops, clock="scaled"):
    """Successful work of each rate's kinds over the time of all their attempts."""
    out = {}
    for name, kinds in wl.rates.items():
        mine = [op for op in ops if op.kind in kinds]
        secs = sum(getattr(op, clock) for op in mine)
        good = sum(op.work * ok_rows(op) / op.rows for op in mine)
        out[name] = good / secs if secs > 0 else 0.0
    return out


def per_layer(wl, spans, traced_rounds, plain_rounds):
    from tracer import SpanIndex, p50_ms

    ix = SpanIndex(spans)
    n = len(traced_rounds)
    name_is = lambda want: (lambda name, group: name == want)  # noqa: E731
    group_is = lambda want: (lambda name, group: group == want)  # noqa: E731
    layer_is = lambda want: (lambda name, group: name.startswith(want + "."))  # noqa: E731

    def dep_durations(cold):
        return ix.durations(lambda i, name: name == "analytic.dep"
                            and (ix.op[i] == "op.dep_cold") == cold)

    solves = ix.count("optimizer.solve")
    solve_deps = sum(1 for i, s in enumerate(ix.spans)
                     if s[0] == "analytic.dep" and ix.nearest(i, "optimizer") >= 0)
    traced_ops = [op for ops in traced_rounds for op in ops]
    samples = sum(op.work for op in traced_ops if op.kind == "mc")
    mc_self = ix.self_time(layer_is("montecarlo"))
    plain_s = statistics.mean(sum(op.scaled for op in ops) for ops in plain_rounds)
    traced_s = statistics.mean(sum(op.scaled for op in ops) for ops in traced_rounds)
    m = {
        "specfun.reg_gamma.calls": ix.count("specfun.reg_gamma") / n,
        "specfun.reg_gamma.self_s": ix.self_time(name_is("specfun.reg_gamma")) / n,
        "specfun.tricomi.calls": ix.count("specfun.tricomi") / n,
        "specfun.tricomi.self_s": ix.self_time(name_is("specfun.tricomi")) / n,
        "specfun.quad.calls": ix.quad_calls("specfun") / n,
        "analytic.dep.calls": ix.count("analytic.dep") / n,
        "analytic.dep.self_s": ix.self_time(group_is("analytic.dep")) / n,
        "analytic.quad.calls": ix.quad_calls("analytic") / n,
        "analytic.dep_warm.p50_ms": p50_ms(dep_durations(cold=False)),
        "analytic.dep_cold.p50_ms": p50_ms(dep_durations(cold=True)),
        "analytic.md_series.p50_ms": p50_ms(ix.durations(
            lambda i, name: name == "analytic.md_series")),
        "analytic.md_series.self_s": ix.self_time(group_is("analytic.md_series")) / n,
        "optimizer.solves": solves / n,
        "optimizer.dep_per_solve": solve_deps / solves if solves else 0.0,
        "optimizer.self_s": ix.self_time(layer_is("optimizer")) / n,
        "optimizer.solve.p50_ms": p50_ms(ix.durations(
            lambda i, name: name == "optimizer.solve")),
        "cli.self_s": ix.self_time(name_is("cli.main")) / n,
        "montecarlo.samples": samples / n,
        "montecarlo.ns_per_sample": mc_self / samples * 1e9 if samples else 0.0,
        "montecarlo.self_s": mc_self / n,
        "scheduler.slots": sum(op.work for op in traced_ops if op.kind == "episode") / n,
        "scheduler.decide.calls": ix.count("scheduler.decide") / n,
        "scheduler.sense.self_s": ix.self_time(name_is("scheduler.sense")) / n,
        "scheduler.update_beliefs.self_s": ix.self_time(name_is("scheduler.update_beliefs")) / n,
        "scheduler.decide.self_s": ix.self_time(name_is("scheduler.decide")) / n,
        "scheduler.episode.self_s": ix.self_time(name_is("scheduler.episode")) / n,
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    }
    from workloads import WORKLOADS

    rates = kind_rates(wl, [op for ops in plain_rounds for op in ops])
    for other in WORKLOADS.values():
        for name in other.rates:
            m[name] = rates.get(name, 0.0)
    return m


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    pkg = os.path.join(SRC, "covertcomm")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WARMUPS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program_path()
    # F1 (quadrature overflow) warns on every failing call; the failures
    # are counted and listed instead
    warnings.filterwarnings("ignore", "overflow encountered", RuntimeWarning)

    started = time.perf_counter()
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(args.workload)

    # workloads imports covertcomm, found through the path program_path set
    from calibrate import Calibrator
    from tracer import Tracer
    from workloads import WORKLOADS

    cal = Calibrator()
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    tracer = Tracer() if args.trace else None
    rounds = []  # (traced, ops)
    timed = 0.0
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        ops = run_round(wl, r, tracer if traced else None, cal)
        rounds.append((traced, ops))
        timed += sum(op.seconds for op in ops)
        if timed >= args.seconds and (tracer is None or len(rounds) >= 2):
            break
    wl.check_run(rounds[0][1])

    all_ops = [op for _, ops in rounds for op in ops]
    attempted = sum(op.rows for op in all_ops)
    failed = attempted - sum(ok_rows(op) for op in all_ops)
    plain = [ops for traced, ops in rounds if not traced]
    if tracer is None:
        values = {
            "ok_ops_per_s": (attempted - failed) / sum(op.scaled for op in all_ops),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        out = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_csv(out)
        values = per_layer(wl, tracer.spans, [ops for traced, ops in rounds if traced], plain)

    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failures = Counter(
        (op.kind, json.dumps({**op.inputs, **(op.row_inputs[i] if op.row_inputs else {})}), why)
        for op in all_ops for i, why in enumerate(op.reasons) if why is not None
    )
    plain_ops = [op for ops in plain for op in ops]
    rates = kind_rates(wl, plain_ops)
    raw = {
        "ok_ops_per_s": (attempted - failed) / timed,
        "setup_s": setup_raw_s,
        **kind_rates(wl, plain_ops, clock="seconds"),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {timed:.2f} s timed, "
          f"{attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, v in rates.items():
        print(f"  {name:34s} {v:.6g} 1/s (untraced rounds)")
    print("  raw wall-clock figures: " + ", ".join(
        f"{k}={v:.6g}" for k, v in raw.items() if v is not None))
    for (kind, inputs, why), count in sorted(failures.items()):
        print(f"  FAILED x{count} {kind} {inputs}: {why}")
    for what in wl.violations:
        print(f"  INCORRECT {what}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "timed_s": timed,
        "wall_s": time.perf_counter() - started, "rates": rates, "raw": raw,
        "failures": [{"kind": k, "inputs": json.loads(i), "reason": w, "count": c}
                     for (k, i, w), c in sorted(failures.items())],
        "violations": wl.violations, "environment": environment(),
    }
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": not wl.violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
