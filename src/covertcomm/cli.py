"""Command-line front end: parameter sweeps as CSV/JSON plus a
self-validation suite.

Subcommands: dep, rtp, power-bounds, capacity, validate, schedule.
Every command is deterministic given its flags, config file, and seed.
Exit codes: 0 success, 1 validation/row failure, 2 usage or domain
error.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, montecarlo, optimizer, scheduler
from .params import SystemParams, power_from_snr_db
from .specfun import (
    ConvergenceError,
    SeriesControl,
    exp_e1_scaled,
    kummer_1f1,
    reg_gamma_lower,
    reg_gamma_upper,
    tricomi_u,
)

_SYSTEM_KEYS = {
    "m": int, "k": int, "q": int, "L": int,
    "p_b": float, "sigma0_sq": float,
    "omega_e": float, "omega_u": float,
    "gamma_e": float, "gamma_u": float,
    "eps_e": float, "eps_u": float,
    "threshold_mode": str,
}
_GRID_KEYS = {
    "p": int,
    "users_per_bs": "int_list",
    "jammed_slots": "int_list",
    "external_occupancy_prob": float,
    "sense_miss_prob": float,
    "sense_fa_prob": float,
    "belief_persistence": float,
    "distinct_within_block": bool,
    "shared_control_matrix": bool,
}
_ALL_KEYS = {**_SYSTEM_KEYS, **_GRID_KEYS}


def _coerce(key: str, raw: str):
    kind = _ALL_KEYS[key]
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "int_list":
            if not raw:
                return ()
            return tuple(int(part) for part in raw.split(","))
        return raw
    except ValueError as err:
        raise ValueError(f"config key {key!r}: {err}") from None


@dataclass(frozen=True)
class RunConfig:
    """Resolved flat key-value configuration.

    Values come from the config file, overridden by --set pairs;
    anything unspecified falls back to the model defaults baked into
    SystemParams and GridConfig.
    """

    values: dict

    def system_params(self, **extra) -> SystemParams:
        kw = {k: v for k, v in self.values.items() if k in _SYSTEM_KEYS}
        kw.update(extra)
        return SystemParams(**kw)

    def grid_config(self, **extra) -> scheduler.GridConfig:
        kw = {k: v for k, v in self.values.items() if k in _GRID_KEYS}
        for key in ("q", "L", "m"):
            if key in self.values:
                kw[key] = self.values[key]
        if "users_per_bs" not in kw:
            # spread k users over the m stations, front-loaded
            m = kw.get("m", 4)
            k = self.values.get("k", 4)
            base, rem = divmod(k, m)
            kw["users_per_bs"] = tuple(
                base + (1 if b < rem else 0) for b in range(m)
            )
        if "jammed_slots" in kw:
            kw["jammed_slots"] = frozenset(kw["jammed_slots"])
        kw.update(extra)
        return scheduler.GridConfig(**kw)


def load_config(path: str | None, overrides=()) -> RunConfig:
    """Read a key = value config file and apply override pairs.

    Blank lines and # comments are skipped; unknown keys are rejected so
    a typo cannot silently fall back to a default.
    """
    values: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in _ALL_KEYS:
                    raise ValueError(
                        f"{path}:{lineno}: unknown config key {key!r} "
                        f"(known: {', '.join(sorted(_ALL_KEYS))})"
                    )
                values[key] = _coerce(key, raw)
    for pair in overrides or ():
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        if key not in _ALL_KEYS:
            raise ValueError(f"--set: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return RunConfig(values=values)


def _parse_float_grid(spec: str) -> list[float]:
    # "lo:hi:n" inclusive linear grid, or "a,b,c" explicit values
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be lo:hi:n, got {spec!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError(f"grid needs at least one point, got {n}")
        if n == 1:
            return [lo]
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [float(part) for part in spec.split(",")]


def _parse_int_list(spec: str) -> list[int]:
    # "lo:hi" inclusive range, or "a,b,c"
    if ":" in spec:
        lo, hi = (int(part) for part in spec.split(":", 1))
        if hi < lo:
            raise ValueError(f"empty range {spec!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in spec.split(",")]


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _render(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            [{c: row[c] for c in columns} for row in rows], indent=2
        ) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


_NAN_ROW = float("nan")


def _report_failed_row(inputs: dict, err: Exception) -> None:
    # stderr only, so the table on stdout stays byte-identical
    where = ", ".join(f"{key}={_fmt_cell(v)}" for key, v in inputs.items())
    print(f"row {where} failed: {type(err).__name__}: {err}", file=sys.stderr)


def _sweep(args, points, compute, columns, failed_cells=None) -> int:
    """Render one row per point and return the exit code.

    compute(stream, **inputs) returns a row's output cells; stream is the
    row index, so a row's Monte Carlo draws do not depend on which rows
    failed before it. A row whose compute raises says why on stderr,
    gets NaN (or its failed_cells) for its outputs, and makes the exit
    code 1.
    """
    rows = []
    failed = False
    for stream, inputs in enumerate(points):
        row = {**dict.fromkeys(columns, _NAN_ROW), **inputs}
        try:
            row.update(compute(stream, **inputs))
        except (ValueError, ConvergenceError, optimizer.MonotonicityError) as err:
            _report_failed_row(inputs, err)
            row.update(failed_cells or {})
            failed = True
        rows.append(row)
    _emit(_render(rows, columns, args.format), args.out)
    return 1 if failed else 0


def _snr_k_sweep(args, compute, columns) -> int:
    # dep and rtp: compute(params, rng) at each (k, snr) point, with the
    # row's own Monte Carlo stream
    base = load_config(args.config, args.set).system_params()
    snrs = _parse_float_grid(args.snr_db)
    k_list = _parse_int_list(args.k_list)
    montecarlo._check_trials(args.trials)

    def row(stream, snr_db, k):
        params = base.with_(k=k, p_b=power_from_snr_db(snr_db, base.sigma0_sq))
        return compute(params, montecarlo.RngSpec(args.seed, stream))

    points = [{"snr_db": snr, "k": k} for k in k_list for snr in snrs]
    return _sweep(args, points, row, ["snr_db", "k", *columns])


def _cmd_dep(args) -> int:
    def compute(params, rng):
        fa, md = montecarlo.simulate_detector(params, args.trials, rng)
        return {
            "dep_analytic": analytic.dep(params),
            "dep_mc_mean": fa.mean + md.mean,
            "dep_mc_se": math.hypot(fa.std_error, md.std_error),
        }

    return _snr_k_sweep(args, compute, ["dep_analytic", "dep_mc_mean", "dep_mc_se"])


def _cmd_rtp(args) -> int:
    def compute(params, rng):
        est = montecarlo.simulate_rtp(params, args.trials, rng)
        return {
            "rtp_analytic": analytic.rtp(params),
            "rtp_mc_mean": est.mean,
            "rtp_mc_se": est.std_error,
        }

    return _snr_k_sweep(args, compute, ["rtp_analytic", "rtp_mc_mean", "rtp_mc_se"])


def _cmd_power_bounds(args) -> int:
    base = load_config(args.config, args.set).system_params()
    points = [{"k": k} for k in _parse_int_list(args.k_range)]

    def compute(stream, k):
        result = optimizer.optimal_power(
            base.with_(k=k), args.p_min, args.p_max, args.tol
        )
        b = result.bounds
        return {
            "p_low": b.p_low,
            "p_up": b.p_up,
            "feasible": b.feasible,
            "p_star": result.p_star if result.p_star is not None else _NAN_ROW,
            "rate_star": (
                result.rate_star if result.rate_star is not None else _NAN_ROW
            ),
        }

    cols = ["k", "p_low", "p_up", "feasible", "p_star", "rate_star"]
    return _sweep(args, points, compute, cols, {"feasible": False})


def _cmd_capacity(args) -> int:
    base = load_config(args.config, args.set).system_params()
    snrs = _parse_float_grid(args.snr_db)
    eps_list = [float(part) for part in args.eps_u_list.split(",")]
    points = [{"snr_db": snr, "eps_u": eps_u} for eps_u in eps_list for snr in snrs]

    def compute(stream, snr_db, eps_u):
        template = base.with_(eps_u=eps_u)
        p_max = power_from_snr_db(snr_db, base.sigma0_sq)
        return {
            "k_star": optimizer.max_users(template, args.p_min, p_max, args.tol).k_star
        }

    return _sweep(args, points, compute, ["snr_db", "eps_u", "k_star"])


# ---------------------------------------------------------------------------
# validation suite

def _check(name, error, limit):
    err = float(error)
    lim = float(limit)
    return {
        "name": name,
        "passed": bool(err <= lim),
        "error": err,
        "limit": lim,
        "margin": lim - err,
    }


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _validate_checks(params: SystemParams, trials: int, seed: int, ctl: SeriesControl):
    checks = []

    # identity: P + Q = 1
    worst = 0.0
    for s in (0.5, 1.0, 3.0, 8.0, 64.0, 512.0, 3000.0):
        for x in (0.0, 0.5, 1.0, 8.0, 100.0, 512.0, 1024.0, 5000.0):
            worst = max(worst, abs(reg_gamma_lower(s, x) + reg_gamma_upper(s, x) - 1.0))
    checks.append(_check("incomplete_gamma_complement", worst, 1e-12))

    # identity: 1F1(a; a; z) = e^z
    worst = 0.0
    for a in (0.5, 2.0, 7.5, 32.0, 128.0):
        for z in (0.0, 1.0, 5.0, 20.0, 50.0):
            worst = max(worst, _rel_err(kummer_1f1(a, a, z, ctl), math.exp(z)))
    checks.append(_check("kummer_exp_identity", worst, 1e-10))

    # identity: U(a, a+1, z) = z^(-a)
    worst = 0.0
    for a in range(1, 9):
        for z in (0.1, 1.0, 10.0, 100.0):
            worst = max(worst, _rel_err(tricomi_u(float(a), a + 1.0, z), z ** -a))
    checks.append(_check("tricomi_power_identity", worst, 1e-9))

    # identity: U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z)
    worst = 0.0
    for a in (1.5, 2.0, 3.0, 4.5, 6.0):
        for b in (-2.5, -1.0, 0.5, 1.5, 2.5):
            for z in (0.5, 2.0, 10.0):
                lhs = tricomi_u(a, b, z)
                rhs = z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z)
                worst = max(worst, _rel_err(lhs, rhs))
    checks.append(_check("tricomi_kummer_transform", worst, 1e-8))

    # two-sided envelope of e^x E1(x)
    worst = 0.0
    prev = math.inf
    for x in (0.05, 0.2, 1.0, 3.0, 10.0, 100.0, 1000.0):
        v = exp_e1_scaled(x)
        lo = 0.5 * math.log1p(2.0 / x)
        hi = min(math.log1p(1.0 / x), 1.0 / x)
        if not (lo < v < hi and v < prev):
            worst = 1.0
        prev = v
    checks.append(_check("e1_scaled_envelope", worst, 0.0))

    # miss-detection series path against the quadrature path
    worst = 0.0
    small = params.with_(q=8, k=2, L=2, m=2, gamma_e=2.0)
    for p_b in (0.5, 2.0, 8.0, 50.0):
        sp = small.with_(p_b=p_b)
        worst = max(
            worst,
            _rel_err(
                analytic.miss_detection_prob(sp, "series", ctl),
                analytic.miss_detection_prob(sp, "quadrature", ctl),
            ),
        )
    big = params.with_(p_b=power_from_snr_db(37.0, params.sigma0_sq))
    worst = max(
        worst,
        _rel_err(
            analytic.miss_detection_prob(big, "series", ctl),
            analytic.miss_detection_prob(big, "quadrature", ctl),
        ),
    )
    checks.append(_check("miss_detection_series_vs_quadrature", worst, 1e-6))

    # closed-form rate against quadrature of the defining expectation
    from scipy import integrate as _integrate

    worst = 0.0
    for p in (0.1, 1.0, 10.0):
        for k in (2, 8):
            kp = params.with_(k=k)
            beta = kp.m * p / (kp.k * kp.sigma0_sq)
            val, _ = _integrate.quad(
                lambda h: np.log2(1.0 + beta * h)
                * math.exp(-h / kp.omega_u) / kp.omega_u,
                0.0, np.inf,
            )
            worst = max(worst, _rel_err(analytic.covert_rate(kp, p), val))
    checks.append(_check("covert_rate_vs_quadrature", worst, 1e-8))

    # analytic vs Monte Carlo: detector, rtp, rate
    floor = 3.0 / trials
    worst_fa = worst_md = worst_dep = -math.inf
    for i, snr in enumerate((30.0, 37.0, 44.0)):
        mp = params.with_(p_b=power_from_snr_db(snr, params.sigma0_sq))
        fa, md = montecarlo.simulate_detector(
            mp, trials, montecarlo.RngSpec(seed, 1000 + i)
        )
        worst_fa = max(
            worst_fa,
            abs(analytic.false_alarm_prob(mp) - fa.mean)
            - (3.0 * fa.std_error + floor),
        )
        worst_md = max(
            worst_md,
            abs(analytic.miss_detection_prob(mp) - md.mean)
            - (3.0 * md.std_error + floor),
        )
        dep_se = math.hypot(fa.std_error, md.std_error)
        worst_dep = max(
            worst_dep,
            abs(analytic.dep(mp) - (fa.mean + md.mean)) - (3.0 * dep_se + floor),
        )
    checks.append(_check("false_alarm_vs_mc", worst_fa, 0.0))
    checks.append(_check("miss_detection_vs_mc", worst_md, 0.0))
    checks.append(_check("dep_vs_mc", worst_dep, 0.0))

    worst = -math.inf
    for i, p_b in enumerate((0.5, 1.0, 4.0)):
        mp = params.with_(p_b=p_b)
        est = montecarlo.simulate_rtp(mp, trials, montecarlo.RngSpec(seed, 2000 + i))
        worst = max(
            worst,
            abs(analytic.rtp(mp) - est.mean) - (3.0 * est.std_error + floor),
        )
    checks.append(_check("rtp_vs_mc", worst, 0.0))

    est = montecarlo.simulate_rate(params, 2.0, trials, montecarlo.RngSpec(seed, 3000))
    checks.append(
        _check(
            "covert_rate_vs_mc",
            abs(analytic.covert_rate(params, 2.0) - est.mean) - 3.0 * est.std_error,
            0.0,
        )
    )

    # reliability bound round trip
    p_low = optimizer.power_lower_bound(params)
    checks.append(
        _check(
            "rtp_at_power_lower_bound",
            abs(analytic.rtp(params.with_(p_b=p_low)) - (1.0 - params.eps_u)),
            1e-10,
        )
    )

    # covertness bound lands on the dep target (small instance)
    sp = params.with_(q=8, k=2, L=2, m=2)
    p_up = optimizer.power_upper_bound(sp, 1e-6, 1e3, 1e-7)
    checks.append(
        _check(
            "dep_at_power_upper_bound",
            abs(analytic.dep(sp.with_(p_b=p_up)) - (1.0 - sp.eps_e)),
            1e-4,
        )
    )

    # scheduler sanity: perfect sensing leaves nothing to collide with
    grid = scheduler.GridConfig(
        q=16, p=400, L=4, m=1, users_per_bs=(3,),
        jammed_slots=frozenset({0, 5}),
    )
    stats = scheduler.run_episode(
        grid, scheduler.GREEDY_BELIEF, montecarlo.RngSpec(seed, 4000)
    )
    bad = stats.collisions + stats.jammer_hits + stats.hop_violations
    checks.append(_check("scheduler_perfect_sensing_clean", bad, 0.0))

    rerun = scheduler.run_episode(
        grid, scheduler.GREEDY_BELIEF, montecarlo.RngSpec(seed, 4000)
    )
    checks.append(
        _check("scheduler_determinism", 0.0 if rerun == stats else 1.0, 0.0)
    )

    return checks


def _cmd_validate(args) -> int:
    cfg = load_config(args.config, args.set)
    params = cfg.system_params()
    ctl = SeriesControl(rel_tol=args.rel_tol)
    checks = _validate_checks(params, args.trials, args.seed, ctl)
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "rel_tol": args.rel_tol,
        "n_checks": len(checks),
        "n_failed": sum(1 for c in checks if not c["passed"]),
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _cmd_schedule(args) -> int:
    cfg = load_config(args.config, args.set)
    grid = cfg.grid_config()
    if args.policy not in scheduler.POLICIES:
        raise ValueError(
            f"unknown policy {args.policy!r}, expected one of {scheduler.POLICIES}"
        )
    rows = []
    trace_text = None
    for ep in range(args.episodes):
        spec = montecarlo.RngSpec(args.seed, ep)
        if ep == 0 and args.trace:
            stats, occupancy = scheduler.run_episode_trace(grid, args.policy, spec)
            lines = ["time_slot,freq_slot,occupant_tag"]
            lines.extend(f"{t},{f},{tag}" for t, f, tag in occupancy.rows())
            trace_text = "\n".join(lines) + "\n"
        else:
            stats = scheduler.run_episode(grid, args.policy, spec)
        rows.append({"episode": ep, **stats.as_dict()})
    cols = [
        "episode", "collisions", "jammer_hits", "hop_violations",
        "blocks_delivered", "overloads", "pattern_entropy",
    ]
    _emit(_render(rows, cols, args.format), args.out)
    if trace_text is not None:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(trace_text)
    if args.stats_json:
        n = len(rows)
        summary = {
            "policy": args.policy,
            "episodes": n,
            "means": {
                c: sum(row[c] for row in rows) / n for c in cols[1:]
            },
        }
        with open(args.stats_json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--seed", type=int, default=12345, help="base RNG seed")
    common.add_argument(
        "--trials", type=int, default=100_000, help="Monte Carlo trials per point"
    )
    common.add_argument("--out", default="-", help="output path, - for stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )

    top = argparse.ArgumentParser(
        prog="covertcomm",
        description="Covert-communication performance sweeps and validation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dep", parents=[common],
                       help="detection error probability sweep")
    p.add_argument("--snr-db", default="-10:10:11", help="grid lo:hi:n or list")
    p.add_argument("--k-list", default="4,8,16", help="active user counts")
    p.set_defaults(fn=_cmd_dep)

    p = sub.add_parser("rtp", parents=[common],
                       help="reliable transmission probability sweep")
    p.add_argument("--snr-db", default="-10:10:11", help="grid lo:hi:n or list")
    p.add_argument("--k-list", default="4,8,16", help="active user counts")
    p.set_defaults(fn=_cmd_rtp)

    p = sub.add_parser("power-bounds", parents=[common],
                       help="feasible power interval per user count")
    p.add_argument("--k-range", default="2:16", help="range lo:hi or list")
    p.add_argument("--p-min", type=float, default=1e-6)
    p.add_argument("--p-max", type=float, default=1e3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_power_bounds)

    p = sub.add_parser("capacity", parents=[common],
                       help="maximum admissible users vs power budget")
    p.add_argument("--snr-db", default="0:20:11", help="p_max grid in dB over noise")
    p.add_argument("--eps-u-list", default="0.05,0.1")
    p.add_argument("--p-min", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("validate", parents=[common],
                       help="identity and analytic-vs-MC check suite")
    p.add_argument("--rel-tol", type=float, default=1e-12,
                   help="series truncation tolerance under test")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("schedule", parents=[common],
                       help="run spectrum-occupation episodes")
    p.add_argument("--policy", default=scheduler.GREEDY_BELIEF,
                   choices=scheduler.POLICIES)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--trace", default=None,
                   help="write episode 0 grid trace CSV here")
    p.add_argument("--stats-json", default=None,
                   help="write aggregate stats JSON here")
    p.set_defaults(fn=_cmd_schedule)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
