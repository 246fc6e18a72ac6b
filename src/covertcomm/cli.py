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
import typing
from dataclasses import dataclass, fields

import numpy as np

# the closed forms and solvers load scipy.special: the commands that run
# them import them, so schedule and --help start without scipy
from . import montecarlo, scheduler
from .params import SystemParams, power_from_snr_db

# config key -> field type, for both dataclasses (q, L and m are in both)
_SYSTEM_KEYS = {f.name: f.type for f in fields(SystemParams)}
_GRID_KEYS = {f.name: f.type for f in fields(scheduler.GridConfig)}
_ALL_KEYS = {**_SYSTEM_KEYS, **_GRID_KEYS}


def _coerce(where: str, key: str, raw: str):
    kind = _ALL_KEYS[key]
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if typing.get_origin(kind) in (tuple, frozenset):
            if not raw:
                return ()
            return tuple(int(part) for part in raw.split(","))
        return kind(raw)
    except ValueError as err:
        raise ValueError(f"{where}: config key {key!r}: {err}") from None


@dataclass(frozen=True)
class RunConfig:
    """Resolved flat key-value configuration.

    Values come from the config file, overridden by --set pairs;
    anything unspecified falls back to the model defaults baked into
    SystemParams and GridConfig.
    """

    values: dict

    def system_params(self) -> SystemParams:
        kw = {k: v for k, v in self.values.items() if k in _SYSTEM_KEYS}
        return SystemParams(**kw)

    def grid_config(self) -> scheduler.GridConfig:
        kw = {k: v for k, v in self.values.items() if k in _GRID_KEYS}
        if "users_per_bs" not in kw:
            # spread k users over the m stations, front-loaded; empty for
            # m <= 0, which GridConfig then rejects
            m = kw.get("m", scheduler.GridConfig.m)
            k = self.values.get("k", SystemParams.k)
            kw["users_per_bs"] = tuple((k + m - 1 - b) // m for b in range(m))
        return scheduler.GridConfig(**kw)


def _parse_pair(where: str, text: str) -> tuple[str, object]:
    # one "key = value" from a config line or a --set pair; where prefixes
    # the error messages
    if "=" not in text:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _ALL_KEYS:
        raise ValueError(
            f"{where}: unknown config key {key!r} "
            f"(known: {', '.join(sorted(_ALL_KEYS))})"
        )
    return key, _coerce(where, key, raw)


def load_config(path: str | None, overrides=()) -> RunConfig:
    """Read a key = value config file and apply override pairs.

    Blank lines and # comments are skipped; unknown keys are rejected so
    a typo cannot silently fall back to a default.
    """
    pairs = []
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    pairs.append(_parse_pair(f"{path}:{lineno}", line))
    pairs.extend(_parse_pair("--set", pair) for pair in overrides or ())
    return RunConfig(values=dict(pairs))


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


def _positive_int(raw: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return n


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


def _sweep(args, points, compute, columns, failed_cells=None) -> int:
    """Render one row per point and return the exit code.

    compute(stream, **inputs) returns a row's output cells; stream is the
    row index, so a row's Monte Carlo draws do not depend on which rows
    failed before it. A row whose compute raises says why on stderr,
    gets NaN (or its failed_cells) for its outputs, and makes the exit
    code 1.
    """
    from .optimizer import MonotonicityError
    from .specfun import ConvergenceError

    rows = []
    failed = False
    for stream, inputs in enumerate(points):
        row = {**dict.fromkeys(columns, math.nan), **inputs}
        try:
            row.update(compute(stream, **inputs))
        except (ValueError, ConvergenceError, MonotonicityError) as err:
            # stderr only, so the table on stdout stays byte-identical
            where = ", ".join(f"{key}={_fmt_cell(v)}" for key, v in inputs.items())
            print(f"row {where} failed: {type(err).__name__}: {err}", file=sys.stderr)
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
    from . import analytic

    def compute(params, rng):
        fa, md = montecarlo.simulate_detector(params, args.trials, rng)
        return {
            "dep_analytic": analytic.dep(params),
            "dep_mc_mean": fa.mean + md.mean,
            "dep_mc_se": math.hypot(fa.std_error, md.std_error),
        }

    return _snr_k_sweep(args, compute, ["dep_analytic", "dep_mc_mean", "dep_mc_se"])


def _cmd_rtp(args) -> int:
    from . import analytic

    def compute(params, rng):
        est = montecarlo.simulate_rtp(params, args.trials, rng)
        return {
            "rtp_analytic": analytic.rtp(params),
            "rtp_mc_mean": est.mean,
            "rtp_mc_se": est.std_error,
        }

    return _snr_k_sweep(args, compute, ["rtp_analytic", "rtp_mc_mean", "rtp_mc_se"])


def _cmd_power_bounds(args) -> int:
    from . import optimizer

    base = load_config(args.config, args.set).system_params()
    points = [{"k": k} for k in _parse_int_list(args.k_range)]

    def compute(stream, k):
        result = optimizer.optimal_power(
            base.with_(k=k), args.p_min, args.p_max, args.tol
        )
        b = result.bounds
        row = {"p_low": b.p_low, "p_up": b.p_up, "feasible": b.feasible}
        if b.feasible:  # an infeasible row keeps _sweep's NaN p_star and rate_star
            row.update(p_star=result.p_star, rate_star=result.rate_star)
        return row

    cols = ["k", "p_low", "p_up", "feasible", "p_star", "rate_star"]
    return _sweep(args, points, compute, cols, {"feasible": False})


def _cmd_capacity(args) -> int:
    from . import optimizer

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
    err, lim = float(error), float(limit)
    # JSON has no NaN or infinity: such an error is written as null
    known = math.isfinite(err)
    return {
        "name": name,
        "passed": bool(err <= lim),
        "error": err if known else None,
        "limit": lim,
        "margin": lim - err if known else None,
    }


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _worst(errors) -> float:
    """The largest of errors; a NaN anywhere makes it NaN, so its check fails."""
    return float(np.max(list(errors)))


def _mc_gap(exact, mean, se, floor=0.0) -> float:
    """How far exact lies outside mean +- (3 se + floor); at most 0 inside."""
    return abs(exact - mean) - (3.0 * se + floor)


def _validate_checks(params: SystemParams, trials: int, seed: int, ctl):
    """The report's checks in order, with ctl the SeriesControl under test;
    each grid's error is its _worst."""
    from scipy import integrate  # lazy: importing covertcomm leaves it out

    from . import analytic, optimizer
    from .specfun import (exp_e1_scaled, kummer_1f1, reg_gamma_lower,
                          reg_gamma_upper, tricomi_u)

    def rng(stream):
        return montecarlo.RngSpec(seed, stream)

    def at_snr(snr_db):
        return params.with_(p_b=power_from_snr_db(snr_db, params.sigma0_sq))

    def rate_by_quadrature(kp, p):
        # the defining expectation E[log2(1 + beta h)] with h ~ Exp(omega_u)
        beta = kp.m * p / (kp.k * kp.sigma0_sq)
        return integrate.quad(
            lambda h: np.log2(1.0 + beta * h) * math.exp(-h / kp.omega_u) / kp.omega_u,
            0.0, np.inf,
        )[0]

    # e^x E1(x) lies strictly inside its two-sided envelope and falls with x
    e1_x = (0.05, 0.2, 1.0, 3.0, 10.0, 100.0, 1000.0)
    e1 = [exp_e1_scaled(x) for x in e1_x]
    e1_inside = all(
        0.5 * math.log1p(2.0 / x) < v < min(math.log1p(1.0 / x), 1.0 / x) and v < prev
        for x, v, prev in zip(e1_x, e1, (math.inf, *e1))
    )
    md_points = [params.with_(q=8, k=2, L=2, m=2, gamma_e=2.0, p_b=p_b)
                 for p_b in (0.5, 2.0, 8.0, 50.0)] + [at_snr(37.0)]

    # Monte Carlo runs, one stream each: a detector run serves three checks,
    # and 3/trials is the floor where a standard error collapses to 0
    floor = 3.0 / trials
    detector = [(mp, *montecarlo.simulate_detector(mp, trials, rng(1000 + i)))
                for i, mp in enumerate(map(at_snr, (30.0, 37.0, 44.0)))]
    rtp_mc = [
        (mp, montecarlo.simulate_rtp(mp, trials, rng(2000 + i)))
        for i, mp in enumerate(params.with_(p_b=p_b) for p_b in (0.5, 1.0, 4.0))
    ]
    rate_mc = montecarlo.simulate_rate(params, 2.0, trials, rng(3000))

    small = params.with_(q=8, k=2, L=2, m=2)
    p_up = optimizer.power_upper_bound(small, 1e-6, 1e3, 1e-7)
    # perfect sensing leaves nothing to collide with, and a rerun is the same
    grid = scheduler.GridConfig(q=16, p=400, L=4, m=1, users_per_bs=(3,),
                                jammed_slots=frozenset({0, 5}))
    stats, rerun = [scheduler.run_episode(grid, scheduler.GREEDY_BELIEF, rng(4000))
                    for _ in range(2)]

    return [
        _check("incomplete_gamma_complement", _worst(
            abs(reg_gamma_lower(s, x) + reg_gamma_upper(s, x) - 1.0)
            for s in (0.5, 1.0, 3.0, 8.0, 64.0, 512.0, 3000.0)
            for x in (0.0, 0.5, 1.0, 8.0, 100.0, 512.0, 1024.0, 5000.0)
        ), 1e-12),
        _check("kummer_exp_identity", _worst(
            _rel_err(kummer_1f1(a, a, z, ctl), math.exp(z))
            for a in (0.5, 2.0, 7.5, 32.0, 128.0) for z in (0.0, 1.0, 5.0, 20.0, 50.0)
        ), 1e-10),
        _check("tricomi_power_identity", _worst(
            _rel_err(tricomi_u(float(a), a + 1.0, z), z ** -a)
            for a in range(1, 9) for z in (0.1, 1.0, 10.0, 100.0)
        ), 1e-9),
        _check("tricomi_kummer_transform", _worst(
            _rel_err(tricomi_u(a, b, z),
                     z ** (1.0 - b) * tricomi_u(a - b + 1.0, 2.0 - b, z))
            for a in (1.5, 2.0, 3.0, 4.5, 6.0) for b in (-2.5, -1.0, 0.5, 1.5, 2.5)
            for z in (0.5, 2.0, 10.0)
        ), 1e-8),
        _check("e1_scaled_envelope", 0.0 if e1_inside else 1.0, 0.0),
        _check("miss_detection_series_vs_quadrature", _worst(
            _rel_err(analytic.miss_detection_prob(p, "series", ctl),
                     analytic.miss_detection_prob(p, "quadrature", ctl))
            for p in md_points
        ), 1e-6),
        _check("covert_rate_vs_quadrature", _worst(
            _rel_err(analytic.covert_rate(kp, p), rate_by_quadrature(kp, p))
            for p in (0.1, 1.0, 10.0)
            for kp in (params.with_(k=min(k, params.q)) for k in (2, 8))  # k <= q at any q
        ), 1e-8),
        _check("false_alarm_vs_mc", _worst(
            _mc_gap(analytic.false_alarm_prob(mp), fa.mean, fa.std_error, floor)
            for mp, fa, md in detector
        ), 0.0),
        _check("miss_detection_vs_mc", _worst(
            _mc_gap(analytic.miss_detection_prob(mp), md.mean, md.std_error, floor)
            for mp, fa, md in detector
        ), 0.0),
        _check("dep_vs_mc", _worst(
            _mc_gap(analytic.dep(mp), fa.mean + md.mean,
                    math.hypot(fa.std_error, md.std_error), floor)
            for mp, fa, md in detector
        ), 0.0),
        _check("rtp_vs_mc", _worst(
            _mc_gap(analytic.rtp(mp), est.mean, est.std_error, floor)
            for mp, est in rtp_mc
        ), 0.0),
        _check("covert_rate_vs_mc", _mc_gap(
            analytic.covert_rate(params, 2.0), rate_mc.mean, rate_mc.std_error
        ), 0.0),
        # the two power bounds land on their targets
        _check("rtp_at_power_lower_bound", abs(
            analytic.rtp(params.with_(p_b=optimizer.power_lower_bound(params)))
            - (1.0 - params.eps_u)
        ), 1e-10),
        _check("dep_at_power_upper_bound", abs(
            analytic.dep(small.with_(p_b=p_up)) - (1.0 - small.eps_e)
        ), 1e-4),
        _check("scheduler_perfect_sensing_clean",
               stats.collisions + stats.jammer_hits + stats.hop_violations, 0.0),
        _check("scheduler_determinism", 0.0 if rerun == stats else 1.0, 0.0),
    ]


def _cmd_validate(args) -> int:
    from .specfun import SeriesControl

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
    rows = []
    for ep in range(args.episodes):
        stats, occupancy = scheduler.run_episode_trace(
            grid, args.policy, montecarlo.RngSpec(args.seed, ep)
        )
        if ep == 0:
            first = occupancy
        rows.append({"episode": ep, **stats.as_dict()})
    stat_cols = [f.name for f in fields(scheduler.EpisodeStats)]
    _emit(_render(rows, ["episode", *stat_cols], args.format), args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("time_slot,freq_slot,occupant_tag\n")
            fh.writelines(f"{t},{f},{tag}\n" for t, f, tag in first.rows())
    if args.stats_json:
        n = len(rows)
        summary = {
            "policy": args.policy,
            "episodes": n,
            "means": {c: sum(row[c] for row in rows) / n for c in stat_cols},
        }
        with open(args.stats_json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # every command takes common; fmt, seed and trials go only to the
    # commands that read them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--out", default="-", help="output path, - for stdout")
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=12345, help="base RNG seed")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument(
        "--trials", type=int, default=100_000, help="Monte Carlo trials per point"
    )

    top = argparse.ArgumentParser(
        prog="covertcomm",
        description="Covert-communication performance sweeps and validation.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    for name, fn, what in (
        ("dep", _cmd_dep, "detection error"),
        ("rtp", _cmd_rtp, "reliable transmission"),
    ):
        p = sub.add_parser(name, parents=[common, fmt, seed, trials],
                           help=f"{what} probability sweep")
        p.add_argument("--snr-db", default="-10:10:11", help="grid lo:hi:n or list")
        p.add_argument("--k-list", default="4,8,16", help="active user counts")
        p.set_defaults(fn=fn)

    p = sub.add_parser("power-bounds", parents=[common, fmt],
                       help="feasible power interval per user count")
    p.add_argument("--k-range", default="2:16", help="range lo:hi or list")
    p.add_argument("--p-min", type=float, default=1e-6)
    p.add_argument("--p-max", type=float, default=1e3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_power_bounds)

    p = sub.add_parser("capacity", parents=[common, fmt],
                       help="maximum admissible users vs power budget")
    p.add_argument("--snr-db", default="0:20:11", help="p_max grid in dB over noise")
    p.add_argument("--eps-u-list", default="0.05,0.1")
    p.add_argument("--p-min", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("validate", parents=[common, seed, trials],
                       help="identity and analytic-vs-MC check suite")
    p.add_argument("--rel-tol", type=float, default=1e-12,
                   help="series truncation tolerance under test")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("schedule", parents=[common, fmt, seed],
                       help="run spectrum-occupation episodes")
    p.add_argument("--policy", default=scheduler.GREEDY_BELIEF,
                   choices=scheduler.POLICIES)
    p.add_argument("--episodes", type=_positive_int, default=10)
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
