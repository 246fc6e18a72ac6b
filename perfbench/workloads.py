"""The benchmark's three workloads.

Each workload turns the seed into inputs, hands out one round of timed
operations at a time (every round runs the same operations), and checks
each result against the oracle or a property the method must have.
Checks run after the round's timed calls. An operation whose result
fails its check, or that raises, is a failed operation and is listed
with its inputs and reason. A failed property that spans several
operations (a trend, a determinism re-run) makes the run incorrect.

The program is reached only through module attributes (analytic.dep,
cli.main, ...), so the tracer's wrappers see every call.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

import oracle
from warmup import WARMUPS, run_cli

from covertcomm import analytic, cli, montecarlo, optimizer, scheduler, specfun
from covertcomm.params import SystemParams, power_from_snr_db


@dataclass
class Op:
    kind: str
    inputs: dict
    call: object  # () -> result
    rows: int = 1  # attempted operations this timed call stands for
    work: float = 1.0  # units counted by the workload's rate for this kind
    result: object = None
    error: BaseException | None = None
    seconds: float = 0.0  # wall time of the call
    start: float = 0.0
    scaled: float = 0.0  # wall time at nominal machine speed (calibrate.py)
    reasons: list = field(default_factory=list)  # per row: None or reason
    parsed: list | None = None  # CLI rows, for checks that span rows
    row_inputs: list | None = None  # per-row inputs added to `inputs` in reports


def _rel(got, want):
    return abs(got - want) / abs(want)


def _describe(err):
    return f"{type(err).__name__}: {err}"


def _probability_problem(v):
    if not isinstance(v, float) or not math.isfinite(v):
        return f"not a finite number ({v!r})"
    if not 0.0 <= v <= 1.0:
        return f"outside [0, 1] ({v!r})"
    return None


class Workload:
    name = ""
    # rate name -> op kinds it covers; each rate is the successful work of
    # those kinds divided by the time spent on all their attempts
    rates = {}
    # op kind -> {calibration kernel: weight}, see calibrate.py
    mix = {}
    # program names the tracer wraps: (module, attribute, span name or namer)
    trace_targets = ()

    def __init__(self, seed):
        self.seed = seed % 2**64  # numpy seeds and RngSpec take unsigned 64-bit
        self.violations = []  # failed cross-operation properties

    def setup(self):
        WARMUPS[self.name]()

    def round_ops(self, r):
        raise NotImplementedError

    def check_op(self, op):
        """Fill op.reasons: one entry per row, None when the row is correct."""
        raise NotImplementedError

    def check_round(self, r, ops):
        pass

    def check_run(self, first_round):
        pass

    def _violate(self, what):
        self.violations.append(what)


def _md_namer(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "quadrature")
    return "analytic.md_series" if method == "series" else "analytic.md_quad"


_ANALYTIC_TARGETS = (
    (integrate, "quad", "quad"),
    (analytic, "dep", "analytic.dep"),
    (analytic, "miss_detection_prob", _md_namer),
    (analytic, "rtp", "analytic.rtp"),
    (analytic, "covert_rate", "analytic.rate"),
    (analytic, "reg_gamma_lower", "specfun.reg_gamma"),
    (analytic, "reg_gamma_upper", "specfun.reg_gamma"),
    (analytic, "log_tricomi_u", "specfun.tricomi"),
    (specfun, "log_tricomi_u", "specfun.tricomi"),
)


# ---------------------------------------------------------------------------
# curves: DEP / miss / RTP / rate curves at the defaults


class Curves(Workload):
    name = "curves"
    K = (1, 4, 16, 64)
    SNR = tuple(30.0 + 2.0 * i for i in range(8))
    COLD_K = (1, 4, 16)
    SPOT_SNR = (30.0, 38.0, 44.0)
    SPOT_A = (1.0, 2.0, 3.0, 5.0, 8.0)
    rates = {
        "dep_warm_per_s": ("dep_warm",),
        "dep_cold_per_s": ("dep_cold",),
        "md_series_per_s": ("md_series",),
    }
    mix = {"dep_warm": {"quad_np": 1.0}, "dep_cold": {"quad_np": 1.0},
           "md_series": {"quad_py": 1.0}, "tricomi": {"quad_py": 1.0},
           "rtp": {"quad_py": 1.0}, "rate": {"quad_py": 1.0}}
    trace_targets = _ANALYTIC_TARGETS

    def __init__(self, seed):
        super().__init__(seed)
        self.base = SystemParams()
        self.thresholds_used = {self.base.gamma_e}
        self._md_ref = {}

    def _params(self, k, snr, gamma_e=None):
        p = self.base.with_(k=k, p_b=power_from_snr_db(snr))
        return p if gamma_e is None else p.with_(gamma_e=gamma_e)

    def _fresh_thresholds(self, r, n):
        # thresholds near the default, new to this run, so each cold call
        # has to build its gamma shape table
        rng = np.random.default_rng([self.seed, r])
        out = []
        while len(out) < n:
            g = float(1.99 + 0.02 * rng.random())
            if g not in self.thresholds_used:
                self.thresholds_used.add(g)
                out.append(g)
        return out

    def round_ops(self, r):
        ops = []
        for k in self.K:
            for snr in self.SNR:
                p = self._params(k, snr)
                inp = {"k": k, "snr_db": snr}
                ops.append(Op("dep_warm", inp, lambda p=p: analytic.dep(p)))
                ops.append(Op("md_series", inp,
                              lambda p=p: analytic.miss_detection_prob(p, "series")))
                ops.append(Op("rtp", inp, lambda p=p: analytic.rtp(p)))
                ops.append(Op("rate", inp, lambda p=p: analytic.covert_rate(p, p.p_b)))
        cold = iter(self._fresh_thresholds(r, len(self.COLD_K) * len(self.SNR)))
        for k in self.COLD_K:
            for snr in self.SNR:
                g = next(cold)
                p = self._params(k, snr, g)
                ops.append(Op("dep_cold", {"k": k, "snr_db": snr, "gamma_e": g},
                              lambda p=p: analytic.dep(p)))
        for k in self.K:
            for snr in self.SPOT_SNR:
                p = self._params(k, snr)
                b = 2.0 - k * p.L
                c = p.sigma0_sq / (p.rho * p.omega_e)
                for a in self.SPOT_A:
                    ops.append(Op("tricomi", {"a": a, "b": b, "z": c},
                                  lambda a=a, b=b, c=c: specfun.log_tricomi_u(a, b, c)))
        return ops

    def _oracle_md(self, p):
        key = (p.k, p.p_b, p.gamma_e)
        if key not in self._md_ref:
            self._md_ref[key] = oracle.miss_detection(p.m, p.k, p.q, p.L, p.p_b, p.gamma_e,
                                                      p.sigma0_sq, p.omega_e)
        return self._md_ref[key]

    def _oracle_dep(self, p):
        return oracle.false_alarm(p.q, p.L, p.gamma_e, p.sigma0_sq) + self._oracle_md(p)

    def check_op(self, op):
        op.reasons = [self._reason(op)]

    def _reason(self, op):
        if op.error is not None:
            return _describe(op.error)
        v = op.result
        inp = op.inputs
        if op.kind == "tricomi":
            if not isinstance(v, float) or not math.isfinite(v):
                return f"log U not finite ({v!r})"
            want = oracle.log_tricomi_u(inp["a"], inp["b"], inp["z"])
            err = abs(math.expm1(v - want))
            return None if err <= 1e-8 else (
                f"U off mpmath.hyperu by {err:.3g} relative (> 1e-8)")
        p = self._params(inp["k"], inp["snr_db"], inp.get("gamma_e"))
        if op.kind == "rate":
            want = oracle.covert_rate(p.m, p.k, p.p_b, p.sigma0_sq, p.omega_u)
            if not (isinstance(v, float) and math.isfinite(v)):
                return f"rate not finite ({v!r})"
            err = _rel(v, want)
            return None if err <= 1e-10 else f"rate off oracle by {err:.3g} relative (> 1e-10)"
        bad = _probability_problem(v)
        if bad:
            return bad
        if op.kind == "rtp":
            want = oracle.rtp(p.m, p.k, p.p_b, p.gamma_u, p.sigma0_sq, p.omega_u)
            err = _rel(v, want)
            return None if err <= 1e-12 else f"rtp off oracle by {err:.3g} relative (> 1e-12)"
        if op.kind == "md_series":
            err = _rel(v, self._oracle_md(p))
            return None if err <= 1e-8 else (
                f"series miss probability off oracle by {err:.3g} relative (> 1e-8)")
        # dep_warm / dep_cold: quadrature route
        err = _rel(v, self._oracle_dep(p))
        if err > 1e-8:
            return f"dep off oracle by {err:.3g} relative (> 1e-8)"
        parts = analytic.false_alarm_prob(p) + analytic.miss_detection_prob(p)
        if _rel(v, parts) > 1e-12:
            return f"dep {v!r} != fa + md {parts!r}"
        return None

    def check_run(self, first_round):
        worst, case = oracle.self_check()
        if worst > 1e-12:
            self._violate(f"oracle: off its pinned reference by {worst:.3g} ({case})")

    def check_round(self, r, ops):
        # dep does not increase with SNR (over the points that passed)
        for k in self.K:
            vals = [op.result for op in ops
                    if op.kind == "dep_warm" and op.inputs["k"] == k and op.reasons == [None]]
            for a, b in zip(vals, vals[1:]):
                if b > a + 1e-12:
                    self._violate(f"curves: dep rises with SNR at k={k}: {a!r} -> {b!r}")


# ---------------------------------------------------------------------------
# design: power-bounds and capacity through the CLI


class Design(Workload):
    """power-bounds over k = 1..64 at the defaults and capacity on the q=8
    instance, both through cli.main. The sweeps run as several CLI calls
    (8 k-ranges; one call per eps_u and budget) so that no timed call is
    long next to the machine-speed samples taken between calls."""

    name = "design"
    P_MAX = 1e5
    K_CHUNKS = [(lo, lo + 7) for lo in range(1, 65, 8)]
    SMALL = {"q": 8, "L": 2, "m": 2}
    EPS_U = (0.05, 0.1)
    BUDGETS = 11
    SAMPLED_ROWS = 3
    rates = {
        "bounds_rows_per_s": ("bounds",),
        "capacity_rows_per_s": ("capacity",),
    }
    mix = {"bounds": {"quad_np": 1.0}, "capacity": {"quad_np": 1.0}}
    trace_targets = _ANALYTIC_TARGETS + (
        (optimizer, "dep", "analytic.dep"),
        (optimizer, "rtp", "analytic.rtp"),
        (optimizer, "covert_rate", "analytic.rate"),
        (optimizer, "optimal_power", "optimizer.solve"),
        (optimizer, "max_users", "optimizer.max_users"),
        (cli, "main", "cli.main"),
    )

    def __init__(self, seed):
        super().__init__(seed)
        # the budget grid spans 10 dB from a seed-chosen start near 6 dB
        lo = 6.0 + float(np.random.default_rng(seed).uniform(-0.25, 0.25))
        self.budgets = [lo + i for i in range(self.BUDGETS)]
        self.small_set = [a for key, v in self.SMALL.items() for a in ("--set", f"{key}={v}")]
        self.base = SystemParams()
        self.small = SystemParams(**self.SMALL)
        self._row_failure = {}
        self._dep_ref = {}

    def round_ops(self, r):
        ops = []
        for lo, hi in self.K_CHUNKS:
            argv = ["power-bounds", "--k-range", f"{lo}:{hi}", "--p-max", "1e5",
                    "--format", "json"]
            ops.append(Op("bounds", {"argv": " ".join(argv)},
                          lambda argv=argv: run_cli(cli, argv),
                          rows=hi - lo + 1, work=hi - lo + 1))
        for eps_u in self.EPS_U:
            for snr in self.budgets:
                argv = ["capacity", "--snr-db", repr(snr), "--eps-u-list", str(eps_u),
                        *self.small_set, "--format", "json"]
                ops.append(Op("capacity", {"argv": " ".join(argv)},
                              lambda argv=argv: run_cli(cli, argv)))
        return ops

    def check_op(self, op):
        if op.error is not None:
            op.reasons = [_describe(op.error)] * op.rows
            return
        code, text = op.result
        try:
            rows = json.loads(text)
        except ValueError as err:
            op.reasons = [f"CLI exit {code}, output not JSON: {err}"] * op.rows
            return
        if len(rows) != op.rows:
            op.reasons = [f"CLI exit {code}, {len(rows)} rows instead of {op.rows}"] * op.rows
            return
        check = self._bounds_row if op.kind == "bounds" else self._capacity_row
        op.reasons = [check(row) for row in rows]
        op.parsed = rows
        keys = ("k",) if op.kind == "bounds" else ("eps_u", "snr_db")
        op.row_inputs = [{key: row[key] for key in keys} for row in rows]

    def _why_row_failed(self, k):
        # the CLI prints NaN and drops the reason; ask the library directly
        if k not in self._row_failure:
            params = self.base.with_(k=k)
            try:
                optimizer.optimal_power(params, 1e-6, self.P_MAX, 1e-6)
                why = "library call succeeds where the CLI row failed"
            except Exception as err:  # reason for the report, whatever it is
                why = _describe(err)
            bad = [f"dep(p_b={p:.4g})={d!r}"
                   for p in np.geomspace(1e-6, self.P_MAX, 16)
                   for d in [analytic.dep(params.with_(p_b=float(p)))]
                   if not math.isfinite(d)]
            if bad:
                why += f"; non-finite dep on the screen grid: {bad[0]}"
            self._row_failure[k] = why
        return self._row_failure[k]

    def _bounds_row(self, row):
        k = row["k"]
        p = self.base.with_(k=k)
        if not math.isfinite(row["p_up"]):
            return f"row came back NaN: {self._why_row_failed(k)}"
        gap = abs(oracle.rtp(p.m, k, row["p_low"], p.gamma_u, p.sigma0_sq, p.omega_u)
                  - (1.0 - p.eps_u))
        if gap > 1e-10:
            return f"rtp(p_low) misses 1 - eps_u by {gap:.3g} (> 1e-10)"
        if not 0.0 < row["p_up"] <= self.P_MAX:
            return f"p_up {row['p_up']!r} outside (0, p_max]"
        if row["feasible"] != (row["p_up"] >= row["p_low"]):
            return "feasible flag disagrees with p_low <= p_up"
        if row["feasible"]:
            want = oracle.covert_rate(p.m, k, row["p_up"], p.sigma0_sq, p.omega_u)
            if row["p_star"] != row["p_up"] or _rel(row["rate_star"], want) > 1e-10:
                return f"p_star/rate_star {row['p_star']!r}/{row['rate_star']!r} disagree " \
                       f"with p_up and oracle rate {want!r}"
        return None

    def _capacity_row(self, row):
        k_star = row["k_star"]
        if not isinstance(k_star, int):
            return f"k_star is {k_star!r}"
        want = self._brute_force_k_star(row["eps_u"], power_from_snr_db(row["snr_db"]))
        return None if k_star == want else f"k_star {k_star} != oracle brute force {want}"

    def _small_dep(self, k, p_b):
        key = (k, p_b)
        if key not in self._dep_ref:
            s = self.small
            self._dep_ref[key] = oracle.dep(s.m, k, s.q, s.L, p_b, s.gamma_e,
                                            s.sigma0_sq, s.omega_e)
        return self._dep_ref[key]

    def _brute_force_k_star(self, eps_u, p_max):
        # k is feasible when the least reliable power is within budget and
        # still covert (dep falls with power)
        s = self.small
        best = 0
        for k in range(1, s.q + 1):
            need = oracle.p_low(s.m, k, s.gamma_u, eps_u, s.sigma0_sq, s.omega_u)
            if need > p_max:
                continue
            if self._small_dep(k, max(need, 1e-12)) >= 1.0 - s.eps_e:
                best = k
        return best

    def check_round(self, r, ops):
        def good_rows(kind):
            return [row for op in ops if op.kind == kind and op.parsed
                    for row, why in zip(op.parsed, op.reasons) if why is None]

        bounds = good_rows("bounds")
        for a, b in zip(bounds, bounds[1:]):
            if a["p_up"] > b["p_up"] * (1.0 + 1e-9):
                self._violate(f"design: p_up falls from k={a['k']} to k={b['k']}")
        # oracle dep at p_up lands on the covertness target
        rng = np.random.default_rng([self.seed, r])
        inner = [row for row in bounds if row["p_up"] < self.P_MAX]
        for i in rng.choice(len(inner), min(self.SAMPLED_ROWS, len(inner)), replace=False):
            row = inner[int(i)]
            p = self.base.with_(k=row["k"])
            d = oracle.dep(p.m, p.k, p.q, p.L, row["p_up"], p.gamma_e, p.sigma0_sq, p.omega_e)
            if abs(d - (1.0 - p.eps_e)) > 1e-4:
                self._violate(f"design: oracle dep at p_up (k={row['k']}) is {d!r}, "
                              f"not within 1e-4 of {1.0 - p.eps_e}")
        table = {(row["eps_u"], row["snr_db"]): row["k_star"] for row in good_rows("capacity")}
        for e in self.EPS_U:
            col = [table[(e, s)] for s in self.budgets if (e, s) in table]
            if any(a > b for a, b in zip(col, col[1:])):
                self._violate(f"design: k_star falls with budget at eps_u={e}")
        for s in self.budgets:
            col = [table[(e, s)] for e in self.EPS_U if (e, s) in table]
            if any(a > b for a, b in zip(col, col[1:])):
                self._violate(f"design: k_star falls with eps_u at {s} dB")


# ---------------------------------------------------------------------------
# simulate: Monte Carlo detector and scheduler episodes


class Simulate(Workload):
    name = "simulate"
    MC_POINTS = ((1, 36.0), (4, 40.0), (16, 44.0))
    TRIALS = 20_000
    EPISODES_PER_POLICY = 2
    GRID = scheduler.GridConfig(
        q=64, p=1000, L=8, m=4, users_per_bs=(2, 2, 2, 2),
        jammed_slots=frozenset({3, 17, 40, 55}), external_occupancy_prob=0.02,
        sense_miss_prob=0.1, sense_fa_prob=0.05, shared_control_matrix=True,
    )
    rates = {
        "mc_samples_per_s": ("mc",),
        "slots_per_s": ("episode",),
    }
    mix = {"mc": {"bulk_np": 1.0}, "episode": {"quad_py": 0.5, "bulk_np": 0.5}}
    trace_targets = (
        (montecarlo, "simulate_detector", "montecarlo.detector"),
        (scheduler, "run_episode", "scheduler.episode"),
        (scheduler, "sense", "scheduler.sense"),
        (scheduler, "update_beliefs", "scheduler.update_beliefs"),
        (scheduler, "decide", "scheduler.decide"),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.base = SystemParams()
        self._ref = {}

    def _spec(self, r, j):
        return montecarlo.RngSpec(self.seed, 16 * r + j)

    def round_ops(self, r):
        ops = []
        j = 0
        for k, snr in self.MC_POINTS:
            p = self.base.with_(k=k, p_b=power_from_snr_db(snr))
            spec = self._spec(r, j)
            j += 1
            ops.append(Op("mc", {"k": k, "snr_db": snr, "trials": self.TRIALS,
                                 "stream": spec.stream},
                          lambda p=p, spec=spec: montecarlo.simulate_detector(
                              p, self.TRIALS, spec),
                          work=self.TRIALS * 2 * p.q * p.L))
        for policy in scheduler.POLICIES:
            for _ in range(self.EPISODES_PER_POLICY):
                spec = self._spec(r, j)
                j += 1
                ops.append(Op("episode", {"policy": policy, "stream": spec.stream},
                              lambda policy=policy, spec=spec: scheduler.run_episode(
                                  self.GRID, policy, spec),
                              work=self.GRID.p))
        return ops

    def _oracle(self, k, snr):
        if (k, snr) not in self._ref:
            p = self.base.with_(k=k, p_b=power_from_snr_db(snr))
            fa = oracle.false_alarm(p.q, p.L, p.gamma_e, p.sigma0_sq)
            md = oracle.miss_detection(p.m, p.k, p.q, p.L, p.p_b, p.gamma_e,
                                       p.sigma0_sq, p.omega_e)
            self._ref[(k, snr)] = (fa, md)
        return self._ref[(k, snr)]

    def check_op(self, op):
        op.reasons = [self._reason(op)]

    def _reason(self, op):
        if op.error is not None:
            return _describe(op.error)
        if op.kind == "mc":
            fa, md = op.result
            n = op.inputs["trials"]
            ref_fa, ref_md = self._oracle(op.inputs["k"], op.inputs["snr_db"])
            cells = (("fa", fa.mean, fa.std_error, ref_fa),
                     ("md", md.mean, md.std_error, ref_md),
                     ("dep", fa.mean + md.mean, math.hypot(fa.std_error, md.std_error),
                      ref_fa + ref_md))
            for what, mean, se, ref in cells:
                if abs(mean - ref) > 5.0 * se + 3.0 / n:
                    return (f"Monte Carlo {what} {mean!r} is more than 5 SE + 3/trials "
                            f"from the oracle {ref!r}")
            return None
        stats = op.result
        if stats.hop_violations:
            return f"{stats.hop_violations} hop violations"
        if stats.collisions:
            return f"{stats.collisions} collisions under the shared control matrix"
        return None

    def check_round(self, r, ops):
        hits = {policy: sum(op.result.jammer_hits for op in ops
                            if op.kind == "episode" and op.inputs["policy"] == policy
                            and op.error is None)
                for policy in scheduler.POLICIES}
        if not hits[scheduler.GREEDY_BELIEF] < hits[scheduler.RANDOM_HOP]:
            self._violate(f"simulate: greedy_belief jammer hits {hits} not below random_hop")

    def check_run(self, first_round):
        # the same RngSpec reproduces results bit for bit
        for kind in ("mc", "episode"):
            op = next(o for o in first_round if o.kind == kind)
            if op.error is None and op.call() != op.result:
                self._violate(f"simulate: {kind} {op.inputs} not reproducible")
        clean = scheduler.GridConfig(q=64, p=1000, L=8, m=1, users_per_bs=(8,),
                                     jammed_slots=self.GRID.jammed_slots)
        stats = scheduler.run_episode(clean, scheduler.GREEDY_BELIEF, self._spec(0, 15))
        if stats.jammer_hits or stats.collisions or stats.hop_violations:
            self._violate(f"simulate: perfect-sensing episode not clean: {stats}")
        single = scheduler.GridConfig(q=64, p=10_000, L=8, m=1, users_per_bs=(1,))
        h = scheduler.run_episode(single, scheduler.RANDOM_HOP, self._spec(0, 14)).pattern_entropy
        if abs(h - math.log2(63)) > 0.1:
            self._violate(f"simulate: single-user random_hop entropy {h:.4f} "
                          f"not within 0.1 of log2(63)")


WORKLOADS = {w.name: w for w in (Curves, Design, Simulate)}
