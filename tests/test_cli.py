"""Command-line interface: argument handling, config files, output
formats, exit codes, and agreement with the library calls it wraps."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from covertcomm import cli
from covertcomm.analytic import dep, rtp
from covertcomm.montecarlo import RngSpec
from covertcomm.optimizer import MonotonicityError, max_users, optimal_power
from covertcomm.params import SystemParams, power_from_snr_db
from covertcomm.scheduler import (
    GREEDY_BELIEF,
    GridConfig,
    run_episode,
    run_episode_trace,
)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_file_and_overrides(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment\nq = 8\nL=2\nm = 2\n\nk = 2\n")
    cfg = cli.load_config(str(conf), ["omega_u=3.5", "k=4"])
    params = cfg.system_params()
    assert params.q == 8 and params.L == 2 and params.m == 2
    assert params.k == 4          # --set wins over the file
    assert params.omega_u == 3.5


def test_config_rejects_unknown_and_malformed(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("qq = 8\n")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.load_config(str(conf), [])
    conf.write_text("# header\njust words\n")
    with pytest.raises(ValueError, match=r"bad\.conf:2: expected 'key = value'"):
        cli.load_config(str(conf), [])
    with pytest.raises(ValueError, match="^--set: unknown config key"):
        cli.load_config(None, ["nope=1"])
    with pytest.raises(ValueError, match="^--set: expected 'key = value'"):
        cli.load_config(None, ["q 8"])
    with pytest.raises(ValueError, match="^--set: config key 'q'"):
        cli.load_config(None, ["q=notanint"])


# a valid non-default value for every field of SystemParams and
# GridConfig, as written in a config file, and the value it must become
_FIELD_VALUES = {
    "m": ("2", 2), "k": ("2", 2), "q": ("32", 32), "L": ("4", 4),
    "p_b": ("3.5", 3.5), "sigma0_sq": ("0.5", 0.5),
    "omega_e": ("1.5", 1.5), "omega_u": ("3", 3.0),
    "gamma_e": ("1.5", 1.5), "gamma_u": ("2.5", 2.5),
    "eps_e": ("0.2", 0.2), "eps_u": ("0.05", 0.05),
    "threshold_mode": ("raw", "raw"),
    "p": ("50", 50),
    "users_per_bs": ("2,1,0,1", (2, 1, 0, 1)),
    "jammed_slots": ("1,3", frozenset({1, 3})),
    "external_occupancy_prob": ("0.25", 0.25),
    "sense_miss_prob": ("0.1", 0.1),
    "sense_fa_prob": ("0.05", 0.05),
    "belief_persistence": ("0.5", 0.5),
    "distinct_within_block": ("yes", True),
    "shared_control_matrix": ("on", True),
}
_SYSTEM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
_GRID_FIELDS = {f.name for f in dataclasses.fields(GridConfig)}


@pytest.mark.parametrize("key", sorted(_SYSTEM_FIELDS | _GRID_FIELDS))
def test_config_sets_every_field(key):
    raw, want = _FIELD_VALUES[key]
    cfg = cli.load_config(None, [f"{key}={raw}"])
    reached = []
    if key in _SYSTEM_FIELDS:
        assert getattr(SystemParams(), key) != want
        reached.append(getattr(cfg.system_params(), key))
    if key in _GRID_FIELDS:
        assert getattr(GridConfig(), key) != want
        reached.append(getattr(cfg.grid_config(), key))
    for got in reached:
        assert got == want and type(got) is type(want)
    # q, L and m configure both the detector model and the grid
    assert len(reached) == (2 if key in ("q", "L", "m") else 1)


def test_config_empty_int_list():
    cfg = cli.load_config(None, ["jammed_slots="])
    assert cfg.grid_config().jammed_slots == frozenset()


def test_grid_parsers():
    assert cli._parse_float_grid("0:10:5") == [0.0, 2.5, 5.0, 7.5, 10.0]
    assert cli._parse_float_grid("1.5,2,-3") == [1.5, 2.0, -3.0]
    assert cli._parse_int_list("2:5") == [2, 3, 4, 5]
    assert cli._parse_int_list("4,8,16") == [4, 8, 16]
    assert cli._parse_float_grid("3:9:1") == [3.0]   # single-point grid
    with pytest.raises(ValueError):
        cli._parse_float_grid("0:10:0")
    with pytest.raises(ValueError):
        cli._parse_int_list("5:2")


def test_dep_csv_matches_library(capsys):
    code, out, err = _run(
        capsys, "dep", "--snr-db", "37", "--k-list", "4",
        "--trials", "2000", "--seed", "12345",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "snr_db,k,dep_analytic,dep_mc_mean,dep_mc_se"
    snr, k, analytic, mc_mean, mc_se = lines[1].split(",")
    params = SystemParams().with_(k=4, p_b=power_from_snr_db(37.0))
    assert float(analytic) == pytest.approx(dep(params), rel=1e-9)
    assert abs(float(mc_mean) - float(analytic)) <= 4 * float(mc_se)


def test_dep_output_deterministic(capsys):
    args = ("dep", "--snr-db", "30:44:3", "--k-list", "4,8",
            "--trials", "500", "--seed", "7")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second
    assert len(first.strip().splitlines()) == 1 + 3 * 2


def test_dep_column_nonincreasing_in_snr(capsys):
    _, out, _ = _run(capsys, "dep", "--snr-db", "37:44:8",
                     "--k-list", "4", "--trials", "200")
    col = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert all(a >= b for a, b in zip(col, col[1:]))


def test_rtp_csv_matches_library(capsys):
    code, out, _ = _run(
        capsys, "rtp", "--snr-db", "0,3", "--k-list", "4",
        "--trials", "2000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "snr_db,k,rtp_analytic,rtp_mc_mean,rtp_mc_se"
    row = lines[1].split(",")
    params = SystemParams().with_(k=4, p_b=power_from_snr_db(0.0))
    assert float(row[2]) == pytest.approx(rtp(params), rel=1e-9)


def test_json_format_and_out_file(tmp_path, capsys):
    target = tmp_path / "dep.json"
    code, out, _ = _run(
        capsys, "dep", "--snr-db", "37", "--k-list", "4",
        "--trials", "500", "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    rows = json.loads(target.read_text())
    assert len(rows) == 1
    assert set(rows[0]) == {
        "snr_db", "k", "dep_analytic", "dep_mc_mean", "dep_mc_se"
    }


def test_power_bounds_matches_library(capsys):
    code, out, _ = _run(
        capsys, "power-bounds", "--k-range", "2:4", "--p-max", "1e5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,p_low,p_up,feasible,p_star,rate_star"
    assert len(lines) == 4
    row = lines[1].split(",")
    res = optimal_power(SystemParams().with_(k=2), p_max=1e5)
    assert float(row[1]) == pytest.approx(res.bounds.p_low, rel=1e-9)
    assert float(row[2]) == pytest.approx(res.bounds.p_up, rel=1e-9)
    assert row[3] == "true"


def test_power_bounds_infeasible_rows_flagged(capsys):
    code, out, _ = _run(
        capsys, "power-bounds", "--k-range", "2:2",
        "--set", "eps_u=0.0001", "--p-max", "1e5",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "false"
    assert row[4] == "nan" and row[5] == "nan"


def test_power_bounds_columns_nondecreasing_in_k(capsys):
    code, out, _ = _run(
        capsys, "power-bounds", "--k-range", "2:8", "--p-max", "1e5",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    lows = [float(r[1]) for r in rows]
    ups = [float(r[2]) for r in rows]
    assert all(a <= b for a, b in zip(lows, lows[1:]))
    assert all(a <= b for a, b in zip(ups, ups[1:]))


def test_power_bounds_large_k(capsys):
    code, out, err = _run(
        capsys, "power-bounds", "--k-range", "36:44", "--p-max", "1e5",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(36, 45))
    assert all(math.isfinite(float(v)) for r in rows for v in (r[1], r[2]))
    ups = [float(r[2]) for r in rows]
    assert all(a <= b for a, b in zip(ups, ups[1:]))


def test_power_bounds_non_finite_p_max_fails_its_row(capsys):
    code, out, err = _run(capsys, "power-bounds", "--k-range", "4", "--p-max", "inf")
    assert code == 1
    assert out == "k,p_low,p_up,feasible,p_star,rate_star\n4,nan,nan,false,nan,nan\n"
    assert err == "row k=4 failed: ValueError: need a finite p_max, got inf\n"


def test_power_bounds_screen_up_to_1e30(capsys):
    # the screen passes 1e19..1e30, where md ~ 1e-15 and only the stop
    # rule's 1e-18 absolute term can be met
    code, out, err = _run(
        capsys, "power-bounds", "--k-range", "4", "--p-max", "1e30", "--format", "json"
    )
    assert code == 0, err
    (row,) = json.loads(out)
    assert row["p_up"] == pytest.approx(3523.38, rel=1e-5)


# sha256 of json.dumps([exit code, stdout, stderr]) for the design traffic
# (all 64 power-bounds rows, and capacity on the q=8 instance at 6..16 dB),
# as written before the screen shared one kernel call and Newton steered
# the bisection: the solver must return the same floats
_DESIGN_PINS = (
    (("power-bounds", "--k-range", "1:64", "--p-max", "1e5", "--format", "json"),
     "a5c5a0157a2f07123e210773507229e292bada172f24d840ca7e9bdcc7d6b547"),
    (("capacity", "--snr-db", "6:16:11", "--eps-u-list", "0.05,0.1",
      "--set", "q=8", "--set", "L=2", "--set", "m=2", "--format", "json"),
     "83593d53fbf8b6274030632b17c8757f6b00ce31d6318dfec056710cbc31476d"),
)


@pytest.mark.parametrize("argv, digest", _DESIGN_PINS, ids=["power-bounds", "capacity"])
def test_design_output_pinned(capsys, argv, digest):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    blob = json.dumps([code, out, err]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_capacity_matches_library(capsys):
    code, out, _ = _run(
        capsys, "capacity", "--snr-db", "10,14", "--eps-u-list", "0.1",
        "--set", "q=8", "--set", "L=2", "--set", "m=2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "snr_db,eps_u,k_star"
    small = SystemParams(m=2, k=1, q=8, L=2)
    for line, snr in zip(lines[1:], (10.0, 14.0)):
        want = max_users(small, p_max=power_from_snr_db(snr)).k_star
        assert int(line.split(",")[2]) == want


def test_schedule_stats_and_trace(tmp_path, capsys):
    trace = tmp_path / "grid.csv"
    stats_json = tmp_path / "stats.json"
    code, out, _ = _run(
        capsys, "schedule", "--episodes", "2", "--seed", "99",
        "--set", "q=8", "--set", "p=40", "--set", "L=4",
        "--set", "m=1", "--set", "users_per_bs=2",
        "--set", "jammed_slots=1,5",
        "--trace", str(trace), "--stats-json", str(stats_json),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "episode,collisions,jammer_hits,hop_violations,"
        "blocks_delivered,overloads,pattern_entropy"
    )
    assert len(lines) == 3

    cfg = GridConfig(q=8, p=40, L=4, m=1, users_per_bs=(2,),
                     jammed_slots=frozenset({1, 5}))
    want = run_episode(cfg, GREEDY_BELIEF, RngSpec(99, 0))
    assert int(lines[1].split(",")[1]) == want.collisions
    assert int(lines[1].split(",")[4]) == want.blocks_delivered

    tr = trace.read_text().strip().splitlines()
    assert tr[0] == "time_slot,freq_slot,occupant_tag"
    assert len(tr) == 1 + 8 * 40

    agg = json.loads(stats_json.read_text())
    assert agg["episodes"] == 2
    assert set(agg["means"]) == set(want.as_dict())


_TRACE_SETS = (
    "q=8", "p=60", "m=2", "users_per_bs=3,2", "jammed_slots=1,5",
    "external_occupancy_prob=0.3", "shared_control_matrix=false",
)
# sha256 of that trace as written by the per-cell occupant() lookup
_TRACE_SHA256 = "1f69c8077286cfd05cf04d13d4862f5500ed39e3f3d790cd57cf3f1e8684f5e4"


def test_schedule_trace_matches_per_cell_occupant(tmp_path, capsys):
    # independent stations share slots; external traffic and jammers
    # fill the background
    trace = tmp_path / "grid.csv"
    sets = [a for kv in _TRACE_SETS for a in ("--set", kv)]
    code, _, _ = _run(
        capsys, "schedule", "--episodes", "1", "--seed", "5",
        *sets, "--trace", str(trace),
    )
    assert code == 0
    data = trace.read_bytes()
    assert hashlib.sha256(data).hexdigest() == _TRACE_SHA256

    cfg = cli.load_config(None, list(_TRACE_SETS)).grid_config()
    _, grid = run_episode_trace(cfg, GREEDY_BELIEF, RngSpec(5, 0))
    want = ["time_slot,freq_slot,occupant_tag"] + [
        f"{t},{f},{grid.occupant(t, f)}" for t in range(cfg.p) for f in range(cfg.q)
    ]
    assert data.decode() == "\n".join(want) + "\n"
    assert {"external", "jammer", "free"} <= {line.rsplit(",", 1)[1] for line in want}
    # some time slot has two users on one slot
    assert any(len(set(r[r >= 0])) < np.sum(r >= 0) for r in grid.assignments)


def test_schedule_rejects_nonpositive_episodes(tmp_path, capsys):
    stats_json = tmp_path / "stats.json"
    for n in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["schedule", "--episodes", n, "--stats-json", str(stats_json)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--episodes" in err
    assert not stats_json.exists()


def test_schedule_without_users(capsys):
    code, out, _ = _run(capsys, "schedule", "--episodes", "1", "--set", "k=0")
    assert code == 0
    assert out.splitlines()[1] == "0,0,0,0,0,0,0"


def test_validate_passes_and_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(
            capsys, "validate", "--trials", "5000", "--seed", "3",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["passed"] is True
    assert report["n_failed"] == 0
    assert report["n_checks"] == len(report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))


def test_validate_detects_broken_tolerance(capsys):
    code, out, _ = _run(
        capsys, "validate", "--trials", "5000", "--rel-tol", "1",
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["n_failed"] >= 1


@pytest.mark.parametrize("key", ["sigma0_sq", "omega_e", "omega_u"])
def test_non_finite_noise_floor_or_fading_mean_is_a_usage_error(capsys, key):
    # rejected where it enters, not as a failed row
    code, out, err = _run(capsys, "dep", "--set", f"{key}=inf",
                          "--snr-db", "0", "--k-list", "4", "--trials", "200")
    assert code == 2 and f"{key} must be finite" in err and out == ""


def test_exit_codes(capsys, tmp_path):
    # domain error in a config value
    code, _, err = _run(capsys, "dep", "--set", "sigma0_sq=-1",
                        "--snr-db", "0", "--k-list", "4", "--trials", "200")
    assert code == 2 and "error:" in err
    # too few trials is a usage problem, not a per-row failure
    code, _, err = _run(capsys, "dep", "--snr-db", "0", "--k-list", "4",
                        "--trials", "10")
    assert code == 2
    # unreadable config file
    code, _, err = _run(capsys, "dep", "--config", str(tmp_path / "none.conf"),
                        "--snr-db", "0", "--k-list", "4", "--trials", "200")
    assert code == 2
    # argparse usage errors exit 2 by convention
    with pytest.raises(SystemExit) as exc:
        cli.main(["dep", "--format", "yaml"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("schedule", "--episodes", "1", "--set", "p=10", "--trials", "3"),
    ("power-bounds", "--k-range", "1", "--seed", "1"),
    ("capacity", "--snr-db", "10", "--eps-u-list", "0.1", "--trials", "500"),
    ("validate", "--trials", "2000", "--format", "csv"),
], ids=lambda argv: argv[0])
def test_subcommands_reject_flags_they_ignore(capsys, tmp_path, argv):
    # a flag the command would not read is a usage error, not a no-op
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_rows_say_why(capsys, monkeypatch):
    # dep and rtp rows fail on a user count the grid cannot hold
    for cmd in ("dep", "rtp"):
        code, out, err = _run(capsys, cmd, "--snr-db", "0", "--k-list", "4,65",
                              "--trials", "200")
        assert code == 1
        assert out.strip().splitlines()[2].endswith("nan,nan,nan")
        assert err.splitlines() == [
            "row snr_db=0, k=65 failed: ValueError: k must lie in [1, q]=[1, 64], got k=65"
        ]

    # solver failures in power-bounds and capacity (max_users calls
    # optimal_power); stdout and the exit code are those without the report
    def fail(params, *args, **kwargs):
        raise MonotonicityError(f"no bracket at k={params.k}")

    monkeypatch.setattr(cli.optimizer, "optimal_power", fail)
    code, out, err = _run(capsys, "power-bounds", "--k-range", "2:3")
    assert code == 1
    assert out == "k,p_low,p_up,feasible,p_star,rate_star\n" + "".join(
        f"{k},nan,nan,false,nan,nan\n" for k in (2, 3)
    )
    assert err.splitlines() == [
        f"row k={k} failed: MonotonicityError: no bracket at k={k}" for k in (2, 3)
    ]
    code, out, err = _run(capsys, "capacity", "--snr-db", "10", "--eps-u-list", "0.1")
    assert code == 1
    assert out == "snr_db,eps_u,k_star\n10,0.1,nan\n"
    assert err.splitlines() == [
        "row snr_db=10, eps_u=0.1 failed: MonotonicityError: no bracket at k=1"
    ]


# small sweeps of the four commands, then a failed row for each of them;
# sha256 of json.dumps([exit code, stdout, stderr]) as written before the
# commands shared one sweep driver (CSV, so float reprs do not enter)
_SWEEP_PINS = (
    (("dep", "--snr-db", "30:44:3", "--k-list", "1,4", "--trials", "500",
      "--seed", "7"), "93f5c404045e4208c608fcabbeaeacbcfa3a782d1845f30df1a2f54d9232d1d0"),
    (("rtp", "--snr-db", "0:6:3", "--k-list", "4,8", "--trials", "500",
      "--seed", "7"), "23d00b90549db69006ed2d368d7291c6ea9e6e683f8a93eee0f3193ddd1d4d4d"),
    (("power-bounds", "--k-range", "1:3", "--p-max", "1e5"),
     "d1a4d80d4904bdfdf3ea26219c413e3a62aa8b593b23d8942ae4ed7a3f8013fa"),
    (("capacity", "--snr-db", "10,14", "--eps-u-list", "0.05,0.1",
      "--set", "q=8", "--set", "L=2", "--set", "m=2"),
     "aaaaf45d525d862b7729e755e210cf64f8d8b2d4ff0c867ba761415d1cc58ae7"),
    (("dep", "--snr-db", "37", "--k-list", "4,65", "--trials", "500"),
     "be029596c9554cc5afa2d5c6a4c3ee7041c4d0b9265bf318c41b52566d92b5a0"),
    (("rtp", "--snr-db", "0", "--k-list", "65,4", "--trials", "500"),
     "060e121fdf33581d60826ee8cfad1693cbd54453660ecf849670b3b67028c241"),
    (("power-bounds", "--k-range", "1:2", "--p-min", "10", "--p-max", "1"),
     "2776b16d4c9bc8004955c6859f1d00bd6738142b9cfead71fd9b7d3e6e295fa3"),
    (("capacity", "--snr-db", "10", "--eps-u-list", "0.1,2",
      "--set", "q=8", "--set", "L=2", "--set", "m=2"),
     "70efa154288d568a0341b4dcbcfd925a5effaf947b5325bad6083208e7e97c5a"),
)


@pytest.mark.parametrize(
    "argv, digest", _SWEEP_PINS,
    ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(_SWEEP_PINS)],
)
def test_sweep_output_pinned(capsys, argv, digest):
    code, out, err = _run(capsys, *argv)
    blob = json.dumps([code, out, err]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest, (code, out, err)


def test_nan_cell_renders_as_nan():
    assert cli._fmt_cell(float("nan")) == "nan"
    assert cli._fmt_cell(True) == "true"
    assert cli._fmt_cell(0.30000000000000004) == "0.3"
    assert cli._fmt_cell(3) == "3"
