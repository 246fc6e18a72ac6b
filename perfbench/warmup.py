"""Program import and one warm-up call into each layer a workload uses.

Run as a script it is the set-up probe: the benchmark times the whole
process (interpreter start, import of covertcomm, warm-up) from outside.

    python3 perfbench/warmup.py --workload curves
"""

import argparse
import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def program_path():
    """Put the checkout's src/ first on sys.path; fail if the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "covertcomm", "__init__.py")):
        raise SystemExit(f"error: no program at {os.path.join('src', 'covertcomm')} "
                         "below the checkout root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def run_cli(cli, argv):
    """Run covertcomm's CLI in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def warm_curves():
    from covertcomm import analytic, specfun
    from covertcomm.params import SystemParams, power_from_snr_db

    params = SystemParams(p_b=power_from_snr_db(37.0))
    analytic.dep(params)
    analytic.miss_detection_prob(SystemParams(m=2, k=2, q=8, L=2, p_b=8.0), "series")
    analytic.rtp(params)
    analytic.covert_rate(params, params.p_b)
    specfun.log_tricomi_u(2.0, -30.0, 0.5)


def warm_design():
    from covertcomm import cli

    run_cli(cli, ["power-bounds", "--k-range", "1", "--p-max", "1e5", "--format", "json"])
    run_cli(cli, ["capacity", "--snr-db", "10", "--eps-u-list", "0.1", "--set", "q=8",
                  "--set", "L=2", "--set", "m=2", "--format", "json"])


def warm_simulate():
    from covertcomm import montecarlo, scheduler
    from covertcomm.params import SystemParams

    montecarlo.simulate_detector(SystemParams(p_b=5000.0), 100, montecarlo.RngSpec(0, 0))
    grid = scheduler.GridConfig(q=16, p=40, L=4, m=2, users_per_bs=(1, 1),
                                shared_control_matrix=True)
    for policy in scheduler.POLICIES:
        scheduler.run_episode(grid, policy, montecarlo.RngSpec(0, 1))


WARMUPS = {"curves": warm_curves, "design": warm_design, "simulate": warm_simulate}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WARMUPS), required=True)
    args = parser.parse_args(argv)
    program_path()
    import covertcomm  # noqa: F401  (the import is part of set-up)

    WARMUPS[args.workload]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
