"""Special-function kernels against high-precision reference values.

Reference numbers were generated once with mpmath at 40 significant
digits and frozen here; tolerances reflect the double-precision
algorithms, not the references.
"""

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from covertcomm import specfun
from covertcomm.specfun import (
    ConvergenceError,
    SeriesControl,
    exp_e1_scaled,
    kummer_1f1,
    log_tricomi_u,
    reg_gamma_lower,
    reg_gamma_upper,
    tricomi_u,
)

# (s, x, P(s, x), Q(s, x)) from mpmath.gammainc, regularized
_GAMMA_CASES = [
    (0.5, 0.25, 0.52049987781304654, 0.47950012218695346),
    (1.0, 1.0, 0.63212055882855768, 0.36787944117144232),
    (3.0, 0.5, 0.014387677966970687, 0.98561232203302931),
    (8.0, 8.0, 0.54703919051300551, 0.45296080948699449),
    (64.0, 50.0, 0.031843441750738076, 0.96815655824926192),
    (64.0, 80.0, 0.97095112519726675, 0.029048874802733248),
    (512.0, 400.0, 4.3948346681658317e-8, 0.99999995605165332),
    (512.0, 512.0, 0.50587703831978359, 0.49412296168021641),
    (512.0, 625.0, 0.99999858026989894, 1.4197301010630346e-6),
    (512.0, 1024.0, 1.0, 1.0306329691736318e-70),
    (3000.0, 3100.0, 0.96499998630095364, 0.035000013699046358),
    (2.0, 1e-8, 4.999999966666667e-17, 0.99999999999999995),
    (5.0, 300.0, 1.0, 1.7609176946831842e-122),
    (16.0, 32.0, 0.99934007244740006, 0.00065992755259994155),
]

# (a, b, z, 1F1(a; b; z)) from mpmath.hyp1f1
_KUMMER_CASES = [
    (2.0, 3.0, 1.5, 2.8807506979280288),
    (0.5, 2.0, 10.0, 431.025901739522),
    (5.0, 1.5, 25.0, 342198989244525.77),
    (3.0, 7.0, 60.0, 2.7669006203867659e+21),
    (1.2, 0.3, 2.5, 97.251701360122015),
    (4.0, 4.0, 30.0, 10686474581524.462),
]

# (a, b, z, U(a, b, z)) from mpmath.hyperu
_TRICOMI_CASES = [
    (0.5, 0.25, 2.0, 0.57441792600091825),
    (0.3, -1.5, 0.7, 0.71654436253809354),
    (1.0, 1.0, 1.0, 0.59634736232319407),
    (2.5, -3.0, 5.0, 0.0027235309961051989),
    (5.0, 2.0, 0.5, 0.014608734091469879),
    (1.0, 0.5, 3.0, 0.23573615034618648),
    (12.0, -40.0, 0.8, 7.9822519654099122e-21),
    (3.0, -14.0, 0.102, 0.00023982378769032503),
    (17.0, 2.0, 40.0, 3.7912725225085937e-30),
]

# (a, b, z, log U(a, b, z)); U itself far outside double range
_LOG_TRICOMI_CASES = [
    (600.0, -126.0, 0.102, -3574.5494569281086),
    (2000.0, -500.0, 0.05, -14453.815513482495),
    (40.0, -80.0, 3.0, -185.59859276666445),
]

# (x, exp(x) E1(x)) from mpmath
_E1_SCALED_CASES = [
    (0.01, 4.0785114434564258),
    (0.3, 1.2225356050805856),
    (0.5, 0.92291063248373047),
    (1.0, 0.59634736232319407),
    (2.0, 0.36132861688822258),
    (10.0, 0.091563333939788082),
    (100.0, 0.0099019422867330184),
    (700.0, 0.0014265364183008867),
    (1e4, 9.999000199940024e-5),
]


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.mark.parametrize("s,x,p_ref,q_ref", _GAMMA_CASES)
def test_reg_gamma_against_reference(s, x, p_ref, q_ref):
    p = reg_gamma_lower(s, x)
    q = reg_gamma_upper(s, x)
    assert abs(p - p_ref) <= 5e-12 * max(p_ref, 1e-15) + 1e-16
    assert abs(q - q_ref) <= 5e-12 * max(q_ref, 1e-15) + 1e-16


def test_reg_gamma_complement_is_exact():
    # P and Q are produced as an exact complement pair
    for s in (0.5, 3.0, 64.0, 512.0, 3000.0):
        for x in (0.0, 0.5, 8.0, 512.0, 5000.0):
            assert reg_gamma_lower(s, x) + reg_gamma_upper(s, x) == 1.0


def test_reg_gamma_edges():
    assert reg_gamma_lower(4.0, 0.0) == 0.0
    assert reg_gamma_upper(4.0, 0.0) == 1.0
    assert reg_gamma_lower(4.0, math.inf) == 1.0
    assert reg_gamma_upper(4.0, math.inf) == 0.0
    for s, x in ((0.0, 1.0), (2.0, -1.0), (math.nan, 1.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            reg_gamma_lower(s, x)
        with pytest.raises(ValueError):
            reg_gamma_upper(s, x)


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0, 8.0, 16.0, 64.0, 512.0, 1024.0, 3000.0, 4096.0])
def test_reg_gamma_against_mpmath_grid(s):
    # the member computed directly (P below s + 1, Q above) must be
    # accurate even when it is tiny; its complement only needs to sum to 1
    with mpmath.workdps(40):
        for x in (1e-8, 0.5, 8.0, 100.0, 512.0, 1024.0, 5000.0, 1e4):
            if x < s + 1.0:
                got = reg_gamma_lower(s, x)
                want = mpmath.gammainc(s, 0, x, regularized=True)
            else:
                got = reg_gamma_upper(s, x)
                want = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
            if want < mpmath.mpf("1e-300"):
                continue
            err = abs(got - want) / want
            assert err <= 1e-11, (x, float(err))


@pytest.mark.parametrize("a,b,z,ref", _KUMMER_CASES)
def test_kummer_against_reference(a, b, z, ref):
    assert _rel(kummer_1f1(a, b, z), ref) <= 1e-12


def test_kummer_edges():
    assert kummer_1f1(3.0, 5.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        kummer_1f1(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        kummer_1f1(1.0, -3.0, 2.0)
    # loose control must still converge, just less precisely
    loose = kummer_1f1(2.0, 3.0, 1.5, SeriesControl(rel_tol=1e-4))
    assert _rel(loose, 2.8807506979280288) <= 1e-3


def test_kummer_raises_when_budget_too_small():
    with pytest.raises(ConvergenceError) as err:
        kummer_1f1(5.0, 1.5, 25.0, SeriesControl(rel_tol=1e-12, max_terms=5))
    assert err.value.partial is not None


@pytest.mark.parametrize("a,b,z,ref", _TRICOMI_CASES)
def test_tricomi_against_reference(a, b, z, ref):
    assert _rel(tricomi_u(a, b, z), ref) <= 1e-9


@pytest.mark.parametrize("a,b,z,ref", _LOG_TRICOMI_CASES)
def test_log_tricomi_against_reference(a, b, z, ref):
    assert abs(log_tricomi_u(a, b, z) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize(
    "a", [0.05, 0.3, 0.7, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0, 100.0, 600.0]
)
@pytest.mark.parametrize("b", [-510.0, -63.0, -30.0, -6.0, 0.0, 0.5, 1.0, 2.0, 30.0, 300.0])
def test_log_tricomi_against_mpmath_grid(a, b):
    # b = 2 - kL and the small z of the series miss route at high power,
    # 0 < a < 1, b > a + 1 and large z.
    # mpmath's hyperu takes seconds where a z is large, and at b = -510, z = 1e3
    zs = (1e-6, 1e-3, 0.0204, 0.3, 3.0, 10.0, 100.0, 1e3)
    with mpmath.workdps(40):
        for z in (z for z in zs if a * z <= 1e4 and (b, z) != (-510.0, 1e3)):
            want = mpmath.log(mpmath.hyperu(a, b, z))
            err = abs(mpmath.expm1(log_tricomi_u(a, b, z) - want))
            assert err <= 1e-10, (z, float(err))


@pytest.mark.parametrize(
    "a,b,z",
    [(1e-5, 0.5, 1.0), (1e-4, -30.0, 1e-3), (5e-4, -510.0, 0.0204),
     (1e-250, 0.5, 1.0), (1e-300, -30.0, 1e-3), (1e-308, 2.0, 1.0), (5e-324, 0.5, 100.0),
     (1e-12, 22.0, 1.0), (1e-10, 22.0, 1.0), (1e-60, 30.5, 0.1), (1e-300, 30.5, 0.1)],
)
def test_log_tricomi_raises_where_the_left_tail_outruns_the_walk(a, b, z):
    # the left tail, e^(a s) times a constant, is about 1/a long: past the
    # reach cap, or for a tiny a a share of U even where it lies far below
    # the peak. No model caller passes an a below 0.5 other than 0, so
    # these raise instead of returning a value; a RuntimeWarning is an error
    with pytest.raises(ConvergenceError, match="wider"):
        log_tricomi_u(a, b, z)


def test_tricomi_edges():
    # U(0, b, z) = 1: the defining series terminates immediately
    assert tricomi_u(0.0, -3.5, 2.0) == 1.0
    with pytest.raises(ValueError):
        tricomi_u(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(2.0, 0.5, 0.0)
    # a non-finite argument is named, not left to the arithmetic
    for args, name in (
        ((2.0, math.nan, 1.0), "b"),
        ((math.inf, 0.5, 1.0), "a"),
        ((2.0, -math.inf, 1.0), "b"),
        ((2.0, math.inf, 1.0), "b"),
        ((2.0, 0.5, math.inf), "z"),
        ((0.0, math.nan, 1.0), "b"),
    ):
        with pytest.raises(ValueError, match=f"finite {name},"):
            log_tricomi_u(*args)


def test_tricomi_raises_when_not_converged(monkeypatch):
    want = log_tricomi_u(5.0, 2.0, 0.5)
    monkeypatch.setattr(specfun, "_U_LEVEL_MAX", 1)
    with pytest.raises(ConvergenceError) as err:
        log_tricomi_u(5.0, 2.0, 0.5)
    assert math.isfinite(err.value.partial)
    assert abs(err.value.partial - want) <= 1e-3
    assert err.value.terms > 0
    # an integrand wider than the reach cap raises before building its grid
    monkeypatch.setattr(specfun, "_U_REACH_MAX", 4)
    with pytest.raises(ConvergenceError, match="wider"):
        log_tricomi_u(0.05, 0.5, 1.0)


def test_tricomi_power_identity():
    for a in (1.0, 2.0, 5.5):
        for z in (0.3, 1.0, 50.0):
            assert _rel(tricomi_u(a, a + 1.0, z), z ** -a) <= 1e-9


@pytest.mark.parametrize("x,ref", _E1_SCALED_CASES)
def test_exp_e1_scaled_against_reference(x, ref):
    assert _rel(exp_e1_scaled(x), ref) <= 1e-12


def test_exp_e1_scaled_against_mpmath_grid():
    # twelve decades either side of 1, and both sides of the switch to the
    # asymptotic sum at 700 and of exp overflow at 709.78; the benchmark
    # oracle reads the same scipy exp1, so mpmath is the independent check
    xs = [*np.geomspace(1e-12, 1e12, 200), *np.linspace(690.0, 710.0, 41)]
    with mpmath.workdps(40):
        for x in map(float, xs):
            want = mpmath.exp(x) * mpmath.e1(x)
            err = abs(exp_e1_scaled(x) - want) / want
            assert err <= 1e-14, (x, float(err))


def test_exp_e1_scaled_monotone_decreasing():
    xs = [0.01, 0.1, 0.5, 1.0, 1.0001, 5.0, 50.0, 1e4]
    vals = [exp_e1_scaled(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exp_e1_scaled_rejects_nonpositive():
    with pytest.raises(ValueError):
        exp_e1_scaled(0.0)
    with pytest.raises(ValueError):
        exp_e1_scaled(-2.0)


def test_import_leaves_scipy_integrate_out():
    # the U trapezoid needs no scipy.integrate, whose import would add a
    # third to every CLI start; only validate's rate check loads it. The
    # numpy layers (params, montecarlo, scheduler) and the CLI's schedule
    # and --help load no scipy at all; the first closed form loads
    # scipy.special
    src = str(Path(specfun.__file__).parents[1])
    code = f"""
import sys
sys.path.insert(0, {src!r})
import covertcomm
from covertcomm import GridConfig, RngSpec, SystemParams, run_episode, simulate_detector
from covertcomm import cli

for policy in covertcomm.POLICIES:
    run_episode(GridConfig(q=16, p=40), policy, RngSpec(0, 1))
simulate_detector(SystemParams(p_b=5000.0), 100, RngSpec(0, 0))
assert cli.main(["schedule", "--episodes", "1", "--set", "p=40"]) == 0
try:
    cli.main(["--help"])
except SystemExit as stop:
    assert stop.code == 0, stop.code
else:
    raise AssertionError("--help did not exit")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
covertcomm.dep(SystemParams())
assert "scipy.special" in sys.modules
assert "scipy.integrate" not in sys.modules
"""
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
    # a float term count is refused, even an integral one; a numpy int is a count
    for bad in (50.5, 10.0):
        with pytest.raises(ValueError, match="max_terms must be an integer"):
            SeriesControl(max_terms=bad)
    assert type(SeriesControl(max_terms=np.int64(7)).max_terms) is int
