"""Special-function kernels against high-precision reference values.

Reference numbers were generated once with mpmath at 40 significant
digits and frozen here; tolerances reflect the double-precision
algorithms, not the references.
"""

import math

import mpmath
import pytest

from covertcomm.specfun import (
    ConvergenceError,
    SeriesControl,
    exp_e1_scaled,
    exp_integral_e1,
    kummer_1f1,
    log_pochhammer,
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
    with pytest.raises(ValueError):
        reg_gamma_lower(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_lower(2.0, -1.0)


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


@pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 3.0, 5.0, 8.0, 20.0])
@pytest.mark.parametrize("b", [-510.0, -63.0, -30.0, -6.0, 0.0, 0.5, 2.0])
def test_log_tricomi_against_mpmath_grid(a, b):
    # b = 2 - kL and the small z of the series miss route at high power
    with mpmath.workdps(40):
        for z in (1e-3, 0.0204, 0.3, 3.0, 10.0):
            want = mpmath.log(mpmath.hyperu(a, b, z))
            err = abs(mpmath.expm1(log_tricomi_u(a, b, z) - want))
            assert err <= 1e-10, (z, float(err))


def test_tricomi_edges():
    # U(0, b, z) = 1: the defining series terminates immediately
    assert tricomi_u(0.0, -3.5, 2.0) == 1.0
    with pytest.raises(ValueError):
        tricomi_u(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        tricomi_u(2.0, 0.5, 0.0)


def test_tricomi_power_identity():
    for a in (1.0, 2.0, 5.5):
        for z in (0.3, 1.0, 50.0):
            assert _rel(tricomi_u(a, a + 1.0, z), z ** -a) <= 1e-9


@pytest.mark.parametrize("x,ref", _E1_SCALED_CASES)
def test_exp_e1_scaled_against_reference(x, ref):
    assert _rel(exp_e1_scaled(x), ref) <= 1e-12


def test_exp_e1_scaled_monotone_decreasing():
    xs = [0.01, 0.1, 0.5, 1.0, 1.0001, 5.0, 50.0, 1e4]
    vals = [exp_e1_scaled(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_exp_e1_scaled_rejects_nonpositive():
    with pytest.raises(ValueError):
        exp_e1_scaled(0.0)
    with pytest.raises(ValueError):
        exp_e1_scaled(-2.0)


def test_exp_integral_e1():
    assert _rel(exp_integral_e1(0.3), 0.90567665167584674) <= 1e-12
    assert _rel(exp_integral_e1(1.0), 0.21938393439552027) <= 1e-12
    assert _rel(exp_integral_e1(5.0), 0.0011482955912753258) <= 1e-12
    # survives where E1 alone sits deep in the denormal range
    assert exp_integral_e1(700.0) == pytest.approx(
        math.exp(-700.0) * 0.0014265364183008867, rel=1e-9
    )


def test_log_pochhammer():
    # (3)_4 = 3*4*5*6 = 360
    assert math.exp(log_pochhammer(3.0, 4)) == pytest.approx(360.0, rel=1e-12)
    assert log_pochhammer(7.5, 0) == 0.0


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
