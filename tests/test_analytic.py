"""Closed-form detector and link performance against frozen references.

Reference values were generated with mpmath at 40 digits directly from
the defining expressions: the false-alarm tail, the conditional
miss-detection series, its exponential-gain average, the reliable
transmission probability, and the scaled-E1 rate form.
"""

import math

import mpmath
import numpy as np
import pytest

from covertcomm import analytic
from covertcomm.analytic import (
    covert_rate,
    dep,
    false_alarm_prob,
    miss_detection_conditional,
    miss_detection_prob,
    rtp,
)
from covertcomm.params import SystemParams, power_from_snr_db
from covertcomm.specfun import ConvergenceError, SeriesControl, reg_gamma_lower

_BASE = SystemParams()  # m=4 k=4 q=64 L=8 unit noise, gamma_e=2

# q=8 k=2 L=2 m=2, unit noise, effective threshold 32: (p_b, g, P_MD|g)
_SMALL_COND_CASES = [
    (4.0, 1.3, 0.99734471810689381),
    (16.0, 0.25, 0.99804712529040749),
    (1.0, 3.0, 0.99850034251401206),
    (50.0, 0.04, 0.99885514882740542),
]

# same small instance, gain averaged over Exp(1): (p_b, P_MD)
_SMALL_AVG_CASES = [
    (0.5, 0.99923429126906034),
    (2.0, 0.99863962834854341),
    (8.0, 0.98643977091416998),
    (50.0, 0.72522811143158397),
]

# defaults at snr-mapped power: (k, snr_db, P_MD); false alarm is
# 1.03e-70 here so DEP and P_MD coincide to all shown digits
_DEFAULT_MD_CASES = [
    (4, 30.0, 0.99941402762147469),
    (4, 37.0, 0.80573295733497135),
    (4, 44.0, 0.28473658913969154),
    (8, 37.0, 0.804928522343085),
    (16, 37.0, 0.80449976254698811),
]

# defaults, k=4, snr 37 dB: (g, P_MD|g)
_DEFAULT_COND_CASES = [
    (0.5, 0.99999999999715616),
    (1.0, 0.99689683897590488),
    (2.0, 0.16648476213635816),
]

_SMALL = SystemParams(m=2, k=2, q=8, L=2, gamma_e=2.0)


def test_false_alarm_against_reference():
    got = false_alarm_prob(_BASE)
    assert got == pytest.approx(1.0306329691736318e-70, rel=1e-11)


def test_false_alarm_monotone_in_threshold():
    vals = [false_alarm_prob(_BASE.with_(gamma_e=g)) for g in (0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # threshold at zero: always triggered
    assert false_alarm_prob(_BASE.with_(gamma_e=0.0)) == 1.0


@pytest.mark.parametrize("p_b,g,ref", _SMALL_COND_CASES)
def test_miss_detection_conditional_small(p_b, g, ref):
    got = miss_detection_conditional(_SMALL.with_(p_b=p_b), g)
    assert got == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("g,ref", _DEFAULT_COND_CASES)
def test_miss_detection_conditional_defaults(g, ref):
    got = miss_detection_conditional(_BASE.with_(p_b=power_from_snr_db(37.0)), g)
    assert got == pytest.approx(ref, rel=1e-10)


def test_miss_detection_conditional_edges():
    # zero gain or zero power: the statistic is pure noise
    fa_complement = 1.0 - false_alarm_prob(_SMALL)
    assert miss_detection_conditional(_SMALL, 0.0) == pytest.approx(
        fa_complement, rel=1e-13
    )
    assert miss_detection_conditional(_SMALL.with_(p_b=0.0), 5.0) == pytest.approx(
        fa_complement, rel=1e-13
    )
    with pytest.raises(ValueError):
        miss_detection_conditional(_SMALL, -0.5)
    # zero threshold: detector always fires, never misses
    assert miss_detection_conditional(_SMALL.with_(gamma_e=0.0), 1.0) == 0.0


@pytest.mark.parametrize("p_b,ref", _SMALL_AVG_CASES)
@pytest.mark.parametrize("method", ["quadrature", "series"])
def test_miss_detection_avg_small(method, p_b, ref):
    got = miss_detection_prob(_SMALL.with_(p_b=p_b), method=method)
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("k,snr,ref", _DEFAULT_MD_CASES)
def test_miss_detection_avg_defaults(k, snr, ref):
    params = _BASE.with_(k=k, p_b=power_from_snr_db(snr))
    assert miss_detection_prob(params) == pytest.approx(ref, rel=1e-9)


def test_miss_detection_method_dispatch():
    with pytest.raises(ValueError):
        miss_detection_prob(_SMALL, method="exact")


def test_miss_detection_zero_power():
    # no signal anywhere: miss whenever the noise stays below threshold
    got = miss_detection_prob(_SMALL.with_(p_b=0.0))
    assert got == pytest.approx(1.0 - false_alarm_prob(_SMALL), rel=1e-13)


def test_dep_is_fa_plus_md():
    params = _BASE.with_(p_b=power_from_snr_db(37.0))
    assert dep(params) == pytest.approx(
        false_alarm_prob(params) + miss_detection_prob(params), rel=1e-12
    )
    assert dep(params) == pytest.approx(0.80573295733497135, rel=1e-9)


def test_dep_series_method_matches():
    params = _SMALL.with_(p_b=8.0)
    assert dep(params, method="series") == pytest.approx(
        dep(params, method="quadrature"), rel=1e-8
    )


def test_series_control_threading():
    # an absurdly loose budget must degrade the series result, proving
    # the control object actually reaches the inner loops
    tight = miss_detection_prob(_SMALL.with_(p_b=50.0), method="series")
    loose = miss_detection_prob(
        _SMALL.with_(p_b=50.0), method="series",
        ctl=SeriesControl(rel_tol=0.2, max_terms=10_000),
    )
    assert abs(loose - tight) > 1e-6


@pytest.mark.parametrize(
    "p_b,ref",
    [(1.0, 0.36787944117144232), (0.5, 0.13533528323661269), (4.0, 0.77880078307140487)],
)
def test_rtp_against_reference(p_b, ref):
    assert rtp(_BASE.with_(p_b=p_b)) == pytest.approx(ref, rel=1e-13)


def test_rtp_edges():
    assert rtp(_BASE.with_(gamma_u=0.0)) == 1.0
    assert rtp(_BASE.with_(p_b=0.0)) == 0.0


@pytest.mark.parametrize(
    "p,ref",
    [
        (1.0, 1.3314785926679746),
        (0.25, 0.52128700371590688),
        (10.0, 3.7429717995314557),
    ],
)
def test_covert_rate_against_reference(p, ref):
    assert covert_rate(_BASE, p) == pytest.approx(ref, rel=1e-12)


def test_covert_rate_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        covert_rate(_BASE, 0.0)


def test_covert_rate_monotone_in_power():
    rates = [covert_rate(_BASE, p) for p in (0.1, 1.0, 10.0, 100.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_dep_pinned_at_threshold_extremes():
    # zero threshold: the detector always fires, so every quiet moment
    # is a false alarm and nothing is ever missed
    assert dep(_SMALL.with_(gamma_e=0.0)) == 1.0
    # infinite threshold: never fires, so every transmission is missed
    assert dep(_SMALL.with_(gamma_e=math.inf)) == 1.0


def test_dep_trends_in_snr():
    ks = (4, 8, 16)
    snrs = [30.0 + i for i in range(15)]
    for k in ks:
        vals = [
            dep(_BASE.with_(k=k, p_b=power_from_snr_db(s))) for s in snrs
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), f"k={k}"


# (q, L, k, p_b, dep) at the other defaults, from an independent route:
# scipy.integrate.quad on 0.5-wide panels in ln g, with the mixture
# weights from scipy.stats.nbinom.pmf and P from scipy.special.gammainc
_SWEEP_PINNED = [
    (8, 2, 8, 1e4, 0.004278472933271104),
    (8, 8, 1, 1e6, 1.4855810826612634e-4),
    (64, 2, 64, 1e5, 0.020581019107359388),
    (64, 8, 32, 1e6, 0.008206000971933072),
]


@pytest.mark.parametrize("q", [8, 64])
@pytest.mark.parametrize("L", [2, 8])
def test_quadrature_domain_sweep(q, L):
    for k in (1, q // 2, q):
        base = SystemParams(q=q, L=L, k=k)
        p_top = reg_gamma_lower(q * L, base.effective_threshold / base.sigma0_sq)
        deps = []
        for p_b in np.geomspace(1e-6, 1e6, 13):
            params = base.with_(p_b=float(p_b))
            fa = false_alarm_prob(params)
            md = miss_detection_prob(params)
            assert math.isfinite(fa) and 0.0 <= fa <= 1.0, (k, p_b, fa)
            assert math.isfinite(md) and 0.0 <= md <= p_top, (k, p_b, md)
            deps.append(dep(params))
        # at low power md sits at P(qL, y) up to rounding, so allow a few ulps
        assert all(b <= a + 1e-15 for a, b in zip(deps, deps[1:])), (k, deps)


@pytest.mark.parametrize("q,L,k,p_b,ref", _SWEEP_PINNED)
def test_quadrature_domain_pinned(q, L, k, p_b, ref):
    assert dep(SystemParams(q=q, L=L, k=k, p_b=p_b)) == pytest.approx(ref, rel=1e-9)


def test_quadrature_raises_when_not_converged(monkeypatch):
    # kL = 512 at high power needs a finer grid than the first level
    params = _BASE.with_(k=64, p_b=1e6)
    want = miss_detection_prob(params)
    monkeypatch.setattr(analytic, "_LEVEL_MAX", analytic._LEVEL_START)
    with pytest.raises(ConvergenceError) as err:
        miss_detection_prob(params)
    assert err.value.partial == pytest.approx(want, rel=1e-3)
    assert err.value.terms > 0


@pytest.mark.parametrize("q,L,k", [
    (64, 8, 1), (64, 8, 32), (64, 8, 64), (8, 2, 1), (8, 2, 4), (8, 2, 8),
])
def test_series_matches_quadrature_over_domain(q, L, k):
    compared = 0
    for snr in (30.0, 40.0, 47.0, 50.0, 60.0):
        params = SystemParams(q=q, L=L, k=k, p_b=power_from_snr_db(snr))
        vals = []
        for method in ("series", "quadrature"):
            try:
                vals.append(miss_detection_prob(params, method))
            except ConvergenceError:
                pass  # a route that misses its tolerance must say so
        if len(vals) == 2:
            series, quad = vals
            assert abs(series - quad) <= 1e-8 * quad, (snr, series, quad)
            compared += 1
    # the series route raises at q=8, L=2, 60 dB for k in {1, 4}, where
    # the quadrature check inside its Tricomi U calls fires
    assert compared >= 4


def test_conditional_miss_reads_only_the_shapes_it_needs():
    # y = 5.12e6 would need millions of shapes before P(qL + n, y) falls,
    # but at g = 1 the certified sum stops after a few terms; the mixture
    # is 1 to double precision and this is its partial sum at rel_tol 1e-12
    params = SystemParams(gamma_e=1e4, p_b=1e4)
    assert abs(miss_detection_conditional(params, 1.0) - 0.999999999999028) <= 1e-13


def test_shape_table_cap_raises():
    # the gain average needs the whole table down to P = 1e-30: too long here
    with pytest.raises(ConvergenceError, match="gamma shape table"):
        dep(SystemParams(gamma_e=1e4, p_b=1e4))


@pytest.mark.parametrize("s0", [16.0, 512.0, 4096.0])
def test_shape_table_against_mpmath(s0):
    y = 2.0 * s0  # the default threshold, gamma_e = 2
    checked = 0
    with mpmath.workdps(40):
        for n in (0, 1, 7, 255, 256, 257, 600, 1000, 2049, 5000):
            want = mpmath.gammainc(s0 + n, 0, y, regularized=True)
            if want >= 1e-300:
                got = analytic._shape(s0, y, n)
                assert abs(got - want) <= 1e-11 * want, (n, got, want)
                checked += 1
    assert checked >= 4
