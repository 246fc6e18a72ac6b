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

from covertcomm import analytic, optimizer
from covertcomm.analytic import (
    covert_rate,
    dep,
    false_alarm_prob,
    miss_detection_conditional,
    miss_detection_prob,
    rtp,
)
from covertcomm.params import SystemParams, power_from_snr_db
from covertcomm.specfun import (
    ConvergenceError,
    SeriesControl,
    reg_gamma_lower,
    reg_gamma_upper,
)

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


# rho g / sigma0_sq from 1e9 to 5e15, where 1 - x keeps few of x's digits:
# (q, L, k, m, p_b, g, P_MD|g) against mpmath at 150 digits, from the
# convolution of the two Gamma energies
_COND_HIGH_POWER_CASES = [
    (8, 2, 2, 4, 1e16, 4.0, 1.24922665531122e-59),
    (16, 4, 1, 4, 1e14, 1.0, 6.28723329700529e-46),
    (8, 2, 2, 4, 1e10, 1.0, 3.19802018245747e-33),
]


@pytest.mark.parametrize("q,L,k,m,p_b,g,ref", _COND_HIGH_POWER_CASES)
def test_miss_detection_conditional_at_high_power(q, L, k, m, p_b, g, ref):
    got = miss_detection_conditional(SystemParams(q=q, L=L, k=k, m=m, p_b=p_b), g)
    # abs=0: approx would otherwise accept anything within 1e-12 of these
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_miss_detection_conditional_infinite_edges():
    # x = rho g / (rho g + sigma0_sq) rounds to 1 here
    assert miss_detection_conditional(_BASE.with_(p_b=1e19), 1.0) == 0.0
    # infinite received power: the warden never misses
    assert miss_detection_conditional(_SMALL, math.inf) == 0.0
    assert miss_detection_conditional(_SMALL.with_(p_b=math.inf), 1.0) == 0.0
    # one factor 0 and the other inf: no received power, not 0 * inf = nan
    noise_only = reg_gamma_lower(16, 32.0)
    assert miss_detection_conditional(_SMALL.with_(p_b=math.inf), 0.0) == noise_only
    assert miss_detection_conditional(_SMALL.with_(p_b=0.0), math.inf) == noise_only


@pytest.mark.parametrize("edge", [{"p_b": 0.0}, {"p_b": math.inf}, {"gamma_e": 0.0}])
def test_unknown_method_raises_at_domain_edges(edge):
    with pytest.raises(ValueError, match="unknown method"):
        miss_detection_prob(SystemParams(**edge), "bogus")


def test_rtp_at_infinite_decoding_threshold():
    # gamma_u = inf stays allowed, as p_b and gamma_e = inf do: no power decodes
    assert rtp(_BASE.with_(gamma_u=math.inf)) == 0.0


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


@pytest.mark.parametrize("p_b", [5e-324, 1e-315, 1e-310, 1e-300])
def test_miss_detection_at_tiny_power(p_b):
    # rho underflows or c = sigma0_sq / (rho omega_e) overflows: both routes
    # read ln c, and both stay at or below the p_b -> 0 limit P(qL, y)
    params = _BASE.with_(gamma_e=1.0, p_b=p_b)
    limit = miss_detection_prob(params.with_(p_b=0.0))
    series = miss_detection_prob(params, "series")
    quad = miss_detection_prob(params, "quadrature")
    for got in (series, quad):
        assert 0.0 <= got <= limit <= 1.0
    assert abs(series - quad) <= 1e-12
    assert abs(series - limit) <= 1e-12


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


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_covert_rate_rejects_non_finite_power(p):
    with pytest.raises(ValueError, match="power p must be finite"):
        covert_rate(_BASE, p)


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
    # both routes must return at every point, including q=8, L=2, 60 dB,
    # k in {1, 4}, where an earlier Tricomi U quadrature raised
    for snr in (30.0, 40.0, 47.0, 50.0, 60.0):
        params = SystemParams(q=q, L=L, k=k, p_b=power_from_snr_db(snr))
        series = miss_detection_prob(params, "series")
        quad = miss_detection_prob(params, "quadrature")
        assert abs(series - quad) <= 1e-8 * quad, (snr, series, quad)


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


def _cond_md_block_reference(s0, kl, y, level, block):
    # the kernel as it was before its exponents were built in place and
    # clamped: one broadcast expression, and exp of every exponent
    B = analytic._BLOCK
    coeffs = analytic._log_mixture_coeffs(s0, kl, y)
    z = np.arange(block * B, (block + 1) * B) * 2.0**-level
    log_1mx = -np.logaddexp(0.0, z)
    log_x = -np.logaddexp(0.0, -z)
    bound = kl * log_1mx[0] + np.arange(coeffs.size) * log_x[-1] + coeffs
    live = np.flatnonzero(bound > -745.0)
    h = np.zeros(B)
    if live.size:
        n = np.arange(live[0], live[-1] + 1)
        expo = kl * log_1mx[:, None] + log_x[:, None] * n + coeffs[n]
        h = np.exp(expo, out=expo).sum(axis=1)
    return h


@pytest.mark.parametrize("q", [8, 64])
@pytest.mark.parametrize("L", [2, 8])
def test_cond_md_block_matches_reference(q, L):
    # same exponents, so the same h bit for bit wherever it matters; the
    # kernel drops terms below e^-700, which can move only an h far below
    # the 1e-30 the table floor already gives away
    s0 = float(q * L)
    tiny = 0
    for gamma_e in (1.5, 2.0, 3.0):
        y = gamma_e * s0
        for k in sorted({1, 2, q // 2, q}):
            kl = float(k * L)
            for level in (4, 5, 6):
                for block in range(-36, 36):
                    got = analytic._cond_md_block.__wrapped__(s0, kl, y, level, block)
                    want = _cond_md_block_reference(s0, kl, y, level, block)
                    big = want >= 1e-280
                    assert np.array_equal(got[big], want[big]), (gamma_e, k, level, block)
                    assert np.all(np.abs(got - want) <= 1e-300), (gamma_e, k, level, block)
                    tiny += int(np.count_nonzero(got[~big] != want[~big]))
    # the grid reaches the entries the clamp drops
    assert tiny > 0


def test_false_alarm_cached_per_threshold(monkeypatch):
    calls = []

    def counting(s, x):
        calls.append((s, x))
        return reg_gamma_upper(s, x)

    analytic._false_alarm.cache_clear()
    # the cached helper looks reg_gamma_upper up at call time, so a wrapper
    # set on the module (perfbench's tracer) still sees every miss
    monkeypatch.setattr(analytic, "reg_gamma_upper", counting)
    params = SystemParams()
    optimizer.power_upper_bound(params, p_max=1e5)
    assert len(calls) == 1
    optimizer.power_upper_bound(params.with_(gamma_e=2.5), p_max=1e5)
    assert len(calls) == 2
    for p in (params, params.with_(gamma_e=2.5, p_b=3.0)):
        y = p.effective_threshold / p.sigma0_sq
        assert false_alarm_prob(p) == reg_gamma_upper(p.q * p.L, y)
    assert len(calls) == 2


@pytest.mark.parametrize("method", ["quadrature", "series"])
def test_infinite_power_is_the_limit(method):
    # the occupied slots' energy is infinite, so the warden never misses
    for params in (_BASE.with_(p_b=math.inf), _BASE.with_(k=64, p_b=math.inf, gamma_e=3.0)):
        assert miss_detection_prob(params, method) == 0.0
        assert dep(params, method) == false_alarm_prob(params)


def test_quadrature_converges_at_very_high_power():
    # md falls below the ~6e-19 of gain density outside the trapezoid
    # window here, so only the absolute part of the stop rule can be met
    deps = [dep(_BASE.with_(p_b=float(p))) for p in np.geomspace(1e15, 1e40, 80)]
    assert all(math.isfinite(d) for d in deps)
    assert all(b <= a for a, b in zip(deps, deps[1:]))
    for p_b in (1e18, 1e20):
        params = _BASE.with_(p_b=p_b)
        quad = miss_detection_prob(params)
        assert abs(quad - miss_detection_prob(params, "series")) <= 6e-19


def test_md_many_shares_nodes_bit_for_bit():
    grid = np.geomspace(1e-6, 1e5, 16)
    for k in (1, 64):
        params = _BASE.with_(k=k)
        # in order, reversed and with repeats: each value is the lone call's
        powers = [*grid, *grid[::-1], 0.0, math.inf, grid[3]]
        want = [miss_detection_prob(params.with_(p_b=float(p))) for p in powers]
        assert analytic._md_many(params, powers).tolist() == want


def test_md_many_slope_matches_finite_difference():
    # powers where md falls steeply, around the covertness crossing
    params = _BASE.with_(k=16)
    for p_b in (1e3, 3e3, 1e4):
        md, slope = analytic._md_many(params, [p_b], slope=True)
        h = 1e-4
        lo, hi = analytic._md_many(params, [p_b * math.exp(-h), p_b * math.exp(h)])
        assert md[0] == miss_detection_prob(params.with_(p_b=p_b))
        assert slope[0] < 0.0
        assert slope[0] == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6)
