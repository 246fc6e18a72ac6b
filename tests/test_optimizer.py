"""Power feasibility bounds and the user-capacity scan."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covertcomm import analytic, optimizer
from covertcomm.analytic import covert_rate, dep, false_alarm_prob, rtp
from covertcomm.optimizer import (
    InfeasibleError,
    MonotonicityError,
    OptimalPowerResult,
    PowerBounds,
    max_users,
    optimal_power,
    power_lower_bound,
    power_upper_bound,
)
from covertcomm.params import SystemParams, power_from_snr_db
from covertcomm.specfun import ConvergenceError

_BASE = SystemParams()  # eps_e = eps_u = 0.1
_SMALL = SystemParams(m=2, k=2, q=8, L=2, gamma_e=2.0)

# closed form gamma_u k sigma2 / (m omega_u (-ln(1 - eps_u))), defaults
_P_LOW_CASES = [
    (2, 4.7456107905149515),
    (4, 9.491221581029903),
    (16, 37.964886324119612),
]


@pytest.mark.parametrize("k,ref", _P_LOW_CASES)
def test_power_lower_bound_reference(k, ref):
    assert power_lower_bound(_BASE.with_(k=k)) == pytest.approx(ref, rel=1e-13)


def test_power_lower_bound_round_trip():
    p_low = power_lower_bound(_BASE)
    assert rtp(_BASE.with_(p_b=p_low)) == pytest.approx(1.0 - _BASE.eps_u, abs=1e-14)


def test_power_lower_bound_edges():
    assert power_lower_bound(_BASE.with_(gamma_u=0.0)) == 0.0
    assert power_lower_bound(_BASE.with_(eps_u=1.0)) == 0.0
    # the closed form at any size: the caller's budget decides feasibility
    assert power_lower_bound(_BASE.with_(eps_u=1e-13)) == 9999999999999.5
    assert power_lower_bound(_BASE.with_(gamma_u=math.inf)) == math.inf


def test_solvers_past_the_float_range():
    # p_low's denominator underflows to 0: the quotient comes from logs
    assert power_lower_bound(_BASE.with_(omega_u=1e-320, eps_u=1e-10)) == math.inf
    assert power_lower_bound(_BASE.with_(gamma_u=0.0, omega_u=1e-320, eps_u=1e-10)) == 0.0
    # the miss routes' ln c overflows: the warden sees no power, so p_max is covert
    result = optimal_power(_BASE.with_(omega_e=1e-320))
    assert result.bounds.p_up == 1e3 and result.bounds.feasible
    assert result.p_star == 1e3


def test_power_upper_bound_hits_dep_target():
    p_up = power_upper_bound(_BASE, p_max=1e5, tol=1e-7)
    assert abs(dep(_BASE.with_(p_b=p_up)) - 0.9) <= 1e-4
    # returned bound is the conservative (covert) side of the bracket
    assert dep(_BASE.with_(p_b=p_up)) >= 0.9


def test_power_upper_bound_monotone_in_k():
    ups = [power_upper_bound(_BASE.with_(k=k), p_max=1e5) for k in (2, 4, 8)]
    assert all(a <= b + 1e-9 for a, b in zip(ups, ups[1:]))


def test_power_upper_bound_clips_at_p_max():
    # with the whole search range still covert the raw cap comes back
    assert power_upper_bound(_BASE, p_max=100.0) == 100.0


def test_power_upper_bound_infeasible_at_p_min():
    with pytest.raises(InfeasibleError):
        power_upper_bound(_BASE, p_min=1e4, p_max=1e5)


def test_power_upper_bound_rejects_nonpositive_tol():
    for tol in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="tol must be > 0"):
            power_upper_bound(_BASE, p_max=1e5, tol=tol)


def test_optimal_power_feasible():
    res = optimal_power(_BASE, p_max=1e5)
    assert res.bounds.feasible
    assert res.p_star == res.bounds.p_up
    assert res.bounds.p_low == pytest.approx(9.491221581029903, rel=1e-13)
    assert res.rate_star == pytest.approx(
        covert_rate(_BASE, res.p_star), rel=1e-13
    )
    # more transmit power is always better for rate, so the optimum sits
    # at the covertness ceiling
    assert res.rate_star > covert_rate(_BASE, res.bounds.p_low)


def test_optimal_power_infeasible_window():
    # reliability floor above the covertness ceiling: both bounds exist
    # but the window is empty
    params = _BASE.with_(eps_u=1e-4)
    res = optimal_power(params, p_max=1e5)
    assert not res.bounds.feasible
    assert res.bounds.p_low == power_lower_bound(params)
    assert res.bounds.p_up == power_upper_bound(params, p_max=1e5)
    assert res.bounds.p_low > res.bounds.p_up
    assert res.p_star is None and res.rate_star is None


def test_optimal_power_reliability_unreachable():
    # p_low far above the budget: the covertness bound is still found
    params = _BASE.with_(eps_u=1e-13)
    res = optimal_power(params, p_max=1e5)
    assert not res.bounds.feasible
    assert res.bounds.p_low == 9999999999999.5
    assert res.bounds.p_up == power_upper_bound(params, p_max=1e5)
    assert res.p_star is None and res.rate_star is None
    # a p_min above the covertness ceiling: p_low is found, p_up is not
    res = optimal_power(_BASE, p_min=1e4, p_max=1e5)
    assert not res.bounds.feasible
    assert res.bounds.p_low == power_lower_bound(_BASE)
    assert math.isnan(res.bounds.p_up)
    assert res.p_star is None and res.rate_star is None


def test_optimal_power_reliability_above_1e12():
    # a reliability floor of 1e13 under a 1e30 budget: the window is open
    params = SystemParams(eps_e=1.0, eps_u=1e-13)
    res = optimal_power(params, p_max=1e30)
    assert res.bounds.p_low == power_lower_bound(params) == 9999999999999.5
    assert res.bounds.p_up == 1e30
    assert res.bounds.feasible and res.p_star == 1e30


def test_max_users_reliability_above_1e12():
    # every k needs at most 4e13 for reliability, under a 140 dB budget
    params = SystemParams(q=8, L=2, m=2, eps_e=1.0, eps_u=1e-13)
    res = max_users(params, p_max=power_from_snr_db(140.0))
    assert res.k_star == 8
    assert all(b.feasible for _, b in res.per_k)


def test_rate_star_grows_with_budget_and_slack():
    base = optimal_power(_BASE, p_max=1e5).rate_star
    # a budget below the covertness ceiling clips the window
    assert optimal_power(_BASE, p_max=100.0).rate_star < base
    # budgets above the ceiling agree up to bisection tolerance
    near = optimal_power(_BASE, p_max=1e4).rate_star
    assert near == pytest.approx(base, rel=1e-6)
    # loosening the covertness requirement raises the power ceiling
    assert optimal_power(_BASE.with_(eps_e=0.2), p_max=1e5).rate_star >= base


def test_feasible_midpoints_satisfy_both_constraints():
    res = max_users(_SMALL, p_max=10.0)
    checked = 0
    for k, b in res.per_k:
        if not b.feasible:
            continue
        params = _SMALL.with_(k=k)
        mid = 0.5 * (b.p_low + b.p_up)
        assert rtp(params.with_(p_b=mid)) >= 1.0 - params.eps_u - 1e-12
        assert dep(params.with_(p_b=mid)) >= 1.0 - params.eps_e - 1e-12
        checked += 1
    assert checked == res.k_star


def test_max_users_matches_per_k_table():
    res = max_users(_SMALL, p_max=10.0)
    feasible = [k for k, b in res.per_k if b.feasible]
    assert res.k_star == (max(feasible) if feasible else 0)
    # feasibility region over k is a prefix: once the per-user power
    # budget cannot satisfy both constraints, more users never help
    ks = [k for k, _ in res.per_k]
    assert ks == list(range(1, _SMALL.q + 1))
    flags = [b.feasible for _, b in res.per_k]
    assert flags == sorted(flags, reverse=True)


def test_max_users_reads_k_star_off_the_per_k_table(monkeypatch):
    def solver(feasible):
        def solve(params, p_min, p_max, tol):
            bounds = PowerBounds(1.0, 2.0, params.k in feasible)
            return OptimalPowerResult(bounds, None, None)

        return solve

    monkeypatch.setattr(optimizer, "optimal_power", solver({2, 5}))
    res = max_users(_SMALL)
    assert res.k_star == 5
    assert [k for k, _ in res.per_k] == list(range(1, _SMALL.q + 1))
    assert [k for k, b in res.per_k if b.feasible] == [2, 5]
    monkeypatch.setattr(optimizer, "optimal_power", solver(set()))
    assert max_users(_SMALL).k_star == 0


def test_max_users_vacuous_constraints_fill_the_band():
    res = max_users(_SMALL.with_(eps_e=1.0, eps_u=1.0), p_max=10.0)
    assert res.k_star == _SMALL.q


def test_max_users_grows_with_power_budget():
    lo = max_users(_SMALL, p_max=10.0)
    hi = max_users(_SMALL, p_max=31.6)
    assert lo.k_star <= hi.k_star
    assert lo.k_star == 2 and hi.k_star == 4


def test_max_users_scans_large_k_at_high_budget():
    # dep stays finite for every k up to q = 64 at this budget, so the
    # monotonicity screen passes and every k has a covertness boundary
    res = max_users(_BASE, p_max=1e5)
    assert len(res.per_k) == _BASE.q
    ups = [b.p_up for _, b in res.per_k]
    assert all(math.isfinite(p) for p in ups)
    assert all(a <= b for a, b in zip(ups, ups[1:]))
    assert res.k_star == max(k for k, b in res.per_k if b.feasible)


def _plain_upper_bound(params, p_min=1e-6, p_max=1e3, tol=1e-6, screen_points=16):
    # reference: plain bisection, with dep at every screen point in order
    # and at every midpoint
    target = 1.0 - params.eps_e
    grid = np.geomspace(p_min, p_max, screen_points)
    deps = [dep(params.with_(p_b=float(p))) for p in grid]
    if any(b > a + 1e-7 for a, b in zip(deps, deps[1:])):
        raise MonotonicityError("not monotone")
    if deps[0] < target:
        raise InfeasibleError("infeasible")
    if deps[-1] >= target:
        return p_max
    hi_idx = next(i for i, d in enumerate(deps) if d < target)
    lo, hi = float(grid[hi_idx - 1]), float(grid[hi_idx])
    while hi / lo - 1.0 > tol:
        mid = math.sqrt(lo * hi)
        if dep(params.with_(p_b=mid)) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (InfeasibleError, MonotonicityError, ConvergenceError) as err:
        return type(err).__name__


@pytest.mark.parametrize("p_max", [math.inf, math.nan])
def test_power_upper_bound_rejects_non_finite_range(p_max):
    with pytest.raises(ValueError, match="p_max"):
        power_upper_bound(_BASE, p_max=p_max)
    with pytest.raises(ValueError, match="p_min"):
        power_upper_bound(_BASE, p_min=math.inf, p_max=1e5)


def test_screen_monotonicity_error_from_kernel(monkeypatch):
    monkeypatch.setattr(
        optimizer, "_md_many", lambda params, p_b, slope=False: np.linspace(0.0, 0.5, len(p_b))
    )
    with pytest.raises(MonotonicityError):
        power_upper_bound(_BASE, p_max=1e5)


def _count_dep_calls(monkeypatch):
    calls = []

    def counted(params, *args, **kwargs):
        calls.append(params.p_b)
        return dep(params, *args, **kwargs)

    monkeypatch.setattr(optimizer, "dep", counted)
    return calls


def test_screen_decides_infeasible_and_p_max_alone(monkeypatch):
    calls = _count_dep_calls(monkeypatch)
    with pytest.raises(InfeasibleError, match="already below"):
        power_upper_bound(_BASE, p_min=1e4, p_max=1e5)
    assert power_upper_bound(_BASE, p_max=100.0) == 100.0
    assert calls == []


def test_walk_checks_only_its_ends(monkeypatch):
    calls = _count_dep_calls(monkeypatch)
    p_up = power_upper_bound(_BASE, p_max=1e5)
    assert p_up == _plain_upper_bound(_BASE, p_max=1e5)
    assert 1 <= len(calls) <= 3


def test_walk_falls_back_when_the_crossing_is_off(monkeypatch):
    crossing = optimizer._crossing
    walks = []
    bisect = optimizer._bisect

    def off(*args):
        p_star, margin = crossing(*args)
        return p_star * shift, margin

    def recorded(*args):
        walks.append(args[5] if len(args) > 5 else None)
        return bisect(*args)

    monkeypatch.setattr(optimizer, "_crossing", off)
    monkeypatch.setattr(optimizer, "_bisect", recorded)
    # a crossing placed high fails the check at the walk's lo end, one
    # placed low the check at its hi end
    for shift in (1.0 + 1e-3, 1.0 - 1e-3):
        for k in (1, 4, 64):
            walks.clear()
            params = _BASE.with_(k=k)
            want = _plain_upper_bound(params, p_max=1e5)
            assert power_upper_bound(params, p_max=1e5) == want
            # the steered walk ends on the wrong side, so the plain walk reruns
            assert len(walks) == 2 and walks[0] is not None and walks[1] is None


def test_walk_falls_back_when_newton_fails(monkeypatch):
    md_many = optimizer._md_many

    def no_slope(params, p_b, slope=False):
        if slope:
            raise ConvergenceError("slope not converged")
        return md_many(params, p_b)

    want = _plain_upper_bound(_BASE, p_max=1e5)
    # the slope's average raises inside Newton's method
    monkeypatch.setattr(optimizer, "_md_many", no_slope)
    assert power_upper_bound(_BASE, p_max=1e5) == want
    monkeypatch.undo()
    # Newton's method never settles
    monkeypatch.setattr(optimizer, "_NEWTON_MAX", 0)
    assert power_upper_bound(_BASE, p_max=1e5) == want


def test_screen_convergence_error_names_first_failing_power(monkeypatch):
    # with only the first trapezoid level allowed, the higher powers fail
    monkeypatch.setattr(analytic, "_LEVEL_MAX", analytic._LEVEL_START)
    params = _BASE.with_(k=64)
    with pytest.raises(ConvergenceError) as want:
        _plain_upper_bound(params, p_max=1e6)
    with pytest.raises(ConvergenceError) as got:
        power_upper_bound(params, p_max=1e6)
    assert str(got.value) == str(want.value)
    assert got.value.partial == want.value.partial
    assert got.value.terms == want.value.terms


@st.composite
def _operating_points(draw, wide=False):
    # wide adds eps_u down to 1e-15, eps_e up to 1 and budgets up to 1e30
    q = draw(st.sampled_from([2, 4, 8, 16, 64]))
    L = draw(st.sampled_from([1, 2, 4, 8]))
    g = draw(st.floats(1.2, 3.0))
    raw = draw(st.booleans())
    params = SystemParams(
        q=q,
        L=L,
        k=draw(st.integers(1, q)),
        m=draw(st.integers(1, 4)),
        gamma_e=g * q * L if raw else g,
        threshold_mode="raw" if raw else "per_sample_normalized",
        eps_e=draw(st.floats(1e-3, 1.0 if wide else 0.5)),
        eps_u=10.0 ** draw(st.floats(-15.0, math.log10(0.5))) if wide else 0.1,
    )
    p_min = 10.0 ** draw(st.integers(-6, 0))
    p_max = 10.0 ** draw(st.integers(1, 30 if wide else 6))
    return params, p_min, p_max


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operating_points(), st.lists(st.floats(-6.0, 8.0), min_size=1, max_size=6))
def test_walk_matches_plain_bisection(point, log_powers):
    params, p_min, p_max = point
    assert _outcome(power_upper_bound, params, p_min, p_max) == _outcome(
        _plain_upper_bound, params, p_min, p_max
    )
    powers = [10.0**e for e in log_powers]
    fa = false_alarm_prob(params)
    got = (fa + optimizer._md_many(params, powers)).tolist()
    assert got == [dep(params.with_(p_b=p)) for p in powers]


def _reliable(params, p, slack):
    # rtp >= 1 - eps_u compared in the exponent: at eps_u near 1e-15,
    # 1 - rtp cancels
    need = params.k * params.gamma_u * params.sigma0_sq / (params.m * p * params.omega_u)
    return need <= -math.log1p(-params.eps_u) * (1.0 + slack)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_operating_points(wide=True))
@example((SystemParams(eps_e=1.0, eps_u=1e-13), 1e-6, 1e30))
def test_feasibility_agrees_with_both_constraints(point):
    params, p_min, p_max = point
    res = _outcome(optimal_power, params, p_min, p_max)
    if isinstance(res, str):
        return  # the screen refused the range; no window to judge
    p_up = res.bounds.p_up
    target = 1.0 - params.eps_e
    if _reliable(params, p_max, -1e-12) and dep(params.with_(p_b=p_max)) >= target:
        assert res.bounds.feasible and p_up == p_max
    if res.bounds.feasible:
        assert _reliable(params, res.p_star, 1e-12)
        assert dep(params.with_(p_b=res.p_star)) >= target
    elif math.isfinite(p_up):
        assert not _reliable(params, p_up, -1e-12)
