"""Power-range and user-capacity optimization under the twin constraints.

The covert user wants the largest transmit power whose detection error
probability still blinds the warden (dep >= 1 - eps_e) while keeping the
link reliable (rtp >= 1 - eps_u). Both constraints are monotone in
power: rtp rises with p, dep falls with p, so the feasible set is an
interval [p_low, p_up] and the rate-optimal choice sits at its top. The
user-capacity question then asks for the largest number of occupied
slots k for which that interval is non-empty.

p_up is the float that geometric bisection on dep returns, found with
far fewer dep evaluations. One call of the shared-node miss kernel
screens the whole power grid; Newton's method in ln p, which the kernel
also gives the slope for, locates the crossing p* inside the screen's
bracket. The bisection then walks its usual midpoints but decides each
one by its side of p*, and calls dep only for midpoints next to p* and
for the two ends it stops at. A solve that reaches the bisection makes
about 6 evaluations (one screen, three or four Newton steps, two dep
checks) where the plain solver made about 37 dep calls; one that the
screen settles makes 1 instead of 16.
"""

import math
from dataclasses import dataclass

import numpy as np

# rtp is never called here; perfbench's design workload traces optimizer.rtp by name
from .analytic import _DEP_ERR_ABS, _DEP_ERR_REL, _md_many, covert_rate, dep, false_alarm_prob, rtp
from .params import SystemParams
from .specfun import ConvergenceError

# Newton in ln p stops after a step this small; the next iterate is then
# within about its square of the crossing
_NEWTON_STEP_TOL = 1e-6
_NEWTON_MAX = 40
# the walk calls dep for midpoints within this distance of p* in ln p, or
# within the distance over which dep's own error (_DEP_ERR_REL relative,
# _DEP_ERR_ABS absolute) could flip a decision
_NEAR = 1e-8


class InfeasibleError(ValueError):
    """No power in the allowed range satisfies the constraint."""


class MonotonicityError(RuntimeError):
    """dep failed its expected monotone-in-power sanity screen.

    Raised before bisection rather than after, so a silently wrong
    bracket can never be reported as an optimum.
    """


@dataclass(frozen=True)
class PowerBounds:
    """Feasible power interval for one operating point.

    p_low comes from the reliability constraint in closed form; p_up is
    the covertness boundary found numerically. feasible is False when
    the interval is empty, in which case p_up may still hold the
    covertness boundary for diagnostic use.
    """

    p_low: float
    p_up: float
    feasible: bool


@dataclass(frozen=True)
class OptimalPowerResult:
    bounds: PowerBounds
    p_star: float | None
    rate_star: float | None


@dataclass(frozen=True)
class CapacityResult:
    """Largest feasible slot count and the per-k interval diagnostics."""

    k_star: int
    per_k: tuple[tuple[int, PowerBounds], ...]


def power_lower_bound(params: SystemParams, p_absolute_cap: float = 1e12) -> float:
    """Smallest power meeting rtp >= 1 - eps_u, in closed form.

    Inverting the exponential outage law gives
    p_low = -gamma_u k sigma0_sq / (m omega_u ln(1 - eps_u)).
    A zero decoding threshold or a vacuous reliability slack makes any
    positive power reliable; a bound beyond p_absolute_cap (eps_u very
    close to 0) is treated as infeasible rather than returned.
    """
    if params.gamma_u == 0.0 or params.eps_u == 1.0:
        return 0.0
    p_low = -(
        params.gamma_u * params.k * params.sigma0_sq
    ) / (params.m * params.omega_u * math.log1p(-params.eps_u))
    if p_low > p_absolute_cap:
        raise InfeasibleError(
            f"reliability needs p >= {p_low:.3g}, above the cap {p_absolute_cap:.3g}"
        )
    return p_low


def power_upper_bound(
    params: SystemParams,
    p_min: float = 1e-6,
    p_max: float = 1e3,
    tol: float = 1e-6,
    screen_points: int = 16,
) -> float:
    """Largest power in [p_min, p_max] keeping dep >= 1 - eps_e.

    dep is screened for monotone decrease on a log-spaced grid before
    bisecting (geometric midpoints, relative width tol). Returns p_max
    when even the full range stays covert; raises InfeasibleError when
    not even p_min does.

    The result is the float that plain bisection on dep gives, from
    about 6 evaluations instead of about 37: the screen is one kernel
    call, Newton finds the crossing in a few more, and the walk skips dep
    at every midpoint whose side of the crossing is clear. It checks the
    bracket it ends with, and if that check fails it bisects the
    screen's bracket again with dep at every midpoint.
    """
    if not (0.0 < p_min < p_max):
        raise ValueError(f"need 0 < p_min < p_max, got [{p_min}, {p_max}]")
    if not math.isfinite(p_max):
        raise ValueError(f"need a finite p_max, got {p_max}")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if screen_points < 2:
        # one point would return p_max without ever evaluating dep there
        raise ValueError(f"screen_points must be >= 2, got {screen_points}")
    target = 1.0 - params.eps_e

    grid = np.geomspace(p_min, p_max, screen_points)
    deps = false_alarm_prob(params) + _md_many(params, grid)
    slack = 1e-7
    if np.any(deps[1:] > deps[:-1] + slack):
        raise MonotonicityError(
            "dep is not non-increasing in power on the screening grid; "
            "bisection would be unsound for these parameters"
        )

    if deps[0] < target:
        raise InfeasibleError(
            f"dep({p_min}) = {deps[0]:.6g} already below {target}; "
            "no power in range is covert enough"
        )
    if deps[-1] >= target:
        return p_max

    # innermost screening bracket around the crossing
    hi_idx = int(np.argmax(deps < target))
    lo = float(grid[hi_idx - 1])
    hi = float(grid[hi_idx])
    guess = _crossing(params, target, lo, hi, float(deps[hi_idx - 1]), float(deps[hi_idx]))
    p_up = None if guess is None else _bisect(params, target, lo, hi, tol, guess)
    return _bisect(params, target, lo, hi, tol) if p_up is None else p_up


def _crossing(params, target, lo, hi, dep_lo, dep_hi):
    """(p*, margin): where dep crosses target in the bracket [lo, hi].

    Newton's method in u = ln p starts from the bracket's log-linear
    interpolation. Each iterate shrinks the bracket to its side, and a
    step that would leave the bracket is replaced by the bracket's
    midpoint. margin is how far from p*, in ln p, a midpoint must lie
    for its side of p* to decide it. None when Newton does not settle.
    """
    fa = false_alarm_prob(params)
    a, b = math.log(lo), math.log(hi)
    u = a + (dep_lo - target) / (dep_lo - dep_hi) * (b - a)
    for _ in range(_NEWTON_MAX):
        try:
            md, slope = _md_many(params, [math.exp(u)], slope=True)
        except ConvergenceError:
            return None  # the plain walk then raises where bisection on dep would
        g = fa + float(md[0]) - target
        s = float(slope[0])
        if g >= 0.0:
            a = u
        else:
            b = u
        step = g / s if s < 0.0 else math.inf
        if not a <= u - step <= b:
            u = 0.5 * (a + b)
        elif abs(step) <= _NEWTON_STEP_TOL:
            err = _DEP_ERR_REL * target + _DEP_ERR_ABS
            return math.exp(u - step), max(_NEAR, err / -s)
        else:
            u -= step
    return None


def _bisect(params, target, lo, hi, tol, guess=None):
    """Geometric bisection of [lo, hi], dep(lo) >= target > dep(hi), to hi / lo - 1 <= tol.

    With guess = (p*, margin), a midpoint more than margin from p* in
    ln p counts as covert when it lies below p*, without a dep call; the
    ends decided that way are checked with dep when the walk stops, and
    None comes back if either check fails.
    """
    lo_exact = hi_exact = True
    while hi / lo - 1.0 > tol:
        mid = math.sqrt(lo * hi)
        exact = guess is None or abs(math.log(mid / guess[0])) <= guess[1]
        covert = (dep(params.with_(p_b=mid)) >= target) if exact else mid < guess[0]
        if covert:
            lo, lo_exact = mid, exact
        else:
            hi, hi_exact = mid, exact
    if not lo_exact and not dep(params.with_(p_b=lo)) >= target:
        return None
    if not hi_exact and dep(params.with_(p_b=hi)) >= target:
        return None
    return lo


def optimal_power(
    params: SystemParams,
    p_min: float = 1e-6,
    p_max: float = 1e3,
    tol: float = 1e-6,
) -> OptimalPowerResult:
    """Rate-optimal covert power: the top of the feasible interval.

    The ergodic rate is strictly increasing in power, so whenever
    [max(p_low, p_min), p_up] is non-empty the optimum is p_up itself.
    """
    try:
        p_low = power_lower_bound(params)
    except InfeasibleError:
        bounds = PowerBounds(p_low=math.inf, p_up=math.nan, feasible=False)
        return OptimalPowerResult(bounds=bounds, p_star=None, rate_star=None)
    try:
        p_up = power_upper_bound(params, p_min, p_max, tol)
    except InfeasibleError:
        bounds = PowerBounds(p_low=p_low, p_up=math.nan, feasible=False)
        return OptimalPowerResult(bounds=bounds, p_star=None, rate_star=None)
    feasible = p_up >= p_low and p_up >= p_min
    bounds = PowerBounds(p_low=p_low, p_up=p_up, feasible=feasible)
    if not feasible:
        return OptimalPowerResult(bounds=bounds, p_star=None, rate_star=None)
    return OptimalPowerResult(
        bounds=bounds, p_star=p_up, rate_star=covert_rate(params, p_up)
    )


def max_users(
    params: SystemParams,
    p_min: float = 1e-6,
    p_max: float = 1e3,
    tol: float = 1e-6,
) -> CapacityResult:
    """Largest slot count k whose feasible power interval is non-empty.

    Scans every k from 1 to q rather than assuming the feasibility
    frontier is contiguous; k_star is 0 when no k works. The k field of
    the passed params is ignored.
    """
    per_k = []
    k_star = 0
    for k in range(1, params.q + 1):
        pk = params.with_(k=k)
        result = optimal_power(pk, p_min, p_max, tol)
        per_k.append((k, result.bounds))
        if result.bounds.feasible:
            k_star = k
    return CapacityResult(k_star=k_star, per_k=tuple(per_k))
