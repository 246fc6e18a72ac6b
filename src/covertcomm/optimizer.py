"""Power-range and user-capacity optimization under the twin constraints.

The covert user wants the largest transmit power whose detection error
probability still blinds the warden (dep >= 1 - eps_e) while keeping the
link reliable (rtp >= 1 - eps_u). Both constraints are monotone in
power: rtp rises with p, dep falls with p, so the feasible set is an
interval [p_low, p_up] and the rate-optimal choice sits at its top. The
user-capacity question then asks for the largest number of occupied
slots k for which that interval is non-empty.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import covert_rate, dep, rtp
from .params import SystemParams


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
    """
    if not (0.0 < p_min < p_max):
        raise ValueError(f"need 0 < p_min < p_max, got [{p_min}, {p_max}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if screen_points < 2:
        # one point would return p_max without ever evaluating dep there
        raise ValueError(f"screen_points must be >= 2, got {screen_points}")
    target = 1.0 - params.eps_e

    grid = np.geomspace(p_min, p_max, screen_points)
    deps = [dep(params.with_(p_b=float(p))) for p in grid]
    slack = 1e-7
    for a, b in zip(deps, deps[1:]):
        if b > a + slack:
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
    hi_idx = next(i for i, d in enumerate(deps) if d < target)
    lo = float(grid[hi_idx - 1])
    hi = float(grid[hi_idx])
    while hi / lo - 1.0 > tol:
        mid = math.sqrt(lo * hi)
        if dep(params.with_(p_b=mid)) >= target:
            lo = mid
        else:
            hi = mid
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
