"""Covert multi-user communication performance model.

Closed-form detection error and reliable transmission probabilities for
a slot-hopping covert link under a wideband energy detector, Monte
Carlo oracles for every closed form, feasible-power and user-capacity
solvers, and a desk-scale dynamic spectrum-occupation scheduler.
"""

import importlib

from .montecarlo import (
    EstimateWithError,
    RngSpec,
    detector_statistic_samples,
    simulate_detector,
    simulate_rate,
    simulate_rtp,
)
from .params import SystemParams, power_from_snr_db, snr_db_from_power
from .scheduler import (
    GREEDY_BELIEF,
    POLICIES,
    RANDOM_HOP,
    BeliefState,
    EpisodeStats,
    GridConfig,
    OccupancyGrid,
    OverloadError,
    decide,
    run_episode,
    run_episode_trace,
    sense,
    update_beliefs,
)

__version__ = "0.1.0"

# The names of __all__ that the imports above leave unbound live in the
# submodules that load scipy.special. Each is imported on first access
# (PEP 562), so a process that uses only params, montecarlo and scheduler
# starts without scipy. analytic imports specfun and optimizer imports both,
# so a name loads no submodule its defining one does not.
def __getattr__(name):
    if name in __all__:
        for sub in ("specfun", "analytic", "optimizer"):
            namespace = vars(importlib.import_module(f"{__name__}.{sub}"))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BeliefState",
    "CapacityResult",
    "ConvergenceError",
    "EpisodeStats",
    "EstimateWithError",
    "GREEDY_BELIEF",
    "GridConfig",
    "InfeasibleError",
    "MonotonicityError",
    "OccupancyGrid",
    "OptimalPowerResult",
    "OverloadError",
    "POLICIES",
    "PowerBounds",
    "RANDOM_HOP",
    "RngSpec",
    "SeriesControl",
    "SystemParams",
    "covert_rate",
    "decide",
    "dep",
    "detector_statistic_samples",
    "false_alarm_prob",
    "max_users",
    "miss_detection_conditional",
    "miss_detection_prob",
    "optimal_power",
    "power_from_snr_db",
    "power_lower_bound",
    "power_upper_bound",
    "rtp",
    "run_episode",
    "run_episode_trace",
    "sense",
    "simulate_detector",
    "simulate_rate",
    "simulate_rtp",
    "snr_db_from_power",
    "update_beliefs",
]
