"""The package's exports: the public names, where each is defined, and
the lazy access to the layers that load scipy."""

import importlib

import pytest

import covertcomm

# name -> defining submodule
_EXPORTS = {
    "BeliefState": "scheduler",
    "CapacityResult": "optimizer",
    "ConvergenceError": "specfun",
    "EpisodeStats": "scheduler",
    "EstimateWithError": "montecarlo",
    "GREEDY_BELIEF": "scheduler",
    "GridConfig": "scheduler",
    "InfeasibleError": "optimizer",
    "MonotonicityError": "optimizer",
    "OccupancyGrid": "scheduler",
    "OptimalPowerResult": "optimizer",
    "OverloadError": "scheduler",
    "POLICIES": "scheduler",
    "PowerBounds": "optimizer",
    "RANDOM_HOP": "scheduler",
    "RngSpec": "montecarlo",
    "SeriesControl": "specfun",
    "SystemParams": "params",
    "covert_rate": "analytic",
    "decide": "scheduler",
    "dep": "analytic",
    "detector_statistic_samples": "montecarlo",
    "false_alarm_prob": "analytic",
    "max_users": "optimizer",
    "miss_detection_conditional": "analytic",
    "miss_detection_prob": "analytic",
    "optimal_power": "optimizer",
    "power_from_snr_db": "params",
    "power_lower_bound": "optimizer",
    "power_upper_bound": "optimizer",
    "rtp": "analytic",
    "run_episode": "scheduler",
    "run_episode_trace": "scheduler",
    "sense": "scheduler",
    "simulate_detector": "montecarlo",
    "simulate_rate": "montecarlo",
    "simulate_rtp": "montecarlo",
    "snr_db_from_power": "params",
    "update_beliefs": "scheduler",
}


def test_all_lists_the_public_names():
    assert covertcomm.__all__ == list(_EXPORTS)
    assert len(covertcomm.__all__) == 39


@pytest.mark.parametrize("name", list(_EXPORTS))
def test_each_name_is_its_defining_modules_attribute(name):
    module = importlib.import_module(f"covertcomm.{_EXPORTS[name]}")
    assert getattr(covertcomm, name) is getattr(module, name)
    assert name in vars(covertcomm)  # cached after the first access


def test_star_import_binds_every_name():
    namespace = {}
    exec("from covertcomm import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(_EXPORTS)
    assert all(namespace[name] is getattr(covertcomm, name) for name in _EXPORTS)


def test_unknown_name_raises_attribute_error():
    message = "module 'covertcomm' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        covertcomm.no_such_name
    assert not hasattr(covertcomm, "no_such_name")
    with pytest.raises(ImportError):
        from covertcomm import no_such_name  # noqa: F401
