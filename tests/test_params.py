"""System parameter container: validation, derived values, SNR mapping."""

import math

import numpy as np
import pytest

from covertcomm.params import (
    SystemParams,
    power_from_snr_db,
    snr_db_from_power,
)


def test_defaults_are_consistent():
    p = SystemParams()
    assert p.m == 4 and p.k == 4 and p.q == 64 and p.L == 8
    assert p.rho == pytest.approx(p.m * p.p_b / (p.q * p.k * p.L), rel=1e-15)


def test_effective_threshold_modes():
    p = SystemParams(gamma_e=2.0, q=64, L=8, sigma0_sq=1.0)
    assert p.effective_threshold == pytest.approx(2.0 * 64 * 8, rel=1e-15)
    scaled = p.with_(sigma0_sq=3.0)
    assert scaled.effective_threshold == pytest.approx(2.0 * 64 * 8 * 3.0, rel=1e-15)
    raw = p.with_(threshold_mode="raw", gamma_e=700.0)
    assert raw.effective_threshold == 700.0


def test_with_replaces_and_revalidates():
    p = SystemParams()
    q2 = p.with_(k=8, p_b=2.5)
    assert q2.k == 8 and q2.p_b == 2.5
    assert p.k == 4  # original untouched
    with pytest.raises(ValueError):
        p.with_(k=p.q + 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 0},
        {"q": 0},
        {"L": 0},
        {"k": 0},
        {"k": 65},
        {"p_b": -1.0},
        {"sigma0_sq": 0.0},
        {"omega_e": 0.0},
        {"omega_u": -2.0},
        {"gamma_e": -0.5},
        {"gamma_u": -1.0},
        {"eps_e": 0.0},
        {"eps_e": 1.5},
        {"eps_u": -0.1},
        {"threshold_mode": "weird"},
    ],
)
def test_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


@pytest.mark.parametrize("name", ["sigma0_sq", "omega_e", "omega_u"])
def test_rejects_infinite_noise_floor_and_fading_means(name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SystemParams(**{name: math.inf})


@pytest.mark.parametrize(
    "kwargs",
    [{"k": 2.5}, {"k": 2.0}, {"q": 8.5, "k": 2}, {"L": 8.0}, {"m": 1.5}, {"k": "4"}],
)
def test_rejects_non_integral_counts(kwargs):
    # the closed forms would run on these: dep(SystemParams(k=2.5, p_b=10))
    # returned 1.0
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SystemParams(**kwargs)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SystemParams().with_(**kwargs)


def test_accepts_numpy_integer_counts():
    p = SystemParams(m=np.int32(2), k=np.int64(3), q=np.uint16(16), L=np.int8(4))
    assert p == SystemParams(m=2, k=3, q=16, L=4)
    assert all(type(v) is int for v in (p.m, p.k, p.q, p.L))


def test_admits_boundary_values():
    # eps = 1 encodes a vacuous constraint, p_b = 0 the signal-free limit
    p = SystemParams(eps_e=1.0, eps_u=1.0, p_b=0.0, gamma_u=0.0)
    assert p.rho == 0.0


def test_snr_mapping_round_trip():
    for snr in (-10.0, 0.0, 18.5, 44.0):
        p_b = power_from_snr_db(snr, sigma0_sq=1.0)
        assert snr_db_from_power(p_b, sigma0_sq=1.0) == pytest.approx(snr, abs=1e-12)
    assert power_from_snr_db(30.0, sigma0_sq=2.0) == pytest.approx(2000.0, rel=1e-12)
    assert power_from_snr_db(0.0, sigma0_sq=1.0) == 1.0


def test_snr_mapping_past_the_float_range_is_inf():
    # 10 ** 308.3 is the largest power of ten a float holds
    assert power_from_snr_db(3080.0) == 10.0**308
    assert power_from_snr_db(4000.0) == math.inf
    assert power_from_snr_db(4000.0, sigma0_sq=1e-300) == math.inf
    assert power_from_snr_db(-4000.0) == 0.0
    # SystemParams admits p_b = inf as a domain edge
    assert SystemParams(p_b=power_from_snr_db(4000.0)).p_b == math.inf


def test_snr_of_zero_power_rejected():
    with pytest.raises(ValueError):
        snr_db_from_power(0.0, sigma0_sq=1.0)


def test_frozen():
    p = SystemParams()
    with pytest.raises(Exception):
        p.k = 5


def test_k_defaults_to_independent_field():
    p = SystemParams(k=16)
    assert p.k == 16 and p.q == 64
    assert p.rho == pytest.approx(4 * 1.0 / (64 * 16 * 8), rel=1e-15)
