"""Eraser correlation statistics and the thermal-rate arithmetic."""

import json

import pytest

from collapsim.config import parse_config_data
from collapsim.constants import C_LIGHT, K_BOLTZMANN, SECONDS_PER_YEAR
from collapsim.experiments import (
    BRANCH_AMPLITUDE,
    EraserConfig,
    ThermalInput,
    _statistics,
    eraser_run,
    eraser_sweep,
    kick_cross_probability,
    thermal_estimate,
)


# ---------------------------------------------------------------------------
# Configuration


def test_config_rejects_out_of_range_kick():
    with pytest.raises(ValueError, match="epsilon"):
        EraserConfig(epsilon=-0.01)
    with pytest.raises(ValueError, match="epsilon"):
        EraserConfig(epsilon=0.5)


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        EraserConfig(epsilon=0.1, mode="both")


# ---------------------------------------------------------------------------
# Kick mode


def test_zero_kick_has_no_cross_terms():
    result = eraser_run(EraserConfig(epsilon=0.0, n_traj=64), seed=1)
    assert result.cross_term_probability == 0.0
    assert _statistics(BRANCH_AMPLITUDE, BRANCH_AMPLITUDE) == 0.0


def test_kick_matches_closed_form():
    eps = 0.1
    result = eraser_run(EraserConfig(epsilon=eps, n_traj=500), seed=3)
    assert result.cross_term_probability == pytest.approx(
        kick_cross_probability(eps), rel=1e-12)
    # to leading order the cross probability is the squared kick
    assert result.cross_term_probability == pytest.approx(eps ** 2, rel=1.5e-2)


def test_statistics_even_in_kick_sign():
    # flipping the kick's sign swaps the II and OO amplitudes, so kick
    # mode evaluates one sign for every trajectory
    alpha = BRANCH_AMPLITUDE * (1.0 + 0.08)
    beta = BRANCH_AMPLITUDE * (1.0 - 0.08)
    assert _statistics(alpha, beta) == _statistics(beta, alpha)


def test_kick_run_is_seed_deterministic():
    cfg = EraserConfig(epsilon=0.07, n_traj=200)
    a = eraser_run(cfg, seed=9)
    b = eraser_run(cfg, seed=9)
    assert a == b


def test_sweep_fits_quadratic_power_law():
    sweep = eraser_sweep([0.02, 0.05, 0.1], n_traj=1000, seed=0)
    assert sweep.slope == pytest.approx(2.0, abs=0.1)
    probs = [r.cross_term_probability for r in sweep.results]
    assert probs == sorted(probs)


def test_sweep_rows_carry_confidence_bounds():
    sweep = eraser_sweep([0.03, 0.06], n_traj=100, seed=2)
    rows = sweep.rows()
    assert [r["epsilon"] for r in rows] == [0.03, 0.06]
    for row in rows:
        assert row["ci_low"] <= row["cross_prob"] <= row["ci_high"]


def test_sweep_input_validation():
    for epsilons in ([0.05], [0.05, 0.05]):
        with pytest.raises(ValueError, match="two"):
            eraser_sweep(epsilons)
    with pytest.raises(ValueError, match="positive"):
        eraser_sweep([0.05, 0.0])


# ---------------------------------------------------------------------------
# Resolved stochastic mode


def test_sde_mode_reproduces_squared_kick_scale():
    # integrated unit-variance noise times the 2 eps branch split gives
    # mean cross probability ~ eps^2 (measured ratio 1.06 at this seed)
    cfg = EraserConfig(epsilon=0.05, n_traj=200, mode="sde",
                       n_steps=200, dt=0.01)
    result = eraser_run(cfg, seed=11)
    ratio = result.cross_term_probability / 0.05 ** 2
    assert 0.5 < ratio < 1.7
    assert result.cross_sem > 0.0


def test_sde_mode_zero_kick_is_exactly_linear():
    cfg = EraserConfig(epsilon=0.0, n_traj=16, mode="sde", n_steps=50, dt=0.01)
    result = eraser_run(cfg, seed=4)
    assert result.cross_term_probability == 0.0


# ---------------------------------------------------------------------------
# Thermal rates

# the thermal scenario's defaults: air at standard conditions
AIR = parse_config_data({"scenario": "thermal"}).thermal_input()


def test_air_preset_magnitudes():
    est = thermal_estimate(AIR)
    expected_ratio = K_BOLTZMANN * 300.0 / (4.8e-26 * C_LIGHT ** 2)
    assert est.energy_ratio == pytest.approx(expected_ratio, rel=1e-12)
    assert 3e-13 < est.energy_ratio < 3e-12
    assert 3e-15 < est.fractional_rate < 3e-14
    assert 0.015 < est.joules_per_year < 0.06
    assert est.thermal_energy == pytest.approx(
        2.5e25 * K_BOLTZMANN * 300.0, rel=1e-12)


def test_zero_temperature_rate_vanishes():
    cold = ThermalInput(temperature=0.0, mass=1e-26, mean_speed=1.0,
                        mean_separation=1e-9, particle_count=1e20)
    est = thermal_estimate(cold)
    assert est.fractional_rate == 0.0
    assert est.joules_per_year == 0.0


def test_rate_linear_in_collisions():
    base = thermal_estimate(ThermalInput(temperature=300.0, mass=4.8e-26,
                                         mean_speed=500.0, mean_separation=3.4e-9,
                                         particle_count=1e25, collision_rate=1e10))
    double = thermal_estimate(ThermalInput(temperature=300.0, mass=4.8e-26,
                                           mean_speed=500.0, mean_separation=3.4e-9,
                                           particle_count=1e25, collision_rate=2e10))
    assert double.fractional_rate == 2.0 * base.fractional_rate


def test_rate_quadratic_in_interaction_energy():
    kw = dict(mass=4.8e-26, mean_speed=500.0, mean_separation=3.4e-9,
              particle_count=1e25, collision_rate=1e10)
    warm = thermal_estimate(ThermalInput(temperature=300.0, **kw))
    hot = thermal_estimate(ThermalInput(temperature=600.0, **kw))
    assert hot.fractional_rate == 4.0 * warm.fractional_rate


def test_collision_rate_derived_from_speed_over_separation():
    inp = ThermalInput(temperature=300.0, mass=4.8e-26, mean_speed=500.0,
                       mean_separation=3.4e-9, particle_count=1e25)
    assert inp.rate == pytest.approx(500.0 / 3.4e-9, rel=1e-15)


def test_thermal_input_validation():
    with pytest.raises(ValueError, match="temperature"):
        ThermalInput(temperature=-1.0, mass=1e-26, mean_speed=1.0,
                     mean_separation=1e-9, particle_count=1.0)
    with pytest.raises(ValueError, match="mass"):
        ThermalInput(temperature=1.0, mass=0.0, mean_speed=1.0,
                     mean_separation=1e-9, particle_count=1.0)
    with pytest.raises(ValueError, match="collision_rate"):
        ThermalInput(temperature=1.0, mass=1e-26, mean_speed=1.0,
                     mean_separation=1e-9, particle_count=1.0,
                     collision_rate=0.0)


def test_estimate_serializes_with_year_scale():
    est = thermal_estimate(AIR)
    d = est.to_dict()
    json.dumps(d)
    assert d["joules_per_year"] == pytest.approx(
        est.fractional_rate * est.thermal_energy * SECONDS_PER_YEAR, rel=1e-15)
