"""Config parsing: defaults, strict keys, canonical round trips."""

import json

import pytest

from collapsim.cli import main
from collapsim.config import (
    SCENARIOS,
    ConfigError,
    parse_config,
    parse_config_data,
)
from collapsim.integrator import OBSERVABLES


def test_scenario_required_and_known():
    with pytest.raises(ConfigError) as err:
        parse_config_data({})
    assert err.value.path == "scenario"
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "warp_drive"})
    assert err.value.path == "scenario"
    assert "warp_drive" in str(err.value)


def test_defaults_fill_every_section():
    cfg = parse_config_data({"scenario": "grid_scattering"})
    assert cfg.data["numerics"]["dt"] == 0.003
    assert cfg.data["physics"]["masses"] == [1.0, 1.5]
    assert cfg.data["physics"]["potential"]["form"] == "gaussian_well"
    assert cfg.data["output"]["directory"] == "out"
    assert cfg.n_traj == 1 and cfg.master_seed == 0


def test_user_values_override_defaults():
    cfg = parse_config_data({"scenario": "grid_scattering",
                             "numerics": {"dt": 0.001},
                             "ensemble": {"n_traj": 7}})
    assert cfg.data["numerics"]["dt"] == 0.001
    assert cfg.data["numerics"]["n_steps"] == 200   # untouched default
    assert cfg.n_traj == 7


def test_unknown_key_names_exact_path():
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "grid_scattering",
                           "physics": {"potentail": {"form": "gaussian_well"}}})
    assert err.value.path == "physics.potentail"
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "eraser", "eraser": {"epsilon": 0.1}})
    assert err.value.path == "eraser.epsilon"
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "thermal", "termal": {}})
    assert err.value.path == "termal"


def test_section_must_be_object_when_defaults_are():
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "walk_scan", "walk": 3})
    assert err.value.path == "walk"
    assert "object" in str(err.value)


def test_stencil_stability_rejection_names_dt():
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "grid_scattering",
                           "numerics": {"scheme": "crank_nicolson_stencil",
                                        "dt": 0.05}})
    assert err.value.path == "numerics.dt"
    assert "stability" in str(err.value)
    # spectral scheme has no such bound
    parse_config_data({"scenario": "grid_scattering",
                       "numerics": {"scheme": "split_step_spectral",
                                    "dt": 0.05}})


def test_conservation_suite_dt_checked_on_refined_grids():
    # the suite steps with the stencil scheme on grids twice as fine as
    # configured: 0.005 is stable at 64 points per axis but not at 128
    cases = [
        ({"numerics": {"dt": 0.005}}, "numerics.dt"),
        ({"angular": {"dt": 0.05}}, "angular.dt"),
    ]
    for data, path in cases:
        with pytest.raises(ConfigError) as err:
            parse_config_data(dict(data, scenario="conservation_suite"))
        assert err.value.path == path
        assert "stability" in str(err.value)
    parse_config_data({"scenario": "conservation_suite",
                       "numerics": {"dt": 0.0039}})


def test_grid_validation_paths():
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "free_packet",
                           "grid": {"points_per_axis": 24}})
    assert err.value.path == "grid"
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "free_packet",
                           "grid": {"extent": -2.0}})
    assert err.value.path == "grid.extent"
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "grid_scattering",
                           "initial": {"centers": [0.0]}})
    assert err.value.path == "initial.centers"
    for data, path in (({"points_per_axis": 12}, "angular"),
                       ({"spectral": {"points_per_axis": 12}},
                        "angular.spectral")):
        with pytest.raises(ConfigError) as err:
            parse_config_data({"scenario": "conservation_suite",
                               "angular": data})
        assert err.value.path == path


def test_value_range_paths():
    cases = [
        ({"scenario": "eraser", "eraser": {"epsilons": [0.1, 0.6]}},
         "eraser.epsilons"),
        ({"scenario": "walk_scan", "walk": {"weights": [0.5, 1.2]}},
         "walk.weights"),
        # inside (0, 1) but below the default barrier s^2 / 4 at s = 0.05
        ({"scenario": "walk_scan", "walk": {"weights": [0.0001, 0.5]}},
         "walk.weights"),
        ({"scenario": "walk_scan",
          "walk": {"barrier": 0.2, "weights": [0.5, 0.85]}}, "walk.weights"),
        # a line through fewer than two distinct weights has no slope
        ({"scenario": "walk_scan", "walk": {"weights": [0.5]}}, "walk.weights"),
        ({"scenario": "walk_scan", "walk": {"weights": [0.5, 0.5]}},
         "walk.weights"),
        ({"scenario": "thermal", "thermal": {"mass": -1.0}}, "thermal.mass"),
        ({"scenario": "two_level_collapse", "levels": {"weight_in": 1.0}},
         "levels.weight_in"),
        ({"scenario": "free_packet", "ensemble": {"n_traj": 0}},
         "ensemble.n_traj"),
        ({"scenario": "free_packet", "numerics": {"absorb_threshold": 0.7}},
         "numerics.absorb_threshold"),
        ({"scenario": "free_packet", "output": {"formats": ["yaml"]}},
         "output.formats"),
        # observables the run could not build must fail here, not in run
        ({"scenario": "grid_scattering",
          "numerics": {"record_observables": ["bogus"]}},
         "numerics.record_observables"),
        ({"scenario": "grid_scattering",
          "numerics": {"record_observables": ["momentum_y"]}},
         "numerics.record_observables"),
        ({"scenario": "grid_scattering",
          "numerics": {"record_observables": ["angular_momentum"]}},
         "numerics.record_observables"),
        ({"scenario": "two_level_collapse",
          "numerics": {"record_observables": ["momentum"]}},
         "numerics.record_observables"),
        ({"scenario": "free_packet", "numerics": {"scheme": ["stencil"]}},
         "numerics.scheme"),
        # a config that validates must also construct
        ({"scenario": "eraser", "eraser": {"epsilons": [0.1]}},
         "eraser.epsilons"),
        ({"scenario": "eraser", "eraser": {"epsilons": [0.1, 0.1]}},
         "eraser.epsilons"),
        ({"scenario": "grid_scattering",
          "physics": {"potential": {"depth": 0.0}}}, "physics.potential.depth"),
        ({"scenario": "grid_scattering", "physics": {"charges": [0.0, 1.0]}},
         "physics.charges"),
        ({"scenario": "two_level_collapse", "levels": {"labels": ["a", "a"]}},
         "levels.labels"),
        ({"scenario": "conservation_suite",
          "angular": {"spectral": {"depth": 0.0}}}, "angular.spectral.depth"),
        ({"scenario": "two_level_collapse", "physics": {"kappa": -1.0}},
         "physics.kappa"),
        # range checks the library makes keep the config path
        ({"scenario": "two_level_collapse", "levels": {"gamma": 0.0}},
         "levels.gamma"),
        ({"scenario": "two_level_collapse",
          "levels": {"energy_denominator": -2.0}}, "levels.energy_denominator"),
        # every scenario runs on its own backend only
        ({"scenario": "grid_scattering", "backend": "finite"}, "backend"),
        # a packet centred off its box has no density on the grid
        ({"scenario": "free_packet", "initial": {"centers": [1e9]}},
         "initial.centers"),
        ({"scenario": "grid_scattering", "initial": {"centers": [-0.8, 8.0]}},
         "initial.centers"),
        ({"scenario": "conservation_suite", "initial": {"centers": [-1e9, 0.8]}},
         "initial.centers"),
        ({"scenario": "conservation_suite", "angular": {"separation": 1e9}},
         "angular.separation"),
        ({"scenario": "conservation_suite", "angular": {"impact_offset": 1e9}},
         "angular.impact_offset"),
        ({"scenario": "conservation_suite", "angular": {"impact_offset": -4.5}},
         "angular.impact_offset"),
        ({"scenario": "conservation_suite",
          "angular": {"spectral": {"separation": 1e9}}},
         "angular.spectral.separation"),
    ]
    for data, path in cases:
        with pytest.raises(ConfigError) as err:
            parse_config_data(data)
        assert err.value.path == path, path


def test_null_is_accepted_only_where_the_run_reads_it():
    thermal = parse_config_data({"scenario": "thermal",
                                 "thermal": {"collision_rate": None}})
    assert thermal.thermal_input().rate == pytest.approx(500.0 / 3.4e-9)
    walk = parse_config_data({"scenario": "walk_scan", "walk": {"barrier": None}})
    assert walk.walk_config().barrier is None
    for data, path in (({"scenario": "thermal", "thermal": {"mass": None}},
                        "thermal.mass"),
                       ({"scenario": "walk_scan", "walk": {"step_scale": None}},
                        "walk.step_scale")):
        with pytest.raises(ConfigError) as err:
            parse_config_data(data)
        assert err.value.path == path


def test_planar_grid_accepts_every_observable():
    cfg = parse_config_data({
        "scenario": "grid_scattering",
        "grid": {"dims": 2, "points_per_axis": 16, "extent": 4.5},
        "initial": {"centers": [-0.7, -0.35, 0.7, 0.35], "widths": [1.0] * 4,
                    "momenta": [0.6, 0.0, -0.6, 0.0]},
        "numerics": {"record_observables": list(OBSERVABLES)}})
    assert cfg.integrator_config().record_observables == OBSERVABLES


def test_potential_form_switch_replaces_subtree():
    cfg = parse_config_data({"scenario": "grid_scattering",
                             "physics": {"potential": {"form": "soft_coulomb"}}})
    pot = cfg.data["physics"]["potential"]
    assert pot == {"form": "soft_coulomb", "strength": 1.0, "softening": 0.5}
    # parameters of the other form are unknown keys after the switch
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "grid_scattering",
                           "physics": {"potential": {"form": "soft_coulomb",
                                                     "depth": -1.0}}})
    assert err.value.path == "physics.potential.depth"
    with pytest.raises(ConfigError) as err:
        parse_config_data({"scenario": "grid_scattering",
                           "physics": {"potential": {"form": "morse"}}})
    assert err.value.path == "physics.potential.form"


def test_round_trip_is_identity_for_all_scenarios():
    overrides = {
        "grid_scattering": {"physics": {"kappa": 2.5}},
        "eraser": {"eraser": {"epsilons": [0.03, 0.07]}},
        "walk_scan": {"walk": {"step_scale": 0.2}},
        "two_level_collapse": {"levels": {"weight_in": 0.41}},
    }
    for scenario in SCENARIOS:
        data = {"scenario": scenario}
        data.update(overrides.get(scenario, {}))
        cfg = parse_config_data(data)
        again = parse_config_data(json.loads(cfg.serialize()))
        assert again == cfg
        assert again.content_hash() == cfg.content_hash()


def test_content_hash_tracks_values_not_key_order():
    a = parse_config_data({"scenario": "walk_scan",
                           "ensemble": {"n_traj": 50, "master_seed": 1}})
    b = parse_config_data({"ensemble": {"master_seed": 1, "n_traj": 50},
                           "scenario": "walk_scan"})
    assert a.content_hash() == b.content_hash()
    c = parse_config_data({"scenario": "walk_scan",
                           "ensemble": {"n_traj": 51, "master_seed": 1}})
    assert c.content_hash() != a.content_hash()


def test_with_overrides_revalidates():
    cfg = parse_config_data({"scenario": "walk_scan"})
    out = cfg.with_overrides(master_seed=9, n_traj=123, directory="elsewhere")
    assert out.master_seed == 9
    assert out.n_traj == 123
    assert out.out_directory == "elsewhere"
    assert cfg.master_seed == 0   # original untouched
    with pytest.raises(ConfigError) as err:
        cfg.with_overrides(n_traj=-3)
    assert err.value.path == "ensemble.n_traj"


def test_grid_builders():
    cfg = parse_config_data({"scenario": "grid_scattering"})
    basis = cfg.grid_basis()
    assert basis.shape == (64, 64)
    assert [p.mass for p in basis.particles] == [1.0, 1.5]
    state = cfg.initial_state(basis)
    from collapsim.state import norm
    assert norm(state) == pytest.approx(1.0, rel=1e-12)
    icfg = cfg.integrator_config()
    assert icfg.dt == 0.003 and icfg.kappa == 1.0
    assert icfg.c == pytest.approx(28.284271247461902)


def test_charges_scale_pair_coupling():
    cfg = parse_config_data({"scenario": "grid_scattering",
                             "physics": {"charges": [2.0, 3.0]}})
    pair = cfg.pairs()[0]
    assert pair.potential.strength == pytest.approx(-12.0)
    coulomb = parse_config_data({
        "scenario": "grid_scattering",
        "physics": {"charges": [2.0, -1.0],
                    "potential": {"form": "soft_coulomb", "strength": 0.5}}})
    assert coulomb.pairs()[0].potential.strength == pytest.approx(-1.0)


def test_finite_system_builder():
    cfg = parse_config_data({"scenario": "two_level_collapse",
                             "levels": {"weight_in": 0.36}})
    system, state = cfg.finite_system()
    assert tuple(system.basis.labels) == ("in", "out")
    assert state.basis == system.basis
    assert abs(state.amplitudes[0]) ** 2 == pytest.approx(0.36)
    assert system.diagonal == (1.0, 0.0)
    assert system.gamma == 4.0
    assert system.energy_denominator == 2.0


def test_scenario_specific_builders():
    walk = parse_config_data({"scenario": "walk_scan"}).walk_config()
    assert walk.step_scale == 0.05 and walk.mode == "binary"
    thermal = parse_config_data({"scenario": "thermal"}).thermal_input()
    assert thermal.temperature == 300.0
    assert thermal.rate == 1e10


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(str(tmp_path / "missing.json"))
    assert "not found" in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        parse_config(str(bad))
    assert "invalid JSON" in str(err.value)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenario": "thermal"}))
    assert parse_config(str(good)).scenario == "thermal"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_numbers_rejected_with_path(value):
    cases = [
        ({"scenario": "free_packet", "initial": {"momenta": [value]}},
         "initial.momenta"),
        ({"scenario": "grid_scattering",
          "physics": {"potential": {"depth": value}}},
         "physics.potential.depth"),
        ({"scenario": "two_level_collapse", "levels": {"gamma": value}},
         "levels.gamma"),
        ({"scenario": "free_packet", "numerics": {"dt": value}},
         "numerics.dt"),
    ]
    for data, path in cases:
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config_data(data)
        assert err.value.path == path, path


def test_nonfinite_tokens_in_config_file_exit_2(tmp_path, capsys):
    # json.dumps writes the NaN and Infinity tokens json.load accepts
    nan_path = tmp_path / "nan.json"
    nan_path.write_text(json.dumps({"scenario": "free_packet",
                                    "initial": {"momenta": [float("nan")]}}))
    assert "NaN" in nan_path.read_text()
    assert main(["validate", str(nan_path)]) == 2
    assert "initial.momenta" in capsys.readouterr().err

    inf_path = tmp_path / "inf.json"
    inf_path.write_text(json.dumps({
        "scenario": "grid_scattering",
        "physics": {"potential": {"depth": float("inf")}},
        "output": {"directory": str(tmp_path / "art")}}))
    assert "Infinity" in inf_path.read_text()
    assert main(["run", str(inf_path)]) == 2
    assert "physics.potential.depth" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()
