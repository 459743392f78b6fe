"""Config parsing: defaults, strict keys, canonical round trips."""

import copy
import json

import pytest

from collapsim import cli
from collapsim.cli import main
from collapsim.config import (
    SCENARIOS,
    ConfigError,
    _catalog,
    _deep_merge,
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
    # counts written as floats reach the integrator as ints
    icfg = parse_config_data({"scenario": "two_level_collapse",
                              "numerics": {"n_steps": 600.0, "record_every": 5.0}}
                             ).integrator_config()
    assert type(icfg.n_steps) is int and type(icfg.record_every) is int


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


@pytest.mark.parametrize("data, path", [
    ({"scenario": "free_packet", "physics": {"charges": [1.0]}}, "physics.charges"),
    ({"scenario": "two_level_collapse", "levels": {"labels": ["in", "out"]}},
     "levels.labels"),
    ({"scenario": "eraser", "eraser": {"sign": "plus"}}, "eraser.sign"),
    # every run renormalizes, uses complex noise, absorbs exactly when it
    # has a threshold, and takes its pair strength from the potential
    ({"scenario": "grid_scattering", "numerics": {"renormalize": True}},
     "numerics.renormalize"),
    ({"scenario": "two_level_collapse", "numerics": {"real_noise": False}},
     "numerics.real_noise"),
    ({"scenario": "two_level_collapse", "numerics": {"stop_on_absorb": True}},
     "numerics.stop_on_absorb"),
    ({"scenario": "grid_scattering", "physics": {"charges": [1.0, 1.0]}},
     "physics.charges"),
], ids=["free_packet", "two_level_collapse", "eraser", "renormalize", "real_noise",
        "stop_on_absorb", "charges"])
def test_key_no_run_reads_exits_2(tmp_path, capsys, data, path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["validate", str(config)]) == 2
    assert "%s: unknown key" % path in capsys.readouterr().err


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
        ({"scenario": "two_level_collapse", "numerics": {"absorb_threshold": 0.7}},
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
        ({"scenario": "grid_scattering",
          "physics": {"potential": {"form": "soft_coulomb", "strength": 0.0}}},
         "physics.potential.strength"),
        ({"scenario": "two_level_collapse", "levels": {"diagonal": [1.0, 0.0, 0.0]}},
         "levels.diagonal"),
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
        # no run steps a 3-D grid
        ({"scenario": "grid_scattering", "grid": {"dims": 3}}, "grid.dims"),
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
        again = parse_config_data(json.loads(json.dumps(cfg.data, sort_keys=True)))
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
    # the hash names the physics and numerics, not where artifacts go
    moved = a.with_overrides(directory="elsewhere")
    assert moved.content_hash() == a.content_hash()
    assert moved.data != a.data


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


# A small run of every scenario; the sweep below changes one catalog leaf
# at a time from it and compares the runner's artifact body.
_SMALL_RUNS = {
    "free_packet": {"grid": {"points_per_axis": 32},
                    "numerics": {"n_steps": 4, "record_every": 2}},
    "grid_scattering": {"grid": {"points_per_axis": 16},
                        "numerics": {"n_steps": 4, "record_every": 2}},
    "two_level_collapse": {"ensemble": {"n_traj": 2}},
    "conservation_suite": {"grid": {"points_per_axis": 8}, "numerics": {"n_steps": 1},
                           "angular": {"points_per_axis": 8, "n_steps": 1,
                                       "spectral": {"points_per_axis": 8}}},
    "eraser": {"eraser": {"n_steps": 10}, "ensemble": {"n_traj": 2}},
    "walk_scan": {"walk": {"step_scale": 0.5, "weights": [0.3, 0.7]},
                  "ensemble": {"n_traj": 20}},
    "thermal": {},
}

# Leaves that act only when another key is set, each with that setting;
# the sweep changes them from the small run plus the setting.
_CONDITIONAL = {
    # only the resolved (sde) runs step in time
    ("eraser", "eraser.n_steps"): {"eraser": {"mode": "sde"}},
    ("eraser", "eraser.dt"): {"eraser": {"mode": "sde"}},
    # the cap stops only walkers still walking when it is reached
    ("walk_scan", "walk.max_steps"): {"walk": {"max_steps": 10}},
    # the speed-over-separation estimate stands in for a null collision rate
    ("thermal", "thermal.mean_speed"): {"thermal": {"collision_rate": None}},
    ("thermal", "thermal.mean_separation"): {"thermal": {"collision_rate": None}},
}

# changes of the leaves whose values the rule in _another cannot derive
_OTHER_VALUES = {
    "numerics.scheme": "crank_nicolson_stencil",
    "numerics.record_observables": ["momentum"],
    "physics.potential.form": "soft_coulomb",
    "eraser.mode": "sde",
    "walk.mode": "gaussian",
    "walk.barrier": 0.05,
}


def _leaves(tree, path=""):
    for key, value in tree.items():
        here = "%s.%s" % (path, key) if path else key
        if isinstance(value, dict):
            yield from _leaves(value, here)
        else:
            yield here


def _another(path, value):
    """A valid value of the leaf at ``path`` other than ``value``."""
    if path in _OTHER_VALUES:
        return _OTHER_VALUES[path]
    if isinstance(value, list):
        return [_another(path, v) for v in value]
    if isinstance(value, int):
        # grid point counts are powers of two
        return 2 * value if path.endswith("points_per_axis") else value + 1
    return 0.9 * value if value else 0.5


def _changed(start, path):
    """``start`` with the leaf at ``path`` changed."""
    data = parse_config_data(start).data
    value = data
    for key in path.split("."):
        value = value[key]
    *parents, leaf = path.split(".")
    patch = {leaf: _another(path, value)}
    for key in reversed(parents):
        patch = {key: patch}
    if path == "grid.dims":
        # a planar packet has a second coordinate per particle
        patch["initial"] = {key: [x for v in values for x in (v, v if key == "widths" else 0.0)]
                            for key, values in data["initial"].items()}
    return _deep_merge(start, patch)


def _body(data) -> str:
    cfg = parse_config_data(data)
    body, _ = cli._RUNNERS[cfg.scenario](cfg)
    return json.dumps(cli._jsonable(body), sort_keys=True)


def test_every_catalog_leaf_changes_its_run():
    # a key its run ignores would validate and only move the config hash.
    # Not swept: backend (a label; only the scenario's own is accepted),
    # output (where the artifacts go) and ensemble (the envelope and the
    # summary line carry it, and --seed and --traj write it).
    assert sorted(_SMALL_RUNS) == sorted(SCENARIOS)
    catalog = _catalog()
    swept, idle = set(), []
    for scenario, small in _SMALL_RUNS.items():
        base = dict(copy.deepcopy(small), scenario=scenario)
        base_body = _body(base)
        for path in _leaves(catalog[scenario]):
            if path == "backend" or path.split(".")[0] in ("output", "ensemble"):
                continue
            swept.add((scenario, path))
            setting = _CONDITIONAL.get((scenario, path))
            start = base if setting is None else _deep_merge(base, setting)
            before = base_body if setting is None else _body(start)
            if _body(_changed(start, path)) == before:
                idle.append((scenario, path))
    assert set(_CONDITIONAL) <= swept
    assert idle == []
