"""Command line behavior: exit codes, artifact bytes, overrides."""

import json
import math
import os
import platform
import subprocess
import sys

import pytest

from collapsim import cli
from collapsim.cli import main
from collapsim.config import parse_config
from collapsim.diagnostics import conservation_block
from collapsim.experiments import kick_cross_probability
from collapsim.integrator import run_trajectory
from collapsim.walk import barrier_bias


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_artifact(tmp_path, scenario):
    with open(tmp_path / "art" / ("%s.json" % scenario)) as handle:
        return json.load(handle)


def test_validate_prints_hash(tmp_path, capsys):
    path = write_config(tmp_path, "t.json", {"scenario": "thermal"})
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "config_hash=" in out


def test_validate_rejects_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json",
                        {"scenario": "thermal", "thermal": {"mas": 1.0}})
    assert main(["validate", path]) == 2
    assert "thermal.mas" in capsys.readouterr().err


def test_stability_violation_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "stiff.json",
                        {"scenario": "grid_scattering",
                         "numerics": {"scheme": "crank_nicolson_stencil",
                                      "dt": 0.05}})
    assert main(["run", path]) == 2
    assert "numerics.dt" in capsys.readouterr().err


def test_run_rejects_a_single_kick_size_before_running(tmp_path, capsys):
    path = write_config(tmp_path, "er.json",
                        {"scenario": "eraser", "eraser": {"epsilons": [0.1]},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 2
    assert "eraser.epsilons" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


def test_shortcut_rejects_wrong_scenario(tmp_path, capsys):
    path = write_config(tmp_path, "t.json", {"scenario": "thermal"})
    assert main(["eraser", path]) == 2
    assert "scenario" in capsys.readouterr().err


def test_free_packet_run_and_artifact_shape(tmp_path):
    path = write_config(tmp_path, "free.json",
                        {"scenario": "free_packet",
                         "numerics": {"n_steps": 40, "record_every": 10},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    body = read_artifact(tmp_path, "free_packet")
    assert body["status"] == "ok"
    assert body["artifact_version"] == 12
    assert body["scenario"] == "free_packet"
    assert len(body["config_hash"]) == 64
    assert len(body["times"]) == 5
    # branch-conditional variants ride along with each observable
    assert {"momentum", "kinetic"} <= set(body["expectations"])
    # free run never fires the shift branch
    assert body["energy_deviation"]["rms"] == 0.0
    csv_lines = (tmp_path / "art" / "free_packet.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config_hash=%s" % body["config_hash"])
    assert csv_lines[1] == "time,momentum,kinetic"
    assert len(csv_lines) == 7


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


@pytest.mark.parametrize("scenario, overrides", [
    ("free_packet", {"numerics": {"n_steps": 40, "record_every": 10}}),
    ("two_level_collapse", {"numerics": {"n_steps": 200},
                            "ensemble": {"n_traj": 20}}),
    ("walk_scan", {"walk": {"weights": [0.3, 0.7]},
                   "ensemble": {"n_traj": 200}}),
])
def test_artifacts_are_strict_json(tmp_path, scenario, overrides):
    path = write_config(tmp_path, "%s.json" % scenario,
                        dict(overrides, scenario=scenario,
                             output={"directory": str(tmp_path / "art")}))
    assert main(["run", path]) == 0
    text = (tmp_path / "art" / ("%s.json" % scenario)).read_text()
    body = json.loads(text, parse_constant=_reject_constant)
    assert body["status"] == "ok"
    if scenario == "free_packet":
        # a collapse-free run has an empty in-branch: its conditional
        # expectations are undefined and written as null
        assert body["expectations"]["momentum_in"] == [None] * 5
        assert all(v is not None for v in body["expectations"]["momentum"])


def test_artifacts_byte_identical_across_reruns(tmp_path):
    path = write_config(tmp_path, "scat.json",
                        {"scenario": "grid_scattering",
                         "numerics": {"n_steps": 12, "record_every": 4},
                         "output": {"directory": str(tmp_path / "art")}})
    blobs = []
    for _ in range(2):
        assert main(["run", path]) == 0
        blobs.append(((tmp_path / "art" / "grid_scattering.json").read_bytes(),
                      (tmp_path / "art" / "grid_scattering.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_output_directory_leaves_hash_and_json_bytes_alone(tmp_path):
    path = write_config(tmp_path, "scat.json",
                        {"scenario": "grid_scattering",
                         "numerics": {"n_steps": 12, "record_every": 4}})
    blobs = []
    for out in ("first", "second"):
        assert main(["run", path, "--out-dir", str(tmp_path / out)]) == 0
        blobs.append((tmp_path / out / "grid_scattering.json").read_bytes())
    assert json.loads(blobs[0])["config_hash"] == json.loads(blobs[1])["config_hash"]
    assert blobs[0] == blobs[1]


def test_default_free_packet_ends_on_its_last_step(tmp_path):
    assert main(["run", write_config(tmp_path, "free.json", {"scenario": "free_packet"}),
                 "--out-dir", str(tmp_path / "art")]) == 0
    body = read_artifact(tmp_path, "free_packet")
    # 1000 steps of 0.002, recorded as the step index times dt
    assert body["times"][-1] == 2.0
    last = (tmp_path / "art" / "free_packet.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == 2.0


def test_seed_changes_artifact_and_is_recorded(tmp_path):
    path = write_config(tmp_path, "scat.json",
                        {"scenario": "grid_scattering",
                         "numerics": {"n_steps": 12, "record_every": 4},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path, "--seed", "3"]) == 0
    body = read_artifact(tmp_path, "grid_scattering")
    assert body["master_seed"] == 3
    first = body["expectations"]["momentum"]
    assert main(["run", path, "--seed", "4"]) == 0
    assert read_artifact(tmp_path, "grid_scattering")["expectations"]["momentum"] != first


def test_grid_norm_drift_covers_every_trajectory(tmp_path):
    # at this gain the trajectories drift by different amounts, and the
    # first is not the largest
    path = write_config(tmp_path, "scat.json",
                        {"scenario": "grid_scattering",
                         "physics": {"kappa": 50.0},
                         "numerics": {"n_steps": 40},
                         "ensemble": {"n_traj": 4},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    body = read_artifact(tmp_path, "grid_scattering")
    cfg = parse_config(path)
    system = cfg.system()
    drifts = [run_trajectory(system, cfg.initial_state(system.basis),
                             cfg.integrator_config(),
                             seed=cfg.master_seed + index).max_norm_drift
              for index in range(cfg.n_traj)]
    assert drifts[0] < max(drifts)
    assert body["max_norm_drift"] == max(drifts)


def test_out_dir_and_traj_overrides(tmp_path):
    path = write_config(tmp_path, "walk.json",
                        {"scenario": "walk_scan",
                         "walk": {"weights": [0.3, 0.6]}})
    out = tmp_path / "elsewhere"
    assert main(["run", path, "--traj", "200", "--out-dir", str(out)]) == 0
    with open(out / "walk_scan.json") as handle:
        body = json.load(handle)
    assert body["n_walkers"] == 200
    assert len(body["weights"]) == 2


def test_walk_scan_csv_weight_column_monotone(tmp_path):
    path = write_config(tmp_path, "walk.json",
                        {"scenario": "walk_scan",
                         "walk": {"weights": [0.7, 0.2, 0.5]},
                         "ensemble": {"n_traj": 300},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    lines = (tmp_path / "art" / "walk_scan.csv").read_text().splitlines()
    assert lines[1] == "weight,exit_fraction,sigma"
    weights = [float(line.split(",")[0]) for line in lines[2:]]
    assert weights == sorted(weights) == [0.2, 0.5, 0.7]


@pytest.mark.parametrize("barrier", [None, 0.02])
def test_walk_scan_expected_intercept_is_barrier_bias(tmp_path, barrier):
    path = write_config(tmp_path, "walk.json",
                        {"scenario": "walk_scan",
                         "walk": {"weights": [0.3, 0.7], "barrier": barrier},
                         "ensemble": {"n_traj": 200},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    body = read_artifact(tmp_path, "walk_scan")
    theta = parse_config(path).walk_config().barrier_value
    assert body["expected_intercept"] == barrier_bias(0.0, theta)
    assert body["expected_intercept"] == pytest.approx(
        -theta / (1.0 - 2.0 * theta), rel=1e-15)


def test_eraser_artifact_columns(tmp_path):
    path = write_config(tmp_path, "er.json",
                        {"scenario": "eraser",
                         "ensemble": {"n_traj": 2000},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    body = read_artifact(tmp_path, "eraser")
    assert body["slope"] == pytest.approx(2.0, abs=0.1)
    # each point carries the kick model's exact curve, which the kick
    # ensemble reproduces
    for point in body["points"]:
        exact = kick_cross_probability(point["epsilon"])
        assert point["exact_cross_prob"] == exact
        assert point["cross_prob"] == pytest.approx(exact, rel=1e-12)
    lines = (tmp_path / "art" / "eraser.csv").read_text().splitlines()
    assert lines[1] == "epsilon,cross_prob,ci_low,ci_high"
    assert len(lines) == 5
    for line in lines[2:]:
        eps, prob, lo, hi = map(float, line.split(","))
        assert lo <= prob <= hi


def test_thermal_artifact_values(tmp_path):
    path = write_config(tmp_path, "t.json",
                        {"scenario": "thermal",
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    estimate = read_artifact(tmp_path, "thermal")["estimate"]
    assert estimate["joules_per_year"] == pytest.approx(0.0301, rel=0.01)
    lines = (tmp_path / "art" / "thermal.csv").read_text().splitlines()
    fields = [line.split(",")[0] for line in lines[2:]]
    assert fields == sorted(fields)


def test_two_level_artifact(tmp_path):
    path = write_config(tmp_path, "two.json",
                        {"scenario": "two_level_collapse",
                         "ensemble": {"n_traj": 80},
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    body = read_artifact(tmp_path, "two_level_collapse")
    assert 0.0 <= body["fraction_absorbed_in"] <= 1.0
    assert body["initial_weight_in"] == 0.3
    assert len(body["times"]) == len(body["mean_weight_in"])


def test_conserve_toy_resolution(tmp_path):
    path = write_config(tmp_path, "c.json",
                        {"scenario": "conservation_suite",
                         "grid": {"points_per_axis": 16},
                         "numerics": {"n_steps": 8},
                         "angular": {"points_per_axis": 8, "n_steps": 4,
                                     "spectral": {"points_per_axis": 8}},
                         "output": {"directory": str(tmp_path / "art")}})
    # undersized grids may fail the physics checks; that is still exit 0
    assert main(["run", path]) == 0
    body = read_artifact(tmp_path, "conservation_suite")
    assert body["suite"] in ("pass", "fail")
    names = {c["name"] for c in body["checks"]}
    assert names == {
        "momentum_gap_ratio", "momentum_identity_ratio",
        "momentum_spectral_residual",
        "angular_momentum_gap_ratio", "angular_momentum_identity_ratio",
        "angular_momentum_spectral_residual",
    }
    assert all(isinstance(c["passed"], bool) for c in body["checks"])

    # the runner is a shell over the library: conservation_block on the
    # same parsed config reproduces every block value, and a non-finite
    # one is written as null
    cfg = parse_config(path)
    assert sorted(body["blocks"]) == ["angular_momentum", "momentum"]
    for name, written in body["blocks"].items():
        expected = {key: None if isinstance(value, float) and not math.isfinite(value)
                    else value
                    for key, value in conservation_block(cfg, name).items()}
        assert written == expected


def test_numerical_abort_writes_partial_artifact(tmp_path, monkeypatch, capsys):
    def explode(cfg):
        raise FloatingPointError("overflow in test stub")

    monkeypatch.setitem(cli._RUNNERS, "thermal", explode)
    path = write_config(tmp_path, "t.json",
                        {"scenario": "thermal",
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 3
    assert "aborted" in capsys.readouterr().err
    body = read_artifact(tmp_path, "thermal")
    assert body["status"] == "aborted"
    assert body["partial"] is True
    assert "overflow" in body["error"]


def test_no_temp_files_left_behind(tmp_path):
    path = write_config(tmp_path, "t.json",
                        {"scenario": "thermal",
                         "output": {"directory": str(tmp_path / "art")}})
    assert main(["run", path]) == 0
    leftovers = [n for n in os.listdir(tmp_path / "art")
                 if n.startswith(".tmp-")]
    assert leftovers == []


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path, "t.json", {"scenario": "thermal"})
    proc = subprocess.run([sys.executable, "-m", "collapsim.cli",
                           "validate", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "valid" in proc.stdout


_FAULT_PROBE = """
import resource, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from collapsim import cli
assert cli.main(["validate", sys.argv[2]]) == 0

def churn():
    arrays = [np.ones((16,) * 4, complex) for _ in range(8)]
    del arrays

churn()  # first touch of the pages, counted under any policy
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set on glibc only")
def test_main_keeps_freed_work_arrays_resident(tmp_path):
    # 20 rounds of eight freed 1 MiB arrays touch 40960 pages; under
    # glibc's default policy nearly all of them fault in again each round
    path = write_config(tmp_path, "t.json", {"scenario": "grid_scattering"})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, src, path],
                          capture_output=True, text=True, check=True)
    faults = int(proc.stdout.split()[-1])
    assert faults < 0.01 * 20 * 8 * (16 ** 4 * 16 // 4096)
