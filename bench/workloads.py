"""The benchmark's workloads: config, unit of work and output check.

Each workload runs one collapsim config through ``collapsim.cli.main``.
Both hooks take the config as collapsim merged it with the scenario
defaults. ``work`` turns the return values a child process captured
into the units of work one call performed; ``check`` inspects the
parsed JSON artifact and returns the reasons it is wrong (empty when it
is right).

Statistical checks use five binomial standard errors rather than the
three of the acceptance tests: the benchmark draws a fresh seed for
every run, and at three sigma about one seed in 370 would fail by
chance alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

SIGMAS = 5.0


def _two_level_work(cfg: dict, captured: dict) -> dict:
    steps = [int(s) for result in captured["run_ensemble"]
             for s in result.steps_taken]
    return {"work": sum(steps), "trajectories": len(steps)}


def _walk_work(cfg: dict, captured: dict) -> dict:
    walker_steps = loop_passes = walkers = 0
    for scan in captured["born_linearity_scan"]:
        for result in scan.results:
            walker_steps += int(result.steps.sum())
            loop_passes += int(result.steps.max())
            walkers = result.n_walkers
    return {"work": walker_steps, "loop_passes": loop_passes,
            "n_walkers": walkers}


def _grid_work(cfg: dict, captured: dict) -> dict:
    return {"work": cfg["numerics"]["n_steps"] * cfg["ensemble"]["n_traj"]}


def _conservation_work(cfg: dict, captured: dict) -> dict:
    # momentum block: one collapse run on each of two grids; angular
    # block: a collapse run and a collapse-free control on each grid
    return {"work": 2 * cfg["numerics"]["n_steps"]
            + 4 * cfg["angular"]["n_steps"]}


def _check_two_level(cfg: dict, body: dict) -> list[str]:
    problems = []
    n = cfg["ensemble"]["n_traj"]
    w = body["initial_weight_in"]
    if body["n_trajectories"] != n:
        problems.append("ran %r trajectories, expected %d"
                        % (body["n_trajectories"], n))
    if body["fraction_unresolved"] != 0:
        problems.append("fraction_unresolved %r is not 0"
                        % body["fraction_unresolved"])
    sigma = math.sqrt(w * (1.0 - w) / n)
    if not abs(body["fraction_absorbed_in"] - w) <= SIGMAS * sigma:
        problems.append("fraction_absorbed_in %r is more than %g sigma "
                        "(%.4g) from %r" % (body["fraction_absorbed_in"],
                                            SIGMAS, sigma, w))
    return problems


def _check_walk(cfg: dict, body: dict) -> list[str]:
    problems = []
    n = body["n_walkers"]
    if body["max_unresolved"] != 0:
        problems.append("max_unresolved %r is not 0" % body["max_unresolved"])
    xs, fs = body["weights"], body["exit_fractions"]
    for x, f in zip(xs, fs):
        sigma = math.sqrt(x * (1.0 - x) / n)
        if not abs(f - x) <= SIGMAS * sigma:
            problems.append("exit fraction %r at weight %r is more than %g "
                            "sigma from the Born rule" % (f, x, SIGMAS))
    # standard error of the least-squares slope from the binomial errors
    mean = sum(xs) / len(xs)
    sxx = sum((x - mean) ** 2 for x in xs)
    slope_sigma = math.sqrt(sum((x - mean) ** 2 * x * (1.0 - x) / n
                                for x in xs)) / sxx
    if not abs(body["slope"] - 1.0) <= SIGMAS * slope_sigma:
        problems.append("slope %r is more than %g sigma (%.4g) from 1"
                        % (body["slope"], SIGMAS, slope_sigma))
    return problems


def _check_grid(cfg: dict, body: dict) -> list[str]:
    problems = []
    if body["status"] != "ok":
        problems.append("status %r" % body["status"])
    if not body["max_norm_drift"] < 1e-8:
        problems.append("max_norm_drift %r is not below 1e-8"
                        % body["max_norm_drift"])
    steps = cfg["numerics"]["n_steps"]
    if body["energy_deviation"]["steps"] != steps:
        problems.append("energy budget covers %r steps, expected %d"
                        % (body["energy_deviation"]["steps"], steps))
    n_times = len(body["times"])
    for name, series in body["expectations"].items():
        if len(series) != n_times:
            problems.append("expectation %s has %d entries for %d times"
                            % (name, len(series), n_times))
    return problems


# The angular gap ratio of the suite depends on the noise draw: at the
# shipped config seed 2 gives 0.503 and seed 3 gives 6.01 against the
# band [3, 5]. It is reported, not gated; every other check is.
_UNGATED_SUITE_CHECKS = ("angular_momentum_gap_ratio",)


def _check_conservation(cfg: dict, body: dict) -> list[str]:
    problems = []
    if body["status"] != "ok":
        problems.append("status %r" % body["status"])
    for check in body["checks"]:
        if check["name"] in _UNGATED_SUITE_CHECKS:
            continue
        if not check["passed"]:
            problems.append("suite check %s failed: %r outside [%r, %r]"
                            % (check["name"], check["value"], check["low"],
                               check["high"]))
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # the unit of work steps_per_s counts
    work: Callable[[dict, dict], dict]
    check: Callable[[dict, dict], list]
    # (span name, work key) pairs whose call count must equal that work
    # count in a traced call; a wrapper missed at a binding site breaks it
    counted_by: tuple = ()

    @property
    def config_path(self) -> str:
        return os.path.join(HERE, "configs", self.name + ".json")

    @property
    def scenario(self) -> str:
        with open(self.config_path, "r", encoding="utf-8") as handle:
            return json.load(handle)["scenario"]


# Why each workload exists, and what it should and should not move, is
# recorded in BENCHMARK.json. No workload runs the experiments module:
# the default eraser (32 ms) and thermal (4 ms) runs, timed on a 2-core
# Xeon, are too short to time steadily, and so is free_packet, whose
# artifact also holds NaN; that defect is not why it is left out.
WORKLOADS = {w.name: w for w in (
    Workload("two_level_ensemble", "trajectory-step",
             _two_level_work, _check_two_level,
             (("integrator.ito_step", "work"),
              ("noise.WienerProcess.increment", "work"))),
    Workload("walk_scan", "walker-step", _walk_work, _check_walk,
             (("walk.step_increment", "loop_passes"),)),
    Workload("grid2d_scattering", "grid-step", _grid_work, _check_grid,
             (("integrator.ito_step", "work"),)),
    Workload("conservation_suite", "grid-step", _conservation_work,
             _check_conservation, (("integrator.ito_step", "work"),)),
)}
