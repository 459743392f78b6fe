"""Command line front end.

Subcommands either run a config file (``run``, ``validate``) or launch a
named scenario with catalog defaults (``walk-scan``, ``eraser``,
``thermal``, ``conserve``). Artifacts are written atomically and with
deterministic bytes: fixed key order, repr floats, no timestamps, and
every file embeds the config hash and master seed so a result can be
traced back to the exact inputs that produced it. JSON artifacts are
strict: a non-finite number (NaN for an empty branch's conditional
expectation, an infinite ratio) is written as ``null``.

Exit codes: 0 success, 2 config error, 3 numerical abort. A numerical
abort still writes an artifact, flagged ``"status": "aborted"`` with
``"partial": true``. The ``conserve`` subcommand reports pass or fail
against the configured tolerances in the artifact body and exits 0
either way; failing physics is a result, not a crash.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .collapse import collapse_sum
from .config import (ARTIFACT_VERSION, ConfigError, RunConfig, parse_config,
                     parse_config_data)
from .diagnostics import (ConservationGapTracker, DeviationAccumulator,
                          pointwise_proportionality_check)
from .experiments import eraser_sweep, thermal_estimate
from .integrator import run_ensemble, run_trajectory
from .state import GridBasis, GridSpec, ParticleSpec, gaussian_packet, normalize
from .operators import (AngularMomentumZOperator, GaussianWell,
                        InteractionPair, MomentumOperator)
from .walk import born_linearity_scan

__all__ = ["main"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # plain-float repr is the shortest exact round trip
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def _csv_text(cfg: RunConfig, header, rows) -> str:
    buffer = io.StringIO()
    buffer.write("# config_hash=%s seed=%d version=%d\n"
                 % (cfg.content_hash(), cfg.master_seed, ARTIFACT_VERSION))
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buffer.getvalue()


def _envelope(cfg: RunConfig) -> dict:
    return {
        "artifact_version": ARTIFACT_VERSION,
        "scenario": cfg.scenario,
        "config_hash": cfg.content_hash(),
        "master_seed": cfg.master_seed,
        "status": "ok",
    }


def _write_artifacts(cfg: RunConfig, payload: dict, table=None) -> list[str]:
    base = os.path.join(cfg.out_directory, cfg.scenario)
    paths = []
    if "json" in cfg.formats:
        path = base + ".json"
        _atomic_write(path, json.dumps(_jsonable(payload), sort_keys=True,
                                       indent=2, allow_nan=False) + "\n")
        paths.append(path)
    if "csv" in cfg.formats and table is not None:
        header, rows = table
        path = base + ".csv"
        _atomic_write(path, _csv_text(cfg, header, rows))
        paths.append(path)
    return paths


def _series(values) -> list:
    return [float(v) for v in np.asarray(values).ravel()]


# scenario runners; each returns (payload body, optional csv table)

def _run_grid_trajectories(cfg: RunConfig):
    basis = cfg.grid_basis()
    state = cfg.initial_state(basis)
    pairs = cfg.pairs()
    icfg = cfg.integrator_config()
    icfg.validate_grid(basis)
    budget = DeviationAccumulator(scheme=icfg.derivative_scheme)

    def watch(step, current, ops, increment):
        if ops:
            budget.add(current, ops, icfg.dt)

    finals = {name: [] for name in icfg.record_observables}
    first = None
    for index in range(cfg.n_traj):
        rec = run_trajectory(state, icfg, pairs=pairs, seed=cfg.master_seed + index,
                             per_step=watch if index == 0 else None)
        if first is None:
            first = rec
        for name in finals:
            finals[name].append(float(rec.expectations[name][-1]))

    body = {
        "n_trajectories": cfg.n_traj,
        "times": _series(first.times),
        "expectations": {k: _series(v) for k, v in first.expectations.items()},
        "max_norm_drift": first.max_norm_drift,
        "final_means": {k: float(np.mean(v)) for k, v in finals.items()},
        "final_spreads": {k: float(np.std(v)) for k, v in finals.items()},
        "energy_deviation": {"rms": budget.rms, "heating": budget.heating,
                             "steps": budget.steps},
    }
    names = list(icfg.record_observables)
    header = ["time"] + names
    rows = [[t] + [float(first.expectations[n][i]) for n in names]
            for i, t in enumerate(body["times"])]
    return body, (header, rows)


def _run_two_level(cfg: RunConfig):
    _, state, diagonal = cfg.finite_system()
    icfg = cfg.integrator_config()
    result = run_ensemble(state, icfg, n_trajectories=cfg.n_traj,
                          master_seed=cfg.master_seed, finite_potential=diagonal)
    w_in = float(cfg.section("levels")["weight_in"])
    body = {
        "n_trajectories": result.n_trajectories,
        "initial_weight_in": w_in,
        "fraction_absorbed_in": result.fraction_absorbed_in,
        "fraction_unresolved": result.fraction_unresolved,
        "binomial_sigma": result.binomial_sigma(),
        "mean_steps": float(np.mean(result.steps_taken)),
        "max_norm_drift": result.max_norm_drift,
        "times": _series(result.times),
        "mean_weight_in": _series(result.mean_weight_in),
    }
    rows = list(zip(body["times"], body["mean_weight_in"]))
    return body, (["time", "mean_weight_in"], rows)


def _run_walk_scan(cfg: RunConfig):
    weights = sorted(float(w) for w in cfg.section("walk")["weights"])
    scan = born_linearity_scan(weights, cfg.n_traj, cfg.walk_config(),
                               master_seed=cfg.master_seed)
    body = {
        "n_walkers": cfg.n_traj,
        "slope": scan.slope,
        "intercept": scan.intercept,
        "max_unresolved": scan.max_unresolved,
        "weights": _series(scan.x0_values),
        "exit_fractions": _series(scan.fractions),
        "sigmas": _series(scan.sigmas),
    }
    rows = [[w, f, s] for w, f, s in
            zip(body["weights"], body["exit_fractions"], body["sigmas"])]
    return body, (["weight", "exit_fraction", "sigma"], rows)


def _run_eraser(cfg: RunConfig):
    section = cfg.section("eraser")
    sweep = eraser_sweep(section["epsilons"], n_traj=cfg.n_traj,
                         mode=section["mode"], seed=cfg.master_seed,
                         sign=section["sign"], n_steps=int(section["n_steps"]),
                         dt=section["dt"])
    body = sweep.to_dict()
    body["mode"] = section["mode"]
    body["n_trajectories"] = cfg.n_traj
    rows = [[r["epsilon"], r["cross_prob"], r["ci_low"], r["ci_high"]]
            for r in sweep.rows()]
    return body, (["epsilon", "cross_prob", "ci_low", "ci_high"], rows)


def _run_thermal(cfg: RunConfig):
    estimate = thermal_estimate(cfg.thermal_input())
    body = {"estimate": estimate.to_dict()}
    rows = sorted(estimate.to_dict().items())
    return body, (["field", "value"], rows)


# deterministic probe used by the static identity checks
_PROBE_INCREMENT = complex(0.021, -0.013)


def _drift_residuals(cfg, basis, state, pairs, kappa, n_steps, dt, q_op,
                     dt_path):
    icfg = cfg.integrator_config(scheme="crank_nicolson_stencil",
                                 n_steps=n_steps, dt=dt, kappa=kappa,
                                 record_every=n_steps, record_observables=())
    try:
        icfg.validate_grid(basis)
    except ValueError as exc:
        # the refined grid tightens the stencil bound past what config
        # validation saw at the base resolution
        raise ConfigError(dt_path, str(exc)) from exc
    tracker = ConservationGapTracker(q_op, dt)
    rec = run_trajectory(state, icfg, pairs=pairs, seed=cfg.master_seed,
                         per_step=tracker)
    tracker.finish(rec.final_state)
    return np.asarray(tracker.residuals)


def _attributed_gap(cfg, basis, state, pairs, n_steps, dt, q_op, dt_path,
                    subtract_control):
    """Cumulative drift of the tracked observable charged to the noise.

    For the angular block a collapse-free control run with the same
    clock is subtracted step by step: a square box leaks a little
    angular momentum through the coordinate seam even in exact
    arithmetic, and that leak must not masquerade as stencil error.
    """
    kappa = float(cfg.section("physics")["kappa"])
    on = _drift_residuals(cfg, basis, state, pairs, kappa, n_steps, dt, q_op,
                          dt_path)
    if not subtract_control:
        return abs(float(np.sum(on)))
    off = _drift_residuals(cfg, basis, state, pairs, 0.0, n_steps, dt, q_op,
                           dt_path)
    return abs(float(np.sum(on - off)))


def _identity_residual(state, pairs, kappa, c, q_op, scheme, dt):
    ops = collapse_sum(state, pairs, kappa=kappa, c=c, scheme=scheme)
    return pointwise_proportionality_check(state, ops, _PROBE_INCREMENT,
                                           q_op, dt)


def _momentum_system(cfg: RunConfig, points: int):
    grid_cfg = cfg.section("grid")
    grid = GridSpec(dims=int(grid_cfg["dims"]), points_per_axis=points,
                    extent=float(grid_cfg["extent"]))
    masses = cfg.section("physics")["masses"]
    basis = GridBasis(grid, tuple(ParticleSpec(float(m)) for m in masses))
    return basis, cfg.initial_state(basis), cfg.pairs()


def _angular_system(cfg: RunConfig, points: int):
    section = cfg.section("angular")
    grid = GridSpec(dims=2, points_per_axis=points,
                    extent=float(section["extent"]))
    masses = cfg.section("physics")["masses"]
    basis = GridBasis(grid, tuple(ParticleSpec(float(m)) for m in masses))
    sep, off = float(section["separation"]), float(section["impact_offset"])
    width, k = float(section["width"]), float(section["momentum"])
    state = normalize(gaussian_packet(basis,
                                      centers=(-sep, -off, sep, off),
                                      widths=(width,) * 4,
                                      momenta=(k, 0.0, -k, 0.0)))
    return basis, state, cfg.pairs()


def _angular_spectral_system(cfg: RunConfig):
    section = cfg.section("angular")["spectral"]
    grid = GridSpec(dims=2, points_per_axis=int(section["points_per_axis"]),
                    extent=float(section["extent"]))
    masses = cfg.section("physics")["masses"]
    basis = GridBasis(grid, tuple(ParticleSpec(float(m)) for m in masses))
    sep, width, k = (float(section["separation"]), float(section["width"]),
                     float(section["momentum"]))
    state = normalize(gaussian_packet(basis,
                                      centers=(-sep, 0.0, sep, 0.0),
                                      widths=(width,) * 4,
                                      momenta=(k, 0.0, -k, 0.0)))
    pairs = [InteractionPair(0, 1, GaussianWell(float(section["depth"]),
                                                float(section["well_width"])))]
    return basis, state, pairs


def _run_conservation(cfg: RunConfig):
    num = cfg.section("numerics")
    ang = cfg.section("angular")
    tol = cfg.section("tolerances")
    physics = cfg.section("physics")
    kappa, c = float(physics["kappa"]), float(physics["c"])

    blocks = {}
    for observable, make, q_cls, coarse, steps, dt, dt_path, control in (
            ("momentum", _momentum_system, MomentumOperator,
             int(cfg.section("grid")["points_per_axis"]),
             int(num["n_steps"]), float(num["dt"]), "numerics.dt", False),
            ("angular_momentum", _angular_system, AngularMomentumZOperator,
             int(ang["points_per_axis"]), int(ang["n_steps"]),
             float(ang["dt"]), "angular.dt", True)):
        gaps, identities = {}, {}
        for points in (coarse, 2 * coarse):
            basis, state, pairs = make(cfg, points)
            q_op = q_cls(basis, scheme="stencil")
            gaps[points] = _attributed_gap(cfg, basis, state, pairs, steps,
                                           dt, q_op, dt_path, control)
            identities[points] = _identity_residual(state, pairs, kappa, c,
                                                    q_op, "stencil", dt)
        if observable == "momentum":
            spectral_basis, spectral_state, spectral_pairs = make(cfg,
                                                                  2 * coarse)
        else:
            spectral_basis, spectral_state, spectral_pairs = \
                _angular_spectral_system(cfg)
        spectral_residual = _identity_residual(
            spectral_state, spectral_pairs, kappa, c,
            q_cls(spectral_basis, scheme="spectral"), "spectral", dt)
        blocks[observable] = {
            "points": [coarse, 2 * coarse],
            "coarse_gap": gaps[coarse],
            "fine_gap": gaps[2 * coarse],
            "gap_ratio": (gaps[coarse] / gaps[2 * coarse]
                          if gaps[2 * coarse] > 0.0 else float("inf")),
            "identity_ratio": (identities[coarse] / identities[2 * coarse]
                               if identities[2 * coarse] > 0.0
                               else float("inf")),
            "spectral_residual": spectral_residual,
        }

    checks = []
    for name, block in sorted(blocks.items()):
        for kind in ("gap_ratio", "identity_ratio"):
            checks.append({
                "name": "%s_%s" % (name, kind),
                "value": block[kind],
                "low": tol["stencil_ratio_low"],
                "high": tol["stencil_ratio_high"],
                "passed": tol["stencil_ratio_low"] <= block[kind]
                          <= tol["stencil_ratio_high"],
            })
        checks.append({
            "name": "%s_spectral_residual" % name,
            "value": block["spectral_residual"],
            "low": 0.0,
            "high": tol["spectral_residual"],
            "passed": block["spectral_residual"] <= tol["spectral_residual"],
        })
    body = {
        "blocks": blocks,
        "checks": checks,
        "suite": "pass" if all(c["passed"] for c in checks) else "fail",
    }
    rows = [[c["name"], c["value"], c["low"], c["high"], c["passed"]]
            for c in checks]
    return body, (["check", "value", "low", "high", "passed"], rows)


_RUNNERS = {
    "free_packet": _run_grid_trajectories,
    "grid_scattering": _run_grid_trajectories,
    "two_level_collapse": _run_two_level,
    "walk_scan": _run_walk_scan,
    "eraser": _run_eraser,
    "thermal": _run_thermal,
    "conservation_suite": _run_conservation,
}

_SUMMARY_KEYS = {
    "free_packet": ("max_norm_drift", "norm drift"),
    "grid_scattering": ("max_norm_drift", "norm drift"),
    "two_level_collapse": ("fraction_absorbed_in", "absorbed fraction"),
    "walk_scan": ("slope", "slope"),
    "eraser": ("slope", "log-log slope"),
    "conservation_suite": ("suite", "suite"),
}


def _summary_line(cfg: RunConfig, body: dict, paths) -> str:
    if cfg.scenario == "thermal":
        stat = "rate %.3g/yr" % body["estimate"]["joules_per_year"]
    else:
        key, label = _SUMMARY_KEYS[cfg.scenario]
        value = body[key]
        stat = "%s %s" % (label, value if isinstance(value, str)
                          else "%.6g" % value)
    where = ", ".join(paths) if paths else "no files (formats empty)"
    return "%s: n_traj=%d seed=%d %s -> %s" % (
        cfg.scenario, cfg.n_traj, cfg.master_seed, stat, where)


_SHORTCUTS = {
    "walk-scan": "walk_scan",
    "eraser": "eraser",
    "thermal": "thermal",
    "conserve": "conservation_suite",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapsim",
        description="Stochastic collapse dynamics scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out-dir", default=None,
                       help="override the output directory")
        p.add_argument("--traj", type=int, default=None, metavar="N",
                       help="override the trajectory count")

    run = sub.add_parser("run", help="run a scenario config file")
    run.add_argument("config")
    add_overrides(run)

    for command, scenario in _SHORTCUTS.items():
        shortcut = sub.add_parser(
            command, help="run the %s scenario" % scenario)
        shortcut.add_argument("config", nargs="?", default=None,
                              help="optional config file for this scenario")
        add_overrides(shortcut)

    validate = sub.add_parser("validate",
                              help="check a config file and print its hash")
    validate.add_argument("config")
    return parser


def _load_config(args) -> RunConfig:
    if args.command in _SHORTCUTS:
        expected = _SHORTCUTS[args.command]
        if args.config is None:
            cfg = parse_config_data({"scenario": expected})
        else:
            cfg = parse_config(args.config)
            if cfg.scenario != expected:
                raise ConfigError("scenario", "expected %r for %r, got %r"
                                  % (expected, args.command, cfg.scenario))
        return cfg
    return parse_config(args.config)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "validate":
            print("valid: scenario=%s config_hash=%s"
                  % (cfg.scenario, cfg.content_hash()))
            return 0
        cfg = cfg.with_overrides(master_seed=args.seed, n_traj=args.traj,
                                 directory=args.out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    runner = _RUNNERS[cfg.scenario]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            body, table = runner(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        payload = _envelope(cfg)
        payload.update({"status": "aborted", "partial": True,
                        "error": str(exc)})
        paths = _write_artifacts(cfg, payload)
        print("%s: aborted (%s) -> %s" % (cfg.scenario, exc,
                                          ", ".join(paths) or "nothing written"),
              file=sys.stderr)
        return 3

    payload = _envelope(cfg)
    payload.update(body)
    paths = _write_artifacts(cfg, payload, table)
    print(_summary_line(cfg, payload, paths))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
