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

On glibc, ``main`` fixes the allocator's mmap and trim thresholds so that
the full-shape work arrays a grid step frees stay resident for the next
step; library callers keep their own allocator policy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .config import (ARTIFACT_VERSION, ConfigError, RunConfig, parse_config,
                     parse_config_data)
from .diagnostics import DeviationAccumulator, conservation_block
from .experiments import eraser_sweep, thermal_estimate
from .integrator import run_ensemble, run_trajectory
from .walk import barrier_bias, born_linearity_scan

__all__ = ["main"]

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_arrays_resident() -> None:
    """Keep freed heap arrays of up to 32 MiB resident (glibc only).

    glibc's default policy raises its mmap threshold to the largest freed
    mmapped block and its trim threshold to twice that, so a grid step's
    temporaries trim the heap top and fault it back in on every step.
    Fixing both thresholds (setting one leaves the other at 128 KiB)
    keeps those pages; 32 MiB is glibc's own cap on the dynamic mmap
    threshold, so larger arrays are still mmapped.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


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
    system = cfg.system()
    state = cfg.initial_state(system.basis)
    icfg = cfg.integrator_config()
    budget = DeviationAccumulator(scheme=icfg.derivative_scheme)

    def watch(step, current, op, increment):
        if op is not None:
            budget.add(current, op, icfg.dt)

    finals = {name: [] for name in icfg.record_observables}
    first = None
    drift = 0.0
    for index in range(cfg.n_traj):
        rec = run_trajectory(system, state, icfg, seed=cfg.master_seed + index,
                             per_step=watch if index == 0 else None)
        if first is None:
            first = rec
        drift = max(drift, rec.max_norm_drift)
        for name in finals:
            finals[name].append(float(rec.expectations[name][-1]))

    body = {
        "n_trajectories": cfg.n_traj,
        "times": _series(first.times),
        "expectations": {k: _series(v) for k, v in first.expectations.items()},
        "max_norm_drift": drift,
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
    system, state = cfg.finite_system()
    result = run_ensemble(system, state, cfg.integrator_config(),
                          n_trajectories=cfg.n_traj, master_seed=cfg.master_seed)
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
    config = cfg.walk_config()
    scan = born_linearity_scan(weights, cfg.n_traj, config,
                               master_seed=cfg.master_seed)
    body = {
        "n_walkers": cfg.n_traj,
        "slope": scan.slope,
        "intercept": scan.intercept,
        # the barrier's Born line (x0 - theta) / (1 - 2 theta) at x0 = 0
        "expected_intercept": barrier_bias(0.0, config.barrier_value),
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
                         n_steps=int(section["n_steps"]), dt=section["dt"])
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


def _run_conservation(cfg: RunConfig):
    tol = cfg.section("tolerances")
    blocks = {name: conservation_block(cfg, name)
              for name in ("momentum", "angular_momentum")}
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
    _keep_freed_arrays_resident()
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
