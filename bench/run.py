"""collapsim benchmark: run one workload repeatedly and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--record FILE]

Run from anywhere inside a checkout that holds ``src/collapsim``. Each
call of the workload runs in a fresh single-threaded child process
(``child.py``), one at a time, until the next call would overrun
``--seconds``; at least three calls are made. All calls of one run use
the same seed, so their artifacts must be byte-identical.

Every call is checked: exit code 0, a JSON artifact that parses strictly
(no NaN or Infinity), the workload's physics check (``workloads.py``)
and identical artifact bytes. A call that fails any of them counts in
``failed``.

``--trace 0`` reports the end-to-end metrics as medians over the calls.
``--trace 1`` alternates traced and untraced calls and reports the
per-layer metrics of the traced ones: self seconds and call counts of
the spans ``tracer.py`` records (``.s`` is self time, ``.incl_s``
inclusive), summed self time per module, computed kernel byte counts,
and the tracing overhead (traced minus untraced ``wall_s``). Span counts must
repeat exactly across traced calls, and must match the work counts
taken from the library's return values.

The last line of standard output is the result as one JSON object.
``--record FILE`` also appends the result, the samples and the
environment to FILE as one JSON line; ``compare.py`` reads such files.
Artifacts, child results and span dumps of the latest run of each
workload stay under ``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import FFT_FUNCTIONS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
MIN_CALLS = 3
# set-up-only children after each call, for more set-up samples per run
SETUP_PROBES = 2
# a run must end within 180 s; stop starting calls well before that
HARD_LIMIT_S = 150.0
# every child is pinned to one thread
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
# modules with a summed self time; cli has one public function, whose
# self time is cli.main.self_s
SUMMED_LAYERS = ("config", "integrator", "collapse", "operators", "state",
                 "noise", "walk", "diagnostics")
INCLUSIVE = ("collapse.collapse_sum", "integrator.UnitaryStepper.step",
             "diagnostics.DeviationAccumulator.add",
             "diagnostics.ConservationGapTracker.__call__")


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def strict_json(text: str):
    """Parse JSON, refusing NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def assess_call(workload, result, artifacts, reference_hash):
    """Reasons one call failed (empty if it passed) and its artifact hash.

    ``result`` is the child's result object (None if it wrote none),
    ``artifacts`` maps file suffix to bytes for the files found, and
    ``reference_hash`` is the hash of an earlier call of the same seed.
    """
    if result is None:
        return ["the child wrote no result"], None
    if result["exit_code"] != 0:
        return ["collapsim exited with code %r" % result["exit_code"]], None
    if ".json" not in artifacts:
        return ["no JSON artifact was written"], None
    digest = hashlib.sha256(b"".join(
        artifacts[k] for k in sorted(artifacts))).hexdigest()
    try:
        body = strict_json(artifacts[".json"].decode("utf-8"))
    except ValueError as exc:
        return ["artifact is not strict JSON: %s" % exc], digest
    problems = workload.check(result["config"], body)
    if reference_hash is not None and digest != reference_hash:
        problems.append("artifact bytes differ from the first call")
    return problems, digest


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_summary(values) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = "median %.6g, n=%d" % (statistics.median(values), n)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            return text + ", p%d %.6g" % (p, cut)
    return text + " (too few samples for a tail percentile)"


def end_to_end_metrics(calls, setups) -> dict:
    return {
        "wall_s": (_median([c["wall_s"] for c in calls]), "s"),
        "setup_s": (_median([c["setup_s"] for c in calls] + setups), "s"),
        "steps_per_s": (_median([c["work"] / c["wall_s"] for c in calls]),
                        "1/s"),
        "peak_rss_mb": (_median([c["peak_rss_mb"] for c in calls]), "MB"),
    }


def layer_metrics(traced, untraced, artifact_bytes) -> dict:
    """Per-layer metrics: medians of times, counts of the first traced call."""
    first = traced[0]
    spans = first["trace"]["spans"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return _median([c["trace"]["spans"].get(name, {}).get("self_s", 0.0)
                        for c in traced])

    def incl_s(name):
        return _median([c["trace"]["spans"].get(name, {}).get("incl_s", 0.0)
                        for c in traced])

    def layer_self(layer):
        return _median([sum(v["self_s"] for k, v in c["trace"]["spans"].items()
                            if k.split(".", 1)[0] == layer) for c in traced])

    steps = calls("integrator.ito_step")

    def per_step(count):
        return count / steps if steps else 0.0

    fft_calls = sum(calls("numpy.fft." + f) for f in FFT_FUNCTIONS)
    walk = first.get("n_walkers", 0) > 0
    walker_steps = first["work"] if walk else 0
    passes = first.get("loop_passes", 0)
    grid = first["config"].get("backend") == "grid"
    points = first["trace"]["max_step_points"] if grid else 0

    metrics = {
        "config.parse_config.s": (self_s("config.parse_config"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.artifact_bytes": (artifact_bytes, "B"),
        "integrator.run_trajectory.self_s": (
            self_s("integrator.run_trajectory"), "s"),
        "integrator.run_trajectory.calls": (
            calls("integrator.run_trajectory"), "count"),
        "integrator.ito_step.s": (self_s("integrator.ito_step"), "s"),
        "integrator.ito_step.calls": (steps, "count"),
        "integrator.UnitaryStepper.__init__.calls": (
            calls("integrator.UnitaryStepper.__init__"), "count"),
        "integrator.UnitaryStepper.step.s": (
            self_s("integrator.UnitaryStepper.step"), "s"),
        "state.branch_decompose.s": (self_s("state.branch_decompose"), "s"),
        "state.branch_decompose.calls": (
            calls("state.branch_decompose"), "count"),
        "state.expectation.s": (self_s("state.expectation"), "s"),
        "state.expectation.calls": (calls("state.expectation"), "count"),
        "collapse.collapse_from_diagonal.calls_per_step": (
            per_step(calls("collapse.collapse_from_diagonal")), "1/step"),
        "collapse.collapse_sum.s": (self_s("collapse.collapse_sum"), "s"),
        "collapse.rate_numerator.s": (self_s("collapse.rate_numerator"), "s"),
        "collapse.rate_denominator.s": (
            self_s("collapse.rate_denominator"), "s"),
        "collapse.total_diagonal.calls": (
            calls("collapse.total_diagonal"), "count"),
        "noise.WienerProcess.increment.s": (
            self_s("noise.WienerProcess.increment"), "s"),
        "noise.WienerProcess.increment.calls": (
            calls("noise.WienerProcess.increment"), "count"),
        "noise.WienerProcess.__init__.calls": (
            calls("noise.WienerProcess.__init__"), "count"),
        "operators.potential_field.calls_per_step": (
            per_step(calls("operators.potential_field")), "1/step"),
        "operators.potential_gradient.calls": (
            calls("operators.potential_gradient"), "count"),
        "operators.potential_laplacian.calls": (
            calls("operators.potential_laplacian"), "count"),
        "operators.derivative1.s": (self_s("operators.derivative1"), "s"),
        "operators.derivative1.calls": (
            calls("operators.derivative1"), "count"),
        "operators.derivative1.calls_per_step": (
            per_step(calls("operators.derivative1")), "1/step"),
        "operators.derivative2.s": (self_s("operators.derivative2"), "s"),
        "operators.derivative2.calls": (
            calls("operators.derivative2"), "count"),
        "numpy.fft.s": (_median([sum(
            c["trace"]["spans"].get("numpy.fft." + f, {}).get("self_s", 0.0)
            for f in FFT_FUNCTIONS) for c in traced]), "s"),
        "numpy.fft.calls_per_step": (per_step(fft_calls), "1/step"),
        "diagnostics.DeviationAccumulator.add.s": (
            self_s("diagnostics.DeviationAccumulator.add"), "s"),
        "diagnostics.ConservationGapTracker.__call__.s": (
            self_s("diagnostics.ConservationGapTracker.__call__"), "s"),
        "diagnostics.pointwise_proportionality_check.s": (
            self_s("diagnostics.pointwise_proportionality_check"), "s"),
        "walk.walk_ensemble.s": (self_s("walk.walk_ensemble"), "s"),
        "walk.walker_steps": (walker_steps, "count"),
        "walk.loop_passes": (passes, "count"),
        "walk.ns_per_walker_step": (
            incl_s("walk.walk_ensemble") / walker_steps * 1e9
            if walker_steps else 0.0, "ns"),
        "walk.active_ratio": (
            walker_steps / (first["n_walkers"] * passes) if walk else 0.0,
            "ratio"),
        "grid.points": (points, "count"),
        "grid.array_bytes": (16 * points, "B"),
        "grid.computed_bytes_per_step": (
            per_step(2 * first["trace"]["kernel_bytes"]) if grid else 0.0,
            "B/step"),
        "trace.spans": (sum(v["calls"] for v in spans.values()), "count"),
        "trace.overhead_s": (_median([c["wall_s"] for c in traced])
                             - _median([c["wall_s"] for c in untraced]), "s"),
    }
    # inclusive times where the self time leaves out the work a span
    # stands for (its children are traced too)
    for name in INCLUSIVE:
        metrics[name + ".incl_s"] = (incl_s(name), "s")
    for layer in SUMMED_LAYERS:
        metrics[layer + ".self_s"] = (layer_self(layer), "s")
    return metrics


def _trace_counts(call) -> dict:
    spans = call["trace"]["spans"]
    return {"calls": {k: v["calls"] for k, v in spans.items()},
            "kernel_bytes": call["trace"]["kernel_bytes"],
            "max_step_points": call["trace"]["max_step_points"],
            "work": call["work"]}


def trace_problems(workload, call, reference) -> list[str]:
    """Count checks of one traced call against the work it reported."""
    problems = []
    spans = call["trace"]["spans"]
    for span, key in workload.counted_by:
        got = spans.get(span, {}).get("calls", 0)
        if got != call[key]:
            problems.append("%s.calls is %d, expected %s = %d"
                            % (span, got, key, call[key]))
    if reference is not None and _trace_counts(call) != reference:
        problems.append("span counts differ from the first traced call")
    return problems


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "threads": PINNED_THREADS}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, index)
            with open(os.path.join(path, "level")) as level, \
                    open(os.path.join(path, "size")) as size, \
                    open(os.path.join(path, "type")) as kind:
                if kind.read().strip() != "Instruction":
                    env["L%s" % level.read().strip()] = size.read().strip()
    except OSError:
        pass
    return env


def _read_artifacts(out_dir: str, scenario: str) -> dict:
    found = {}
    for suffix in (".json", ".csv"):
        path = os.path.join(out_dir, scenario + suffix)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                found[suffix] = handle.read()
    return found


def run_call(workload, seed, work_dir, index, traced, timeout):
    """Run one child; returns (result or None, artifacts, stderr text)."""
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(work_dir, "call-%d.json" % index)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT,
           workload.name, str(seed), os.path.relpath(out_dir, ROOT),
           result_path]
    if traced:
        cmd += ["--trace", str(index)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=timeout, check=False)
        stderr = proc.stderr.decode("utf-8", "replace")
    except subprocess.TimeoutExpired:
        return None, {}, "timed out after %.0f s" % timeout
    result = None
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    return result, _read_artifacts(out_dir, workload.scenario), stderr


def setup_probe(workload) -> float:
    """Set-up seconds of a child that imports and parses, then stops."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           ROOT, workload.name, "--setup-only"], cwd=ROOT,
                          env=_child_env(), stdout=subprocess.PIPE,
                          check=True, timeout=60)
    return json.loads(proc.stdout)["setup_s"]


def _child_env() -> dict:
    return dict(os.environ, **PINNED_THREADS)


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    work_dir = os.path.join(ROOT, ".bench_work", workload_name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    setup_probe(workload)  # compiles bytecode and warms the file cache

    calls, failures, setups = [], [], []
    reference_hash = reference_counts = None
    artifact_bytes = 0
    start = time.monotonic()
    durations = []
    while True:
        elapsed = time.monotonic() - start
        predicted = max(durations) if durations else 0.0
        if len(durations) >= MIN_CALLS and elapsed + predicted > seconds:
            break
        if elapsed > HARD_LIMIT_S:
            break
        index = len(durations)
        traced = bool(trace) and index % 2 == 0
        began = time.monotonic()
        result, artifacts, stderr = run_call(
            workload, seed, work_dir, index, traced,
            timeout=max(1.0, HARD_LIMIT_S + 20.0 - elapsed))
        if not trace:
            setups += [setup_probe(workload) for _ in range(SETUP_PROBES)]
        durations.append(time.monotonic() - began)
        problems, digest = assess_call(workload, result, artifacts,
                                       reference_hash)
        if result is not None and traced and not problems:
            problems = trace_problems(workload, result, reference_counts)
            if reference_counts is None:
                reference_counts = _trace_counts(result)
        if problems:
            failures.append((index, problems, stderr.strip()[-2000:]))
            continue
        reference_hash = reference_hash or digest
        artifact_bytes = sum(len(v) for v in artifacts.values())
        result["traced"] = traced
        calls.append(result)

    untraced = [c for c in calls if not c["traced"]]
    traced_calls = [c for c in calls if c["traced"]]
    if trace and traced_calls and untraced:
        metrics = layer_metrics(traced_calls, untraced, artifact_bytes)
    elif not trace and calls:
        metrics = end_to_end_metrics(calls, setups)
    else:
        metrics = None
    return calls, failures, metrics, len(durations), setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the result and samples to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "collapsim", "cli.py")):
        print("no collapsim source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    calls, failures, metrics, attempted, setups = run(
        args.workload, args.seed, args.seconds, args.trace)
    env = environment()
    if calls:
        env.update(calls[0]["versions"])
    print("workload %s seed %d trace %d: %d calls, %d failed; steps are %ss"
          % (args.workload, args.seed, args.trace, attempted, len(failures),
             WORKLOADS[args.workload].unit))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    for index, problems, stderr in failures:
        print("call %d failed: %s" % (index, "; ".join(problems)))
        if stderr:
            print(stderr, file=sys.stderr)
    if metrics is None:
        print("no call succeeded; no metrics", file=sys.stderr)
        return 1
    print("error_rate = %d/%d" % (len(failures), attempted))
    if not args.trace:
        print("wall_s: %s" % tail_summary([c["wall_s"] for c in calls]))
        print("setup_s: %s" % tail_summary(
            [c["setup_s"] for c in calls] + setups))
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.record:
        samples = [{k: c[k] for k in ("setup_s", "wall_s", "cpu_s",
                                      "peak_rss_mb", "work", "traced")}
                   for c in calls]
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "environment": env, "samples": samples,
                "setup_probes": setups,
                "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
