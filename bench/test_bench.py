"""Tests of the benchmark itself: call checks, compare verdicts, tracing.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TWO_LEVEL = WORKLOADS["two_level_ensemble"]
GRID = WORKLOADS["grid2d_scattering"]
CONFIG = {"backend": "finite", "ensemble": {"n_traj": 300, "master_seed": 1}}
BODY = {"n_trajectories": 300, "initial_weight_in": 0.3,
        "fraction_absorbed_in": 0.31, "fraction_unresolved": 0.0}
RESULT = {"exit_code": 0, "config": CONFIG}


def artifacts(body=None, text=None):
    text = json.dumps(BODY if body is None else body) if text is None else text
    return {".json": text.encode("utf-8"), ".csv": b"time,mean_weight_in\n"}


def test_a_good_call_passes_and_repeats():
    problems, digest = run.assess_call(TWO_LEVEL, RESULT, artifacts(), None)
    assert problems == []
    again, _ = run.assess_call(TWO_LEVEL, RESULT, artifacts(), digest)
    assert again == []


@pytest.mark.parametrize("case", ["corrupted", "nan", "infinity", "physics",
                                  "bytes", "exit", "missing", "no_result"])
def test_each_defect_fails_the_call(case):
    result, found, reference = RESULT, artifacts(), None
    if case == "corrupted":
        found = artifacts(text=json.dumps(BODY)[:-7])
    elif case == "nan":
        found = artifacts(text=json.dumps(BODY).replace("0.31", "NaN"))
    elif case == "infinity":
        found = artifacts(text=json.dumps(BODY).replace("0.0}", "-Infinity}"))
    elif case == "physics":
        found = artifacts(dict(BODY, fraction_absorbed_in=0.5))
    elif case == "bytes":
        _, reference = run.assess_call(TWO_LEVEL, RESULT,
                                       artifacts(dict(BODY, extra=1)), None)
    elif case == "exit":
        result = dict(RESULT, exit_code=3)
    elif case == "missing":
        found = {}
    else:
        result = None
    problems, _ = run.assess_call(TWO_LEVEL, result, found, reference)
    assert problems


def test_the_angular_gap_ratio_alone_is_not_gated():
    check = WORKLOADS["conservation_suite"].check
    rows = [{"name": "angular_momentum_gap_ratio", "passed": False,
             "value": 0.5, "low": 3.0, "high": 5.0},
            {"name": "momentum_gap_ratio", "passed": True,
             "value": 4.0, "low": 3.0, "high": 5.0}]
    assert check({}, {"status": "ok", "checks": rows}) == []
    rows[1] = dict(rows[1], passed=False)
    assert check({}, {"status": "ok", "checks": rows})


def test_walk_check_flags_a_biased_scan():
    check = WORKLOADS["walk_scan"].check
    body = {"n_walkers": 10000, "max_unresolved": 0.0,
            "weights": [0.2, 0.5, 0.8], "exit_fractions": [0.2, 0.5, 0.8],
            "slope": 1.0}
    assert check({}, body) == []
    assert check({}, dict(body, exit_fractions=[0.2, 0.55, 0.8]))
    assert check({}, dict(body, slope=1.2))


def test_trace_counts_must_match_the_work():
    call = {"work": 100, "trace": {"spans": {
        "integrator.ito_step": {"calls": 99, "incl_s": 1.0, "self_s": 1.0}},
        "kernel_bytes": 0, "max_step_points": 4}}
    assert run.trace_problems(GRID, call, None)
    call["trace"]["spans"]["integrator.ito_step"]["calls"] = 100
    assert run.trace_problems(GRID, call, None) == []
    reference = run._trace_counts(call)
    changed = json.loads(json.dumps(call))
    changed["trace"]["kernel_bytes"] = 8
    assert run.trace_problems(GRID, changed, reference)


def test_tail_summary_needs_ten_samples_beyond_the_percentile():
    assert "too few" in run.tail_summary([1.0] * 19)
    assert "p50" not in run.tail_summary([float(i) for i in range(20)])
    assert "p75" in run.tail_summary([float(i) for i in range(40)])
    assert "p90" in run.tail_summary([float(i) for i in range(100)])


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


@pytest.mark.parametrize("change, better, bound, expected", [
    ([v * 0.8 for v in PARENT], "lower", 0.1, "improved"),
    ([v * 0.8 for v in PARENT], "higher", 0.1, "worse"),
    ([v * 1.3 for v in PARENT], "lower", 0.1, "worse"),
    ([v * 1.02 for v in PARENT], "lower", 0.1, "no worse"),
    ([v * 0.99 for v in PARENT[:5]] + PARENT[5:], "lower", 0.1, "no worse"),
])
def test_compare_verdicts(change, better, bound, expected):
    result = compare.verdict(PARENT, change, better, bound)
    assert result["verdict"] == expected


def test_compare_reports_a_wide_spread_as_unresolved():
    parent = [10.0, 14.0, 7.0, 12.0, 9.0, 13.0, 8.0, 11.0, 10.0, 12.5]
    change = [11.0, 9.0, 13.0, 8.0, 12.0, 10.0, 14.0, 9.5, 11.5, 10.5]
    result = compare.verdict(parent, change, "lower", 0.1)
    assert result["spread"] > 0.1
    assert result["verdict"] == "unresolved"
    shifted = [v + 100.0 for v in parent]
    assert compare.verdict(shifted, parent, "lower", 0.1)["verdict"] in (
        "improved", "no worse")


def test_compare_prints_every_metric_with_its_base():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}]}

    def runs(values):
        return {"w": [{"failed": 0, "metrics": {"wall_s": {"value": v}}}
                      for v in values]}

    lines = compare.compare(runs(PARENT), runs([v * 0.8 for v in PARENT]),
                            spec)
    assert "improved" in lines[1] and "of 10 s" in lines[1]


def test_tracer_wraps_every_binding_site():
    script = """
import sys
sys.path[:0] = [%r, %r]
import tracer
import collapsim.collapse, collapsim.diagnostics, collapsim.integrator
from collapsim.diagnostics import ConservationGapTracker
t = tracer.Tracer(0)
tracer.install(t)
for f in (collapsim.collapse.derivative1, collapsim.diagnostics.derivative1,
          collapsim.integrator.total_diagonal,
          collapsim.diagnostics.total_diagonal,
          ConservationGapTracker.__call__, ConservationGapTracker.observe):
    assert hasattr(f, "traced_original"), f
assert ConservationGapTracker.__call__ is not ConservationGapTracker.observe
import numpy as np
collapsim.operators.derivative1(np.zeros(8), 0, 0.5, "spectral")
spans = t.aggregate()
assert spans["operators.derivative1"]["calls"] == 1
assert spans["numpy.fft.fft"]["calls"] == 1
print("ok")
""" % (HERE, os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "ok", out.stderr


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "walk_scan", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
