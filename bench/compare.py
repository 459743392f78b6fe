"""Compare a parent and a change result set of the benchmark.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --trace 0 --record FILE`` appended.
Runs of one workload pair up in file order, so record the two sides
alternately with the same ``--seconds``. Bounds and directions come from
``BENCHMARK.json`` at the checkout root.

For each workload and end-to-end metric the verdict is, in this order:

* improved: the change reads better in at least 9 of every 10 pairs
  (ties count for neither side) and the medians differ by more than the
  parent's interquartile range;
* unresolved: the parent's interquartile range exceeds the bound (as a
  share of its median), unless every change run reads better than every
  parent run, which is "no worse";
* worse: the change's median is worse than the parent's by more than
  the bound;
* no worse: otherwise.

Every ratio is printed with its base, the parent median.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """{workload: [result, ...]} in file order, untraced runs only."""
    runs: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs.setdefault(record["workload"], []).append(
                        record["result"])
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better: str, bound: float) -> dict:
    """Classify one metric from the parent's and the change's run values."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    base = statistics.median(parent)
    mid = statistics.median(change)
    q1, q3 = _quartiles(parent)
    spread = (q3 - q1) / abs(base) if base else float("inf")
    if (pairs and 10 * wins >= 9 * len(pairs)
            and sign * (mid - base) > q3 - q1):
        kind = "improved"
    elif spread > bound:
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        kind = "no worse" if every else "unresolved"
    elif -sign * (mid - base) > bound * abs(base):
        kind = "worse"
    else:
        kind = "no worse"
    return {"verdict": kind, "wins": wins, "pairs": len(pairs),
            "parent": (base, q1, q3, len(parent)),
            "change": (mid,) + _quartiles(change) + (len(change),),
            "ratio": mid / base if base else float("inf"), "spread": spread}


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list[str]:
    lines = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            lines.append("%s: runs on one side only, not compared" % workload)
            continue
        failed = (sum(r["failed"] for r in parent),
                  sum(r["failed"] for r in change))
        lines.append("%s: %d parent runs, %d change runs, failed calls %d "
                     "parent / %d change" % (workload, len(parent),
                                             len(change), *failed))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = verdict([r["metrics"][name]["value"] for r in parent],
                        [r["metrics"][name]["value"] for r in change],
                        metric["better"], metric["bound"])
            if v["verdict"] == "improved" and failed[1] > failed[0]:
                v["verdict"] = "no gain: more calls failed"
            unit = metric["unit"]
            lines.append(
                "  %-12s parent %.6g %s [%.6g, %.6g] n=%d | change %.6g %s "
                "[%.6g, %.6g] n=%d | change/parent %.4f of %.6g %s | "
                "parent spread %.3f vs bound %.3f | wins %d/%d | %s"
                % ((name, v["parent"][0], unit) + v["parent"][1:]
                   + (v["change"][0], unit) + v["change"][1:]
                   + (v["ratio"], v["parent"][0], unit, v["spread"],
                      metric["bound"], v["wins"], v["pairs"],
                      v["verdict"])))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    for line in compare(load_runs(argv[0]), load_runs(argv[1]), spec):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
