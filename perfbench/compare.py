"""Summaries of result records, and the comparison of two of them.

A record is {"runs": [...]} as `run.py collect` or `run.py --record` write
it. The spread of a metric is the distance between its first and third
quartiles as a share of its median.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List


def quartiles(values: List[float]) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def by_workload(runs: List[dict]) -> Dict[str, dict]:
    """Per workload: untraced metric values, traced layer values, ops and
    the artifact digests seen for each op file."""
    out: Dict[str, dict] = {}
    for run in runs:
        entry = out.setdefault(run["workload"], {
            "metrics": {}, "layers": {}, "attempted": 0, "failed": 0,
            "digests": {}})
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        target = entry["layers"] if run["trace"] else entry["metrics"]
        for name, value in (run["layers"] if run["trace"] else run["metrics"]).items():
            target.setdefault(name, []).append(value)
        for op, output in run["outputs"].items():
            for name, digest in output["digests"].items():
                entry["digests"].setdefault(f"{op}/{name}", set()).add(digest)
    return out


def print_summary(runs: List[dict], bench: dict) -> None:
    for workload, entry in by_workload(runs).items():
        print(f"== {workload}: ops attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for spec in bench["end_to_end"]:
            values = entry["metrics"].get(spec["name"])
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            print(f"  {spec['name']:<22} median {q2:.6g} {spec['unit']} "
                  f"[{q1:.6g}, {q3:.6g}], n={len(values)}, spread "
                  f"{spread(values):.2%} (bound {spec['bound']:.0%})")
        for spec in bench["per_layer"]:
            values = entry["layers"].get(spec["name"])
            if values:
                print(f"  {spec['name']:<38} {median(values):.6g} {spec['unit']}")
        counts = [v for name, v in entry["layers"].items() if name.endswith(".calls")]
        if counts and len(counts[0]) > 1:
            same = all(len(set(v)) == 1 for v in counts)
            print(f"  call counts repeat across {len(counts[0])} traced runs: {same}")


def verdict(base: List[float], new: List[float], spec: dict) -> str:
    """better, worse, unchanged (within the bound) or unresolved (the
    spread is wider than the bound and the runs overlap)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base_median = median(base)
    worsening = sign * (median(new) - base_median) / abs(base_median)
    if all(sign * (x - y) < 0 for x in new for y in base):
        return "better"
    if all(sign * (x - y) > 0 for x in new for y in base) and worsening > spec["bound"]:
        return "worse"
    if max(spread(base), spread(new)) > spec["bound"]:
        return "unresolved"
    if worsening > spec["bound"]:
        return "worse"
    if -worsening > spread(base):
        return "better"
    return "unchanged"


def compare(base_runs: List[dict], new_runs: List[dict], bench: dict) -> None:
    base, new = by_workload(base_runs), by_workload(new_runs)
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"== {workload}: only in one record")
            continue
        a, b = base[workload], new[workload]
        print(f"== {workload}: ops failed {a['failed']}/{a['attempted']} -> "
              f"{b['failed']}/{b['attempted']}")
        for spec in bench["end_to_end"]:
            va, vb = a["metrics"].get(spec["name"]), b["metrics"].get(spec["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            print(f"  {spec['name']:<22} {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
                  f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {spec['unit']}, "
                  f"ratio {qb[1] / qa[1]:.4f}: {verdict(va, vb, spec)}")
        for spec in bench["per_layer"]:
            va, vb = a["layers"].get(spec["name"]), b["layers"].get(spec["name"])
            if not va or not vb:
                continue
            ma, mb = median(va), median(vb)
            ratio = f"{mb / ma:.4f}" if ma else "-"
            print(f"  {spec['name']:<38} {ma:.6g} -> {mb:.6g} {spec['unit']} "
                  f"(delta {mb - ma:+.6g}, ratio {ratio})")
        for name in sorted(set(a["digests"]) | set(b["digests"])):
            da, db = a["digests"].get(name, set()), b["digests"].get(name, set())
            if da != db:
                print(f"  artifact {name}: {sorted(da) or 'absent'} -> "
                      f"{sorted(db) or 'absent'}")


def compare_main(argv, bench: dict) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    runs = [json.loads(path.read_text())["runs"] for path in (args.base, args.new)]
    compare(runs[0], runs[1], bench)
    return 0
