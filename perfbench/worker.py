"""One benchmark worker: set up a workload, time its passes, report JSON.

run.py starts each worker in a fresh single-threaded interpreter, so that
every worker pays the set-up a `spinbundle` invocation pays. The worker
prints one JSON object on stdout and nothing else there.

    python3 perfbench/worker.py --workload verify --seed 0 --seconds 30 \
        --trace 0 --t0 <time.monotonic() of the parent at spawn> --workdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
import time
from statistics import fmean
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The time-series layout the benchmark holds the program to.
HEADER = (
    "t", "x1", "x2", "x3", "p1", "p2", "p3",
    "omega1", "omega2", "omega3", "pi1", "pi2", "pi3", "phi",
    "S1", "S2", "S3", "H_phys", "res_omega_sq", "res_pi_sq", "res_omega_pi",
)
MAX_MARGIN = 16.0
VALUE_FLOOR = 1e-300


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_margin(check: dict) -> float:
    """Decades of headroom of one check, capped at MAX_MARGIN; negative when
    the check fails."""
    value = max(abs(check["value"]), VALUE_FLOOR)
    threshold = check["threshold"]
    if check["comparison"] == "max":
        margin = math.log10(threshold / value)
    else:
        margin = math.log10(value / threshold)
    return min(margin, MAX_MARGIN)


def gate(cfg: dict, out_dir: Path, summary: dict, tables: dict) -> tuple:
    """Check the written artifacts; returns (problems, sha256 per file).

    Every CSV must have the 21-column header and one row per requested
    sample, and re-formatting its parsed rows with repr must give back the
    file's bytes exactly.
    """
    problems: List[str] = []
    digests: Dict[str, str] = {}
    for name, (names, data) in tables.items():
        raw = (out_dir / name).read_bytes()
        digests[name] = hashlib.sha256(raw).hexdigest()
        if tuple(names) != HEADER:
            problems.append(f"{name}: header is not the 21 time-series columns")
            continue
        rows = cfg.get("samples")
        if data.shape != (rows, len(HEADER)):
            problems.append(f"{name}: shape {data.shape}, expected ({rows}, 21)")
            continue
        lines = [",".join(HEADER)]
        lines += [",".join(repr(v) for v in row) for row in data.tolist()]
        if ("\n".join(lines) + "\n").encode() != raw:
            problems.append(f"{name}: rows do not round-trip to the file bytes")
    summary_path = Path(summary["summary_path"])
    digests[summary_path.name] = sha256(summary_path)
    return problems, digests


def run_op(cli, config: Path, out_dir: Path, tracer=None) -> dict:
    """Load, run and read back one config; only those three calls are timed."""
    outcome = {"op": config.stem, "exit_code": None, "error": None,
               "problems": [], "checks": [], "digests": {}, "seconds": 0.0}
    try:
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        cfg = cli.load_config(config)
        if tracer is not None:
            tracer.op_scenarios[-1] = cfg["scenario"]
        code, summary = cli.run_config(cfg, out_dir=out_dir)
        tables = {name: cli.read_timeseries(out_dir / name)
                  for name in summary["artifacts"].values()}
        outcome["seconds"] = time.perf_counter() - start
    except Exception:  # an op that raises is counted as failed, not fatal
        outcome["error"] = traceback.format_exc(limit=3)
        return outcome
    outcome["exit_code"] = code
    outcome["checks"] = summary["checks"]
    outcome["problems"], outcome["digests"] = gate(cfg, out_dir, summary, tables)
    return outcome


def failed(outcome: dict) -> bool:
    return bool(outcome["error"] or outcome["exit_code"] != 0 or outcome["problems"])


def run_pass(cli, configs: List[Path], workdir: Path, tracer=None) -> dict:
    ops = [run_op(cli, config, workdir / "out" / config.stem, tracer)
           for config in configs]
    margins = [check_margin(c) for op in ops for c in op["checks"]]
    # an op that raised has no headroom at all
    if any(op["error"] for op in ops) or not margins:
        margins.append(-MAX_MARGIN)
    return {
        "wall_s": sum(op["seconds"] for op in ops),
        "margin": min(margins),
        "ops": ops,
    }


def outputs(passes: List[dict]) -> Dict[str, dict]:
    """Check values and artifact digests of every op, keyed by op; the ops of
    the passes must have distinct names, as within one cycle."""
    return {op["op"]: {"checks": [(c["name"], c["value"]) for c in op["checks"]],
                       "digests": op["digests"]}
            for p in passes for op in p["ops"]}


def repeats(passes: List[dict], first: Dict[str, dict]) -> bool:
    """True when every op of every pass gave the same check values and
    digests as the same op in the first cycle."""
    return all(first.get(op) == value
               for p in passes for op, value in outputs([p]).items())


def measure(workload: str, seed: int, seconds: float, trace: bool, t0: float,
            workdir: Path, setup_only: bool = False,
            spans_path: Optional[Path] = None) -> dict:
    """Set up the workload, then run its cycle of passes once and repeat
    passes while the next one is expected to end inside `seconds`; with
    `trace`, run the cycle once more under the tracer."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from spinbundle import cli
    from tracing import Tracer, save_spans
    from workloads import WORKLOADS

    cycle = WORKLOADS[workload].passes(seed, ROOT, workdir)
    configs = {path.stem: sha256(path) for group in cycle for path in group}
    for group in cycle:
        for path in group:
            cli.load_config(path)
    setup_s = time.monotonic() - t0
    result = {
        "setup_s": setup_s,
        "configs": configs,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if setup_only:
        return result

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, cycle[len(passes) % len(cycle)], workdir))
        elapsed = time.perf_counter() - begin
        if len(passes) >= len(cycle) and elapsed + passes[-1]["wall_s"] > seconds:
            break
    first = outputs(passes[:len(cycle)])
    result["deterministic"] = repeats(passes, first)

    traced = []
    if trace:
        tracer = Tracer()
        with tracer.installed():
            traced = [run_pass(cli, group, workdir, tracer) for group in cycle]
        result["restored"] = tracer.restored()
        result["trace_matches"] = outputs(traced) == first
        traced_wall = sum(p["wall_s"] for p in traced)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = tracer.layer_metrics(
            [m["name"] for m in bench["per_layer"] if m["name"] != "tracing_overhead_s"],
            traced_wall)
        layers["tracing_overhead_s"] = (fmean(p["wall_s"] for p in traced)
                                        - fmean(p["wall_s"] for p in passes))
        result["layers"] = layers
        result["traced_wall_s"] = [p["wall_s"] for p in traced]
        if spans_path is not None:
            save_spans(tracer, spans_path)

    every = [op for p in passes + traced for op in p["ops"]]
    result.update({
        "wall_s": [p["wall_s"] for p in passes],
        "margins": [p["margin"] for p in passes[:len(cycle)]],
        "attempted": len(every),
        "failed": sum(failed(op) for op in every),
        "failures": [{k: op[k] for k in ("op", "exit_code", "error", "problems")}
                     for op in every if failed(op)][:5],
        "outputs": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.t0, args.workdir, args.setup_only, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
