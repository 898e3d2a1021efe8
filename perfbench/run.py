"""Benchmark of spinbundle: end-to-end metrics per workload, per-layer costs
from a traced pass, and a comparison of two result records.

Run from the root of the repository:

    python3 perfbench/run.py --workload scenarios --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py collect --out results.json
    python3 perfbench/run.py compare perfbench/baseline/seed.json results.json

The first form runs one workload: the measuring worker between two groups of
set-up-only workers, each a fresh single-threaded interpreter. Its last line on
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. `--record PATH` also writes the full result record, and
the spans of a traced run beside it. `collect` runs every workload untraced
at seeds 0-9 and traced twice at seed 0, and prints each metric's median and
quartiles; `compare` reads two such records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

from compare import compare_main, print_summary
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Set-up-only workers before and after the measuring worker: the speed of a
# shared processor drifts over a run, and probes at both ends of it see more
# of that drift than probes taken back to back.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 4
COLLECT_SEEDS = range(10)
COLLECT_TRACED = 2
RUN_LIMIT_S = 170.0
PROBE_LIMIT_S = 10.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args: list, timeout: float) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_head():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             spans_path=None) -> dict:
    """One run of one workload; returns its full result record."""
    started = time.monotonic()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(int(trace)), "--workdir", str(workdir)]
    probe_args = args + ["--setup-only"]
    if spans_path is not None:
        args += ["--spans", str(spans_path)]
    try:
        probes = [_spawn(probe_args, timeout=PROBE_LIMIT_S)
                  for _ in range(SETUP_PROBES_BEFORE)]
        main = _spawn(args, timeout=RUN_LIMIT_S - SETUP_PROBES_AFTER * PROBE_LIMIT_S
                      - (time.monotonic() - started))
        probes += [_spawn(probe_args, timeout=PROBE_LIMIT_S)
                   for _ in range(SETUP_PROBES_AFTER)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
    correct = (main["failed"] == 0 and main["deterministic"]
               and (not trace or (main["restored"] and main["trace_matches"])))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "failures": main["failures"],
        "metrics": {
            # the mean pass: on a shared machine the speed of the processor
            # changes every few seconds, and a mean over the run averages those
            # changes where a median or a minimum of short passes jumps
            "wall_s": fmean(main["wall_s"]),
            "setup_s": median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
            # the least headroom of any check of any op in the cycle
            "check_margin_decades": min(main["margins"]),
        },
        "layers": main.get("layers"),
        "samples": {
            "wall_s": main["wall_s"],
            "setup_s": setups,
            "check_margin_decades": main["margins"],
            "traced_wall_s": main.get("traced_wall_s"),
        },
        "outputs": main["outputs"],
        "provenance": {
            **main["versions"],
            "nproc": len(os.sched_getaffinity(0)),
            "git_head": _git_head(),
            "seed": seed,
            "seed_used": WORKLOADS[workload].seeded,
            "seconds": seconds,
            "argv": sys.argv,
            "configs": main["configs"],
        },
    }


def contract_line(record: dict, bench: dict) -> dict:
    """The result object: end-to-end metrics untraced, per-layer traced."""
    if record["trace"]:
        specs, values = bench["per_layer"], record["layers"]
    else:
        specs, values = bench["end_to_end"], record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }


def _layout_ok() -> bool:
    return ((ROOT / "src" / "spinbundle" / "__init__.py").is_file()
            and (ROOT / "configs").is_dir())


def run_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the full result record here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    bench = load_benchmark()
    spans = args.record.with_suffix(".spans.npz").resolve() \
        if args.record and args.trace else None
    record = run_once(args.workload, args.seed, args.seconds, bool(args.trace), spans)
    if args.record:
        args.record.write_text(json.dumps({"runs": [record]}, indent=1) + "\n")
    line = contract_line(record, bench)
    for name, entry in line["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} ops attempted {record['attempted']}, "
          f"failed {record['failed']}")
    for failure in record["failures"]:
        print(f"failed op {failure['op']}: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def collect_main(argv) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(prog="perfbench/run.py collect")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = []
    for workload in WORKLOADS:
        plan = [(seed, False) for seed in COLLECT_SEEDS]
        plan += [(COLLECT_SEEDS[0], True)] * COLLECT_TRACED
        for seed, trace in plan:
            record = run_once(workload, seed, bench["run_seconds"], trace)
            runs.append(record)
            m = record["metrics"]
            print(f"{workload} seed {seed} trace {int(trace)}: "
                  f"wall {m['wall_s']:.4f} s, setup {m['setup_s']:.4f} s, "
                  f"rss {m['peak_rss_mb']:.1f} MB, margin "
                  f"{m['check_margin_decades']:.3f}, ops {record['attempted']} "
                  f"failed {record['failed']}, correct {record['correct']}",
                  flush=True)
            args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print_summary(runs, bench)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not _layout_ok():
        print(f"perfbench: no spinbundle sources under {ROOT}", file=sys.stderr)
        return 2
    if argv[:1] == ["collect"]:
        return collect_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:], load_benchmark())
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
