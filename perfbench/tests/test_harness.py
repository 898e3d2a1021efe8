"""Self-test of the benchmark harness, on configs small enough to run in
seconds. It is not part of the repository's test suite; run it with

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import sys
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from spinbundle import cli, dynamics  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_CONFIGS = {
    "free_spin": {"scenario": "free_spin", "field": {"kind": "free"},
                  "t_span": [0.0, 1.0], "samples": 20},
    "gauge_compare": {"scenario": "gauge_compare", "t_span": [0.0, 1.0],
                      "samples": 16, "checks": {"omega_separation": 1e-6}},
    "projected": {"scenario": "stern_gerlach", "t_span": [0.0, 0.5], "samples": 10,
                  "gauge": {"expression": workloads.PROJECTED_GAUGE},
                  "tolerances": {"project_every": 1}},
    "verify_so3": {"scenario": "verify_so3", "seed": 3, "n_points": 3, "n_boosts": 5},
    "verify_lorentz": {"scenario": "verify_lorentz", "seed": 3, "n_points": 4,
                       "n_boosts": 5},
    "verify_t4": {"scenario": "verify_t4", "seed": 3, "n_points": 3, "n_boosts": 5},
}


def write_configs(directory: Path) -> list:
    directory.mkdir(parents=True)
    paths = []
    for stem, cfg in SMALL_CONFIGS.items():
        path = directory / f"{stem}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        paths.append(path)
    return paths


def bindings() -> dict:
    """Every function bound in a spinbundle module, the scenario runners and
    GaugeFunction.derivative."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "spinbundle" or modname.startswith("spinbundle."):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    out[(modname, attr)] = value
    for key, (runner, _) in cli.SCENARIOS.items():
        out[("SCENARIOS", key)] = runner
    out[("GaugeFunction", "derivative")] = dynamics.GaugeFunction.__dict__["derivative"]
    return out


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_traced_pass_matches_untraced_and_restores_bindings(tmp_path):
    configs = write_configs(tmp_path / "configs")
    before = bindings()
    untraced = worker.run_pass(cli, configs, tmp_path / "untraced")

    tracer = tracing.Tracer()
    with tracer.installed():
        assert not same_objects(bindings(), before)
        assert dynamics.poisson_bracket is cli.poisson_bracket is not before[
            ("spinbundle.phasespace", "poisson_bracket")]
        traced = worker.run_pass(cli, configs, tmp_path / "traced", tracer)

    assert same_objects(bindings(), before)
    assert tracer.restored()
    assert not [op for op in untraced["ops"] + traced["ops"] if worker.failed(op)]
    assert worker.outputs([traced]) == worker.outputs([untraced])
    assert traced["margin"] == untraced["margin"]

    names = [m["name"] for m in run.load_benchmark()["per_layer"]
             if m["name"] != "tracing_overhead_s"]
    layers = tracer.layer_metrics(names, traced["wall_s"])
    assert list(layers) == names
    for name in ("constraints.project.calls", "dynamics.gauge_derivative.calls",
                 "dynamics.eom.calls", "constraints.dirac_bracket.calls",
                 "lorentz.calls", "cli.write_timeseries.bytes"):
        assert layers[name] > 0, name
    assert layers["cli.read_timeseries.calls"] == 4
    assert layers["unattributed_s"] >= 0.0


def test_gate_rejects_csv_that_does_not_round_trip(tmp_path):
    config = write_configs(tmp_path / "configs")[0]
    out_dir = tmp_path / "out"
    outcome = worker.run_op(cli, config, out_dir)
    assert not worker.failed(outcome)
    cfg = cli.load_config(config)
    summary = json.loads((out_dir / "free_spin_summary.json").read_text())
    summary["summary_path"] = str(out_dir / "free_spin_summary.json")
    csv = out_dir / summary["artifacts"]["timeseries"]

    def gate_problems():
        tables = {csv.name: cli.read_timeseries(csv)}
        return worker.gate(cfg, out_dir, summary, tables)[0]

    text = csv.read_text()
    assert gate_problems() == []
    # same values, different bytes: "0.0" becomes "0.00"
    csv.write_text(text.replace(",0.0,", ",0.00,", 1))
    assert "round-trip" in gate_problems()[0]
    csv.write_text(text.rsplit("\n", 2)[0] + "\n")
    assert "shape" in gate_problems()[0]


def test_check_margin():
    def check(value, threshold, comparison="max"):
        return {"value": value, "threshold": threshold, "comparison": comparison}

    assert abs(worker.check_margin(check(1e-12, 1e-8)) - 4.0) < 1e-12
    assert abs(worker.check_margin(check(10.0, 0.1, "min")) - 2.0) < 1e-12
    assert worker.check_margin(check(0.0, 1e-8)) == worker.MAX_MARGIN
    assert worker.check_margin(check(1e-6, 1e-8)) < 0.0


def test_repeats_checks_every_pass_against_the_first_cycle():
    def one_pass(*ops):
        return {"ops": [{"op": op, "checks": [{"name": "c", "value": value}],
                         "digests": {}}
                        for op, value in ops]}

    cycle = [one_pass(("a", 1.0), ("b", 2.0)), one_pass(("c", 3.0))]
    first = worker.outputs(cycle)
    assert worker.repeats(cycle + cycle + cycle[:1], first)
    # a middle cycle that differs is caught, not overwritten by a later one
    assert not worker.repeats(
        cycle + [one_pass(("a", 1.0), ("b", 2.5))] + cycle, first)
    assert not worker.repeats(cycle + [one_pass(("d", 3.0))], first)


def test_workload_inputs_follow_the_seed(tmp_path):
    for name in ("projected", "verify"):
        def texts(seed, where):
            cycle = workloads.WORKLOADS[name].passes(seed, ROOT, tmp_path / where)
            return [path.read_text() for group in cycle for path in group]

        assert texts(5, f"{name}-a") == texts(5, f"{name}-b")
        assert texts(5, f"{name}-a") != texts(6, f"{name}-c")


def test_benchmark_json_matches_the_harness():
    bench = run.load_benchmark()
    assert bench["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "check_margin_decades"]
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
