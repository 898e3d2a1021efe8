"""Config parsing, gauge expression grammar, artifact formats, scenario
orchestration, and command-line exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import spinbundle
from spinbundle.bundle_so3 import sample_surface_point
from spinbundle.cli import (
    CONFIG_TABLE,
    ConfigError,
    SCENARIO_CHECKS,
    SCENARIOS,
    TIMESERIES_COLUMNS,
    _shown,
    load_config,
    main,
    parse_gauge_expression,
    read_timeseries,
    run_config,
    validate_config,
    write_timeseries,
)
from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    ModelParams,
    integrate,
)
from spinbundle.errors import GaugeError, OffSurfaceWarning, SpinBundleError
from spinbundle.phasespace import PhasePoint


FAST_FREE_SPIN = {
    "scenario": "free_spin",
    "t_span": [0.0, 2.0],
    "samples": 32,
}

FAST_VERIFY = {"n_points": 10, "n_boosts": 50}


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_validate_minimal_config():
    cfg = {"scenario": "free_spin"}
    assert validate_config(cfg) is cfg


def test_validate_rejects_non_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        validate_config([1, 2, 3])


def test_validate_requires_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        validate_config({"samples": 100})


def test_validate_rejects_unknown_scenario():
    with pytest.raises(ConfigError, match="zitterbewegung"):
        validate_config({"scenario": "zitterbewegung"})


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="extra"):
        validate_config({"scenario": "larmor", "extra": 1})
    with pytest.raises(ConfigError, match=r"\$\.params"):
        validate_config({"scenario": "larmor", "params": {"spin": 2}})


def test_validate_reports_field_paths():
    with pytest.raises(ConfigError, match=r"\$\.boost\.beta_max"):
        validate_config({"scenario": "verify_lorentz", "boost": {"beta_max": 1.0}})
    with pytest.raises(ConfigError, match=r"\$\.samples"):
        validate_config({"scenario": "free_spin", "samples": 4})
    with pytest.raises(ConfigError, match=r"\$\.initial\.omega"):
        validate_config({"scenario": "free_spin",
                         "initial": {"omega": [1.0, 0.0]}})


def test_validate_field_block():
    validate_config({"scenario": "larmor",
                     "field": {"kind": "uniform", "B0": [0.0, 0.0, 2.0]}})
    with pytest.raises(ConfigError, match=r"\$\.field"):
        validate_config({"scenario": "larmor", "field": {"B0": 1.0}})
    with pytest.raises(ConfigError, match=r"\$\.field\.kind"):
        validate_config({"scenario": "larmor", "field": {"kind": "dipole"}})


def test_load_config_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "scenario: larmor\n"
        "periods: 2\n"
        "field:\n"
        "  kind: uniform\n"
        "  B0: 1.5\n")
    cfg = load_config(path)
    assert cfg["scenario"] == "larmor"
    assert cfg["field"]["B0"] == 1.5


def test_load_config_accepts_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "free_spin", "samples": 16}))
    assert load_config(path)["samples"] == 16


def test_load_config_reports_yaml_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: larmor\nfield: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


@pytest.mark.parametrize("literal", ["1" * 5000, "0x" + "f" * 5000],
                         ids=["decimal", "hex"])
def test_main_rejects_an_integer_past_the_digit_limit(literal, tmp_path, capsys):
    """PyYAML cannot convert a 5,000-digit decimal literal, and a hex one
    converts but has no decimal repr: either is a one-line config error."""
    path = tmp_path / "cfg.yaml"
    path.write_text(f"scenario: free_spin\nseed: {literal}\n")
    assert main(["run", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.yaml")


# The config table, read as data: every key path it declares, a value each
# spec accepts, and values it must reject at that path.

def table_paths(spec, path=()):
    """(path, spec) for every key of the table and the first item of every
    list; a path is a tuple of keys and list indices, "*" taken as "all"."""
    yield path, spec
    if spec[0] == "mapping":
        for key, sub in spec[1].items():
            yield from table_paths(sub, path + ("all" if key == "*" else key,))
    elif spec[0] == "list":
        yield from table_paths(spec[2], path + (0,))


def json_path(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def accepted(spec):
    kind = spec[0]
    if kind == "mapping":
        return {key: accepted(spec[1][key]) for key in spec[2]}
    if kind == "list":
        return [accepted(spec[2])] * spec[1]
    if kind == "integer":
        return spec[1]
    if kind == "enum":
        return spec[1][0]
    return "1" if kind == "string" else 0.5


def rejected(spec):
    """A value of the wrong type and, where spec has a range, values out of
    it; each must be named at the spec's own path."""
    kind = spec[0]
    if kind == "mapping":
        return [[]]
    if kind == "list":
        return ["x", [accepted(spec[2])] * (spec[1] + 1)]
    if kind == "either":
        return ["x", [0.5, 0.5], float("nan")]
    if kind == "number":
        return ["x", True, float("nan"), float("inf"),
                *(bound for bound in spec[1:] if bound is not None)]
    if kind == "integer":
        return ["x", True, float(spec[1]), spec[1] - 1]
    if kind == "string":
        return [5] + ([""] if spec[1] else [])
    return [5, "nope"]


def config_with(path, value):
    """A config the table accepts except for value at path."""
    cfg = dict(scenario="free_spin")
    node, spec = cfg, CONFIG_TABLE
    for key in path[:-1]:
        spec = spec[1].get(key, spec[1].get("*"))
        node = node.setdefault(key, accepted(spec))
    node[path[-1]] = value
    return cfg


TABLE_CASES = [
    pytest.param(path, value, id=f"{json_path(path)}={value!r}")
    for path, spec in table_paths(CONFIG_TABLE) if path
    for value in rejected(spec)
]


@pytest.mark.parametrize("path, value", TABLE_CASES)
def test_table_rejects_each_key_at_its_path(path, value):
    with pytest.raises(ConfigError) as info:
        validate_config(config_with(path, value))
    message = str(info.value)
    assert message.startswith(f"{json_path(path)}: ")
    assert "\n" not in message


@pytest.mark.parametrize("path, spec", [
    pytest.param(path, spec, id=json_path(path))
    for path, spec in table_paths(CONFIG_TABLE) if spec[0] == "mapping"
])
def test_table_rejects_an_unknown_key_at_each_mapping(path, spec):
    mapping = {**accepted(spec), "bogus": 1}
    cfg = config_with(path, mapping) if path else mapping
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    # a key is unknown to a mapping of fixed keys, and to the checks mapping
    # when the scenario has no check of that name
    where = f"{json_path(path)}.bogus" if "*" in spec[1] else json_path(path)
    message = str(info.value)
    assert message.startswith(f"{where}: ") and "'bogus'" in message
    assert "\n" not in message


def test_validation_names_the_smallest_bad_path():
    cfg = {"scenario": "free_spin", "samples": 4, "params": {"m": -1}}
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert str(info.value).startswith("$.params.m: ")


def traffic_configs():
    """The configs users and the command line feed the validator."""
    root = Path(__file__).resolve().parents[1]
    configs = [yaml.safe_load(path.read_text())
               for path in sorted((root / "configs").glob("*.yaml"))]
    assert len(configs) == 4
    for suite in ("verify_so3", "verify_lorentz", "verify_t4"):
        for seed in range(8):
            configs.append({"scenario": suite, "seed": seed})
            configs.append({"scenario": suite, "seed": seed,
                            "checks": {"all": 1e-6}})
    stern_gerlach = configs[3]
    assert stern_gerlach["scenario"] == "stern_gerlach"
    params = ModelParams()
    omega, pi = sample_surface_point(np.random.default_rng(0), a=params.a,
                                     b=params.b)
    configs.append({
        **stern_gerlach,
        "initial": {**stern_gerlach["initial"],
                    "omega": omega.tolist(), "pi": pi.tolist()},
        "gauge": {"expression": "1 + 0.5*sin(2*t)"},
        "tolerances": {"project_every": 1},
        "output": {"prefix": "projected_0"},
    })
    return configs


def test_table_accepts_the_configs_in_use_unchanged():
    for cfg in traffic_configs():
        before = json.dumps(cfg, sort_keys=True)
        assert validate_config(cfg) is cfg
        assert json.dumps(cfg, sort_keys=True) == before


# ---------------------------------------------------------------------------
# Gauge expression grammar
# ---------------------------------------------------------------------------

def test_gauge_expression_constant():
    g = parse_gauge_expression("1")
    assert g(17.3) == 1.0
    assert g.label == "1"


def test_gauge_expression_trig():
    g = parse_gauge_expression("1 + 0.5*sin(2*t)")
    assert_allclose(g(0.3), 1.0 + 0.5 * np.sin(0.6))
    assert_allclose(g.derivative(0.3), np.cos(0.6), atol=1e-8)


def test_gauge_expression_nested_calls():
    g = parse_gauge_expression("exp(-t/10)*cos(t) + 2", label="damped")
    assert_allclose(g(1.2), np.exp(-0.12) * np.cos(1.2) + 2)
    assert g.label == "damped"


DERIVATIVE_TIMES = np.linspace(0.1, 2.9, 15)


def test_constant_gauge_derivative_is_exactly_zero():
    for expression in ("1", "2*3 - 1/4", "-exp(1)"):
        g = parse_gauge_expression(expression)
        assert all(g.derivative(t) == 0.0 for t in DERIVATIVE_TIMES)


@pytest.mark.parametrize("expression", [
    "t**2",                    # power not in the grammar
    "__import__('os')",
    "sin(t, 2)",
    "sin()",
    "u + 1",
    "lambda t: t",
    "t if t > 0 else 1",
    "True",
    "'abc'",
    "min(t, 1)",
    "t.real",
    "[1, 2][0]",
])
def test_gauge_expression_rejects(expression):
    with pytest.raises(ConfigError):
        parse_gauge_expression(expression)


def test_gauge_expression_syntax_error():
    with pytest.raises(ConfigError, match="parse"):
        parse_gauge_expression("1 +")


# ---------------------------------------------------------------------------
# Time series artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_trajectory():
    params = ModelParams()
    z0 = PhasePoint(x=[0, 0, 0], p=[1, 0, 0],
                    omega=[params.a, 0, 0], pi=[0, 0, params.b])
    return integrate(z0, [0.0, 0.5, 1.0], params, FieldConfig.uniform((0, 0, 1)),
                     GaugeFunction.constant(1.0))


def test_timeseries_layout(tiny_trajectory, tmp_path):
    assert len(TIMESERIES_COLUMNS) == 21
    path = write_timeseries(tiny_trajectory, tmp_path / "run.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + 3 samples
    assert lines[0] == ",".join(TIMESERIES_COLUMNS)
    assert all(len(line.split(",")) == 21 for line in lines)


def test_timeseries_round_trip(tiny_trajectory, tmp_path):
    path = write_timeseries(tiny_trajectory, tmp_path / "run.csv")
    names, data = read_timeseries(path)
    assert names == TIMESERIES_COLUMNS
    # repr round trip is exact, not merely close
    assert np.array_equal(data[:, 0], tiny_trajectory.times)
    assert np.array_equal(data[:, 1:14], tiny_trajectory.states[:, :13])
    assert np.array_equal(data[:, 14:17], tiny_trajectory.spin)
    assert np.array_equal(data[:, 17], tiny_trajectory.h_phys)
    assert np.array_equal(data[:, 18:21], tiny_trajectory.residuals)


def _per_row_timeseries(traj):
    """Reference formatter: one np.concatenate and repr per row."""
    lines = [",".join(TIMESERIES_COLUMNS)]
    for i in range(len(traj)):
        row = np.concatenate(([traj.times[i]], traj.states[i, :13], traj.spin[i],
                              [traj.h_phys[i]], traj.residuals[i]))
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode()


def test_timeseries_bytes_match_per_row_formatter(tiny_trajectory, tmp_path):
    states = tiny_trajectory.states.copy()
    states[1, :4] = (-0.0, 1e300, 5e-324, -1.2345678901234567e-17)
    states[2, 5] = -2.5e-310
    traj = dataclasses.replace(tiny_trajectory, states=states)
    path = write_timeseries(traj, tmp_path / "run.csv")
    assert path.read_bytes() == _per_row_timeseries(traj)
    assert "-0.0,1e+300,5e-324,-1.2345678901234567e-17" in path.read_text()


def test_read_timeseries_errors(tmp_path):
    with pytest.raises(SpinBundleError):
        read_timeseries(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SpinBundleError):
        read_timeseries(empty)
    header = ",".join(TIMESERIES_COLUMNS)
    headed = tmp_path / "headed.csv"
    headed.write_text(header + "\n")
    with pytest.raises(SpinBundleError, match="headed.csv holds no samples"):
        read_timeseries(headed)
    row = ",".join(["0.5"] * 21)
    # 20 + 22 cells: the total still fills two rows of 21
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(f"{header}\n{row[4:]}\n{row},0.5\n")
    with pytest.raises(SpinBundleError,
                       match=r"ragged\.csv is not a table of numbers: "
                             r"the number of columns changed from 20 to 22"):
        read_timeseries(ragged)
    text = tmp_path / "text.csv"
    text.write_text(f"{header}\n{row}\n{row.replace('0.5', 'abc', 1)}\n")
    with pytest.raises(SpinBundleError,
                       match=r"text\.csv is not a table of numbers: "
                             r"could not convert string 'abc'"):
        read_timeseries(text)


# ---------------------------------------------------------------------------
# run_config orchestration
# ---------------------------------------------------------------------------

def test_run_config_free_spin(tmp_path):
    code, summary = run_config(dict(FAST_FREE_SPIN), out_dir=tmp_path)
    assert code == 0
    assert summary["all_passed"]
    assert summary["scenario"] == "free_spin"
    assert {c["name"] for c in summary["checks"]} == {
        "spin_deviation", "constraint_drift", "energy_drift"}
    csv_path = tmp_path / summary["artifacts"]["timeseries"]
    assert csv_path.exists()
    names, data = read_timeseries(csv_path)
    assert data.shape == (32, 21)
    on_disk = json.loads((tmp_path / "free_spin_summary.json").read_text())
    stripped = {k: v for k, v in summary.items() if k != "summary_path"}
    assert on_disk == stripped


def test_run_config_reports_failed_check(tmp_path):
    cfg = dict(FAST_FREE_SPIN, checks={"spin_deviation": 1e-30})
    code, summary = run_config(cfg, out_dir=tmp_path)
    assert code == 3
    assert not summary["all_passed"]
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["spin_deviation"]


def test_run_config_deterministic(tmp_path):
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        run_config(dict(FAST_FREE_SPIN), out_dir=d)
    for name in ("free_spin_summary.json", "free_spin_timeseries.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_run_config_output_prefix_and_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(env_dir))
    cfg = dict(FAST_FREE_SPIN,
               output={"dir": str(tmp_path / "ignored"), "prefix": "demo"})
    code, summary = run_config(cfg)
    assert code == 0
    assert (env_dir / "demo_summary.json").exists()
    assert (env_dir / "demo_timeseries.csv").exists()
    assert not (tmp_path / "ignored").exists()


# the shortest run of each scenario that still reports every check
SMALL_RUNS = {
    "free_spin": FAST_FREE_SPIN,
    "larmor": {"scenario": "larmor", "periods": 1.0, "samples": 16},
    "stern_gerlach": {"scenario": "stern_gerlach", "t_span": [0.0, 0.5],
                      "samples": 10},
    "gauge_compare": {"scenario": "gauge_compare", "t_span": [0.0, 1.0],
                      "samples": 16},
    **{name: {"scenario": name, "n_points": 3, "n_boosts": 5}
       for name in ("verify_so3", "verify_lorentz", "verify_t4")},
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_scenario_checks_are_the_checks_the_runner_reports(scenario):
    runner, _ = SCENARIOS[scenario]
    values, _, _ = runner(dict(SMALL_RUNS[scenario]))
    assert list(values) == list(SCENARIO_CHECKS[scenario])


@pytest.mark.parametrize("checks, thresholds", [
    ({"all": 1e-3}, (1e-3, 1e-3, 0.1)),
    ({"all": 1e-3, "spin_agreement": 1e-2, "omega_separation": 0.5},
     (1e-2, 1e-3, 0.5)),
])
def test_checks_all_overrides_upper_bounds_only(checks, thresholds,
                                                monkeypatch, tmp_path):
    values = {"spin_agreement": 1e-4, "position_agreement": 1e-4,
              "omega_separation": 0.2}
    monkeypatch.setitem(SCENARIOS, "gauge_compare",
                        (lambda cfg: (values, {}, {}), "unused"))
    code, summary = run_config({"scenario": "gauge_compare", "checks": checks},
                               out_dir=tmp_path)
    assert [(c["name"], c["threshold"], c["comparison"], c["passed"])
            for c in summary["checks"]] == [
        ("spin_agreement", thresholds[0], "max", True),
        ("position_agreement", thresholds[1], "max", True),
        ("omega_separation", thresholds[2], "min", thresholds[2] < 0.2),
    ]
    assert code == (0 if thresholds[2] < 0.2 else 3)


@pytest.mark.parametrize("values, passed", [
    ((1e-12, 1e-6, 2.0), (True, False, True)),
    ((1e-7, 1e-3, 0.05), (True, False, False)),
    ((np.nan, 0.0, np.nan), (False, True, False)),
])
def test_run_config_passes_a_check_by_its_comparison(values, passed,
                                                     monkeypatch, tmp_path):
    """A "max" check passes below its threshold, not at it; a "min" check
    passes above it; a nan value fails either; values and thresholds are
    written as floats."""
    names = list(SCENARIO_CHECKS["gauge_compare"])
    runner = (lambda cfg: (dict(zip(names, map(np.float64, values))), {}, {}))
    monkeypatch.setitem(SCENARIOS, "gauge_compare", (runner, "unused"))
    code, summary = run_config({"scenario": "gauge_compare"}, out_dir=tmp_path)
    assert [c["passed"] for c in summary["checks"]] == list(passed)
    assert code == (0 if all(passed) else 3)
    for check, value in zip(summary["checks"], values):
        assert list(check) == ["name", "value", "threshold", "comparison",
                               "passed"]
        assert type(check["value"]) is float and type(check["threshold"]) is float
        assert check["value"] == value or np.isnan(value)


def test_unknown_check_is_rejected_before_the_runner(monkeypatch, tmp_path):
    def never(cfg):
        raise AssertionError("the runner ran")

    monkeypatch.setitem(SCENARIOS, "larmor", (never, "unused"))
    cfg = {"scenario": "larmor", "checks": {"energy_drft": 1e-6}}
    message = "$.checks.energy_drft: larmor has no check named 'energy_drft'"
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        run_config(cfg, out_dir=tmp_path)
    assert str(info.value) == message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("suite", ["verify_so3", "verify_lorentz", "verify_t4"])
def test_run_config_verify_suites_reduced(suite, tmp_path):
    cfg = dict(FAST_VERIFY, scenario=suite, seed=7)
    code, summary = run_config(cfg, out_dir=tmp_path)
    assert code == 0, [c for c in summary["checks"] if not c["passed"]]
    assert summary["seed"] == 7
    assert summary["artifacts"] == {}


def test_run_config_rejects_invalid():
    with pytest.raises(ConfigError):
        run_config({"scenario": "free_spin", "samples": 2})


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "free_spin", "larmor", "stern_gerlach", "gauge_compare",
        "verify_so3", "verify_lorentz", "verify_t4"}
    for runner, description in SCENARIOS.values():
        assert callable(runner)
        assert description


# ---------------------------------------------------------------------------
# main(): exit codes and report formatting
# ---------------------------------------------------------------------------

def test_main_run_scenario(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: free_spin\nt_span: [0.0, 2.0]\nsamples: 32\n")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS spin_deviation" in out
    assert "summary written to" in out


def test_main_config_error_exit_1(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: no_such_thing\n")
    assert main(["run", str(path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    assert main(["verify", "su2"]) == 1
    assert main(["verify", "so3", "--tol", "-1"]) == 1
    assert main(["verify", "so3", "--tol", "nan"]) == 1
    assert main(["verify", "so3", "--tol", "inf"]) == 1


def test_main_runtime_error_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "cfg.yaml"
    # zero spin sector cannot be projected onto the surface
    path.write_text(
        "scenario: free_spin\n"
        "t_span: [0.0, 1.0]\n"
        "samples: 16\n"
        "initial:\n"
        "  omega: [0.0, 0.0, 0.0]\n")
    with pytest.warns(OffSurfaceWarning):
        assert main(["run", str(path)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_main_out_of_memory_is_one_line_runtime_error(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "cfg.yaml"
    # schema-valid, but the grid alone would take about 700 PiB: numpy
    # refuses it before allocating anything
    path.write_text("scenario: larmor\nsamples: 100000000000000000\n")
    assert main(["run", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: ")
    assert list(tmp_path.iterdir()) == [path]


def test_main_tiny_tolerances_fail_at_once_in_one_line(tmp_path, capsys,
                                                       monkeypatch):
    """rel_tol = abs_tol = 1e-300 on stern_gerlach: the scaled norms of the
    first trial step overflow, without a numpy warning, into a nan step that
    the underflow guard rejects before any step is taken."""
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: stern_gerlach\n"
                    "tolerances: {rel_tol: 1.0e-300, abs_tol: 1.0e-300}\n")
    start = time.perf_counter()
    assert main(["run", str(path)]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err.splitlines() == [
        "runtime error: step size underflow at t = 0 (field 'linear_gradient')"]
    assert list(tmp_path.iterdir()) == [path]


@pytest.fixture(params=["error", "default"])
def run_main(request, tmp_path, capsys, monkeypatch):
    """`spinbundle run` in process on a config file in tmp_path holding the
    given text, writing there, under the RuntimeWarning filter "error" or
    "default" (each test runs once with each): returns the exit code and
    stderr's lines; any warning fails the test."""
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "cfg.yaml"

    def run(config):
        path.write_text(config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(request.param, RuntimeWarning)
            code = main(["run", str(path)])
        assert caught == []
        return code, capsys.readouterr().err.splitlines()

    return run


def test_main_purely_relative_tolerance_runs(run_main, tmp_path):
    """abs_tol = 5e-324 on stern_gerlach: the components of the state that
    are 0 scale by 0, and the first trial step leaves them out instead of
    underflowing at once."""
    assert run_main("scenario: stern_gerlach\n"
                    "tolerances: {rel_tol: 1.0e-10, abs_tol: 5.0e-324}\n"
                    ) == (0, [])
    summary = json.loads(
        (tmp_path / "stern_gerlach_summary.json").read_text())
    drift = {c["name"]: c["value"] for c in summary["checks"]}
    assert drift["constraint_drift"] < 1e-12


def test_main_huge_c_fails_the_frequency_checks_quietly(run_main, tmp_path):
    """c = 1e300 on larmor: 17 samples alias the ten periods, and x(t) swings
    near 1e300, where the squares of the fit's residuals would overflow."""
    assert run_main("scenario: larmor\nparams: {c: 1.0e+300}\nsamples: 17\n"
                    ) == (3, [])
    summary = json.loads((tmp_path / "larmor_summary.json").read_text())
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    assert failed == ["spin_frequency", "cyclotron_frequency"]


def test_main_tiny_a_verify_fails_quietly(run_main, tmp_path):
    """a = 1e-150 on verify_so3: delta = 2 a^2 is near the bottom of the
    floats, so the Dirac corrections overflow into nan; the check that reads
    them fails with nan instead of passing as 0, and no numpy warning is
    shown or raised."""
    assert run_main("scenario: verify_so3\nparams: {a: 1.0e-150}\n") == (3, [])
    summary = json.loads((tmp_path / "verify_so3_summary.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    assert not checks["dirac_omega_pi"]["passed"]
    assert np.isnan(checks["dirac_omega_pi"]["value"])


# schema-valid configs holding a number that is nan, infinite or too large
# for a float, with the JSON path each one is rejected at
NON_FINITE_PATHS = {
    "scenario: free_spin\ninitial: {x: [.nan, 0, 0]}\n": "$.initial.x[0]",
    "scenario: free_spin\ninitial: {omega: [.inf, 0, 0]}\n": "$.initial.omega[0]",
    "scenario: verify_lorentz\nboost: {beta_max: .nan}\n": "$.boost.beta_max",
    "scenario: free_spin\nparams: {m: .inf}\n": "$.params.m",
    "scenario: verify_t4\nchecks: {all: .nan}\n": "$.checks.all",
    "scenario: stern_gerlach\nfield: {kind: linear_gradient, gradient: .nan}\n":
        "$.field.gradient",
}
NON_FINITE_CONFIGS = list(NON_FINITE_PATHS)

# an integral float where the key takes an int: the values go to
# np.linspace, SeedSequence and range, which take ints only
FLOAT_FOR_INT_PATHS = {
    "scenario: free_spin\nsamples: 16.0\n": "$.samples",
    "scenario: verify_so3\nseed: 1.0\n": "$.seed",
    "scenario: verify_t4\nn_points: 2.0\n": "$.n_points",
}
FLOAT_FOR_INT_CONFIGS = list(FLOAT_FOR_INT_PATHS)

# sample grids that overflow or repeat a time, with the key each one names
BAD_GRID_PATHS = {
    "scenario: larmor\nperiods: 1.0e+308\n": "$.periods",
    "scenario: free_spin\nt_span: [-1.0e+308, 1.0e+308]\n": "$.t_span",
    "scenario: free_spin\nt_span: [1.0, 1.0000000000000002]\nsamples: 8\n":
        "$.samples",
}
BAD_GRID_CONFIGS = list(BAD_GRID_PATHS)

# a check name the scenario does not produce
UNKNOWN_CHECK = "scenario: free_spin\nsamples: 16\nchecks: {energy_drft: 1.0e-30}\n"
# an initial pi_phi: pi_phi = 0 is the model's primary constraint, not a
# starting value
UNKNOWN_KEY = "scenario: free_spin\ninitial: {pi_phi: .nan}\n"


@pytest.mark.parametrize("config, path", [
    *NON_FINITE_PATHS.items(),
    *FLOAT_FOR_INT_PATHS.items(),
    *BAD_GRID_PATHS.items(),
    pytest.param("scenario: free_spin\nparams: {m: 1%s}\n" % ("0" * 400),
                 "$.params.m", id="int-too-large-for-a-float"),
    (UNKNOWN_CHECK, "$.checks.energy_drft"),
    (UNKNOWN_KEY, "$.initial"),
])
def test_bad_config_numbers_name_their_path(config, path, tmp_path):
    with pytest.raises(ConfigError) as info:
        run_config(yaml.safe_load(config), out_dir=tmp_path)
    assert str(info.value).startswith(f"{path}: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("config", [
    "scenario: free_spin\nt_span: [1.0, 0.0]\n",
    "scenario: larmor\nparams: {e: 0.0}\n",
    "scenario: larmor\nparams: {mu: 0}\n",
    *NON_FINITE_CONFIGS,
    *FLOAT_FOR_INT_CONFIGS,
    *BAD_GRID_CONFIGS,
    UNKNOWN_CHECK,
    UNKNOWN_KEY,
])
def test_main_rejects_degenerate_config_in_one_line(config, run_main):
    code, err = run_main(config)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("config error: ")


# parameter sets that pass the table but hold a derived quantity that is not
# finite, with the line each one is rejected in
PARAM_OVERFLOWS = {
    "scenario: stern_gerlach\nparams: {b: 1.0e+300}\n":
        "$.params.b: b**2 is not finite",
    "scenario: verify_so3\nparams: {b: 1.0e+300}\n":
        "$.params.b: b**2 is not finite",
    "scenario: free_spin\nparams: {a: 1.0e-300}\nsamples: 16\n":
        "$.params: b**2 for the default b = sqrt(3)*hbar/(2*a) is not finite",
    "scenario: larmor\nparams: {c: 1.0e-300}\nsamples: 16\n":
        "$.params: (e/c)**2 is not finite",
    "scenario: verify_t4\nparams: {a: 1.0e+200}\n":
        "$.params.a: a**2 is not finite",
    "scenario: verify_lorentz\nparams: {a: 1.0e+150, b: 1.0e+10}\n":
        "$.params: (a*b)**2 is not finite",
    # m*c underflows to zero, so mu*e/(m*c) is 0/0
    "scenario: free_spin\nparams: {m: 1.0e-200, c: 1.0e-200, e: 0.0}\n":
        "$.params: (mu*e/(m*c))**2 is not finite",
    "scenario: free_spin\nparams: {a: 1.0e-300, b: 1.0}\nsamples: 16\n":
        "$.params.a: a**2 underflows to 0",
    "scenario: larmor\nparams: {b: 1.0e-200}\n":
        "$.params.b: b**2 underflows to 0",
    "scenario: verify_so3\nparams: {a: 1.0e-100, b: 1.0e-100}\n":
        "$.params: (a*b)**2 underflows to 0",
    "scenario: larmor\ninitial: {pi: [0.0, 1.0e+300, 0.0]}\n":
        "$.initial.pi: |pi|**2 is not finite",
    "scenario: free_spin\ninitial: {omega: [1.0e+200, 1.0, 0.0]}\n":
        "$.initial.omega: |omega|**2 is not finite",
    "scenario: stern_gerlach\ninitial: {p: [1.0e+154, 1.0e+154, 1.0e+154]}\n":
        "$.initial.p: |p|**2 is not finite",
    "scenario: gauge_compare\ninitial: {x: [0.0, 0.0, -1.0e+160]}\n":
        "$.initial.x: |x|**2 is not finite",
}


@pytest.mark.parametrize("config, message", list(PARAM_OVERFLOWS.items()))
def test_main_rejects_overflowing_params_in_one_line(config, message, run_main,
                                                     tmp_path):
    assert run_main(config) == (1, [f"config error: {message}"])
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.yaml"]


def gauge_config(expression, samples):
    """free_spin over [0, 1] with the gauge expression."""
    return ("scenario: free_spin\n"
            "t_span: [0.0, 1.0]\n"
            f"samples: {samples}\n"
            f"gauge: {{expression: \"{expression}\"}}\n")


# The pole 1/(t-0.5)^2 fails only where t = 0.5 is a sample (21 samples):
# between samples 1/phi -> 0 there and theta stays regular.
GAUGE_FAILURES = [
    ("exp(1000*t)", 16, "math range error"),
    ("t - 0.500123", 16, "changes sign between t = 0.499499 and t = 0.500501"),
    ("1/((t-0.5)*(t-0.5))", 21,
     "gauge expression '1/((t-0.5)*(t-0.5))' cannot be evaluated at t = 0.5"),
    ("exp(708)*(2 + sin(1000*t))", 16,
     "derivative of the start state is not finite at t = 0.0: phi = inf"),
    ("2 + sin(1e308*10*(t + 1))", 16,
     "cannot be evaluated at t = 0.0: math domain error"),
    # validate reads phi once, so the overflow from t = 0.7107 on wins over
    # the sign change at t = 0.3 before it
    ("(t - 0.3)*exp(1000*t)", 16,
     "cannot be evaluated at t = 0.7107107107107107: math range error"),
]


@pytest.mark.parametrize("expression, samples, message", GAUGE_FAILURES,
                         ids=[f"{e}-{m}" for e, _, m in GAUGE_FAILURES])
def test_main_gauge_failure_is_one_line_runtime_error(expression, samples,
                                                       message, run_main):
    code, err = run_main(gauge_config(expression, samples))
    assert code == 2
    assert len(err) == 1 and err[0].startswith("runtime error: ")
    assert message in err[0]


def test_main_gauge_pole_between_samples_runs(run_main):
    assert run_main(gauge_config("1/((t-0.5)*(t-0.5))", 16)) == (0, [])


def alias_bomb(levels):
    """A YAML list of 10**levels ones built from nested anchors and aliases:
    each level is a list of ten copies of the level below."""
    text = "1"
    for k in range(levels):
        text = f"[&l{k} {text}" + f", *l{k}" * 9 + "]"
    return text


# configs nested deeper than the parsers recurse, with the message of each
NESTED_CONFIGS = {
    "seed": ("scenario: free_spin\nseed: " + "[" * 1000 + "]" * 1000 + "\n",
             "nested too deeply to parse"),
    "checks": ("scenario: free_spin\nchecks: " + "{a: " * 3000 + "1"
               + "}" * 3000 + "\n", "nested too deeply to parse"),
    "sum_2000": (gauge_config("1" + "+t" * 2000, 16),
                 "gauge expression is nested too deeply"),
    "sum_20000": (gauge_config("1" + "+t" * 20000, 16),
                  "gauge expression is nested too deeply"),
    "minus_1000": (gauge_config("-" * 1000 + "t", 16),
                   "gauge expression is nested too deeply"),
    "minus_100000": (gauge_config("-" * 100000 + "t", 16),
                     "gauge expression is nested too deeply"),
}


@pytest.mark.parametrize("config, message", list(NESTED_CONFIGS.values()),
                         ids=list(NESTED_CONFIGS))
def test_main_rejects_deep_nesting_in_one_line(config, message, run_main):
    code, err = run_main(config)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert err[0].endswith(message)


def test_main_quotes_a_bounded_part_of_an_alias_bomb(run_main):
    """Six levels of aliases make a million ones under $.seed; the error
    quotes about 200 characters of the value."""
    code, err = run_main(f"scenario: free_spin\nseed: {alias_bomb(6)}\n")
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("config error: $.seed: [[[[[[1, 1, 1")
    assert err[0].endswith("... is not an integer")
    assert len(err[0]) < 300


def test_main_quotes_a_yaml_syntax_error_in_one_line(run_main, tmp_path):
    """PyYAML's message quotes the lines around the fault over eight lines;
    the error keeps its problem and line number."""
    code, err = run_main("scenario: larmor\nfield: [unclosed\n")
    assert code == 1
    assert err == [f"config error: {tmp_path / 'cfg.yaml'} at line 3: "
                   "expected ',' or ']', but got '<stream end>'"]


HUGE_KEY = "? 0x" + "f" * 5000 + "\n"
LONG_INT = "<int too long to print>"


@pytest.mark.parametrize("config, message", [
    (f"scenario: free_spin\n{HUGE_KEY}: 1\n", f"$: unknown key {LONG_INT}"),
    (f"scenario: free_spin\nchecks:\n  {HUGE_KEY}  : 1.0\n",
     f"$.checks.{LONG_INT}: free_spin has no check named {LONG_INT}"),
    (f"scenario: free_spin\nchecks:\n  {HUGE_KEY}  : -1.0\n",
     f"$.checks.{LONG_INT}: -1.0 must be greater than 0"),
], ids=["top", "check_name", "check_value"])
def test_main_names_a_key_past_the_digit_limit(config, message, run_main):
    """A hex key past Python's int-to-string digit limit has no str or
    repr; the error names it by the stand-in _shown uses."""
    code, err = run_main(config)
    assert code == 1
    assert err == [f"config error: {message}"]


def test_shown_is_repr_up_to_its_limit():
    itself = [1, "a'b"]
    itself.append(itself)
    mapping = {"k": (1,), 2: [(), None, 2.5e-300]}
    mapping["self"] = mapping
    for value in (None, True, -0.0, "x\"y", [], {}, (), (1,), (1, 2),
                  [[1, [2, {}]], {"a": [True]}], itself, mapping):
        assert _shown(value) == repr(value)
    long = list(range(1000))
    assert _shown(long) == repr(long)[:200] + "..."
    deep = []
    for _ in range(10000):
        deep = [deep]
    assert _shown(deep) == "[" * 200 + "..."
    assert _shown([16 ** 5000]) == "[<int too long to print>]"


@pytest.mark.parametrize("initial", [
    "{omega: [0.0, 0.0, 0.0]}",
    "{pi: [0.0, 0.0, 0.0]}",
    "{omega: [0.3, 0.5, 0.7], pi: [0.21, 0.35, 0.49]}",
], ids=["omega_zero", "pi_zero", "parallel"])
def test_main_prints_each_warning_on_one_line(initial, tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: free_spin\n"
                    "t_span: [0.0, 1.0]\n"
                    "samples: 16\n"
                    f"initial: {initial}\n")
    env = {**os.environ, "SPINBUNDLE_OUTPUT_DIR": str(tmp_path),
           "PYTHONPATH": str(Path(spinbundle.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "spinbundle.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    *warned, last = proc.stderr.splitlines()
    assert warned and all(line.startswith("warning: ") for line in warned)
    assert last.startswith("runtime error: projection did not converge")


@pytest.mark.parametrize("expression", [
    "1 + 0.5*sin(2*t)",
    "2 - cos(3*t + 1)*sin(t/7) + 0.25*cos(40*t)",
    "exp(-t/10)*cos(t) + 2",
    "1.5 + 0.5*exp(-t/5)*sin(40*t)",
    "-exp(1)",
    # without t the array call's list holds ints
    "2",
    "3/4",
    "-(1 - 4)",
    "123456789012345678901234567890*t + 98765432109876543210",
    "12345678901234567890123 - 12345678901234567890120",
])
def test_gauge_expression_array_call_equals_scalar_calls(expression, rng):
    times = np.concatenate([np.linspace(0.0, 20.0, 2001),
                            rng.uniform(-50.0, 50.0, 2000)])
    values = parse_gauge_expression(expression).phi(times)
    assert values.dtype == float and values.shape == times.shape
    assert np.array_equal(values, [parse_gauge_expression(expression)(t)
                                   for t in times.tolist()])


@pytest.mark.parametrize("expression, message", [
    ("exp(1000*t)", r"cannot be evaluated at t = 1\.0: math range error"),
    ("1/(t - 0.5)", r"cannot be evaluated at t = 0\.5: float division by zero"),
    ("2 + 1/(1/(t - 0.5))", r"cannot be evaluated at t = 0\.5"),
    ("1e308*10*t", r"is nan at t = 0\.0"),
])
def test_gauge_expression_array_call_raises_the_scalar_error(expression, message):
    """numpy turns these into inf or nan, or into a finite value through an
    infinite one; the array call raises what the first failing time
    raises alone."""
    with pytest.raises(GaugeError, match=message):
        parse_gauge_expression(expression).phi(np.array([0.0, 0.5, 1.0, 1.5]))


def test_gauge_expression_overflow_names_t():
    g = parse_gauge_expression("exp(1000*t)")
    assert g(0.0) == 1.0
    with pytest.raises(GaugeError, match=r"at t = 1\.0"):
        g(1.0)
    with pytest.raises(GaugeError, match=r"at t = 0\.5"):
        parse_gauge_expression("1/(t - 0.5)")(0.5)


def test_main_failed_check_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "scenario: free_spin\n"
        "t_span: [0.0, 2.0]\n"
        "samples: 32\n"
        "checks:\n"
        "  spin_deviation: 1.0e-30\n")
    assert main(["run", str(path)]) == 3
    assert "FAIL spin_deviation" in capsys.readouterr().out


def test_main_verify_accepts_short_names(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    assert main(["verify", "t4"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "verify_t4_summary.json").exists()


def test_main_verify_tol_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINBUNDLE_OUTPUT_DIR", str(tmp_path))
    # an absurdly tight bound flips every upper-bound check to FAIL
    assert main(["verify", "t4", "--tol", "1e-30"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_main_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == len(SCENARIOS)
    assert out[0].startswith("free_spin:")
