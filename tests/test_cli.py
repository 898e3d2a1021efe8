"""Config parsing, gauge expression grammar, artifact formats, scenario
orchestration, and command-line exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import spinbundle
from spinbundle.cli import (
    Check,
    ConfigError,
    SCENARIO_CHECKS,
    SCENARIOS,
    TIMESERIES_COLUMNS,
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


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.yaml")


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
# Check
# ---------------------------------------------------------------------------

def test_check_max_comparison():
    assert Check("drift", 1e-12, 1e-9).passed
    assert not Check("drift", 1e-6, 1e-9).passed
    assert not Check("drift", 1e-9, 1e-9).passed


def test_check_min_comparison():
    assert Check("separation", 2.0, 0.1, comparison="min").passed
    assert not Check("separation", 0.05, 0.1, comparison="min").passed


def test_check_rejects_bad_comparison():
    with pytest.raises(ValueError):
        Check("x", 1.0, 2.0, comparison="between")


def test_check_as_dict():
    entry = Check("drift", 1e-12, 1e-9).as_dict()
    assert entry == {"name": "drift", "value": 1e-12, "threshold": 1e-9,
                     "comparison": "max", "passed": True}


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
    checks, _, _ = runner(dict(SMALL_RUNS[scenario]))
    assert tuple(c.name for c in checks) == SCENARIO_CHECKS[scenario]


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


# schema-valid configs holding a number that is nan, infinite or too large
# for a float, with the JSON path each one is rejected at
NON_FINITE_PATHS = {
    "scenario: free_spin\ninitial: {x: [.nan, 0, 0]}\n": "$.initial.x[0]",
    "scenario: free_spin\ninitial: {omega: [.inf, 0, 0]}\n": "$.initial.omega[0]",
    "scenario: free_spin\ninitial: {pi_phi: .nan}\n": "$.initial.pi_phi",
    "scenario: verify_lorentz\nboost: {beta_max: .nan}\n": "$.boost.beta_max",
    "scenario: free_spin\nparams: {m: .inf}\n": "$.params.m",
    "scenario: verify_t4\nchecks: {all: .nan}\n": "$.checks.all",
    "scenario: stern_gerlach\nfield: {kind: linear_gradient, gradient: .nan}\n":
        "$.field.gradient",
}
NON_FINITE_CONFIGS = list(NON_FINITE_PATHS)

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


@pytest.mark.parametrize("config, path", [
    *NON_FINITE_PATHS.items(),
    *BAD_GRID_PATHS.items(),
    pytest.param("scenario: free_spin\nparams: {m: 1%s}\n" % ("0" * 400),
                 "$.params.m", id="int-too-large-for-a-float"),
    (UNKNOWN_CHECK, "$.checks.energy_drft"),
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
    *BAD_GRID_CONFIGS,
    UNKNOWN_CHECK,
])
def test_main_rejects_degenerate_config_in_one_line(config, tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(config)
    env = {**os.environ, "SPINBUNDLE_OUTPUT_DIR": str(tmp_path),
           "PYTHONPATH": str(Path(spinbundle.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "spinbundle.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")


def run_gauge_config(expression, samples, tmp_path):
    """`spinbundle run` on free_spin over [0, 1] with the gauge expression."""
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: free_spin\n"
                    "t_span: [0.0, 1.0]\n"
                    f"samples: {samples}\n"
                    f"gauge: {{expression: \"{expression}\"}}\n")
    env = {**os.environ, "SPINBUNDLE_OUTPUT_DIR": str(tmp_path),
           "PYTHONPATH": str(Path(spinbundle.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "spinbundle.cli", "run", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)


# The pole 1/(t-0.5)^2 fails only where t = 0.5 is a sample (21 samples):
# between samples 1/phi -> 0 there and theta stays regular.
GAUGE_FAILURES = [
    ("exp(1000*t)", 16, "math range error"),
    ("t - 0.500123", 16, "changes sign between t = 0.499499 and t = 0.500501"),
    ("1/((t-0.5)*(t-0.5))", 21,
     "gauge expression '1/((t-0.5)*(t-0.5))' cannot be evaluated at t = 0.5"),
    ("exp(708)*(2 + sin(1000*t))", 16,
     "derivative of the start state is not finite at t = 0.0: phi = inf"),
]


@pytest.mark.parametrize("expression, samples, message", GAUGE_FAILURES,
                         ids=[f"{e}-{m}" for e, _, m in GAUGE_FAILURES])
def test_main_gauge_failure_is_one_line_runtime_error(expression, samples,
                                                       message, tmp_path):
    proc = run_gauge_config(expression, samples, tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: ")
    assert message in lines[0]


def test_main_gauge_pole_between_samples_runs(tmp_path):
    proc = run_gauge_config("1/((t-0.5)*(t-0.5))", 16, tmp_path)
    assert proc.returncode == 0, proc.stderr


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
