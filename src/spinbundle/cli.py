"""Scenario runner: loads configurations, runs simulations and verification
suites, and writes machine-readable summaries plus plot-ready time series.

Configs are YAML (JSON works too, it is a YAML subset) validated against a
schema that rejects unknown keys. Exit codes: 0 ok, 1 bad config, 2 runtime
failure, 3 one or more declared checks failed.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml
from jsonschema import Draft202012Validator

from .dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    Trajectory,
    fit_rotation_frequency,
    integrate,
    second_order_residual,
)
from .errors import GaugeError, SpinBundleError
# poisson_bracket is not called here: the benchmark harness self-test checks
# that tracing rebinds it in this module too
from .phasespace import OMEGA, PhasePoint, poisson_bracket
from .verify import Check, _threshold, verify_lorentz, verify_so3, verify_t4

__all__ = [
    "Check",
    "ConfigError",
    "load_config",
    "main",
    "parse_gauge_expression",
    "read_timeseries",
    "run_config",
    "write_timeseries",
    "SCENARIOS",
    "SCENARIO_CHECKS",
    "TIMESERIES_COLUMNS",
]


class ConfigError(SpinBundleError):
    """Configuration file rejected before any computation ran."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_VEC3 = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}

# The checks each scenario's runner reports, in its order; a config's
# `checks` keys are validated against these before anything runs.
SCENARIO_CHECKS: Dict[str, Tuple[str, ...]] = {
    "free_spin": ("spin_deviation", "constraint_drift", "energy_drift"),
    "larmor": ("spin_frequency", "cyclotron_frequency", "constraint_drift",
               "energy_drift"),
    "stern_gerlach": ("second_order_residual", "constraint_drift",
                      "energy_drift"),
    "gauge_compare": ("spin_agreement", "position_agreement",
                      "omega_separation"),
    "verify_so3": ("spin_algebra_poisson", "spin_algebra_dirac",
                   "dirac_omega_pi", "dirac_annihilation",
                   "rotation_orthogonality", "so2_invariance",
                   "casimir_identity", "spin_normalization", "so3_rank_ratio",
                   "gauge_group_law"),
    "verify_lorentz": ("t3_boost_residual", "casimir_deviation",
                       "frenkel_residual", "ellipsoid_residual",
                       "tetrad_identity", "bmt_round_trip",
                       "bmt_orthogonality", "so13_rank_ratio"),
    "verify_t4": ("first_class_misclassified", "constraint_bracket_residual",
                  "t4_boost_residual", "structure_action_spin",
                  "structure_action_surface"),
}

_GAUGE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["expression"],
    "properties": {
        "expression": {"type": "string", "minLength": 1},
        "label": {"type": "string"},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario"],
    "properties": {
        "scenario": {"enum": list(SCENARIO_CHECKS)},
        "seed": {"type": "integer", "minimum": 0},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "m": _POS, "e": _NUM, "mu": _NUM, "c": _POS,
                "a": _POS, "b": _POS, "hbar": _POS,
            },
        },
        "field": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["free", "uniform", "linear_gradient"]},
                "B0": {"oneOf": [_NUM, _VEC3]},
                "gradient": _NUM,
            },
        },
        "gauge": _GAUGE_SCHEMA,
        "gauge_alt": _GAUGE_SCHEMA,
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x": _VEC3, "p": _VEC3, "omega": _VEC3, "pi": _VEC3,
                "pi_phi": _NUM,
            },
        },
        "t_span": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        "periods": _POS,
        "samples": {"type": "integer", "minimum": 8},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rel_tol": _POS,
                "abs_tol": _POS,
                "project_every": {"type": "integer", "minimum": 0},
            },
        },
        "checks": {"type": "object", "additionalProperties": _POS},
        "boost": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta_max": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
            },
        },
        "n_points": {"type": "integer", "minimum": 1},
        "n_boosts": {"type": "integer", "minimum": 1},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string", "minLength": 1},
                "prefix": {"type": "string", "minLength": 1},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def _check_finite(value, path: str) -> None:
    """Raise ConfigError naming the first number under value that is nan,
    infinite or too large for a float."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        # exact for ints of any size; false for nan
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: {value!r} is not a finite number")


def validate_config(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be a mapping")
    errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"{first.json_path}: {first.message}")
    _check_finite(cfg, "$")
    scenario = cfg["scenario"]
    for name in cfg.get("checks", {}):
        if name != "all" and name not in SCENARIO_CHECKS[scenario]:
            raise ConfigError(
                f"$.checks.{name}: {scenario} has no check named {name!r}")
    return cfg


def load_config(path) -> dict:
    """Parse and schema-validate a YAML or JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"{path}{where}: {exc}") from None
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Gauge expressions: t, numbers, + - * /, sin, cos, exp
# ---------------------------------------------------------------------------

_GAUGE_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_GAUGE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _check_gauge_node(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _check_gauge_node(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _GAUGE_OPS):
        _check_gauge_node(node.left)
        _check_gauge_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check_gauge_node(node.operand)
    elif isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _GAUGE_FUNCS
                or node.keywords or len(node.args) != 1):
            raise ConfigError(
                "gauge expression may only call sin, cos, exp with one argument")
        _check_gauge_node(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id != "t":
            raise ConfigError(f"unknown name {node.id!r} in gauge expression")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ConfigError("gauge expression constants must be numbers")
    else:
        raise ConfigError(
            f"unsupported syntax in gauge expression: {type(node).__name__}")


def parse_gauge_expression(expression: str, label: str = "") -> GaugeFunction:
    """Compile a gauge expression over t from the fixed small grammar; a
    value that overflows, divides by zero or is not finite raises GaugeError
    naming the expression and t.  An expression without t is a constant
    gauge, with phi_dot = GaugeFunction.zero_rate; any other has no phi_dot,
    so its derivative is a central difference."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"gauge expression does not parse: {exc.msg}") from None
    _check_gauge_node(tree)
    # t is the only name in a checked tree besides the called functions
    moves = any(isinstance(node, ast.Name) and node.id == "t"
                for node in ast.walk(tree))
    what = f"gauge expression {expression!r}"
    source = ast.parse("lambda t: 0", mode="eval")
    source.body.body = tree.body
    fn = eval(compile(ast.fix_missing_locations(source), "<gauge>", "eval"),
              {"__builtins__": {}, **_GAUGE_FUNCS})

    def phi(t: float) -> float:
        t = float(t)
        try:
            value = float(fn(t))
        except (OverflowError, ZeroDivisionError) as exc:
            raise GaugeError(
                f"{what} cannot be evaluated at t = {t!r}: {exc}") from None
        if not math.isfinite(value):
            raise GaugeError(f"{what} is {value!r} at t = {t!r}")
        return value

    return GaugeFunction(phi=phi, phi_dot=None if moves else GaugeFunction.zero_rate,
                         label=label or expression)


# ---------------------------------------------------------------------------
# Time-series artifacts
# ---------------------------------------------------------------------------

TIMESERIES_COLUMNS = (
    "t",
    "x1", "x2", "x3",
    "p1", "p2", "p3",
    "omega1", "omega2", "omega3",
    "pi1", "pi2", "pi3",
    "phi",
    "S1", "S2", "S3",
    "H_phys",
    "res_omega_sq", "res_pi_sq", "res_omega_pi",
)


def write_timeseries(traj: Trajectory, path) -> Path:
    """Write one row per sample with shortest-round-trip float formatting."""
    path = Path(path)
    table = np.column_stack((traj.times, traj.states[:, :13], traj.spin,
                             traj.h_phys, traj.residuals))
    lines = [",".join(TIMESERIES_COLUMNS)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise SpinBundleError(f"cannot write time series to {path}: {exc}") from None
    return path


def read_timeseries(path) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Inverse of write_timeseries: (column names, (N, 21) array)."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise SpinBundleError(f"cannot read time series from {path}: {exc}") from None
    if len(lines) < 2:
        raise SpinBundleError(f"{path} holds no samples")
    names = tuple(lines[0].split(","))
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise SpinBundleError(f"{path} is not a table of numbers: {exc}") from None
    return names, data


# ---------------------------------------------------------------------------
# Config -> model objects
# ---------------------------------------------------------------------------

def _build_params(cfg: dict) -> ModelParams:
    return ModelParams(**cfg.get("params", {}))


def _build_field(cfg: dict, default_kind: str = "free") -> FieldConfig:
    spec = cfg.get("field", {"kind": default_kind})
    kind = spec["kind"]
    if kind == "free":
        return FieldConfig.free()
    if kind == "uniform":
        B0 = spec.get("B0", [0.0, 0.0, 1.0])
        if np.isscalar(B0):
            B0 = [0.0, 0.0, float(B0)]
        return FieldConfig.uniform(B0)
    if kind == "linear_gradient":
        B0 = spec.get("B0", 1.0)
        if not np.isscalar(B0):
            raise ConfigError("$.field.B0: linear_gradient takes a scalar B0")
        return FieldConfig.linear_gradient(B0=float(B0),
                                           gradient=spec.get("gradient", 0.1))
    raise ConfigError(f"$.field.kind: unknown kind {kind!r}")


def _build_gauge(cfg: dict, key: str = "gauge", default: str = "1") -> GaugeFunction:
    spec = cfg.get(key, {"expression": default})
    return parse_gauge_expression(spec["expression"], spec.get("label", ""))


def _build_initial(cfg: dict, params: ModelParams) -> PhasePoint:
    spec = cfg.get("initial", {})
    omega = spec.get("omega", [params.a, 0.0, 0.0])
    pi = spec.get("pi", [0.0, 0.0, params.b])
    return PhasePoint(
        x=spec.get("x", [0.0, 0.0, 0.0]),
        p=spec.get("p", [1.0, 0.0, 0.0]),
        omega=omega,
        pi=pi,
        phi=1.0,
        pi_phi=spec.get("pi_phi", 0.0),
    )


def _integration_options(cfg: dict, rel_default: float = 1e-10,
                         abs_default: float = 1e-12) -> IntegrationOptions:
    tol = cfg.get("tolerances", {})
    return IntegrationOptions(
        rel_tol=tol.get("rel_tol", rel_default),
        abs_tol=tol.get("abs_tol", abs_default),
        project_every=tol.get("project_every", 0),
    )


def _sample_times(cfg: dict, default_span, default_samples: int,
                  span_key: str = "$.t_span") -> np.ndarray:
    """The sample grid: $.samples evenly spaced times over $.t_span, or over
    default_span, which span_key names when it is computed from that key.
    A grid that is not finite or repeats a time is a ConfigError."""
    key = "$.t_span" if "t_span" in cfg else span_key
    t0, t1 = cfg.get("t_span", default_span)
    if not t1 > t0:
        raise ConfigError(f"{key}: end {t1!r} must be after start {t0!r}")
    if not math.isfinite(t1 - t0):
        raise ConfigError(
            f"{key}: the span from {t0!r} to {t1!r} has no finite length")
    samples = cfg.get("samples", default_samples)
    times = np.linspace(t0, t1, samples)
    if not np.all(np.diff(times) > 0):
        raise ConfigError(f"$.samples: {samples} samples from {t0!r} to {t1!r} "
                          "are not distinct floating-point times")
    return times


def _drift(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.residuals)))


def _energy_drift(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.h_phys - traj.h_phys[0])))


# ---------------------------------------------------------------------------
# Dynamic scenarios
# ---------------------------------------------------------------------------

def run_free_spin(cfg: dict) -> Tuple[List[Check], dict, Dict[str, Trajectory]]:
    """No field: the composed spin must stay put while (omega, pi) gauge-rotate."""
    params = _build_params(cfg)
    fields = _build_field(cfg, default_kind="free")
    gauge = _build_gauge(cfg)
    z0 = _build_initial(cfg, params)
    times = _sample_times(cfg, (0.0, 10.0), 500)
    # the declared check is S(t) = S(0) to 1e-9, so integrate tight
    opts = _integration_options(cfg, rel_default=1e-12, abs_default=1e-14)
    traj = integrate(z0, times, params, fields, gauge, opts)

    spin_dev = float(np.max(np.linalg.norm(traj.spin - traj.spin[0], axis=1)))
    checks = [
        Check("spin_deviation", spin_dev, _threshold(cfg, "spin_deviation", 1e-9)),
        Check("constraint_drift", _drift(traj),
              _threshold(cfg, "constraint_drift", 1e-9)),
        Check("energy_drift", _energy_drift(traj),
              _threshold(cfg, "energy_drift", 1e-9)),
    ]
    metrics = {"spin_deviation": spin_dev, "samples": float(len(traj))}
    return checks, metrics, {"timeseries": traj}


def run_larmor(cfg: dict) -> Tuple[List[Check], dict, Dict[str, Trajectory]]:
    """Uniform field: fit the spin precession and cyclotron frequencies."""
    params = _build_params(cfg)
    fields = _build_field(cfg, default_kind="uniform")
    if fields.kind != "uniform":
        raise ConfigError("$.field.kind: larmor needs a uniform field")
    gauge = _build_gauge(cfg)
    z0 = _build_initial(cfg, params)
    b_vec = fields.B(np.zeros(3))
    b_mag = float(np.linalg.norm(b_vec))
    if b_mag == 0.0:
        raise ConfigError("$.field.B0: larmor needs a nonzero field")
    if params.e == 0.0 or params.mu == 0.0:
        raise ConfigError("$.params: larmor needs nonzero e and mu; "
                          "with either zero there is no frequency to fit")
    omega_spin = abs(params.moment_coupling) * b_mag
    period = 2.0 * np.pi / omega_spin
    times = _sample_times(cfg, (0.0, cfg.get("periods", 10.0) * period), 2000,
                          span_key="$.periods")
    traj = integrate(z0, times, params, fields, gauge, _integration_options(cfg))

    spin_fit = fit_rotation_frequency(traj.times, traj.spin[:, 0])
    spin_err = abs(spin_fit.omega - omega_spin) / omega_spin
    omega_cyc = abs(params.e) * b_mag / (params.m * params.c)
    cyc_fit = fit_rotation_frequency(traj.times, traj.states[:, 0])
    cyc_err = abs(cyc_fit.omega - omega_cyc) / omega_cyc

    checks = [
        Check("spin_frequency", spin_err, _threshold(cfg, "spin_frequency", 1e-6)),
        Check("cyclotron_frequency", cyc_err,
              _threshold(cfg, "cyclotron_frequency", 1e-6)),
        Check("constraint_drift", _drift(traj),
              _threshold(cfg, "constraint_drift", 1e-6)),
        Check("energy_drift", _energy_drift(traj),
              _threshold(cfg, "energy_drift", 1e-6)),
    ]
    metrics = {
        "fitted_spin_frequency": spin_fit.omega,
        "expected_spin_frequency": omega_spin,
        "fitted_cyclotron_frequency": cyc_fit.omega,
        "expected_cyclotron_frequency": omega_cyc,
        "max_constraint_drift": _drift(traj),
        "max_energy_drift": _energy_drift(traj),
    }
    return checks, metrics, {"timeseries": traj}


def run_stern_gerlach(cfg: dict) -> Tuple[List[Check], dict, Dict[str, Trajectory]]:
    """Gradient field: the spin-gradient force must match the second-order
    equation of motion along the trajectory."""
    params = _build_params(cfg)
    field_spec = cfg.get("field", {"kind": "linear_gradient"})
    if field_spec.get("kind") != "linear_gradient":
        raise ConfigError("$.field.kind: stern_gerlach needs linear_gradient")
    fields = _build_field(cfg, default_kind="linear_gradient")
    gauge = _build_gauge(cfg)
    spec = dict(cfg.get("initial", {}))
    spec.setdefault("p", [0.3, 0.0, 0.0])
    spec.setdefault("omega", [params.a, 0.0, 0.0])
    spec.setdefault("pi", [0.0, params.b, 0.0])
    z0 = _build_initial({**cfg, "initial": spec}, params)
    times = _sample_times(cfg, (0.0, 20.0), 2000)
    traj = integrate(z0, times, params, fields, gauge, _integration_options(cfg))

    residual = float(np.max(second_order_residual(traj, params, fields)))
    deflection = float(traj.states[-1, 5] - traj.states[0, 5])
    checks = [
        Check("second_order_residual", residual,
              _threshold(cfg, "second_order_residual", 1e-6)),
        Check("constraint_drift", _drift(traj),
              _threshold(cfg, "constraint_drift", 1e-6)),
        Check("energy_drift", _energy_drift(traj),
              _threshold(cfg, "energy_drift", 1e-6)),
    ]
    metrics = {
        "max_second_order_residual": residual,
        "momentum_deflection_z": deflection,
    }
    return checks, metrics, {"timeseries": traj}


def run_gauge_compare(cfg: dict) -> Tuple[List[Check], dict, Dict[str, Trajectory]]:
    """Identical runs under two gauge functions: observables must agree while
    the raw (omega, pi) trajectories visibly differ."""
    params = _build_params(cfg)
    fields = _build_field(cfg, default_kind="uniform")
    gauge_a = _build_gauge(cfg, "gauge", default="1")
    gauge_b = _build_gauge(cfg, "gauge_alt", default="1 + 0.5*sin(2*t)")
    z0 = _build_initial(cfg, params)
    times = _sample_times(cfg, (0.0, 4.0 * np.pi), 800)
    opts = _integration_options(cfg)
    traj_a = integrate(z0, times, params, fields, gauge_a, opts)
    traj_b = integrate(z0, times, params, fields, gauge_b, opts)

    spin_gap = float(np.max(np.abs(traj_a.spin - traj_b.spin)))
    pos_gap = float(np.max(np.abs(traj_a.states[:, :3] - traj_b.states[:, :3])))
    omega_gap = float(np.max(np.abs(
        traj_a.states[:, OMEGA] - traj_b.states[:, OMEGA])))
    checks = [
        Check("spin_agreement", spin_gap, _threshold(cfg, "spin_agreement", 1e-6)),
        Check("position_agreement", pos_gap,
              _threshold(cfg, "position_agreement", 1e-6)),
        Check("omega_separation", omega_gap,
              _threshold(cfg, "omega_separation", 0.1, comparison="min"),
              comparison="min"),
    ]
    metrics = {
        "max_spin_gap": spin_gap,
        "max_position_gap": pos_gap,
        "max_omega_gap": omega_gap,
        "gauge_a": gauge_a.label,
        "gauge_b": gauge_b.label,
    }
    return checks, metrics, {"timeseries_a": traj_a, "timeseries_b": traj_b}


SCENARIOS: Dict[str, Tuple[Callable, str]] = {
    "free_spin": (run_free_spin,
                  "field-free run; the composed spin must stay constant"),
    "larmor": (run_larmor,
               "uniform-field precession; fits spin and cyclotron frequencies"),
    "stern_gerlach": (run_stern_gerlach,
                      "gradient field; checks the spin-gradient force law"),
    "gauge_compare": (run_gauge_compare,
                      "two gauges, one physics; observables must agree"),
    "verify_so3": (verify_so3,
                   "bracket algebra, bundle identification, gauge group law"),
    "verify_lorentz": (verify_lorentz,
                       "boost invariance, tetrad, covariant spin round trips"),
    "verify_t4": (verify_t4,
                  "scale-free surface: first-class pair and structure group"),
}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _output_dir(cfg: dict) -> Path:
    override = os.environ.get("SPINBUNDLE_OUTPUT_DIR")
    if override:
        return Path(override)
    return Path(cfg.get("output", {}).get("dir", "out"))


def run_config(cfg: dict, out_dir: Optional[Path] = None) -> Tuple[int, dict]:
    """Execute a validated config; returns (exit code, summary dict)."""
    validate_config(cfg)
    scenario = cfg["scenario"]
    runner, _ = SCENARIOS[scenario]
    out_dir = Path(out_dir) if out_dir is not None else _output_dir(cfg)
    prefix = cfg.get("output", {}).get("prefix", scenario)

    checks, metrics, trajectories = runner(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for tag, traj in trajectories.items():
        name = f"{prefix}_{tag}.csv"
        write_timeseries(traj, out_dir / name)
        artifacts[tag] = name

    summary = {
        "scenario": scenario,
        "seed": int(cfg.get("seed", 0)),
        "all_passed": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
        "metrics": {k: (v if isinstance(v, str) else float(v))
                    for k, v in sorted(metrics.items())},
        "artifacts": artifacts,
    }
    summary_path = out_dir / f"{prefix}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    summary["summary_path"] = str(summary_path)
    return (0 if summary["all_passed"] else 3), summary


def _print_report(summary: dict, stream=None) -> None:
    stream = stream or sys.stdout
    for entry in summary["checks"]:
        mark = "PASS" if entry["passed"] else "FAIL"
        op = "<" if entry["comparison"] == "max" else ">"
        print(f"{mark} {entry['name']}: {entry['value']:.3e} "
              f"{op} {entry['threshold']:.3e}", file=stream)
    print(f"summary written to {summary['summary_path']}", file=stream)


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinbundle",
        description="Run spin-bundle scenarios and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config", help="path to a YAML or JSON config")

    p_verify = sub.add_parser("verify", help="run a built-in verification suite")
    p_verify.add_argument("suite", help="so3 | lorentz | t4 (verify_ prefix optional)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override every upper-bound threshold")

    sub.add_parser("list-scenarios", help="list scenario names")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in SCENARIO_CHECKS:
            print(f"{name}: {SCENARIOS[name][1]}")
        return 0

    try:
        if args.command == "run":
            cfg = load_config(args.config)
        else:
            suite = args.suite if args.suite.startswith("verify_") \
                else f"verify_{args.suite}"
            if suite not in SCENARIOS or not suite.startswith("verify_"):
                raise ConfigError(f"unknown verification suite {args.suite!r}")
            cfg = {"scenario": suite, "seed": args.seed}
            if args.tol is not None:
                if not 0 < args.tol < math.inf:
                    raise ConfigError("--tol must be positive and finite")
                cfg["checks"] = {"all": args.tol}
            validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    # a warning shown on stderr is one line, like the error messages
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        code, summary = run_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SpinBundleError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning

    _print_report(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
