"""Scenario runner: loads configurations, runs simulations and verification
suites, and writes machine-readable summaries plus plot-ready time series.

Configs are YAML (JSON works too, it is a YAML subset) checked against one
table of keys, which rejects unknown ones. Exit codes: 0 ok, 1 bad config,
2 runtime failure, 3 one or more declared checks failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import yaml

from .dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    Trajectory,
    fit_rotation_frequency,
    integrate,
    parse_gauge_expression,
    second_order_residual,
)
from .errors import ConfigError, SpinBundleError
# poisson_bracket is not called here: the benchmark harness self-test checks
# that tracing rebinds it in this module too
from .phasespace import OMEGA, PhasePoint, poisson_bracket
from .verify import verify_lorentz, verify_so3, verify_t4

__all__ = [
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


# ---------------------------------------------------------------------------
# Config table
# ---------------------------------------------------------------------------

# Each scenario's checks in report order, with their default thresholds. Its
# runner returns {check name: value} for exactly these names; a config's
# `checks` keys are validated against them before anything runs.
SCENARIO_CHECKS: Dict[str, Dict[str, float]] = {
    "free_spin": {"spin_deviation": 1e-9, "constraint_drift": 1e-9,
                  "energy_drift": 1e-9},
    "larmor": {"spin_frequency": 1e-6, "cyclotron_frequency": 1e-6,
               "constraint_drift": 1e-6, "energy_drift": 1e-6},
    "stern_gerlach": {"second_order_residual": 1e-6, "constraint_drift": 1e-6,
                      "energy_drift": 1e-6},
    "gauge_compare": {"spin_agreement": 1e-6, "position_agreement": 1e-6,
                      "omega_separation": 0.1},
    "verify_so3": {"spin_algebra_poisson": 1e-8, "spin_algebra_dirac": 1e-8,
                   "dirac_omega_pi": 1e-8, "dirac_annihilation": 1e-8,
                   "rotation_orthogonality": 1e-10, "so2_invariance": 1e-12,
                   "casimir_identity": 1e-10, "spin_normalization": 1e-10,
                   "so3_rank_ratio": 1e-6, "gauge_group_law": 1e-12},
    "verify_lorentz": {"t3_boost_residual": 1e-9, "casimir_deviation": 1e-9,
                       "frenkel_residual": 1e-9, "ellipsoid_residual": 1e-9,
                       "tetrad_identity": 1e-9, "bmt_round_trip": 1e-10,
                       "bmt_orthogonality": 1e-12, "so13_rank_ratio": 1e-6},
    "verify_t4": {"first_class_misclassified": 0.5,
                  "constraint_bracket_residual": 1e-8,
                  "t4_boost_residual": 1e-9, "structure_action_spin": 1e-12,
                  "structure_action_surface": 1e-12},
}

# The checks that must stay above their threshold; `checks.all` skips them
MIN_CHECKS = frozenset({"omega_separation"})


# A spec is a tuple headed by what it accepts:
#   ("number", gt, lt)              a finite int or float, gt < value < lt
#                                   (a bound of None is no bound)
#   ("integer", ge)                 an int, not a bool, at least ge
#   ("string", min_length)
#   ("enum", choices)               one of the choices
#   ("list", n, item)               a list of n items, each matching item
#   ("either", spec, list_spec)     list_spec for a list, spec for the rest
#   ("mapping", keys, required)     a dict whose keys are in keys, a dict of
#                                   specs ("*" matches any key), holding
#                                   every key in required
_NUM = ("number", None, None)
_POS = ("number", 0, None)
_VEC3 = ("list", 3, _NUM)
_GAUGE = ("mapping", {"expression": ("string", 1), "label": ("string", 0)},
          ("expression",))

CONFIG_TABLE = ("mapping", {
    "scenario": ("enum", tuple(SCENARIO_CHECKS)),
    "seed": ("integer", 0),
    "params": ("mapping", {"m": _POS, "e": _NUM, "mu": _NUM, "c": _POS,
                           "a": _POS, "b": _POS, "hbar": _POS}, ()),
    "field": ("mapping", {
        "kind": ("enum", ("free", "uniform", "linear_gradient")),
        "B0": ("either", _NUM, _VEC3),
        "gradient": _NUM,
    }, ("kind",)),
    "gauge": _GAUGE,
    "gauge_alt": _GAUGE,
    "initial": ("mapping", {"x": _VEC3, "p": _VEC3, "omega": _VEC3,
                            "pi": _VEC3}, ()),
    "t_span": ("list", 2, _NUM),
    "periods": _POS,
    "samples": ("integer", 8),
    "tolerances": ("mapping", {"rel_tol": _POS, "abs_tol": _POS,
                               "project_every": ("integer", 0)}, ()),
    "checks": ("mapping", {"*": _POS}, ()),
    "boost": ("mapping", {"beta_max": ("number", 0, 1)}, ()),
    "n_points": ("integer", 1),
    "n_boosts": ("integer", 1),
    "output": ("mapping", {"dir": ("string", 1), "prefix": ("string", 1)}, ()),
}, ("scenario",))


_SHOWN_LIMIT = 200  # characters of a config value quoted in a message
_BRACKETS = {list: "[]", tuple: "()", dict: "{}"}


def _printed(value, form) -> str:
    """form(value), with repr or str for form, or a stand-in for an int past
    Python's int-to-string digit limit, which a hex literal can be."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _pieces(value, inside=()):
    """repr(value) as a stream of text that opens each list, tuple and dict
    before it makes their items.  As in repr, a container inside itself
    reads as [...], (...) or {...}; an int past Python's int-to-string digit
    limit, which a hex literal can be, reads as a stand-in."""
    brackets = _BRACKETS.get(type(value))
    if brackets is None:
        yield _printed(value, repr)
        return
    if any(value is outer for outer in inside):
        yield "...".join(brackets)
        return
    yield brackets[0]
    inside += (value,)
    for i, item in enumerate(value):
        yield from [", "] if i else []
        if brackets == "{}":
            yield from _pieces(item, inside)
            yield ": "
            item = value[item]
        yield from _pieces(item, inside)
    yield ("," if brackets == "()" and len(value) == 1 else "") + brackets[1]


def _shown(value) -> str:
    """repr of a config value, cut after _SHOWN_LIMIT characters with "...".
    Each piece holds a character or more, so the text is made only up to
    the cut, and a deep or aliased value costs no more than the text shown."""
    text = "".join(itertools.islice(_pieces(value), _SHOWN_LIMIT + 1))
    return text if len(text) <= _SHOWN_LIMIT else text[:_SHOWN_LIMIT] + "..."


def _walk(value, spec, path: str) -> None:
    """Raise ConfigError for the first fault in value at or under path.
    Faults of a mapping or list come before those of its items, and mapping
    keys are visited in sorted order, so the error is the one at the
    smallest path."""
    kind = spec[0]
    if kind == "mapping":
        keys, required = spec[1], spec[2]
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: {_shown(value)} is not a mapping")
        for key in required:
            if key not in value:
                raise ConfigError(f"{path}: missing required key {key!r}")
        names = {key: _printed(key, str) for key in value}
        order = sorted(value, key=names.get)
        for key in order:
            if key not in keys and "*" not in keys:
                raise ConfigError(f"{path}: unknown key {_shown(key)}")
        for key in order:
            _walk(value[key], keys.get(key, keys.get("*")),
                  f"{path}.{names[key]}")
    elif kind == "list":
        if not isinstance(value, list) or len(value) != spec[1]:
            raise ConfigError(
                f"{path}: {_shown(value)} is not a list of {spec[1]} items")
        for i, item in enumerate(value):
            _walk(item, spec[2], f"{path}[{i}]")
    elif kind == "either":
        _walk(value, spec[2] if isinstance(value, list) else spec[1], path)
    elif kind == "enum":
        if value not in spec[1]:
            raise ConfigError(
                f"{path}: {_shown(value)} is not one of {', '.join(spec[1])}")
    elif kind == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{path}: {_shown(value)} is not a string")
        if len(value) < spec[1]:
            raise ConfigError(f"{path}: must not be empty")
    else:
        integer = kind == "integer"
        if isinstance(value, bool) or not isinstance(
                value, int if integer else (int, float)):
            what = "an integer" if integer else "a number"
            raise ConfigError(f"{path}: {_shown(value)} is not {what}")
        # exact for ints of any size; false for nan
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: {_shown(value)} is not a finite number")
        if integer and value < spec[1]:
            raise ConfigError(f"{path}: {value!r} must be at least {spec[1]}")
        if not integer and spec[1] is not None and not value > spec[1]:
            raise ConfigError(f"{path}: {value!r} must be greater than {spec[1]}")
        if not integer and spec[2] is not None and not value < spec[2]:
            raise ConfigError(f"{path}: {value!r} must be less than {spec[2]}")


def validate_config(cfg) -> dict:
    _walk(cfg, CONFIG_TABLE, "$")
    scenario = cfg["scenario"]
    for name in cfg.get("checks", {}):
        if name != "all" and name not in SCENARIO_CHECKS[scenario]:
            raise ConfigError(f"$.checks.{_printed(name, str)}: {scenario} "
                              f"has no check named {_shown(name)}")
    _check_squares(cfg)
    return cfg


def _check_squares(cfg: dict) -> None:
    """Raise ConfigError where a square derived from $.params, or the
    squared norm of a vector in $.initial, is not finite, or where a**2,
    b**2 or (a*b)**2 underflows to 0.  They are computed in float64 with
    warnings off, so an overflow reads as inf or nan rather than raising."""
    given = cfg.get("params", {})
    with np.errstate(all="ignore"):
        p = ModelParams(**{key: np.float64(v) for key, v in given.items()})
        b_path, b_sq = (("$.params.b", "b**2") if "b" in given else
                        ("$.params", "b**2 for the default b = sqrt(3)*hbar/(2*a)"))
        radii = (("$.params.a", "a**2", p.a ** 2),
                 (b_path, b_sq, p.b ** 2),
                 ("$.params", "(a*b)**2", p.spin_norm_sq))
        derived = [*radii,
                   ("$.params", "(e/c)**2", (p.e / p.c) ** 2),
                   ("$.params", "(mu*e/(m*c))**2", p.moment_coupling ** 2)]
        derived += [(f"$.initial.{key}", f"|{key}|**2",
                     sum(np.float64(x) ** 2 for x in vector))
                    for key, vector in sorted(cfg.get("initial", {}).items())]
    for path, name, value in derived:
        if not np.isfinite(value):
            raise ConfigError(f"{path}: {name} is not finite")
    for path, name, value in radii:
        if not value > 0.0:
            raise ConfigError(f"{path}: {name} underflows to 0")


def load_config(path) -> dict:
    """Parse and validate a YAML or JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        # an integer literal over Python's int-to-string digit limit makes
        # PyYAML raise ValueError
        cfg = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        # a YAML error's text quotes the lines around it; its problem alone
        # is one line
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        problem = getattr(exc, "problem", None) or str(exc)
        problem = problem.partition("\n")[0]
        raise ConfigError(f"{path}{where}: {problem}") from None
    except RecursionError:
        # PyYAML's composer recurses once per level of nesting
        raise ConfigError(f"{path}: nested too deeply to parse") from None
    return validate_config(cfg)


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

def run_free_spin(cfg: dict) -> Tuple[Dict[str, float], dict, Dict[str, Trajectory]]:
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
    values = {"spin_deviation": spin_dev, "constraint_drift": _drift(traj),
              "energy_drift": _energy_drift(traj)}
    metrics = {"spin_deviation": spin_dev, "samples": float(len(traj))}
    return values, metrics, {"timeseries": traj}


def run_larmor(cfg: dict) -> Tuple[Dict[str, float], dict, Dict[str, Trajectory]]:
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

    values = {"spin_frequency": spin_err, "cyclotron_frequency": cyc_err,
              "constraint_drift": _drift(traj),
              "energy_drift": _energy_drift(traj)}
    metrics = {
        "fitted_spin_frequency": spin_fit.omega,
        "expected_spin_frequency": omega_spin,
        "fitted_cyclotron_frequency": cyc_fit.omega,
        "expected_cyclotron_frequency": omega_cyc,
        "max_constraint_drift": _drift(traj),
        "max_energy_drift": _energy_drift(traj),
    }
    return values, metrics, {"timeseries": traj}


def run_stern_gerlach(cfg: dict) -> Tuple[Dict[str, float], dict, Dict[str, Trajectory]]:
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
    values = {"second_order_residual": residual,
              "constraint_drift": _drift(traj),
              "energy_drift": _energy_drift(traj)}
    metrics = {
        "max_second_order_residual": residual,
        "momentum_deflection_z": deflection,
    }
    return values, metrics, {"timeseries": traj}


def run_gauge_compare(cfg: dict) -> Tuple[Dict[str, float], dict, Dict[str, Trajectory]]:
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
    values = {"spin_agreement": spin_gap, "position_agreement": pos_gap,
              "omega_separation": omega_gap}
    metrics = {
        "max_spin_gap": spin_gap,
        "max_position_gap": pos_gap,
        "max_omega_gap": omega_gap,
        "gauge_a": gauge_a.label,
        "gauge_b": gauge_b.label,
    }
    return values, metrics, {"timeseries_a": traj_a, "timeseries_b": traj_b}


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

    values, metrics, trajectories = runner(cfg)
    # a threshold is the config's override by name, then `checks.all` for an
    # upper bound, then the table's default; a "max" check passes below its
    # threshold, a "min" check above it, and a nan value fails either
    overrides = cfg.get("checks", {})
    checks = []
    for name, default in SCENARIO_CHECKS[scenario].items():
        comparison = "min" if name in MIN_CHECKS else "max"
        if comparison == "max":
            default = overrides.get("all", default)
        value = float(values[name])
        threshold = float(overrides.get(name, default))
        checks.append({"name": name, "value": value, "threshold": threshold,
                       "comparison": comparison,
                       "passed": (value > threshold if comparison == "min"
                                  else value < threshold)})
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for tag, traj in trajectories.items():
        name = f"{prefix}_{tag}.csv"
        write_timeseries(traj, out_dir / name)
        artifacts[tag] = name

    summary = {
        "scenario": scenario,
        "seed": int(cfg.get("seed", 0)),
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
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

    # a warning shown on stderr is one line, like the error messages
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
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
