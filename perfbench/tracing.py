"""Outside-in tracing of the spinbundle layers.

`Tracer.installed()` wraps every public function of the layer modules and
puts each wrapper in place of every binding of that function in a spinbundle
module, for example `poisson_bracket` in `phasespace`, `constraints`,
`dynamics` and `cli`. It also wraps the runners in `cli.SCENARIOS` and
`GaugeFunction.derivative`. On exit every binding gets its original back.

A span is (name, start, end, parent, op id). Spans stay in memory, in flat
arrays, until the pass ends; nothing is written while the program runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

LAYER_MODULES = ("phasespace", "constraints", "bundle_so3", "lorentz",
                 "dynamics", "cli")
GAUGE_DERIVATIVE = "dynamics.gauge_derivative"

# Values measured at a boundary besides the span: (args, result) -> amount.
_MEASURES: Dict[str, Callable] = {
    "dynamics.integrate": lambda args, result: len(result),
    "cli.write_timeseries": lambda args, result: Path(result).stat().st_size,
}


def _public_functions(module) -> Dict[Callable, str]:
    short = module.__name__.rsplit(".", 1)[-1]
    return {value: f"{short}.{value.__name__}"
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and not attr.startswith("_")
            and value.__module__ == module.__name__}


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        self._stack: List[int] = []
        self.op = -1
        self.op_scenarios: List[str] = []
        self.measured: Dict[str, float] = {name: 0.0 for name in _MEASURES}
        self._patched: List[tuple] = []
        self._scenarios: Dict[str, tuple] = {}

    def begin_op(self) -> None:
        """Spans recorded from now on belong to a new op; the caller names
        its scenario in op_scenarios[-1] once the config is loaded."""
        self.op = len(self.op_scenarios)
        self.op_scenarios.append("")

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends = self._name, self._start, self._end
        parents, ops, stack = self._parent, self._op, self._stack
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if measure is not None:
                self.measured[name] += measure(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        cli = importlib.import_module("spinbundle.cli")
        dynamics = importlib.import_module("spinbundle.dynamics")
        targets: Dict[Callable, str] = {}
        for short in LAYER_MODULES:
            targets.update(_public_functions(
                importlib.import_module(f"spinbundle.{short}")))
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        self._scenarios = scenarios = dict(cli.SCENARIOS)
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "spinbundle" and not modname.startswith("spinbundle."):
                    continue
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._set(module, attr, wrappers[value])
            for key, (runner, text) in scenarios.items():
                cli.SCENARIOS[key] = (wrappers.get(runner, runner), text)
            derivative = dynamics.GaugeFunction.__dict__["derivative"]
            self._set(dynamics.GaugeFunction, "derivative",
                      self._wrap(GAUGE_DERIVATIVE, derivative))
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            cli.SCENARIOS.update(scenarios)

    def restored(self) -> bool:
        """True when every binding the tracer replaced holds its original."""
        cli = importlib.import_module("spinbundle.cli")
        return (all(getattr(owner, attr) is original
                    for owner, attr, original in self._patched)
                and all(cli.SCENARIOS[key][0] is runner
                        for key, (runner, _) in self._scenarios.items()))

    def spans(self) -> Dict[str, np.ndarray]:
        """The recorded spans as columns; `name` indexes `self.names`."""
        return {
            "name": np.asarray(self._name, dtype=np.int64),
            "start": np.asarray(self._start, dtype=float),
            "end": np.asarray(self._end, dtype=float),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "op": np.asarray(self._op, dtype=np.int64),
        }

    def layer_metrics(self, metrics: List[str], traced_wall_s: float) -> Dict[str, float]:
        """The named per-layer metrics: `<function>.calls` and `.self_s`,
        summed over a module's public functions for `bundle_so3` and
        `lorentz`; `cli.run_config.<scenario>_s`; and the derived ones below."""
        s = self.spans()
        n, k = len(s["name"]), len(self.names)
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=n)
        own = dur - child
        ids = {name: i for i, name in enumerate(self.names)}
        stats = {"calls": np.bincount(s["name"], minlength=k),
                 "self_s": np.bincount(s["name"], weights=own, minlength=k)}

        integrate = ids.get("dynamics.integrate", -1)
        post_ids = [ids[name] for name in ("dynamics.physical_hamiltonian",
                                           "dynamics.solve_multiplier") if name in ids]
        parent_name = np.where(nested, s["name"][np.maximum(s["parent"], 0)], -1)
        post = np.isin(s["name"], post_ids) & (parent_name == integrate)
        samples = self.measured["dynamics.integrate"]
        eom_calls = float((s["name"] == ids.get("dynamics.eom", -1)).sum())
        derived = {
            "dynamics.postprocess_s": float(dur[post].sum()),
            "dynamics.rhs_per_sample": eom_calls / samples if samples else 0.0,
            "cli.write_timeseries.bytes": float(self.measured["cli.write_timeseries"]),
            "unattributed_s": traced_wall_s - float(own.sum()),
        }
        run_config = s["name"] == ids.get("cli.run_config", -1)
        for op, seconds in zip(s["op"][run_config], dur[run_config]):
            key = f"cli.run_config.{self.op_scenarios[op]}_s"
            derived[key] = derived.get(key, 0.0) + float(seconds)

        out: Dict[str, float] = {}
        for metric in metrics:
            layer, _, stat = metric.rpartition(".")
            if stat in stats:
                module = layer in ("bundle_so3", "lorentz")
                out[metric] = float(sum(
                    stats[stat][i] for name, i in ids.items()
                    if name == layer or (module and name.startswith(layer + "."))))
            elif metric in derived or metric.startswith("cli.run_config."):
                out[metric] = derived.get(metric, 0.0)
            else:
                raise KeyError(f"no per-layer metric named {metric}")
        return out


def save_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans and their name table as a compressed .npz file."""
    np.savez_compressed(path, names=np.array(tracer.names),
                        op_scenarios=np.array(tracer.op_scenarios, dtype=str),
                        **tracer.spans())
