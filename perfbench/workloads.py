"""The benchmark's workloads: which configs each one runs, and why.

A workload is a fixed cycle of passes built from the seed. A pass is a list of
ops, and an op is one config file that the worker loads with
`cli.load_config`, runs with `cli.run_config` and reads back with
`cli.read_timeseries`. The program only ever sees the generated config files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np
import yaml

# The shipped dynamic configs, in the order the scenarios workload runs them.
SCENARIO_ORDER = ("larmor", "free_spin", "stern_gerlach", "gauge_compare")
VERIFY_SUITES = ("verify_so3", "verify_lorentz", "verify_t4")
# Input k of a cycle is drawn from seed + k, so one run covers several inputs
# and runs at neighbouring seeds share most of them. The projected pass runs
# its draws back to back, because one draw (about 7 s) is too short to time
# steadily on a shared machine and its check margin depends strongly on the
# draw; each verify seed is a pass of its own.
PROJECTED_DRAWS = 4
VERIFY_SEEDS = 8
PROJECTED_GAUGE = "1 + 0.5*sin(2*t)"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    # (seed, repository root, work directory) -> config paths of each pass
    passes: Callable[[int, Path, Path], List[List[Path]]]


def _write_config(workdir: Path, stem: str, cfg: dict) -> Path:
    path = workdir / "configs" / f"{stem}.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    # safe_dump writes floats in shortest round-trip form, so the program
    # reads back exactly the drawn values
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def _scenarios(seed: int, root: Path, workdir: Path) -> List[List[Path]]:
    # the seed is unused: the shipped configs run unchanged
    return [[root / "configs" / f"{name}.yaml" for name in SCENARIO_ORDER]]


def _projected(seed: int, root: Path, workdir: Path) -> List[List[Path]]:
    from spinbundle import bundle_so3, cli
    from spinbundle.dynamics import ModelParams

    base = cli.load_config(root / "configs" / "stern_gerlach.yaml")
    params = ModelParams(**base.get("params", {}))
    configs = []
    for k in range(PROJECTED_DRAWS):
        rng = np.random.default_rng(seed + k)
        omega, pi = bundle_so3.sample_surface_point(rng, a=params.a, b=params.b)
        stem = f"projected_{seed + k}"
        cfg = {
            **base,
            "initial": {**base.get("initial", {}),
                        "omega": omega.tolist(), "pi": pi.tolist()},
            "gauge": {"expression": PROJECTED_GAUGE},
            "tolerances": {**base.get("tolerances", {}), "project_every": 1},
            "output": {"prefix": stem},
        }
        configs.append(_write_config(workdir, stem, cfg))
    return [configs]


def _verify(seed: int, root: Path, workdir: Path) -> List[List[Path]]:
    return [
        [_write_config(workdir, f"{suite}_{seed + k}",
                       {"scenario": suite, "seed": seed + k})
         for suite in VERIFY_SUITES]
        for k in range(VERIFY_SEEDS)
    ]


WORKLOADS = {
    "scenarios": Workload(
        "scenarios",
        "the four shipped dynamic configs as users run them; eom and "
        "solve_multiplier dominate, with no projection or Dirac brackets",
        seeded=False, passes=_scenarios),
    "projected": Workload(
        "projected",
        "stern_gerlach with a seeded start, a parsed gauge and projection "
        "after every step: the project and gauge-derivative paths",
        seeded=True, passes=_projected),
    "verify": Workload(
        "verify",
        "the three verify suites at consecutive seeds: Dirac brackets, bundle "
        "and Lorentz maps with no eom calls, the control for eom work",
        seeded=True, passes=_verify),
}
