"""The verification suites: their RNG streams, their smallest runs, and the
bracket engine on their path."""

import numpy as np
import pytest

from spinbundle import constraints, verify
from spinbundle.cli import SCENARIO_CHECKS, run_config

SUITES = ("verify_so3", "verify_lorentz", "verify_t4")

# The internal state of each suite's generator after a default run, as the
# suites left it when every block drew and checked one point at a time.
# Drawing in another order, or in batches, moves it.
FINAL_RNG_STATE = {
    ("verify_so3", 0): 189903552030578090325550379113501956651,
    ("verify_so3", 3): 309345451552758807429418489479804284416,
    ("verify_lorentz", 0): 227711894391618489817769528314453854149,
    ("verify_lorentz", 3): 321386882417661180982017436863287283415,
    ("verify_t4", 0): 237565667364761747244540142012091034947,
    ("verify_t4", 3): 181571112546675937248839674758536136641,
}


@pytest.mark.parametrize("suite, seed", list(FINAL_RNG_STATE))
def test_suites_draw_the_per_point_stream(suite, seed, monkeypatch, tmp_path):
    made = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    code, summary = run_config({"scenario": suite, "seed": seed},
                               out_dir=tmp_path)
    assert code == 0, [c for c in summary["checks"] if not c["passed"]]
    assert len(made) == 1
    state = made[0].bit_generator.state["state"]["state"]
    assert state == FINAL_RNG_STATE[suite, seed]


@pytest.mark.parametrize("suite", SUITES)
def test_smallest_run_reports_every_check(suite, tmp_path):
    # n_points: 1 leaves verify_lorentz's rank block with no points
    cfg = {"scenario": suite, "n_points": 1, "n_boosts": 1}
    code, summary = run_config(cfg, out_dir=tmp_path)
    assert code == 0, [c for c in summary["checks"] if not c["passed"]]
    assert ([c["name"] for c in summary["checks"]]
            == list(SCENARIO_CHECKS[suite]))
    assert all(np.isfinite(c["value"]) for c in summary["checks"])


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_so3_suite_brackets_one_point_at_a_time(monkeypatch):
    dirac = count_calls(monkeypatch, constraints, "dirac_brackets")
    poisson = count_calls(monkeypatch, verify, "poisson_bracket")
    verify.verify_so3({"scenario": "verify_so3", "n_points": 4,
                       "n_boosts": 3})
    # two Dirac blocks per algebra point, one per annihilation point
    assert len(dirac) == 2 * 4 + 50
    assert len(poisson) == 3 * 4
    assert all(np.shape(args[-1]) == (14,) for args in dirac + poisson)


def test_t4_suite_classifies_one_point_at_a_time(monkeypatch):
    classify = count_calls(monkeypatch, constraints, "classify")
    verify.verify_t4({"scenario": "verify_t4", "n_points": 4, "n_boosts": 3})
    assert len(classify) == 4
    assert all(np.shape(args[-1]) == (14,) for args in classify)
