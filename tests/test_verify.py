"""The verification suites: their RNG streams, their smallest runs, and the
bracket engine on their path."""

from itertools import groupby

import numpy as np
import pytest

from spinbundle import bundle_so3, constraints, lorentz, verify
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


# repr of every check value of a default run, as the suites gave them when
# every block drew and checked one point at a time.
GOLDEN_VALUES = {
    ("verify_so3", 0): {
        "casimir_identity": "1.4210854715202004e-14",
        "dirac_annihilation": "0.0",
        "dirac_omega_pi": "3.3306690738754696e-16",
        "gauge_group_law": "1.2212453270876722e-15",
        "rotation_orthogonality": "4.192488031514384e-15",
        "so2_invariance": "3.3306690738754696e-16",
        "so3_rank_ratio": "3.3917873657517374e-16",
        "spin_algebra_dirac": "0.0",
        "spin_algebra_poisson": "0.0",
        "spin_normalization": "4.440892098500626e-16",
    },
    ("verify_so3", 3): {
        "casimir_identity": "2.220446049250313e-14",
        "dirac_annihilation": "0.0",
        "dirac_omega_pi": "3.3306690738754696e-16",
        "gauge_group_law": "1.5265566588595902e-15",
        "rotation_orthogonality": "7.375595685550634e-15",
        "so2_invariance": "3.3306690738754696e-16",
        "so3_rank_ratio": "3.3917873657517364e-16",
        "spin_algebra_dirac": "0.0",
        "spin_algebra_poisson": "0.0",
        "spin_normalization": "4.440892098500626e-16",
    },
    ("verify_lorentz", 0): {
        "bmt_orthogonality": "3.552713678800501e-15",
        "bmt_round_trip": "5.551115123125783e-15",
        "casimir_deviation": "1.2878587085651816e-13",
        "ellipsoid_residual": "2.842170943040401e-14",
        "frenkel_residual": "5.696125791425276e-14",
        "so13_rank_ratio": "1.285651697918641e-15",
        "t3_boost_residual": "3.0003777240494856e-14",
        "tetrad_identity": "1.1425885037744206e-14",
    },
    ("verify_lorentz", 3): {
        "bmt_orthogonality": "3.552713678800501e-15",
        "bmt_round_trip": "3.1086244689504383e-15",
        "casimir_deviation": "5.773159728050814e-14",
        "ellipsoid_residual": "2.842170943040401e-14",
        "frenkel_residual": "2.0605739337042905e-13",
        "so13_rank_ratio": "4.981580780308083e-16",
        "t3_boost_residual": "1.4210854715202004e-14",
        "tetrad_identity": "1.0658141036401503e-14",
    },
    ("verify_t4", 0): {
        "constraint_bracket_residual": "1.6375789613221059e-15",
        "first_class_misclassified": "0.0",
        "structure_action_spin": "3.3306690738754696e-16",
        "structure_action_surface": "8.881784197001252e-15",
        "t4_boost_residual": "1.4210854715202004e-14",
    },
    ("verify_t4", 3): {
        "constraint_bracket_residual": "2.220446049250313e-15",
        "first_class_misclassified": "0.0",
        "structure_action_spin": "3.3306690738754696e-16",
        "structure_action_surface": "1.6945501541784554e-14",
        "t4_boost_residual": "2.6201263381153694e-14",
    },
}


@pytest.mark.parametrize("suite, seed", list(GOLDEN_VALUES))
def test_suites_give_the_per_point_check_values(suite, seed):
    values, _, _ = getattr(verify, suite)({"scenario": suite, "seed": seed})
    got = {name: repr(value) for name, value in values.items()}
    assert got == GOLDEN_VALUES[suite, seed]


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


def test_worst_keeps_a_nan_wherever_it_is():
    # max() keeps its first argument against a nan, so a nan check value
    # after the first would pass as the larger finite one
    for values in ([np.nan, 1.0], [1.0, np.nan], [[0.0, 2.0], [np.nan, 0.0]]):
        assert np.isnan(verify._worst(values))
    assert repr(verify._worst([])) == repr(verify._worst([0.0])) == "0.0"


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_so3_suite_brackets_each_block_on_its_stack(monkeypatch):
    dirac = count_calls(monkeypatch, constraints, "dirac_brackets")
    poisson = count_calls(monkeypatch, verify, "poisson_bracket")
    verify.verify_so3({"scenario": "verify_so3", "n_points": 4,
                       "n_boosts": 3})
    # the spin and omega-pi blocks on the algebra points, then the
    # annihilation block on its 50 points; one Poisson call per spin pair
    assert [np.shape(args[3]) for args in dirac] == [(4, 14), (4, 14),
                                                     (50, 14)]
    assert [np.shape(args[2]) for args in poisson] == [(4, 14)] * 3


def test_t4_suite_classifies_its_stack_in_one_call(monkeypatch):
    classify = count_calls(monkeypatch, constraints, "classify")
    verify.verify_t4({"scenario": "verify_t4", "n_points": 4, "n_boosts": 3})
    assert len(classify) == 1
    assert np.shape(classify[0][-1]) == (4, 14)


# ---------------------------------------------------------------------------
# Stacked draws against the per-point samplers
# ---------------------------------------------------------------------------

class EditedNormals:
    """A generator whose k-th 3-vector of standard normal draws is replaced
    by zeros, or by the 3-vector drawn before it; the edit is part of its
    state."""

    def __init__(self, seed, k, repeat=False):
        self.rng = np.random.default_rng(seed)
        self.k, self.repeat = k, repeat
        self.count, self.last = 0, np.zeros(3)
        self.bit_generator = self

    @property
    def state(self):
        return self.rng.bit_generator.state, self.count, self.last

    @state.setter
    def state(self, state):
        self.rng.bit_generator.state, self.count, self.last = state

    def standard_normal(self, size=None, out=None):
        return self.edited(self.rng.standard_normal(size=size, out=out))

    def edited(self, values):
        for row in values.reshape(-1, 3):
            if self.count == self.k:
                row[:] = self.last if self.repeat else 0.0
            self.count, self.last = self.count + 1, row.copy()
        return values

    def __getattr__(self, name):
        return getattr(self.rng, name)


def per_point_surface(rng, radii):
    points = [bundle_so3.sample_surface_point(rng, a=a, b=b) for a, b in radii]
    return np.reshape(points, (len(radii), 2, 3)).transpose(1, 0, 2)


def stacked_surface(rng, a, b, n):
    raw, = verify._draw_rows(rng, n, verify._SURFACE)
    w, p, ok = bundle_so3.surface_points(raw, a, b)
    assert ok.all()
    return np.stack((w, p))


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("per_row", [False, True])
def test_stacked_surface_draws_are_the_per_point_draws(n, per_row):
    if per_row:
        a, b = np.random.default_rng(99).uniform(0.1, 3.0, (2, n))
        radii = list(zip(a, b))
    else:
        a, b = 0.8, 1.3
        radii = [(a, b)] * n
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(stacked_surface(rng, a, b, n),
                          per_point_surface(ref, radii))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("k, repeat", [(0, False), (1, False), (1, True),
                                       (12, False), (13, True)])
def test_rejected_surface_draw_falls_back_to_the_per_point_draws(k, repeat):
    # 3-vector 2i is point i's omega draw, 2i + 1 its pi draw; a pi draw equal
    # to the omega draw has no perpendicular part
    rng, ref = EditedNormals(4, k, repeat), EditedNormals(4, k, repeat)
    n = 10
    got = stacked_surface(rng, 0.8, 1.3, n)
    assert np.array_equal(got, per_point_surface(ref, [(0.8, 1.3)] * n))
    assert rng.rng.bit_generator.state == ref.rng.bit_generator.state
    assert rng.count == ref.count == 2 * n + 1


def per_point_boosted(rng, n, beta_max, rest_point, draw_mass=True):
    """The boosted points drawn one point at a time."""
    rest = np.empty((3, n, 4))
    beta = np.empty((n, 3))
    for i in range(n):
        mass = rng.uniform(0.5, 2.0) if draw_mass else 1.0
        rest[:, i] = rest_point(rng, mass=mass)
        beta[i] = lorentz.sample_beta(rng, beta_max)
    return np.matmul(lorentz.boost_matrix(beta), rest[..., None])[..., 0]


BOOSTED = {
    "t3": (lambda u, raw, mass: lorentz.t3_rest_points(raw, mass=mass), 0,
           lorentz.sample_t3_rest_point),
    "t4": (lambda u, raw, mass: lorentz.t4_rest_points(u[:, 0], raw,
                                                       mass=mass), 1,
           lorentz.sample_t4_rest_point),
}


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("kind", list(BOOSTED))
@pytest.mark.parametrize("draw_mass", [True, False])
def test_boosted_points_are_the_per_point_draws(n, kind, draw_mass):
    rest_points, radius_draws, rest_point = BOOSTED[kind]
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    got = verify._boosted_points(rng, n, 0.9, rest_points, radius_draws,
                                 draw_mass)
    want = per_point_boosted(ref, n, 0.9, rest_point, draw_mass)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("k, repeat", [(0, False), (1, True), (2, False),
                                       (17, False), (16, True)])
def test_rejected_boost_draw_falls_back_to_the_per_point_draws(k, repeat):
    # per point, 3-vectors 3i and 3i + 1 are the surface draws and 3i + 2 the
    # velocity direction
    rest_points, radius_draws, rest_point = BOOSTED["t3"]
    rng, ref = EditedNormals(5, k, repeat), EditedNormals(5, k, repeat)
    got = verify._boosted_points(rng, 9, 0.9, rest_points, radius_draws)
    want = per_point_boosted(ref, 9, 0.9, rest_point)
    assert np.array_equal(got, want)
    assert rng.rng.bit_generator.state == ref.rng.bit_generator.state


# ---------------------------------------------------------------------------
# The draw blocks' calls against the per-point generator calls
# ---------------------------------------------------------------------------

RANDOM = {size: verify._Draw("random", size) for size in range(3)}
STANDARD = {size: verify._Draw("standard_normal", size) for size in (2, 3, 6)}

# every layout of parts the suites draw: stretches joined across points where
# the first and last part share a method, a size-0 random part, and blocks
# that one method fills
DRAW_LAYOUTS = {
    "surface": (verify._SURFACE,),
    "surface_states": (verify._SURFACE, STANDARD[6], RANDOM[1]),
    "bundle": (verify._SURFACE, verify._SURFACE, RANDOM[1]),
    "casimir": (STANDARD[3], STANDARD[3]),
    "boosted_unit_mass": (RANDOM[0], verify._SURFACE, verify._DIRECTION,
                          RANDOM[1]),
    "boosted": (RANDOM[1], verify._SURFACE, verify._DIRECTION, RANDOM[1]),
    "boosted_t4": (RANDOM[2], verify._SURFACE, verify._DIRECTION, RANDOM[1]),
    "scale_free": (RANDOM[1], verify._SURFACE),
    "scale_free_action": (RANDOM[1], verify._SURFACE, RANDOM[2]),
    "group_law": (RANDOM[1], STANDARD[2], RANDOM[2], STANDARD[2]),
}


R, S = "random", "standard_normal"


def random_layouts(seed, count):
    """count layouts of 1 to 5 parts, each of 0 to 6 draws of random() or
    standard_normal()."""
    rng = np.random.default_rng(seed)
    return {f"random_{k}": tuple(
        verify._Draw((R, S)[rng.integers(2)], int(rng.integers(7)))
        for _ in range(rng.integers(1, 6))) for k in range(count)}


# first and last parts that share a method, blocks that one method fills,
# size-0 parts between two parts of one method and at a row's ends
MORE_LAYOUTS = {
    "shared_ends": (STANDARD[2], verify._Draw(R, 3), verify._Draw(S, 1)),
    "one_method": (verify._Draw(R, 3), RANDOM[0], verify._Draw(R, 5)),
    "empty_between": (STANDARD[2], RANDOM[0], verify._Draw(S, 4), RANDOM[1]),
    "empty_ends": (RANDOM[0], STANDARD[3], RANDOM[2], verify._Draw(S, 0)),
    "all_empty": (RANDOM[0], verify._Draw(S, 0)),
    **random_layouts(30, 24),
}

LAYOUTS = {**DRAW_LAYOUTS, **MORE_LAYOUTS}


class CountedCalls:
    """A generator that counts its calls of random() and standard_normal()."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


def stretches(n, draws):
    """The number of stretches of the per-point stream that one method
    fills."""
    stream = [d.method for _ in range(n) for d in draws for _ in range(d.size)]
    return len(list(groupby(stream)))


def per_point_rows(rng, n, draws):
    """Each point's parts drawn in turn, one generator call each."""
    rows = [np.empty((n, draw.size)) for draw in draws]
    for i in range(n):
        for draw, row in zip(draws, rows):
            row[i] = getattr(rng, draw.method)(size=draw.size)
    return rows


@pytest.mark.parametrize(
    "layout, n",
    [(layout, n) for layout in DRAW_LAYOUTS for n in (0, 1, 7, 1000)]
    + [(layout, n) for layout in MORE_LAYOUTS for n in (0, 1, 7)])
def test_draw_rows_are_the_per_point_calls(layout, n):
    draws = LAYOUTS[layout]
    rng, ref = CountedCalls(n), np.random.default_rng(n)
    got = verify._draw_rows(rng, n, *draws)
    want = per_point_rows(ref, n, draws)
    assert [row.shape for row in got] == [row.shape for row in want]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.calls == stretches(n, draws)
    if n and len({d.method for d in draws if d.size}) == 1:
        assert rng.calls == 1


@pytest.mark.parametrize("seed", range(50))
def test_stacked_group_law_is_the_per_point_transforms(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    two_step, one_step = verify._group_law(rng, 100)
    for i in range(100):
        g = bundle_so3.GaugeMatrix.from_multipliers(
            phi=1.0 + ref.uniform(0.0, 2.0),
            lambda1=ref.standard_normal(),
            lambda3=ref.standard_normal(),
        )
        b1, b2 = ref.uniform(0.0, 2.0 * np.pi, size=2)
        d1, d2 = ref.standard_normal(2)
        move = bundle_so3.gauge_matrix_transform
        assert np.array_equal(two_step[i], move(move(g, b1, d1), b2, d2).matrix)
        assert np.array_equal(one_step[i], move(g, b1 + b2, d1 + d2).matrix)
    assert rng.bit_generator.state == ref.bit_generator.state
