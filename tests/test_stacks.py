"""The bracket engine over stacks of points pinned to its per-point calls:
every observable builder's gradient, the Poisson bracket, and one table of
the engine's stacked entry points (Poisson and Dirac brackets, constraint
matrix, classification, residuals) over constraint sets on and off their
surfaces; a degenerate delta anywhere in a stack raises before any f or g
gradient is taken, an off-surface stack warns once, and _dot matches
per-row dot products on strided and Fortran-ordered stacks."""

import math

import numpy as np
import pytest

from spinbundle.constraints import (
    BracketMatrix,
    Classification,
    Constraint,
    ConstraintSet,
    _radial_balance,
    classify,
    constraint_matrix,
    dirac_bracket,
    dirac_brackets,
    evaluate,
    gauge_momentum,
    omega_dot_pi,
    omega_norm_sq,
    pauli_model_set,
    pi_norm_sq,
    second_class_pair,
    t4_surface_set,
)
from spinbundle.errors import (
    DegenerateConstraintError,
    GradientError,
    OffSurfaceWarning,
    SpinBundleError,
)
from spinbundle.lorentz import (
    spin_tensor_component,
    t3_constraint_set,
    t3_rest_points,
)
from spinbundle.phasespace import (
    MINKOWSKI_SPIN,
    OMEGA,
    Observable,
    _dot,
    constant,
    coordinate,
    poisson_bracket,
    quadratic,
    spin_component,
)

from conftest import random_phase_state
from test_kernels import _counted, _counted_set

SIZES = [0, 1, 7, 100]


def _symmetric(rng, dim):
    A = rng.standard_normal((dim, dim))
    return 0.5 * (A + A.T)


def _builders(rng):
    """(observable, dim) for every builder of the package, with sums,
    negations and scalar multiples, and one observable without a gradient."""
    A, b = _symmetric(rng, 14), rng.standard_normal(14)
    P = [1.3, 0.2, -0.4, 0.5]
    return [
        (coordinate(6), 14), (constant(2.5), 14), (gauge_momentum(), 14),
        *[(spin_component(i), 14) for i in range(3)],
        (quadratic(A, b, 0.3), 14),
        (omega_norm_sq(), 14), (pi_norm_sq(), 14), (omega_dot_pi(), 14),
        (_radial_balance(0.75), 14),
        (pi_norm_sq() + 1.7 * omega_norm_sq(), 14),
        (-spin_component(1), 14), (spin_component(0) - 1.5, 14),
        (Observable(lambda z: z[6] * z[9] ** 2, name="no gradient"), 14),
        (spin_tensor_component(0, 2), 8), (spin_tensor_component(1, 3), 8),
        *[(c.func, 8) for c in t3_constraint_set(P)],
    ]


@pytest.mark.parametrize("n", SIZES)
def test_builder_gradients_on_a_stack_are_the_per_row_gradients(n, rng):
    for obs, dim in _builders(rng):
        Z = rng.standard_normal((n, dim))
        got = obs.gradient(Z)
        assert got.shape == (n, dim), obs.name
        want = np.reshape([obs.gradient(z) for z in Z], (n, dim))
        assert np.array_equal(got, want), obs.name


@pytest.mark.parametrize("n", SIZES)
def test_quadratic_gradient_is_the_matrix_vector_product(n, rng):
    A, b = _symmetric(rng, 14), rng.standard_normal(14)
    Z = rng.standard_normal((n, 14))
    got = quadratic(A, b).gradient(Z)
    assert np.array_equal(got, np.reshape([A @ z + b for z in Z], (n, 14)))


@pytest.mark.parametrize("n", SIZES)
def test_poisson_brackets_on_a_stack_are_the_per_point_brackets(n, rng):
    builders = _builders(rng)
    for dim, structure in ((14, {}), (8, {"structure": MINKOWSKI_SPIN})):
        observables = [obs for obs, d in builders if d == dim]
        Z = rng.standard_normal((n, dim))
        for f, g in zip(observables, observables[1:] + observables[:1]):
            got = poisson_bracket(f, g, Z, **structure)
            assert isinstance(got, np.ndarray) and got.shape == (n,)
            per_point = [poisson_bracket(f, g, z, **structure) for z in Z]
            assert all(type(value) is float for value in per_point)
            assert np.array_equal(got, per_point), (f.name, g.name)


def _four_constraint_set(a):
    """The pair with x1 and p1: delta is block diagonal and invertible, and
    takes the LAPACK solve."""
    pair = second_class_pair(a)
    return ConstraintSet(constraints=(
        *pair, Constraint("x1", coordinate(0)), Constraint("p1", coordinate(3))))


def _states(rng, n, radii):
    """n points with the spin sector on omega^2 = a^2, pi^2 = b^2,
    omega.pi = 0, (a, b) = radii(i) for row i."""
    return np.reshape([random_phase_state(rng, *radii(i)) for i in range(n)],
                      (n, 14))


def _t4_radii(rng, on_surface):
    """(a, b) of a point on the t4 surface pi^2 = 0.75 / omega^2 where
    on_surface(i), and of one off it elsewhere."""
    def radii(i):
        a = rng.uniform(0.7, 1.5)
        return a, np.sqrt(0.75) / a * (1.0 if on_surface(i) else 1.3)
    return radii


def _t3_points(rng, n):
    """n points of the covariant sector at rest, every third one moved off
    the surface."""
    w, p, _ = t3_rest_points(rng.standard_normal((n, 6)), 0.9, 0.9, 1.4)
    z = np.concatenate([w, p], axis=-1)
    z[2::3] += rng.standard_normal((len(z[2::3]), 8))
    return t3_constraint_set([1.4, 0.0, 0.0, 0.0], 0.9, 0.9), z


SETS = {
    "pair": lambda rng, n: (
        second_class_pair(0.8), _states(rng, n, lambda i: (0.8,))),
    "t4 on its surface": lambda rng, n: (
        t4_surface_set(0.75), _states(rng, n, _t4_radii(rng, lambda i: True))),
    "t4 off its surface": lambda rng, n: (
        t4_surface_set(0.75), _states(rng, n, _t4_radii(rng, lambda i: False))),
    "t4 on and off its surface": lambda rng, n: (
        t4_surface_set(0.75),
        _states(rng, n, _t4_radii(rng, lambda i: i % 3 != 2))),
    "pauli model": lambda rng, n: (
        pauli_model_set(1.0), _states(rng, n, lambda i: (1.0,))),
    "four constraints": lambda rng, n: (
        _four_constraint_set(0.8), _states(rng, n, lambda i: (0.8,))),
    "t3 on the Minkowski structure": _t3_points,
    "one constraint": lambda rng, n: (
        ConstraintSet((Constraint("omega_sq", omega_norm_sq(), 1.0),)),
        _states(rng, n, lambda i: (rng.uniform(0.9, 1.1),))),
}


def _observables(rng, cset):
    """fs and gs for the brackets: spins, coordinates, random quadratics and
    one of the set's own constraints."""
    dim = cset.structure.dim
    quads = [quadratic(_symmetric(rng, dim), rng.standard_normal(dim))
             for _ in range(2)]
    if dim == 8:
        spins = [spin_tensor_component(0, 2), spin_tensor_component(1, 3)]
        return ([*spins, coordinate(1, 8), quads[0], cset.constraints[0].func],
                [*spins, coordinate(5, 8), quads[1]])
    spins = [spin_component(i) for i in range(3)]
    return ([*spins, coordinate(6), quads[0], cset.constraints[0].func],
            [*spins, coordinate(9), coordinate(3), quads[1]])


def _per_row(result):
    """A stacked result as the list of its rows' results."""
    if isinstance(result, BracketMatrix):
        return [BracketMatrix(delta, result.names) for delta in result.delta]
    return list(result)


def _fields(result):
    """What a result carries: a classification's tags, condition and
    bracket matrix, a bracket matrix's names and delta, or the value."""
    if isinstance(result, Classification):
        return (result.first_class, result.second_class,
                result.second_class_condition, *_fields(result.bracket))
    if isinstance(result, BracketMatrix):
        return result.names, result.delta
    return (result,)


# each stacked entry point of the engine as a call on (set, points, fs, gs),
# the type it returns at one point, and the shape of that value (of its
# delta for a bracket matrix), None for a classification
ENTRY_POINTS = {
    "poisson_bracket": (
        lambda cset, z, fs, gs: poisson_bracket(fs[0], gs[-1], z,
                                                cset.structure),
        float, lambda cset, fs, gs: ()),
    "dirac_bracket": (
        lambda cset, z, fs, gs: dirac_bracket(fs[0], gs[1], cset, z),
        float, lambda cset, fs, gs: ()),
    "dirac_brackets": (
        lambda cset, z, fs, gs: dirac_brackets(fs, gs, cset, z),
        np.ndarray, lambda cset, fs, gs: (len(fs), len(gs))),
    "constraint_matrix": (
        lambda cset, z, fs, gs: constraint_matrix(cset, z),
        BracketMatrix, lambda cset, fs, gs: (len(cset), len(cset))),
    "classify": (
        lambda cset, z, fs, gs: classify(cset, z), Classification, None),
    "evaluate": (
        lambda cset, z, fs, gs: evaluate(cset, z),
        np.ndarray, lambda cset, fs, gs: (len(cset),)),
}


def _outcome(call):
    """call's result, or the type of the library error it raises."""
    try:
        return call()
    except SpinBundleError as err:
        return type(err)


@pytest.mark.filterwarnings("ignore::spinbundle.errors.OffSurfaceWarning")
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("set_name", SETS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_engine_on_a_stack_is_its_per_point_calls(entry, set_name, n, rng):
    """Each entry point on a stack gives, row for row, what it gives at each
    point alone; where a point raises, the stack raises the same error."""
    call, single_type, shape = ENTRY_POINTS[entry]
    cset, Z = SETS[set_name](rng, n)
    fs, gs = _observables(rng, cset)
    stacked = _outcome(lambda: call(cset, Z, fs, gs))
    per_point = [_outcome(lambda: call(cset, z, fs, gs)) for z in Z]
    raised = [want for want in per_point if isinstance(want, type)]
    if raised:
        assert stacked is raised[0]
        return
    if shape is not None:
        value = getattr(stacked, "delta", stacked)
        assert value.shape == (n,) + shape(cset, fs, gs)
    rows = _per_row(stacked)
    assert len(rows) == n
    for got, want in zip(rows, per_point):
        assert type(want) is single_type
        for got_field, want_field in zip(_fields(got), _fields(want),
                                         strict=True):
            if isinstance(want_field, (tuple, type(None))):
                assert got_field == want_field
            else:
                assert np.array_equal(got_field, want_field), entry


@pytest.mark.filterwarnings("ignore::spinbundle.errors.OffSurfaceWarning")
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("set_name",
                         ["pair", "t4 off its surface", "four constraints"])
def test_dirac_bracket_on_a_stack_is_an_entry_of_the_block(set_name, n, rng):
    cset, Z = SETS[set_name](rng, n)
    fs, gs = _observables(rng, cset)
    assert np.array_equal(dirac_bracket(fs[0], gs[1], cset, Z),
                          dirac_brackets(fs, gs, cset, Z)[:, 0, 1])


@pytest.mark.parametrize("make_set", [second_class_pair, _four_constraint_set])
def test_degenerate_delta_at_one_point_of_a_stack_raises_first(make_set, rng):
    counts = {}
    fs = [_counted(spin_component(k), counts, f"f{k}") for k in range(3)]
    gs = [_counted(coordinate(9 + k), counts, f"g{k}") for k in range(3)]
    Z = np.reshape([random_phase_state(rng) for _ in range(7)], (7, 14))
    Z[4, OMEGA] = 0.0
    with pytest.raises(DegenerateConstraintError) as info:
        dirac_brackets(fs, gs, make_set(1.0), Z)
    assert info.value.condition_number == math.inf
    assert counts == {}


def test_stack_shapes_and_gradient_errors_are_checked(rng):
    Z = np.reshape([random_phase_state(rng) for _ in range(6)], (6, 14))
    with pytest.raises(ValueError):
        poisson_bracket(spin_component(0), spin_component(1),
                        Z.reshape(2, 3, 14))
    Z[3, 8] = np.inf
    with pytest.raises(GradientError) as err:
        poisson_bracket(omega_norm_sq(), spin_component(0), Z)
    assert err.value.label == "omega3"


def test_classify_rejects_a_bad_tolerance_before_any_bracket(rng):
    counts = {}
    cset = _counted_set(pauli_model_set(), counts)
    Z = np.reshape([random_phase_state(rng) for _ in range(7)], (7, 14))
    for z in (Z, Z[0]):
        with pytest.raises(ValueError):
            classify(cset, z, tol=0.0)
    assert counts == {}


def test_classify_keeps_a_unit_scale_against_a_nan_bracket():
    """{omega^2, pi^2} = 4 omega.pi overflows into nan here: the nan pair
    is second-class with an infinite condition number, and pi_phi, whose
    brackets vanish, stays first-class, on a stack as at the point."""
    cset = ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), 1.0),
        Constraint("pi_sq", pi_norm_sq(), 1.0),
        Constraint("pi_phi", gauge_momentum(), 0.0)))
    z = np.zeros(14)
    z[OMEGA], z[9:12], z[12] = (1e200, 1e200, 0.0), (1e200, -1e200, 1e200), 1.0
    with pytest.warns(OffSurfaceWarning):
        results = [classify(cset, z), *classify(cset, z[None])]
    for result in results:
        assert np.isnan(result.bracket.delta[0, 1])
        assert result.first_class == ("pi_phi",)
        assert result.second_class == ("omega_sq", "pi_sq")
        assert result.second_class_condition == math.inf


def test_an_off_surface_stack_warns_once_naming_its_first_row(rng):
    cset, Z = SETS["t4 on and off its surface"](rng, 7)
    with pytest.warns(OffSurfaceWarning) as record:
        constraint_matrix(cset, Z)
    assert len(record) == 1
    assert str(record[0].message) == (
        "constraint_matrix: point (row 2) is off the constraint surface "
        f"(residuals {evaluate(cset, Z[2])})")
    with pytest.warns(OffSurfaceWarning) as record:
        constraint_matrix(cset, Z[5])
    assert str(record[0].message) == (
        "constraint_matrix: point is off the constraint surface "
        f"(residuals {evaluate(cset, Z[5])})")


@pytest.mark.parametrize("layout", ["strided", "fortran"])
@pytest.mark.parametrize("k", [4, 12])
def test_dot_of_a_strided_stack_is_the_per_row_dot(k, layout, rng):
    """BLAS sums a strided vector in another order than a unit-stride one;
    _dot gives every row what np.dot gives its contiguous copy."""
    n = 500

    def draw():
        values = (rng.standard_normal((n, k))
                  * 10.0 ** rng.uniform(-8.0, 8.0, (n, k)))
        if layout == "fortran":
            return np.asfortranarray(values)
        wide = np.empty((n, 2 * k))
        wide[:, ::2] = values
        return wide[:, ::2]

    u, v = draw(), draw()
    want = [np.dot(np.ascontiguousarray(a), np.ascontiguousarray(b))
            for a, b in zip(u, v)]
    assert np.array_equal(_dot(u, v), want)
