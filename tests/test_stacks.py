"""Stacks of points pinned to their per-point calls: every observable
builder's gradient, the Poisson bracket, and one table of the engine's
stacked entry points (Poisson and Dirac brackets, constraint matrix,
classification, residuals) over constraint sets on and off their surfaces;
a degenerate delta anywhere in a stack raises before any f or g gradient is
taken, an off-surface stack warns once, and _dot matches per-row dot
products on strided and Fortran-ordered stacks.  One more table,
STACKED_MAPS, holds every geometry map of bundle_so3 and lorentz."""

import functools
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
    DomainError,
    GradientError,
    OffSurfaceWarning,
    SpinBundleError,
    SuperluminalError,
    SurfaceError,
)
from spinbundle import bundle_so3 as so3
from spinbundle import lorentz as lor
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
    """(observable, dim) for every builder of the package, the first-class
    combination of pauli_model_set among them, and one observable without
    a gradient."""
    A, b = _symmetric(rng, 14), rng.standard_normal(14)
    P = [1.3, 0.2, -0.4, 0.5]
    return [
        (coordinate(6), 14), (gauge_momentum(), 14),
        *[(spin_component(i), 14) for i in range(3)],
        (quadratic(A, b, 0.3), 14),
        (omega_norm_sq(), 14), (pi_norm_sq(), 14), (omega_dot_pi(), 14),
        (_radial_balance(0.75), 14),
        (pauli_model_set().constraints[3].func, 14),
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


def _outcome(call, catch=SpinBundleError):
    """call's result, or the error of a type in catch that it raises; numpy's
    LinAlgError, although a ValueError, propagates."""
    try:
        return call()
    except np.linalg.LinAlgError:
        raise
    except catch as err:
        return err


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
    raised = [want for want in per_point if isinstance(want, Exception)]
    if raised:
        assert type(stacked) is type(raised[0])
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


# ---------------------------------------------------------------------------
# geometry kernels: one stack contract for bundle_so3 and lorentz
# ---------------------------------------------------------------------------

@functools.cache
def _geometry_inputs(n):
    """n read-only points of every argument kind the geometry maps take:
    boosted points of the covariant spin surface with their spin tensor and
    its parts, points of the normalized surface, velocities, positive
    scales and angles."""
    rng = np.random.default_rng(n)
    beta = lor.velocities(rng.standard_normal((n, 3)),
                          rng.uniform(0.0, 0.99, n))
    # both arms of the boost coefficient: at rest and on its series
    beta[:2] = np.array([(0.0, 0.0, 0.0), (1e-10, 0.0, 0.0)])[:n]
    rest = t3_rest_points(rng.standard_normal((n, 6)),
                          mass=rng.uniform(0.5, 2.0, n))
    omega4, pi4, P = ((lor.boost_matrix(beta) @ v[..., None])[..., 0]
                      for v in rest)
    J = lor.spin_tensor(omega4, pi4)
    k, j = lor.decompose_spin_tensor(J)
    omega3, pi3, _ = so3.surface_points(rng.standard_normal((n, 6)))
    inputs = {
        "omega4": omega4, "pi4": pi4, "P": P, "beta": beta, "J": J, "k": k,
        "j": j, "S": lor.j_to_bmt(j, P), "omega3": omega3, "pi3": pi3,
        "scale": np.exp(rng.uniform(-1.0, 1.0, n)),
        "angle": rng.uniform(0.0, 2.0 * np.pi, n),
    }
    for value in inputs.values():
        value.setflags(write=False)
    return inputs


# every geometry map that takes stacks, keyed by its name (and the Jacobian's
# kind), with the kinds of its arguments
STACKED_MAPS = {
    **{name: (getattr(lor, name), kinds) for name, kinds in [
        ("minkowski_dot", ("omega4", "pi4")), ("minkowski_sq", ("P",)),
        ("effective_mass", ("P",)), ("gamma_factor", ("P",)),
        ("beta_vector", ("P",)), ("boost_matrix", ("beta",)),
        ("spin_tensor", ("omega4", "pi4")), ("decompose_spin_tensor", ("J",)),
        ("compose_spin_tensor", ("k", "j")), ("casimir", ("J",)),
        ("frenkel_residual", ("J", "P")),
        ("base_ellipsoid_residual", ("j", "P")),
        ("t3_constraints", ("omega4", "pi4", "P")),
        ("t4_constraints", ("omega4", "pi4", "P")),
        ("bmt_vector", ("omega4", "pi4", "P")), ("j_to_bmt", ("j", "P")),
        ("bmt_to_j", ("S", "P")), ("bmt_to_k", ("S", "P")),
        ("tetrad", ("P", "omega4", "pi4")),
        ("t4_structure_action", ("omega3", "pi3", "scale", "angle"))]},
    **{name: (getattr(so3, name), kinds) for name, kinds in [
        ("spin_map", ("omega3", "pi3")), ("rotation_matrix", ("omega3", "pi3")),
        ("so2_action", ("omega3", "pi3", "angle")),
        ("surface_residuals", ("omega3", "pi3"))]},
    **{f"{fn.__name__}_{kind}": (functools.partial(fn, kind=kind), vectors)
       for fn in (so3.map_jacobian, so3.jacobian_singular_values)
       for kind, vectors in [("so3", ("omega3", "pi3")),
                             ("so13", ("omega4", "pi4"))]},
}

LAYOUTS = (lambda a: a, lambda a: np.repeat(a, 2, -1)[..., ::2],
           np.asfortranarray)

SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan)

# a finite row that fails each guard of a map, by the map and the kind of
# argument the row stands in for, with the error the point alone raises
GUARDS = {
    **dict.fromkeys(["effective_mass", "gamma_factor", "beta_vector",
                     "base_ellipsoid_residual", "bmt_vector", "bmt_to_j",
                     "bmt_to_k", "j_to_bmt"],
                    {"P": ((1.0, 2.0, 0.0, 0.0), DomainError)}),
    **dict.fromkeys(["decompose_spin_tensor", "casimir", "frenkel_residual"],
                    {"J": (np.eye(4), ValueError)}),
    "boost_matrix": {"beta": ((0.8, 0.8, 0.0), SuperluminalError)},
    "t4_constraints": {"omega4": ((1.0, 1.0, 0.0, 0.0), DomainError)},
    "tetrad": {"omega4": ((0.0, 2.0, 0.0, 0.0), SurfaceError)},
    "t4_structure_action": {"omega3": ((0.0, 0.0, 0.0), DomainError),
                            "pi3": ((0.0, 0.0, 0.0), DomainError),
                            "scale": (-1.0, DomainError)},
    "rotation_matrix": {"omega3": ((0.0, 2.0, 0.0), SurfaceError)},
    "jacobian_singular_values_so3": {"omega3": ((np.inf, 0.0, 0.0),
                                                DomainError)},
    "jacobian_singular_values_so13": {"omega4": ((0.0, np.inf, 0.0, 0.0),
                                                 DomainError)},
}
# the maps whose guard also fails a row of +-inf or nan, where the residual
# is inf or nan, or, for J, skew = scale = inf
REJECTS_NON_FINITE = {"rotation_matrix", "tetrad", "decompose_spin_tensor",
                      "casimir", "frenkel_residual"}


def _parts(result):
    """A map's result as a tuple: its parts, or itself alone."""
    return result if isinstance(result, tuple) else (result,)


def _per_point(fn, args):
    """fn at each point of the stacked args alone, on C-contiguous copies of
    its rows."""
    return [_outcome(lambda: fn(*(a[i].copy() for a in args)),
                     (SpinBundleError, ValueError))
            for i in range(len(args[0]))]


def _assert_stack_is_its_points(name, args, points):
    """The map on the stacked args gives each point's result in that point's
    row, or raises the error of the first point that raises, naming its
    row; one point's scalar is a float."""
    fn, kinds = STACKED_MAPS[name]
    one = _geometry_inputs(1)
    shapes = [np.shape(part) for part in _parts(fn(*(one[k][0] for k in kinds)))]
    stacked = _outcome(lambda: fn(*args), (SpinBundleError, ValueError))
    errors = [(i, p) for i, p in enumerate(points) if isinstance(p, Exception)]
    if errors:
        i, err = errors[0]
        assert type(stacked) is type(err)
        assert f" (row {i})" in str(stacked), stacked
        assert str(stacked).replace(f" (row {i})", "") == str(err)
        return
    assert all(np.ndim(part) or type(part) is float
               for point in points for part in _parts(point))
    for j, (part, shape) in enumerate(zip(_parts(stacked), shapes,
                                          strict=True)):
        want = np.array([_parts(point)[j] for point in points]
                        or np.empty((0, *shape)))
        assert part.shape == want.shape == (len(points), *shape)
        assert np.array_equal(part, want, equal_nan=True)


@pytest.mark.parametrize("name", STACKED_MAPS)
def test_geometry_map_on_a_stack_is_its_per_point_calls(name):
    """At each size, in C order, with a strided last axis and in Fortran
    order; then with a single P against a stack of its other arguments."""
    fn, kinds = STACKED_MAPS[name]
    for n in SIZES:
        args = [_geometry_inputs(n)[kind] for kind in kinds]
        points = _per_point(fn, args)
        for layout in LAYOUTS:
            _assert_stack_is_its_points(name, [layout(a) for a in args],
                                        points)
    if "P" in kinds and len(kinds) > 1:
        P = np.array([1.3, 0.2, -0.1, 0.4])
        args = [P if kind == "P" else a for kind, a in zip(kinds, args)]
        points = _per_point(fn, [np.broadcast_to(a, (n, 4)) if a is P else a
                                 for a in args])
        _assert_stack_is_its_points(name, args, points)


@pytest.mark.parametrize("name", STACKED_MAPS)
def test_a_special_row_of_a_stack_is_its_point(name, capfd):
    """Row 3 of each argument in turn holds +-0, +-inf, nan or the map's
    GUARDS row for that argument, which the point alone fails with the
    error given there, as it fails +-inf and nan in REJECTS_NON_FINITE;
    nothing is printed."""
    fn, kinds = STACKED_MAPS[name]
    for position, kind in enumerate(kinds):
        guard = GUARDS.get(name, {}).get(kind)
        rejects = guard and name in REJECTS_NON_FINITE
        for value, error in [
                *((v, guard[1] if rejects and not np.isfinite(v) else None)
                  for v in SPECIAL_VALUES),
                *([guard] if guard else [])]:
            args = [_geometry_inputs(7)[k].copy() for k in kinds]
            args[position][3] = value
            with np.errstate(all="ignore"):
                points = _per_point(fn, args)
                assert error is None or type(points[3]) is error, points[3]
                _assert_stack_is_its_points(name, args, points)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("name", STACKED_MAPS)
def test_geometry_map_rejects_a_wrong_trailing_shape(name):
    """Each vector or tensor argument in turn, then all of them, one entry
    short or long along the last axis."""
    fn, kinds = STACKED_MAPS[name]
    args = [_geometry_inputs(7)[kind] for kind in kinds]
    vectors = [i for i, a in enumerate(args) if a.ndim > 1]
    for change in (-1, 1):
        for wrong in [*([i] for i in vectors), vectors]:
            bad = [np.ones(a.shape[:-1] + (a.shape[-1] + change,))
                   if i in wrong else a for i, a in enumerate(args)]
            with pytest.raises(ValueError, match="takes points of shape"):
                fn(*bad)
