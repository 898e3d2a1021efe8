"""The bracket engine over stacks of points pinned to its per-point calls:
every observable builder's gradient, the Poisson bracket, and the Dirac
brackets of the second-class pair, of the t4 pair off its surface and of a
four-constraint set that LAPACK solves; a degenerate delta anywhere in a
stack raises before any f or g gradient is taken."""

import math

import numpy as np
import pytest

from spinbundle.constraints import (
    Constraint,
    ConstraintSet,
    _radial_balance,
    dirac_bracket,
    dirac_brackets,
    gauge_momentum,
    omega_dot_pi,
    omega_norm_sq,
    pi_norm_sq,
    second_class_pair,
    t4_surface_set,
)
from spinbundle.errors import DegenerateConstraintError, GradientError
from spinbundle.lorentz import spin_tensor_component, t3_constraint_set
from spinbundle.phasespace import (
    MINKOWSKI_SPIN,
    OMEGA,
    Observable,
    constant,
    coordinate,
    poisson_bracket,
    quadratic,
    spin_component,
)

from conftest import random_phase_state
from test_kernels import _counted

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


def _dirac_sets(rng, n):
    """(constraint set, stack of points) for the pair on its surface, the t4
    pair off its surface and the four-constraint set."""
    a = 0.8
    on_surface = np.reshape([random_phase_state(rng, a=a) for _ in range(n)],
                            (n, 14))
    off_surface = np.reshape(
        [random_phase_state(rng, a=rng.uniform(0.7, 1.5),
                            b=rng.uniform(0.7, 1.5)) for _ in range(n)],
        (n, 14))
    return [(second_class_pair(a), on_surface),
            (t4_surface_set(0.75), off_surface),
            (_four_constraint_set(a), on_surface)]


def _dirac_observables(rng, cset):
    spins = [spin_component(i) for i in range(3)]
    quads = [quadratic(_symmetric(rng, 14), rng.standard_normal(14))
             for _ in range(2)]
    fs = [*spins, coordinate(6), quads[0], cset.constraints[0].func]
    gs = [*spins, coordinate(9), coordinate(3), quads[1]]
    return fs, gs


@pytest.mark.parametrize("n", SIZES)
def test_dirac_brackets_on_a_stack_are_the_per_point_blocks(n, rng):
    for cset, Z in _dirac_sets(rng, n):
        fs, gs = _dirac_observables(rng, cset)
        block = dirac_brackets(fs, gs, cset, Z)
        assert block.shape == (n, len(fs), len(gs))
        want = np.reshape([dirac_brackets(fs, gs, cset, z) for z in Z],
                          block.shape)
        assert np.array_equal(block, want), cset.names
        single = dirac_bracket(fs[0], gs[1], cset, Z)
        assert np.array_equal(single, block[:, 0, 1])
        if n:
            assert type(dirac_bracket(fs[0], gs[1], cset, Z[0])) is float


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
