"""Constraint sets, Dirac classification, Dirac brackets, and projection."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinbundle.constraints import (
    _OMEGA3,
    Constraint,
    ConstraintSet,
    classify,
    constraint_matrix,
    default_pi_norm,
    dirac_bracket,
    dirac_brackets,
    evaluate,
    omega_dot_pi,
    omega_norm_sq,
    pauli_model_set,
    pi_norm_sq,
    project,
    second_class_pair,
    spin_surface_set,
    t4_surface_set,
)
from spinbundle.errors import (
    DegenerateConstraintError,
    DomainError,
    OffSurfaceWarning,
    ProjectionError,
)
from spinbundle.phasespace import (
    CANONICAL_PARTICLE,
    DIM,
    OMEGA,
    PI,
    PhasePoint,
    _bilinear,
    coordinate,
    quadratic,
    spin_component,
)

from conftest import random_phase_state


def surface_state(omega, pi, phi=1.0):
    z = np.zeros(DIM)
    z[OMEGA] = omega
    z[PI] = pi
    z[12] = phi
    return z


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_on_surface_is_zero():
    cset = spin_surface_set(a=1.0, b=2.0)
    z = surface_state((1, 0, 0), (0, 2, 0))
    assert_allclose(evaluate(cset, z), np.zeros(3), atol=1e-14)


def test_evaluate_parallel_vectors_violate_orthogonality():
    a, b = 1.5, 0.5
    cset = spin_surface_set(a=a, b=b)
    z = surface_state((a, 0, 0), (b, 0, 0))
    assert_allclose(evaluate(cset, z), (0.0, 0.0, a * b), atol=1e-14)


def test_evaluate_t4_set():
    cset = t4_surface_set(a=0.75)
    z = surface_state((2, 0, 0), (0, np.sqrt(3) / 4, 0))
    # pi^2 = 3/16 = (3/4) / 4
    assert_allclose(evaluate(cset, z), np.zeros(2), atol=1e-14)


def test_evaluate_t4_singular_at_zero_omega():
    cset = t4_surface_set(a=0.75)
    z = surface_state((0, 0, 0), (1, 0, 0))
    with pytest.raises(DomainError):
        evaluate(cset, z)


def test_constraint_set_rejects_duplicate_names():
    c = Constraint("phi", omega_norm_sq(), 1.0)
    with pytest.raises(ValueError):
        ConstraintSet(constraints=(c, c), structure=CANONICAL_PARTICLE)


# ---------------------------------------------------------------------------
# constraint_matrix
# ---------------------------------------------------------------------------

def test_bracket_matrix_of_second_class_pair():
    pair = second_class_pair(a=1.0)
    z = surface_state((1, 0, 0), (0, np.sqrt(3) / 2, 0))
    mat = constraint_matrix(pair, z)
    # {omega^2 - a^2, omega.pi} = 2 omega^2 = 2 on this surface
    assert_allclose(mat.delta, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-9)


def test_bracket_matrix_antisymmetric(rng):
    cset = pauli_model_set(a=1.3, b=0.7)
    z = random_phase_state(rng, a=1.3, b=0.7)
    delta = constraint_matrix(cset, z).delta
    assert_allclose(delta, -delta.T, atol=1e-12)


def test_gauge_momentum_row_vanishes(rng):
    cset = pauli_model_set()
    z = random_phase_state(rng)
    delta = constraint_matrix(cset, z).delta
    names = [c.name for c in cset.constraints]
    row = names.index("pi_phi")
    assert_allclose(delta[row], np.zeros(len(names)), atol=1e-9)
    assert_allclose(delta[:, row], np.zeros(len(names)), atol=1e-9)


@pytest.mark.parametrize("a, b", [(1.0, None), (1.3, 0.7), (0.05, 40.0)])
def test_pauli_combination_is_pi_sq_plus_ratio_omega_sq(a, b, rng):
    # one bilinear form: each gradient entry is pi_i + pi_i or r omega_i +
    # r omega_i, which is 2 pi_i + 0 and 0 + r (2 omega_i) bit for bit
    combination = pauli_model_set(a, b).constraints[3].func
    b = default_pi_norm(a) if b is None else b
    ratio = (b / a) ** 2
    Z = rng.standard_normal((50, DIM))
    want = pi_norm_sq().gradient(Z) + ratio * omega_norm_sq().gradient(Z)
    assert np.array_equal(combination.gradient(Z), want)
    for z in Z:
        assert np.array_equal(combination.gradient(z), pi_norm_sq().gradient(z)
                              + ratio * omega_norm_sq().gradient(z))
        assert_allclose(combination(z), pi_norm_sq()(z)
                        + ratio * omega_norm_sq()(z), rtol=1e-15)


def test_off_surface_warning():
    pair = second_class_pair(a=1.0)
    z = surface_state((2.0, 0, 0), (0, 1, 0))
    with pytest.warns(OffSurfaceWarning):
        constraint_matrix(pair, z)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_pauli_model(rng):
    cset = pauli_model_set(a=1.0)
    z = random_phase_state(rng, a=1.0)
    result = classify(cset, z)
    assert sorted(result.second_class) == ["omega_pi", "omega_sq"]
    assert sorted(result.first_class) == ["pi_phi", "pi_sq_combination"]
    assert result.second_class_condition < 1e3


def test_classify_single_constraint_is_first_class(rng):
    cset = ConstraintSet(
        constraints=(Constraint("omega_sq", omega_norm_sq(), 1.0),),
        structure=CANONICAL_PARTICLE,
    )
    z = random_phase_state(rng, a=1.0)
    result = classify(cset, z)
    assert result.first_class == ("omega_sq",)
    assert result.second_class == ()


def test_classify_rejects_bad_tolerance(rng):
    cset = pauli_model_set()
    z = random_phase_state(rng)
    with pytest.raises(ValueError):
        classify(cset, z, tol=0.0)


def test_classification_gauge_stable(rng):
    # same surface, different points: identical classification
    cset = pauli_model_set(a=0.8)
    tags = set()
    for _ in range(10):
        z = random_phase_state(rng, a=0.8)
        result = classify(cset, z)
        tags.add((tuple(sorted(result.first_class)),
                  tuple(sorted(result.second_class))))
    assert len(tags) == 1


def test_classify_covariant_t3_set(rng):
    # brute-force bracket table: with exogenous timelike P every constraint
    # of the 5-constraint covariant set has a nonvanishing partner
    from spinbundle.lorentz import sample_t3_rest_point, t3_constraint_set

    a3 = a4 = 0.9
    w, p, P = sample_t3_rest_point(rng, a3=a3, a4=a4, mass=1.4)
    cset = t3_constraint_set(P, a3=a3, a4=a4)
    z = np.concatenate([w, p])
    result = classify(cset, z, tol=1e-6)
    assert result.first_class == ()
    assert len(result.second_class) == 5
    delta = result.bracket.delta
    names = [c.name for c in cset.constraints]
    # {T4, T5} = {omega^2 - a4, omega.pi} = 2 omega^2 = 2 a4 on the surface
    i4, i5 = names.index("omega_sq"), names.index("omega_pi")
    assert_allclose(delta[i4, i5], 2.0 * a4, atol=1e-8)
    # the 5 x 5 antisymmetric matrix is necessarily singular
    assert result.second_class_condition > 1e12


# ---------------------------------------------------------------------------
# dirac_bracket
# ---------------------------------------------------------------------------

def test_dirac_omega_pi_at_axis_point():
    pair = second_class_pair(a=1.0)
    z = surface_state((1, 0, 0), (0, np.sqrt(3) / 2, 0))
    got = np.array([[dirac_bracket(coordinate(6 + i), coordinate(9 + j), pair, z)
                     for j in range(3)] for i in range(3)])
    assert_allclose(got, np.diag([0.0, 1.0, 1.0]), atol=1e-9)


def test_dirac_brackets_of_basic_variables(rng):
    a = 1.1
    pair = second_class_pair(a=a)
    for _ in range(10):
        z = random_phase_state(rng, a=a)
        w = z[OMEGA]
        wsq = float(np.dot(w, w))
        pi_v = z[PI]
        for i in range(3):
            for j in range(3):
                want = (1.0 if i == j else 0.0) - w[i] * w[j] / wsq
                got = dirac_bracket(coordinate(6 + i), coordinate(9 + j),
                                    pair, z)
                assert abs(got - want) < 1e-9
                assert abs(dirac_bracket(coordinate(6 + i), coordinate(6 + j),
                                         pair, z)) < 1e-9
                want_pp = -(w[i] * pi_v[j] - w[j] * pi_v[i]) / wsq
                got_pp = dirac_bracket(coordinate(9 + i), coordinate(9 + j),
                                       pair, z)
                assert abs(got_pp - want_pp) < 1e-9


def test_dirac_annihilates_second_class(rng):
    pair = second_class_pair(a=1.0)
    observables = []
    for _ in range(20):
        A = rng.standard_normal((DIM, DIM))
        observables.append(quadratic(0.5 * (A + A.T), rng.standard_normal(DIM),
                                     float(rng.standard_normal())))
    worst = 0.0
    for _ in range(50):
        z = random_phase_state(rng)
        for obs in observables:
            for phi_c in pair.constraints:
                worst = max(worst, abs(dirac_bracket(phi_c.func, obs, pair, z)))
    assert worst < 1e-8


def test_dirac_equals_poisson_for_spin(rng):
    pair = second_class_pair(a=1.0)
    S = [spin_component(i) for i in range(3)]
    for _ in range(20):
        z = random_phase_state(rng)
        spin = np.cross(z[OMEGA], z[PI])
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert abs(dirac_bracket(S[i], S[j], pair, z) - spin[k]) < 1e-8


def test_dirac_position_momentum_untouched(rng):
    pair = second_class_pair(a=1.0)
    z = random_phase_state(rng)
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            got = dirac_bracket(coordinate(i), coordinate(3 + j), pair, z)
            assert abs(got - want) < 1e-12


def test_dirac_degenerate_matrix_raises(rng):
    # two copies of the same constraint give a singular Delta
    cset = ConstraintSet(
        constraints=(
            Constraint("omega_sq", omega_norm_sq(), 1.0),
            Constraint("omega_sq_again",
                       _bilinear(_OMEGA3, _OMEGA3, (1.0, 1.0, 1.0)), 1.0),
        ),
        structure=CANONICAL_PARTICLE,
    )
    z = random_phase_state(rng, a=1.0)
    with pytest.raises(DegenerateConstraintError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OffSurfaceWarning)
            dirac_bracket(coordinate(6), coordinate(9), cset, z)


@pytest.mark.parametrize("cset", [pauli_model_set(), spin_surface_set()],
                         ids=["pauli_model", "spin_surface"])
def test_overflowing_brackets_are_degenerate(cset):
    # entries of 1e155 overflow the brackets of three second-class
    # constraints to inf and nan, on which an SVD does not converge
    z = surface_state((1e155, 1e155, 1e155), (1e155, -1e155, 2e155))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OffSurfaceWarning)
        assert classify(cset, z).second_class_condition == math.inf
        with pytest.raises(DegenerateConstraintError):
            dirac_brackets([coordinate(6)], [coordinate(9)], cset, z)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_fixed_point():
    cset = spin_surface_set(a=1.0)
    b = default_pi_norm(1.0)
    z = surface_state((1, 0, 0), (0, b, 0))
    out = project(z, cset)
    assert_allclose(out, z, atol=1e-15)


def test_project_small_perturbation_converges():
    a, b = 1.0, default_pi_norm(1.0)
    cset = spin_surface_set(a=a)
    z = surface_state((a * (1 + 1e-6), 0, 0), (0, b, 0))
    out = project(z, cset, tol=1e-12)
    assert np.max(np.abs(evaluate(cset, out))) < 1e-12
    # x, p, phi never move
    assert_allclose(out[:6], z[:6])
    assert_allclose(out[12], z[12])


def test_project_returns_phase_point_for_phase_point_input():
    a, b = 1.0, default_pi_norm(1.0)
    cset = spin_surface_set(a=a)
    pt = PhasePoint(x=[0, 0, 0], p=[0, 0, 0],
                    omega=[a * (1 + 1e-8), 0, 0], pi=[0, b, 0])
    out = project(pt, cset)
    assert isinstance(out, PhasePoint)
    assert np.max(np.abs(evaluate(cset, out.as_array()))) < 1e-12


def test_project_zero_omega_is_domain_error():
    cset = t4_surface_set(a=0.75)
    z = surface_state((0, 0, 0), (1, 0, 0))
    with pytest.raises((DomainError, ProjectionError)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OffSurfaceWarning)
            project(z, cset)


def test_project_far_point_warns():
    cset = spin_surface_set(a=1.0)
    z = surface_state((3.0, 0, 0), (0, 3.0, 0))
    with pytest.warns(OffSurfaceWarning):
        out = project(z, cset)
    assert np.max(np.abs(evaluate(cset, out))) < 1e-12


def test_projection_failure_carries_residuals():
    cset = spin_surface_set(a=1.0)
    z = surface_state((1 + 0.3, 0, 0), (0, 1.0, 0))
    with pytest.raises(ProjectionError) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OffSurfaceWarning)
            project(z, cset, max_iter=1, tol=1e-15)
    assert err.value.residuals is not None
