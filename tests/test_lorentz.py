"""Covariant bundle machinery: boosts, spin tensor, both constraint
surfaces, Frenkel condition, Casimir, ellipsoid, BMT vector, tetrad."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinbundle.constraints import evaluate
from spinbundle.errors import DomainError, SuperluminalError, SurfaceError
from spinbundle.lorentz import (
    DEFAULT_SURFACE_SCALE,
    METRIC,
    base_ellipsoid_residual,
    beta_vector,
    bmt_to_j,
    bmt_to_k,
    bmt_vector,
    boost_matrix,
    casimir,
    compose_spin_tensor,
    decompose_spin_tensor,
    effective_mass,
    frenkel_residual,
    gamma_factor,
    j_to_bmt,
    minkowski_dot,
    minkowski_sq,
    sample_beta,
    sample_t3_rest_point,
    sample_t4_rest_point,
    spin_tensor,
    t3_constraint_set,
    t3_constraints,
    t4_constraints,
    t4_structure_action,
    tetrad,
)

A3 = A4 = DEFAULT_SURFACE_SCALE


def boosted_t3_point(rng, a3=A3, a4=A4, mass=1.0, beta_max=0.99):
    w, p, P = sample_t3_rest_point(rng, a3=a3, a4=a4, mass=mass)
    L = boost_matrix(sample_beta(rng, beta_max))
    return L @ w, L @ p, L @ P


# ---------------------------------------------------------------------------
# metric and boosts
# ---------------------------------------------------------------------------

def test_minkowski_dot_values():
    assert_allclose(minkowski_dot((1, 0, 0, 0), (1, 0, 0, 0)), -1.0)
    assert_allclose(minkowski_dot((1, 1, 0, 0), (1, 1, 0, 0)), 0.0)
    a = 1.7
    assert_allclose(minkowski_sq((0, a, 0, 0)), a * a)


def test_boost_identity():
    assert_allclose(boost_matrix((0, 0, 0)), np.eye(4))


def test_boost_standard_configuration():
    L = boost_matrix((0.6, 0, 0))
    assert_allclose(L @ np.array([1.0, 0, 0, 0]), (1.25, 0.75, 0, 0),
                    atol=1e-14)
    assert_allclose(L, L.T)


def test_boost_is_isometry(rng):
    for _ in range(50):
        L = boost_matrix(sample_beta(rng, 0.99))
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        assert abs(minkowski_dot(L @ u, L @ v) - minkowski_dot(u, v)) < 1e-12


def test_boost_rejects_superluminal():
    with pytest.raises(SuperluminalError):
        boost_matrix((1.0, 0, 0))
    with pytest.raises(SuperluminalError):
        boost_matrix((0.8, 0.8, 0))


def test_boost_small_velocity_series():
    b = 1e-10
    L = boost_matrix((b, 0, 0))
    # (gamma - 1)/beta^2 -> 1/2 without catastrophic cancellation
    assert np.isfinite(L).all()
    assert_allclose(L[1, 1], 1.0 + 0.5 * b * b, rtol=1e-12)


def test_momentum_kinematics():
    P = np.array([1.25, 0.75, 0.0, 0.0])
    assert_allclose(effective_mass(P), 1.0, atol=1e-14)
    assert_allclose(gamma_factor(P), 1.25, atol=1e-14)
    assert_allclose(beta_vector(P), (0.6, 0, 0), atol=1e-14)
    with pytest.raises(DomainError):
        effective_mass((1.0, 2.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# spin tensor
# ---------------------------------------------------------------------------

def test_spin_tensor_parallel_vanishes():
    J = spin_tensor((0, 1, 2, 3), (0, 2, 4, 6))
    assert_allclose(J, np.zeros((4, 4)), atol=1e-14)


def test_spin_tensor_plane_value():
    J = spin_tensor((0, 1, 0, 0), (0, 0, 1, 0))
    want = np.zeros((4, 4))
    want[1, 2], want[2, 1] = 2.0, -2.0
    assert_allclose(J, want)
    k, j = decompose_spin_tensor(J)
    assert_allclose(k, np.zeros(3))
    assert_allclose(j, (0, 0, 2))


def test_spin_tensor_equivariance(rng):
    for _ in range(25):
        w = rng.standard_normal(4)
        p = rng.standard_normal(4)
        L = boost_matrix(sample_beta(rng, 0.99))
        direct = spin_tensor(L @ w, L @ p)
        pushed = L @ spin_tensor(w, p) @ L.T
        assert_allclose(direct, pushed, atol=1e-12)


def test_decompose_compose_round_trip(rng):
    k = rng.standard_normal(3)
    j = rng.standard_normal(3)
    k2, j2 = decompose_spin_tensor(compose_spin_tensor(k, j))
    assert_allclose(k2, k)
    assert_allclose(j2, j)
    with pytest.raises(ValueError):
        decompose_spin_tensor(np.eye(4))


def test_rest_frame_j_is_twice_cross_product(rng):
    w3 = rng.standard_normal(3)
    p3 = rng.standard_normal(3)
    J = spin_tensor(np.concatenate(([0.0], w3)), np.concatenate(([0.0], p3)))
    k, j = decompose_spin_tensor(J)
    assert_allclose(k, np.zeros(3), atol=1e-14)
    assert_allclose(j, 2.0 * np.cross(w3, p3), atol=1e-12)


# ---------------------------------------------------------------------------
# constraint surfaces
# ---------------------------------------------------------------------------

def test_t3_rest_frame_zero():
    m = 1.3
    w = np.array([0.0, np.sqrt(A4), 0.0, 0.0])
    p = np.array([0.0, 0.0, np.sqrt(A3), 0.0])
    P = np.array([m, 0.0, 0.0, 0.0])
    assert_allclose(t3_constraints(w, p, P, a3=A3, a4=A4), np.zeros(5),
                    atol=1e-14)


def test_t3_boost_invariance(rng):
    for _ in range(100):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        assert np.max(np.abs(t3_constraints(w, p, P, a3=A3, a4=A4))) < 1e-10


def test_t3_constraint_set_equals_t3_constraints(rng):
    """The five observables of t3_constraint_set and the residual map agree
    up to the order in which each sums its four products: within 8 ulp of
    the summed magnitudes, plus the target's."""
    eps = np.finfo(float).eps
    for _ in range(200):
        w, p = rng.standard_normal(4), rng.standard_normal(4)
        P = np.array([3.0, *rng.standard_normal(3)])
        a3, a4 = rng.uniform(0.1, 2.0, 2)
        got = evaluate(t3_constraint_set(P, a3, a4), np.concatenate([w, p]))
        want = t3_constraints(w, p, P, a3, a4)
        magnitude = np.array([p @ p + a3, w @ w + a4, np.abs(w) @ np.abs(p),
                              np.abs(P) @ np.abs(w), np.abs(P) @ np.abs(p)])
        assert np.all(np.abs(got - want) <= 8 * eps * magnitude)


def test_t3_linear_response_in_omega0():
    m, eps = 1.3, 1e-3
    w = np.array([eps, np.sqrt(A4), 0.0, 0.0])
    p = np.array([0.0, 0.0, np.sqrt(A3), 0.0])
    P = np.array([m, 0.0, 0.0, 0.0])
    res = t3_constraints(w, p, P, a3=A3, a4=A4)
    # P.omega picks up -m eps under the -+++ signature
    assert_allclose(res[3], -m * eps, atol=1e-12)


def test_t4_rest_frame_zero():
    w = np.array([0.0, 2.0, 0.0, 0.0])
    p = np.array([0.0, 0.0, np.sqrt(3) / 4, 0.0])
    P = np.array([1.0, 0.0, 0.0, 0.0])
    assert_allclose(t4_constraints(w, p, P, a=0.75), np.zeros(4), atol=1e-14)


def test_t4_boost_invariance(rng):
    for _ in range(100):
        w, p, P = sample_t4_rest_point(rng, a=0.75, mass=rng.uniform(0.5, 2.0))
        L = boost_matrix(sample_beta(rng, 0.99))
        res = t4_constraints(L @ w, L @ p, L @ P, a=0.75)
        assert np.max(np.abs(res)) < 1e-10


def test_t4_null_omega_raises():
    w = np.array([1.0, 1.0, 0.0, 0.0])
    p = np.array([0.0, 0.0, 1.0, 0.0])
    P = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        t4_constraints(w, p, P)


# ---------------------------------------------------------------------------
# Frenkel condition, Casimir, ellipsoid
# ---------------------------------------------------------------------------

def test_frenkel_vanishes_on_surface(rng):
    for _ in range(100):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        assert np.linalg.norm(frenkel_residual(spin_tensor(w, p), P)) < 1e-10


def test_frenkel_zero_tensor():
    assert_allclose(frenkel_residual(np.zeros((4, 4)), (1, 0, 0, 0)),
                    np.zeros(4))


def test_frenkel_contraction_identity(rng):
    # (J^{mn} P_n) P_m = 0 for ANY antisymmetric J, on or off surface
    for _ in range(20):
        M = rng.standard_normal((4, 4))
        J = M - M.T
        P = rng.standard_normal(4)
        res = frenkel_residual(J, P)
        assert abs(minkowski_dot(res, P)) < 1e-12


def test_casimir_on_surface_unit_scales(rng):
    for _ in range(50):
        w, p, P = boosted_t3_point(rng, a3=1.0, a4=1.0)
        assert abs(casimir(spin_tensor(w, p)) - 8.0) < 1e-9


def test_casimir_zero():
    assert casimir(np.zeros((4, 4))) == 0.0


def test_casimir_identity_generic(rng):
    for _ in range(1000):
        w = rng.standard_normal(4)
        p = rng.standard_normal(4)
        want = 8.0 * (minkowski_sq(w) * minkowski_sq(p)
                      - minkowski_dot(w, p) ** 2)
        assert abs(casimir(spin_tensor(w, p)) - want) < 1e-9 * max(1, abs(want))


def test_ellipsoid_sphere_limit():
    j = np.sqrt(3.0) * np.array([0.0, 1.0, 0.0])
    P = np.array([2.0, 0.0, 0.0, 0.0])
    assert abs(base_ellipsoid_residual(j, P)) < 1e-14


def test_ellipsoid_on_t3_pipeline(rng):
    for _ in range(100):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        _, j = decompose_spin_tensor(spin_tensor(w, p))
        assert abs(base_ellipsoid_residual(j, P)) < 1e-9


def test_ellipsoid_aligned_case(rng):
    # j parallel to the spatial momentum: residual reduces to j^2 - 3
    P = np.array([2.0, 0.6, 0.0, 0.0])
    j = 1.4 * P[1:] / np.linalg.norm(P[1:])
    want = np.dot(j, j) - 3.0
    assert_allclose(base_ellipsoid_residual(j, P), want, atol=1e-12)


def test_k_equals_j_cross_p_over_p0(rng):
    for _ in range(100):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        k, j = decompose_spin_tensor(spin_tensor(w, p))
        assert np.max(np.abs(k - np.cross(j, P[1:]) / P[0])) < 1e-9


def test_j_sq_minus_k_sq_is_casimir_half(rng):
    # with the default scales 8 a3 a4 = 6, so j^2 - k^2 = 3
    for _ in range(50):
        w, p, P = boosted_t3_point(rng)
        k, j = decompose_spin_tensor(spin_tensor(w, p))
        assert abs((np.dot(j, j) - np.dot(k, k)) - 3.0) < 1e-9


# ---------------------------------------------------------------------------
# BMT vector
# ---------------------------------------------------------------------------

def test_bmt_rest_frame_halves_j(rng):
    w, p, P = sample_t3_rest_point(rng, mass=1.7)
    S = bmt_vector(w, p, P)
    _, j = decompose_spin_tensor(spin_tensor(w, p))
    assert abs(S[0]) < 1e-14
    assert_allclose(S[1:], j / 2.0, atol=1e-12)


def test_bmt_round_trip(rng):
    for _ in range(200):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        _, j = decompose_spin_tensor(spin_tensor(w, p))
        S = j_to_bmt(j, P)
        assert np.max(np.abs(bmt_to_j(S, P) - j)) < 1e-10
        assert_allclose(S, bmt_vector(w, p, P), atol=1e-10)


def test_bmt_j_relation_explicit(rng):
    # j = 2 gamma (S_vec - beta (beta . S_vec))
    for _ in range(50):
        w, p, P = boosted_t3_point(rng)
        S = bmt_vector(w, p, P)
        _, j = decompose_spin_tensor(spin_tensor(w, p))
        gamma = gamma_factor(P)
        beta = beta_vector(P)
        want = 2.0 * gamma * (S[1:] - beta * np.dot(beta, S[1:]))
        assert np.max(np.abs(want - j)) < 1e-10
        # and the time component: S0 = (gamma / 2) beta . j
        assert abs(S[0] - 0.5 * gamma * np.dot(beta, j)) < 1e-10


def test_bmt_k_relation(rng):
    for _ in range(50):
        w, p, P = boosted_t3_point(rng)
        S = bmt_vector(w, p, P)
        k, _ = decompose_spin_tensor(spin_tensor(w, p))
        gamma = gamma_factor(P)
        beta = beta_vector(P)
        assert np.max(np.abs(bmt_to_k(S, P) - k)) < 1e-10
        assert np.max(np.abs(2.0 * gamma * np.cross(S[1:], beta) - k)) < 1e-10


def test_bmt_orthogonal_to_momentum(rng):
    for _ in range(200):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        assert abs(minkowski_dot(bmt_vector(w, p, P), P)) < 1e-12


def test_bmt_parallel_input_is_zero(rng):
    w = np.array([0.0, 1.0, 2.0, 0.5])
    P = np.array([2.0, 0.1, 0.0, 0.0])
    assert_allclose(bmt_vector(w, 3.0 * w, P), np.zeros(4), atol=1e-14)


# ---------------------------------------------------------------------------
# tetrad
# ---------------------------------------------------------------------------

def test_tetrad_rest_frame_block_structure(rng):
    w, p, P = sample_t3_rest_point(rng, mass=2.0)
    lam = tetrad(P, w, p, a3=A3, a4=A4)
    assert_allclose(lam[0], (1, 0, 0, 0), atol=1e-14)
    # spatial rows: the normalized (omega, pi, S) triad with zero time part
    assert_allclose(lam[1:, 0], np.zeros(3), atol=1e-14)
    from spinbundle.bundle_so3 import rotation_matrix

    R = rotation_matrix(w[1:] / np.sqrt(A4), p[1:] / np.sqrt(A3))
    assert_allclose(lam[1:, 1:], R, atol=1e-12)


def test_tetrad_pseudo_orthogonal(rng):
    for _ in range(200):
        w, p, P = boosted_t3_point(rng, mass=rng.uniform(0.5, 2.0))
        lam = tetrad(P, w, p, a3=A3, a4=A4)
        assert np.max(np.abs(lam @ METRIC @ lam.T - METRIC)) < 1e-9


def test_tetrad_rejects_off_surface(rng):
    w, p, P = sample_t3_rest_point(rng)
    with pytest.raises(SurfaceError):
        tetrad(P, 1.5 * w, p, a3=A3, a4=A4)


# ---------------------------------------------------------------------------
# scale-free structure group
# ---------------------------------------------------------------------------

def test_t4_action_identity(rng):
    w = rng.standard_normal(3)
    p = rng.standard_normal(3)
    w2, p2 = t4_structure_action(w, p, 1.0, 0.0)
    assert_allclose(w2, w)
    assert_allclose(p2, p)


def test_t4_action_pure_scaling():
    w = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 0.5, 0.0])
    w2, p2 = t4_structure_action(w, p, 2.0, 0.0)
    assert_allclose(w2, 2.0 * w)
    assert_allclose(p2, p / 2.0)
    assert_allclose(np.cross(w2, p2), np.cross(w, p))


def test_t4_action_invariances(rng):
    a = 0.75
    for _ in range(100):
        radius = rng.uniform(0.5, 2.0)
        from spinbundle.bundle_so3 import sample_surface_point

        w, p = sample_surface_point(rng, a=radius, b=np.sqrt(a) / radius)
        k = np.exp(rng.uniform(-1, 1))
        beta = rng.uniform(0, 2 * np.pi)
        w2, p2 = t4_structure_action(w, p, k, beta)
        assert np.max(np.abs(np.cross(w2, p2) - np.cross(w, p))) < 1e-12
        assert abs(np.dot(w2, p2)) < 1e-10
        assert abs(np.dot(p2, p2) - a / np.dot(w2, w2)) < 1e-10


def test_t4_action_group_structure(rng):
    w = np.array([1.2, -0.3, 0.4])
    p = np.cross(w, (0.0, 0.0, 1.0))
    # scalings compose multiplicatively at beta = 0
    one = t4_structure_action(*t4_structure_action(w, p, 2.0, 0.0), 3.0, 0.0)
    two = t4_structure_action(w, p, 6.0, 0.0)
    assert_allclose(one[0], two[0], atol=1e-12)
    assert_allclose(one[1], two[1], atol=1e-12)
    # rotations compose additively at k = 1 (needs matched norms so the
    # rotation acts in a fixed plane)
    wn = w / np.linalg.norm(w)
    pn = p / np.linalg.norm(p)
    one = t4_structure_action(*t4_structure_action(wn, pn, 1.0, 0.3), 1.0, 0.5)
    two = t4_structure_action(wn, pn, 1.0, 0.8)
    assert_allclose(one[0], two[0], atol=1e-12)
    assert_allclose(one[1], two[1], atol=1e-12)


def test_t4_action_rejects_bad_inputs():
    w = np.array([1.0, 0.0, 0.0])
    p = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        t4_structure_action(w, p, 0.0, 0.1)
    with pytest.raises(DomainError):
        t4_structure_action(np.zeros(3), p, 1.0, 0.1)
