"""Spin fiber bundle over the sphere: projection, rotation identification,
structure group, gauge-matrix transform, adapted coordinates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinbundle.bundle_so3 import (
    GaugeMatrix,
    gauge_matrix_transform,
    jacobian_rank,
    jacobian_singular_values,
    local_coords,
    map_jacobian,
    normalize_to_surface,
    rotation_matrix,
    sample_surface_point,
    so2_action,
    spin_map,
    surface_residuals,
)
from spinbundle.errors import ChartDomainError, DomainError, SurfaceError


def test_spin_map_unit_cross_product():
    assert_allclose(spin_map((1, 0, 0), (0, 1, 0)), (0, 0, 1))


def test_spin_map_parallel_is_zero():
    assert_allclose(spin_map((2, 1, 0), (4, 2, 0)), np.zeros(3), atol=1e-15)


def test_spin_map_hand_value():
    S = spin_map((1, 0, 0), (0, 0.5, 0.5))
    assert_allclose(S, (0, -0.5, 0.5))
    assert_allclose(np.dot(S, S), 0.5)


# ---------------------------------------------------------------------------
# Jacobian ranks
# ---------------------------------------------------------------------------

def test_jacobian_rank_so3(rng):
    for _ in range(25):
        w = rng.standard_normal(3)
        p = rng.standard_normal(3)
        assert jacobian_rank(w, p, kind="so3") == 3


def test_jacobian_rank_so13(rng):
    for _ in range(25):
        w = rng.standard_normal(4)
        p = rng.standard_normal(4)
        assert jacobian_rank(w, p, kind="so13") == 5


def test_jacobian_rank_zero_point():
    assert jacobian_rank(np.zeros(3), np.zeros(3), kind="so3") == 0


def test_jacobian_matches_finite_differences(rng):
    w = rng.standard_normal(3)
    p = rng.standard_normal(3)
    J = map_jacobian(w, p, kind="so3")
    h = 1e-7
    for col in range(6):
        bump = np.zeros(6)
        bump[col] = h
        wp = np.concatenate([w, p])
        plus = np.cross((wp + bump)[:3], (wp + bump)[3:])
        minus = np.cross((wp - bump)[:3], (wp - bump)[3:])
        assert_allclose(J[:, col], (plus - minus) / (2 * h), atol=1e-6)


def test_singular_value_gap_so13(rng):
    for _ in range(10):
        w = rng.standard_normal(4)
        p = rng.standard_normal(4)
        sv = jacobian_singular_values(w, p, kind="so13")
        assert sv[4] / sv[5] > 1e6


# ---------------------------------------------------------------------------
# rotation_matrix
# ---------------------------------------------------------------------------

def test_rotation_matrix_identity():
    assert_allclose(rotation_matrix((1, 0, 0), (0, 1, 0)), np.eye(3))


def test_rotation_matrix_swapped_axes():
    R = rotation_matrix((0, 1, 0), (1, 0, 0))
    assert_allclose(R, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert_allclose(np.linalg.det(R), 1.0)


def test_rotation_matrix_rejects_off_surface():
    with pytest.raises(SurfaceError):
        rotation_matrix((1, 0, 0), (1, 0, 0))


def test_rotation_matrix_properties(rng):
    for _ in range(200):
        w, p = sample_surface_point(rng)
        R = rotation_matrix(w, p)
        assert_allclose(R @ R.T, np.eye(3), atol=1e-10)
        assert_allclose(np.linalg.det(R), 1.0, atol=1e-10)
        # rows recover the input pair and its spin
        assert_allclose(R[0], w)
        assert_allclose(R[1], p)
        assert_allclose(R[2], spin_map(w, p))


def test_normalize_to_surface(rng):
    w = rng.standard_normal(3) * 3.0
    p = rng.standard_normal(3) * 0.2
    wn, pn = normalize_to_surface(w, p)
    assert_allclose(surface_residuals(wn, pn), np.zeros(3), atol=1e-12)


# ---------------------------------------------------------------------------
# so2_action
# ---------------------------------------------------------------------------

def test_so2_identity(rng):
    w, p = sample_surface_point(rng)
    w2, p2 = so2_action(w, p, 0.0)
    assert_allclose(w2, w)
    assert_allclose(p2, p)


def test_so2_quarter_turn():
    w2, p2 = so2_action((1, 0, 0), (0, 1, 0), np.pi / 2)
    assert_allclose(w2, (0, 1, 0), atol=1e-15)
    assert_allclose(p2, (-1, 0, 0), atol=1e-15)
    assert_allclose(spin_map(w2, p2), (0, 0, 1), atol=1e-15)


def test_so2_group_law(rng):
    for _ in range(50):
        w, p = sample_surface_point(rng)
        b1, b2 = rng.uniform(0, 2 * np.pi, size=2)
        step = so2_action(*so2_action(w, p, b1), b2)
        once = so2_action(w, p, b1 + b2)
        assert_allclose(step[0], once[0], atol=1e-12)
        assert_allclose(step[1], once[1], atol=1e-12)


def test_so2_leaves_spin_inert(rng):
    for _ in range(200):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        w, p = sample_surface_point(rng, a=a, b=b)
        beta = rng.uniform(0, 2 * np.pi)
        w2, p2 = so2_action(w, p, beta)
        assert np.max(np.abs(spin_map(w2, p2) - spin_map(w, p))) < 1e-12


def test_so2_preserves_surface(rng):
    for _ in range(100):
        w, p = sample_surface_point(rng)
        w2, p2 = so2_action(w, p, rng.uniform(0, 2 * np.pi))
        assert np.max(np.abs(surface_residuals(w2, p2))) < 1e-12


def test_so2_infinitesimal_generator(rng):
    eps = 1e-6
    w, p = sample_surface_point(rng)
    w2, p2 = so2_action(w, p, eps)
    assert_allclose((w2 - w) / eps, p, atol=1e-5)
    assert_allclose((p2 - p) / eps, -w, atol=1e-5)


def test_spin_norm_identity_along_scaled_surface(rng):
    # S^2 = omega^2 pi^2 - (omega.pi)^2 at 100 random scaled surface points
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        w, p = sample_surface_point(rng, a=a, b=b)
        S = spin_map(w, p)
        assert abs(np.dot(S, S) - a * a * b * b) < 1e-10


# ---------------------------------------------------------------------------
# local_coords
# ---------------------------------------------------------------------------

def test_local_coords_values():
    out = local_coords((0, 0, 1), (1, 0, 0))
    assert_allclose(out, (0.0, 1.0, 1.0), atol=1e-15)


def test_local_coords_chart_boundary():
    with pytest.raises(ChartDomainError):
        local_coords((1, 0, 0), (0, 1, 0))


def test_local_coords_rejects_off_surface():
    with pytest.raises(SurfaceError):
        local_coords((0, 0, 2), (1, 0, 0))
    with pytest.raises(SurfaceError):
        local_coords((np.nan, 0, 0), (0, 1, 0))


def test_local_coords_fiber_motion(rng):
    # the gauge action moves only the fiber coordinate
    for _ in range(20):
        w, p = sample_surface_point(rng)
        if abs(w[2]) < 0.2:
            continue
        beta = rng.uniform(-0.1, 0.1)
        w2, p2 = so2_action(w, p, beta)
        if abs(w2[2]) < 1e-6:
            continue
        s1, s2, f = local_coords(w, p)
        t1, t2, g = local_coords(w2, p2)
        assert abs(s1 - t1) < 1e-12 and abs(s2 - t2) < 1e-12
        if abs(beta) > 1e-3:
            assert abs(f - g) > 1e-6


# ---------------------------------------------------------------------------
# GaugeMatrix
# ---------------------------------------------------------------------------

def test_gauge_matrix_entries():
    g = GaugeMatrix.from_multipliers(phi=2.0, lambda1=3.0, lambda3=0.5)
    assert_allclose(g.matrix, [[0.5, 0.25], [0.25, 1.5]])
    assert_allclose(g.phi, 2.0)
    assert_allclose(g.lambda1, 3.0)
    assert_allclose(g.lambda3, 0.5)


def test_gauge_matrix_needs_nonzero_phi():
    with pytest.raises(DomainError):
        GaugeMatrix.from_multipliers(phi=0.0, lambda1=1.0)


def test_gauge_transform_identity_element():
    g = GaugeMatrix.from_multipliers(phi=1.5, lambda1=-0.3, lambda3=0.7)
    out = gauge_matrix_transform(g, 0.0, 0.0)
    assert_allclose(out.matrix, g.matrix)


def test_gauge_transform_fixes_identity_matrix(rng):
    g = GaugeMatrix(matrix=np.eye(2))
    for _ in range(10):
        out = gauge_matrix_transform(g, rng.uniform(0, 2 * np.pi), 0.0)
        assert_allclose(out.matrix, np.eye(2), atol=1e-14)


def test_gauge_transform_group_law(rng):
    for _ in range(100):
        g = GaugeMatrix.from_multipliers(
            phi=rng.uniform(0.5, 2.0),
            lambda1=rng.standard_normal(),
            lambda3=rng.standard_normal(),
        )
        b1, b2 = rng.uniform(0, 2 * np.pi, size=2)
        d1, d2 = rng.standard_normal(2)
        two = gauge_matrix_transform(gauge_matrix_transform(g, b1, d1), b2, d2)
        one = gauge_matrix_transform(g, b1 + b2, d1 + d2)
        assert_allclose(two.matrix, one.matrix, atol=1e-12)


def test_lambda2_rides_through_unchanged():
    g = GaugeMatrix.from_multipliers(phi=1.0, lambda1=0.0, lambda2=4.5)
    out = gauge_matrix_transform(g, 1.0, 2.0)
    assert out.lambda2 == 4.5
