"""Canonical structure, observables, gradients, and the bracket engine."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinbundle.constraints import omega_dot_pi, omega_norm_sq, pi_norm_sq
from spinbundle.errors import GradientError
from spinbundle.lorentz import METRIC, spin_tensor_component, t3_constraint_set
from spinbundle.phasespace import (
    CANONICAL_PARTICLE,
    DIM,
    MINKOWSKI_SPIN,
    OMEGA,
    PI,
    CanonicalStructure,
    Observable,
    PhasePoint,
    coordinate,
    gradient,
    poisson_bracket,
    quadratic,
    spin_component,
)

from conftest import random_phase_state


def random_quadratic(rng, dim=DIM):
    A = rng.standard_normal((dim, dim))
    return quadratic(0.5 * (A + A.T), rng.standard_normal(dim),
                     float(rng.standard_normal()))


# ---------------------------------------------------------------------------
# PhasePoint
# ---------------------------------------------------------------------------

def test_phase_point_round_trip(rng):
    z = rng.standard_normal(DIM)
    pt = PhasePoint.from_array(z)
    assert_allclose(pt.as_array(), z)
    assert_allclose(pt.spin, np.cross(z[OMEGA], z[PI]))


def test_phase_point_rejects_non_finite():
    with pytest.raises(ValueError):
        PhasePoint(x=[0, 0, np.nan], p=[0, 0, 0], omega=[1, 0, 0], pi=[0, 1, 0])
    with pytest.raises(ValueError):
        PhasePoint(x=[0, 0], p=[0, 0, 0], omega=[1, 0, 0], pi=[0, 1, 0])


def test_phase_point_is_immutable():
    pt = PhasePoint(x=[1, 2, 3], p=[0, 0, 0], omega=[1, 0, 0], pi=[0, 1, 0])
    with pytest.raises(ValueError):
        pt.x[0] = 7.0
    moved = pt.replace(phi=3.0)
    assert moved.phi == 3.0 and pt.phi == 1.0


def test_canonical_structure_requires_disjoint_pairs():
    with pytest.raises(ValueError):
        CanonicalStructure(labels=("q", "p", "r", "s"),
                           pairs=((0, 1), (0, 2)), weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        CanonicalStructure(labels=("q", "p"), pairs=((0, 1),), weights=())


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_gradient_of_square():
    f = lambda z: z[6] ** 2
    z = np.zeros(DIM)
    z[6] = 2.0
    g = gradient(f, z)
    assert abs(g[6] - 4.0) < 1e-8
    assert_allclose(np.delete(g, 6), 0.0, atol=1e-10)


def test_spin_component_gradient_values():
    z = np.zeros(DIM)
    z[OMEGA] = (1.0, 0.0, 0.0)
    z[PI] = (0.0, 1.0, 0.0)
    g = spin_component(2).gradient(z)
    # S3 = w1 pi2 - w2 pi1: dS3/dw1 = pi2 = 1, dS3/dpi2 = w1 = 1
    assert_allclose(g[6], 1.0, atol=1e-12)
    assert_allclose(g[10], 1.0, atol=1e-12)
    mask = np.ones(DIM, dtype=bool)
    mask[[6, 10]] = False
    assert_allclose(g[mask], 0.0, atol=1e-12)


@pytest.mark.parametrize("builder", [
    lambda rng: coordinate(int(rng.integers(0, DIM))),
    lambda rng: spin_component(int(rng.integers(0, 3))),
    random_quadratic,
])
def test_analytic_gradients_match_finite_differences(rng, builder):
    for _ in range(10):
        obs = builder(rng)
        z = rng.standard_normal(DIM)
        exact = obs.gradient(z)
        approx = gradient(obs.fn, z)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(exact - approx) / scale) < 1e-6


def test_gradient_error_names_coordinate():
    # finite everywhere except when the pi1 component is pushed above 0.5,
    # so only that finite-difference direction goes bad
    bad = Observable(lambda z: float("nan") if z[9] > 0.5 else z[9],
                     name="bad_near_pi1")
    z = np.zeros(DIM)
    z[9] = 0.5
    with pytest.raises(GradientError) as err:
        poisson_bracket(bad, coordinate(6), z)
    assert "pi1" in str(err.value)


# ---------------------------------------------------------------------------
# Bilinear forms
# ---------------------------------------------------------------------------

def _spin_closed_form(i):
    j, k = (i + 1) % 3, (i + 2) % 3
    wj, wk, pj, pk = 6 + j, 6 + k, 9 + j, 9 + k

    def closed(z):
        g = np.zeros(DIM)
        g[wj], g[wk], g[pk], g[pj] = z[pk], -z[pj], z[wj], -z[wk]
        return z[wj] * z[pk] - z[wk] * z[pj], g

    return spin_component(i), DIM, (wj, wk, pj, pk), closed


def _tensor_closed_form(mu, nu):
    def closed(z):
        g = np.zeros(8)
        g[mu] += 2.0 * z[4 + nu]
        g[nu] -= 2.0 * z[4 + mu]
        g[4 + nu] += 2.0 * z[mu]
        g[4 + mu] -= 2.0 * z[nu]
        return 2.0 * (z[mu] * z[4 + nu] - z[nu] * z[4 + mu]), g

    return spin_tensor_component(mu, nu), 8, (mu, nu, 4 + mu, 4 + nu), closed


def _dot_closed_form(obs, dim, left, right, eta):
    """sum_k eta_k z[left_k] z[right_k] written out as one sum of products
    taken in order, with its gradient 2 eta z on a square and (eta z[right],
    eta z[left]) otherwise."""
    left, right, eta = list(left), list(right), np.array(eta)

    def closed(z):
        value = eta[0] * z[left[0]] * z[right[0]]
        for k in range(1, len(left)):
            value += eta[k] * z[left[k]] * z[right[k]]
        g = np.zeros(dim)
        if left == right:
            g[left] = 2.0 * eta * z[left]
        else:
            g[left] = eta * z[right]
            g[right] = eta * z[left]
        return value, g

    return obs, dim, left + right, closed


def bilinear_cases():
    """(observable, dim, the coordinates it reads, closed form z ->
    (value, gradient)) for every observable built as a bilinear form."""
    w, p, ones = (6, 7, 8), (9, 10, 11), (1.0, 1.0, 1.0)
    pi_sq, omega_sq, omega_pi = list(t3_constraint_set([1.0, 0, 0, 0]))[:3]
    eta = np.diag(METRIC).tolist()
    return (
        [_dot_closed_form(omega_norm_sq(), DIM, w, w, ones),
         _dot_closed_form(pi_norm_sq(), DIM, p, p, ones),
         _dot_closed_form(omega_dot_pi(), DIM, w, p, ones),
         _dot_closed_form(omega_sq.func, 8, (0, 1, 2, 3), (0, 1, 2, 3), eta),
         _dot_closed_form(pi_sq.func, 8, (4, 5, 6, 7), (4, 5, 6, 7), eta),
         _dot_closed_form(omega_pi.func, 8, (0, 1, 2, 3), (4, 5, 6, 7), eta)]
        + [_spin_closed_form(i) for i in range(3)]
        + [_tensor_closed_form(mu, nu) for mu in range(4) for nu in range(4)])


def test_bilinear_observables_equal_their_closed_forms(rng):
    for obs, dim, _, closed in bilinear_cases():
        for _ in range(50):
            z = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3, dim)
            value, grad = closed(z)
            assert obs(z) == value, obs.name
            assert np.array_equal(obs.gradient(z), grad), obs.name


def test_bilinear_gradient_is_zero_outside_the_form(rng):
    """Coordinates the form does not read may hold inf or nan: its gradient
    is still exactly 0 there and equals the closed form on its own."""
    for obs, dim, support, closed in bilinear_cases():
        z = rng.standard_normal(dim)
        _, want = closed(z)
        outside = np.setdiff1d(np.arange(dim), support)
        z[outside] = np.resize([np.nan, np.inf, -np.inf], outside.size)
        assert np.array_equal(obs.gradient(z), want), obs.name


def test_non_finite_gradient_names_a_coordinate_of_the_form(rng):
    """An inf in omega3 makes the gradient of omega^2 non-finite there; a
    nan in x1, which the form does not read, must not be the one named."""
    z = random_phase_state(rng)
    z[0], z[8] = np.nan, np.inf
    with pytest.raises(GradientError) as err:
        poisson_bracket(omega_norm_sq(), spin_component(0), z)
    assert err.value.label == "omega3"


# ---------------------------------------------------------------------------
# Poisson brackets
# ---------------------------------------------------------------------------

def test_canonical_pairs(rng):
    z = rng.standard_normal(DIM)
    assert_allclose(poisson_bracket(coordinate(6), coordinate(9), z), 1.0,
                    atol=1e-12)
    assert_allclose(poisson_bracket(coordinate(6), coordinate(7), z), 0.0,
                    atol=1e-12)
    assert_allclose(poisson_bracket(coordinate(0), coordinate(3), z), 1.0,
                    atol=1e-12)
    assert_allclose(poisson_bracket(coordinate(12), coordinate(13), z), 1.0,
                    atol=1e-12)


def test_spin_bracket_hand_value():
    z = np.zeros(DIM)
    z[OMEGA] = (1.0, 0.0, 0.0)
    z[PI] = (0.0, 1.0, 0.0)
    # {S1, S2} = S3 = 1 here
    value = poisson_bracket(spin_component(0), spin_component(1), z)
    assert_allclose(value, 1.0, atol=1e-10)


def test_antisymmetry(rng):
    for _ in range(20):
        f = random_quadratic(rng)
        g = random_quadratic(rng)
        z = rng.standard_normal(DIM)
        assert abs(poisson_bracket(f, g, z) + poisson_bracket(g, f, z)) < 1e-10


def test_leibniz_rule(rng):
    for _ in range(10):
        f = random_quadratic(rng)
        g = random_quadratic(rng)
        h = random_quadratic(rng)
        z = rng.standard_normal(DIM)
        fg = Observable(lambda z: f.fn(z) * g.fn(z),
                        lambda z: f.grad(z) * g.fn(z) + f.fn(z) * g.grad(z))
        lhs = poisson_bracket(fg, h, z)
        rhs = f(z) * poisson_bracket(g, h, z) + g(z) * poisson_bracket(f, h, z)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_jacobi_identity(rng):
    def bracket_obs(f, g):
        return Observable(lambda z: poisson_bracket(f, g, z))

    for _ in range(5):
        f = random_quadratic(rng)
        g = random_quadratic(rng)
        h = random_quadratic(rng)
        z = rng.standard_normal(DIM)
        total = (poisson_bracket(f, bracket_obs(g, h), z)
                 + poisson_bracket(g, bracket_obs(h, f), z)
                 + poisson_bracket(h, bracket_obs(f, g), z))
        scale = max(1.0, abs(poisson_bracket(f, bracket_obs(g, h), z)))
        assert abs(total) < 1e-6 * scale


def test_so3_lie_poisson_closure(rng):
    S = [spin_component(i) for i in range(3)]
    for _ in range(100):
        z = random_phase_state(rng)
        spin = np.cross(z[OMEGA], z[PI])
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert abs(poisson_bracket(S[i], S[j], z) - spin[k]) < 1e-10


def test_so13_lie_poisson_closure(rng):
    # {J^{mn}, J^{ab}} = 2(eta^{ma} J^{nb} - eta^{mb} J^{na}
    #                      - eta^{na} J^{mb} + eta^{nb} J^{ma})
    J = {(m, n): spin_tensor_component(m, n)
         for m in range(4) for n in range(4)}
    eta = np.diag(METRIC)
    for _ in range(5):
        z = rng.standard_normal(8)
        vals = {(m, n): J[m, n](z) for m in range(4) for n in range(4)}
        for (m, n) in ((0, 1), (0, 2), (1, 2), (2, 3)):
            for (a, b) in ((0, 1), (1, 3), (2, 3), (0, 3)):
                got = poisson_bracket(J[m, n], J[a, b], z,
                                      structure=MINKOWSKI_SPIN)
                want = 2.0 * ((m == a) * eta[m] * vals[n, b]
                              - (m == b) * eta[m] * vals[n, a]
                              - (n == a) * eta[n] * vals[m, b]
                              + (n == b) * eta[n] * vals[m, a])
                assert abs(got - want) < 1e-9


def test_minkowski_pair_signature(rng):
    # {omega^mu, pi^nu} = eta^{mu nu} in the covariant sector
    z = rng.standard_normal(8)
    for mu in range(4):
        for nu in range(4):
            got = poisson_bracket(coordinate(mu, dim=8), coordinate(4 + nu, dim=8),
                                  z, structure=MINKOWSKI_SPIN)
            assert_allclose(got, METRIC[mu, nu], atol=1e-12)
