"""Lorentz-covariant spin sector.

Four-vectors use the metric diag(-1, +1, +1, +1) and index order
(time, x, y, z).  The spin tensor is the antisymmetric square
2 (omega^mu pi^nu - omega^nu pi^mu); its boost/rotation decomposition,
constraint surfaces, Casimir, base-space quadric, and the covariant spin
four-vector with its round-trip maps all live here.  The total momentum P
is exogenous data: a fixed timelike four-vector, not a dynamical variable.
"""

from __future__ import annotations

import math

import numpy as np

from .constraints import Constraint, ConstraintSet
from .errors import DomainError, SuperluminalError, SurfaceError
from .phasespace import MINKOWSKI_SPIN, Observable, _cross3

Array = np.ndarray

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])

# Orientation of the antisymmetric contraction behind the covariant spin
# four-vector; +1 places the rest-frame spin along omega x pi.
LEVI_CIVITA_SIGN = 1.0

# Surface radii with 8 a3 a4 = 6 hbar^2 at hbar = 1.
DEFAULT_SURFACE_SCALE = float(np.sqrt(3.0) / 2.0)


def _four(u, name="four-vector") -> Array:
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError(f"{name} must have shape (4,), got {u.shape}")
    return u


def minkowski_dot(u, v) -> float:
    """Metric contraction u_mu v^mu with signature (-, +, +, +)."""
    u = _four(u)
    v = _four(v)
    return float(np.dot(u[1:], v[1:]) - u[0] * v[0])


def minkowski_sq(u) -> float:
    return minkowski_dot(u, u)


def effective_mass(P) -> float:
    """Invariant scale sqrt(P0^2 - |Pvec|^2) of a timelike momentum."""
    P = _four(P, "momentum")
    msq = -minkowski_sq(P)
    if msq <= 0.0:
        raise DomainError(
            f"momentum must be timelike; got P.P = {-msq:.6g} >= 0")
    return float(np.sqrt(msq))


def gamma_factor(P) -> float:
    """|P^0| / sqrt(P0^2 - |Pvec|^2) of a timelike momentum."""
    P = _four(P, "momentum")
    return abs(P[0]) / effective_mass(P)


def beta_vector(P) -> Array:
    """Velocity Pvec / P^0 of a timelike momentum."""
    P = _four(P, "momentum")
    effective_mass(P)  # timelike check; also guarantees P[0] != 0
    return P[1:] / P[0]


def boost_matrix(beta) -> Array:
    """Symmetric pure-boost matrix for velocity beta (|beta| < 1).

    The (gamma - 1)/beta^2 coefficient switches to its series limit 1/2 for
    |beta| < 1e-8 to stay finite through beta -> 0.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise ValueError("beta must be a 3-vector")
    bsq = float(np.dot(beta, beta))
    if bsq >= 1.0:
        raise SuperluminalError(
            f"|beta| = {np.sqrt(bsq):.6g} is not below 1")
    gamma = 1.0 / np.sqrt(1.0 - bsq)
    if bsq < 1e-16:
        coef = 0.5 + 3.0 * bsq / 8.0
    else:
        coef = (gamma - 1.0) / bsq
    out = np.empty((4, 4))
    out[0, 0] = gamma
    out[0, 1:] = gamma * beta
    out[1:, 0] = gamma * beta
    out[1:, 1:] = np.eye(3) + coef * np.outer(beta, beta)
    return out


def spin_tensor(omega, pi) -> Array:
    """Antisymmetric tensor 2 (omega^mu pi^nu - omega^nu pi^mu)."""
    omega = _four(omega, "omega")
    pi = _four(pi, "pi")
    outer = np.outer(omega, pi)
    return 2.0 * (outer - outer.T)


def _require_antisymmetric(J) -> Array:
    J = np.asarray(J, dtype=float)
    if J.shape != (4, 4):
        raise ValueError("spin tensor must be 4x4")
    scale = max(1.0, float(np.max(np.abs(J))))
    if np.max(np.abs(J + J.T)) > 1e-12 * scale:
        raise ValueError("spin tensor must be antisymmetric")
    return J


def decompose_spin_tensor(J):
    """Boost/rotation split: k_i = J^{0i} and (j1, j2, j3) from the spatial
    block with J^{23} = j1, J^{31} = j2, J^{12} = j3."""
    J = _require_antisymmetric(J)
    k = np.array([J[0, 1], J[0, 2], J[0, 3]])
    j = np.array([J[2, 3], J[3, 1], J[1, 2]])
    return k, j


def compose_spin_tensor(k, j) -> Array:
    """Inverse of decompose_spin_tensor."""
    k = np.asarray(k, dtype=float)
    j = np.asarray(j, dtype=float)
    if k.shape != (3,) or j.shape != (3,):
        raise ValueError("compose_spin_tensor expects two 3-vectors")
    J = np.zeros((4, 4))
    J[0, 1:] = k
    J[1:, 0] = -k
    J[2, 3] = j[0]
    J[3, 2] = -j[0]
    J[3, 1] = j[1]
    J[1, 3] = -j[1]
    J[1, 2] = j[2]
    J[2, 1] = -j[2]
    return J


def t3_constraints(omega, pi, P, a3: float = DEFAULT_SURFACE_SCALE,
                   a4: float = DEFAULT_SURFACE_SCALE) -> Array:
    """Residuals of the five-constraint covariant spin surface:
    (pi.pi - a3, omega.omega - a4, omega.pi, P.omega, P.pi)."""
    omega = _four(omega, "omega")
    pi = _four(pi, "pi")
    P = _four(P, "momentum")
    return np.array([
        minkowski_sq(pi) - float(a3),
        minkowski_sq(omega) - float(a4),
        minkowski_dot(omega, pi),
        minkowski_dot(P, omega),
        minkowski_dot(P, pi),
    ])


def t4_constraints(omega, pi, P, a: float = 0.75) -> Array:
    """Residuals of the scale-free covariant surface:
    (P.omega, P.pi, omega.pi, pi.pi - a / omega.omega)."""
    omega = _four(omega, "omega")
    pi = _four(pi, "pi")
    P = _four(P, "momentum")
    wsq = minkowski_sq(omega)
    if abs(wsq) < 1e-12:
        raise DomainError("omega.omega ~ 0: the scale-free surface is singular")
    return np.array([
        minkowski_dot(P, omega),
        minkowski_dot(P, pi),
        minkowski_dot(omega, pi),
        minkowski_sq(pi) - float(a) / wsq,
    ])


def frenkel_residual(J, P) -> Array:
    """The four-vector J^{mu nu} P_nu; zero on the covariant spin surface."""
    J = _require_antisymmetric(J)
    P = _four(P, "momentum")
    return J @ (METRIC @ P)


def casimir(J) -> float:
    """Full contraction J_{mu nu} J^{mu nu}."""
    J = _require_antisymmetric(J)
    return float(np.sum(J * (METRIC @ J @ METRIC)))


def base_ellipsoid_residual(j, P, hbar: float = 1.0) -> float:
    """Residual of the base-space quadric
    j.j - |j x Pvec|^2 / (P^0)^2 - 3 hbar^2."""
    j = np.asarray(j, dtype=float)
    if j.shape != (3,):
        raise ValueError("j must be a 3-vector")
    P = _four(P, "momentum")
    effective_mass(P)  # timelike check
    cross = _cross3(j, P[1:])
    return float(np.dot(j, j) - np.dot(cross, cross) / P[0] ** 2
                 - 3.0 * float(hbar) ** 2)


def bmt_vector(omega, pi, P) -> Array:
    """Covariant spin four-vector: the dual contraction of P with the spin
    tensor, divided by the invariant momentum scale.  Orthogonal to P by
    construction; reduces to (0, omega x pi) in the rest frame."""
    omega = _four(omega, "omega")
    pi = _four(pi, "pi")
    P = _four(P, "momentum")
    scale = effective_mass(P)
    wv, pv, Pv = omega[1:], pi[1:], P[1:]
    wxp = _cross3(wv, pv)
    s0 = np.dot(Pv, wxp)
    sv = P[0] * wxp - omega[0] * _cross3(Pv, pv) + pi[0] * _cross3(Pv, wv)
    return LEVI_CIVITA_SIGN * np.concatenate(([s0], sv)) / scale


def bmt_to_j(S, P) -> Array:
    """Rotation part of the spin tensor from the covariant spin vector:
    j = 2 gamma (Svec - beta (beta . Svec))."""
    S = _four(S, "spin four-vector")
    gamma = gamma_factor(P)
    beta = beta_vector(P)
    sv = S[1:]
    return 2.0 * gamma * (sv - beta * np.dot(beta, sv))


def bmt_to_k(S, P) -> Array:
    """Boost part of the spin tensor from the covariant spin vector:
    k = 2 gamma (Svec x beta)."""
    S = _four(S, "spin four-vector")
    gamma = gamma_factor(P)
    beta = beta_vector(P)
    return 2.0 * gamma * _cross3(S[1:], beta)


def j_to_bmt(j, P) -> Array:
    """Covariant spin vector from the rotation part of the spin tensor:
    S^0 = (gamma/2) beta.j, Svec = (j/gamma + gamma beta (beta.j)) / 2."""
    j = np.asarray(j, dtype=float)
    if j.shape != (3,):
        raise ValueError("j must be a 3-vector")
    gamma = gamma_factor(P)
    beta = beta_vector(P)
    bj = np.dot(beta, j)
    s0 = 0.5 * gamma * bj
    sv = 0.5 * (j / gamma + gamma * beta * bj)
    return np.concatenate(([s0], sv))


def tetrad(P, omega, pi, a3: float = DEFAULT_SURFACE_SCALE,
           a4: float = DEFAULT_SURFACE_SCALE, tol: float = 1e-9) -> Array:
    """Pseudo-orthogonal frame carried by a covariant spin-surface point.

    Rows are P, omega, pi, and the covariant spin vector, each normalized to
    unit Minkowski length, so Lambda eta Lambda^T = eta.
    """
    P = _four(P, "momentum")
    omega = _four(omega, "omega")
    pi = _four(pi, "pi")
    residuals = t3_constraints(omega, pi, P, a3, a4)
    if np.max(np.abs(residuals)) > tol:
        raise SurfaceError(residuals,
                           "tetrad needs a covariant spin-surface point")
    scale = effective_mass(P)
    S = bmt_vector(omega, pi, P)
    return np.vstack([
        P / scale,
        omega / np.sqrt(a4),
        pi / np.sqrt(a3),
        S / np.sqrt(a3 * a4),
    ])


def t4_structure_action(omega, pi, scale: float, beta: float):
    """Two-parameter structure group of the scale-free surface: rescale the
    (omega, pi) pair by scale > 0 and rotate their plane by beta, leaving
    omega x pi unchanged."""
    omega = np.asarray(omega, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if omega.shape != (3,) or pi.shape != (3,):
        raise ValueError("t4_structure_action expects 3-vectors")
    scale = float(scale)
    if scale <= 0.0:
        raise DomainError("structure-group scale must be positive")
    wn = np.linalg.norm(omega)
    pn = np.linalg.norm(pi)
    if wn < 1e-12 or pn < 1e-12:
        raise DomainError("structure-group action is singular at omega = 0 or pi = 0")
    c, s = np.cos(beta), np.sin(beta)
    new_omega = scale * c * omega + (scale * wn / pn) * s * pi
    new_pi = -(pn / (scale * wn)) * s * omega + (c / scale) * pi
    return new_omega, new_pi


# ---------------------------------------------------------------------------
# Observables over the 8-dimensional Minkowski spin sector
# ---------------------------------------------------------------------------

def spin_tensor_component(mu: int, nu: int) -> Observable:
    """J^{mu nu} as an observable of the flat (omega, pi) four-vector pair."""
    mu = int(mu)
    nu = int(nu)
    if not (0 <= mu < 4 and 0 <= nu < 4):
        raise ValueError("tensor indices must lie in 0..3")

    def fn(z):
        return 2.0 * (z[mu] * z[4 + nu] - z[nu] * z[4 + mu])

    def grad(z):
        out = np.zeros(8)
        out[mu] += 2.0 * z[4 + nu]
        out[nu] -= 2.0 * z[4 + mu]
        out[4 + nu] += 2.0 * z[mu]
        out[4 + mu] -= 2.0 * z[nu]
        return out

    return Observable(fn, grad, name=f"J{mu}{nu}")


def _minkowski_block_sq(offset: int, name: str) -> Observable:
    def fn(z):
        b = z[offset:offset + 4]
        return float(np.dot(_ETA_DIAG * b, b))

    def grad(z):
        out = np.zeros(8)
        out[offset:offset + 4] = 2.0 * _ETA_DIAG * z[offset:offset + 4]
        return out

    return Observable(fn, grad, name=name)


def _minkowski_omega_pi() -> Observable:
    def fn(z):
        return float(np.dot(_ETA_DIAG * z[:4], z[4:]))

    def grad(z):
        out = np.empty(8)
        out[:4] = _ETA_DIAG * z[4:]
        out[4:] = _ETA_DIAG * z[:4]
        return out

    return Observable(fn, grad, name="omega_pi")


def _minkowski_p_dot(P, offset: int, name: str) -> Observable:
    P = _four(P, "momentum")
    lowered = _ETA_DIAG * P

    def fn(z):
        return float(np.dot(lowered, z[offset:offset + 4]))

    def grad(z):
        out = np.zeros(8)
        out[offset:offset + 4] = lowered
        return out

    return Observable(fn, grad, name=name)


def t3_constraint_set(P, a3: float = DEFAULT_SURFACE_SCALE,
                      a4: float = DEFAULT_SURFACE_SCALE) -> ConstraintSet:
    """The covariant five-constraint set as a ConstraintSet over the
    8-dimensional Minkowski spin sector (P held fixed)."""
    return ConstraintSet(
        constraints=(
            Constraint("pi_sq", _minkowski_block_sq(4, "pi_sq"), float(a3)),
            Constraint("omega_sq", _minkowski_block_sq(0, "omega_sq"), float(a4)),
            Constraint("omega_pi", _minkowski_omega_pi(), 0.0),
            Constraint("P_omega", _minkowski_p_dot(P, 0, "P_omega"), 0.0),
            Constraint("P_pi", _minkowski_p_dot(P, 4, "P_pi"), 0.0),
        ),
        structure=MINKOWSKI_SPIN,
        update_indices=tuple(range(8)),
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def sample_beta(rng, beta_max: float = 0.99) -> Array:
    """Random boost velocity with |beta| uniform in [0, beta_max]."""
    if not 0.0 <= beta_max < 1.0:
        raise ValueError("beta_max must lie in [0, 1)")
    direction = rng.normal(size=3)
    norm = math.sqrt(direction.dot(direction))
    while norm < 1e-12:
        direction = rng.normal(size=3)
        norm = math.sqrt(direction.dot(direction))
    return (rng.uniform(0.0, beta_max) / norm) * direction


def sample_t3_rest_point(rng, a3: float = DEFAULT_SURFACE_SCALE,
                         a4: float = DEFAULT_SURFACE_SCALE, mass: float = 1.0):
    """Rest-frame point of the covariant spin surface: spacelike orthogonal
    (omega, pi) with vanishing time components, P = (mass, 0, 0, 0)."""
    from .bundle_so3 import sample_surface_point

    w3, p3 = sample_surface_point(rng, a=np.sqrt(a4), b=np.sqrt(a3))
    omega = np.concatenate(([0.0], w3))
    pi = np.concatenate(([0.0], p3))
    P = np.array([float(mass), 0.0, 0.0, 0.0])
    return omega, pi, P


def sample_t4_rest_point(rng, a: float = 0.75, mass: float = 1.0,
                         radius_range=(0.5, 2.0)):
    """Rest-frame point of the scale-free covariant surface."""
    from .bundle_so3 import sample_surface_point

    radius = rng.uniform(*radius_range)
    w3, p3 = sample_surface_point(rng, a=radius, b=np.sqrt(a) / radius)
    omega = np.concatenate(([0.0], w3))
    pi = np.concatenate(([0.0], p3))
    P = np.array([float(mass), 0.0, 0.0, 0.0])
    return omega, pi, P
