"""Lorentz-covariant spin sector.

Four-vectors use the metric diag(-1, +1, +1, +1) and index order
(time, x, y, z).  The spin tensor is the antisymmetric square
2 (omega^mu pi^nu - omega^nu pi^mu); its boost/rotation decomposition,
constraint surfaces, Casimir, base-space quadric, and the covariant spin
four-vector with its round-trip maps all live here.  The total momentum P
is exogenous data: a fixed timelike four-vector, not a dynamical variable.

The pointwise maps take stacks: leading axes are points, so an (n, 4)
four-vector, (n, 3) three-vector or (n, 4, 4) tensor is n points, and a
point's result is the one a call on that point alone gives.  Inputs
broadcast against each other over the leading axes.  A guard that fails at
any point raises as a call on that point would, naming its row.
"""

from __future__ import annotations

import numpy as np

from .bundle_so3 import (
    _norm,
    _points,
    _skew,
    surface_draw,
    surface_points,
    uniform_from,
)
from .constraints import Constraint, ConstraintSet
from .errors import DomainError, SuperluminalError, SurfaceError, failing_point
from .phasespace import MINKOWSKI_SPIN, Observable, _bilinear, _dot

Array = np.ndarray

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])

# Orientation of the antisymmetric contraction behind the covariant spin
# four-vector; +1 places the rest-frame spin along omega x pi.
LEVI_CIVITA_SIGN = 1.0

# Surface radii with 8 a3 a4 = 6 hbar^2 at hbar = 1.
DEFAULT_SURFACE_SCALE = float(np.sqrt(3.0) / 2.0)


def _scalar(x):
    """A float for a single point, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _last_axis(*parts) -> Array:
    """Per-point values side by side along a new last axis."""
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _mdot(u: Array, v: Array) -> Array:
    return _dot(u[..., 1:], v[..., 1:]) - u[..., 0] * v[..., 0]


def minkowski_dot(u, v):
    """Metric contraction u_mu v^mu with signature (-, +, +, +): a float for
    two four-vectors, one value per point for stacks."""
    return _scalar(_mdot(*_points((4,), "minkowski_dot", u, v)))


def minkowski_sq(u):
    return minkowski_dot(u, u)


def _mass(P: Array) -> Array:
    msq = -_mdot(P, P)
    bad = failing_point(msq <= 0.0)
    if bad:
        i, where = bad
        raise DomainError(
            f"momentum must be timelike; got P.P = {-msq[i]:.6g} >= 0{where}")
    return np.sqrt(msq)


def effective_mass(P):
    """Invariant scale sqrt(P0^2 - |Pvec|^2) of a timelike momentum."""
    return _scalar(_mass(*_points((4,), "effective_mass", P)))


def _gamma_beta(P, name):
    """gamma = |P^0| / sqrt(P0^2 - |Pvec|^2) and beta = Pvec / P^0 of a
    timelike momentum."""
    (P,) = _points((4,), name, P)
    gamma = abs(P[..., 0]) / _mass(P)
    return gamma, P[..., 1:] / P[..., :1]  # timelike, so P^0 != 0


def gamma_factor(P):
    """|P^0| / sqrt(P0^2 - |Pvec|^2) of a timelike momentum."""
    return _scalar(_gamma_beta(P, "gamma_factor")[0])


def beta_vector(P) -> Array:
    """Velocity Pvec / P^0 of a timelike momentum."""
    return _gamma_beta(P, "beta_vector")[1]


def boost_matrix(beta) -> Array:
    """Symmetric pure-boost matrix for velocity beta (|beta| < 1); an
    (n, 3) stack of velocities gives an (n, 4, 4) stack of boosts.

    The (gamma - 1)/beta^2 coefficient switches to its series limit 1/2 for
    |beta| < 1e-8 to stay finite through beta -> 0.
    """
    (beta,) = _points((3,), "boost_matrix", beta)
    bsq = _dot(beta, beta)
    bad = failing_point(bsq >= 1.0)
    if bad:
        i, where = bad
        raise SuperluminalError(
            f"|beta| = {np.sqrt(bsq[i]):.6g} is not below 1{where}")
    gamma = 1.0 / np.sqrt(1.0 - bsq)
    series = bsq < 1e-16
    # both arms are formed, so the division skips the points on the series
    coef = np.where(series, 0.5 + 3.0 * bsq / 8.0,
                    (gamma - 1.0) / np.where(series, 1.0, bsq))
    out = np.empty(bsq.shape + (4, 4))
    out[..., 0, 0] = gamma
    out[..., 0, 1:] = gamma[..., None] * beta
    out[..., 1:, 0] = gamma[..., None] * beta
    out[..., 1:, 1:] = np.eye(3) + coef[..., None, None] * (
        beta[..., :, None] * beta[..., None, :])
    return out


def spin_tensor(omega, pi) -> Array:
    """Antisymmetric tensor 2 (omega^mu pi^nu - omega^nu pi^mu)."""
    omega, pi = _points((4,), "spin_tensor", omega, pi)
    outer = omega[..., :, None] * pi[..., None, :]
    return 2.0 * (outer - np.swapaxes(outer, -1, -2))


def _require_antisymmetric(J, name) -> Array:
    (J,) = _points((4, 4), name, J)
    scale = np.maximum(1.0, np.max(np.abs(J), axis=(-2, -1)))
    skew = np.max(np.abs(J + np.swapaxes(J, -1, -2)), axis=(-2, -1))
    # an inf or nan entry makes scale inf or nan
    bad = failing_point(~((skew <= 1e-12 * scale) & np.isfinite(scale)))
    if bad:
        raise ValueError(f"spin tensor must be finite and antisymmetric{bad[1]}")
    return J


def decompose_spin_tensor(J):
    """Boost/rotation split: k_i = J^{0i} and (j1, j2, j3) from the spatial
    block with J^{23} = j1, J^{31} = j2, J^{12} = j3."""
    J = _require_antisymmetric(J, "decompose_spin_tensor")
    k = J[..., 0, 1:].copy()
    j = np.stack([J[..., 2, 3], J[..., 3, 1], J[..., 1, 2]], axis=-1)
    return k, j


def compose_spin_tensor(k, j) -> Array:
    """Inverse of decompose_spin_tensor."""
    k, j = np.broadcast_arrays(*_points((3,), "compose_spin_tensor", k, j))
    J = np.zeros(k.shape[:-1] + (4, 4))
    J[..., 0, 1:] = k
    J[..., 1:, 0] = -k
    J[..., 1:, 1:] = _skew(-j)
    return J


def t3_constraints(omega, pi, P, a3: float = DEFAULT_SURFACE_SCALE,
                   a4: float = DEFAULT_SURFACE_SCALE) -> Array:
    """Residuals of the five-constraint covariant spin surface:
    (pi.pi - a3, omega.omega - a4, omega.pi, P.omega, P.pi), along the last
    axis."""
    omega, pi, P = _points((4,), "t3_constraints", omega, pi, P)
    return _last_axis(
        _mdot(pi, pi) - float(a3),
        _mdot(omega, omega) - float(a4),
        _mdot(omega, pi),
        _mdot(P, omega),
        _mdot(P, pi),
    )


def t4_constraints(omega, pi, P, a: float = 0.75) -> Array:
    """Residuals of the scale-free covariant surface:
    (P.omega, P.pi, omega.pi, pi.pi - a / omega.omega), along the last
    axis."""
    omega, pi, P = _points((4,), "t4_constraints", omega, pi, P)
    wsq = _mdot(omega, omega)
    bad = failing_point(abs(wsq) < 1e-12)
    if bad:
        raise DomainError(
            f"omega.omega ~ 0: the scale-free surface is singular{bad[1]}")
    return _last_axis(
        _mdot(P, omega),
        _mdot(P, pi),
        _mdot(omega, pi),
        _mdot(pi, pi) - float(a) / wsq,
    )


def frenkel_residual(J, P) -> Array:
    """The four-vector J^{mu nu} P_nu; zero on the covariant spin surface."""
    J = _require_antisymmetric(J, "frenkel_residual")
    (P,) = _points((4,), "frenkel_residual", P)
    # matmul sums a non-contiguous operand in another order: contiguous
    # copies give each point of a stack what a call on it alone gives
    J, P = np.ascontiguousarray(J), np.ascontiguousarray(P)
    return np.matmul(J, METRIC @ P[..., None])[..., 0]


def casimir(J):
    """Full contraction J_{mu nu} J^{mu nu}."""
    J = _require_antisymmetric(J, "casimir")
    return _scalar(np.sum(J * (METRIC @ J @ METRIC), axis=(-2, -1)))


def base_ellipsoid_residual(j, P, hbar: float = 1.0):
    """Residual of the base-space quadric
    j.j - |j x Pvec|^2 / (P^0)^2 - 3 hbar^2."""
    (j,) = _points((3,), "base_ellipsoid_residual", j)
    (P,) = _points((4,), "base_ellipsoid_residual", P)
    _mass(P)  # timelike check
    cross = np.cross(j, P[..., 1:])
    return _scalar(_dot(j, j) - _dot(cross, cross) / P[..., 0] ** 2
                   - 3.0 * float(hbar) ** 2)


def bmt_vector(omega, pi, P) -> Array:
    """Covariant spin four-vector: the dual contraction of P with the spin
    tensor, divided by the invariant momentum scale.  Orthogonal to P by
    construction; reduces to (0, omega x pi) in the rest frame."""
    omega, pi, P = _points((4,), "bmt_vector", omega, pi, P)
    scale = _mass(P)
    wv, pv, Pv = omega[..., 1:], pi[..., 1:], P[..., 1:]
    wxp = np.cross(wv, pv)
    s0 = _dot(Pv, wxp)
    sv = (P[..., :1] * wxp - omega[..., :1] * np.cross(Pv, pv)
          + pi[..., :1] * np.cross(Pv, wv))
    return (LEVI_CIVITA_SIGN * np.concatenate([s0[..., None], sv], axis=-1)
            / scale[..., None])


def bmt_to_j(S, P) -> Array:
    """Rotation part of the spin tensor from the covariant spin vector:
    j = 2 gamma (Svec - beta (beta . Svec))."""
    (S,) = _points((4,), "bmt_to_j", S)
    gamma, beta = _gamma_beta(P, "bmt_to_j")
    sv = S[..., 1:]
    return (2.0 * gamma)[..., None] * (sv - beta * _dot(beta, sv)[..., None])


def bmt_to_k(S, P) -> Array:
    """Boost part of the spin tensor from the covariant spin vector:
    k = 2 gamma (Svec x beta)."""
    (S,) = _points((4,), "bmt_to_k", S)
    gamma, beta = _gamma_beta(P, "bmt_to_k")
    return (2.0 * gamma)[..., None] * np.cross(S[..., 1:], beta)


def j_to_bmt(j, P) -> Array:
    """Covariant spin vector from the rotation part of the spin tensor:
    S^0 = (gamma/2) beta.j, Svec = (j/gamma + gamma beta (beta.j)) / 2."""
    (j,) = _points((3,), "j_to_bmt", j)
    gamma, beta = _gamma_beta(P, "j_to_bmt")
    bj = _dot(beta, j)
    s0 = 0.5 * gamma * bj
    g = gamma[..., None]
    sv = 0.5 * (j / g + g * beta * bj[..., None])
    return np.concatenate([s0[..., None], sv], axis=-1)


def tetrad(P, omega, pi, a3: float = DEFAULT_SURFACE_SCALE,
           a4: float = DEFAULT_SURFACE_SCALE) -> Array:
    """Pseudo-orthogonal frame carried by a covariant spin-surface point.

    Rows are P, omega, pi, and the covariant spin vector, each normalized to
    unit Minkowski length, so Lambda eta Lambda^T = eta.  Stacked points
    give an (n, 4, 4) stack of frames.
    """
    P, omega, pi = _points((4,), "tetrad", P, omega, pi)
    residuals = t3_constraints(omega, pi, P, a3, a4)
    bad = failing_point(~(np.max(np.abs(residuals), axis=-1) <= 1e-9))
    if bad:
        i, where = bad
        raise SurfaceError(residuals[i],
                           f"tetrad needs a covariant spin-surface point{where}")
    scale = _mass(P)
    S = bmt_vector(omega, pi, P)
    return np.stack(np.broadcast_arrays(
        P / scale[..., None],
        omega / np.sqrt(a4),
        pi / np.sqrt(a3),
        S / np.sqrt(a3 * a4),
    ), axis=-2)


def t4_structure_action(omega, pi, scale, beta):
    """Two-parameter structure group of the scale-free surface: rescale the
    (omega, pi) pair by scale > 0 and rotate their plane by beta, leaving
    omega x pi unchanged.  For stacked 3-vectors, scale and beta hold one
    value per point or one for all."""
    omega, pi = _points((3,), "t4_structure_action", omega, pi)
    scale = np.asarray(scale, dtype=float)
    bad = failing_point(scale <= 0.0)
    if bad:
        raise DomainError(f"structure-group scale must be positive{bad[1]}")
    wn = np.sqrt(_dot(omega, omega))
    pn = np.sqrt(_dot(pi, pi))
    bad = failing_point((wn < 1e-12) | (pn < 1e-12))
    if bad:
        raise DomainError("structure-group action is singular at omega = 0 "
                          f"or pi = 0{bad[1]}")
    c, s = np.cos(beta), np.sin(beta)
    new_omega = ((scale * c)[..., None] * omega
                 + ((scale * wn / pn) * s)[..., None] * pi)
    new_pi = ((-(pn / (scale * wn)) * s)[..., None] * omega
              + (c / scale)[..., None] * pi)
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
    return _bilinear((mu, nu), (4 + nu, 4 + mu), (2.0, -2.0), dim=8,
                     name=f"J{mu}{nu}")


def _minkowski_p_dot(P, offset: int, name: str) -> Observable:
    (P,) = _points((4,), "t3_constraint_set", P)
    lowered = _ETA_DIAG * P

    def fn(z):
        return float(np.dot(lowered, z[offset:offset + 4]))

    def grad(z):
        out = np.zeros(z.shape[:-1] + (8,))
        out[..., offset:offset + 4] = lowered
        return out

    return Observable(fn, grad, name=name)


def t3_constraint_set(P, a3: float = DEFAULT_SURFACE_SCALE,
                      a4: float = DEFAULT_SURFACE_SCALE) -> ConstraintSet:
    """The covariant five-constraint set as a ConstraintSet over the
    8-dimensional Minkowski spin sector (P held fixed)."""
    omega, pi, eta = (0, 1, 2, 3), (4, 5, 6, 7), _ETA_DIAG.tolist()
    return ConstraintSet(
        constraints=(
            Constraint("pi_sq", _bilinear(pi, pi, eta, 8, "pi_sq"), float(a3)),
            Constraint("omega_sq", _bilinear(omega, omega, eta, 8, "omega_sq"),
                       float(a4)),
            Constraint("omega_pi", _bilinear(omega, pi, eta, 8, "omega_pi"), 0.0),
            Constraint("P_omega", _minkowski_p_dot(P, 0, "P_omega"), 0.0),
            Constraint("P_pi", _minkowski_p_dot(P, 4, "P_pi"), 0.0),
        ),
        structure=MINKOWSKI_SPIN,
        update_indices=tuple(range(8)),
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def kept_directions(direction) -> Array:
    """Where sample_beta keeps a raw direction draw: its norm is 1e-12 or
    more."""
    return _norm(direction) >= 1e-12


def direction_draw(rng) -> Array:
    """A raw velocity direction (3,), drawn again where sample_beta would
    reject it."""
    direction = rng.standard_normal(3)
    while not kept_directions(direction):
        direction = rng.standard_normal(3)
    return direction


def velocities(direction, speed) -> Array:
    """Velocities (speed / |direction|) * direction, as sample_beta scales
    its draws; stacks of directions take a speed each."""
    return (speed / _norm(direction))[..., None] * direction


def sample_beta(rng, beta_max: float = 0.99) -> Array:
    """Random boost velocity with |beta| uniform in [0, beta_max]."""
    if not 0.0 <= beta_max < 1.0:
        raise ValueError("beta_max must lie in [0, 1)")
    direction = direction_draw(rng)
    return velocities(direction, rng.uniform(0.0, beta_max))


def rest_frame(omega3, pi3, mass=1.0):
    """Rest-frame four-vectors of spatial (omega, pi): zero time components
    and P = (mass, 0, 0, 0); stacks take a mass each or one for all."""
    omega, pi, P = np.zeros((3,) + np.shape(omega3)[:-1] + (4,))
    omega[..., 1:], pi[..., 1:] = omega3, pi3
    P[..., 0] = mass
    return omega, pi, P


def t3_rest_points(raw, a3: float = DEFAULT_SURFACE_SCALE,
                   a4: float = DEFAULT_SURFACE_SCALE, mass=1.0):
    """Rest-frame points of the covariant spin surface from raw surface draws
    (..., 6), as sample_t3_rest_point maps them."""
    w3, p3, _ = surface_points(raw, np.sqrt(a4), np.sqrt(a3))
    return rest_frame(w3, p3, mass)


def sample_t3_rest_point(rng, a3: float = DEFAULT_SURFACE_SCALE,
                         a4: float = DEFAULT_SURFACE_SCALE, mass: float = 1.0):
    """Rest-frame point of the covariant spin surface: spacelike orthogonal
    (omega, pi) with vanishing time components, P = (mass, 0, 0, 0)."""
    return t3_rest_points(surface_draw(rng), a3, a4, float(mass))


def t4_rest_points(u, raw, a: float = 0.75, mass=1.0):
    """Rest-frame points of the scale-free covariant surface from the
    random() draws u of their radii |omega| in [0.5, 2) and raw surface
    draws (..., 6), as sample_t4_rest_point maps them."""
    radius = uniform_from(u, 0.5, 2.0)
    w3, p3, _ = surface_points(raw, radius, np.sqrt(a) / radius)
    return rest_frame(w3, p3, mass)


def sample_t4_rest_point(rng, a: float = 0.75, mass: float = 1.0):
    """Rest-frame point of the scale-free covariant surface."""
    u = rng.random()
    return t4_rest_points(u, surface_draw(rng), a, float(mass))
