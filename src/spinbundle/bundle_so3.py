"""The spin fiber bundle over the two-sphere of spin directions.

Points (omega, pi) with |omega| = |pi| = 1 and omega.pi = 0 form a copy of
the rotation group; the spin map omega x pi projects them onto the sphere,
and rotations in the (omega, pi) plane move along the fiber.  Gauge freedom
of the auxiliary sector is tracked by a symmetric 2x2 matrix of multipliers.

The spin map, its Jacobian and singular values, the surface residuals, the
rotation identification, the fiber rotation and gauge_matrices_transform
take stacks: leading axes are points, so (n, 3) inputs are n points, each
mapped as a call on it alone would map it, and a guard that fails at any
point names its row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, DomainError, SurfaceError, failing_point
from .phasespace import _dot

Array = np.ndarray


def _points(shape, name, *arrays):
    """The arrays as floats, each checked to be one point of the given
    shape, such as (3,) or (4, 4), or a stack of them over leading axes."""
    arrays = tuple(np.asarray(a, dtype=float) for a in arrays)
    for a in arrays:
        if a.shape[-len(shape):] != shape:
            raise ValueError(f"{name} takes points of shape {shape} or "
                             f"stacks of them, got shape {a.shape}")
    return arrays


def spin_map(omega, pi) -> Array:
    """Bundle projection: the composed spin vector S = omega x pi."""
    omega, pi = _points((3,), "spin_map", omega, pi)
    return np.cross(omega, pi)


def _skew(a: Array) -> Array:
    out = np.zeros(a.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -a[..., 2], a[..., 1]
    out[..., 1, 0], out[..., 1, 2] = a[..., 2], -a[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -a[..., 1], a[..., 0]
    return out


def map_jacobian(omega, pi, kind: str = "so3") -> Array:
    """Jacobian of the bundle projection.

    kind="so3": S = omega x pi as a map R^6 -> R^3 (3-vectors in, rows S_i).
    kind="so13": the antisymmetric tensor 2(omega^mu pi^nu - omega^nu pi^mu)
    as a map R^8 -> R^6 (four-vectors in, rows ordered k1 k2 k3 j1 j2 j3).
    Leading axes are points: (n, 3) inputs give an (n, 3, 6) stack.
    """
    if kind not in ("so3", "so13"):
        raise ValueError(f"unknown map kind {kind!r}")
    omega, pi = np.broadcast_arrays(*_points(
        (3,) if kind == "so3" else (4,), f"the {kind} map_jacobian", omega, pi))
    if kind == "so3":
        return np.concatenate([-_skew(pi), _skew(omega)], axis=-1)
    rows = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
    jac = np.zeros(omega.shape[:-1] + (6, 8))
    for r, (mu, nu) in enumerate(rows):
        jac[..., r, mu] += 2.0 * pi[..., nu]
        jac[..., r, nu] -= 2.0 * pi[..., mu]
        jac[..., r, 4 + nu] += 2.0 * omega[..., mu]
        jac[..., r, 4 + mu] -= 2.0 * omega[..., nu]
    return jac


def jacobian_singular_values(omega, pi, kind: str = "so3") -> Array:
    """Singular values of map_jacobian, largest first, per point; a point
    whose Jacobian is not finite raises DomainError, as LAPACK has no
    singular values for it."""
    jac = map_jacobian(omega, pi, kind)
    bad = failing_point(~np.isfinite(jac).all(axis=(-2, -1)))
    if bad:
        raise DomainError(f"the {kind} Jacobian is not finite{bad[1]}")
    return np.linalg.svd(jac, compute_uv=False)


def _numerical_rank(sv: Array) -> Array:
    """Per point, the count of singular values above 1e-8 * the largest;
    zero where the largest is zero."""
    return np.count_nonzero(sv > 1e-8 * sv[..., :1], axis=-1)


def jacobian_rank(omega, pi, kind: str = "so3") -> int:
    """Numerical rank of the bundle projection's Jacobian.

    Singular values below 1e-8 * (largest singular value) count as zero.
    """
    return int(_numerical_rank(jacobian_singular_values(omega, pi, kind)))


def surface_residuals(omega, pi) -> Array:
    """Residuals (omega^2 - 1, pi^2 - 1, omega.pi) of the normalized surface,
    along the last axis."""
    omega, pi = _points((3,), "surface_residuals", omega, pi)
    return np.stack(np.broadcast_arrays(
        _dot(omega, omega) - 1.0,
        _dot(pi, pi) - 1.0,
        _dot(omega, pi),
    ), axis=-1)


def normalize_to_surface(omega, pi):
    """Rescale omega and Gram-Schmidt pi so the pair lies exactly on the
    normalized surface."""
    omega = np.asarray(omega, dtype=float)
    pi = np.asarray(pi, dtype=float)
    wn = np.linalg.norm(omega)
    if wn < 1e-12:
        raise DomainError("cannot normalize: omega is (nearly) zero")
    w = omega / wn
    perp = pi - np.dot(pi, w) * w
    pn = np.linalg.norm(perp)
    if pn < 1e-12:
        raise DomainError("cannot normalize: pi is (nearly) parallel to omega")
    return w, perp / pn


def rotation_matrix(omega, pi) -> Array:
    """Rotation matrix with rows (omega, pi, omega x pi); stacked pairs give
    an (n, 3, 3) stack.

    Requires a point of the normalized surface; use normalize_to_surface
    first for raw input.
    """
    omega, pi = _points((3,), "rotation_matrix", omega, pi)
    residuals = surface_residuals(omega, pi)
    bad = failing_point(~(np.max(np.abs(residuals), axis=-1) <= 1e-9))
    if bad:
        i, where = bad
        raise SurfaceError(
            residuals[i],
            f"rotation_matrix needs a normalized surface point{where}")
    return np.stack(np.broadcast_arrays(omega, pi, np.cross(omega, pi)),
                    axis=-2)


def so2_action(omega, pi, beta):
    """Structure-group rotation in the (omega, pi) plane by the angle beta;
    for stacked pairs, beta holds one angle per point or one for all."""
    omega, pi = _points((3,), "so2_action", omega, pi)
    c, s = np.cos(beta)[..., None], np.sin(beta)[..., None]
    return c * omega + s * pi, -s * omega + c * pi


def local_coords(omega, pi):
    """Adapted bundle coordinates (S1, S2, omega3) on the chart omega3 != 0."""
    omega, pi = _points((3,), "local_coords", omega, pi)
    residuals = surface_residuals(omega, pi)
    if not np.max(np.abs(residuals)) <= 1e-9:
        raise SurfaceError(residuals,
                           "local_coords needs a normalized surface point")
    if abs(omega[2]) <= 1e-12:
        raise ChartDomainError(
            "point lies outside the chart omega3 != 0")
    spin = np.cross(omega, pi)
    return np.array([spin[0], spin[1], omega[2]])


@dataclass(frozen=True)
class GaugeMatrix:
    """Symmetric 2x2 matrix of auxiliary-sector multipliers.

    Entries are [[1/phi, lambda3/2], [lambda3/2, lambda1/2]].  The multiplier
    lambda2 rides along unchanged: its transformation involves a time
    derivative of phi and is exercised through the dynamics, not as a
    pointwise map.
    """

    matrix: Array
    lambda2: float = 0.0

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("gauge matrix must be 2x2")
        m = _symmetrized(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "lambda2", float(self.lambda2))

    @classmethod
    def from_multipliers(cls, phi: float, lambda1: float, lambda3: float = 0.0,
                         lambda2: float = 0.0) -> "GaugeMatrix":
        phi = float(phi)
        if phi == 0.0:
            raise DomainError("gauge matrix needs phi != 0")
        return cls(matrix=np.array([[1.0 / phi, 0.5 * lambda3],
                                    [0.5 * lambda3, 0.5 * lambda1]]),
                   lambda2=lambda2)

    @property
    def phi(self) -> float:
        g00 = self.matrix[0, 0]
        if g00 == 0.0:
            raise DomainError("gauge matrix has 1/phi = 0; phi is undefined")
        return 1.0 / g00

    @property
    def lambda1(self) -> float:
        return 2.0 * self.matrix[1, 1]

    @property
    def lambda3(self) -> float:
        return 2.0 * self.matrix[0, 1]


def _symmetrized(m) -> Array:
    """0.5 (m + m^T) over the last two axes."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def gauge_matrices_transform(m, beta, beta_dot) -> Array:
    """Action of the structure group on gauge matrices:
    g' = K g K^T + (beta_dot / 2) I with K the rotation by beta, symmetrized
    as GaugeMatrix keeps its matrix.  m is one 2x2 matrix or a stack of
    them, with an angle and a rate each."""
    c, s = np.cos(beta), np.sin(beta)
    K = np.stack(np.broadcast_arrays(c, s, -s, c), axis=-1).reshape(
        np.shape(c) + (2, 2))
    beta_dot = np.asarray(beta_dot, dtype=float)[..., None, None]
    return _symmetrized(K @ m @ np.swapaxes(K, -1, -2)
                        + 0.5 * beta_dot * np.eye(2))


def gauge_matrix_transform(g: GaugeMatrix, beta: float,
                           beta_dot: float) -> GaugeMatrix:
    """Action of the structure group on the gauge matrix:
    g' = K g K^T + (beta_dot / 2) I with K the rotation by beta."""
    return GaugeMatrix(matrix=gauge_matrices_transform(g.matrix, beta,
                                                       float(beta_dot)),
                       lambda2=g.lambda2)


def uniform_from(u, lo: float, hi: float):
    """lo + (hi - lo) * u: numpy's uniform(lo, hi) from the random() draw u
    it is made of, bit for bit."""
    return lo + (hi - lo) * u


def _norm(v) -> Array:
    """|v| over the last axis, as math.sqrt(v.dot(v)) takes it per point."""
    return np.sqrt(_dot(v, v))


def surface_points(raw, a=1.0, b=1.0):
    """(omega, pi, ok): raw normal draws mapped to omega^2 = a^2,
    pi^2 = b^2, omega.pi = 0 as sample_surface_point maps those it keeps.

    raw is (..., 6): omega's direction, then the draw whose part
    perpendicular to it gives pi's.  a and b are one radius for all points
    or one per point.  ok is False where sample_surface_point would reject a
    draw: a norm of at most 1e-12, or a perpendicular part of at most 1e-6.
    """
    raw = np.asarray(raw, dtype=float)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    v, r = raw[..., :3], raw[..., 3:]
    with np.errstate(divide="ignore", invalid="ignore"):
        vn, rn = _norm(v), _norm(r)
        w = v / vn[..., None]
        u = r / rn[..., None]
        perp = u - _dot(u, w)[..., None] * w
        pn = _norm(perp)
        pi = b * perp / pn[..., None]
    return a * w, pi, (vn > 1e-12) & (rn > 1e-12) & (pn > 1e-6)


def surface_draw(rng) -> Array:
    """The raw draws (6,) of one surface point, each 3-vector drawn again
    where sample_surface_point would reject it."""
    v = rng.standard_normal(3)
    while not _norm(v) > 1e-12:
        v = rng.standard_normal(3)
    while True:
        raw = np.concatenate((v, rng.standard_normal(3)))
        if surface_points(raw)[2]:
            return raw


def sample_surface_point(rng, a: float = 1.0, b: float = 1.0):
    """Draw (omega, pi) uniformly-in-direction on the surface
    omega^2 = a^2, pi^2 = b^2, omega.pi = 0: surface_points of one
    surface_draw."""
    a = float(a)
    b = float(b)
    if a <= 0 or b <= 0:
        raise ValueError("surface radii must be positive")
    w, p, _ = surface_points(surface_draw(rng), a, b)
    return w, p
