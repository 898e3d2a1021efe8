"""Constraint sets on phase space: evaluation, bracket matrices, first- vs
second-class classification, Dirac brackets, and Newton projection back onto
the constraint surface."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateConstraintError,
    DomainError,
    OffSurfaceWarning,
    ProjectionError,
    failing_point,
)
from .phasespace import (
    CANONICAL_PARTICLE,
    DIM,
    OMEGA,
    PI,
    PI_PHI,
    CanonicalStructure,
    Observable,
    PhasePoint,
    _bilinear,
    _brackets,
    _checked_gradient,
    _checked_point,
    _dot,
    as_flat,
    coordinate,
)

# Indices updated by default when projecting: the spin-sector block.
SPIN_BLOCK = tuple(range(OMEGA.start, PI.stop))


@dataclass(frozen=True)
class Constraint:
    """A single scalar constraint: func(z) = target."""

    name: str
    func: Observable
    target: float = 0.0

    def residual(self, z) -> float:
        return self.func(z) - self.target


@dataclass(frozen=True)
class ConstraintSet:
    """An ordered collection of constraints over one canonical structure."""

    constraints: tuple
    structure: CanonicalStructure = CANONICAL_PARTICLE
    tolerance: float = 1e-9
    update_indices: tuple = SPIN_BLOCK

    def __post_init__(self):
        constraints = tuple(self.constraints)
        names = [c.name for c in constraints]
        if len(set(names)) != len(names):
            raise ValueError("constraint names must be unique")
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "update_indices",
                           tuple(int(i) for i in self.update_indices))

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    @property
    def names(self) -> tuple:
        return tuple(c.name for c in self.constraints)

    @property
    def targets(self) -> np.ndarray:
        return np.array([c.target for c in self.constraints])


@dataclass(frozen=True)
class BracketMatrix:
    """Matrix of mutual Poisson brackets delta_ab = {Phi_a, Phi_b}."""

    delta: np.ndarray
    names: tuple

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "names", tuple(self.names))


@dataclass(frozen=True)
class Classification:
    """First/second-class split of a constraint set at a point."""

    first_class: tuple
    second_class: tuple
    bracket: BracketMatrix
    second_class_condition: Optional[float]


def evaluate(cset: ConstraintSet, z) -> np.ndarray:
    """Residuals (func_a(z) - target_a) in the set's declared order, (k,) at
    one point z and (n, k) over a stack, taken one point at a time."""
    zf = as_flat(z)
    rows = zf.reshape(-1, zf.shape[-1])
    return np.array([[c.residual(r) for c in cset] for r in rows]).reshape(
        zf.shape[:-1] + (len(cset),))


def _constraint_brackets(cset: ConstraintSet, zf, rel_step: float):
    """Checked gradients of the constraints, each taken once, as an (..., n,
    dim) stack, and the antisymmetric matrices (..., n, n) of their mutual
    brackets: delta_ab = {Phi_a, Phi_b} for a < b, and delta_ba = -delta_ab.

    With fewer than two constraints there is no bracket to take, so neither
    the point nor any gradient is looked at: the gradients are zeros.
    """
    n = len(cset)
    delta = np.zeros(np.shape(zf)[:-1] + (n, n))
    if n < 2:
        return np.zeros(delta.shape[:-1] + (cset.structure.dim,)), delta
    zf = _checked_point(zf, cset.structure)
    grads = _gradients([c.func for c in cset], zf, cset.structure, rel_step, {})
    rows, cols = zip(*[(a, b) for a in range(n) for b in range(a + 1, n)])
    values = _brackets(grads, grads, cset.structure)[..., rows, cols]
    delta[..., rows, cols] = values
    delta[..., cols, rows] = -values
    return grads, delta


def _gradients(observables, zf, structure, rel_step, taken):
    """Checked gradients at zf, one per observable, as an (..., k, dim)
    stack; each is taken once and kept in taken under the observable's id."""
    for obs in observables:
        if id(obs) not in taken:
            taken[id(obs)] = _checked_gradient(obs, zf, structure, rel_step)
    stack = np.array([taken[id(obs)] for obs in observables])
    return stack.reshape((len(observables),) + zf.shape).swapaxes(0, -2)


def constraint_matrix(cset: ConstraintSet, z, rel_step: float = 1e-6,
                      warn: bool = True) -> BracketMatrix:
    """Antisymmetric matrix of mutual brackets of the set at z, (k, k) at one
    point and (n, k, k) over a stack; with warn, a point off the surface
    warns once, naming the first such row of a stack and its residuals."""
    zf = as_flat(z)
    if warn:
        res = evaluate(cset, zf)
        scale = np.maximum(1.0, np.abs(cset.targets))
        off = failing_point(np.any(np.abs(res) > cset.tolerance * scale, -1))
        if off:
            warnings.warn(f"constraint_matrix: point{off[1]} is off the "
                          f"constraint surface (residuals {res[off[0]]})",
                          OffSurfaceWarning, stacklevel=2)
    _, delta = _constraint_brackets(cset, zf, rel_step)
    return BracketMatrix(delta=delta, names=cset.names)


def classify(cset: ConstraintSet, z, tol: float = 1e-8,
             rel_step: float = 1e-6):
    """Tag each constraint first-class (all brackets vanish on the surface
    within tol, scaled by the bracket magnitudes) or second-class: one
    Classification at a point z, and over a stack a tuple of them, one per
    point, from one constraint_matrix call."""
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    delta = constraint_matrix(cset, z, rel_step=rel_step).delta
    # the scale is max(1.0, largest |delta|) as Python takes it: 1.0 for nan
    largest = np.max(np.abs(delta), axis=(-2, -1), initial=0.0)
    bound = tol * np.where(largest > 1.0, largest, 1.0)
    first = np.max(np.abs(delta), axis=-1, initial=0.0) < bound[..., None]

    def split(d, tags):
        second = [j for j, tag in enumerate(tags) if not tag]
        return Classification(
            tuple(name for name, tag in zip(cset.names, tags) if tag),
            tuple(cset.names[j] for j in second), BracketMatrix(d, cset.names),
            _condition(d[np.ix_(second, second)]) if second else None)

    if delta.ndim == 2:
        return split(delta, first.tolist())
    return tuple(map(split, delta, first.tolist()))


def _condition(delta: np.ndarray) -> float:
    """Condition number of the constraint bracket matrix, the largest over a
    stack of them.

    A pair's delta is antisymmetric with a zero diagonal, so both singular
    values are |delta_01|: the number is 1 when delta_01 is finite and
    nonzero and infinite otherwise.  Larger sets take the SVD.
    """
    if delta.shape[-1] == 2:
        d = delta[..., 0, 1]
        return 1.0 if np.all((d != 0.0) & np.isfinite(d)) else math.inf
    return float(np.max(np.linalg.cond(delta))) if delta.size else 1.0


def _solve_delta(delta: np.ndarray, rhs) -> np.ndarray:
    """delta^-1 rhs for invertible constraint bracket matrices, rhs one
    vector or a stack of (..., n, 1) columns as np.linalg.solve takes them.

    A pair's delta is [[0, d], [-d, 0]], whose inverse applied to a column
    (r_0, r_1) is (r_1 / -d, r_0 / d): the divisions LAPACK's pivoted LU
    makes there, bit for bit.  Larger sets take the solve, a column at a
    time: several columns at once round otherwise.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim == 1:
        return _solve_delta(delta, rhs[:, None])[:, 0]
    if delta.shape[-1] != 2:
        return np.linalg.solve(delta, rhs)
    d = delta[..., 0, 1, None]
    return np.stack((rhs[..., 1, :] / -d, rhs[..., 0, :] / d), axis=-2)


def dirac_brackets(fs, gs, second_class: ConstraintSet, z,
                   rel_step: float = 1e-6,
                   max_condition: float = 1e12) -> np.ndarray:
    """Dirac brackets {f, g}* = {f, g} - {f, Phi_a} (delta^-1)_ab {Phi_b, g}
    for every f in fs and g in gs: a (len(fs), len(gs)) array at one point
    z, or an (n, len(fs), len(gs)) array at each point of a stack z.

    The constraint gradients, delta and its condition number are taken once,
    and a degenerate delta at any point raises before any f or g is looked
    at.  Then each distinct observable's gradient is taken once for the
    stack (one that is also a constraint reuses the constraint's), and delta
    is solved once per g and point, in closed form for a pair.  Overflows
    give inf or nan silently, as in the brackets.
    """
    structure = second_class.structure
    zf = as_flat(z)
    grads, delta = _constraint_brackets(second_class, zf, rel_step)
    condition = _condition(delta)
    if not np.isfinite(condition) or condition > max_condition:
        raise DegenerateConstraintError(condition)
    zf = _checked_point(zf, structure)
    taken = {id(c.func): grads[..., a, :] for a, c in enumerate(second_class)}
    dfs = _gradients(fs, zf, structure, rel_step, taken)
    dgs = _gradients(gs, zf, structure, rel_step, taken)
    bf = _brackets(dfs, grads, structure)
    bg = np.swapaxes(_brackets(grads, dgs, structure), -1, -2)
    with np.errstate(all="ignore"):
        x = _solve_delta(delta[..., None, :, :], bg[..., None])[..., 0]
        return (_brackets(dfs, dgs, structure)
                - _dot(bf[..., :, None, :], x[..., None, :, :]))


def dirac_bracket(f, g, second_class: ConstraintSet, z,
                  rel_step: float = 1e-6, max_condition: float = 1e12) -> float:
    """Dirac bracket {f, g}* = {f, g} - {f, Phi_a} (delta^-1)_ab {Phi_b, g},
    the 1 x 1 case of dirac_brackets: a float at one point, an (n,) array
    on a stack."""
    value = dirac_brackets((f,), (g,), second_class, z, rel_step,
                           max_condition)[..., 0, 0]
    return float(value) if value.ndim == 0 else value


def project(z, cset: ConstraintSet, max_iter: int = 25, tol: float = 1e-12):
    """Newton projection of z onto the constraint surface.

    Updates are minimum-norm over the set's update indices (the spin sector
    by default).  All other coordinates are left untouched.  Returns the
    same kind of object it was given.
    """
    was_point = isinstance(z, PhasePoint)
    zf = np.array(as_flat(z), dtype=float)
    indices = np.array(cset.update_indices, dtype=int)

    residuals = evaluate(cset, zf)
    scale = np.maximum(1.0, np.abs(cset.targets))
    if np.any(np.abs(residuals) > 0.1 * scale):
        warnings.warn(
            f"project: starting point is far from the surface "
            f"(residuals {residuals})", OffSurfaceWarning, stacklevel=2)

    for iteration in range(max_iter):
        if np.max(np.abs(residuals)) < tol:
            break
        jac = np.array([c.func.gradient(zf)[indices] for c in cset])
        step, *_ = np.linalg.lstsq(jac, residuals, rcond=None)
        if not np.isfinite(step).all():
            raise ProjectionError(residuals, iteration)
        zf[indices] -= step
        residuals = evaluate(cset, zf)
    if np.max(np.abs(residuals)) >= tol:
        raise ProjectionError(residuals, max_iter)
    return PhasePoint.from_array(zf) if was_point else zf


# ---------------------------------------------------------------------------
# Constraint builders for the spin sector
# ---------------------------------------------------------------------------

_OMEGA3 = tuple(range(OMEGA.start, OMEGA.stop))
_PI3 = tuple(range(PI.start, PI.stop))


def omega_norm_sq() -> Observable:
    """|omega|^2 on the particle layout."""
    return _bilinear(_OMEGA3, _OMEGA3, (1.0, 1.0, 1.0), name="omega_sq")


def pi_norm_sq() -> Observable:
    """|pi|^2 on the particle layout."""
    return _bilinear(_PI3, _PI3, (1.0, 1.0, 1.0), name="pi_sq")


def omega_dot_pi() -> Observable:
    """omega . pi on the particle layout."""
    return _bilinear(_OMEGA3, _PI3, (1.0, 1.0, 1.0), name="omega_pi")


def gauge_momentum() -> Observable:
    """The momentum conjugate to the auxiliary gauge coordinate phi."""
    return coordinate(PI_PHI, dim=DIM, label="pi_phi")


def _radial_balance(a: float) -> Observable:
    """|pi|^2 - a / |omega|^2, singular at omega = 0."""
    a = float(a)
    # |omega|^4 as a float's ** 2, libm's pow, point by point: numpy's
    # square of an array rounds otherwise in a few cases in ten thousand
    float_square = np.frompyfunc(lambda x: x ** 2, 1, 1)

    def _omega_sq(z):
        wsq = _dot(z[..., OMEGA], z[..., OMEGA])
        if np.any(wsq < 1e-12):
            raise DomainError(
                "pi^2 - a/omega^2 is singular where omega vanishes")
        return wsq

    def fn(z):
        return float(np.dot(z[PI], z[PI])) - a / float(_omega_sq(z))

    def grad(z):
        wsq_sq = np.asarray(float_square(_omega_sq(z)), dtype=float)
        out = np.zeros(z.shape)
        out[..., OMEGA] = 2.0 * a * z[..., OMEGA] / wsq_sq[..., None]
        out[..., PI] = 2.0 * z[..., PI]
        return out

    return Observable(fn, grad, name="pi_sq_minus_a_over_omega_sq")


def default_pi_norm(a: float = 1.0, hbar: float = 1.0) -> float:
    """Momentum-sphere radius b with b^2 = 3 hbar^2 / (4 a^2)."""
    if a <= 0:
        raise ValueError("a must be positive")
    return np.sqrt(3.0) * hbar / (2.0 * a)


def spin_surface_set(a: float = 1.0, b: Optional[float] = None,
                     hbar: float = 1.0) -> ConstraintSet:
    """The two-sphere-bundle surface omega^2 = a^2, pi^2 = b^2, omega.pi = 0."""
    a = float(a)
    b = default_pi_norm(a, hbar) if b is None else float(b)
    return ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), a * a),
        Constraint("pi_sq", pi_norm_sq(), b * b),
        Constraint("omega_pi", omega_dot_pi(), 0.0),
    ))


def second_class_pair(a: float = 1.0) -> ConstraintSet:
    """The second-class pair omega^2 - a^2, omega.pi."""
    a = float(a)
    return ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), a * a),
        Constraint("omega_pi", omega_dot_pi(), 0.0),
    ))


def pauli_model_set(a: float = 1.0, b: Optional[float] = None,
                    hbar: float = 1.0) -> ConstraintSet:
    """Four constraints of the spin model in a basis that separates classes:
    the second-class pair plus pi_phi and the first-class combination
    pi^2 - b^2 + (b^2/a^2)(omega^2 - a^2)."""
    a = float(a)
    b = default_pi_norm(a, hbar) if b is None else float(b)
    ratio = (b / a) ** 2
    combination = pi_norm_sq() + ratio * omega_norm_sq()
    return ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), a * a),
        Constraint("omega_pi", omega_dot_pi(), 0.0),
        Constraint("pi_phi", gauge_momentum(), 0.0),
        Constraint("pi_sq_combination", combination, b * b + ratio * a * a),
    ))


def t4_surface_set(a: float = 0.75) -> ConstraintSet:
    """The two-constraint surface omega.pi = 0, pi^2 = a / omega^2."""
    return ConstraintSet(constraints=(
        Constraint("omega_pi", omega_dot_pi(), 0.0),
        Constraint("radial_balance", _radial_balance(a), 0.0),
    ))
