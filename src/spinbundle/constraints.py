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
    _bracket,
    _checked_gradient,
    _checked_point,
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
    """Residual vector (func_a(z) - target_a) in the set's declared order."""
    zf = as_flat(z)
    return np.array([c.residual(zf) for c in cset])


def _warn_if_off_surface(cset, zf, where):
    res = evaluate(cset, zf)
    scale = np.maximum(1.0, np.abs(cset.targets))
    if np.any(np.abs(res) > cset.tolerance * scale):
        warnings.warn(
            f"{where}: point is off the constraint surface "
            f"(residuals {res})", OffSurfaceWarning, stacklevel=3)


def _constraint_brackets(cset: ConstraintSet, zf, rel_step: float):
    """Checked gradients of the constraints, each taken once, and the
    antisymmetric matrix of their mutual brackets.

    With fewer than two constraints there is no bracket to take, so neither
    the point nor any gradient is looked at.
    """
    n = len(cset)
    delta = np.zeros((n, n))
    if n < 2:
        return [], delta
    structure = cset.structure
    zf = _checked_point(zf, structure)
    grads = [_checked_gradient(c.func, zf, structure, rel_step) for c in cset]
    for a in range(n):
        for b in range(a + 1, n):
            value = _bracket(grads[a], grads[b], structure)
            delta[a, b] = value
            delta[b, a] = -value
    return grads, delta


def constraint_matrix(cset: ConstraintSet, z, rel_step: float = 1e-6,
                      warn: bool = True) -> BracketMatrix:
    """Antisymmetric matrix of mutual brackets of the set at z."""
    zf = as_flat(z)
    if warn:
        _warn_if_off_surface(cset, zf, "constraint_matrix")
    _, delta = _constraint_brackets(cset, zf, rel_step)
    return BracketMatrix(delta=delta, names=cset.names)


def classify(cset: ConstraintSet, z, tol: float = 1e-8,
             rel_step: float = 1e-6) -> Classification:
    """Tag each constraint first-class (all brackets vanish on the surface
    within tol, scaled by the bracket magnitudes) or second-class."""
    if tol <= 0:
        raise ValueError("classification tolerance must be positive")
    bm = constraint_matrix(cset, z, rel_step=rel_step)
    scale = max(1.0, float(np.max(np.abs(bm.delta))) if len(cset) else 1.0)
    row_max = np.max(np.abs(bm.delta), axis=1) if len(cset) else np.empty(0)
    first, second, second_idx = [], [], []
    for i, name in enumerate(cset.names):
        if row_max[i] < tol * scale:
            first.append(name)
        else:
            second.append(name)
            second_idx.append(i)
    condition = None
    if second_idx:
        sub = bm.delta[np.ix_(second_idx, second_idx)]
        condition = float(np.linalg.cond(sub))
    return Classification(first_class=tuple(first), second_class=tuple(second),
                          bracket=bm, second_class_condition=condition)


def _condition(delta: np.ndarray) -> float:
    """Condition number of the constraint bracket matrix.

    A pair's delta is antisymmetric with a zero diagonal, so both singular
    values are |delta_01|: the number is 1 when delta_01 is finite and
    nonzero and infinite otherwise.  Larger sets take the SVD.
    """
    if len(delta) == 2:
        d = float(delta[0, 1])
        return 1.0 if d != 0.0 and math.isfinite(d) else math.inf
    return float(np.linalg.cond(delta)) if len(delta) else 1.0


def _solve_delta(delta: np.ndarray, rhs) -> np.ndarray:
    """delta^-1 rhs for an invertible constraint bracket matrix.

    A pair's delta is [[0, d], [-d, 0]], whose inverse applied to rhs is
    (rhs_1 / -d, rhs_0 / d): the divisions LAPACK's pivoted LU makes there,
    bit for bit.  Larger sets take the solve.
    """
    if len(delta) == 2:
        d = float(delta[0, 1])
        return np.array([rhs[1] / -d, rhs[0] / d])
    return np.linalg.solve(delta, np.array(rhs))


def dirac_brackets(fs, gs, second_class: ConstraintSet, z,
                   rel_step: float = 1e-6,
                   max_condition: float = 1e12) -> np.ndarray:
    """Dirac brackets {f, g}* = {f, g} - {f, Phi_a} (delta^-1)_ab {Phi_b, g}
    at one point for every f in fs and g in gs, as a (len(fs), len(gs))
    array.

    The constraint gradients, delta and its condition number are taken once,
    and a degenerate delta raises before any f or g is looked at.  Then each
    distinct observable's gradient is taken once (one that is also a
    constraint reuses the constraint's), and delta is solved once per g
    (in closed form for a pair).
    """
    structure = second_class.structure
    zf = as_flat(z)
    grads, delta = _constraint_brackets(second_class, zf, rel_step)
    condition = _condition(delta)
    if not np.isfinite(condition) or condition > max_condition:
        raise DegenerateConstraintError(condition)
    zf = _checked_point(zf, structure)
    taken = {id(c.func): dc for c, dc in zip(second_class, grads)}

    def gradient_of(obs):
        if id(obs) not in taken:
            taken[id(obs)] = _checked_gradient(obs, zf, structure, rel_step)
        return taken[id(obs)]

    dfs = [gradient_of(f) for f in fs]
    dgs = [gradient_of(g) for g in gs]
    bfs = [np.array([_bracket(df, dc, structure) for dc in grads])
           for df in dfs]
    out = np.empty((len(dfs), len(dgs)))
    for j, dg in enumerate(dgs):
        x = _solve_delta(delta, [_bracket(dc, dg, structure) for dc in grads])
        for i, (df, bf) in enumerate(zip(dfs, bfs)):
            out[i, j] = _bracket(df, dg, structure) - bf @ x
    return out


def dirac_bracket(f, g, second_class: ConstraintSet, z,
                  rel_step: float = 1e-6, max_condition: float = 1e12) -> float:
    """Dirac bracket {f, g}* = {f, g} - {f, Phi_a} (delta^-1)_ab {Phi_b, g},
    the 1 x 1 case of dirac_brackets."""
    return float(dirac_brackets((f,), (g,), second_class, z, rel_step,
                                max_condition)[0, 0])


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

    def _omega_sq(z):
        wsq = float(np.dot(z[OMEGA], z[OMEGA]))
        if wsq < 1e-12:
            raise DomainError(
                "pi^2 - a/omega^2 is singular where omega vanishes")
        return wsq

    def fn(z):
        return float(np.dot(z[PI], z[PI])) - a / _omega_sq(z)

    def grad(z):
        wsq = _omega_sq(z)
        out = np.zeros(DIM)
        out[OMEGA] = 2.0 * a * z[OMEGA] / wsq ** 2
        out[PI] = 2.0 * z[PI]
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
