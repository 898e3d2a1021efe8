"""Canonical phase space, scalar observables, and a numeric Poisson bracket.

The particle-plus-spin model lives on a 14-dimensional phase space with
canonical pairs (x_i, p_i), (omega_i, pi_i) and (phi, pi_phi).  The covariant
spin sector uses a separate 8-dimensional space of four-vector pairs
(omega^mu, pi^mu) whose canonical bracket carries the Minkowski metric
diag(-1, +1, +1, +1).

Observables are scalar functions of the flattened coordinate vector with an
optional analytic gradient; the bracket engine falls back to central finite
differences when no gradient is supplied.  The engine takes one point (dim,)
or a stack of points (n, dim); a gradient function of a stack reads its
coordinates from the last axis, z[..., i], as the builders of phasespace,
constraints and lorentz do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GradientError

Array = np.ndarray

# Flat layout of the particle + spin phase space.
X = slice(0, 3)
P = slice(3, 6)
OMEGA = slice(6, 9)
PI = slice(9, 12)
PHI = 12
PI_PHI = 13
DIM = 14

_PARTICLE_LABELS = (
    "x1", "x2", "x3",
    "p1", "p2", "p3",
    "omega1", "omega2", "omega3",
    "pi1", "pi2", "pi3",
    "phi", "pi_phi",
)

_MINKOWSKI_LABELS = (
    "omega0", "omega1", "omega2", "omega3",
    "pi0", "pi1", "pi2", "pi3",
)


@dataclass(frozen=True)
class PhasePoint:
    """A labelled point of the 14-dimensional particle + spin phase space."""

    x: Array
    p: Array
    omega: Array
    pi: Array
    phi: float = 1.0
    pi_phi: float = 0.0

    def __post_init__(self):
        for name in ("x", "p", "omega", "pi"):
            value = np.array(getattr(self, name), dtype=float)
            if value.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {value.shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "pi_phi", float(self.pi_phi))
        if not np.isfinite(self.as_array()).all():
            raise ValueError("phase-space point has non-finite entries")

    @classmethod
    def from_array(cls, z) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        if z.shape != (DIM,):
            raise ValueError(f"expected a flat vector of length {DIM}, got shape {z.shape}")
        return cls(x=z[X], p=z[P], omega=z[OMEGA], pi=z[PI],
                   phi=z[PHI], pi_phi=z[PI_PHI])

    def as_array(self) -> Array:
        out = np.empty(DIM)
        out[X] = self.x
        out[P] = self.p
        out[OMEGA] = self.omega
        out[PI] = self.pi
        out[PHI] = self.phi
        out[PI_PHI] = self.pi_phi
        return out

    @property
    def spin(self) -> Array:
        """Composed spin vector S = omega x pi."""
        return np.cross(self.omega, self.pi)

    def replace(self, **changes) -> "PhasePoint":
        return dataclasses.replace(self, **changes)


def _dot(u: Array, v: Array) -> Array:
    """u . v over the last axis, one value per point of the leading axes.

    Each point takes the products and sums np.dot takes for a single pair of
    unit-stride vectors, so a stack matches its rows computed one at a time
    exactly; a strided last axis is copied first, as BLAS sums it otherwise.
    """
    u, v = (a if a.strides[-1] == a.itemsize else a.copy() for a in (u, v))
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def as_flat(z) -> Array:
    """Flatten a PhasePoint (or pass through a plain coordinate vector)."""
    if isinstance(z, PhasePoint):
        return z.as_array()
    return np.asarray(z, dtype=float)


@dataclass(frozen=True)
class CanonicalStructure:
    """Pairing of coordinates with conjugate momenta plus bracket weights.

    Each pair (q, p) contributes w * (df/dq dg/dp - df/dp dg/dq) to the
    bracket.  Weights are 1 for ordinary canonical pairs and carry the
    metric signature entries for the Minkowski spin sector.
    """

    labels: tuple
    pairs: tuple
    weights: tuple

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        pairs = tuple((int(q), int(p)) for q, p in self.pairs)
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(pairs):
            raise ValueError("one bracket weight is required per canonical pair")
        seen = [i for qp in pairs for i in qp]
        if sorted(seen) != list(range(len(labels))):
            raise ValueError("every coordinate must belong to exactly one canonical pair")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)
        # the pairs' (q, p) indices as a (2, pairs) array, for _brackets
        object.__setattr__(self, "_columns", (
            np.array(pairs, dtype=int).reshape(-1, 2).T, np.array(weights)))

    @property
    def dim(self) -> int:
        return len(self.labels)


CANONICAL_PARTICLE = CanonicalStructure(
    labels=_PARTICLE_LABELS,
    pairs=((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11), (12, 13)),
    weights=(1.0,) * 7,
)

MINKOWSKI_SPIN = CanonicalStructure(
    labels=_MINKOWSKI_LABELS,
    pairs=((0, 4), (1, 5), (2, 6), (3, 7)),
    weights=(-1.0, 1.0, 1.0, 1.0),
)


@dataclass(frozen=True)
class Observable:
    """Scalar function of the flat coordinate vector, optionally with an
    analytic gradient.  Without one, gradients come from central finite
    differences."""

    fn: Callable[[Array], float]
    grad: Optional[Callable[[Array], Array]] = None
    name: str = ""

    def __call__(self, z) -> float:
        return float(self.fn(as_flat(z)))

    def gradient(self, z) -> Array:
        zf = as_flat(z)
        if self.grad is not None:
            return np.asarray(self.grad(zf), dtype=float)
        return gradient(self.fn, zf)


def gradient(f, z) -> Array:
    """Central finite-difference gradient with per-coordinate relative steps,
    at one point or, row by row, at each point of a stack.

    The step for coordinate i is 1e-6 * max(1, |z_i|).
    """
    fn = f.fn if isinstance(f, Observable) else f
    z0 = np.array(as_flat(z), dtype=float)
    if z0.ndim > 1:
        return np.reshape([gradient(fn, r) for r in z0], z0.shape)
    out = np.empty(z0.size)
    for i in range(z0.size):
        h = 1e-6 * max(1.0, abs(z0[i]))
        out[i] = _central_difference(fn, z0, i, h)
    return out


def _central_difference(fn, z, i, h):
    zp = z.copy()
    zp[i] += h
    zm = z.copy()
    zm[i] -= h
    return (float(fn(zp)) - float(fn(zm))) / (2.0 * h)


def _checked_point(z, structure):
    zf = as_flat(z)
    if zf.ndim not in (1, 2) or zf.shape[-1] != structure.dim:
        raise ValueError(
            f"point has shape {zf.shape}, structure expects ({structure.dim},)"
            f" or (n, {structure.dim})")
    return zf


def _checked_gradient(obs, zf, structure):
    grad = np.asarray(obs.gradient(zf) if isinstance(obs, Observable)
                      else gradient(obs, zf), dtype=float)
    if grad.shape != zf.shape:
        raise ValueError(
            f"gradient has shape {grad.shape}, expected {zf.shape}")
    bad = ~np.isfinite(grad)
    if bad.any():
        first = int(np.argmax(bad))
        raise GradientError(structure.labels[first % structure.dim],
                            grad.flat[first])
    return grad


def poisson_bracket(f, g, z, structure: CanonicalStructure = CANONICAL_PARTICLE):
    """The canonical Poisson bracket {f, g} at the point z, a float, or at
    each point of a stack z of shape (n, dim), an (n,) array."""
    zf = _checked_point(z, structure)
    df = _checked_gradient(f, zf, structure)
    dg = _checked_gradient(g, zf, structure)
    value = _brackets(df[..., None, :], dg[..., None, :], structure)[..., 0, 0]
    return float(value) if zf.ndim == 1 else value


def _brackets(df: Array, dg: Array, structure: CanonicalStructure) -> Array:
    """Every bracket of gradient stacks df (..., nf, dim) and dg (..., ng,
    dim), as an (..., nf, ng) array.

    Each entry sums the canonical pairs in order from 0.0, as total = total
    + w * (df_q dg_p - df_p dg_q): the IEEE operations a loop over one pair
    of gradients takes.  Like Python floats, an overflow gives inf or nan
    silently.
    """
    qp, weights = structure._columns
    f, g = df[..., :, None, qp], dg[..., None, :, qp]
    total = 0.0
    with np.errstate(all="ignore"):
        terms = weights * (f[..., 0, :] * g[..., 1, :]
                           - f[..., 1, :] * g[..., 0, :])
        for k in range(len(weights)):
            total = total + terms[..., k]
    return total


# ---------------------------------------------------------------------------
# Observable builders
# ---------------------------------------------------------------------------

def coordinate(index: int, dim: int = DIM, label: str = "") -> Observable:
    """Observable returning a single coordinate of the flat vector."""
    index = int(index)
    if not 0 <= index < dim:
        raise ValueError(f"coordinate index {index} outside [0, {dim})")

    def fn(z):
        return float(z[index])

    def grad(z):
        out = np.zeros(z.shape[:-1] + (dim,))
        out[..., index] = 1.0
        return out

    return Observable(fn, grad, name=label or f"z[{index}]")


def spin_component(i: int) -> Observable:
    """Component i of the composed spin S = omega x pi on the 14-dim layout."""
    if i not in (0, 1, 2):
        raise ValueError("spin component index must be 0, 1 or 2")
    # S_i = omega_j pi_k - omega_k pi_j with (i, j, k) cyclic.
    j, k = (i + 1) % 3, (i + 2) % 3
    return _bilinear((OMEGA.start + j, OMEGA.start + k),
                     (PI.start + k, PI.start + j), (1.0, -1.0), name=f"S{i + 1}")


def quadratic(A, b=None, c: float = 0.0, name: str = "quadratic") -> Observable:
    """Observable 0.5 z.A.z + b.z + c with its exact gradient."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    A = 0.5 * (A + A.T)
    dim = A.shape[0]
    bvec = np.zeros(dim) if b is None else np.asarray(b, dtype=float)
    if bvec.shape != (dim,):
        raise ValueError("b must match the dimension of A")
    c = float(c)

    def fn(z):
        return float(0.5 * z @ A @ z + bvec @ z + c)

    def grad(z):
        # a matrix-vector product per point, as A @ z takes for one
        return np.matmul(A, z[..., None])[..., 0] + bvec

    return Observable(fn, grad, name=name)


def _bilinear(left, right, weights, dim: int = DIM, name: str = "") -> Observable:
    """Observable sum_k w_k z[l_k] z[r_k] with its exact gradient, for
    tuples or lists left, right and weights of one length.

    The value takes one product per term and sums the terms in order.  The
    gradient adds the (row, column, weight) triples fixed here in order from
    0.0, at every point, as one bincount over them does at one; it touches
    only the form's own coordinates: an inf or nan elsewhere in z stays out
    of it.
    """
    (l0, r0, w0), *rest = zip(left, right, weights)
    rows, cols = np.array(left + right), np.array(right + left)
    coef = np.array(weights + weights, dtype=float)

    def fn(z):
        z = z.tolist()
        total = w0 * z[l0] * z[r0]
        for l, r, w in rest:
            total += w * z[l] * z[r]
        return total

    def grad(z):
        out = np.zeros(z.shape)
        np.add.at(out, (..., rows), coef * z[..., cols])
        return out

    return Observable(fn, grad, name=name)
