"""Time evolution of the charged spinning particle.

The equations of motion couple a charged-particle sector (x, p) minimally to
a magnetic field and the spin sector (omega, pi) to the field through the
composed moment S = omega x pi.  The multiplier of the pi^2 constraint term
is fixed by the consistency condition {omega.pi, H} = 0, which has the closed
form lambda_1 = 2 |omega|^2 / (phi |pi|^2).  The field coupling drops out:
omega.pi generates the scaling (omega, pi) -> (e^s omega, e^-s pi), which
leaves S, and with it every B.S term, unchanged.  The right-hand side uses
that closed form and explicit component formulas; solve_multiplier keeps the
bracket-engine derivation as the reference the kernels are tested against.
The auxiliary gauge coordinate phi follows a user-supplied function of time
and never influences gauge-invariant output.

The fiber rotation of (omega, pi), by an angle theta with theta' = 2 r / phi
and r = |omega| / |pi|, commutes with every common rotation of omega and pi
and leaves S unchanged.  integrate therefore factors it out: the physical
sector (x, p, omega~, pi~), in which omega~ and pi~ precess rigidly about
B(x), never sees phi, and theta never sees the field; phi is gauge(t).  In a
free or uniform field the physical sector is known in closed form (the
gradient force vanishes and the particle moves on a helix), and under a
constant gauge theta is linear in t.  What is not closed form is stepped by
one embedded Dormand-Prince 5(4) stepper with proportional step control
whose steps land on each requested sample time; a stepped physical sector
can add Newton projection onto the spin constraint surface after accepted
steps.  The stepper, its right-hand sides (built once per integrate) and the
projection work on lists of Python floats; arrays are formed once, from the
samples.  fit_rotation_frequency refines a spectral peak by golden-section
search with parabolic steps (Brent).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import constraints as con
from .errors import (
    DomainError,
    GaugeError,
    IntegrationError,
    OffSurfaceWarning,
    ProjectionError,
)
from .phasespace import (
    CANONICAL_PARTICLE,
    DIM,
    OMEGA,
    P,
    PHI,
    PI,
    PI_PHI,
    X,
    Observable,
    as_flat,
    poisson_bracket,
)

Array = np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters in dimensionless units (hbar = c = 1 by default).

    The momentum-sphere radius b defaults to sqrt(3) hbar / (2 a), which
    normalizes the composed spin to |S|^2 = 3 hbar^2 / 4.
    """

    m: float = 1.0
    e: float = 1.0
    mu: float = 1.0
    c: float = 1.0
    a: float = 1.0
    b: Optional[float] = None
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m", "c", "a", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.b is None:
            object.__setattr__(self, "b", con.default_pi_norm(self.a, self.hbar))
        elif self.b <= 0:
            raise ValueError("b must be positive")

    @property
    def moment_coupling(self) -> float:
        """mu e / (m c): spin precession rate per unit field."""
        return self.mu * self.e / (self.m * self.c)

    @property
    def spin_norm_sq(self) -> float:
        return (self.a * self.b) ** 2

    def surface(self) -> con.ConstraintSet:
        return con.spin_surface_set(self.a, self.b)


_ZERO3 = (0.0, 0.0, 0.0)
_ZERO33 = (_ZERO3, _ZERO3, _ZERO3)


@dataclass(frozen=True)
class FieldConfig:
    """Magnetic field data as one kernel.

    kernel(x1, x2, x3) maps a point given as three floats to (B, A, grad_A,
    grad_B): the field, a vector potential with curl A = B, and their
    spatial derivative matrices G[i, j] = d_i (field_j), as (nested)
    sequences of Python floats.  The right-hand side reads the kernel
    directly; the methods B, A, grad_A and grad_B return its entries at a
    point as float arrays.  kind names the family: integrate takes the
    closed-form flow for "free" and "uniform", so only a field uniform in x
    may carry those kinds.
    """

    kind: str
    kernel: Callable[[float, float, float], tuple]

    def _entry(self, x, i: int) -> Array:
        return np.array(self.kernel(*np.asarray(x, dtype=float).tolist())[i],
                        dtype=float)

    def B(self, x) -> Array:
        return self._entry(x, 0)

    def A(self, x) -> Array:
        return self._entry(x, 1)

    def grad_A(self, x) -> Array:
        return self._entry(x, 2)

    def grad_B(self, x) -> Array:
        return self._entry(x, 3)

    @classmethod
    def free(cls) -> "FieldConfig":
        data = (_ZERO3, _ZERO3, _ZERO33, _ZERO33)
        return cls("free", lambda x1, x2, x3: data)

    @classmethod
    def uniform(cls, B0) -> "FieldConfig":
        """Uniform field with the symmetric-gauge potential A = B0 x x / 2."""
        B0 = np.asarray(B0, dtype=float)
        if B0.shape != (3,):
            raise ValueError("B0 must be a 3-vector")
        b1, b2, b3 = B0.tolist()
        h1, h2, h3 = 0.5 * b1, 0.5 * b2, 0.5 * b3
        B_data = (b1, b2, b3)
        # dA[i, j] = d_i A_j
        dA = ((0.0, h3, -h2), (-h3, 0.0, h1), (h2, -h1, 0.0))

        def kernel(x1, x2, x3):
            return (B_data,
                    (0.5 * (b2 * x3 - b3 * x2), 0.5 * (b3 * x1 - b1 * x3),
                     0.5 * (b1 * x2 - b2 * x1)),
                    dA, _ZERO33)

        return cls("uniform", kernel)

    @classmethod
    def linear_gradient(cls, B0: float = 1.0, gradient: float = 0.1) -> "FieldConfig":
        """Divergence- and curl-free field B = (-g x, 0, B0 + g z) with the
        potential A = (0, x (B0 + g z), 0)."""
        B0 = float(B0)
        g = float(gradient)
        dB = ((-g, 0.0, 0.0), _ZERO3, (0.0, 0.0, g))

        def kernel(x1, x2, x3):
            bz = B0 + g * x3
            return ((-g * x1, 0.0, bz), (0.0, x1 * bz, 0.0),
                    ((0.0, bz, 0.0), _ZERO3, (0.0, g * x1, 0.0)), dB)

        return cls("linear_gradient", kernel)

    @classmethod
    def custom(cls, B, A, grad_B, grad_A) -> "FieldConfig":
        """Four user callables of a point x (a float array), each returning
        an array or (nested) list, wrapped into one kernel."""
        fns = (B, A, grad_A, grad_B)

        def kernel(x1, x2, x3):
            x = np.array([x1, x2, x3])
            return tuple(np.asarray(fn(x), dtype=float).tolist() for fn in fns)

        return cls("custom", kernel)

    def check_consistency(self, points, tol: float = 1e-6) -> float:
        """Largest |curl A - B| over the sample points; raises DomainError
        beyond tol."""
        worst = 0.0
        for x in points:
            dA = self.grad_A(x)
            curl = np.array([
                dA[1, 2] - dA[2, 1],
                dA[2, 0] - dA[0, 2],
                dA[0, 1] - dA[1, 0],
            ])
            worst = max(worst, float(np.max(np.abs(curl - self.B(x)))))
        if worst > tol:
            raise DomainError(
                f"vector potential is inconsistent with B: max |curl A - B| = {worst:.3e}")
        return worst


@dataclass(frozen=True)
class GaugeFunction:
    """The auxiliary gauge coordinate phi as a function of time.

    phi must stay away from zero on the integration span.  integrate reads
    phi alone; eom reads phi_dot, or a central difference where it is None.
    A phi_dot of zero_rate marks a constant gauge.
    """

    phi: Callable[[float], float]
    phi_dot: Optional[Callable[[float], float]] = None
    label: str = ""

    @staticmethod
    def zero_rate(t: float) -> float:
        """phi_dot of a gauge built as constant in t; integrate recognises
        it by identity and takes the gauge sector in closed form."""
        return 0.0

    @classmethod
    def constant(cls, value: float = 1.0) -> "GaugeFunction":
        value = float(value)
        if value == 0.0:
            raise GaugeError("constant gauge function must be nonzero")
        return cls(phi=lambda t: value, phi_dot=cls.zero_rate, label=repr(value))

    def __call__(self, t: float) -> float:
        return float(self.phi(t))

    def derivative(self, t: float) -> float:
        if self.phi_dot is not None:
            return float(self.phi_dot(t))
        h = 1e-6 * max(1.0, abs(t))
        return (float(self.phi(t + h)) - float(self.phi(t - h))) / (2.0 * h)

    def validate(self, t0: float, t1: float, samples: int = 1000,
                 min_abs: float = 1e-6) -> None:
        """Sample phi on a grid over [t0, t1]; raise GaugeError where |phi|
        falls to min_abs or where phi changes sign between two samples."""
        prev_t = prev = None
        for t in np.linspace(t0, t1, samples):
            value = float(self.phi(t))
            if abs(value) <= min_abs:
                raise GaugeError(
                    f"gauge function falls to |phi| <= {min_abs:g} near t = {t:.6g}")
            if prev is not None and prev * value < 0.0:
                raise GaugeError(
                    f"gauge function changes sign between t = {prev_t:.6g} "
                    f"and t = {t:.6g}")
            prev_t, prev = t, value


# ---------------------------------------------------------------------------
# Right-hand side
# ---------------------------------------------------------------------------

_ORTH_OBS = con.omega_dot_pi()
_HALF_PI_SQ = 0.5 * con.pi_norm_sq()


def _spin_sector_hamiltonian(params: ModelParams,
                             fields: Optional[FieldConfig]) -> Observable:
    """The part of the Hamiltonian that drives the spin sector, with phi read
    from the state: (1/phi)(omega^2 - a^2) - (mu e/m c) B(x).S."""
    a_sq = params.a ** 2
    coupling = params.moment_coupling

    def fn(z):
        phi = z[PHI]
        value = (np.dot(z[OMEGA], z[OMEGA]) - a_sq) / phi
        if fields is not None:
            value -= coupling * np.dot(fields.B(z[X]), np.cross(z[OMEGA], z[PI]))
        return float(value)

    def grad(z):
        phi = z[PHI]
        out = np.zeros(DIM)
        out[OMEGA] = 2.0 * z[OMEGA] / phi
        out[PHI] = -(np.dot(z[OMEGA], z[OMEGA]) - a_sq) / phi ** 2
        if fields is not None:
            B = fields.B(z[X])
            out[OMEGA] -= coupling * np.cross(z[PI], B)
            out[PI] -= coupling * np.cross(B, z[OMEGA])
            out[X] -= coupling * (fields.grad_B(z[X]) @ np.cross(z[OMEGA], z[PI]))
        return out

    return Observable(fn, grad, name="H_spin_sector")


def solve_multiplier(z, params: ModelParams, phi_val: Optional[float] = None,
                     fields: Optional[FieldConfig] = None,
                     check_surface: bool = True) -> float:
    """Multiplier of the pi^2 constraint term, solved numerically from the
    consistency condition {omega.pi, H} = 0.

    The condition is linear in the multiplier; both bracket coefficients are
    evaluated with the Poisson engine rather than transcribed in closed form.
    """
    zf = np.array(as_flat(z), dtype=float)
    if phi_val is not None:
        zf[PHI] = float(phi_val)
    if abs(zf[PHI]) < 1e-9:
        raise GaugeError("multiplier solve needs phi != 0")
    if check_surface:
        res = con.evaluate(params.surface(), zf)
        scale = np.maximum(1.0, np.abs(params.surface().targets))
        if np.any(np.abs(res) > 1e-6 * scale):
            warnings.warn(
                f"solve_multiplier: point is off the spin surface (residuals {res})",
                OffSurfaceWarning, stacklevel=2)
    h0 = _spin_sector_hamiltonian(params, fields)
    numerator = poisson_bracket(_ORTH_OBS, h0, zf)
    denominator = poisson_bracket(_ORTH_OBS, _HALF_PI_SQ, zf)
    if abs(denominator) < 1e-12 * max(1.0, params.b ** 2):
        raise DomainError("multiplier is undefined where pi^2 ~ 0")
    return float(-numerator / denominator)


def _multiplier(w, p, phi):
    """Closed-form pi^2 multiplier 2 |omega|^2 / (phi |pi|^2).

    w and p are indexable by component, so the same formula serves one state
    (3-vectors) and a batch (arrays of shape (3, N) with phi of shape (N,)).
    """
    w_sq = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
    p_sq = p[0] * p[0] + p[1] * p[1] + p[2] * p[2]
    return 2.0 * w_sq / (phi * p_sq)


def _physical_kernel(params: ModelParams,
                     fields: FieldConfig) -> Callable[[list, float], list]:
    """The gauge-blind physical sector as rhs(u, t), which maps the 12 floats
    u = (x, p, omega~, pi~) to their rates; the constants are taken once,
    here, and t is not read, since the field is static.

    omega~ and pi~ turn about B(x) as one rigid pair, omega~' = kappa omega~
    x B(x) and pi~' = kappa pi~ x B(x) with kappa = mu e/(m c), so their
    composed moment is S and drives p through the gradient force.
    """
    e_over_c = float(params.e / params.c)
    coupling = float(params.moment_coupling)
    m = float(params.m)
    kernel = fields.kernel

    def rhs(u, t):
        x1, x2, x3, p1, p2, p3, w1, w2, w3, q1, q2, q3 = u
        (b1, b2, b3), (a1, a2, a3), dA, dB = kernel(x1, x2, x3)
        (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = dA
        (g11, g12, g13), (g21, g22, g23), (g31, g32, g33) = dB
        s1 = w2 * q3 - w3 * q2
        s2 = w3 * q1 - w1 * q3
        s3 = w1 * q2 - w2 * q1
        v1 = (p1 - e_over_c * a1) / m
        v2 = (p2 - e_over_c * a2) / m
        v3 = (p3 - e_over_c * a3) / m
        return [
            v1, v2, v3,
            e_over_c * (r11 * v1 + r12 * v2 + r13 * v3)
            + coupling * (g11 * s1 + g12 * s2 + g13 * s3),
            e_over_c * (r21 * v1 + r22 * v2 + r23 * v3)
            + coupling * (g21 * s1 + g22 * s2 + g23 * s3),
            e_over_c * (r31 * v1 + r32 * v2 + r33 * v3)
            + coupling * (g31 * s1 + g32 * s2 + g33 * s3),
            coupling * (w2 * b3 - w3 * b2),
            coupling * (w3 * b1 - w1 * b3),
            coupling * (w1 * b2 - w2 * b1),
            coupling * (q2 * b3 - q3 * b2),
            coupling * (q3 * b1 - q1 * b3),
            coupling * (q1 * b2 - q2 * b1),
        ]

    return rhs


def eom(z, t: float, params: ModelParams, fields: FieldConfig,
        gauge: GaugeFunction) -> Array:
    """Flat time derivative of the state at time t: the physical kernel plus
    the fiber term, (lambda_1 pi, -(2/phi) omega) on the spin block and
    (gauge.derivative(t), 0) on (phi, pi_phi)."""
    y = as_flat(z).tolist()
    w1, w2, w3, q1, q2, q3, phi = y[OMEGA.start:PHI + 1]
    if abs(phi) < 1e-9:
        raise GaugeError(f"equations of motion are singular at phi = {phi!r}")
    q_sq = q1 * q1 + q2 * q2 + q3 * q3
    if q_sq < 1e-12 * max(1.0, params.b ** 2):
        raise DomainError("multiplier is undefined where pi^2 ~ 0")
    # _multiplier, written out
    lam1 = 2.0 * (w1 * w1 + w2 * w2 + w3 * w3) / (phi * q_sq)
    k = -2.0 / phi
    rate = _physical_kernel(params, fields)(y[:PHI], t)
    return np.array([
        *rate[:6],
        rate[6] + lam1 * q1, rate[7] + lam1 * q2, rate[8] + lam1 * q3,
        rate[9] + k * w1, rate[10] + k * w2, rate[11] + k * w3,
        gauge.derivative(t),
        0.0,
    ])


def physical_hamiltonian(z, params: ModelParams, fields: FieldConfig) -> float:
    """Gauge-invariant energy (p - (e/c) A)^2 / 2m - (mu e/m c) B.S."""
    zf = as_flat(z)
    kinetic = zf[P] - (params.e / params.c) * fields.A(zf[X])
    B = fields.B(zf[X])
    spin = np.cross(zf[OMEGA], zf[PI])
    return float(np.dot(kinetic, kinetic) / (2.0 * params.m)
                 - params.moment_coupling * np.dot(B, spin))


# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 5(4) integration with constraint projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationOptions:
    """Step control of integrate: the error tolerances, the projection
    period project_every (0 for never) and the step budget max_steps.

    project_every has no effect for free and uniform fields: their
    closed-form flow keeps the constraint residuals at round-off by
    construction.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    project_every: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.project_every < 0:
            raise ValueError("project_every must be >= 0")


# Residual bound of every spin-surface projection in integrate
_PROJECTION_TOL = 1e-13


@dataclass(frozen=True)
class Trajectory:
    """The solution at the requested sample times, with per-sample derived
    diagnostics; states holds flat 14-vectors."""

    times: Array
    states: Array
    spin: Array
    h_phys: Array
    residuals: Array
    lambda1: Array

    def __len__(self) -> int:
        return len(self.times)


def _field_rows(fields: FieldConfig, xs) -> Tuple[Array, ...]:
    """(B, A, grad_A, grad_B) from the field kernel at each row of xs, each
    stacked over the rows."""
    rows = [fields.kernel(*x) for x in xs.tolist()]
    return tuple(np.array(data, dtype=float) for data in zip(*rows))


def _error_norm(err, y0, y1, rel_tol, abs_tol):
    """RMS of the float sequence err scaled by abs_tol + rel_tol *
    max(|y0|, |y1|), summed exactly with math.fsum."""
    q = [e / (abs_tol + rel_tol * max(abs(a), abs(b)))
         for e, a, b in zip(err, y0, y1)]
    return math.sqrt(math.fsum([v * v for v in q]) / len(q))


_SPIN = slice(OMEGA.start, PI.stop)
# sin^2 of the angle below which omega and pi count as parallel: the square
# of lstsq's default relative cutoff for a 3 x 6 Jacobian, 6 eps
_PARALLEL_SIN_SQ = (6.0 * float(np.finfo(float).eps)) ** 2


def _project_spin(y, a_sq: float, b_sq: float, tol: float,
                  max_iter: int = 25) -> list:
    """Newton projection of the spin block y[6:12] of the float list y (the
    flat state, or the physical sector alone) onto omega^2 = a_sq, pi^2 =
    b_sq, omega.pi = 0; returns a new list.

    The same minimum-norm iteration as constraints.project, on Python
    floats.  The Jacobian rows are (2 omega, 0), (0, 2 pi), (pi, omega), so
    J J^T = [[4W, 0, 2D], [0, 4Q, 2D], [2D, 2D, W + Q]] with W = omega^2,
    Q = pi^2, D = omega.pi; it is solved by cofactors and the step is
    J^T c: (2 omega c1 + pi c3, 2 pi c2 + omega c3).  The determinant is
    16 (W + Q) |omega x pi|^2, so J loses rank exactly where omega and pi
    are parallel or one of them vanishes; there, as where lstsq's default
    cutoff drops a singular value, ProjectionError is raised.
    """
    out = list(y)
    w1, w2, w3, q1, q2, q3 = out[_SPIN]
    W = w1 * w1 + w2 * w2 + w3 * w3
    Q = q1 * q1 + q2 * q2 + q3 * q3
    D = w1 * q1 + w2 * q2 + w3 * q3
    r1, r2, r3 = W - a_sq, Q - b_sq, D
    if (abs(r1) > 0.1 * max(1.0, a_sq) or abs(r2) > 0.1 * max(1.0, b_sq)
            or abs(r3) > 0.1):
        warnings.warn(
            f"project: starting point is far from the surface "
            f"(residuals {np.array([r1, r2, r3])})", OffSurfaceWarning, stacklevel=3)

    for iteration in range(max_iter):
        if abs(r1) < tol and abs(r2) < tol and abs(r3) < tol:
            break
        s1, s2, s3 = w2 * q3 - w3 * q2, w3 * q1 - w1 * q3, w1 * q2 - w2 * q1
        cross_sq = s1 * s1 + s2 * s2 + s3 * s3
        det = 16.0 * (W + Q) * cross_sq
        if not (cross_sq > _PARALLEL_SIN_SQ * W * Q and 0.0 < det < math.inf):
            raise ProjectionError(np.array([r1, r2, r3]), iteration)
        c11 = 4.0 * Q * (W + Q) - 4.0 * D * D
        c22 = 4.0 * W * (W + Q) - 4.0 * D * D
        c33 = 16.0 * W * Q
        c12 = 4.0 * D * D
        c13 = -8.0 * Q * D
        c23 = -8.0 * W * D
        k1 = (c11 * r1 + c12 * r2 + c13 * r3) / det
        k2 = (c12 * r1 + c22 * r2 + c23 * r3) / det
        k3 = (c13 * r1 + c23 * r2 + c33 * r3) / det
        step = (2.0 * w1 * k1 + q1 * k3, 2.0 * w2 * k1 + q2 * k3,
                2.0 * w3 * k1 + q3 * k3, 2.0 * q1 * k2 + w1 * k3,
                2.0 * q2 * k2 + w2 * k3, 2.0 * q3 * k2 + w3 * k3)
        if not all(map(math.isfinite, step)):
            raise ProjectionError(np.array([r1, r2, r3]), iteration)
        w1, w2, w3, q1, q2, q3 = (w1 - step[0], w2 - step[1], w3 - step[2],
                                  q1 - step[3], q2 - step[4], q3 - step[5])
        W = w1 * w1 + w2 * w2 + w3 * w3
        Q = q1 * q1 + q2 * q2 + q3 * q3
        D = w1 * q1 + w2 * q2 + w3 * q3
        r1, r2, r3 = W - a_sq, Q - b_sq, D
    if not (abs(r1) < tol and abs(r2) < tol and abs(r3) < tol):
        raise ProjectionError(np.array([r1, r2, r3]), max_iter)
    out[_SPIN] = w1, w2, w3, q1, q2, q3
    return out


def _initial_step(y0, f0, rel_tol, abs_tol, span) -> float:
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = np.linalg.norm(y0 / scale)
    d1 = np.linalg.norm(f0 / scale)
    h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return float(min(h, 0.1 * span))


def _require_finite(values, what: str, t: float,
                    labels=CANONICAL_PARTICLE.labels) -> None:
    """Raise IntegrationError naming the first non-finite entry of values."""
    for label, value in zip(labels, values):
        if not math.isfinite(value):
            raise IntegrationError(
                f"{what} is not finite at t = {t!r}: {label} = {value!r}")


def _dp5(rhs, y, f, times, opts: IntegrationOptions,
         sector: Callable[[float], str], labels=CANONICAL_PARTICLE.labels,
         project: Optional[Callable[[list], list]] = None) -> Array:
    """Step y' = rhs(y, t) from (times[0], y), with f = rhs(y, times[0]), and
    return the states at the sample times, one row each.

    y, f and every stage are lists of Python floats, and the tableau is
    written out as float constants.  Steps land on every sample time.  With
    project_every = k > 0 and a project callable, the state is projected
    after every k-th accepted step and its derivative taken again.  A step
    size underflow after a non-finite trial names its first non-finite
    entry of labels; any other, and an exhausted step budget, name t and
    sector(t), which describes the stepped sector.
    """
    grid = times.tolist()
    t = grid[0]
    h = _initial_step(y, f, opts.rel_tol, opts.abs_tol, grid[-1] - t)
    rows = [y]
    y_new = y
    i = 1  # the next sample to land on
    accepted = 0
    attempts = 0
    while i < len(grid):
        if attempts > opts.max_steps:
            raise IntegrationError(
                f"step budget {opts.max_steps} exhausted at t = {t:.6g} ({sector(t)})")
        gap = grid[i] - t
        lands = gap <= h * (1 + 1e-12)
        h_try = gap if lands else h
        if h_try < 1e-14 * max(1.0, abs(t)):
            _require_finite(y_new, "step size underflow: the last trial state",
                            t, labels)
            raise IntegrationError(
                f"step size underflow at t = {t:.6g} ({sector(t)})")

        attempts += 1
        k1 = f
        k2 = rhs([a + h_try * (1 / 5 * b1) for a, b1 in zip(y, k1)],
                 t + 1 / 5 * h_try)
        k3 = rhs([a + h_try * (3 / 40 * b1 + 9 / 40 * b2)
                  for a, b1, b2 in zip(y, k1, k2)], t + 3 / 10 * h_try)
        k4 = rhs([a + h_try * (44 / 45 * b1 - 56 / 15 * b2 + 32 / 9 * b3)
                  for a, b1, b2, b3 in zip(y, k1, k2, k3)], t + 4 / 5 * h_try)
        k5 = rhs([a + h_try * (19372 / 6561 * b1 - 25360 / 2187 * b2
                               + 64448 / 6561 * b3 - 212 / 729 * b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)],
                 t + 8 / 9 * h_try)
        k6 = rhs([a + h_try * (9017 / 3168 * b1 - 355 / 33 * b2
                               + 46732 / 5247 * b3 + 49 / 176 * b4
                               - 5103 / 18656 * b5)
                  for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)],
                 t + h_try)
        # the fifth-order solution, which is also the last stage's point
        y_new = [a + h_try * (35 / 384 * b1 + 500 / 1113 * b3 + 125 / 192 * b4
                              - 2187 / 6784 * b5 + 11 / 84 * b6)
                 for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = rhs(y_new, t + h_try)
        # the fifth- minus the embedded fourth-order solution
        err = [h_try * (71 / 57600 * b1 - 71 / 16695 * b3 + 71 / 1920 * b4
                        - 17253 / 339200 * b5 + 22 / 525 * b6 - 1 / 40 * b7)
               for b1, b3, b4, b5, b6, b7 in zip(k1, k3, k4, k5, k6, k7)]
        norm = _error_norm(err, y, y_new, opts.rel_tol, opts.abs_tol)

        if norm <= 1.0:
            accepted += 1
            t = grid[i] if lands else t + h_try
            y, f = y_new, k7
            if project and opts.project_every and accepted % opts.project_every == 0:
                y = project(y)
                f = rhs(y, t)
            if lands:
                rows.append(y)
                i += 1
            factor = 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))
            h = h_try * factor
        else:
            h = h_try * min(1.0, max(0.2, 0.9 * norm ** -0.2))
    return np.array(rows)


def _rotate(axis, angle, u) -> Array:
    """The 3-vector u rotated about the unit 3-vector axis by each entry of
    angle, one row per angle (Rodrigues, with 1 - cos written as 2 sin^2 of
    the half angle)."""
    angle = angle[:, None]
    return (np.cos(angle) * u + np.sin(angle) * np.cross(axis, u)
            + 2.0 * np.sin(0.5 * angle) ** 2 * ((u @ axis) * axis))


def _exact_physical(u, times, params: ModelParams, fields: FieldConfig) -> Array:
    """The physical sector (x, p, omega~, pi~) at the sample times in a free
    or uniform field, from the closed-form flow; u is the start, 12 floats.

    The gradient force vanishes, so (omega~, pi~) precess about B by
    R_B(-kappa |B| tau) with tau = t - t0 and kappa = mu e/(m c), the
    velocity turns about B by -(e |B|/m c) tau, x is the matching helix (a
    line where e |B| = 0) and p = m v + (e/c) A(x).
    """
    u = np.array(u)
    tau = times - times[0]
    e_over_c = params.e / params.c
    B = fields.B(u[X])
    b_norm = float(np.linalg.norm(B))
    v0 = (u[P] - e_over_c * fields.A(u[X])) / params.m
    w, q, v = u[OMEGA], u[PI], v0
    x = u[X] + np.outer(tau, v0)
    if b_norm > 0.0:
        axis = B / b_norm
        precession = -params.moment_coupling * b_norm * tau
        w, q = _rotate(axis, precession, w), _rotate(axis, precession, q)
        cyclotron = e_over_c * b_norm / params.m
        if cyclotron != 0.0:
            turn = cyclotron * tau[:, None]
            along = (v0 @ axis) * axis
            across = np.cross(axis, v0)
            v = along + np.cos(turn) * (v0 - along) - np.sin(turn) * across
            x = (u[X] + np.outer(tau, along)
                 + (np.sin(turn) * (v0 - along)
                    - 2.0 * np.sin(0.5 * turn) ** 2 * across) / cyclotron)

    out = np.empty((times.size, u.size))
    out[:, X] = x
    out[:, P] = params.m * v + e_over_c * _field_rows(fields, x)[1]
    out[:, OMEGA] = w
    out[:, PI] = q
    return out


def _gauge_sector(r: float, times, gauge: GaugeFunction,
                  opts: IntegrationOptions) -> Tuple[Array, Array]:
    """The fiber angle theta, one single-entry row per sample, and phi at
    the sample times.  phi is gauge(t) itself; theta solves theta' = 2 r /
    gauge(t) with theta(t0) = 0, in closed form, 2 r (t - t0) / phi0, under
    a constant gauge, and stepped as a single float under any other."""
    phi = np.array([gauge(t) for t in times.tolist()])
    if gauge.phi_dot is GaugeFunction.zero_rate:
        return (2.0 * r * (times - times[0]) / phi[0])[:, None], phi

    def rhs(theta, t):
        value = gauge(t)
        if abs(value) < 1e-9:
            raise GaugeError(f"equations of motion are singular at phi = {value!r}")
        return [2.0 * r / value]

    name = f"gauge {gauge.label!r}" if gauge.label else "gauge"
    theta = _dp5(rhs, [0.0], rhs([0.0], times[0].item()), times, opts,
                 lambda t: f"{name} = {gauge(t):.6g} there", ("theta",))
    return theta, phi


def _trajectory(times, states, params: ModelParams,
                fields: FieldConfig) -> Trajectory:
    """The trajectory of the sampled states with its derived diagnostics."""
    spin = np.cross(states[:, OMEGA], states[:, PI])
    B, A, _, _ = _field_rows(fields, states[:, X])
    kinetic = states[:, P] - (params.e / params.c) * A
    h_phys = (np.einsum("ij,ij->i", kinetic, kinetic) / (2.0 * params.m)
              - params.moment_coupling * np.einsum("ij,ij->i", B, spin))
    residuals = np.column_stack([
        np.einsum("ij,ij->i", states[:, OMEGA], states[:, OMEGA]) - params.a ** 2,
        np.einsum("ij,ij->i", states[:, PI], states[:, PI]) - params.b ** 2,
        np.einsum("ij,ij->i", states[:, OMEGA], states[:, PI]),
    ])
    lambda1 = _multiplier(states[:, OMEGA].T, states[:, PI].T, states[:, PHI])
    return Trajectory(times=times, states=states, spin=spin, h_phys=h_phys,
                      residuals=residuals, lambda1=lambda1)


# Field kinds whose flow integrate takes in closed form
_EXACT_KINDS = ("free", "uniform")


def integrate(z0, times, params: ModelParams, fields: FieldConfig,
              gauge: GaugeFunction,
              opts: Optional[IntegrationOptions] = None) -> Trajectory:
    """Integrate the equations of motion over the sample grid times.

    times is a strictly increasing 1-d array of at least two times; the
    span is (times[0], times[-1]), and the trajectory holds the state at
    exactly these times, with phi = gauge(t).  A starting point with visible
    spin-surface residuals is projected first (with a warning).

    The fiber rotation of (omega, pi) is factored out of the flow: the
    physical sector (x, p, omega~, pi~) never sees phi, and the state is
    its composition with the fiber angle theta of the gauge sector,
    omega = cos theta omega~ + r sin theta pi~, pi = cos theta pi~ -
    (sin theta / r) omega~ with r = |omega| / |pi| at the start.  A field
    of kind free or uniform has the physical sector in closed form, and a
    constant gauge has theta; the rest is stepped by the same
    Dormand-Prince stepper, whose steps land on every sample time: the 12
    floats of the physical sector, and theta alone, from theta' = 2 r /
    gauge(t).  With project_every = k > 0 a stepped physical sector is
    projected back onto the surface after every k-th accepted step.
    """
    opts = opts or IntegrationOptions()
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must be a 1-d array of at least two times")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise ValueError("times must be finite and strictly increasing")
    t0, t1 = times[0].item(), times[-1].item()
    gauge.validate(t0, t1)

    surface = params.surface()
    a_sq, b_sq = surface.targets[:2].tolist()
    z = np.array(as_flat(z0), dtype=float)
    z[PHI] = gauge(t0)
    y = z.tolist()
    _require_finite(y, "start state", t0)
    res0 = con.evaluate(surface, z)
    if np.max(np.abs(res0)) > 1e-9 * max(1.0, params.a ** 2, params.b ** 2):
        warnings.warn(
            f"integrate: initial point is off the spin surface (residuals {res0}); "
            "projecting before integration", OffSurfaceWarning, stacklevel=2)
        y = _project_spin(y, a_sq, b_sq, _PROJECTION_TOL)

    f = eom(y, t0, params, fields, gauge).tolist()
    _require_finite(f, "derivative of the start state", t0)
    # at t0 the fiber angle is zero, so the physical sector starts at y[:12]
    u = y[:PHI]
    if fields.kind in _EXACT_KINDS:
        physical = _exact_physical(u, times, params, fields)
    else:
        physical_rhs = _physical_kernel(params, fields)
        physical = _dp5(physical_rhs, u, physical_rhs(u, t0), times, opts,
                        lambda t: f"field {fields.kind!r}",
                        project=lambda v: _project_spin(v, a_sq, b_sq,
                                                        _PROJECTION_TOL))
    w0, q0 = np.array(y[OMEGA]), np.array(y[PI])
    if opts.project_every and fields.kind not in _EXACT_KINDS:
        # the projected omega~, pi~ lie on the surface, where r = a / b
        r = math.sqrt(a_sq / b_sq)
    else:
        r = math.sqrt((w0 @ w0) / (q0 @ q0))
    theta, phi = _gauge_sector(r, times, gauge, opts)

    cos_t, sin_t = np.cos(theta), np.sin(theta)
    w, q = physical[:, OMEGA], physical[:, PI]
    states = np.empty((times.size, DIM))
    states[:, :PHI] = physical
    states[:, OMEGA] = cos_t * w + (r * sin_t) * q
    states[:, PI] = cos_t * q - (sin_t / r) * w
    states[:, PHI] = phi
    states[:, PI_PHI] = y[PI_PHI]
    states[0] = y
    return _trajectory(times, states, params, fields)


# ---------------------------------------------------------------------------
# Derived checks on trajectories
# ---------------------------------------------------------------------------

def second_order_residual(traj: Trajectory, params: ModelParams,
                          fields: FieldConfig) -> Array:
    """Per-sample norm of m x'' - (e/c) x' x B - (mu e/m c) (grad B) S.

    The acceleration is assembled from the right-hand sides, not from finite
    differences of samples, so a nonzero residual flags inconsistent field
    data rather than integration error.
    """
    e_over_c = params.e / params.c
    B, A, dA, dB = _field_rows(fields, traj.states[:, X])
    v = (traj.states[:, P] - e_over_c * A) / params.m
    torque = params.moment_coupling * np.einsum("nij,nj->ni", dB, traj.spin)
    p_dot = e_over_c * np.einsum("nij,nj->ni", dA, v) + torque
    acc = (p_dot - e_over_c * np.einsum("nji,nj->ni", dA, v)) / params.m
    residual = params.m * acc - e_over_c * np.cross(v, B) - torque
    return np.linalg.norm(residual, axis=1)


@dataclass(frozen=True)
class FrequencyFit:
    """Least-squares fit of a scalar signal to C cos(omega t + delta) + const."""

    omega: float
    amplitude: float
    phase: float
    rms_residual: float


# (3 - sqrt 5) / 2: the golden-section fraction of a bracket
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_section(fn, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of fn on [lo, hi] by golden-section search with parabolic
    steps (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5), narrowed until the bracket is at most xatol wide.

    x is the best point so far, w the second best and v the previous w.  A
    parabola through them proposes the next point; it is taken when it lies
    inside the bracket and moves less than half the step before last, and a
    golden-section step into the larger part is taken otherwise.  No point
    is taken within tol = xatol / 4 of x, and the search stops when the
    bracket around x is at most 4 tol wide.
    """
    tol = xatol / 4.0
    x = w = v = lo + _GOLDEN * (hi - lo)
    fx = fw = fv = fn(x)
    d = e = 0.0
    while abs(x - 0.5 * (lo + hi)) > 2.0 * tol - 0.5 * (hi - lo):
        p = q = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
            e, d = d, p / q
            if min(x + d - lo, hi - x - d) < 2.0 * tol:
                d = tol if x < 0.5 * (lo + hi) else -tol
        else:
            e = (hi if x < 0.5 * (lo + hi) else lo) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fn(u)
        if fu <= fx:
            lo, hi = (lo, x) if u < x else (x, hi)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def fit_rotation_frequency(times, values) -> FrequencyFit:
    """Fit a uniformly sampled oscillation and return its angular frequency.

    A discrete-spectrum peak seeds a variable-projection refinement, so the
    result does not depend on any externally supplied frequency estimate.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 8:
        raise ValueError("need matching 1-d arrays with at least 8 samples")
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-30):
        raise ValueError("fit requires uniformly spaced samples")

    centered = values - np.mean(values)
    spectrum = np.abs(np.fft.rfft(centered))
    if spectrum.size < 3:
        raise ValueError("signal too short for a spectral seed")
    peak = 1 + int(np.argmax(spectrum[1:]))
    span = times[-1] - times[0]
    seed = 2.0 * np.pi * peak / (span + dt[0])
    bin_width = 2.0 * np.pi / (span + dt[0])

    def projected_residual(omega):
        design = np.column_stack([
            np.cos(omega * times), np.sin(omega * times), np.ones_like(times)])
        _, sse, *_ = np.linalg.lstsq(design, values, rcond=None)
        if sse.size:
            return float(sse[0])
        fitted = design @ np.linalg.lstsq(design, values, rcond=None)[0]
        return float(np.sum((values - fitted) ** 2))

    lo = max(seed - 1.5 * bin_width, 0.25 * bin_width)
    hi = seed + 1.5 * bin_width
    omega = _golden_section(projected_residual, lo, hi, 1e-13 * max(1.0, seed))
    design = np.column_stack([
        np.cos(omega * times), np.sin(omega * times), np.ones_like(times)])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    amplitude = float(np.hypot(coeffs[0], coeffs[1]))
    phase = float(np.arctan2(-coeffs[1], coeffs[0]))
    rms = float(np.sqrt(np.mean((design @ coeffs - values) ** 2)))
    return FrequencyFit(omega=omega, amplitude=amplitude, phase=phase,
                        rms_residual=rms)
