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
constant gauge theta is linear in t.  What is not closed form is stepped,
each sector by its own embedded Runge-Kutta pair.  The physical sector takes
the Dormand-Prince 8(5,3) pair, DOP853, at 1e-3 times the configured
tolerances, with steps of the controller's own size; the samples inside a
step are read from its order-7 dense output, and with projection the step
ends and the samples are projected onto the spin constraint surface by
Newton iteration.  theta takes Dormand-Prince 5(4), whose steps land on each
sample time.  The steppers, their right-hand sides (built once per
integrate) and the projection work on lists of Python floats.  theta' = 2
r / phi(t) does not read theta, so under a moving gauge the landing steps
are first taken as one array pass over the grid, kept up to the first gap
the stepper would step otherwise, and the stepper resumes there
(_gauge_sector).  The per-sample diagnostics call the
field kernel once, on the coordinates of all samples.
fit_rotation_frequency refines a spectral peak by golden-section search
with parabolic steps (Brent).
"""

from __future__ import annotations

import ast
import bisect
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import constraints as con
from .errors import (
    ConfigError,
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
    sequences of Python floats.  Given three 1-d float arrays, the
    coordinates of many points, it returns the same nesting with each
    component an array over the points, or one float where the component
    does not depend on x.  The right-hand side reads the kernel on floats,
    and the per-sample diagnostics read it once on arrays; the methods B, A,
    grad_A and grad_B return its entries at a point as float arrays.  kind
    names the family: integrate takes the closed-form flow for "free" and
    "uniform", so only a field uniform in x may carry those kinds.
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
        an array or (nested) list, wrapped into one kernel; on arrays of
        points the kernel calls them once per point."""
        fns = (B, A, grad_A, grad_B)

        def kernel(x1, x2, x3):
            if np.ndim(x1):
                points = np.column_stack((x1, x2, x3))
                # components first and points last, as in the nesting of floats
                return tuple(np.moveaxis(np.array([np.asarray(fn(x), dtype=float)
                                                   for x in points]), 0, -1)
                             for fn in fns)
            x = np.array([x1, x2, x3])
            return tuple(np.asarray(fn(x), dtype=float).tolist() for fn in fns)

        return cls("custom", kernel)

    def check_consistency(self, points, tol: float = 1e-6) -> float:
        """Largest |curl A - B| over the sample points; raises DomainError
        beyond tol or where it is nan."""
        B, _, dA, _ = _field_rows(self, np.asarray(points, dtype=float))
        curl = dA[:, (1, 2, 0), (2, 0, 1)] - dA[:, (2, 0, 1), (1, 2, 0)]
        worst = float(np.max(np.abs(curl - B), initial=0.0))
        if not worst <= tol:
            raise DomainError(
                f"vector potential is inconsistent with B: max |curl A - B| = {worst:.3e}")
        return worst


@dataclass(frozen=True)
class GaugeFunction:
    """The auxiliary gauge coordinate phi as a function of time.

    phi takes a float, or a 1-d float array of times, for which it returns
    the array of its values there (or one float, where phi does not depend
    on t); each entry must equal the value phi gives for that time alone,
    since integrate evaluates the gauge sector over the whole sample grid
    at once and takes that result only where it equals the stepper's.
    phi must stay away from zero on the integration span.  eom reads
    phi_dot, or a central difference where it is None, and so does
    integrate, once, to check the start derivative; otherwise integrate
    reads phi alone.  A phi_dot of zero_rate marks a constant gauge.
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
# Gauge expressions: t, numbers, + - * /, sin, cos, exp
# ---------------------------------------------------------------------------

_GAUGE_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_GAUGE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _entrywise(fn: Callable[[float], float]) -> Callable:
    """fn of one float, applied to each entry of a 1-d float array."""
    def apply(x):
        if isinstance(x, np.ndarray):
            return np.fromiter(map(fn, x.tolist()), float, x.size)
        return fn(x)

    return apply


# math's functions rather than numpy's: np.exp differs from math.exp in the
# last bit for a few percent of arguments, and numpy may take vectorised sin
# and cos that differ too, so only these keep an array call equal to the
# scalar calls it stands for
_GAUGE_ARRAY_FUNCS = {name: _entrywise(fn) for name, fn in _GAUGE_FUNCS.items()}


def _check_gauge_node(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _check_gauge_node(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _GAUGE_OPS):
        _check_gauge_node(node.left)
        _check_gauge_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check_gauge_node(node.operand)
    elif isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _GAUGE_FUNCS
                or node.keywords or len(node.args) != 1):
            raise ConfigError(
                "gauge expression may only call sin, cos, exp with one argument")
        _check_gauge_node(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id != "t":
            raise ConfigError(f"unknown name {node.id!r} in gauge expression")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ConfigError("gauge expression constants must be numbers")
    else:
        raise ConfigError(
            f"unsupported syntax in gauge expression: {type(node).__name__}")


def parse_gauge_expression(expression: str, label: str = "") -> GaugeFunction:
    """Compile a gauge expression over t from the fixed small grammar; a
    value that overflows, divides by zero, takes sin or cos of an infinity
    or is not finite raises GaugeError naming the expression and t.  An
    expression without t is a constant gauge, with phi_dot =
    GaugeFunction.zero_rate; any other has no phi_dot, so its derivative is
    a central difference.

    Over an array of times the arithmetic runs in numpy, with floating-point
    errors raised, and sin, cos and exp are math's, entry by entry, so each
    value equals the scalar call's.  Where any entry fails (an overflow, a
    division by zero, a value that is not finite), each time is evaluated
    alone instead, which raises the scalar call's error at the first time
    that fails."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"gauge expression does not parse: {exc.msg}") from None
    _check_gauge_node(tree)
    # t is the only name in a checked tree besides the called functions
    moves = any(isinstance(node, ast.Name) and node.id == "t"
                for node in ast.walk(tree))
    what = f"gauge expression {expression!r}"
    source = ast.parse("lambda t: 0", mode="eval")
    source.body.body = tree.body
    code = compile(ast.fix_missing_locations(source), "<gauge>", "eval")
    fn = eval(code, {"__builtins__": {}, **_GAUGE_FUNCS})
    fn_array = eval(code, {"__builtins__": {}, **_GAUGE_ARRAY_FUNCS})

    def value_at(t: float) -> float:
        t = float(t)
        # math.sin and math.cos raise ValueError for an infinite argument
        try:
            value = float(fn(t))
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise GaugeError(
                f"{what} cannot be evaluated at t = {t!r}: {exc}") from None
        if not math.isfinite(value):
            raise GaugeError(f"{what} is {value!r} at t = {t!r}")
        return value

    def phi(t):
        if not np.ndim(t):
            return value_at(t)
        ts = np.asarray(t, dtype=float)
        try:
            with np.errstate(all="raise", under="ignore"):
                values = np.array(np.broadcast_to(fn_array(ts), ts.shape),
                                  dtype=float)
            if np.isfinite(values).all():
                return values
        except (ArithmeticError, ValueError):
            pass
        return np.array([value_at(v) for v in ts.tolist()])

    return GaugeFunction(phi=phi, phi_dot=None if moves else GaugeFunction.zero_rate,
                         label=label or expression)


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
# Embedded Dormand-Prince integration with constraint projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationOptions:
    """Step control of integrate: the error tolerances, the projection
    period project_every (0 for never) and the step budget max_steps of
    each stepped sector.

    rel_tol and abs_tol hold as given for theta; the stepped physical
    sector runs at _PHYSICAL_TOL_SCALE (1e-3) times each, since its samples
    come from a dense output whose error follows the tolerance.  With
    project_every = k > 0 the physical sector's state is projected after
    every k-th accepted step, and every sample too.  project_every has no
    effect for free and uniform fields: their closed-form flow keeps the
    constraint residuals at round-off by construction.
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
    stacked over the rows: one kernel call on the three coordinate columns,
    with every component that does not depend on x repeated on each row."""
    n = len(xs)

    def stack(entry):
        if isinstance(entry, (tuple, list)) or np.ndim(entry) > 1:
            return np.stack([stack(e) for e in entry], axis=1)
        return np.broadcast_to(np.asarray(entry, dtype=float), (n,))

    return tuple(stack(entry) for entry in fields.kernel(*xs.T))


def _error_norm(err, y0, y1, rel_tol, abs_tol):
    """RMS of the float sequence err scaled by abs_tol + rel_tol *
    max(|y0|, |y1|), summed exactly with math.fsum."""
    # b if b > a else a is max(a, b), nan included, without the call
    q = [e / (abs_tol + rel_tol * (b if b > a else a))
         for e, a, b in zip(err, map(abs, y0), map(abs, y1))]
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


def _project_rows(rows: Array, a_sq: float, b_sq: float,
                  tol: float = _PROJECTION_TOL) -> Array:
    """The array rows of physical-sector states with each row projected by
    _project_spin, in place.  The residuals of all rows are taken at once,
    with _project_spin's float operations, and a row whose three residuals
    are all below tol, which _project_spin would return as it is, is not
    passed to it."""
    w, q = rows[:, OMEGA], rows[:, PI]
    r1 = w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] + w[:, 2] * w[:, 2] - a_sq
    r2 = q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] - b_sq
    r3 = w[:, 0] * q[:, 0] + w[:, 1] * q[:, 1] + w[:, 2] * q[:, 2]
    kept = (np.abs(r1) < tol) & (np.abs(r2) < tol) & (np.abs(r3) < tol)
    for j in np.flatnonzero(~kept).tolist():
        rows[j] = _project_spin(rows[j].tolist(), a_sq, b_sq, tol)
    return rows


def _initial_step(y0, f0, rel_tol, abs_tol, span) -> float:
    """A first trial step: 0.01 |y0| / |f0|, both scaled by the tolerances,
    or 1e-6 where either is tiny, and at most a tenth of the span.  A
    component whose scaled y0 or f0 is not finite, as where y0 is 0 under a
    purely relative tolerance, is left out of both norms.  Scaled norms
    that overflow give inf or nan, and so a step that no underflow guard
    passes, without a numpy warning."""
    with np.errstate(all="ignore"):
        scale = abs_tol + rel_tol * np.abs(y0)
        y_scaled, f_scaled = y0 / scale, f0 / scale
        kept = np.isfinite(y_scaled) & np.isfinite(f_scaled)
        d0 = np.linalg.norm(y_scaled[kept])
        d1 = np.linalg.norm(f_scaled[kept])
        h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(float(h), 0.1 * span)


def _require_finite(values, what: str, t: float,
                    labels=CANONICAL_PARTICLE.labels) -> None:
    """Raise IntegrationError naming the first non-finite entry of values."""
    for label, value in zip(labels, values):
        if not math.isfinite(value):
            raise IntegrationError(
                f"{what} is not finite at t = {t!r}: {label} = {value!r}")


def _min_step(t: float) -> float:
    """The shortest step either stepper tries at t; a shorter one, or a nan
    or infinite one, is a step size underflow."""
    return 1e-14 * max(1.0, abs(t))


def _growth(norm: float) -> float:
    """The factor on the step size after a step accepted with error norm
    norm <= 1."""
    return 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.2))


def _dp5(rhs, y, f, times, opts: IntegrationOptions,
         sector: Callable[[float], str], labels,
         h: Optional[float] = None, attempts: int = 0) -> Tuple[Array, tuple]:
    """Step y' = rhs(y, t) from (times[0], y), with f = rhs(y, times[0]), and
    return the states at the sample times, one row each, with the stepper's
    state after the last one, (f, h, attempts): the derivative there, the
    next step size to try and the attempts spent against max_steps.  Given
    h and attempts, a run resumes another that ended at times[0] with that
    state; h defaults to _initial_step's over the whole grid.  This is the
    gauge sector's stepper (_gauge_sector).

    y, f and every stage are lists of Python floats, and the tableau is
    written out as float constants.  Steps land on every sample time.  A
    step size underflow after a non-finite trial names its first
    non-finite entry of labels; any other, and an exhausted step budget,
    name t and sector(t), which describes the stepped sector.
    """
    grid = times.tolist()
    t = grid[0]
    if h is None:
        h = _initial_step(y, f, opts.rel_tol, opts.abs_tol, grid[-1] - t)
    rows = [y]
    y_new = y
    i = 1  # the next sample to land on
    while i < len(grid):
        if attempts > opts.max_steps:
            raise IntegrationError(
                f"step budget {opts.max_steps} exhausted at t = {t:.6g} ({sector(t)})")
        gap = grid[i] - t
        lands = gap <= h * (1 + 1e-12)
        h_try = gap if lands else h
        if not h_try >= _min_step(t):
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
            t = grid[i] if lands else t + h_try
            y, f = y_new, k7
            if lands:
                rows.append(y)
                i += 1
            h = h_try * _growth(norm)
        else:
            h = h_try * min(1.0, max(0.2, 0.9 * norm ** -0.2))
    return np.array(rows), (f, h, attempts)


# The Dormand-Prince 8(5,3) pair with its dense output of order 7, DOP853
# (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I, 2nd
# ed., §II.5-II.6, and the book's code dop853.f).  Stages 1-12 make a step;
# stage 13 is the derivative at the new state (the weights B are its row),
# and stages 14-16 serve the dense output only.  _DOP853_A holds one tuple
# per stage, the stage's row of A, and _DOP853_C the stage times as
# fractions of the step.
_DOP853_C = (
    0.0,
    0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
)
_DOP853_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
     0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_DOP853_B = _DOP853_A[12]
# The weights of the fifth-order error estimate, and of the embedded
# third-order solution, on stages 1-12
_DOP853_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
_DOP853_BHH = (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1,
)
_DOP853_E3 = tuple(b - bhh for b, bhh in zip(_DOP853_B, _DOP853_BHH))
# The interpolant's coefficients of order 4 to 7 on stages 1-16
_DOP853_D = (
    (-0.84289382761090128651353491142e1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e1,
     0.23846676565120698287728149680e1, 0.21170345824450282767155149946e1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e2, -0.91946323924783554000451984436e1,
     -0.44360363875948939664310572000e1),
    (0.10427508642579134603413151009e2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e3, 0.16520045171727028198505394887e3,
     -0.37454675472269020279518312152e3, -0.22113666853125306036270938578e2,
     0.77334326684722638389603898808e1, -0.30674084731089398182061213626e2,
     -0.93321305264302278729567221706e1, 0.15697238121770843886131091075e2,
     -0.31139403219565177677282850411e2, -0.93529243588444783865713862664e1,
     0.35816841486394083752465898540e2),
    (0.19985053242002433820987653617e2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e3, -0.18917813819516756882830838328e3,
     0.52780815920542364900561016686e3, -0.11573902539959630126141871134e2,
     0.68812326946963000169666922661e1, -0.10006050966910838403183860980e1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e1,
     -0.60196695231264120758267380846e2, 0.84320405506677161018159903784e2,
     0.11992291136182789328035130030e2),
    (-0.25693933462703749003312586129e2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e3, -0.23152937917604549567536039109e3,
     0.35763911791061412378285349910e3, 0.93405324183624310003907691704e2,
     -0.37458323136451633156875139351e2, 0.10409964950896230045147246184e3,
     0.29840293426660503123344363579e2, -0.43533456590011143754432175058e2,
     0.96324553959188282948394950600e2, -0.39177261675615439165231486172e2,
     -0.14972683625798562581422125276e3),
)
# The physical sector's error tolerances relative to IntegrationOptions'.
# Its samples come from the dense output, whose error follows the
# tolerance, while the gauge sector's landing steps err far below theirs.
_PHYSICAL_TOL_SCALE = 1e-3


def _compiled_sum(weights, point: bool) -> Callable:
    """sum_j weights[j] ks[j] over the stage lists ks as one list
    comprehension on Python floats, where stepping spends most of its
    time: as f(ks), or, for a point, f(y, h, ks) = y + h sum_j weights[j]
    ks[j].  It is written out over the nonzero weights as W ks[0] + sum_j
    weights[j] (ks[j] - ks[0]), with W the sum of the weights (exact, then
    rounded once): the stages of a step differ by O(h), so DOP853's large
    weights, up to 527, round at the scale of those differences and not of
    the stages, which keeps the round-off that steps pile up near that of
    one addition.  Each weight is written by repr, so it is the tableau's
    float itself."""
    index = [0] + [j for j, w in enumerate(weights) if w and j]
    names = ", ".join(f"k{j}" for j in index)
    total = " + ".join([f"{math.fsum(weights)!r} * k0"]
                       + [f"{weights[j]!r} * (k{j} - k0)" for j in index[1:]])
    columns = ", ".join(f"ks[{j}]" for j in index)
    if point:
        source = (f"lambda y, h, ks: [v + h * ({total}) "
                  f"for v, {names} in zip(y, {columns})]")
    else:
        source = f"lambda ks: [{total} for ({names},) in zip({columns})]"
    return eval(source, {"zip": zip})


# The point of each stage s >= 2 as _DOP853_POINT[s](y, h, ks), and the
# sums of the fifth- and third-order error estimates over k1..k12
_DOP853_POINT = (None,) + tuple(_compiled_sum(row, True) for row in _DOP853_A[1:])
_DOP853_ERR5 = _compiled_sum(_DOP853_E5, False)
_DOP853_ERR3 = _compiled_sum(_DOP853_E3, False)
_DOP853_D_ARRAY = np.array(_DOP853_D)


def _dop853_stages(rhs, t: float, y, h: float, ks: list, stop: int) -> list:
    """ks, the first stages of a DOP853 step of size h from (t, y), with
    the stages up to stage stop appended: stages 1-12 make the step, whose
    new state is _DOP853_POINT[12](y, h, ks), stage 13 is the derivative
    there, which the caller appends, and stages 14-16 serve only the
    dense output."""
    for s in range(len(ks), stop):
        ks.append(rhs(_DOP853_POINT[s](y, h, ks), t + _DOP853_C[s] * h))
    return ks


def _dop853_dense(ts, step, t, h, y, y_new, k) -> Array:
    """The states at the times ts, one row each, from the order-7
    interpolants of the steps that hold them: sample i lies in step
    step[i], which goes from (t, y) to y_new over h with the 16 stages k,
    each of t, h, y, y_new and k stacked over the steps.

    With x = (ts - t) / h and x' = 1 - x the interpolant is y + x (F0 +
    x' (F1 + x (F2 + x' (F3 + x (F4 + x' (F5 + x F6)))))), with F0 = y_new
    - y, F1 = h k1 - F0, F2 = 2 F0 - h (k1 + k13) and F3..F6 the rows of
    _DOP853_D times h (k1..k16)."""
    hk = h[:, None, None] * k
    f0 = y_new - y
    f1, f2 = hk[:, 0] - f0, 2.0 * f0 - hk[:, 0] - hk[:, 12]
    f3, f4, f5, f6 = np.einsum("ds,nsj->dnj", _DOP853_D_ARRAY, hk)
    x = ((ts - t[step]) / h[step])[:, None]
    x1 = 1.0 - x
    return y[step] + x * (f0[step] + x1 * (f1[step] + x * (f2[step] + x1 * (
        f3[step] + x * (f4[step] + x1 * (f5[step] + x * f6[step]))))))


def _dop853_error_norm(err5, err3, y0, y1, h, rel_tol, abs_tol) -> float:
    """DOP853's error norm of a step of size h from y0 to y1: with each
    entry of the fifth- and third-order estimates err5 and err3 (sums over
    the stages, without the factor h) scaled by abs_tol + rel_tol *
    max(|y0|, |y1|), and s5, s3 the sums of their squares, h s5 / sqrt(n
    (s5 + s3 / 100)), or 0 where both sums are 0."""
    s5 = s3 = 0.0
    for e5, e3, a, b in zip(err5, err3, map(abs, y0), map(abs, y1)):
        scale = abs_tol + rel_tol * (b if b > a else a)
        q5, q3 = e5 / scale, e3 / scale
        s5 += q5 * q5
        s3 += q3 * q3
    if s5 == 0.0 and s3 == 0.0:
        return 0.0
    return h * s5 / math.sqrt((s5 + 0.01 * s3) * len(y0))


def _dop853(rhs, y, f, times, opts: IntegrationOptions, sector: str,
            targets: Optional[Tuple[float, float]] = None) -> Array:
    """Step y' = rhs(y, t) from (times[0], y), with f = rhs(y, times[0]), by
    DOP853 and return the states at the sample times, one row each: the
    physical sector's stepper.

    The error is measured against the tolerances of opts times
    _PHYSICAL_TOL_SCALE.  Steps run at the controller's own size (factor
    0.9 norm^(-1/8), kept in [0.2, 10], and no growth right after a
    rejection), and the last one is clipped, or stretched by at most 1%,
    to end at times[-1].  The samples inside an accepted step are read
    off its order-7 dense output, which takes three stages more; the
    interpolants of all steps are evaluated after the last one, in one
    array expression.  A sample at a step's end is the step's state.
    With project_every = k > 0 and the targets (a^2, b^2) of the spin
    surface, the state is projected after every k-th accepted step and its
    derivative taken again, and every sample row is projected too.  y, f
    and every stage are lists of Python floats.  A step size underflow
    after a non-finite trial names the first non-finite entry of the
    state; any other, and an exhausted step budget, name t and the sector.
    """
    grid = times.tolist()
    t, t_end = grid[0], grid[-1]
    h = _initial_step(y, f, opts.rel_tol * _PHYSICAL_TOL_SCALE,
                      opts.abs_tol * _PHYSICAL_TOL_SCALE, t_end - t)
    rows = np.empty((len(grid), len(y)))
    rows[0] = y
    # the samples inside steps, the steps that hold them as (t, h, y, y_new,
    # stages) and, for each of those samples, its step's entry there
    inside, held, owner = [], [], []
    y_new = y
    i = 1  # the next sample to record
    accepted = attempts = 0
    rejected = False
    while i < len(grid):
        if attempts > opts.max_steps:
            raise IntegrationError(
                f"step budget {opts.max_steps} exhausted at t = {t:.6g} ({sector})")
        # a step that would end within 1% of t_end ends there
        last = t_end - t <= 1.01 * h
        h_try = t_end - t if last else h
        if not h_try >= _min_step(t):
            _require_finite(y_new, "step size underflow: the last trial state", t)
            raise IntegrationError(f"step size underflow at t = {t:.6g} ({sector})")

        attempts += 1
        ks = _dop853_stages(rhs, t, y, h_try, [f], 12)
        y_new = _DOP853_POINT[12](y, h_try, ks)
        norm = _dop853_error_norm(_DOP853_ERR5(ks), _DOP853_ERR3(ks), y, y_new,
                                  h_try, opts.rel_tol,
                                  opts.abs_tol) / _PHYSICAL_TOL_SCALE
        factor = 0.9 * norm ** -0.125 if norm else 10.0
        if not norm <= 1.0:
            h = h_try * max(0.2, factor)
            rejected = True
            continue

        accepted += 1
        t_new = t_end if last else t + h_try
        f_new = rhs(y_new, t_new)
        stop = bisect.bisect_left(grid, t_new, i)
        if stop > i:
            ks.append(f_new)
            inside += range(i, stop)
            owner += [len(held)] * (stop - i)
            ks = _dop853_stages(rhs, t, y, h_try, ks, 16)
            held.append((t, h_try, y, y_new, ks))
        t, y, f = t_new, y_new, f_new
        if targets and accepted % opts.project_every == 0:
            y = _project_spin(y, *targets, _PROJECTION_TOL)
            f = rhs(y, t)
        if stop < len(grid) and grid[stop] == t:
            rows[stop] = (_project_spin(y, *targets, _PROJECTION_TOL) if targets
                          else y)
            stop += 1
        i = stop
        h = h_try * min(1.0 if rejected else 10.0, factor)
        rejected = False
    if held:
        block = _dop853_dense(times[inside], np.array(owner),
                              *map(np.array, zip(*held)))
        rows[inside] = _project_rows(block, *targets) if targets else block
    return rows


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


# The stage times of a Dormand-Prince step from t, as t + c h: the second to
# fifth stages; the sixth and the derivative at the new state share t + h
_DP_NODES = (1 / 5, 3 / 10, 4 / 5, 8 / 9)


def _gauge_sector(r: float, times, gauge: GaugeFunction,
                  opts: IntegrationOptions) -> Tuple[Array, Array]:
    """The fiber angle theta, one single-entry row per sample, and phi at
    the sample times.  phi is gauge(t) itself; theta solves theta' = 2 r /
    gauge(t) with theta(t0) = 0, in closed form, 2 r (t - t0) / phi0, under
    a constant gauge, and stepped as a single float under any other.

    theta' does not read theta, so a step that lands on the next sample
    reads the gauge only at times the grid fixes.  The stepper takes the
    first gap, which it enters with a short trial step; every later gap is
    then taken as that one landing step at once over the grid, from one
    call of the gauge on all stage times and with the stepper's float
    operations.  The result stands up to the first gap where the stepper
    would do otherwise: its error norm is above 1, it is longer than the
    step the controller proposes, a stage value of phi is singular, or the
    step budget is spent.  The stepper resumes there, from that sample's
    theta, derivative, proposed step and attempts, so a gauge that fails
    at once costs one array pass more than stepping alone.
    """
    def phi_at(ts):
        return np.broadcast_to(np.asarray(gauge.phi(ts), dtype=float), ts.shape)

    phi = phi_at(times)
    if gauge.phi_dot is GaugeFunction.zero_rate:
        return (2.0 * r * (times - times[0]) / phi[0])[:, None], phi

    def rhs(theta, t):
        value = gauge(t)
        if abs(value) < 1e-9:
            raise GaugeError(f"equations of motion are singular at phi = {value!r}")
        return [2.0 * r / value]

    name = f"gauge {gauge.label!r}" if gauge.label else "gauge"

    def step(theta, f, grid, h, attempts):
        rows, state = _dp5(rhs, [theta], f, grid, opts,
                           lambda t: f"{name} = {gauge(t):.6g} there", ("theta",),
                           h=h, attempts=attempts)
        return rows[:, 0].tolist(), state

    f = rhs([0.0], times[0].item())
    span = (times[-1] - times[0]).item()
    theta, (f, h, attempts) = step(0.0, f, times[:2], _initial_step(
        [0.0], f, opts.rel_tol, opts.abs_tol, span), 0)
    t, gap = times[1:-1], np.diff(times[1:])  # the second gap on
    try:
        values = phi_at(np.concatenate([t + c * gap for c in _DP_NODES]
                                       + [t + gap]))
    except GaugeError:
        # a failing stage time: the stepper finds the error in its own order
        values = np.zeros(5 * gap.size)
    values = values.reshape(5, gap.size)
    singular = (np.abs(values) < 1e-9).any(axis=0)
    # inf and nan follow IEEE here as in the stepper's Python floats, which
    # warn of nothing; a gap whose norm is nan is left to the stepper
    with np.errstate(all="ignore"):
        k2, k3, k4, k5, k7 = 2.0 * r / values
        k1 = np.concatenate((f, k7[:-1]))
        increment = gap * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                           - 2187 / 6784 * k5 + 11 / 84 * k7)
        err = gap * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                     - 17253 / 339200 * k5 + 22 / 525 * k7 - 1 / 40 * k7)
        landed = np.array(list(itertools.accumulate(increment.tolist(),
                                                    initial=theta[1])))
        # _error_norm of one entry: fsum and the mean over one square are
        # exact, and both square roots are correctly rounded
        q = err / (opts.abs_tol + opts.rel_tol * np.maximum(np.abs(landed[:-1]),
                                                            np.abs(landed[1:])))
        norm = np.sqrt(q * q)

    taken = 0
    for g, t_k, n, bad in zip(gap.tolist(), t.tolist(), norm.tolist(),
                              singular.tolist()):
        if (attempts > opts.max_steps or bad or not g <= h * (1 + 1e-12)
                or not g >= _min_step(t_k) or not n <= 1.0):
            break
        attempts += 1
        taken += 1
        h = g * _growth(n)
    theta += landed[1:taken + 1].tolist()
    if taken < gap.size:
        f = [k7[taken - 1].item()] if taken else f
        resumed, _ = step(theta[-1], f, times[1 + taken:], h, attempts)
        theta += resumed[1:]
    return np.array(theta)[:, None], phi


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
    constant gauge has theta.  The rest is stepped: the 12 floats of the
    physical sector by DOP853 at 1e-3 times opts' tolerances, with its
    samples read from the order-7 dense output of the step that holds
    them, and theta alone, from theta' = 2 r / gauge(t), by Dormand-Prince
    5(4) steps that land on every sample time.  With project_every = k > 0
    a stepped physical sector is projected back onto the surface after
    every k-th accepted step, and so is every sample of it.
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

    # at t0 the fiber angle is zero, so the physical sector starts at y[:12]
    u = y[:PHI]
    physical_rhs = _physical_kernel(params, fields)
    f = physical_rhs(u, t0)
    _require_finite(f + [gauge.derivative(t0)],
                    "derivative of the start state", t0)
    if fields.kind in _EXACT_KINDS:
        physical = _exact_physical(u, times, params, fields)
    else:
        physical = _dop853(physical_rhs, u, f, times, opts,
                           f"field {fields.kind!r}",
                           (a_sq, b_sq) if opts.project_every else None)
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
    # hypot scales as it sums, so values near the float limit cannot overflow
    rms = float(np.hypot.reduce(design @ coeffs - values)
                / np.sqrt(times.size))
    return FrequencyFit(omega=omega, amplitude=amplitude, phase=phase,
                        rms_residual=rms)
