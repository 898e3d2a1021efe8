"""The closed-form kernels pinned to their references: the multiplier to
the Poisson-engine solve, the right-hand side to the np.cross formulation,
the batched trajectory post-processing to the per-sample functions, the
field kernels to formulas written out here and to central differences, the
float-level spin projection to constraints.project, the Dormand-Prince
steps to their tableaus, the written-out 3-vector cross product to
np.cross, the gradient-once Dirac brackets to the same brackets built from
public Poisson-bracket calls, a block of Dirac brackets at one point to the
single brackets, the pair's closed-form condition number to the SVD, and
the samplers' vector norms to np.linalg.norm."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinbundle import cli, constraints, dynamics
from spinbundle.bundle_so3 import sample_surface_point
from spinbundle.constraints import (
    _OMEGA3,
    Constraint,
    ConstraintSet,
    _condition,
    _solve_delta,
    constraint_matrix,
    dirac_bracket,
    dirac_brackets,
    evaluate,
    omega_norm_sq,
    pauli_model_set,
    project,
    second_class_pair,
    t4_surface_set,
)
from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    _PROJECTION_TOL as PROJECTION_TOL,
    _multiplier,
    _project_spin,
    eom,
    integrate,
    physical_hamiltonian,
    second_order_residual,
    solve_multiplier,
)
from spinbundle.errors import (
    DegenerateConstraintError,
    DomainError,
    GradientError,
    OffSurfaceWarning,
    ProjectionError,
)
from spinbundle.lorentz import (
    sample_beta,
    sample_t3_rest_point,
    sample_t4_rest_point,
)
from spinbundle.phasespace import (
    OMEGA,
    P,
    PHI,
    PI,
    PI_PHI,
    X,
    Observable,
    _bilinear,
    coordinate,
    poisson_bracket,
    quadratic,
    spin_component,
)

from conftest import random_phase_state

ATOL = 1e-13
N_STATES = 200

PARAMS = ModelParams(m=1.1, e=-0.7, mu=1.3, a=0.8)
WOBBLE = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
                       phi_dot=lambda t: np.cos(2.0 * t))


def _list_field(B0=0.9, g=0.2):
    """B = (0, -g y, B0 + g z) with A = (-y (B0 + g z), 0, 0); every
    callable returns plain Python lists."""
    return FieldConfig.custom(
        B=lambda x: [0.0, -g * x[1], B0 + g * x[2]],
        A=lambda x: [-x[1] * (B0 + g * x[2]), 0.0, 0.0],
        grad_B=lambda x: [[0.0, 0.0, 0.0], [0.0, -g, 0.0], [0.0, 0.0, g]],
        grad_A=lambda x: [[0.0, 0.0, 0.0],
                          [-(B0 + g * x[2]), 0.0, 0.0],
                          [-g * x[1], 0.0, 0.0]],
    )


FIELDS = {
    "free": FieldConfig.free(),
    "uniform_tilted": FieldConfig.uniform((0.2, -0.5, 1.0)),
    "linear_gradient": FieldConfig.linear_gradient(B0=1.0, gradient=0.1),
    "custom_lists": _list_field(),
}


def reference_eom(z, t, params, fields, gauge):
    """The right-hand side with the engine-solved multiplier and np.cross."""
    lam1 = solve_multiplier(z, params, fields=fields, check_surface=False)
    x, w, q = z[X], z[OMEGA], z[PI]
    e_over_c = params.e / params.c
    coupling = params.moment_coupling
    B, dA, dB = fields.B(x), fields.grad_A(x), fields.grad_B(x)
    spin = np.cross(w, q)
    velocity = (z[P] - e_over_c * fields.A(x)) / params.m
    out = np.empty(14)
    out[X] = velocity
    out[P] = e_over_c * (dA @ velocity) + coupling * (dB @ spin)
    out[OMEGA] = lam1 * q + coupling * np.cross(w, B)
    out[PI] = -(2.0 / z[PHI]) * w + coupling * np.cross(q, B)
    out[PHI] = gauge.derivative(t)
    out[PI_PHI] = 0.0
    return out


def reference_second_order_residual(traj, params, fields):
    """Per-row norm of m x'' - (e/c) x' x B - (mu e/m c) (grad B) S."""
    e_over_c = params.e / params.c
    coupling = params.moment_coupling
    out = np.empty(len(traj))
    for i, state in enumerate(traj.states):
        x = state[X]
        v = (state[P] - e_over_c * fields.A(x)) / params.m
        spin = np.cross(state[OMEGA], state[PI])
        dA, dB = fields.grad_A(x), fields.grad_B(x)
        acc = (e_over_c * (dA @ v) + coupling * (dB @ spin)
               - e_over_c * (dA.T @ v)) / params.m
        residual = (params.m * acc
                    - e_over_c * np.cross(v, fields.B(x))
                    - coupling * (dB @ spin))
        out[i] = np.linalg.norm(residual)
    return out


def test_custom_list_field_is_consistent(rng):
    _list_field().check_consistency(rng.standard_normal((20, 3)), tol=1e-12)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_multiplier_matches_engine(kind, rng):
    fields = FIELDS[kind]
    worst = 0.0
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        want = solve_multiplier(z, PARAMS, fields=fields, check_surface=False)
        worst = max(worst, abs(_multiplier(z[OMEGA], z[PI], z[PHI]) - want))
    assert worst <= ATOL


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_eom_matches_reference(kind, rng):
    fields = FIELDS[kind]
    worst = 0.0
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        t = rng.uniform(0.0, 10.0)
        got = eom(z, t, PARAMS, fields, WOBBLE)
        worst = max(worst, float(np.max(np.abs(
            got - reference_eom(z, t, PARAMS, fields, WOBBLE)))))
    assert worst <= ATOL


def test_eom_rejects_vanishing_pi():
    z = random_phase_state(np.random.default_rng(3))
    z[PI] = 0.0
    with pytest.raises(DomainError):
        eom(z, 0.0, ModelParams(), FieldConfig.free(), WOBBLE)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_batched_postprocessing_matches_per_row(kind, rng):
    fields = FIELDS[kind]
    z0 = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    traj = integrate(z0, np.linspace(0.0, 2.0, 60), PARAMS, fields, WOBBLE)

    h_rows = [physical_hamiltonian(s, PARAMS, fields) for s in traj.states]
    lam_rows = [solve_multiplier(s, PARAMS, fields=fields, check_surface=False)
                for s in traj.states]
    assert np.max(np.abs(traj.h_phys - h_rows)) <= ATOL
    assert np.max(np.abs(traj.lambda1 - lam_rows)) <= ATOL
    assert np.max(np.abs(
        second_order_residual(traj, PARAMS, fields)
        - reference_second_order_residual(traj, PARAMS, fields))) <= ATOL


# B and A of each field in FIELDS, written out from its docstring
FIELD_FORMULAS = {
    "free": (lambda x: np.zeros(3), lambda x: np.zeros(3)),
    "uniform_tilted": (lambda x: np.array([0.2, -0.5, 1.0]),
                       lambda x: 0.5 * np.cross([0.2, -0.5, 1.0], x)),
    "linear_gradient": (
        lambda x: np.array([-0.1 * x[0], 0.0, 1.0 + 0.1 * x[2]]),
        lambda x: np.array([0.0, x[0] * (1.0 + 0.1 * x[2]), 0.0])),
    "custom_lists": (
        lambda x: np.array([0.0, -0.2 * x[1], 0.9 + 0.2 * x[2]]),
        lambda x: np.array([-x[1] * (0.9 + 0.2 * x[2]), 0.0, 0.0])),
}


def central_jacobian(f, x, h=1e-5):
    """G[i, j] = d_i f_j by central differences."""
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                     for e in np.eye(3)])


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_field_kernel_matches_its_formulas(kind, rng):
    fields = FIELDS[kind]
    B_of, A_of = FIELD_FORMULAS[kind]
    points = rng.standard_normal((50, 3)) * 3.0
    for x in points:
        B, A, dA, dB = fields.kernel(*x.tolist())
        entries = [*B, *A, *(v for row in (*dA, *dB) for v in row)]
        assert len(entries) == 24
        assert all(type(v) is float for v in entries)
        assert_allclose(B, B_of(x), rtol=0, atol=1e-14)
        assert_allclose(A, A_of(x), rtol=0, atol=1e-13)
        assert_allclose(dA, central_jacobian(A_of, x), rtol=0, atol=1e-8)
        assert_allclose(dB, central_jacobian(B_of, x), rtol=0, atol=1e-8)
        assert abs(np.trace(dB)) <= 1e-15
    fields.check_consistency(points, tol=1e-12)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_field_kernel_equals_public_callables(kind, rng):
    fields = FIELDS[kind]
    public = (fields.B, fields.A, fields.grad_A, fields.grad_B)
    for x in rng.standard_normal((20, 3)):
        for got, method in zip(fields.kernel(*x.tolist()), public):
            want = method(x)
            assert want.dtype == float
            assert np.array_equal(np.array(got), want)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_field_rows_equal_per_row_kernel_calls(kind, rng):
    """One kernel call on the coordinate columns gives each row exactly
    what the kernel gives that point alone, and the constant entries are
    repeated on every row."""
    fields = FIELDS[kind]
    points = rng.standard_normal((50, 3)) * 3.0
    rows = [fields.kernel(*x) for x in points.tolist()]
    for got, want in zip(dynamics._field_rows(fields, points), zip(*rows)):
        assert got.dtype == float
        assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_field_rows_of_no_points(kind):
    fields = FIELDS[kind]
    none = np.empty((0, 3))
    assert ([rows.shape for rows in dynamics._field_rows(fields, none)]
            == [(0, 3), (0, 3), (0, 3, 3), (0, 3, 3)])
    assert fields.check_consistency(none) == 0.0


# The Dormand-Prince 5(4) tableau (Dormand & Prince 1980; Hairer, Norsett &
# Wanner, Solving ODEs I, §II.5) as arrays: the stage times and the weights
# of the fifth-order solution and of its error estimate.
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
                 0.0])
DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                   22 / 525, -1 / 40])


def test_dp5_tableau_meets_the_quadrature_conditions():
    """For y' = f(t) the pair is a quadrature rule on the stage times: the
    weights B integrate c^q exactly for q <= 4 (order 5), and so do those of
    the embedded solution for q <= 3, whose difference DP_ERR is."""
    for q in range(5):
        assert abs(math.fsum(DP_B * DP_C ** q) - 1 / (q + 1)) <= 4e-16, q
    for q in range(4):
        assert abs(math.fsum(DP_ERR * DP_C ** q)) <= 4e-16, q


def test_dp5_step_is_the_tableau_products(rng):
    """The gauge sector's steps read phi at the stage times DP_C, and sum
    their increment and error estimate with the weights DP_B and DP_ERR,
    the sixth and seventh stages both at the step's end.  Each side sums
    at most 7 products and scales by h, so it lies within 8 eps of the
    exact value relative to h sum_j |w_j k_j|, and the two within 16 eps."""
    assert np.array_equal(dynamics._DP_NODES, DP_C[1:5])
    h = 10.0 ** rng.uniform(-6.0, 1.0, size=1000)
    k = rng.standard_normal((6, 1000)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                              size=(6, 1000))
    stages = np.vstack((k, k[-1:]))
    tol = 16 * np.finfo(float).eps
    for got, weights in zip(dynamics._dp5_step(h, k), (DP_B, DP_ERR)):
        bound = tol * h * (np.abs(weights) @ np.abs(stages))
        assert np.all(np.abs(got - h * (weights @ stages)) <= bound)


# DOP853's tableau as arrays: row s of DOP853_A holds stage s's weights
DOP853_C = np.array(dynamics._DOP853_C)
DOP853_A = np.zeros((16, 16))
for _s, _row in enumerate(dynamics._DOP853_A):
    DOP853_A[_s, :len(_row)] = _row
DOP853_E5 = np.array(dynamics._DOP853_E5)
DOP853_E3 = np.array(dynamics._DOP853_E3)


def test_dop853_tableau_meets_the_order_conditions():
    """Each row of A sums to its stage time, the weights B (the row of the
    thirteenth stage) sum to 1, and each error estimate's weights sum to 0,
    to the rounding of the typed constants."""
    for s in range(1, 16):
        scale = max(1.0, float(np.max(np.abs(DOP853_A[s]))))
        assert abs(math.fsum(DOP853_A[s]) - DOP853_C[s]) <= 4e-16 * scale, s
    assert dynamics._DOP853_B == dynamics._DOP853_A[12]
    assert abs(math.fsum(dynamics._DOP853_B) - 1.0) <= 4e-16 * 6.0
    assert abs(math.fsum(DOP853_E5)) <= 4e-16 * 2.0
    assert abs(math.fsum(DOP853_E3)) <= 4e-16 * 6.0


def test_dop853_stages_are_the_tableau_products(monkeypatch, rhs_calls, rng):
    """Every attempt's stage times, stage points, new state and error
    estimates equal the tableau products of its stages k1..k12, re-derived
    from the points the stepper passed to the right-hand side and the step
    size it passed to the error norm.  numpy's plain sum lies within (n +
    3) eps / 2 of the exact y + h sum_j a_j k_j, relative to |y| + h sum_j
    |a_j k_j|, for n <= 12 terms; the stepper sums W k1 + sum_j a_j (k_j -
    k1), whose differences are small within a step, and rounds no worse,
    so the two may differ by 16 eps of that."""
    params = ModelParams()
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.1)
    # a constant gauge: only the physical sector is stepped
    gauge = GaugeFunction.constant(1.3)
    attempts = []

    def spy_norm(err5, err3, y0, y1, h, rel_tol, abs_tol):
        attempts.append((np.array(err5), np.array(err3), np.array(y0),
                         np.array(y1), h, rhs_calls[-11:]))
        return dynamics_error_norm(err5, err3, y0, y1, h, rel_tol, abs_tol)

    dynamics_error_norm = dynamics._dop853_error_norm
    monkeypatch.setattr(dynamics, "_dop853_error_norm", spy_norm)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1000)
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    integrate(z0, np.linspace(0.0, 30.0, 30), params, fields, gauge,
              IntegrationOptions(rel_tol=1e-6, abs_tol=1e-8))
    assert len(attempts) > 30

    rhs = dynamics._physical_kernel(params, fields)
    tol = 16 * np.finfo(float).eps
    for err5, err3, y0, y1, h, stages in attempts:
        points = [y0] + [np.array(u) for u, _ in stages]
        times = np.array([t for _, t in stages])
        k = np.array([rhs(u.tolist(), 0.0) for u in points])
        assert_allclose(times - times[0], (DOP853_C[1:12] - DOP853_C[1]) * h,
                        rtol=0, atol=tol * np.max(np.abs(times)))
        for j in range(1, 13):
            want = y0 + h * (DOP853_A[j, :12] @ k)
            terms = np.abs(DOP853_A[j, :12]) @ np.abs(k)
            got = points[j] if j < 12 else y1
            assert np.all(np.abs(got - want) <= tol * (np.abs(y0) + h * terms)), j
        for err, weights in ((err5, DOP853_E5), (err3, DOP853_E3)):
            bound = tol * (np.abs(weights) @ np.abs(k))
            assert np.all(np.abs(err - weights @ k) <= bound)


def one_dop853_step(h):
    """One DOP853 step of size h from t = 0 on linear_gradient(1, 0.1),
    with its state at h / 2 from the dense output, and the same two states
    from a DOP853 run at rel_tol 1e-10, stepped at 1e-13 with the physical
    sector's scale, which errs far below either."""
    params = ModelParams()
    rhs = dynamics._physical_kernel(params,
                                    FieldConfig.linear_gradient(1.0, 0.1))
    y0 = [0.0, 0.0, 0.0, 0.3, 0.0, 0.0, params.a, 0.0, 0.0, 0.0, params.b, 0.0]
    f0 = rhs(y0, 0.0)
    ks = dynamics._dop853_stages(rhs, 0.0, y0, h, [f0], 12)
    y1 = dynamics._DOP853_POINT[12](y0, h, ks)
    ks = dynamics._dop853_stages(rhs, 0.0, y0, h, ks + [rhs(y1, h)], 16)
    (mid,) = dynamics._dop853_dense(np.array([0.5 * h]), np.array([0]),
                                    np.array([0.0]), np.array([h]),
                                    np.array([y0]), np.array([y1]),
                                    np.array([ks]))
    want = dynamics._dop853(rhs, y0, f0, np.array([0.0, 0.5 * h, h]),
                            IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12),
                            "reference")
    return (float(np.max(np.abs(np.array(y1) - want[2]))),
            float(np.max(np.abs(mid - want[1]))))


def test_dop853_local_and_dense_output_orders():
    """Halving h divides the error of one step by about 2^9 (order 8) and
    that of the interpolant at mid-step by about 2^8 (order 7)."""
    errors = [one_dop853_step(h) for h in (0.8, 0.4, 0.2)]
    for (step, mid), (half_step, half_mid) in zip(errors, errors[1:]):
        assert math.log2(step / half_step) >= 8.5, errors
        assert math.log2(mid / half_mid) >= 7.5, errors


def test_stern_gerlach_takes_few_physical_evaluations(rhs_calls):
    """The shipped stern_gerlach run evaluates the physical sector fewer
    than 4,000 times for its 2,000 samples; the landing DP5 stepper took
    12,013."""
    root = Path(__file__).resolve().parents[1]
    cli.run_stern_gerlach(cli.load_config(root / "configs" / "stern_gerlach.yaml"))
    assert 100 < len(rhs_calls) < 4000


# ---------------------------------------------------------------------------
# The float-level spin projection
# ---------------------------------------------------------------------------

SURFACE = PARAMS.surface()
A_SQ, B_SQ = SURFACE.targets[:2].tolist()


def residual(z):
    return float(np.max(np.abs(evaluate(SURFACE, z))))


# A near-surface state, one of two found among 100,000 seeded ones, where
# project takes one more Newton step than the kernel.
ONE_STEP_APART = np.array([float.fromhex(h) for h in (
    "0x1.43ef60b162063p-1", "0x1.38bc832d8ee41p+0", "-0x1.f3fb0d8978315p-1",
    "-0x1.40396d7f5e38ep-2", "0x1.3e26b1f9f4bdbp-7", "-0x1.aa15b65d1c1d9p-1",
    "-0x1.3537aba528493p-1", "-0x1.d61f99e180821p-2", "-0x1.04057b67878e1p-2",
    "0x1.2ca602ac6cdc4p-2", "-0x1.8baac04996ab8p-1", "0x1.65d750ceca436p-1",
    "0x1.1b75a17a2dc85p+0", "0x0.0p+0")])


def test_project_spin_matches_project_near_the_surface(rng):
    states = []
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        z[6:12] += 10.0 ** rng.uniform(-12, -6) * rng.standard_normal(6)
        states.append(z)
    borderline = 0
    for z in states + [ONE_STEP_APART]:
        got = np.asarray(_project_spin(z, A_SQ, B_SQ, PROJECTION_TOL))
        want = project(z, SURFACE, tol=PROJECTION_TOL)
        assert max(residual(got), residual(want)) < PROJECTION_TOL
        assert np.array_equal(np.delete(got, range(6, 12)),
                              np.delete(z, range(6, 12)))
        # The two residual sums round differently (np.dot may fuse them),
        # so where an iterate lands within rounding of tol one side can take
        # one more Newton step than the other: one more step on the side
        # that stopped first must then reach the other.
        if np.max(np.abs(got - want)) > 1e-15:
            borderline += 1
            late, other = sorted((got, want), key=residual, reverse=True)
            late = np.asarray(_project_spin(late, A_SQ, B_SQ,
                                            0.5 * residual(late), max_iter=1))
            assert np.max(np.abs(late - other)) <= 1e-15
    # about 1 seeded state in 50,000 is borderline
    assert borderline <= 2


def test_project_rows_equals_project_spin_row_by_row(rng):
    """The block projection of the dense-output samples gives, bit for bit,
    what _project_spin gives each row: rows on the surface to round-off,
    which it keeps, and rows off it by up to 1e-6, which it projects.  A
    row that is not finite is passed on, and raises as _project_spin does."""
    rows = np.array([random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)[:PHI]
                     for _ in range(N_STATES)])
    rows[:, 6:12] += (10.0 ** rng.uniform(-17, -6, size=(N_STATES, 1))
                      * rng.standard_normal((N_STATES, 6)))
    want = [_project_spin(row, A_SQ, B_SQ, PROJECTION_TOL)
            for row in rows.tolist()]
    kept = sum(w == row for w, row in zip(want, rows.tolist()))
    assert 10 < kept < N_STATES - 10
    got = dynamics._project_rows(rows.copy(), A_SQ, B_SQ)
    assert np.array_equal(got, np.array(want))
    rows[3, 7] = np.nan
    with pytest.raises(ProjectionError):
        dynamics._project_rows(rows, A_SQ, B_SQ)


def test_project_spin_leaves_a_point_within_tol_unchanged(rng):
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        assert np.max(np.abs(evaluate(SURFACE, z))) < PROJECTION_TOL
        got = _project_spin(z, A_SQ, B_SQ, PROJECTION_TOL)
        assert got is not z
        assert np.array_equal(got, z)
        assert np.array_equal(got, project(z, SURFACE, tol=PROJECTION_TOL))


def test_project_spin_far_start_warns_like_project(rng):
    z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    z[6:9] *= 1.5
    with pytest.warns(OffSurfaceWarning, match="far from the surface"):
        got = _project_spin(z, A_SQ, B_SQ, PROJECTION_TOL)
    with pytest.warns(OffSurfaceWarning, match="far from the surface"):
        want = project(z, SURFACE, tol=PROJECTION_TOL)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("omega, pi", [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    ((0.8, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.48, 0.64, 0.0), (0.3, 0.4, 0.0)),
    # parallel, but omega x pi rounds to a nonzero vector
    ((0.3, 0.5, 0.7), (0.21, 0.35, 0.49)),
])
def test_project_spin_raises_where_project_cannot_converge(omega, pi):
    z = np.zeros(14)
    z[6:9], z[9:12], z[12] = omega, pi, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OffSurfaceWarning)
        with pytest.raises(ProjectionError):
            project(z, SURFACE, tol=PROJECTION_TOL)
        with pytest.raises(ProjectionError) as info:
            _project_spin(z, A_SQ, B_SQ, PROJECTION_TOL)
    # J J^T is singular at the start, so no Newton step is taken
    assert info.value.iterations == 0
    assert info.value.residuals.shape == (3,)


def test_project_spin_gives_up_after_max_iter(rng):
    z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    z[6:12] += 1e-3 * rng.standard_normal(6)
    with pytest.raises(ProjectionError) as info:
        _project_spin(z, A_SQ, B_SQ, 1e-15, max_iter=1)
    assert info.value.iterations == 1


def test_projected_integration_never_calls_project(monkeypatch, rng):
    import spinbundle.constraints as con

    def fail(*args, **kwargs):
        raise AssertionError("constraints.project is off the integration path")

    monkeypatch.setattr(con, "project", fail)
    z0 = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    z0[6:9] *= 1.001
    opts = IntegrationOptions(project_every=1)
    with pytest.warns(OffSurfaceWarning):
        traj = integrate(z0, np.linspace(0.0, 1.0, 20), PARAMS,
                         FIELDS["linear_gradient"], WOBBLE, opts)
    assert np.max(np.abs(traj.residuals)) < PROJECTION_TOL


# ---------------------------------------------------------------------------
# The 3-vector cross product
# ---------------------------------------------------------------------------

def test_spin_component_gradient_matches_np_cross(rng):
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        for i in range(3):
            basis = np.eye(3)[i]
            want = np.zeros(14)
            want[OMEGA] = np.cross(z[PI], basis)
            want[PI] = np.cross(basis, z[OMEGA])
            assert np.array_equal(spin_component(i).gradient(z), want)
            assert spin_component(i)(z) == np.cross(z[OMEGA], z[PI])[i]


# ---------------------------------------------------------------------------
# Dirac brackets with every gradient taken once
# ---------------------------------------------------------------------------

def reference_constraint_matrix(cset, z):
    """Mutual brackets from one public poisson_bracket call per pair."""
    members = list(cset)
    n = len(members)
    delta = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            value = poisson_bracket(members[a].func, members[b].func, z,
                                    structure=cset.structure)
            delta[a, b] = value
            delta[b, a] = -value
    return delta


def reference_dirac_bracket(f, g, cset, z):
    """{f, g} - {f, Phi_a} (Delta^-1)_ab {Phi_b, g}, every bracket a public
    poisson_bracket call, in the order the formula is written."""
    delta = reference_constraint_matrix(cset, z)
    plain = poisson_bracket(f, g, z, structure=cset.structure)
    bf = np.array([poisson_bracket(f, c.func, z, structure=cset.structure)
                   for c in cset])
    bg = np.array([poisson_bracket(c.func, g, z, structure=cset.structure)
                   for c in cset])
    return float(plain - bf @ np.linalg.solve(delta, bg))


def _dirac_cases(rng, cset):
    spins = [spin_component(i) for i in range(3)]
    quads = [quadratic(0.5 * (A + A.T), rng.standard_normal(14))
             for A in rng.standard_normal((2, 14, 14))]
    i, j = rng.integers(0, 3, size=2)
    return [
        *[(spins[k], spins[(k + 1) % 3]) for k in range(3)],
        (coordinate(6 + i), coordinate(9 + j)),
        (coordinate(0), coordinate(3)),
        (quads[0], quads[1]),
        (cset.constraints[0].func, quads[0]),
        (quads[1], spins[i]),
    ]


def test_dirac_bracket_equals_public_bracket_reference(rng):
    pair = second_class_pair(PARAMS.a)
    t4 = t4_surface_set(0.75)
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        for f, g in _dirac_cases(rng, pair):
            assert dirac_bracket(f, g, pair, z) == \
                reference_dirac_bracket(f, g, pair, z)
        # off the t4 surface its pair is second class, so Delta inverts
        zt = random_phase_state(rng, a=rng.uniform(0.7, 1.5),
                                b=rng.uniform(0.7, 1.5))
        for f, g in _dirac_cases(rng, t4):
            assert dirac_bracket(f, g, t4, zt) == \
                reference_dirac_bracket(f, g, t4, zt)


def test_constraint_matrix_equals_public_bracket_reference(rng):
    sets = (second_class_pair(PARAMS.a), t4_surface_set(0.75),
            pauli_model_set(PARAMS.a, PARAMS.b))
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        for cset in sets:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OffSurfaceWarning)
                got = constraint_matrix(cset, z).delta
            assert np.array_equal(got, reference_constraint_matrix(cset, z))


def _counted(obs, counts, key):
    """obs with a gradient that counts its evaluations under key."""

    def grad(z):
        counts[key] = counts.get(key, 0) + 1
        return obs.grad(z)

    return Observable(obs.fn, grad, name=obs.name)


def _counted_set(cset, counts):
    return ConstraintSet(
        constraints=tuple(Constraint(c.name, _counted(c.func, counts, c.name),
                                     c.target) for c in cset),
        structure=cset.structure)


def test_dirac_bracket_takes_each_gradient_once(rng):
    counts = {}
    pair = _counted_set(second_class_pair(PARAMS.a), counts)
    f = _counted(spin_component(0), counts, "f")
    g = _counted(spin_component(1), counts, "g")
    z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    dirac_bracket(f, g, pair, z)
    assert counts == {"omega_sq": 1, "omega_pi": 1, "f": 1, "g": 1}


def test_nonfinite_constraint_gradient_raises_before_f_and_g(rng):
    counts = {}

    def bad_grad(z):
        out = np.zeros(14)
        out[7] = np.nan
        return out

    cset = ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), PARAMS.a ** 2),
        Constraint("broken", Observable(lambda z: 0.0, bad_grad, name="broken")),
    ))
    f = _counted(spin_component(0), counts, "f")
    g = _counted(spin_component(1), counts, "g")
    z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    with pytest.raises(GradientError) as info:
        dirac_bracket(f, g, cset, z)
    assert info.value.label == "omega2"
    assert counts == {}


def test_degenerate_delta_raises_before_f_and_g(rng):
    counts = {}
    cset = ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), 1.0),
        Constraint("omega_sq_again", _bilinear(_OMEGA3, _OMEGA3, (2.0, 2.0, 2.0)),
                   2.0),
    ))
    f = _counted(spin_component(0), counts, "f")
    g = _counted(spin_component(1), counts, "g")
    z = random_phase_state(rng, a=1.0)
    with pytest.raises(DegenerateConstraintError):
        dirac_bracket(f, g, cset, z)
    assert counts == {}


# ---------------------------------------------------------------------------
# A block of Dirac brackets at one point
# ---------------------------------------------------------------------------

def _block_cases(rng, cset):
    cases = _dirac_cases(rng, cset)
    return [f for f, _ in cases], [g for _, g in cases]


def test_dirac_brackets_equal_single_brackets_and_reference(rng):
    pair = second_class_pair(PARAMS.a)
    t4 = t4_surface_set(0.75)
    for _ in range(N_STATES // 4):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        zt = random_phase_state(rng, a=rng.uniform(0.7, 1.5),
                                b=rng.uniform(0.7, 1.5))
        for cset, point in ((pair, z), (t4, zt)):
            fs, gs = _block_cases(rng, cset)
            block = dirac_brackets(fs, gs, cset, point)
            assert block.shape == (len(fs), len(gs))
            for i, f in enumerate(fs):
                for j, g in enumerate(gs):
                    assert block[i, j] == dirac_bracket(f, g, cset, point)
                    assert block[i, j] == \
                        reference_dirac_bracket(f, g, cset, point)


def test_dirac_brackets_take_each_gradient_once(rng):
    counts = {}
    pair = _counted_set(second_class_pair(PARAMS.a), counts)
    spins = [_counted(spin_component(k), counts, f"S{k}") for k in range(3)]
    omega = _counted(coordinate(6), counts, "omega1")
    fs = [c.func for c in pair] + spins
    gs = spins + [omega]
    z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
    block = dirac_brackets(fs, gs, pair, z)
    assert block.shape == (5, 4)
    assert counts == {"omega_sq": 1, "omega_pi": 1, "S0": 1, "S1": 1, "S2": 1,
                      "omega1": 1}


def test_dirac_brackets_degenerate_delta_raises_before_f_and_g(rng):
    counts = {}
    cset = ConstraintSet(constraints=(
        Constraint("omega_sq", omega_norm_sq(), 1.0),
        Constraint("omega_sq_again", _bilinear(_OMEGA3, _OMEGA3, (2.0, 2.0, 2.0)),
                   2.0),
    ))
    fs = [_counted(spin_component(k), counts, f"f{k}") for k in range(3)]
    gs = [_counted(coordinate(9 + k), counts, f"g{k}") for k in range(3)]
    z = random_phase_state(rng, a=1.0)
    with pytest.raises(DegenerateConstraintError) as info:
        dirac_brackets(fs, gs, cset, z)
    assert info.value.condition_number == math.inf
    assert counts == {}


@pytest.mark.parametrize("d", [3.7, -2.5, 1e-300, 5e-324, 1e300])
def test_pair_condition_is_the_svd_condition(d):
    delta = np.array([[0.0, d], [-d, 0.0]])
    assert _condition(delta) == 1.0
    assert abs(np.linalg.cond(delta) - 1.0) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("d", [0.0, -0.0, math.inf, math.nan])
def test_pair_condition_is_infinite_where_delta_does_not_invert(d):
    assert _condition(np.array([[0.0, d], [-d, 0.0]])) == math.inf


def test_pair_solve_is_the_lu_solve():
    rng = np.random.default_rng(11)
    for _ in range(5000):
        d = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 6.0)
        delta = np.array([[0.0, d], [-d, 0.0]])
        rhs = (rng.standard_normal(2) * 10.0 ** rng.uniform(-8.0, 8.0, 2))
        assert np.array_equal(_solve_delta(delta, rhs.tolist()),
                              np.linalg.solve(delta, rhs))


def test_pair_dirac_brackets_equal_the_lu_solve_path(rng, monkeypatch):
    """|delta_01| = 2 a^2 runs from 1e-6 to 1e6 over the radii drawn."""
    spins = [spin_component(k) for k in range(3)]
    coords = [coordinate(6 + k) for k in range(3)]
    cases = []
    for _ in range(200):
        a = float(np.sqrt(0.5 * 10.0 ** rng.uniform(-6.0, 6.0)))
        cases.append((second_class_pair(a),
                      random_phase_state(rng, a=a, b=rng.uniform(0.1, 10.0))))
    closed = [dirac_brackets(spins + coords, spins, pair, z)
              for pair, z in cases]
    monkeypatch.setattr(
        constraints, "_solve_delta",
        lambda delta, rhs: np.linalg.solve(delta, np.array(rhs)))
    for (pair, z), block in zip(cases, closed):
        assert np.array_equal(block, dirac_brackets(spins + coords, spins,
                                                    pair, z))


@pytest.mark.parametrize("omega", [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
def test_pair_dirac_brackets_reject_a_singular_delta_first(omega, rng):
    counts = {}
    fs = [_counted(spin_component(k), counts, f"f{k}") for k in range(3)]
    gs = [_counted(coordinate(9 + k), counts, f"g{k}") for k in range(3)]
    z = random_phase_state(rng)
    z[OMEGA] = omega
    with pytest.raises(DegenerateConstraintError) as info:
        dirac_brackets(fs, gs, second_class_pair(1.0), z)
    assert info.value.condition_number == math.inf
    assert counts == {}


# ---------------------------------------------------------------------------
# Samplers: the same draws as with np.linalg.norm
# ---------------------------------------------------------------------------

def reference_random_unit(rng):
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def reference_sample_surface_point(rng, a, b):
    w = reference_random_unit(rng)
    while True:
        raw = reference_random_unit(rng)
        perp = raw - np.dot(raw, w) * w
        norm = np.linalg.norm(perp)
        if norm > 1e-6:
            break
    return a * w, b * perp / norm


def reference_sample_beta(rng, beta_max):
    direction = rng.normal(size=3)
    norm = np.linalg.norm(direction)
    while norm < 1e-12:
        direction = rng.normal(size=3)
        norm = np.linalg.norm(direction)
    return (rng.uniform(0.0, beta_max) / norm) * direction


def test_samplers_match_np_linalg_norm_draws():
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(500):
        w, p = sample_surface_point(rng, a=0.8, b=1.3)
        w_ref, p_ref = reference_sample_surface_point(ref, 0.8, 1.3)
        assert np.array_equal(w, w_ref) and np.array_equal(p, p_ref)
        assert np.array_equal(sample_beta(rng, 0.9),
                              reference_sample_beta(ref, 0.9))
    assert rng.bit_generator.state == ref.bit_generator.state


def reference_rest_frame(w3, p3, mass):
    return (np.concatenate(([0.0], w3)), np.concatenate(([0.0], p3)),
            np.array([float(mass), 0.0, 0.0, 0.0]))


def test_rest_point_samplers_match_the_surface_sampler_draws():
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    a3, a4 = 0.6, 1.7
    for _ in range(300):
        mass = ref.uniform(0.5, 2.0)
        got = sample_t3_rest_point(rng, a3, a4, mass=rng.uniform(0.5, 2.0))
        want = reference_rest_frame(*reference_sample_surface_point(
            ref, np.sqrt(a4), np.sqrt(a3)), mass)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        got = sample_t4_rest_point(rng, a=0.75, mass=1.5)
        radius = ref.uniform(0.5, 2.0)
        want = reference_rest_frame(*reference_sample_surface_point(
            ref, radius, np.sqrt(0.75) / radius), 1.5)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert rng.bit_generator.state == ref.bit_generator.state
