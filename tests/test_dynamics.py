"""Equations of motion, multiplier consistency, adaptive integration,
and the physical-limit checks for the spinning particle in a magnetic field."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinbundle import dynamics
from spinbundle.cli import parse_gauge_expression
from spinbundle.constraints import evaluate
from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    _dop853_error_norm,
    _golden_section,
    eom,
    fit_rotation_frequency,
    integrate,
    physical_hamiltonian,
    second_order_residual,
    solve_multiplier,
)
from spinbundle.errors import (
    DomainError,
    GaugeError,
    IntegrationError,
    OffSurfaceWarning,
)
from spinbundle.phasespace import (
    CANONICAL_PARTICLE,
    OMEGA,
    PHI,
    PI,
    PI_PHI,
    PhasePoint,
)

from conftest import random_phase_state

UNIT_GAUGE = GaugeFunction.constant(1.0)


def larmor_start(params, p=(1.0, 0.0, 0.0)):
    # spin tilted fully into the x-y plane so S1, S2 oscillate
    return PhasePoint(x=[0, 0, 0], p=p,
                      omega=[params.a, 0, 0], pi=[0, 0, params.b])


@pytest.fixture(scope="module")
def larmor_run():
    """One tight 10-period uniform-field trajectory shared by the
    conservation and frequency tests below."""
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    t_end = 10 * 2 * np.pi
    opts = IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(larmor_start(params), np.linspace(0.0, t_end, 2000),
                     params, fields, UNIT_GAUGE, opts)
    return params, fields, traj


# ---------------------------------------------------------------------------
# ModelParams / FieldConfig / GaugeFunction
# ---------------------------------------------------------------------------

def test_params_defaults():
    params = ModelParams()
    assert_allclose(params.b, np.sqrt(3) / 2)
    assert_allclose(params.spin_norm_sq, 0.75)
    assert_allclose(params.moment_coupling, 1.0)


def test_params_scaling_of_default_b():
    params = ModelParams(a=2.0, hbar=0.5)
    # b = sqrt(3) hbar / (2 a)
    assert_allclose(params.b, np.sqrt(3) * 0.5 / 4.0)
    assert_allclose(params.spin_norm_sq, 3 * 0.5 ** 2 / 4)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m=0.0)
    with pytest.raises(ValueError):
        ModelParams(b=-1.0)


def test_field_consistency_uniform(rng):
    fields = FieldConfig.uniform((0.3, -1.2, 0.8))
    pts = rng.standard_normal((10, 3))
    assert fields.check_consistency(pts) < 1e-6
    assert_allclose(fields.B(pts[0]), (0.3, -1.2, 0.8))


def test_field_consistency_linear_gradient(rng):
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.2)
    pts = rng.standard_normal((10, 3))
    assert fields.check_consistency(pts) < 1e-6
    # divergence-free: dB from the analytic matrix is traceless
    assert abs(np.trace(fields.grad_B(pts[0]))) < 1e-14


def test_field_consistency_detects_mismatch(rng):
    bad = FieldConfig.custom(B=lambda x: np.array([0.0, 0.0, 1.0]),
                             A=lambda x: np.zeros(3),
                             grad_B=lambda x: np.zeros((3, 3)),
                             grad_A=lambda x: np.zeros((3, 3)))
    with pytest.raises(DomainError):
        bad.check_consistency(rng.standard_normal((5, 3)))


@pytest.mark.parametrize("nan_at", [0, 1])
def test_field_consistency_rejects_a_nan_curl(nan_at):
    points = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

    def grad_A(x):
        return np.full((3, 3), np.nan if x[0] == points[nan_at, 0] else 0.0)

    bad = FieldConfig.custom(B=lambda x: np.zeros(3), A=lambda x: np.zeros(3),
                             grad_B=lambda x: np.zeros((3, 3)), grad_A=grad_A)
    with pytest.raises(DomainError, match="nan"):
        bad.check_consistency(points)


def test_gauge_constant_and_derivative():
    g = GaugeFunction.constant(2.0)
    assert g(3.7) == 2.0
    assert g.derivative(3.7) == 0.0
    with pytest.raises(GaugeError):
        GaugeFunction.constant(0.0)


def test_gauge_fd_derivative():
    g = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t))
    assert abs(g.derivative(0.3) - np.cos(2 * 0.3)) < 1e-8


def test_gauge_validate_rejects_vanishing():
    g = GaugeFunction(phi=lambda t: np.sin(t))
    with pytest.raises(GaugeError):
        g.validate(0.0, 10.0)


def test_gauge_validate_rejects_sign_change_between_samples():
    calls = []

    def phi(t):
        calls.append(np.array(t))
        return t - 0.500123

    g = GaugeFunction(phi=phi)
    # no grid point comes within 1e-6 of the root; the sign change shows it
    with pytest.raises(GaugeError,
                       match="changes sign between t = 0.499499 and t = 0.500501"):
        g.validate(0.0, 1.0)
    # one read of phi, at all 1,000 times
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.linspace(0.0, 1.0, 1000))


def sampled(runs):
    """A gauge whose phi gives, for any 1,000 times, the values of runs:
    (count, value) pairs in order."""
    values = np.concatenate([np.full(count, value) for count, value in runs])
    assert values.size == 1000
    return GaugeFunction(phi=lambda t: values)


@pytest.mark.parametrize("gauge, message", [
    (sampled([(400, 1.0), (1, 5e-7), (599, 1.0)]),
     r"falls to \|phi\| <= 1e-06 near t = 0\.4004$"),
    (GaugeFunction(phi=lambda t: t - 0.500123),
     r"changes sign between t = 0\.499499 and t = 0\.500501$"),
    (sampled([(301, -1.0), (1, 0.0), (698, 1.0)]),
     r"falls to \|phi\| <= 1e-06 near t = 0\.301301$"),
    (sampled([(600, 1.0), (400, -5e-7)]),
     r"falls to \|phi\| <= 1e-06 near t = 0\.600601$"),
    (parse_gauge_expression("1/t"),
     r"cannot be evaluated at t = 0\.0: float division by zero$"),
    (GaugeFunction(phi=lambda t: np.where(t < 0.5, 1e308, -1e308)),
     r"changes sign between t = 0\.499499 and t = 0\.500501$"),
    (sampled([(500, 1.0), (1, np.nan), (499, 1.0)]), None),
], ids=["small", "sign_change", "zero_after_negative", "small_and_flip",
        "fault_at_0", "huge_neighbours", "nan_passes"])
def test_gauge_validate_raises_at_the_first_bad_sample(gauge, message):
    """validate reads phi once on [0, 1] and raises at the first sample
    that is at most 1e-6 in size or has the other sign from the one
    before, a small value first where both; an error of the read wins.
    Neighbours near 1e308 flip sign without an overflow warning, and a nan
    sample passes."""
    if message is None:
        gauge.validate(0.0, 1.0)
        return
    with pytest.raises(GaugeError, match=message):
        gauge.validate(0.0, 1.0)


# ---------------------------------------------------------------------------
# solve_multiplier
# ---------------------------------------------------------------------------

def test_multiplier_magnitude_unit_scales():
    params = ModelParams(a=1.0, b=1.0)
    z = PhasePoint(x=[0, 0, 0], p=[0, 0, 0],
                   omega=[1, 0, 0], pi=[0, 1, 0]).as_array()
    lam = solve_multiplier(z, params)
    assert abs(abs(lam) - 2.0) < 1e-10


def test_multiplier_default_b():
    params = ModelParams()
    z = larmor_start(params).as_array()
    # |lambda_1| = 2 a^2 / (b^2 phi) = 2 / (3/4) = 8/3
    assert abs(abs(solve_multiplier(z, params)) - 8.0 / 3.0) < 1e-9


def test_multiplier_inverse_in_phi():
    params = ModelParams()
    z = larmor_start(params).as_array()
    lam1 = solve_multiplier(z, params, phi_val=1.0)
    lam2 = solve_multiplier(z, params, phi_val=2.0)
    assert_allclose(lam1, 2.0 * lam2, rtol=1e-10)


def test_multiplier_off_surface_warns():
    params = ModelParams()
    z = larmor_start(params).as_array()
    z[OMEGA] = (1.5, 0.0, 0.0)
    with pytest.warns(OffSurfaceWarning):
        value = solve_multiplier(z, params)
    assert np.isfinite(value)


def test_multiplier_degenerate_pi():
    params = ModelParams()
    z = larmor_start(params).as_array()
    z[PI] = 0.0
    with pytest.raises(DomainError):
        with pytest.warns(OffSurfaceWarning):
            solve_multiplier(z, params)


def test_multiplier_keeps_orthogonality(rng):
    # d(omega.pi)/dt = 0 under the flow built from the solved multiplier
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    for _ in range(10):
        z = random_phase_state(rng)
        dz = eom(z, 0.0, params, fields, UNIT_GAUGE)
        d_orth = np.dot(dz[OMEGA], z[PI]) + np.dot(z[OMEGA], dz[PI])
        assert abs(d_orth) < 1e-10


# ---------------------------------------------------------------------------
# eom
# ---------------------------------------------------------------------------

def test_eom_free_particle():
    params = ModelParams(m=2.0)
    z = larmor_start(params, p=(1.0, -2.0, 0.5)).as_array()
    dz = eom(z, 0.0, params, FieldConfig.free(), UNIT_GAUGE)
    assert_allclose(dz[:3], np.array([1.0, -2.0, 0.5]) / 2.0)
    assert_allclose(dz[3:6], np.zeros(3), atol=1e-14)
    # composed spin derivative vanishes even though omega, pi rotate
    s_dot = np.cross(dz[OMEGA], z[PI]) + np.cross(z[OMEGA], dz[PI])
    assert_allclose(s_dot, np.zeros(3), atol=1e-12)
    assert dz[PI_PHI] == 0.0


def test_eom_precession_torque(rng):
    params = ModelParams(mu=1.3, e=-0.7, m=1.1)
    B0 = np.array([0.2, -0.5, 1.0])
    fields = FieldConfig.uniform(B0)
    for _ in range(20):
        z = random_phase_state(rng)
        dz = eom(z, 0.0, params, fields, UNIT_GAUGE)
        S = np.cross(z[OMEGA], z[PI])
        s_dot = np.cross(dz[OMEGA], z[PI]) + np.cross(z[OMEGA], dz[PI])
        want = params.moment_coupling * np.cross(S, B0)
        assert np.max(np.abs(s_dot - want)) < 1e-10


def test_eom_preserves_surface_derivatives(rng):
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    for _ in range(100):
        z = random_phase_state(rng)
        dz = eom(z, 0.0, params, fields, UNIT_GAUGE)
        d_wsq = 2.0 * np.dot(z[OMEGA], dz[OMEGA])
        d_psq = 2.0 * np.dot(z[PI], dz[PI])
        d_orth = np.dot(dz[OMEGA], z[PI]) + np.dot(z[OMEGA], dz[PI])
        assert max(abs(d_wsq), abs(d_psq), abs(d_orth)) < 1e-10


def test_eom_singular_gauge():
    params = ModelParams()
    z = larmor_start(params).as_array()
    z[PHI] = 0.0
    with pytest.raises(GaugeError):
        eom(z, 0.0, params, FieldConfig.free(), UNIT_GAUGE)


def test_eom_singular_gauge_message_prints_plain_float():
    params = ModelParams()
    z = larmor_start(params).as_array()
    z[PHI] = -1e-10
    with pytest.raises(GaugeError) as info:
        eom(z, 0.0, params, FieldConfig.free(), UNIT_GAUGE)
    assert str(info.value).endswith("singular at phi = -1e-10")


def test_eom_gauge_rate_enters_phi_dot():
    params = ModelParams()
    z = larmor_start(params).as_array()
    gauge = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t),
                          phi_dot=lambda t: np.cos(2 * t))
    dz = eom(z, 0.25, params, FieldConfig.free(), gauge)
    assert_allclose(dz[PHI], np.cos(0.5), atol=1e-12)


# ---------------------------------------------------------------------------
# physical_hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_gauge_kinetic_cancellation():
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    x = np.array([0.3, -0.4, 0.0])
    p = (params.e / params.c) * fields.A(x)
    # B along z, S along y: B . S = 0
    z = PhasePoint(x=x, p=p, omega=[params.a, 0, 0],
                   pi=[0, 0, params.b]).as_array()
    assert abs(physical_hamiltonian(z, params, fields)) < 1e-14


def test_hamiltonian_free_kinetic_value():
    params = ModelParams(m=2.0)
    z = larmor_start(params, p=(1.0, 0.0, 0.0)).as_array()
    assert_allclose(physical_hamiltonian(z, params, FieldConfig.free()), 0.25)


def test_hamiltonian_conserved_over_ten_periods(larmor_run):
    params, fields, traj = larmor_run
    assert np.max(np.abs(traj.h_phys - traj.h_phys[0])) < 1e-8


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_free_field_spin_constant():
    params = ModelParams()
    opts = IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(larmor_start(params), np.linspace(0.0, 10.0, 400), params,
                     FieldConfig.free(), UNIT_GAUGE, opts)
    assert np.max(np.linalg.norm(traj.spin - traj.spin[0], axis=1)) < 1e-9
    # omega itself rotates in the gauge orbit, so this is not trivial
    assert np.max(np.abs(traj.states[:, OMEGA] - traj.states[0, OMEGA])) > 0.1


def test_larmor_frequency(larmor_run):
    params, fields, traj = larmor_run
    expected = params.moment_coupling * 1.0
    fit = fit_rotation_frequency(traj.times, traj.spin[:, 0])
    assert abs(fit.omega - expected) / expected < 1e-6
    # S3 stays at its initial value while S1, S2 precess
    assert np.max(np.abs(traj.spin[:, 2] - traj.spin[0, 2])) < 1e-8


def test_larmor_matches_closed_form_rotation(larmor_run):
    params, fields, traj = larmor_run
    omega = params.moment_coupling
    s0 = traj.spin[0]
    ct = np.cos(omega * traj.times)
    st = np.sin(omega * traj.times)
    # precession about +z for S x B torque with B = +z
    want = np.column_stack([
        s0[0] * ct + s0[1] * st,
        -s0[0] * st + s0[1] * ct,
        np.full_like(ct, s0[2]),
    ])
    assert np.max(np.abs(traj.spin - want)) < 1e-7


def test_constraint_drift_unprojected(larmor_run):
    _, _, traj = larmor_run
    assert np.max(np.abs(traj.residuals)) < 1e-6


def test_spin_norm_and_gauge_momentum_conserved(larmor_run):
    _, _, traj = larmor_run
    s_sq = np.sum(traj.spin ** 2, axis=1)
    assert np.max(np.abs(s_sq - s_sq[0])) < 1e-9
    assert np.all(traj.states[:, PI_PHI] == 0.0)


def test_projection_pins_residuals():
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    t_end = 2 * 2 * np.pi
    opts = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12, project_every=1)
    traj = integrate(larmor_start(params), np.linspace(0.0, t_end, 400),
                     params, fields, UNIT_GAUGE, opts)
    assert np.max(np.abs(traj.residuals)) < 1e-10


def test_projection_pins_a_start_just_off_the_surface():
    """A start 4e-10 off the surface is not projected before integration,
    but projection after every step pins every later sample to the
    surface, whatever the gauge does to omega and pi."""
    params = ModelParams()
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0],
                    omega=[params.a * (1 + 2e-10), 0, 0], pi=[0, params.b, 0])
    wobble = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t),
                           phi_dot=lambda t: np.cos(2 * t))
    traj = integrate(z0, np.linspace(0.0, 6.0, 200), params,
                     FieldConfig.linear_gradient(), wobble,
                     IntegrationOptions(project_every=1))
    assert np.max(np.abs(traj.residuals[0])) > 1e-10
    assert np.max(np.abs(traj.residuals[1:])) < 1e-12


def test_gauge_invariance_of_observables():
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    t_end = 4 * np.pi
    times = np.linspace(0.0, t_end, 300)
    wobble = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t),
                           phi_dot=lambda t: np.cos(2 * t))
    ref = integrate(larmor_start(params), times, params, fields, UNIT_GAUGE)
    alt = integrate(larmor_start(params), times, params, fields, wobble)
    assert np.max(np.abs(ref.spin - alt.spin)) < 1e-6
    assert np.max(np.abs(ref.states[:, :3] - alt.states[:, :3])) < 1e-6
    # the raw gauge-sector trajectories visibly separate
    assert np.max(np.abs(ref.states[:, OMEGA] - alt.states[:, OMEGA])) > 0.1


def test_physical_sector_is_gauge_blind():
    """With projection after every step in a gradient field, x and p do not
    depend on the gauge at all and S only through round-off in the fiber
    rotation, while omega itself moves with the gauge."""
    params = ModelParams()
    fields = FieldConfig.linear_gradient()
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0], omega=[params.a, 0, 0],
                    pi=[0, params.b, 0])
    times = np.linspace(0.0, 6.0, 200)
    opts = IntegrationOptions(project_every=1)
    ref, alt = (integrate(z0, times, params, fields,
                          parse_gauge_expression(expression), opts)
                for expression in ("1", "1 + 0.5*sin(2*t)"))
    assert np.array_equal(ref.states[:, :6], alt.states[:, :6])
    assert np.max(np.abs(ref.spin - alt.spin)) < 1e-14
    assert np.max(np.abs(ref.states[:, OMEGA] - alt.states[:, OMEGA])) > 0.1


def test_integrate_projects_off_surface_start():
    params = ModelParams()
    z0 = PhasePoint(x=[0, 0, 0], p=[1, 0, 0],
                    omega=[params.a * 1.001, 0, 0], pi=[0, 0, params.b])
    with pytest.warns(OffSurfaceWarning):
        traj = integrate(z0, np.linspace(0.0, 1.0, 10), params,
                         FieldConfig.free(), UNIT_GAUGE)
    assert np.max(np.abs(traj.residuals[0])) < 1e-12


def test_integrate_validates_inputs():
    params = ModelParams()
    z0 = larmor_start(params)
    with pytest.raises(ValueError):
        integrate(z0, (1.0, 0.0), params, FieldConfig.free(), UNIT_GAUGE)
    with pytest.raises(ValueError):
        integrate(z0, [0.0, 0.0, 1.0], params, FieldConfig.free(), UNIT_GAUGE)
    with pytest.raises(ValueError):
        IntegrationOptions(rel_tol=0.0)


def test_integrate_rejects_bad_sample_grids():
    params = ModelParams()
    z0 = larmor_start(params)
    for times in ([0.0], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="times must"):
            integrate(z0, times, params, FieldConfig.free(), UNIT_GAUGE)


def counting_gauge():
    """A unit gauge whose phi_dot, read once per eom call, counts the calls."""
    calls = []
    return GaugeFunction(phi=lambda t: 1.0,
                         phi_dot=lambda t: calls.append(t) or 0.0), calls


def test_integrate_fails_at_once_on_non_finite_derivative():
    params = ModelParams()
    fields = FieldConfig.linear_gradient(gradient=float("nan"))
    gauge, calls = counting_gauge()
    with pytest.raises(IntegrationError,
                       match=r"derivative of the start state is not finite "
                             r"at t = 0\.0: x2 = nan"):
        integrate(larmor_start(params), np.linspace(0.0, 1.0, 8), params,
                  fields, gauge)
    assert len(calls) == 1


def test_integrate_fails_at_once_on_non_finite_start():
    params = ModelParams()
    z0 = larmor_start(params).as_array()
    z0[4] = -np.inf
    gauge, calls = counting_gauge()
    with pytest.raises(IntegrationError,
                       match=r"start state is not finite at t = 0\.5: p2 = -inf"):
        integrate(z0, [0.5, 1.0], params, FieldConfig.free(), gauge)
    assert calls == []


def test_integrate_never_calls_eom(monkeypatch):
    """integrate checks the start derivative with the physical kernel and
    the gauge rate; the 14-d eom is only the reference for them."""
    def no_eom(*args, **kwargs):
        raise AssertionError("integrate called eom")

    monkeypatch.setattr(dynamics, "eom", no_eom)
    params = ModelParams()
    wobble = parse_gauge_expression("1 + 0.5*sin(2*t)")
    for fields in (FieldConfig.free(), FieldConfig.uniform((0.0, 0.0, 1.0)),
                   FieldConfig.linear_gradient()):
        for gauge in (UNIT_GAUGE, wobble):
            traj = integrate(larmor_start(params), np.linspace(0.0, 1.0, 8),
                             params, fields, gauge)
            assert np.isfinite(traj.states).all()


def test_integrate_step_budget(monkeypatch):
    """The budget holds in each stepped sector: the physical sector of a
    gradient field and the gauge sector of a gauge that moves."""
    params = ModelParams()
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 3)
    wobble = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t),
                           phi_dot=lambda t: np.cos(2 * t))
    for fields, gauge in ((FieldConfig.linear_gradient(), UNIT_GAUGE),
                          (FieldConfig.free(), wobble)):
        with pytest.raises(IntegrationError, match="step budget 3 exhausted"):
            integrate(larmor_start(params), (0.0, 10.0), params, fields,
                      gauge)


def test_retried_step_starts_from_the_derivative_at_its_base(monkeypatch,
                                                              rhs_calls):
    """After a rejected attempt the retry must start from f(t, y), not from
    the rejected trial's last stage.  Each attempt's k[0] is recovered from
    its second stage point y + h a21 k[0], with h from the stage times of
    the second and the twelfth stage, t + c2 h and t + h.  The uniform
    kernel is wrapped as a custom field, so that integrate steps the
    physical sector rather than taking the closed-form flow."""
    params = ModelParams()
    fields = FieldConfig("custom", FieldConfig.uniform((0.0, 0.0, 1.0)).kernel)
    c2, (a21,) = dynamics._DOP853_C[1], dynamics._DOP853_A[1]
    attempts = []

    def spy_norm(err5, err3, y0, y1, h, rel_tol, abs_tol):
        norm = _dop853_error_norm(err5, err3, y0, y1, h, rel_tol, abs_tol)
        (stage2, t2), (_, t12) = rhs_calls[-11], rhs_calls[-1]
        attempts.append((np.array(y0), np.array(stage2), (t12 - t2) / (1 - c2),
                         norm / dynamics._PHYSICAL_TOL_SCALE))
        return norm

    monkeypatch.setattr(dynamics, "_dop853_error_norm", spy_norm)
    integrate(larmor_start(params), np.linspace(0.0, 4 * np.pi, 200), params,
              fields, UNIT_GAUGE, IntegrationOptions(rel_tol=1e-6, abs_tol=1e-8))

    retries = [after for before, after in zip(attempts, attempts[1:])
               if before[3] > 1.0]
    assert retries
    for y, stage2, h, _ in retries:
        want = np.array(dynamics._physical_kernel(params, fields)(y.tolist(), 0.0))
        assert_allclose((stage2 - y) / (a21 * h), want, rtol=0,
                        atol=1e-9 * np.max(np.abs(want)))


@pytest.mark.parametrize("fields", [
    FieldConfig.linear_gradient(),
    FieldConfig.uniform((0.3, -0.4, 1.1)),
], ids=["full_state", "exact_path"])
def test_stepper_sees_only_python_floats(monkeypatch, rng, fields):
    """One numpy scalar in a state makes every later stage numpy-scalar
    arithmetic, several times slower.  The start and the grid are arrays,
    and the parameters and phi_dot's values are numpy scalars, yet every
    time, state entry and derivative entry either stepper hands to or gets
    from its right-hand side is a Python float, also after a projection.
    The physical sector is stepped only in the gradient field."""
    seen = {"_dp5": [], "_dop853": []}

    def spy_on(name):
        step = getattr(dynamics, name)

        def spy_stepper(rhs, y, f, *args, **kwargs):
            def spy(u, t):
                out = rhs(u, t)
                seen[name].append((t, *u, *out))
                return out

            seen[name].append((*y, *f))
            return step(spy, y, f, *args, **kwargs)

        monkeypatch.setattr(dynamics, name, spy_stepper)

    spy_on("_dp5")
    spy_on("_dop853")
    params = ModelParams(m=np.float64(1.2), e=np.float64(0.8))
    gauge = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
                          phi_dot=lambda t: np.cos(2.0 * t))
    integrate(random_phase_state(rng, a=params.a, b=params.b),
              np.linspace(0.0, 2.0, 50), params, fields, gauge,
              IntegrationOptions(project_every=1))
    assert len(seen["_dp5"]) > 1
    assert (len(seen["_dop853"]) > 50) == (fields.kind == "linear_gradient")
    rows = seen["_dp5"] + seen["_dop853"]
    assert {type(v) for row in rows for v in row} == {float}


def test_underflow_after_non_finite_trial_names_the_component(monkeypatch):
    """A = 0 and p = (1, 0, 0) move x1 = t, and B becomes infinite at x1 >=
    0.5: every trial across t = 0.5 holds NaNs, the step size underflows
    within a few shortest steps of t = 0.5, and the error names that t and
    the first non-finite component of the last trial state, read from the
    error norm's arguments, with no numpy RuntimeWarning on the way."""
    params = ModelParams()
    fields = FieldConfig.custom(
        lambda x: [0.0, 0.0, np.inf if x[0] >= 0.5 else 1.0],
        lambda x: [0.0, 0.0, 0.0], lambda x: np.zeros((3, 3)),
        lambda x: np.zeros((3, 3)))
    trials = []

    def spy_norm(err5, err3, y0, y1, *args):
        trials.append(y1)
        return _dop853_error_norm(err5, err3, y0, y1, *args)

    monkeypatch.setattr(dynamics, "_dop853_error_norm", spy_norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError,
                           match=r"^step size underflow: the last trial state "
                                 r"is not finite at t = \S+: \w+ = \S+$") as err:
            integrate(larmor_start(params), np.linspace(0.0, 1.0, 11), params,
                      fields, UNIT_GAUGE)
    label, value = next((label, value) for label, value in
                        zip(CANONICAL_PARTICLE.labels, trials[-1])
                        if not np.isfinite(value))
    message = str(err.value)
    assert message.endswith(f": {label} = {value!r}")
    t = float(message.split("t = ")[1].split(":")[0])
    assert 0.5 - 1e-13 <= t < 0.5


def test_underflow_in_the_physical_sector_names_the_field():
    """B = 1e18 asks for steps far below 1e-14; the gauge does not enter the
    physical sector, so the message names the field kind."""
    params = ModelParams()
    fields = FieldConfig("custom", FieldConfig.uniform((0.0, 0.0, 1e18)).kernel)
    with pytest.raises(IntegrationError,
                       match=r"^step size underflow at t = 0 \(field 'custom'\)$"):
        integrate(larmor_start(params), np.linspace(0.0, 1.0, 11), params,
                  fields, UNIT_GAUGE)


def test_step_budget_in_the_gauge_sector_names_the_gauge(monkeypatch):
    """phi oscillates at 1e15 per unit time: stepping theta alone spends the
    step budget, and the message names t, the gauge and its value there."""
    params = ModelParams()
    gauge = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(1e15 * t),
                          label="fast")
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1000)
    with pytest.raises(IntegrationError,
                       match=r"^step budget 1000 exhausted at t = \S+ "
                             r"\(gauge 'fast' = \S+ there\)$"):
        integrate(larmor_start(params), np.linspace(0.0, 1.0, 11), params,
                  FieldConfig.free(), gauge)


# ---------------------------------------------------------------------------
# second-order residual and limits
# ---------------------------------------------------------------------------

def test_second_order_residual_free():
    params = ModelParams()
    traj = integrate(larmor_start(params), np.linspace(0.0, 5.0, 100), params,
                     FieldConfig.free(), UNIT_GAUGE)
    assert np.max(second_order_residual(traj, params, FieldConfig.free())) < 1e-10


def test_cyclotron_frequency_and_radius(larmor_run):
    params, fields, traj = larmor_run
    expected = abs(params.e) * 1.0 / (params.m * params.c)
    fit = fit_rotation_frequency(traj.times, traj.states[:, 0])
    assert abs(fit.omega - expected) / expected < 1e-6
    # radius = m c |v_perp| / (e B) = 1 for unit everything
    assert abs(fit.amplitude - 1.0) < 1e-6
    assert np.max(second_order_residual(traj, params, fields)) < 1e-7


def test_gradient_field_residual_and_deflection():
    params = ModelParams()
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.1)
    times = np.linspace(0.0, 12.0, 400)
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0],
                    omega=[params.a, 0, 0], pi=[0, params.b, 0])
    traj = integrate(z0, times, params, fields, UNIT_GAUGE)
    assert np.max(second_order_residual(traj, params, fields)) < 1e-7

    # the spin-gradient force visibly deflects the orbit: switch the
    # magnetic moment off and compare
    null_params = ModelParams(mu=0.0)
    null = integrate(z0, times, null_params, fields, UNIT_GAUGE)
    gap = np.max(np.abs(traj.states[:, :3] - null.states[:, :3]))
    assert gap > 1e-2


def test_classical_limit_scales_with_hbar():
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.1)
    opts = IntegrationOptions(rel_tol=1e-9, abs_tol=1e-11)

    def orbit(hbar, mu):
        params = ModelParams(mu=mu, hbar=hbar)
        z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0],
                        omega=[params.a, 0, 0], pi=[0, params.b, 0])
        return integrate(z0, np.linspace(0.0, 6.0, 80), params, fields,
                         UNIT_GAUGE, opts).states[:, :3]

    gaps = []
    for hbar in (0.4, 0.1):
        lorentz_only = orbit(hbar, 0.0)
        with_spin = orbit(hbar, 1.0)
        gaps.append(np.max(np.abs(with_spin - lorentz_only)))
    # spin force scales linearly in hbar through |S| ~ hbar, so the
    # deflection gap shrinks by the same factor of 4
    assert gaps[1] < gaps[0] / 3.0
    assert_allclose(gaps[0] / 0.4, gaps[1] / 0.1, rtol=0.05)


# ---------------------------------------------------------------------------
# frequency fit
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_frequency(monkeypatch, rng):
    lstsq = np.linalg.lstsq
    calls = []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    t = np.linspace(0.0, 40.0, 1500)
    omega = 1.37
    y = 0.8 * np.cos(omega * t + 0.4) + 0.05
    fit = fit_rotation_frequency(t, y)
    # golden section alone took 63 least-squares solves here
    assert len(calls) <= 20
    assert abs(fit.omega - omega) < 1e-7
    assert abs(fit.amplitude - 0.8) < 1e-7
    assert fit.rms_residual < 1e-6


def test_golden_section_narrows_to_xatol():
    calls = []

    def kink(x):
        calls.append(x)
        return abs(x - 0.3)

    assert abs(_golden_section(kink, 0.0, 1.0, 1e-12) - 0.3) <= 1e-12
    # parabolas fit a kink badly, yet the search takes no more evaluations
    # than golden section alone, whose bracket shrinks by 1/golden ratio per
    # evaluation after the first two
    assert len(calls) <= 2 + int(np.ceil(np.log(1e12) / np.log((1 + 5 ** 0.5) / 2)))


def test_golden_section_takes_the_parabola_through_a_parabola():
    calls = []

    def bowl(x):
        calls.append(x)
        return (x - 0.3) ** 2

    assert _golden_section(bowl, 0.0, 1.0, 1e-12) == 0.3
    assert len(calls) <= 6


def test_fit_requires_uniform_sampling():
    t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    with pytest.raises(ValueError):
        fit_rotation_frequency(t, np.cos(t))
    with pytest.raises(ValueError):
        fit_rotation_frequency(np.linspace(0, 1, 4), np.zeros(4))
