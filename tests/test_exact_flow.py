"""The closed-form flow integrate takes in free and uniform fields, pinned
to the Dormand-Prince path on the same field, the convergence of the
Dormand-Prince path where no closed form exists, the factored flow pinned
to the unfactored 14-d equations of motion, the symplectic form the
physical flow keeps, and the gauge sector's pass over the whole grid,
pinned to the stepper."""

import numpy as np
import pytest

from spinbundle import dynamics
from spinbundle.bundle_so3 import sample_surface_point
from spinbundle.cli import parse_gauge_expression
from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    integrate,
)
from spinbundle.errors import GaugeError, IntegrationError
from spinbundle.phasespace import (
    CANONICAL_PARTICLE,
    OMEGA,
    PHI,
    PI,
    P,
    PhasePoint,
    X,
)

from conftest import random_phase_state

B_TILTED = (0.3, -0.4, 1.1)
WOBBLE = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
                       phi_dot=lambda t: np.cos(2.0 * t), label="1 + 0.5 sin 2t")
TIMES = np.linspace(0.0, 4.0 * np.pi, 400)
# On 400 samples every step at loose tolerances ends on a sample, so the
# grid sets the error there; on 40 samples the tolerance sets it.
COARSE_TIMES = np.linspace(0.0, 4.0 * np.pi, 40)
BLOCKS = {"omega": OMEGA, "pi": PI, "x": X, "p": P}
TOLERANCES = (1e-8, 1e-10, 1e-12)


def stepped(fields: FieldConfig) -> FieldConfig:
    """The same kernel under a kind that integrate steps in full."""
    return FieldConfig("custom", fields.kernel)


def tight():
    return IntegrationOptions(rel_tol=1e-13, abs_tol=1e-15)


def loose(rel_tol):
    return IntegrationOptions(rel_tol=rel_tol, abs_tol=1e-2 * rel_tol)


def block_errors(traj, ref):
    return {name: float(np.max(np.abs(traj.states[:, block] - ref.states[:, block])))
            for name, block in BLOCKS.items()}


def errors_by_tolerance(z0, params, fields, reference_fields, times):
    reference = integrate(z0, times, params, reference_fields, WOBBLE, tight())
    return [block_errors(integrate(z0, times, params, fields, WOBBLE, loose(tol)),
                         reference)
            for tol in TOLERANCES]


def assert_converges(z0, params, fields, reference_fields):
    """The per-sample error of fields at each rel_tol in TOLERANCES against
    reference_fields run tight, on omega, pi, x and p alike: below 100
    rel_tol on TIMES, and falling at least tenfold per hundredfold tighter
    rel_tol on COARSE_TIMES."""
    for tol, err in zip(TOLERANCES, errors_by_tolerance(
            z0, params, fields, reference_fields, TIMES)):
        assert max(err.values()) < 100.0 * tol, (tol, err)
    errors = errors_by_tolerance(z0, params, fields, reference_fields,
                                 COARSE_TIMES)
    for coarse, fine in zip(errors, errors[1:]):
        for name in BLOCKS:
            assert fine[name] < 0.1 * coarse[name], (name, coarse, fine)


def test_exact_flow_is_the_limit_of_the_stepped_flow(rng):
    """The Dormand-Prince path on a tilted uniform field converges to the
    closed-form path, which steps only theta and phi and is run tight."""
    params = ModelParams()
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    fields = FieldConfig.uniform(B_TILTED)
    assert_converges(z0, params, stepped(fields), fields)


@pytest.mark.parametrize("params, B0", [
    (ModelParams(m=2.0, e=-0.7, mu=1.3, c=1.5, a=0.8), B_TILTED),
    (ModelParams(mu=0.0), B_TILTED),
    (ModelParams(e=0.0), B_TILTED),
    (ModelParams(), (0.0, 0.0, 0.0)),
    (ModelParams(), None),
], ids=["signed_couplings", "no_moment", "no_charge", "zero_uniform", "free"])
def test_exact_flow_matches_the_stepped_flow_in_each_limit(params, B0, rng):
    """Precession and cyclotron rates that differ in size and sign, either
    one zero, and no field at all."""
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    fields = FieldConfig.free() if B0 is None else FieldConfig.uniform(B0)
    exact = integrate(z0, TIMES, params, fields, WOBBLE, tight())
    err = block_errors(integrate(z0, TIMES, params, stepped(fields), WOBBLE,
                                 loose(1e-10)), exact)
    assert max(err.values()) < 1e-8, err


def rotation_matrix(axis, angle):
    """exp(angle K) for the cross-product matrix K of the unit axis."""
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def test_exact_spin_is_the_precessed_start_spin(rng):
    """S(t) = R(-kappa |B| t) S(0) to round-off, whatever the gauge does
    to omega and pi."""
    params = ModelParams(mu=1.3)
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    traj = integrate(z0, TIMES, params, FieldConfig.uniform(B_TILTED), WOBBLE)
    b_norm = np.linalg.norm(B_TILTED)
    axis = np.array(B_TILTED) / b_norm
    want = np.array([rotation_matrix(axis, -params.moment_coupling * b_norm * t)
                     @ traj.spin[0] for t in TIMES])
    assert np.max(np.abs(traj.spin - want)) < 1e-14
    assert np.max(np.abs(traj.residuals)) < 1e-14
    # the fiber angle visibly moves omega off its precessed start
    assert np.max(np.abs(traj.states[:, OMEGA] - traj.states[0, OMEGA])) > 0.1


def test_exact_flow_evaluates_eom_once(rhs_calls, rng):
    """The physical kernel is taken only at the start, for the finiteness
    check of the start derivative; the stepper sees the gauge sector alone."""
    params = ModelParams()
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    integrate(z0, TIMES, params, FieldConfig.uniform(B_TILTED), WOBBLE)
    assert [t for _, t in rhs_calls] == [0.0]


def fiber_angle(traj, z0, params, times):
    """theta at each sample of traj on the B_TILTED field, read back from
    omega against the precessed start pair (omega~, pi~)."""
    b_norm = np.linalg.norm(B_TILTED)
    axis = np.array(B_TILTED) / b_norm
    w0, q0 = z0[OMEGA], z0[PI]
    r = np.linalg.norm(w0) / np.linalg.norm(q0)
    turns = [rotation_matrix(axis, -params.moment_coupling * b_norm * t)
             for t in times]
    w_tilde = np.array([R @ w0 for R in turns])
    q_tilde = np.array([R @ q0 for R in turns])
    w = traj.states[:, OMEGA]
    cos_theta = np.einsum("ij,ij->i", w, w_tilde) / (w0 @ w0)
    sin_theta = np.einsum("ij,ij->i", w, q_tilde) / (r * (q0 @ q0))
    return np.unwrap(np.arctan2(sin_theta, cos_theta))


@pytest.mark.parametrize("gauge", [GaugeFunction.constant(1.3),
                                   parse_gauge_expression("2.6 / 2")],
                         ids=["constant", "parsed"])
def test_constant_gauge_on_a_uniform_field_takes_no_step(monkeypatch, rhs_calls,
                                                        rng, gauge):
    """A gauge built constant, by GaugeFunction.constant or as an
    expression without t, has the fiber angle theta = 2 r tau / phi0 in
    closed form, so nothing is stepped."""
    steps = []
    monkeypatch.setattr(dynamics, "_dp5", lambda *args, **kw: steps.append(args))
    params = ModelParams(mu=1.3)
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    traj = integrate(z0, TIMES, params, FieldConfig.uniform(B_TILTED), gauge)
    assert steps == []
    assert [t for _, t in rhs_calls] == [0.0]

    r = np.linalg.norm(z0[OMEGA]) / np.linalg.norm(z0[PI])
    theta = fiber_angle(traj, z0, params, TIMES)
    assert np.max(np.abs(theta - 2.0 * r * TIMES / 1.3)) < 1e-12
    assert np.all(traj.states[:, PHI] == 1.3)


def wobble_integral(t, eps, omega):
    """The integral of 1 / (1 + eps sin(omega s)) over [0, t], |eps| < 1,
    with the arctan branch advanced by pi at every pole of tan(omega t / 2)."""
    root = np.sqrt(1.0 - eps * eps)
    branch = np.pi * np.floor(omega * t / (2.0 * np.pi) + 0.5)
    return (2.0 / (omega * root)) * (
        np.arctan((np.tan(0.5 * omega * t) + eps) / root) + branch
        - np.arctan(eps / root))


def moving_gauge_errors(z0, params, times, options):
    """The theta error of each integration under WOBBLE (phi = 1 + 0.5 sin
    2t) on the B_TILTED field against theta = 2 r times the closed-form
    integral of 1 / phi; the phi column must be WOBBLE(t) exactly."""
    r = np.linalg.norm(z0[OMEGA]) / np.linalg.norm(z0[PI])
    want = 2.0 * r * wobble_integral(times - times[0], 0.5, 2.0)
    errors = []
    for opts in options:
        traj = integrate(z0, times, params, FieldConfig.uniform(B_TILTED),
                         WOBBLE, opts)
        assert np.array_equal(traj.states[:, PHI], [WOBBLE(t) for t in times])
        errors.append(float(np.max(np.abs(
            fiber_angle(traj, z0, params, times) - want))))
    return errors


def test_moving_gauge_on_a_uniform_field_is_exact(rng):
    """phi = 1 + eps sin(omega t) has the integral of 1 / phi in closed
    form, so in a uniform field the whole state is known: theta is below
    100 rel_tol on COARSE_TIMES and falls at least tenfold per hundredfold
    tighter rel_tol, and on gauge_compare's 800-sample grid at the default
    tolerances it is within 1e-11."""
    params = ModelParams(mu=1.3)
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    errors = moving_gauge_errors(z0, params, COARSE_TIMES,
                                 [loose(tol) for tol in TOLERANCES])
    for tol, err in zip(TOLERANCES, errors):
        assert err < 100.0 * tol, (tol, errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < 0.1 * coarse, errors
    (err,) = moving_gauge_errors(z0, params, np.linspace(0.0, 4.0 * np.pi, 800),
                                 [IntegrationOptions()])
    assert err <= 1e-11, err


def test_exact_flow_ignores_project_every(rng):
    params = ModelParams()
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    fields = FieldConfig.uniform(B_TILTED)
    plain = integrate(z0, TIMES, params, fields, WOBBLE)
    projected = integrate(z0, TIMES, params, fields, WOBBLE,
                          IntegrationOptions(project_every=1))
    assert np.array_equal(plain.states, projected.states)


def test_stepped_flow_converges_in_a_gradient_field():
    """No closed form: the reference is the same field at rel_tol = 1e-13."""
    params = ModelParams()
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.1)
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0], omega=[params.a, 0, 0],
                    pi=[0, params.b, 0])
    assert_converges(z0, params, fields, fields)


# The largest per-sample difference of each block between integrate and the
# unfactored flow, about 2.5 times what was measured when the test was written
# (x 4.0e-13, p 2.8e-13, omega 2.8e-12, pi 2.4e-12, phi 6.7e-15)
UNFACTORED_BOUNDS = {"x": 1e-12, "p": 7e-13, "omega": 7e-12, "pi": 6e-12,
                     "phi": 2e-14}


def test_factored_flow_matches_the_unfactored_equations_of_motion():
    """integrate composes a gauge-blind physical flow with a fiber rotation
    by theta; the reference steps the 14-d eom itself, which shares neither
    the factoring nor the gauge sector, at a tighter tolerance.  phi_dot is
    exact, so eom takes no central difference."""
    params = ModelParams()
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.1)
    times = np.linspace(0.0, 6.0, 200)
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0], omega=[params.a, 0, 0],
                    pi=[0, params.b, 0]).as_array()
    z0[PHI] = WOBBLE(0.0)

    def rhs(y, t):
        return dynamics.eom(y, t, params, fields, WOBBLE).tolist()

    y0 = z0.tolist()
    want, _ = dynamics._dp5(rhs, y0, rhs(y0, 0.0), times, tight(),
                            lambda t: "eom", CANONICAL_PARTICLE.labels)
    got = integrate(z0, times, params, fields, WOBBLE,
                    IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14)).states
    errors = {name: float(np.max(np.abs(got[:, block] - want[:, block])))
              for name, block in {**BLOCKS, "phi": slice(PHI, PHI + 1)}.items()}
    for name, bound in UNFACTORED_BOUNDS.items():
        assert errors[name] <= bound, errors


# The physical sector's canonical pairs (x_i, p_i) and (omega~_i, pi~_i) as
# the symplectic form J on its 12 coordinates (x, p, omega~, pi~)
PHYSICAL_J = np.zeros((12, 12))
for q in (0, 1, 2, 6, 7, 8):
    PHYSICAL_J[q, q + 3], PHYSICAL_J[q + 3, q] = 1.0, -1.0


def symplectic_defect(rhs, u0, times, h=1e-5):
    """max |D^T J D - J| over the sample times, for the Jacobian D of the
    DOP853 flow of rhs from u0, taken by central differences of step h."""
    def flow(u):
        u = u.tolist()
        return dynamics._dop853(rhs, u, rhs(u, times[0]), times, tight(),
                                "physical")

    D = np.stack([(flow(u0 + h * e) - flow(u0 - h * e)) / (2.0 * h)
                  for e in np.eye(12)], axis=-1)
    return float(np.max(np.abs(np.swapaxes(D, -1, -2) @ PHYSICAL_J @ D
                               - PHYSICAL_J)))


def test_physical_flow_is_symplectic():
    """The flow of the physical sector keeps the canonical symplectic form,
    D^T J D = J; a kernel with half the spin force on p does not."""
    params = ModelParams()
    rhs = dynamics._physical_kernel(
        params, FieldConfig.linear_gradient(B0=1.0, gradient=0.05))
    u0 = np.array([0.0, 0.0, 0.0, 0.3, 0.0, 0.0,
                   params.a, 0.0, 0.0, 0.0, params.b, 0.0])
    times = np.linspace(0.0, 2.0, 11)

    def half_spin_force(u, t):
        # p' from u with omega~ = pi~ = 0 lacks the spin force entirely
        full, spinless = rhs(u, t), rhs(u[:6] + [0.0] * 6, t)
        half = [0.5 * (f + g) for f, g in zip(full[3:6], spinless[3:6])]
        return full[:3] + half + full[6:]

    assert symplectic_defect(rhs, u0, times) < 1e-7
    assert symplectic_defect(half_spin_force, u0, times) > 1e-2


def stepped_gauge_sector(r, times, gauge, opts):
    """The gauge sector as the stepper alone takes it, the reference of
    _gauge_sector: theta stepped over the whole grid, phi one call a
    sample."""
    def rhs(theta, t):
        return [2.0 * r / gauge(t)]

    theta, _ = dynamics._dp5(rhs, [0.0], rhs([0.0], times[0].item()), times,
                             opts, lambda t: "", ("theta",))
    return theta, np.array([gauge(t) for t in times.tolist()])


def stepped_gaps(monkeypatch):
    """The start time of every gap a stepper run takes, over all runs."""
    starts = []
    step = dynamics._dp5

    def spy(rhs, y, f, times, *args, **kwargs):
        starts.extend(times[:-1].tolist())
        return step(rhs, y, f, times, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_dp5", spy)
    return starts


WOBBLE_TEXT = "1 + 0.5*sin(2*t)"
# a bump of width 0.01 at t = 7: across it the stepper splits the gaps
SHARP_TEXT = "1 + 0.5*sin(2*t) + 0.5*exp(-10000*(t - 7)*(t - 7))"
GAUGE_COMPARE_TIMES = np.linspace(0.0, 4.0 * np.pi, 800)
STERN_GERLACH_TIMES = np.linspace(0.0, 20.0, 2000)
# a grid across t = 0, where t' + (t_i - t') need not be t_i for a step that
# lands from t' < 0 on t_i: the step reads its last stage at t_i all the same
ACROSS_ZERO_TIMES = np.linspace(-3.0, 3.0, 201)
ACROSS_ZERO_TEXT = "1 + 0.5*sin(2*t) + 0.5*exp(-10000*t*t)"
# the first gap crosses 0, and t0 + (t1 - t0) is the float above t1 =
# 0.001, where this gauge is 1e-9 higher.  Steps that land on t1 read it at
# t1 itself, the stepper's and the landing steps' alike, so the second
# gap's landing step starts from the derivative the stepper holds; one
# that read t0 + (t1 - t0) would not, and the stepper would take that gap.
HELD_TIMES = np.append(-0.02, np.linspace(0.001, 0.101, 21))
HELD_JUMP = HELD_TIMES[0] + (HELD_TIMES[1] - HELD_TIMES[0])
HELD = GaugeFunction(phi=lambda t: (np.where(t == HELD_JUMP, 1.0 + 1e-9, 1.0)
                                    + 0.5 * np.sin(2.0 * t)))
# a grid that starts in (0, t1 / 2), where t0 + (t1 - t0) is not t1 either
EARLY_TIMES = np.append(0.007527354088680521,
                        np.linspace(0.3922364433730868, 10.0, 50))


@pytest.mark.parametrize("gauge, times, opts, stepped_in", [
    (parse_gauge_expression(WOBBLE_TEXT), GAUGE_COMPARE_TIMES,
     IntegrationOptions(), None),
    (WOBBLE, TIMES, tight(), ...),
    *((WOBBLE, grid, loose(tol), ...)
      for grid in (TIMES, COARSE_TIMES) for tol in TOLERANCES),
    (parse_gauge_expression(WOBBLE_TEXT), STERN_GERLACH_TIMES,
     IntegrationOptions(project_every=1), None),
    (parse_gauge_expression(SHARP_TEXT), STERN_GERLACH_TIMES,
     IntegrationOptions(), (6.9, 7.1)),
    # not marked constant, and one float for an array of times
    (GaugeFunction(phi=lambda t: 1.3), TIMES, IntegrationOptions(), None),
    (parse_gauge_expression(ACROSS_ZERO_TEXT), ACROSS_ZERO_TIMES,
     IntegrationOptions(), (-0.1, 0.1)),
    (HELD, HELD_TIMES, IntegrationOptions(), None),
    (parse_gauge_expression(WOBBLE_TEXT), EARLY_TIMES, loose(1e-6), None),
], ids=["gauge_compare", "wobble_tight",
        *(f"wobble_{n}_{tol:g}" for n in (400, 40) for tol in TOLERANCES),
        "projected", "sharp", "float_for_array", "across_zero",
        "held_derivative", "early_start"])
def test_gauge_sector_equals_the_stepper(monkeypatch, gauge, times, opts,
                                         stepped_in):
    """theta and phi of the gauge sector equal, with ==, those of the
    stepper run over the whole grid.  The stepper takes the first gap, and
    stepped_in bounds the start times of the other gaps it takes: None
    where the landing steps take every gap after the first, ... where
    either may take any."""
    r = 2.0 / np.sqrt(3.0)
    want = stepped_gauge_sector(r, times, gauge, opts)
    starts = stepped_gaps(monkeypatch)
    theta, phi = dynamics._gauge_sector(r, times, gauge, opts)
    assert np.array_equal(theta, want[0])
    assert np.array_equal(phi, want[1])
    if stepped_in is None:
        assert starts == [times[0]]
    elif stepped_in is not ...:
        lo, hi = stepped_in
        assert starts[0] == times[0]
        assert all(lo <= t < hi for t in starts[1:]), starts


@pytest.mark.parametrize("times", [HELD_TIMES, EARLY_TIMES],
                         ids=["held_derivative", "early_start"])
def test_first_gap_sum_is_off_the_sample(times):
    """On these grids of the table above a step over the first gap,
    t0 + (t1 - t0), ends a float away from t1."""
    assert times[0] + (times[1] - times[0]) != times[1]


def test_gauge_sector_equals_the_stepper_near_its_thresholds():
    """Error norms and proposed steps at every distance from the stepper's
    thresholds (norm <= 1, gap <= proposed step): rel_tol swept over six
    decades under WOBBLE, and a bump of width 0.01 swept in height, which
    hands over at the first gap across 1 in norm or in step ratio."""
    r = 2.0 / np.sqrt(3.0)
    cases = [(WOBBLE, grid, loose(float(tol)))
             for grid in (TIMES, COARSE_TIMES)
             for tol in np.geomspace(1e-13, 1e-7, 49)]
    cases += [(parse_gauge_expression(
        f"1 + 0.5*sin(2*t) + {float(height)!r}*exp(-10000*(t - 7)*(t - 7))"),
        np.linspace(6.0, 8.0, 201), IntegrationOptions())
        for height in np.geomspace(1e-3, 0.5, 48)]
    for gauge, times, opts in cases:
        want, _ = stepped_gauge_sector(r, times, gauge, opts)
        theta, _ = dynamics._gauge_sector(r, times, gauge, opts)
        assert np.array_equal(theta, want), (gauge.label, opts)


def test_gauge_sector_raises_the_stepper_errors(monkeypatch):
    """The array pass takes no gap where the stepper would raise: a stage
    value of phi below 1e-9 (the second stage, whose value no sum reads),
    a gap too short to step and a step budget spent in mid-grid stop the
    run where the stepper stops."""
    stage = TIMES[3] + 1 / 5 * (TIMES[4] - TIMES[3])
    gauge = GaugeFunction(phi=lambda t: np.where(t == stage, 1e-10, 1.0))
    with pytest.raises(GaugeError, match=r"singular at phi = 1e-10$"):
        dynamics._gauge_sector(1.0, TIMES, gauge, IntegrationOptions())
    r = 2.0 / np.sqrt(3.0)
    tiny_gap = np.append(TIMES, np.nextafter(TIMES[-1], np.inf))
    with pytest.raises(IntegrationError,
                       match=r"^step size underflow at t = 12\.5664 "):
        dynamics._gauge_sector(r, tiny_gap, WOBBLE, IntegrationOptions())
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 50)
    with pytest.raises(IntegrationError) as want:
        stepped_gauge_sector(r, TIMES, WOBBLE, IntegrationOptions())
    with pytest.raises(IntegrationError) as got:
        dynamics._gauge_sector(r, TIMES, WOBBLE, IntegrationOptions())
    assert str(got.value).split(" (")[0] == str(want.value).split(" (")[0]


@pytest.mark.parametrize("seed", range(4))
def test_projected_run_equals_the_stepped_gauge_sector(monkeypatch, seed):
    """The projected benchmark draw at each seed: stern_gerlach's grid and
    field, a start drawn on the surface, a moving gauge and projection
    after every step, integrated with the array pass and with the gauge
    sector stepped alone, gives the same states."""
    params = ModelParams()
    omega, pi = sample_surface_point(np.random.default_rng(seed), a=params.a,
                                     b=params.b)
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0], omega=omega, pi=pi)
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.05)
    gauge = parse_gauge_expression(WOBBLE_TEXT)
    opts = IntegrationOptions(project_every=1)
    traj = integrate(z0, STERN_GERLACH_TIMES, params, fields, gauge, opts)
    monkeypatch.setattr(dynamics, "_gauge_sector", stepped_gauge_sector)
    want = integrate(z0, STERN_GERLACH_TIMES, params, fields, gauge, opts)
    assert np.array_equal(traj.states, want.states)
