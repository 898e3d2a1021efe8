"""The closed-form flow integrate takes in free and uniform fields, pinned
to the Dormand-Prince path on the same field, and the convergence of the
Dormand-Prince path where no closed form exists."""

import numpy as np
import pytest

from spinbundle import dynamics
from spinbundle.cli import parse_gauge_expression
from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    integrate,
)
from spinbundle.phasespace import OMEGA, PHI, PI, P, PhasePoint, X

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


@pytest.mark.parametrize("gauge", [GaugeFunction.constant(1.3),
                                   parse_gauge_expression("2.6 / 2")],
                         ids=["constant", "parsed"])
def test_constant_gauge_on_a_uniform_field_takes_no_step(monkeypatch, rhs_calls,
                                                        rng, gauge):
    """A gauge built constant, by GaugeFunction.constant or as an
    expression without t, has the fiber angle theta = 2 r tau / phi0 in
    closed form, so nothing is stepped.  theta is read back from omega
    against the precessed start pair (omega~, pi~)."""
    steps = []
    monkeypatch.setattr(dynamics, "_dp5", lambda *args, **kw: steps.append(args))
    params = ModelParams(mu=1.3)
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    traj = integrate(z0, TIMES, params, FieldConfig.uniform(B_TILTED), gauge)
    assert steps == []
    assert [t for _, t in rhs_calls] == [0.0]

    b_norm = np.linalg.norm(B_TILTED)
    axis = np.array(B_TILTED) / b_norm
    w0, q0 = z0[OMEGA], z0[PI]
    r = np.linalg.norm(w0) / np.linalg.norm(q0)
    turns = [rotation_matrix(axis, -params.moment_coupling * b_norm * t)
             for t in TIMES]
    w_tilde = np.array([R @ w0 for R in turns])
    q_tilde = np.array([R @ q0 for R in turns])
    w = traj.states[:, OMEGA]
    cos_theta = np.einsum("ij,ij->i", w, w_tilde) / (w0 @ w0)
    sin_theta = np.einsum("ij,ij->i", w, q_tilde) / (r * (q0 @ q0))
    theta = np.unwrap(np.arctan2(sin_theta, cos_theta))
    assert np.max(np.abs(theta - 2.0 * r * TIMES / 1.3)) < 1e-12
    assert np.all(traj.states[:, PHI] == 1.3)


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
