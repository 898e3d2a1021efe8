"""The closed-form flow integrate takes in free and uniform fields, pinned
to the Dormand-Prince path on the same field, and the convergence of the
Dormand-Prince path where no closed form exists."""

import numpy as np
import pytest

from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    integrate,
)
from spinbundle.phasespace import OMEGA, PI, P, PhasePoint, X

from conftest import random_phase_state

B_TILTED = (0.3, -0.4, 1.1)
WOBBLE = GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
                       phi_dot=lambda t: np.cos(2.0 * t), label="1 + 0.5 sin 2t")
TIMES = np.linspace(0.0, 4.0 * np.pi, 400)
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


def errors_by_tolerance(z0, params, fields, reference):
    return [block_errors(integrate(z0, TIMES, params, fields, WOBBLE, loose(tol)),
                         reference)
            for tol in TOLERANCES]


def test_exact_flow_is_the_limit_of_the_stepped_flow(rng):
    """Per-sample error of the Dormand-Prince path on a tilted uniform field
    against the closed-form path, which steps only theta and phi and is run
    tight: below 100 rel_tol and falling at least tenfold per hundredfold
    tighter rel_tol, on omega, pi, x and p alike."""
    params = ModelParams()
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    fields = FieldConfig.uniform(B_TILTED)
    exact = integrate(z0, TIMES, params, fields, WOBBLE, tight())
    errors = errors_by_tolerance(z0, params, stepped(fields), exact)
    for tol, err in zip(TOLERANCES, errors):
        assert max(err.values()) < 100.0 * tol, (tol, err)
    for coarse, fine in zip(errors, errors[1:]):
        for name in BLOCKS:
            assert fine[name] < 0.1 * coarse[name], (name, coarse, fine)


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
    """The full right-hand side is taken only at the start, for its
    finiteness check; the stepper sees the gauge sector alone."""
    params = ModelParams()
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    integrate(z0, TIMES, params, FieldConfig.uniform(B_TILTED), WOBBLE)
    assert [t for _, t in rhs_calls] == [0.0]


def test_exact_flow_ignores_project_every(rng):
    params = ModelParams()
    z0 = random_phase_state(rng, a=params.a, b=params.b)
    fields = FieldConfig.uniform(B_TILTED)
    plain = integrate(z0, TIMES, params, fields, WOBBLE)
    projected = integrate(z0, TIMES, params, fields, WOBBLE,
                          IntegrationOptions(project_every=1))
    assert np.array_equal(plain.states, projected.states)


def test_stepped_flow_converges_in_a_gradient_field():
    """No closed form: the error against a rel_tol = 1e-13 run falls at
    least tenfold per hundredfold tighter rel_tol."""
    params = ModelParams()
    fields = FieldConfig.linear_gradient(B0=1.0, gradient=0.1)
    z0 = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0], omega=[params.a, 0, 0],
                    pi=[0, params.b, 0])
    reference = integrate(z0, TIMES, params, fields, WOBBLE, tight())
    errors = errors_by_tolerance(z0, params, fields, reference)
    for tol, err in zip(TOLERANCES, errors):
        assert max(err.values()) < 100.0 * tol, (tol, err)
    for coarse, fine in zip(errors, errors[1:]):
        for name in BLOCKS:
            assert fine[name] < 0.1 * coarse[name], (name, coarse, fine)
