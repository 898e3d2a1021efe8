"""The closed-form dynamics kernels pinned to their references: the
multiplier to the Poisson-engine solve, the right-hand side to the
np.cross formulation, and the batched trajectory post-processing to the
per-sample functions."""

import numpy as np
import pytest

from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    _multiplier,
    eom,
    integrate,
    physical_hamiltonian,
    second_order_residual,
    solve_multiplier,
)
from spinbundle.errors import DomainError
from spinbundle.phasespace import OMEGA, P, PHI, PI, PI_PHI, X

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


def _with_arrays(fields):
    """The same field with every callable returning a float array, as the
    per-sample reference functions expect."""
    wrap = lambda fn: (lambda x: np.asarray(fn(x), dtype=float))
    return FieldConfig(kind=fields.kind, B=wrap(fields.B), A=wrap(fields.A),
                       grad_B=wrap(fields.grad_B), grad_A=wrap(fields.grad_A))


FIELDS = {
    "free": FieldConfig.free(),
    "uniform_tilted": FieldConfig.uniform((0.2, -0.5, 1.0)),
    "linear_gradient": FieldConfig.linear_gradient(B0=1.0, gradient=0.1),
    "custom_lists": _list_field(),
}


def reference_eom(z, t, params, fields, gauge):
    """The right-hand side with the engine-solved multiplier and np.cross;
    fields must return arrays."""
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
    """Per-row norm of m x'' - (e/c) x' x B - (mu e/m c) (grad B) S;
    fields must return arrays."""
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
    ref_fields = _with_arrays(fields)
    worst = 0.0
    for _ in range(N_STATES):
        z = random_phase_state(rng, a=PARAMS.a, b=PARAMS.b)
        t = rng.uniform(0.0, 10.0)
        got = eom(z, t, PARAMS, fields, WOBBLE)
        worst = max(worst, float(np.max(np.abs(
            got - reference_eom(z, t, PARAMS, ref_fields, WOBBLE)))))
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
    opts = IntegrationOptions(t_eval=np.linspace(0.0, 2.0, 60))
    traj = integrate(z0, (0.0, 2.0), PARAMS, fields, WOBBLE, opts)

    ref_fields = _with_arrays(fields)
    h_rows = [physical_hamiltonian(s, PARAMS, ref_fields) for s in traj.states]
    lam_rows = [solve_multiplier(s, PARAMS, fields=fields, check_surface=False)
                for s in traj.states]
    assert np.max(np.abs(traj.h_phys - h_rows)) <= ATOL
    assert np.max(np.abs(traj.lambda1 - lam_rows)) <= ATOL
    assert np.max(np.abs(
        second_order_residual(traj, PARAMS, fields)
        - reference_second_order_residual(traj, PARAMS, ref_fields))) <= ATOL
