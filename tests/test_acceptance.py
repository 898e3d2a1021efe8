"""End-to-end verification battery for the package.

Each test pins one of the headline guarantees: bracket algebra closure,
Dirac-bracket annihilation, the bundle identification, Casimir values,
boost invariance, tetrad pseudo-orthogonality, covariant spin round trips,
precession and drift bounds for the integrator, gauge independence of
observables, map ranks, the gauge-matrix group law, and the stepped
sector against a tight reference. Tolerances here are contractual; do not
loosen them to make a regression pass.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinbundle.bundle_so3 as so3
import spinbundle.constraints as con
import spinbundle.dynamics as dyn
import spinbundle.lorentz as lor
from spinbundle.dynamics import (
    FieldConfig,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    fit_rotation_frequency,
    integrate,
)
from spinbundle.phasespace import (
    OMEGA,
    PI,
    coordinate,
    poisson_bracket,
    quadratic,
    spin_component,
)
from spinbundle.phasespace import PhasePoint

A3 = A4 = lor.DEFAULT_SURFACE_SCALE  # sqrt(3)/2, so 8 a3 a4 = 6

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0


def surface_state(rng, a=1.0, b=None):
    """Flat 14-vector on the physical spin surface with random x, p, phi."""
    if b is None:
        b = con.default_pi_norm(a)
    w, p = so3.sample_surface_point(rng, a=a, b=b)
    z = np.zeros(14)
    z[:6] = rng.standard_normal(6)
    z[OMEGA], z[PI] = w, p
    z[12] = 1.0 + rng.uniform(0.0, 1.0)
    return z


def boosted_t3_point(rng):
    w, p, P = lor.sample_t3_rest_point(rng)
    L = lor.boost_matrix(lor.sample_beta(rng, beta_max=0.99))
    return L @ w, L @ p, L @ P


# ---------------------------------------------------------------------------
# 1. spin bracket algebra closes under both brackets
# ---------------------------------------------------------------------------

def test_spin_bracket_algebra(rng):
    S = [spin_component(i) for i in range(3)]
    pair = con.second_class_pair(1.0)
    worst_poisson = 0.0
    worst_dirac = 0.0
    for _ in range(100):
        z = surface_state(rng)
        s_val = np.cross(z[OMEGA], z[PI])
        for i in range(3):
            for j in range(3):
                want = float(EPS[i, j] @ s_val)
                pb = poisson_bracket(S[i], S[j], z)
                db = con.dirac_bracket(S[i], S[j], pair, z)
                worst_poisson = max(worst_poisson, abs(pb - want))
                worst_dirac = max(worst_dirac, abs(db - want))
    assert worst_poisson < 1e-8, worst_poisson
    assert worst_dirac < 1e-8, worst_dirac


# ---------------------------------------------------------------------------
# 2. Dirac bracket annihilates the second-class constraints
# ---------------------------------------------------------------------------

def test_dirac_bracket_annihilation(rng):
    pair = con.second_class_pair(1.0)
    observables = []
    for n in range(20):
        A = rng.standard_normal((14, 14))
        observables.append(quadratic(0.5 * (A + A.T), rng.standard_normal(14),
                                     float(rng.standard_normal()),
                                     name=f"probe{n}"))
    worst = 0.0
    for _ in range(50):
        z = surface_state(rng)
        for phi_a in pair:
            for obs in observables:
                worst = max(worst, abs(con.dirac_bracket(
                    phi_a.func, obs, pair, z)))
    assert worst < 1e-8, worst


def test_dirac_bracket_omega_pi(rng):
    pair = con.second_class_pair(1.0)
    worst = 0.0
    for _ in range(50):
        z = surface_state(rng)
        w = z[OMEGA]
        want = np.eye(3) - np.outer(w, w) / np.dot(w, w)
        got = np.array([
            [con.dirac_bracket(coordinate(OMEGA.start + i),
                               coordinate(PI.start + j), pair, z)
             for j in range(3)]
            for i in range(3)])
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-8, worst


# ---------------------------------------------------------------------------
# 3. bundle identification: rotations and the structure-group action
# ---------------------------------------------------------------------------

def test_rotation_matrix_is_special_orthogonal(rng):
    worst = 0.0
    for _ in range(1000):
        w, p = so3.sample_surface_point(rng, a=1.0, b=1.0)
        R = so3.rotation_matrix(w, p)
        worst = max(worst,
                    float(np.max(np.abs(R @ R.T - np.eye(3)))),
                    abs(np.linalg.det(R) - 1.0))
    assert worst < 1e-10, worst


def test_spin_map_invariant_under_fiber_rotation(rng):
    worst = 0.0
    for _ in range(1000):
        w, p = so3.sample_surface_point(rng, a=1.0,
                                        b=con.default_pi_norm(1.0))
        beta = rng.uniform(0.0, 2.0 * np.pi)
        w2, p2 = so3.so2_action(w, p, beta)
        worst = max(worst, float(np.max(np.abs(
            so3.spin_map(w2, p2) - so3.spin_map(w, p)))))
    assert worst < 1e-12, worst


# ---------------------------------------------------------------------------
# 4. Casimir identity and spin normalization
# ---------------------------------------------------------------------------

def test_spin_norm_identity_generic(rng):
    worst = 0.0
    for _ in range(200):
        w, p = rng.standard_normal((2, 3))
        s_sq = float(np.dot(np.cross(w, p), np.cross(w, p)))
        want = np.dot(w, w) * np.dot(p, p) - np.dot(w, p) ** 2
        worst = max(worst, abs(s_sq - want))
    assert worst < 1e-10, worst


def test_spin_normalization_on_surface(rng):
    # b^2 = 3 hbar^2 / (4 a^2) forces |S|^2 = 3 hbar^2 / 4 = 0.75 at hbar = 1
    params = ModelParams()
    assert_allclose(params.b ** 2, 0.75, atol=1e-15)
    worst = 0.0
    for _ in range(200):
        z = surface_state(rng, a=params.a, b=params.b)
        s = np.cross(z[OMEGA], z[PI])
        worst = max(worst, abs(float(np.dot(s, s)) - 0.75))
    assert worst < 1e-10, worst


# ---------------------------------------------------------------------------
# 5. boost invariance of the covariant surfaces and scalars
# ---------------------------------------------------------------------------

def test_boost_invariance(rng):
    worst = {"t3": 0.0, "t4": 0.0, "casimir": 0.0, "frenkel": 0.0,
             "ellipsoid": 0.0}
    for _ in range(1000):
        w, p, P = boosted_t3_point(rng)
        J = lor.spin_tensor(w, p)
        k, j = lor.decompose_spin_tensor(J)
        worst["t3"] = max(worst["t3"], float(np.max(np.abs(
            lor.t3_constraints(w, p, P)))))
        worst["casimir"] = max(worst["casimir"],
                               abs(lor.casimir(J) - 8.0 * A3 * A4))
        worst["frenkel"] = max(worst["frenkel"], float(np.max(np.abs(
            lor.frenkel_residual(J, P)))))
        worst["ellipsoid"] = max(worst["ellipsoid"],
                                 abs(lor.base_ellipsoid_residual(j, P)))

        w4, p4, P4 = lor.sample_t4_rest_point(rng)
        L = lor.boost_matrix(lor.sample_beta(rng, beta_max=0.99))
        worst["t4"] = max(worst["t4"], float(np.max(np.abs(
            lor.t4_constraints(L @ w4, L @ p4, L @ P4)))))
    for name, value in worst.items():
        assert value < 1e-9, (name, value)


# ---------------------------------------------------------------------------
# 6. tetrad pseudo-orthogonality
# ---------------------------------------------------------------------------

def test_tetrad_pseudo_orthogonality(rng):
    eta = lor.METRIC
    worst = 0.0
    for _ in range(200):
        w, p, P = boosted_t3_point(rng)
        L = lor.tetrad(P, w, p)
        worst = max(worst, float(np.max(np.abs(L @ eta @ L.T - eta))))
    assert worst < 1e-9, worst


# ---------------------------------------------------------------------------
# 7. covariant spin round trip
# ---------------------------------------------------------------------------

def test_bmt_round_trip(rng):
    worst_trip = 0.0
    worst_orth = 0.0
    for _ in range(200):
        w, p, P = boosted_t3_point(rng)
        _, j = lor.decompose_spin_tensor(lor.spin_tensor(w, p))
        S = lor.j_to_bmt(j, P)
        worst_trip = max(worst_trip, float(np.max(np.abs(
            lor.bmt_to_j(S, P) - j))))
        worst_orth = max(worst_orth, abs(lor.minkowski_dot(S, P)))
    assert worst_trip < 1e-10, worst_trip
    assert worst_orth < 1e-12, worst_orth


# ---------------------------------------------------------------------------
# 8 & 9. precession frequencies and constraint drift over ten periods
# ---------------------------------------------------------------------------

LARMOR_PERIODS = 10
LARMOR_END = LARMOR_PERIODS * 2.0 * np.pi  # unit frequency at unit couplings


def larmor_trajectory(project_every=0):
    params = ModelParams()
    z0 = PhasePoint(x=[0, 0, 0], p=[1, 0, 0],
                    omega=[params.a, 0, 0], pi=[0, 0, params.b])
    opts = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12,
                              project_every=project_every)
    return params, integrate(z0, np.linspace(0.0, LARMOR_END, 2000), params,
                             FieldConfig.uniform((0.0, 0.0, 1.0)),
                             GaugeFunction.constant(1.0), opts)


@pytest.fixture(scope="module")
def larmor_unprojected():
    return larmor_trajectory()


@pytest.fixture(scope="module")
def larmor_projected():
    return larmor_trajectory(project_every=1)


def test_larmor_spin_frequency(larmor_unprojected):
    params, traj = larmor_unprojected
    expected = params.moment_coupling * 1.0  # mu e B0 / (m c)
    fit = fit_rotation_frequency(traj.times, traj.spin[:, 0])
    assert abs(fit.omega - expected) / expected < 1e-6


def test_larmor_cyclotron_frequency(larmor_unprojected):
    params, traj = larmor_unprojected
    expected = abs(params.e) * 1.0 / (params.m * params.c)
    fit = fit_rotation_frequency(traj.times, traj.states[:, 0])
    assert abs(fit.omega - expected) / expected < 1e-6


def test_constraint_drift_without_projection(larmor_unprojected):
    _, traj = larmor_unprojected
    assert float(np.max(np.abs(traj.residuals))) < 1e-6


def test_constraint_drift_with_projection(larmor_projected):
    _, traj = larmor_projected
    assert float(np.max(np.abs(traj.residuals))) < 1e-10


# ---------------------------------------------------------------------------
# 10. observables do not depend on the gauge choice
# ---------------------------------------------------------------------------

def test_gauge_independence_of_observables():
    params = ModelParams()
    fields = FieldConfig.uniform((0.0, 0.0, 1.0))
    t_end = 4.0 * np.pi
    opts = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12)
    times = np.linspace(0.0, t_end, 800)
    z0 = PhasePoint(x=[0, 0, 0], p=[1, 0, 0],
                    omega=[params.a, 0, 0], pi=[0, 0, params.b])
    constant = integrate(z0, times, params, fields,
                         GaugeFunction.constant(1.0), opts)
    wobbling = integrate(z0, times, params, fields,
                         GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t),
                                       phi_dot=lambda t: np.cos(2 * t)),
                         opts)
    spin_gap = float(np.max(np.abs(constant.spin - wobbling.spin)))
    pos_gap = float(np.max(np.abs(constant.states[:, :3]
                                  - wobbling.states[:, :3])))
    gauge_gap = float(np.max(np.abs(constant.states[:, OMEGA]
                                    - wobbling.states[:, OMEGA])))
    assert spin_gap < 1e-6, spin_gap
    assert pos_gap < 1e-6, pos_gap
    assert gauge_gap > 0.1, gauge_gap


# ---------------------------------------------------------------------------
# 11. numerical ranks of the two quotient maps
# ---------------------------------------------------------------------------

def test_spin_map_rank(rng):
    eps = np.finfo(float).eps
    for _ in range(100):
        w, p = rng.standard_normal((2, 3)) + np.array([[2.0], [0.0]])
        assert so3.jacobian_rank(w, p, kind="so3") == 3
        sv = so3.jacobian_singular_values(w, p, kind="so3")
        # full row rank: the smallest of the 3 values sits >= 6 orders
        # above the float-precision floor of the largest
        assert sv[2] >= 1e6 * eps * sv[0], sv


def test_covariant_map_rank(rng):
    for _ in range(100):
        w, p = rng.standard_normal((2, 4))
        assert so3.jacobian_rank(w, p, kind="so13") == 5
        sv = so3.jacobian_singular_values(w, p, kind="so13")
        assert sv[4] >= 1e6 * sv[5], sv


# ---------------------------------------------------------------------------
# 12. gauge-matrix group law
# ---------------------------------------------------------------------------

def test_gauge_matrix_group_law(rng):
    worst = 0.0
    for _ in range(100):
        g = so3.GaugeMatrix.from_multipliers(
            phi=1.0 + rng.uniform(0.0, 2.0),
            lambda1=rng.standard_normal(),
            lambda3=rng.standard_normal())
        b1, b2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        d1, d2 = rng.standard_normal(2)
        two_step = so3.gauge_matrix_transform(
            so3.gauge_matrix_transform(g, b1, d1), b2, d2)
        one_step = so3.gauge_matrix_transform(g, b1 + b2, d1 + d2)
        worst = max(worst, float(np.max(np.abs(
            two_step.matrix - one_step.matrix))))
    assert worst < 1e-12, worst


# ---------------------------------------------------------------------------
# 13. the stepped sector at default tolerances against a tight reference
# ---------------------------------------------------------------------------

# stern_gerlach's shipped field and start, as configs/stern_gerlach.yaml runs
# them, and the same under a moving gauge with projection after every step
STERN_GERLACH_CASES = {
    "shipped": (GaugeFunction.constant(1.0), 0),
    "wobbling_projected": (
        GaugeFunction(phi=lambda t: 1.0 + 0.5 * np.sin(2 * t),
                      phi_dot=lambda t: np.cos(2 * t)), 1),
}


@pytest.mark.parametrize("case", list(STERN_GERLACH_CASES))
def test_stepped_sector_matches_a_tight_reference(case, monkeypatch):
    """A gradient field has no closed form, so the physical sector is
    stepped; its states at the default tolerances lie within 1e-11 of a run
    at rel_tol 1e-13, abs_tol 1e-15."""
    gauge, project_every = STERN_GERLACH_CASES[case]
    stepped = []
    dop853 = dyn._dop853

    def counted(*args):
        stepped.append(args)
        return dop853(*args)

    monkeypatch.setattr(dyn, "_dop853", counted)
    start = PhasePoint(x=[0, 0, 0], p=[0.3, 0, 0], omega=[1.0, 0, 0],
                       pi=[0, 0.8660254037844386, 0])
    field = FieldConfig.linear_gradient(B0=1.0, gradient=0.05)
    times = np.linspace(0.0, 20.0, 2000)

    def run(**tolerances):
        opts = IntegrationOptions(**tolerances, project_every=project_every)
        return integrate(start, times, ModelParams(), field, gauge, opts)

    default, tight = run(), run(rel_tol=1e-13, abs_tol=1e-15)
    assert len(stepped) == 2
    err = float(np.max(np.abs(default.states - tight.states)))
    assert err < 1e-11, err
