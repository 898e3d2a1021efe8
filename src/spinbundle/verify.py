"""The built-in verification suites.

The suites are property checks over random points, boosts and group
elements, with no time integration. Each takes a validated config and
returns ({check name: value}, metrics, {}); `spinbundle.cli.SCENARIO_CHECKS`
declares the checks and their default thresholds.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import bundle_so3 as so3
from . import constraints as con
from . import lorentz as lor
from .dynamics import ModelParams
from .phasespace import (
    OMEGA,
    PI,
    _dot,
    coordinate,
    poisson_bracket,
    quadratic,
    spin_component,
)


# ---------------------------------------------------------------------------
# Verification suites (random-point property checks)
# ---------------------------------------------------------------------------
#
# Each block draws its points' raw values row by row, with the generator
# calls of the per-point samplers in their order (a uniform(lo, hi) as the
# random() it is made of), and then maps and checks them as one stack per
# map.  The bracket blocks and the t4 classification hand the engine the
# whole stack, one call per block; the gauge group law stays one point at a
# time.

class _Draw(NamedTuple):
    """One part of a point's draws: size values from the generator method
    `method`.  A part a per-point sampler may reject names the rows it keeps
    (kept) and how that sampler draws it (redraw)."""
    method: str
    size: int
    kept: Optional[Callable] = None
    redraw: Optional[Callable] = None


_SURFACE = _Draw("normal", 6, lambda raw: so3.surface_points(raw)[2],
                 so3.surface_draw)
_DIRECTION = _Draw("normal", 3, lor.kept_directions, lor.direction_draw)


def _draw_rows(rng, n: int, *draws: _Draw):
    """n points' draws, one (n, size) array per part, drawn point by point
    as the per-point samplers draw them; a run of parts from one method is
    one call per point, which consumes the generator alike.

    If any row holds a draw a sampler would reject, the generator goes back
    to its state before the block and every part of every row is drawn again
    as the samplers draw it, so the stream stays theirs.
    """
    state = rng.bit_generator.state
    rows, calls = [], []
    for method, run in groupby(draws, key=lambda draw: draw.method):
        sizes = [draw.size for draw in run]
        buf = np.empty((n, sum(sizes)))
        edges = np.cumsum([0] + sizes)
        rows += [buf[:, lo:hi] for lo, hi in zip(edges, edges[1:])]
        calls.append((getattr(rng, method), buf.shape[1], buf))
    for i in range(n):
        for call, size, buf in calls:
            buf[i] = call(size=size)
    if all(draw.kept is None or np.all(draw.kept(row))
           for draw, row in zip(draws, rows)):
        return rows
    rng.bit_generator.state = state
    for i in range(n):
        for draw, row in zip(draws, rows):
            row[i] = (draw.redraw(rng) if draw.redraw
                      else getattr(rng, draw.method)(size=draw.size))
    return rows


def _worst(values) -> float:
    """Largest absolute value over a stack of check values; 0.0 when the
    stack is empty, nan when any value is nan."""
    return float(np.max(np.abs(values), initial=0.0))


def _worst_entry(values):
    """_worst as max() over numpy entries from 0.0 gives it: a numpy scalar,
    or 0.0 when every entry is 0."""
    return np.float64(_worst(values)) or 0.0


def _boosted_points(rng, n: int, beta_max: float, rest_points,
                    radius_draws: int = 0, draw_mass: bool = True):
    """n boosted points (omega, pi, P), as three (n, 4) stacks. Each point
    draws its mass in [0.5, 2) (or takes unit mass), then its rest point and
    then its velocity; rest_points(u, raw, mass) maps the rest points'
    radius_draws random() draws u and their raw surface draws."""
    m = int(draw_mass)
    u, raw, direction, speed = _draw_rows(
        rng, n, _Draw("random", m + radius_draws), _SURFACE, _DIRECTION,
        _Draw("random", 1))
    mass = so3.uniform_from(u[:, 0], 0.5, 2.0) if draw_mass else 1.0
    rest = np.stack(rest_points(u[:, m:], raw, mass))
    beta = lor.velocities(direction,
                          so3.uniform_from(speed[:, 0], 0.0, beta_max))
    # each boost applied to its own point's three four-vectors
    return tuple(np.matmul(lor.boost_matrix(beta), rest[..., None])[..., 0])


def _scale_free_points(rng, n: int, a: float, *after: _Draw):
    """n points of the scale-free surface omega^2 pi^2 = a, each of radius
    |omega| in [0.7, 1.5), and the draws in after of each point."""
    u, raw, *rest = _draw_rows(rng, n, _Draw("random", 1), _SURFACE, *after)
    radius = so3.uniform_from(u[:, 0], 0.7, 1.5)
    w, p, _ = so3.surface_points(raw, radius, np.sqrt(a) / radius)
    return (w, p, *rest)


def _random_quadratic(rng, dim: int = 14):
    A = rng.standard_normal((dim, dim))
    return quadratic(0.5 * (A + A.T), rng.standard_normal(dim),
                     float(rng.standard_normal()), name="random quadratic")


def verify_so3(cfg: dict) -> Tuple[Dict[str, float], dict, dict]:
    """Euclidean-sector suite: spin bracket algebra, Dirac annihilation,
    bundle identification, Casimir normalization, rank, gauge group law."""
    rng = np.random.default_rng(cfg.get("seed", 0))
    params = ModelParams(**cfg.get("params", {}))
    a, b = params.a, params.b
    pair = con.second_class_pair(a)
    S = [spin_component(i) for i in range(3)]

    def sample_states(n):
        """n phase points on the pair's surface, as the rows of a stack."""
        raw, x, u = _draw_rows(rng, n, _SURFACE, _Draw("standard_normal", 6),
                               _Draw("random", 1))
        z = np.zeros((n, 14))
        z[:, :6] = x
        z[:, OMEGA], z[:, PI], _ = so3.surface_points(raw, a, b)
        z[:, 12] = 1.0 + so3.uniform_from(u[:, 0], 0.0, 1.0)
        return z

    # spin algebra under both brackets, and the Dirac brackets of omega, pi
    n_alg = cfg.get("n_points", 100)
    z = sample_states(n_alg)
    w = z[:, OMEGA]
    spin = so3.spin_map(w, z[:, PI])
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    alg_poisson = _worst([poisson_bracket(S[i], S[j], z) - spin[:, k]
                          for i, j, k in cyclic])
    spin_dirac = con.dirac_brackets(S, S, pair, z)
    alg_dirac = _worst_entry([spin_dirac[:, i, j] - spin[:, k]
                              for i, j, k in cyclic])
    omega_pi = con.dirac_brackets([coordinate(6 + i) for i in range(3)],
                                  [coordinate(9 + j) for j in range(3)],
                                  pair, z)
    omega_pi_err = _worst_entry(
        omega_pi - (np.eye(3) - w[:, :, None] * w[:, None, :] / (a * a)))

    # Dirac bracket annihilates the second-class pair
    observables = [_random_quadratic(rng) for _ in range(20)]
    phis = [c.func for c in pair.constraints]
    annihilation = _worst_entry(
        con.dirac_brackets(phis, observables, pair, sample_states(50)))

    # bundle identification (normalized chart) and structure-group invariance
    n_bundle = cfg.get("n_boosts", 1000)
    raw_n, raw, u = _draw_rows(rng, n_bundle, _SURFACE, _SURFACE,
                               _Draw("random", 1))
    wn, pn, _ = so3.surface_points(raw_n)
    w, p, _ = so3.surface_points(raw, a, b)
    beta = so3.uniform_from(u[:, 0], 0.0, 2.0 * np.pi)
    R = so3.rotation_matrix(wn, pn)
    rot_err = _worst([_worst(R @ np.swapaxes(R, -1, -2) - np.eye(3)),
                      _worst(np.linalg.det(R) - 1.0)])
    inv_err = _worst(so3.spin_map(*so3.so2_action(w, p, beta))
                     - so3.spin_map(w, p))

    # Casimir identity at generic points; normalization on-surface
    w, p = _draw_rows(rng, n_alg, _Draw("standard_normal", 3),
                      _Draw("standard_normal", 3))
    spin = so3.spin_map(w, p)
    casimir_err = _worst(_dot(spin, spin)
                         - (_dot(w, w) * _dot(p, p) - _dot(w, p) ** 2))
    w, p, _ = so3.surface_points(*_draw_rows(rng, n_alg, _SURFACE), a, b)
    spin = so3.spin_map(w, p)
    norm_err = _worst(_dot(spin, spin) - params.spin_norm_sq)

    # rank of the bundle projection: worst ratio past the expected rank,
    # with the numerical floor standing in when the Jacobian has no further
    # singular values (a 3 x 6 map has exactly three)
    eps = float(np.finfo(float).eps)
    w, p, _ = so3.surface_points(*_draw_rows(rng, n_alg, _SURFACE), a, b)
    sv = so3.jacobian_singular_values(w, p, kind="so3")
    rank_ratio = _worst([float(np.any(so3._numerical_rank(sv) != 3)),
                         _worst(eps * (sv[:, 0] / sv[:, 2]))])

    # gauge-matrix group law
    group_errs = []
    for _ in range(n_alg):
        g = so3.GaugeMatrix.from_multipliers(
            phi=1.0 + rng.uniform(0.0, 2.0),
            lambda1=rng.standard_normal(),
            lambda3=rng.standard_normal(),
        )
        b1, b2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        d1, d2 = rng.standard_normal(2)
        two_step = so3.gauge_matrix_transform(
            so3.gauge_matrix_transform(g, b1, d1), b2, d2)
        one_step = so3.gauge_matrix_transform(g, b1 + b2, d1 + d2)
        group_errs.append(two_step.matrix - one_step.matrix)
    group_err = _worst(group_errs)

    values = {
        "spin_algebra_poisson": alg_poisson, "spin_algebra_dirac": alg_dirac,
        "dirac_omega_pi": omega_pi_err, "dirac_annihilation": annihilation,
        "rotation_orthogonality": rot_err, "so2_invariance": inv_err,
        "casimir_identity": casimir_err, "spin_normalization": norm_err,
        "so3_rank_ratio": rank_ratio, "gauge_group_law": group_err,
    }
    return values, {"points": float(n_alg)}, {}


def verify_lorentz(cfg: dict) -> Tuple[Dict[str, float], dict, dict]:
    """Covariant suite: boost invariance of both surfaces, Casimir, Frenkel
    condition, base ellipsoid, tetrad pseudo-orthogonality, BMT round trip."""
    rng = np.random.default_rng(cfg.get("seed", 0))
    beta_max = cfg.get("boost", {}).get("beta_max", 0.99)
    a3 = a4 = lor.DEFAULT_SURFACE_SCALE

    n_points = cfg.get("n_points", 200)

    def rest_points(u, raw, mass):
        return lor.t3_rest_points(raw, a3, a4, mass)
    casimir_target = 8.0 * a3 * a4
    w, p, P = _boosted_points(rng, cfg.get("n_boosts", 1000), beta_max,
                              rest_points)
    t3_err = _worst(lor.t3_constraints(w, p, P, a3=a3, a4=a4))
    J = lor.spin_tensor(w, p)
    casimir_err = _worst(lor.casimir(J) - casimir_target)
    frenkel = lor.frenkel_residual(J, P)
    frenkel_err = _worst(np.sqrt(_dot(frenkel, frenkel)))
    _, j = lor.decompose_spin_tensor(J)
    ellipsoid_err = _worst(lor.base_ellipsoid_residual(j, P))

    w, p, P = _boosted_points(rng, n_points, beta_max, rest_points)
    lam = lor.tetrad(P, w, p, a3=a3, a4=a4)
    tetrad_err = _worst(lam @ lor.METRIC @ np.swapaxes(lam, -1, -2)
                        - lor.METRIC)

    w, p, P = _boosted_points(rng, n_points, beta_max, rest_points)
    _, j = lor.decompose_spin_tensor(lor.spin_tensor(w, p))
    S = lor.j_to_bmt(j, P)
    bmt_err = _worst(lor.bmt_to_j(S, P) - j)
    orth_err = _worst(lor.minkowski_dot(S, P))

    w, p, _ = _boosted_points(rng, n_points // 2, beta_max, rest_points,
                              draw_mass=False)
    sv = so3.jacobian_singular_values(w, p, kind="so13")
    rank_ratio = _worst([float(np.any(so3._numerical_rank(sv) != 5)),
                         _worst(sv[:, 5] / sv[:, 4])])

    values = {
        "t3_boost_residual": t3_err, "casimir_deviation": casimir_err,
        "frenkel_residual": frenkel_err, "ellipsoid_residual": ellipsoid_err,
        "tetrad_identity": tetrad_err, "bmt_round_trip": bmt_err,
        "bmt_orthogonality": orth_err, "so13_rank_ratio": rank_ratio,
    }
    return values, {"boosts": float(cfg.get("n_boosts", 1000))}, {}


def verify_t4(cfg: dict) -> Tuple[Dict[str, float], dict, dict]:
    """Scale-free-surface suite: first-class pair, boost invariance, and the
    two-parameter structure-group action leaving the spin fixed."""
    rng = np.random.default_rng(cfg.get("seed", 0))
    beta_max = cfg.get("boost", {}).get("beta_max", 0.99)
    a = cfg.get("params", {}).get("a", 0.75)
    tset = con.t4_surface_set(a)

    n_pts = cfg.get("n_points", 100)
    z = np.zeros((n_pts, 14))
    z[:, OMEGA], z[:, PI] = _scale_free_points(rng, n_pts, a)
    z[:, 12] = 1.0
    results = con.classify(tset, z)
    misclassified = float(sum(len(r.first_class) < len(tset) for r in results))
    bracket_err = _worst([r.bracket.delta for r in results])

    n_boosts = cfg.get("n_boosts", 1000)

    def rest_points(u, raw, mass):
        return lor.t4_rest_points(u[:, 0], raw, a, mass)

    boost_err = _worst(lor.t4_constraints(
        *_boosted_points(rng, n_boosts, beta_max, rest_points,
                         radius_draws=1), a=a))

    w, p, u = _scale_free_points(rng, n_boosts, a, _Draw("random", 2))
    k = np.exp(so3.uniform_from(u[:, 0], -1.0, 1.0))
    beta = so3.uniform_from(u[:, 1], 0.0, 2.0 * np.pi)
    w2, p2 = lor.t4_structure_action(w, p, k, beta)
    action_spin_err = _worst(so3.spin_map(w2, p2) - so3.spin_map(w, p))
    action_surface_err = _worst([_worst(_dot(w2, p2)),
                                 _worst(_dot(p2, p2) - a / _dot(w2, w2))])

    values = {
        "first_class_misclassified": misclassified,
        "constraint_bracket_residual": bracket_err,
        "t4_boost_residual": boost_err,
        "structure_action_spin": action_spin_err,
        "structure_action_surface": action_surface_err,
    }
    return values, {"points": float(n_pts)}, {}
