"""Constrained-Hamiltonian vector model of classical spin.

Spin is carried by a canonical vector pair (omega, pi) confined to a
constraint surface; the composed moment S = omega x pi obeys the rotation
algebra under both Poisson and Dirac brackets, lives on a fiber bundle over
the sphere, extends to a Lorentz-covariant tensor with its own constraint
surfaces, and precesses correctly in magnetic fields under gauge-invariant
dynamics.
"""

from .errors import (
    ChartDomainError,
    DegenerateConstraintError,
    DomainError,
    GaugeError,
    GradientError,
    IntegrationError,
    OffSurfaceWarning,
    ProjectionError,
    SpinBundleError,
    SuperluminalError,
    SurfaceError,
)
from .phasespace import (
    CANONICAL_PARTICLE,
    MINKOWSKI_SPIN,
    CanonicalStructure,
    Observable,
    PhasePoint,
    coordinate,
    gradient,
    poisson_bracket,
    quadratic,
    spin_component,
)
from .constraints import (
    BracketMatrix,
    Classification,
    Constraint,
    ConstraintSet,
    classify,
    constraint_matrix,
    dirac_bracket,
    dirac_brackets,
    evaluate,
    pauli_model_set,
    project,
    second_class_pair,
    spin_surface_set,
    t4_surface_set,
)
from .bundle_so3 import (
    GaugeMatrix,
    gauge_matrix_transform,
    jacobian_rank,
    local_coords,
    normalize_to_surface,
    rotation_matrix,
    sample_surface_point,
    so2_action,
    spin_map,
)
from .lorentz import (
    METRIC,
    base_ellipsoid_residual,
    bmt_to_j,
    bmt_to_k,
    bmt_vector,
    boost_matrix,
    casimir,
    compose_spin_tensor,
    decompose_spin_tensor,
    effective_mass,
    frenkel_residual,
    j_to_bmt,
    minkowski_dot,
    spin_tensor,
    t3_constraints,
    t4_constraints,
    t4_structure_action,
    tetrad,
)
from .dynamics import (
    FieldConfig,
    FrequencyFit,
    GaugeFunction,
    IntegrationOptions,
    ModelParams,
    Trajectory,
    eom,
    fit_rotation_frequency,
    integrate,
    physical_hamiltonian,
    second_order_residual,
    solve_multiplier,
)

__version__ = "0.1.0"
