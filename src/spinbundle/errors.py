"""Exception and warning types shared across the library."""

import numpy as np


class SpinBundleError(Exception):
    """Base class for all library-specific errors."""


class GradientError(SpinBundleError):
    """A gradient evaluation produced a non-finite entry."""

    def __init__(self, label, value):
        self.label = label
        self.value = value
        super().__init__(
            f"non-finite gradient component {value!r} for coordinate {label!r}"
        )


class DomainError(SpinBundleError):
    """Input lies outside the domain of an operation (singular evaluation)."""


class DegenerateConstraintError(SpinBundleError):
    """A second-class bracket matrix is singular or ill-conditioned."""

    def __init__(self, condition_number, message=None):
        self.condition_number = float(condition_number)
        if message is None:
            message = (
                "degenerate constraint bracket matrix, condition number "
                f"{self.condition_number:.3e}"
            )
        super().__init__(message)


class ProjectionError(SpinBundleError):
    """Newton projection onto the constraint surface failed to converge."""

    def __init__(self, residuals, iterations):
        self.residuals = residuals
        self.iterations = int(iterations)
        super().__init__(
            f"projection did not converge after {self.iterations} iterations; "
            f"final residuals {residuals}"
        )


class SuperluminalError(SpinBundleError):
    """Boost velocity at or above the speed of light."""


class SurfaceError(SpinBundleError):
    """A point violates a required constraint-surface membership."""

    def __init__(self, residuals, message="point is off the constraint surface"):
        self.residuals = residuals
        super().__init__(f"{message}: residuals {residuals}")


class ChartDomainError(SpinBundleError):
    """A point lies outside the domain of the requested coordinate chart."""


class ConfigError(SpinBundleError):
    """Configuration file rejected before any computation ran."""


class GaugeError(SpinBundleError):
    """The gauge function vanishes (or nearly vanishes) where it must not."""


class IntegrationError(SpinBundleError):
    """Adaptive integration failed (step-size underflow or step budget)."""


class OffSurfaceWarning(UserWarning):
    """Emitted when an operation expecting on-surface input gets a point
    with visible constraint residuals."""


def failing_point(failed):
    """Locate the first point of a stack at which a guard fails.

    `failed` is the guard's boolean mask over the leading axes of its input,
    0-d for a single point. Returns None when no point fails; otherwise the
    index of the first failing point, to pick its values for the message,
    and a suffix that names it: "" for a single point, " (row i)" in a stack.
    """
    failed = np.asarray(failed)
    if not failed.any():
        return None
    index = tuple(int(i) for i in
                  np.unravel_index(int(np.argmax(failed)), failed.shape))
    if not index:
        return index, ""
    return index, f" (row {index[0] if len(index) == 1 else index})"
