"""Exception types shared across the toolkit, and the one check of a
positive, finite value.

ConfigError, ConvergenceError (with its subclasses) and IO failures map
onto distinct CLI exit codes, so solver code must not collapse them into a
generic RuntimeError.
"""

from __future__ import annotations

import math


def check_positive_finite(**values: float) -> None:
    """Refuses any value outside (0, inf), NaN included, with a ValueError
    that names its key."""
    for key, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{key} must be positive and finite, got {value}")


class RandlocError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(RandlocError):
    """Invalid or inconsistent run configuration (CLI exit code 1)."""


class ConvergenceError(RandlocError):
    """An iterative solver failed to reach its tolerance (CLI exit code 2)."""


class MassLossError(ConvergenceError):
    """Cumulative drift leakage past the grid edge exceeded
    meanfield._LOST_MASS_CAP."""


class StepInstabilityError(ConvergenceError):
    """A transient step produced values outside the tolerated negative band,
    a non-finite value or a mass defect beyond meanfield._TOL_MASS."""


class QuadratureError(ConvergenceError):
    """Numerical quadrature failed to converge or behaved inconsistently."""
