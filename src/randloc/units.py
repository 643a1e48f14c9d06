"""Mapping between laboratory quantities and the dimensionless variables.

The effective pairing rate is Gamma = mu * number_density * box_volume.
Dimensionless variables: u = xi^2 * Gamma / (2 D) for a squared localization
length xi^2, and tau = Gamma * t for time. The factor 2 means u = 1
corresponds to the spreading scale xi_char^2 = 2 D / Gamma, i.e. the squared
width gained by free diffusion over one mean waiting time between pairings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_positive_finite

__all__ = ["UnitsMap", "RegimeReport", "units_convert", "validate_regime"]

_DIRECTIONS = ("xi2_to_u", "u_to_xi2", "t_to_tau", "tau_to_t")


@dataclass(frozen=True)
class UnitsMap:
    """Physical inputs fixing the dimensionless map.

    mu: rate constant of the pairwise proximity measurements.
    number_density: particle number per volume (N/V).
    box_volume: acceptance volume of a single proximity measurement.
    diffusion: single-particle diffusion constant D.
    """

    mu: float
    number_density: float
    box_volume: float
    diffusion: float

    def __post_init__(self) -> None:
        check_positive_finite(mu=self.mu, number_density=self.number_density,
                              box_volume=self.box_volume, diffusion=self.diffusion)

    @property
    def gamma_rate(self) -> float:
        """Effective pairing rate Gamma = mu * (N/V) * box_volume."""
        return self.mu * self.number_density * self.box_volume


def units_convert(units: UnitsMap, value: float, direction: str) -> float:
    """Convert between lab and dimensionless variables.

    direction is one of 'xi2_to_u', 'u_to_xi2', 't_to_tau', 'tau_to_t'.
    Round trips invert to full double precision.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    gamma = units.gamma_rate
    if direction == "xi2_to_u":
        return value * gamma / (2.0 * units.diffusion)
    if direction == "u_to_xi2":
        return value * (2.0 * units.diffusion) / gamma
    if direction == "t_to_tau":
        return value * gamma
    return value / gamma


@dataclass(frozen=True)
class RegimeReport:
    """Advisory check of the narrow-measurement regime."""

    ratio: float
    threshold: float
    status: str  # "pass" or "warn"

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def validate_regime(
    units: UnitsMap,
    box_diameter: float,
    typical_xi2: float,
    threshold: float = 0.1,
) -> RegimeReport:
    """Check that the measurement box is small against the localization length.

    The mean-field kinetics assumes box_diameter << typical localization
    length. An exact tie with the threshold counts as a warning. The three
    inputs must be positive and finite; beyond that the check is advisory,
    and nothing is raised.
    """
    check_positive_finite(box_diameter=box_diameter, typical_xi2=typical_xi2,
                          threshold=threshold)
    ratio = box_diameter / float(np.sqrt(typical_xi2))
    status = "pass" if ratio < threshold else "warn"
    return RegimeReport(ratio=ratio, threshold=threshold, status=status)
