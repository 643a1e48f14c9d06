"""Dynamics of the localized fraction g(tau).

The fraction obeys the self-consistency law g = 1 - (1 - g0) exp(-int_0^tau g),
whose differential form is the logistic equation g' = g (1 - g). The seed g0
enters as an impulse at tau = 0: the bare law forces g(0) = 0, and a nonzero
seed is the standard proxy for the symmetry-breaking initial transient. The
closed-form solution is g0 e^tau / ((1 - g0) + g0 e^tau), evaluated here in
the overflow-safe rearrangement g0 / (g0 + (1 - g0) e^-tau).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import check_positive_finite

__all__ = [
    "GammaTrajectory",
    "GammaResidual",
    "gamma_closed",
    "gamma_ode",
    "gamma_residual",
    "closed_trajectory",
    "half_time",
]

_MAX_ODE_STEP = 0.1
_MAX_TIME_STEPS = 10**7  # a time axis takes fewer, so its node arrays stay within 80 MB


@dataclass(frozen=True, eq=False)
class GammaTrajectory:
    """Localized fraction sampled on increasing time nodes starting at 0."""

    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if taus.ndim != 1 or taus.shape != vals.shape or taus.size < 2:
            raise ValueError("need matching 1-d tau and value arrays, >= 2 nodes")
        # written as not (in range), so that NaN fails them
        if taus[0] != 0.0 or not np.all(np.diff(taus) > 0.0):
            raise ValueError("taus must start at 0 and strictly increase")
        if not np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12)):
            raise ValueError("fraction values must lie in [0, 1]")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("fraction values must be nondecreasing")
        vals = np.clip(vals, 0.0, 1.0)
        taus = taus.copy()
        taus.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", vals)

    @property
    def g0(self) -> float:
        return float(self.values[0])

    @property
    def tau_end(self) -> float:
        return float(self.taus[-1])

    def value_at(self, tau) -> np.ndarray | float:
        """Linear interpolation; tau must lie within [0, tau_end]."""
        t = np.asarray(tau, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.tau_end + 1e-12):
            raise ValueError("tau outside trajectory range")
        out = np.interp(t, self.taus, self.values)
        return float(out) if out.ndim == 0 else out

    def cumulative(self) -> np.ndarray:
        """Trapezoid cumulative integral of g over the trajectory nodes."""
        dt = np.diff(self.taus)
        seg = 0.5 * dt * (self.values[:-1] + self.values[1:])
        return np.concatenate(([0.0], np.cumsum(seg)))


def _check_g0(g0: float) -> float:
    if not np.isfinite(g0) or not 0.0 <= g0 <= 1.0:
        raise ValueError(f"g0 must lie in [0, 1], got {g0}")
    return float(g0)


def gamma_closed(tau, g0: float):
    """Closed-form localized fraction at time tau for seed g0."""
    g0 = _check_g0(g0)
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("tau must be nonnegative")
    out = g0 / (g0 + (1.0 - g0) * np.exp(-t)) if g0 > 0.0 else np.zeros_like(t)
    return float(out) if np.ndim(out) == 0 else out


def closed_trajectory(g0: float, tau_end: float, dtau: float) -> GammaTrajectory:
    """Closed-form trajectory sampled every dtau on [0, tau_end]."""
    taus = _time_nodes(tau_end, dtau)
    return GammaTrajectory(taus, gamma_closed(taus, g0))


def half_time(g0: float) -> float:
    """Time at which the closed-form fraction crosses 1/2: ln((1-g0)/g0)."""
    g0 = _check_g0(g0)
    if g0 == 0.0 or g0 == 1.0:
        raise ValueError("half time requires 0 < g0 < 1")
    return float(np.log((1.0 - g0) / g0))


def _check_time_steps(steps: float, tau_end: float, dtau: float) -> None:
    if not steps < _MAX_TIME_STEPS:  # also refuses a NaN count
        raise ValueError(f"tau_end={tau_end} and dtau={dtau} give more than "
                         f"{_MAX_TIME_STEPS} time nodes; use a larger dtau")


def _time_nodes(tau_end: float, dtau: float) -> np.ndarray:
    check_positive_finite(tau_end=tau_end, dtau=dtau)
    steps = np.ceil(tau_end / dtau - 1e-12)
    _check_time_steps(steps, tau_end, dtau)
    n = int(steps)
    taus = np.minimum(dtau * np.arange(n + 1), tau_end)
    taus[-1] = tau_end
    return taus


def gamma_ode(g0: float, tau_end: float, dtau: float = 0.01) -> GammaTrajectory:
    """Integrate g' = g (1 - g) with classical 4th-order Runge-Kutta.

    Steps larger than 0.1 are rejected: beyond that the local error of the
    logistic step is no longer negligible against the closed form.
    """
    g0 = _check_g0(g0)
    if dtau > _MAX_ODE_STEP:
        raise ValueError(f"dtau={dtau} exceeds the maximum stable step {_MAX_ODE_STEP}")
    taus = _time_nodes(tau_end, dtau)
    vals = np.empty_like(taus)
    vals[0] = g0
    g = g0
    rhs = lambda x: x * (1.0 - x)  # noqa: E731
    for k in range(taus.size - 1):
        h = taus[k + 1] - taus[k]
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * h * k1)
        k3 = rhs(g + 0.5 * h * k2)
        k4 = rhs(g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # The exact flow preserves [0, 1]; clamp rounding-level excursions.
        g = min(max(g, 0.0), 1.0)
        vals[k + 1] = g
    return GammaTrajectory(taus, vals)


class GammaResidual(NamedTuple):
    """Violation of the integral self-consistency law along a trajectory.

    max_residual: max over tau > 0 of |g - 1 + (1 - g0) exp(-int_0^tau g)|,
        the seeded law with the tau = 0 impulse folded in. For a closed-form
        trajectory this is pure quadrature error, O(dtau^2).
    seed_mismatch: |g(0) - 1 + exp(0)| = g(0), the violation of the bare law
        at tau = 0. Nonzero whenever a seed is used; reported separately
        because the seed is a proxy, not a solution, at tau = 0.
    """

    max_residual: float
    seed_mismatch: float


def gamma_residual(traj: GammaTrajectory) -> GammaResidual:
    """Evaluate the integral-law residual of a sampled trajectory.

    The cumulative integral uses the trapezoid rule on the trajectory's own
    nodes. tau = 0 is excluded from the maximum and reported separately via
    ``seed_mismatch`` (see GammaResidual).
    """
    g0 = traj.g0
    integral = traj.cumulative()
    resid = np.abs(traj.values - 1.0 + (1.0 - g0) * np.exp(-integral))
    return GammaResidual(float(np.max(resid[1:])), g0)
