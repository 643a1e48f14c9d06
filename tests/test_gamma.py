"""Localized fraction: closed form, RK4 integration, consistency residual."""

import numpy as np
import pytest

from randloc.gamma import (
    GammaTrajectory,
    closed_trajectory,
    gamma_closed,
    gamma_ode,
    gamma_residual,
    half_time,
)


def logistic_reference(tau, g0):
    # direct form, safe enough at the taus used in tests
    e = np.exp(np.asarray(tau, dtype=float))
    return g0 * e / ((1.0 - g0) + g0 * e)


def test_closed_matches_direct_form():
    taus = np.linspace(0.0, 30.0, 301)
    for g0 in (1e-6, 0.01, 0.5, 0.99):
        got = gamma_closed(taus, g0)
        assert np.allclose(got, logistic_reference(taus, g0), rtol=1e-12, atol=0.0)


def test_closed_scalar_and_edges():
    assert gamma_closed(0.0, 0.25) == pytest.approx(0.25)
    assert gamma_closed(5.0, 0.0) == 0.0
    assert gamma_closed(3.0, 1.0) == pytest.approx(1.0)
    assert isinstance(gamma_closed(1.0, 0.1), float)


def test_closed_no_overflow_at_large_tau():
    # naive g0 e^tau / (1 - g0 + g0 e^tau) overflows near tau ~ 710
    val = gamma_closed(5000.0, 1e-8)
    assert val == pytest.approx(1.0)
    assert np.isfinite(val)


def test_closed_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gamma_closed(-0.5, 0.1)
    with pytest.raises(ValueError):
        gamma_closed(1.0, 1.5)
    with pytest.raises(ValueError):
        gamma_closed(1.0, np.nan)


def test_half_time_crossing():
    for g0 in (1e-4, 0.1, 0.3):
        th = half_time(g0)
        assert gamma_closed(th, g0) == pytest.approx(0.5, rel=1e-12)
    assert half_time(0.5) == pytest.approx(0.0)


def test_half_time_rejects_degenerate_seeds():
    with pytest.raises(ValueError):
        half_time(0.0)
    with pytest.raises(ValueError):
        half_time(1.0)


def test_trajectory_validation():
    with pytest.raises(ValueError, match="start at 0"):
        GammaTrajectory(np.array([0.1, 0.2]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="increase"):
        GammaTrajectory(np.array([0.0, 0.5, 0.5]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GammaTrajectory(np.array([0.0, 1.0]), np.array([0.1, 1.2]))
    with pytest.raises(ValueError, match="nondecreasing"):
        GammaTrajectory(np.array([0.0, 1.0, 2.0]), np.array([0.3, 0.2, 0.4]))


def test_trajectory_arrays_read_only():
    traj = closed_trajectory(0.1, 2.0, 0.5)
    with pytest.raises(ValueError):
        traj.values[0] = 0.9


def test_trajectory_value_at_interpolates():
    traj = closed_trajectory(0.2, 4.0, 0.01)
    assert traj.g0 == pytest.approx(0.2)
    assert traj.tau_end == pytest.approx(4.0)
    assert traj.value_at(1.37) == pytest.approx(gamma_closed(1.37, 0.2), abs=1e-5)
    with pytest.raises(ValueError, match="range"):
        traj.value_at(4.5)
    with pytest.raises(ValueError, match="range"):
        traj.value_at(-0.1)


def test_cumulative_integral_of_constant():
    taus = np.linspace(0.0, 2.0, 21)
    traj = GammaTrajectory(taus, np.full_like(taus, 0.5))
    assert np.allclose(traj.cumulative(), 0.5 * taus, atol=1e-14)


def test_ode_matches_closed_form():
    g0, tau_end = 0.05, 12.0
    traj = gamma_ode(g0, tau_end, dtau=0.01)
    exact = gamma_closed(traj.taus, g0)
    assert np.max(np.abs(traj.values - exact)) < 1e-9


def test_ode_step_halving_is_fourth_order():
    g0, tau_end = 0.1, 5.0
    errs = []
    for dtau in (0.1, 0.05):
        traj = gamma_ode(g0, tau_end, dtau=dtau)
        errs.append(abs(traj.value_at(tau_end) - gamma_closed(tau_end, g0)))
    assert errs[1] < errs[0] / 12.0  # ~16x for RK4, slack for roundoff


def test_ode_rejects_large_step():
    with pytest.raises(ValueError, match="0.1"):
        gamma_ode(0.1, 1.0, dtau=0.2)


@pytest.mark.parametrize(
    "make, dtau",
    # gamma_ode refuses an infinite step as above its stable step
    [(closed_trajectory, d) for d in (np.nan, np.inf, 0.0, -0.1)]
    + [(gamma_ode, d) for d in (np.nan, 0.0, -0.1)],
)
def test_trajectory_step_must_be_positive_and_finite(make, dtau):
    # a NaN step was once reported as too many time nodes, and an infinite
    # one as a one-node trajectory
    with pytest.raises(ValueError, match=f"dtau must be positive and finite, got {dtau}"):
        make(0.1, 1.0, dtau)


def test_ode_handles_fixed_points():
    flat = gamma_ode(0.0, 3.0, dtau=0.05)
    assert np.all(flat.values == 0.0)
    full = gamma_ode(1.0, 3.0, dtau=0.05)
    assert np.all(full.values == 1.0)


def test_ode_final_node_lands_on_tau_end():
    traj = gamma_ode(0.3, 1.0, dtau=0.03)  # 0.03 does not divide 1.0
    assert traj.tau_end == 1.0


def test_residual_of_closed_trajectory_is_quadrature_small():
    traj = closed_trajectory(0.1, 10.0, 0.01)
    res = gamma_residual(traj)
    assert res.max_residual < 5e-5
    assert res.seed_mismatch == pytest.approx(0.1)


@pytest.mark.parametrize("g0", [1e-20, 0.0008])
def test_seed_mismatch_is_the_seed_exactly(g0):
    # g0 - 1 + 1 once read 0.0 for g0 = 1e-20, and 0.0008000000000000229
    assert gamma_residual(closed_trajectory(g0, 1.0, 0.01)).seed_mismatch == g0


def test_residual_quadrature_order():
    # trapezoid cumulative integral makes the residual O(dtau^2)
    r1 = gamma_residual(closed_trajectory(0.2, 8.0, 0.04)).max_residual
    r2 = gamma_residual(closed_trajectory(0.2, 8.0, 0.02)).max_residual
    assert r2 < r1 / 3.0


def test_residual_flags_non_solutions():
    taus = np.linspace(0.0, 5.0, 200)
    fake = GammaTrajectory(taus, np.clip(0.1 + 0.17 * taus, 0.0, 1.0))
    assert gamma_residual(fake).max_residual > 0.05


@pytest.mark.parametrize(
    "taus, values, message",
    [([0.0, 1.0], [np.nan, np.nan], r"\[0, 1\]"),
     ([0.0, 1.0], [0.1, np.nan], r"\[0, 1\]"),
     ([0.0, np.nan], [0.1, 0.2], "increase")],
)
def test_nan_trajectory_is_refused(taus, values, message):
    # a NaN fraction once passed every range check
    with pytest.raises(ValueError, match=message):
        GammaTrajectory(np.array(taus), np.array(values))
