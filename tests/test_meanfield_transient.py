"""Transient kinetics and the resummed memory-integral identity."""

import numpy as np
import pytest
from resummed_reference import dense_resummed

from randloc import meanfield
from randloc.errors import ConvergenceError, MassLossError, StepInstabilityError
from randloc.gamma import GammaTrajectory, closed_trajectory
from randloc.meanfield import (
    SolverConfig,
    TransientSolution,
    evolve_transient,
    residual_resummed,
    solve_steady,
)
from randloc.udist import (
    UDensity,
    UGrid,
    default_init_density,
    drift_shift,
    normalize,
    point_mass,
)

CFG = SolverConfig(u_max=30.0, h=0.05)


def ue_init(cfg=CFG):
    return normalize(default_init_density(cfg.grid))


@pytest.fixture(scope="module")
def seeded_run():
    """Short seeded evolution with per-step snapshots, reused across tests."""
    traj = closed_trajectory(0.1, 0.3, 0.05)
    sol = evolve_transient(ue_init(), traj, 0.3, CFG, snapshot_stride=1)
    return sol, traj


def test_pure_drift_matches_shift():
    # g = 0 switches the collision term off entirely
    p0 = ue_init()
    sol = evolve_transient(p0, 0.0, 2.0, CFG, snapshot_stride=10)
    expected, _ = drift_shift(p0, 2.0)
    expected = normalize(expected)
    assert np.allclose(sol.densities[-1], expected.values, atol=1e-13)


def test_constant_g_equals_flat_trajectory():
    taus = np.linspace(0.0, 1.0, 11)
    flat = GammaTrajectory(taus, np.full_like(taus, 0.7))
    a = evolve_transient(ue_init(), 0.7, 1.0, CFG, snapshot_stride=5)
    b = evolve_transient(ue_init(), flat, 1.0, CFG, snapshot_stride=5)
    assert np.array_equal(a.densities, b.densities)


def test_snapshot_bookkeeping():
    sol = evolve_transient(ue_init(), 1.0, 1.0, CFG, snapshot_stride=5)
    assert sol.taus[0] == 0.0
    assert sol.taus[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(sol.taus), 5 * CFG.h)
    w = CFG.grid.quad_weights()
    assert np.allclose(sol.densities @ w, 1.0, atol=1e-12)
    assert sol.index_of(0.5) == 2
    with pytest.raises(ValueError, match="no stored snapshot"):
        sol.density_at(0.62)


def test_mass_diagnostics_stay_tiny():
    sol = evolve_transient(ue_init(), 1.0, 2.0, CFG, snapshot_stride=40)
    assert sol.max_renorm_drift < 1e-8
    assert sol.lost_mass < 1e-10


def test_long_time_approaches_fixed_point():
    p_star = solve_steady(CFG)
    w = CFG.grid.quad_weights()
    sol = evolve_transient(ue_init(), 1.0, 10.0, CFG, snapshot_stride=20)
    dist = {
        t: float(w @ np.abs(sol.density_at(t).values - p_star.values))
        for t in (1.0, 10.0)
    }
    assert dist[10.0] < dist[1.0] / 2.0
    assert dist[10.0] < 5e-2  # O(dtau) splitting bias at this step size


def test_step_halving_is_first_order():
    p0 = ue_init()
    w = CFG.grid.quad_weights()
    finals = {}
    for dt in (0.2, 0.1, 0.05):
        cfg = SolverConfig(u_max=30.0, h=0.05, dtau=dt)
        finals[dt] = evolve_transient(p0, 1.0, 2.0, cfg, snapshot_stride=10**9).densities[-1]
    d1 = float(w @ np.abs(finals[0.2] - finals[0.1]))
    d2 = float(w @ np.abs(finals[0.1] - finals[0.05]))
    assert 1.5 < d1 / d2 < 2.5


def test_input_validation():
    p0 = ue_init()
    with pytest.raises(ValueError, match="different grid"):
        evolve_transient(point_mass(UGrid.from_spacing(10.0, 0.05), 1.0), 1.0, 1.0, CFG)
    g = CFG.grid
    doubled = UDensity(g, 2.0 * default_init_density(g).values)
    with pytest.raises(ValueError, match="normalized"):
        evolve_transient(doubled, 1.0, 1.0, CFG)
    with pytest.raises(ValueError, match="integer multiple"):
        evolve_transient(p0, 1.0, 1.03, CFG)
    with pytest.raises(ValueError, match="snapshot_stride"):
        evolve_transient(p0, 1.0, 1.0, CFG, snapshot_stride=0)
    short = closed_trajectory(0.1, 0.5, 0.05)
    with pytest.raises(ValueError, match="cover"):
        evolve_transient(p0, short, 1.0, CFG)
    with pytest.raises(ValueError, match=r"g0 must lie in \[0, 1\], got 1.5"):
        evolve_transient(p0, 1.5, 0.1, CFG)  # a constant g is a localized fraction too


def test_negative_step_is_instability_error():
    # a step far beyond the reaction scale drives the density negative
    cfg = SolverConfig(u_max=30.0, h=0.5, dtau=1.5)
    with pytest.raises(StepInstabilityError, match="negative density"):
        evolve_transient(point_mass(cfg.grid, 5.0), 1.0, 3.0, cfg)


def test_domain_too_small_is_mass_loss_error():
    cfg = SolverConfig(u_max=10.0, h=0.05)
    with pytest.raises(MassLossError, match="leakage"):
        evolve_transient(ue_init(cfg), 1.0, 1.0, cfg)


def test_resummed_vanishes_at_tau_zero(seeded_run):
    sol, traj = seeded_run
    res = residual_resummed(sol, traj)
    assert res.footnote[0] < 1e-15
    assert np.all(res.truncated[:, 0] < 1e-15)


def test_resummed_footnote_small(seeded_run):
    sol, traj = seeded_run
    res = residual_resummed(sol, traj)
    assert res.footnote.max() < 5e-3


def test_resummed_truncation_strictly_improves(seeded_run):
    sol, traj = seeded_run
    res = residual_resummed(sol, traj, m_max=3)
    final = res.truncated[:, -1]
    assert final[0] > final[1] > final[2]


def test_resummed_guards(seeded_run):
    sol, traj = seeded_run
    for m_max in (0, 4):
        with pytest.raises(ValueError, match="m_max"):
            residual_resummed(sol, traj, m_max=m_max)
    coarse = evolve_transient(ue_init(), 1.0, 2.0, CFG, snapshot_stride=25)
    with pytest.raises(ValueError, match="spacing"):
        residual_resummed(coarse, 1.0)
    dense = evolve_transient(ue_init(), 1.0, 0.2, CFG, snapshot_stride=1)
    for g in (1.0, -0.1):
        with pytest.raises(ValueError, match="0 <= g\\(0\\) < 1"):
            residual_resummed(dense, g)


def test_resummed_overflow_is_a_convergence_error():
    # at g = 0.9, e^B = e^(0.9 tau) passes the float range before tau = 800:
    # a numerical failure (exit 2), not UDensity's ValueError (exit 1)
    grid = UGrid.from_spacing(10.0, 0.5)
    taus = np.arange(0.0, 801.0, 5.0)
    dens = np.tile(default_init_density(grid).values, (taus.size, 1))
    sol = TransientSolution(grid, taus, dens, 0.5)
    with pytest.raises(ConvergenceError, match="Duhamel sum .* not finite"):
        residual_resummed(sol, 0.9)


@pytest.fixture(scope="module")
def criterion_07_run():
    """The criterion-7 evolution: N = 1501, 16 per-step snapshots."""
    cfg = SolverConfig(u_max=30.0, h=0.02)
    traj = closed_trajectory(0.1, 0.3, 0.02)
    return evolve_transient(ue_init(cfg), traj, 0.3, cfg, snapshot_stride=1), traj


@pytest.mark.parametrize("run", ["seeded_run", "criterion_07_run"])
@pytest.mark.parametrize("const_g", [False, True])
def test_resummed_matches_dense_reference(request, run, const_g):
    sol, traj = request.getfixturevalue(run)
    g = 0.1 if const_g else traj
    got = residual_resummed(sol, g, m_max=3)
    ref = dense_resummed(sol, g, 3)
    assert np.array_equal(got.taus, ref.taus)
    assert np.max(np.abs(got.footnote - ref.footnote)) <= 1e-15
    assert np.max(np.abs(got.truncated - ref.truncated)) <= 1e-15


@pytest.mark.parametrize("m_max", [1, 2, 3])
def test_resummed_kernel_calls(monkeypatch, seeded_run, m_max):
    # K[p, p] per snapshot for the footnote, K[p, r] per snapshot for each
    # depth above 1; depth 1 needs none
    sol, traj = seeded_run
    calls = []
    kernel = meanfield.collision_kernel

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(meanfield, "collision_kernel", counting)
    residual_resummed(sol, traj, m_max=m_max)
    assert len(calls) == sol.taus.size * m_max


def test_resummed_rejects_partial_cell_spacing(seeded_run):
    sol, _ = seeded_run
    taus = np.array([0.0, 0.05, 0.125])  # the second spacing is 1.5 cells
    odd = TransientSolution(grid=sol.grid, taus=taus, densities=sol.densities[:3], dtau=0.05)
    with pytest.raises(ValueError, match="integer multiple of h"):
        residual_resummed(odd, 0.1)
    whole = TransientSolution(
        grid=sol.grid, taus=np.array([0.0, 0.05, 0.15]), densities=sol.densities[:3], dtau=0.05
    )
    assert residual_resummed(whole, 0.1).footnote[0] < 1e-15


def test_oversized_grid_is_refused_before_any_grid_array(no_grid_beyond_uint16):
    # h = 1e-9 would take about 224 GiB of node and weight arrays alone
    with pytest.raises(ValueError, match="30000000001 nodes"):
        evolve_transient(ue_init(), 0.5, 1.0, SolverConfig(u_max=30.0, h=1e-9))


def test_index_of_nan_finds_no_snapshot():
    # index_of(nan) once returned the first snapshot
    grid = UGrid.from_spacing(2.0, 0.5)
    sol = TransientSolution(grid, np.array([0.0, 0.5]), np.zeros((2, grid.n_nodes)), 0.5)
    assert sol.index_of(0.5) == 1
    with pytest.raises(ValueError, match="no stored snapshot near tau=nan"):
        sol.index_of(np.nan)
