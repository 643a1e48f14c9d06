"""Steady balance p + p' = K[p, p]: fixed-point solver and residual."""

import numpy as np
import pytest

from randloc import meanfield
from randloc.errors import ConvergenceError
from randloc.meanfield import SolverConfig, residual_steady, solve_steady, steady_defect
from randloc.udist import (
    UDensity,
    UGrid,
    exponential_density,
    mass,
    moment,
    normalize,
    point_mass,
)

COARSE = SolverConfig(u_max=15.0, h=0.05)


@pytest.fixture(scope="module")
def steady():
    return solve_steady(COARSE)


def test_config_defaults_resolve():
    cfg = SolverConfig()
    assert cfg.grid == UGrid.from_spacing(30.0, 0.01)
    assert cfg.dtau_resolved == cfg.h


def test_config_dtau_multiple_of_h():
    assert SolverConfig(h=0.05, dtau=0.2).dtau_resolved == pytest.approx(0.2)
    with pytest.raises(ValueError, match="multiple"):
        SolverConfig(h=0.05, dtau=0.12)
    with pytest.raises(ValueError, match="multiple"):
        SolverConfig(h=0.05, dtau=0.025)  # below h


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(u_max=600.0),
        dict(u_max=np.nan),
        dict(dtau=-0.05),
        dict(h=0.0),
        dict(h=0.07),
        dict(dtau=0.0),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_steady_is_normalized_density(steady):
    assert mass(steady) == pytest.approx(1.0, abs=1e-12)
    assert steady.values[0] == 0.0
    assert np.all(steady.values >= 0.0)


def test_steady_single_interior_peak(steady):
    vals = steady.values
    i_peak = int(np.argmax(vals))
    u_peak = steady.grid.nodes()[i_peak]
    assert 0.2 < u_peak < 5.0
    # derivative changes sign exactly once above a noise floor
    d = np.diff(vals)
    signs = np.sign(d[np.abs(d) > 1e-10])
    flips = np.count_nonzero(np.diff(signs) != 0)
    assert flips == 1


def test_steady_moment_identity(steady):
    # <u> = 1 + E[combine(u1, u2)] under the product measure p x p
    g = steady.grid
    u = g.nodes()
    w = g.quad_weights()
    uu1, uu2 = np.meshgrid(u, u, indexing="ij")
    s = uu1 + uu2
    cmb = np.where(s > 0.0, uu1 * uu2 / np.where(s > 0.0, s, 1.0), 0.0)
    e_comb = float(w @ (steady.values[:, None] * cmb * steady.values[None, :]) @ w)
    assert abs(moment(steady, 1) - 1.0 - e_comb) < 1e-3
    assert moment(steady, 1) <= 2.0


def test_init_independence(steady):
    w = COARSE.grid.quad_weights()
    for init in ("exp", "point"):
        other = solve_steady(COARSE, init)
        assert float(w @ np.abs(other.values - steady.values)) < 1e-6


def test_custom_density_init(steady):
    g = COARSE.grid
    guess = normalize(UDensity(g, g.nodes() ** 2 * np.exp(-2.0 * g.nodes())))
    p = solve_steady(COARSE, guess)
    w = g.quad_weights()
    assert float(w @ np.abs(p.values - steady.values)) < 1e-6


@pytest.mark.parametrize("u_max, k", [(10.0, 5), (10.0, 6), (10.0, 25), (30.0, 25), (6.0, 11)])
def test_every_start_converges_on_odd_and_even_grids(u_max, k):
    # the point start at u = 1 had a kernel spike at u = 1/2, which off the
    # nodes (odd k at h = 1/k) the clip to nonnegative values made massless
    cfg = SolverConfig(u_max=u_max, h=1.0 / k)
    w = cfg.grid.quad_weights()
    base = solve_steady(cfg, "ue")
    for init in ("exp", "point"):
        assert float(w @ np.abs(solve_steady(cfg, init).values - base.values)) < 1e-6


def test_point_start_sits_at_one_on_the_default_grids():
    for u_max in (6.0, 10.0, 30.0):
        grid = UGrid.from_spacing(u_max, 0.02)
        assert np.array_equal(meanfield.resolve_init(grid, "point").values,
                              point_mass(grid, 1.0).values)


def test_init_validation():
    with pytest.raises(ValueError, match="different grid"):
        solve_steady(COARSE, point_mass(UGrid.from_spacing(10.0, 0.05), 1.0))
    with pytest.raises(ValueError, match="unknown initial guess"):
        solve_steady(COARSE, "gaussian")


@pytest.mark.parametrize("init", ["ue", "exp", "point"])
def test_anderson_kernel_calls(monkeypatch, init):
    # one kernel call per iteration; plain mixing with damping 0.5 needed 57
    calls = []
    kernel = meanfield.collision_kernel

    def counting(*args, **kwargs):
        calls.append(kwargs.get("scheme"))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(meanfield, "collision_kernel", counting)
    solve_steady(COARSE, init)
    assert 0 < len(calls) <= 30
    assert set(calls) == {"node"}


def test_residual_stop_is_close_to_tight_solve(steady, monkeypatch):
    # the stop bounds w @ |G(p) - p|, so the answer sits near the fixed point
    monkeypatch.setattr(meanfield, "_TOL_FIXED_POINT", 1e-13)
    tight = solve_steady(COARSE)
    w = COARSE.grid.quad_weights()
    assert float(w @ np.abs(steady.values - tight.values)) < 1e-8


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(meanfield, "_MAX_ITERS", 3)
    with pytest.raises(ConvergenceError, match="3 iterations"):
        solve_steady(COARSE)


def test_non_finite_anderson_step_raises(monkeypatch):
    # a NaN least-squares solution is a numerical failure (exit 2), not
    # UDensity's finite-value ValueError (exit 1)
    def lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    with pytest.raises(ConvergenceError, match="Anderson step lost its mass"):
        solve_steady(COARSE)


def test_massless_sweep_raises():
    # on 15 cells of h = 2 the exp start's first sweep leaves one spike at
    # u = h; half of h is no node, so the next node kernel is zero everywhere
    with pytest.raises(ConvergenceError, match=r"sweep lost its mass \(total=0\.0\)"):
        solve_steady(SolverConfig(u_max=30.0, h=2.0), init="exp")


def test_growing_residual_clears_the_anderson_history(monkeypatch):
    # at h = 0.25 the exp start's residual grows once; the fits after it start
    # from an empty history, so their column count drops
    columns = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond=None):
        columns.append(a.shape[1])
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    cfg = SolverConfig(u_max=6.0, h=0.25)
    p = solve_steady(cfg, init="exp")
    assert any(b < a for a, b in zip(columns, columns[1:]))
    assert mass(p) == pytest.approx(1.0, abs=1e-12)


def test_residual_shrinks_with_resolution(steady):
    # the kernel and the derivative are fourth order, so halving h cuts the
    # defect ~16x
    r_coarse = residual_steady(steady)
    r_fine = residual_steady(solve_steady(SolverConfig(u_max=15.0, h=0.025)))
    assert r_coarse.l1 < 5e-2
    assert r_fine.l1 < r_coarse.l1 / 3.0


def test_solution_converges_at_fourth_order(steady):
    # successive L1 differences under h-halving shrink ~16x
    sols = [steady] + [solve_steady(SolverConfig(u_max=15.0, h=h)) for h in (0.025, 0.0125)]
    diffs = [
        float(a.grid.quad_weights() @ np.abs(a.values - b.values[::2]))
        for a, b in zip(sols, sols[1:])
    ]
    assert np.log2(diffs[0] / diffs[1]) >= 3.5


def test_residual_of_exponential_is_kernel_mass():
    # p = e^-u has p + p' = 0, so the defect is -K[p,p] with L1 mass 1
    p = exponential_density(UGrid.from_spacing(15.0, 0.05))
    r = residual_steady(p)
    assert r.l1 == pytest.approx(1.0, abs=5e-3)
    assert r.sup > 0.1


def test_defect_of_exponential_matches_closed_form(exp_pair_density):
    # p = e^-u has p + p' = 0, so its exact defect is -K[p,p], known in
    # closed form: the operator's own error, without any solve, is fourth
    # order at every node and far below the 1e-4 gate of criterion 4
    err = {}
    for h in (0.04, 0.02):
        g = UGrid.from_spacing(30.0, h)
        u = g.nodes()
        err[h] = steady_defect(UDensity(g, np.exp(-u))) + exp_pair_density(u)
    sup = {h: float(np.max(np.abs(e))) for h, e in err.items()}
    assert sup[0.02] < 1e-7
    assert sup[0.04] / sup[0.02] > 12.0  # fourth order: 16
    assert UGrid.from_spacing(30.0, 0.02).quad_weights() @ np.abs(err[0.02]) < 2e-8


def test_residual_of_zero_density_is_zero():
    g = UGrid.from_spacing(15.0, 0.05)
    r = residual_steady(UDensity(g, np.zeros(g.n_nodes)))
    assert r.sup == 0.0
    assert r.l1 == 0.0


def test_boundary_slope_vanishes_with_resolution(steady):
    # discrete p'(0) tends to 0 as the grid refines
    slopes = {}
    for h in (0.05, 0.025):
        p = solve_steady(SolverConfig(u_max=15.0, h=h))
        slopes[h] = abs(float(np.gradient(p.values, h, edge_order=2)[0]))
    assert slopes[0.025] < slopes[0.05]
    assert slopes[0.05] < 1e-4


def test_oversized_grid_is_refused_before_any_grid_array(no_grid_beyond_uint16):
    # h = 1e-9 would take about 224 GiB of node and weight arrays alone
    with pytest.raises(ValueError, match="30000000001 nodes"):
        solve_steady(SolverConfig(u_max=30.0, h=1e-9))
    with pytest.raises(ValueError, match="65537 nodes"):
        UGrid(30.0, 1 << 16)
