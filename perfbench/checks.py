"""Output checks: each compares what one round wrote against a property of the
method or an independent computation, never against stored output.

Every check returns (ok, detail). The bands hold for a correct program on any
seed; the benchmark's tests feed each check a deliberately corrupted input to
show it can fail.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MASS_TOL = 1e-9
ORDER_MIN = 1.8
PAIR_MOMENT_TOL = 1e-3
TAIL_SLOPE_BAND = (-1.05, -0.95)
ORACLE_ORDER_BAND = (1.9, 2.1)
ORACLE_VAR1_TOL = 1e-3
WINDOW_VAR_REL_TOL = 0.05
DTAU_RATIO_BAND = (1.7, 2.3)
FOOTNOTE_MAX = 5e-3
G_BAND_SDS = 4.5
KS_MAX = 0.01


def load_csv(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Columns and `# key = value` header of a randloc CSV file."""
    meta: dict[str, str] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    k = 0
    while lines[k].startswith("#"):
        key, _, value = lines[k][1:].partition("=")
        meta[key.strip()] = value.strip()
        k += 1
    names = lines[k].split(",")
    data = np.loadtxt(lines[k + 1:], delimiter=",", ndmin=2) if len(lines) > k + 1 else (
        np.empty((0, len(names))))
    return {name: data[:, i] for i, name in enumerate(names)}, meta


def trapezoid_weights(u: np.ndarray) -> np.ndarray:
    h = (u[-1] - u[0]) / (u.size - 1)
    w = np.full(u.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


# steady-ladder ---------------------------------------------------------------

def check_density(u: np.ndarray, p: np.ndarray) -> tuple[bool, str]:
    """Unit trapezoid mass, nonnegative, and p(0) = 0."""
    mass = float(trapezoid_weights(u) @ p)
    ok = abs(mass - 1.0) < MASS_TOL and p.min() >= 0.0 and p[0] == 0.0
    return bool(ok), f"mass-1 {mass - 1.0:.1e}, min {p.min():.1e}, p(0) {p[0]:.1e}"


def check_residual_order(hs, residuals) -> tuple[bool, str]:
    """The residual shrinks at observed order >= ORDER_MIN over each halving."""
    orders = [math.log(r0 / r1) / math.log(h0 / h1)
              for h0, h1, r0, r1 in zip(hs, hs[1:], residuals, residuals[1:])]
    ok = all(o >= ORDER_MIN for o in orders)
    text = ", ".join(f"{o:.3f}" for o in orders)
    return bool(ok), f"residual orders {text} (>= {ORDER_MIN})"


def expected_combine(u: np.ndarray, p: np.ndarray, block: int = 256) -> float:
    """E[u1 u2 / (u1 + u2)] for u1, u2 ~ p, by a blocked O(N^2) trapezoid sum."""
    wp = trapezoid_weights(u) * p
    total = 0.0
    for a in range(0, u.size, block):
        ua = u[a:a + block, None]
        s = ua + u[None, :]
        c = np.divide(ua * u[None, :], s, out=np.zeros_like(s), where=s > 0.0)
        total += float(wp[a:a + block] @ (c @ wp))
    return total


def check_pair_moment(u: np.ndarray, p: np.ndarray, mean_u: float) -> tuple[bool, str]:
    """Steady balance integrated against u: mean_u - 1 = E[combine]."""
    gap = mean_u - 1.0 - expected_combine(u, p)
    return bool(abs(gap) < PAIR_MOMENT_TOL), f"mean_u-1-E[combine] {gap:.1e}"


def check_tail_slope(u: np.ndarray, p: np.ndarray) -> tuple[bool, str]:
    """The tail decays like e^-u: log-slope on [10, 20] is -1 +/- 0.05."""
    sel = (u >= 10.0) & (u <= 20.0) & (p > 0.0)
    if np.count_nonzero(sel) < 3:
        return False, "no positive tail on [10, 20]"
    slope = float(np.polyfit(u[sel], np.log(p[sel]), 1)[0])
    lo, hi = TAIL_SLOPE_BAND
    return bool(lo <= slope <= hi), f"tail slope {slope:.4f}"


def check_oracle(cols: dict[str, np.ndarray], meta: dict[str, str]) -> tuple[bool, str]:
    """Second-order contraction onto the harmonic combination, and the
    narrow-window relative variance box^2/12."""
    x1, x2 = float(meta["xi1_sq"]), float(meta["xi2_sq"])
    limit = x1 * x2 / (x1 + x2)
    order = float(meta["fitted_order"])
    order_ok = ORACLE_ORDER_BAND[0] <= order <= ORACLE_ORDER_BAND[1]
    err = np.abs(cols["var1"] - limit)  # boxes are written largest first
    var1_ok = bool(np.all(np.diff(err) < 0.0)) and err[-1] < ORACLE_VAR1_TOL
    window = np.abs(cols["var_rel"] / (cols["box"] ** 2 / 12.0) - 1.0)
    window_ok = bool(np.all(window < WINDOW_VAR_REL_TOL))
    return (bool(order_ok and var1_ok and window_ok),
            f"order {order:.4f}, |var1-limit| {err[-1]:.1e}, window err {window.max():.1e}")


def steady_ladder_checks(run_dirs: dict[str, Path]) -> list[tuple[str, bool, str]]:
    """The five steady-ladder checks over one round's run directories."""
    dens = []
    for label in sorted((k for k in run_dirs if k.startswith("h")),
                        key=lambda k: -float(k[1:])):
        cols, meta = load_csv(run_dirs[label] / "steady.csv")
        dens.append((float(meta["h"]), cols["u"], cols["p"], meta))
    oracle_cols, oracle_meta = load_csv(run_dirs["oracle"] / "oracle.csv")

    def per_grid(check):
        results = [(h, check(u, p, meta)) for h, u, p, meta in dens]
        return (all(ok for _, (ok, _) in results),
                "; ".join(f"h={h}: {text}" for h, (_, text) in results))

    return [
        ("steady.density", *per_grid(lambda u, p, meta: check_density(u, p))),
        ("steady.residual_order", *check_residual_order(
            [d[0] for d in dens], [float(d[3]["residual_l1"]) for d in dens])),
        ("steady.pair_moment", *per_grid(
            lambda u, p, meta: check_pair_moment(u, p, float(meta["mean_u"])))),
        ("steady.tail_slope", *per_grid(lambda u, p, meta: check_tail_slope(u, p))),
        ("oracle.contraction", *check_oracle(oracle_cols, oracle_meta)),
    ]


# transient-relax -------------------------------------------------------------

def snapshots(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, densities with one row per snapshot) of a transient.csv."""
    dens = cols["p"].reshape(np.unique(cols["tau"]).size, -1)
    return cols["u"][: dens.shape[1]], dens


def check_snapshots(u: np.ndarray, dens: np.ndarray) -> tuple[bool, str]:
    """Every snapshot has unit trapezoid mass and no negative value."""
    dev = float(np.max(np.abs(dens @ trapezoid_weights(u) - 1.0)))
    low = float(dens.min())
    return (bool(dev < MASS_TOL and low >= 0.0),
            f"{dens.shape[0]} snapshots, max |mass-1| {dev:.1e}, min {low:.1e}")


def check_relaxed(u: np.ndarray, final: np.ndarray, fixed_point: np.ndarray,
                  dtau: float) -> tuple[bool, str]:
    """First-order splitting relaxes to within dtau (L1) of the fixed point."""
    dist = float(trapezoid_weights(u) @ np.abs(final - fixed_point))
    return bool(dist < dtau), f"L1 to fixed point {dist:.3e} (< dtau {dtau:g})"


def check_dtau_ratio(u: np.ndarray, finals: dict[float, np.ndarray]) -> tuple[bool, str]:
    """First-order convergence in dtau: successive differences halve."""
    w = trapezoid_weights(u)
    d = sorted(finals, reverse=True)
    ratio = float(w @ np.abs(finals[d[0]] - finals[d[1]])) / float(
        w @ np.abs(finals[d[1]] - finals[d[2]]))
    lo, hi = DTAU_RATIO_BAND
    return bool(lo <= ratio <= hi), f"dtau-halving ratio {ratio:.3f}"


def check_footnote(residual: np.ndarray) -> tuple[bool, str]:
    worst = float(residual.max())
    return bool(worst < FOOTNOTE_MAX), f"footnote residual max {worst:.2e} (< {FOOTNOTE_MAX})"


def steady_reference(u_max: float, h: float, cache: dict) -> np.ndarray:
    """Mean-field steady density on the grid (u_max, h), from the program's
    own fixed-point solver, computed once per benchmark process."""
    key = (u_max, h)
    if key not in cache:
        from randloc.meanfield import SolverConfig, solve_steady
        cache[key] = solve_steady(SolverConfig(u_max=u_max, h=h)).values
    return cache[key]


def transient_relax_checks(run_dirs: dict[str, Path], cache: dict) -> list[tuple[str, bool, str]]:
    """The four transient-relax checks over one round's run directories."""
    loaded = {label: load_csv(d / "transient.csv") for label, d in run_dirs.items()}
    mass = [check_snapshots(*snapshots(cols)) for cols, _ in loaded.values()]

    cols, meta = loaded["relax"]
    u, dens = snapshots(cols)
    h = float(meta["h"])
    dtau = float(meta["dtau"]) or h
    fixed = steady_reference(float(meta["u_max"]), h, cache)

    finals = {}
    for label, (c, m) in loaded.items():
        if label.startswith("dtau"):
            u_ladder, d = snapshots(c)
            finals[float(m["dtau"])] = d[-1]
    res_cols, _ = load_csv(run_dirs["resummed"] / "residual.csv")
    return [
        ("transient.snapshots", all(ok for ok, _ in mass), "; ".join(t for _, t in mass)),
        ("transient.relaxed", *check_relaxed(u, dens[-1], fixed, dtau)),
        ("transient.dtau_order", *check_dtau_ratio(u_ladder, finals)),
        ("transient.footnote", *check_footnote(res_cols["residual_l1"])),
    ]


# mc-population ---------------------------------------------------------------

def logistic(tau, g0: float, rate: float = 1.0):
    e = np.exp(rate * np.asarray(tau, dtype=float))
    return g0 * e / (1.0 - g0 + g0 * e)


def logistic_sd(taus, g0: float, m: int, steps: int = 4000) -> np.ndarray:
    """Standard deviation of the empirical localized fraction of m particles
    started at fraction g0, from the linear-noise approximation
    dV/dtau = r (2 (1 - 2g) V + g (1 - g) / m), V(0) = 0, r = m / (m - 1),
    integrated with RK4 along the closed-form logistic g(tau)."""
    taus = np.asarray(taus, dtype=float)
    r = m / (m - 1.0)
    grid = np.linspace(0.0, float(taus.max()), steps + 1)
    dt = grid[1] - grid[0]

    def f(t, v):
        g = logistic(t, g0, r)
        return r * (2.0 * (1.0 - 2.0 * g) * v + g * (1.0 - g) / m)

    var = np.zeros(grid.size)
    for k in range(steps):
        t, v = grid[k], var[k]
        k1 = f(t, v)
        k2 = f(t + dt / 2, v + dt / 2 * k1)
        k3 = f(t + dt / 2, v + dt / 2 * k2)
        k4 = f(t + dt, v + dt * k3)
        var[k + 1] = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.sqrt(np.interp(taus, grid, var))


def check_g_curve(taus: np.ndarray, g: np.ndarray, g0: float, m: int) -> tuple[bool, str]:
    """Empirical fraction within G_BAND_SDS linear-noise standard deviations
    of the closed-form logistic curve (with the finite-m rate m/(m-1))."""
    start = math.ceil(g0 * m) / m
    sel = taus > 0.0
    expect = logistic(taus[sel], start, m / (m - 1.0))
    z = np.abs(g[sel] - expect) / logistic_sd(taus[sel], start, m)
    return bool(np.all(z <= G_BAND_SDS)), f"max |g - logistic| = {z.max():.2f} sd (<= {G_BAND_SDS})"


def check_histogram_ks(u_bin: np.ndarray, p_hat: np.ndarray, ref_u: np.ndarray,
                       ref_p: np.ndarray) -> tuple[bool, str]:
    """Unit-mass histogram whose CDF at the bin edges is within KS_MAX of the
    reference density's CDF (piecewise-linear trapezoid prefix integrals)."""
    cdf = np.cumsum(p_hat * trapezoid_weights(u_bin))
    edges = u_bin + 0.5 * (u_bin[1] - u_bin[0])
    ref_cdf = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(ref_u) * (ref_p[1:] + ref_p[:-1]))))
    ref_at = np.interp(edges, ref_u, ref_cdf / ref_cdf[-1])
    ks = float(np.max(np.abs(cdf - ref_at)))
    ok = abs(cdf[-1] - 1.0) < MASS_TOL and ks < KS_MAX
    return bool(ok), f"bin-edge KS {ks:.4f} (< {KS_MAX}), mass-1 {cdf[-1] - 1.0:.1e}"


MC_REFERENCE_H = 0.05


def mc_population_checks(run_dirs: dict[str, Path], cache: dict) -> list[tuple[str, bool, str]]:
    """The two mc-population checks over one round's run directories."""
    tdir, sdir = run_dirs["transient"], run_dirs["steady"]
    t_cols, t_meta = load_csv(next(tdir.glob("g_seed*.csv")))
    s_cols, _ = load_csv(next(sdir.glob("g_seed*.csv")))
    g_ok, g_text = check_g_curve(t_cols["tau"], t_cols["g_empirical"],
                                 float(t_meta["g0"]), int(t_meta["m_particles"]))
    full = bool(np.all(s_cols["g_empirical"] == 1.0))

    h_cols, h_meta = load_csv(next(sdir.glob("density_seed*.csv")))
    last = h_cols["tau"] == h_cols["tau"].max()
    ref_max = float(h_meta["hist_u_max"])
    ref = steady_reference(ref_max, MC_REFERENCE_H, cache)
    ref_u = np.linspace(0.0, ref_max, ref.size)
    ks_ok, ks_text = check_histogram_ks(h_cols["u_bin"][last], h_cols["p_hat"][last], ref_u, ref)
    return [
        ("mc.g_logistic", g_ok and full, f"transient {g_text}; steady g == 1: {full}"),
        ("mc.steady_ks", ks_ok, ks_text),
    ]


NAMES = {
    "steady-ladder": ("steady.density", "steady.residual_order", "steady.pair_moment",
                      "steady.tail_slope", "oracle.contraction"),
    "transient-relax": ("transient.snapshots", "transient.relaxed", "transient.dtau_order",
                        "transient.footnote"),
    "mc-population": ("mc.g_logistic", "mc.steady_ks"),
}


def run_checks(workload: str, run_dirs: dict[str, Path],
               cache: dict) -> list[tuple[str, bool, str]]:
    """All checks of one round of `workload`; `run_dirs` maps label to run directory."""
    if workload == "steady-ladder":
        return steady_ladder_checks(run_dirs)
    if workload == "transient-relax":
        return transient_relax_checks(run_dirs, cache)
    return mc_population_checks(run_dirs, cache)
