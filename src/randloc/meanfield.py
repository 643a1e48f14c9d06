"""Mean-field kinetics of the localization-length distribution.

Steady state. The normalized distribution solves

    p(u) + p'(u) = K[p, p](u),      p(0) = 0,

where K is the pair-combination gain. The steady problem is discretized at
fourth order throughout: K comes from the "node" scheme of
``udist.collision_kernel``, and the left side is inverted per iteration
with the integrating factor e^u, exactly for K interpolated by a cubic on
each cell, giving the fixed-point map

    p_{k+1}(u) = int_0^u e^{-(u-s)} K[p_k, p_k](s) ds,

renormalized each sweep. ``solve_steady`` accelerates this map with
Anderson mixing (D. G. Anderson, J. ACM 12, 1965): each step fits the last
few sweeps' residuals by least squares and extrapolates, undamped, then
projects onto nonnegative values and renormalizes. It
stops on the fixed-point residual itself, the L1 norm of one sweep's change,
not on the change between mixed iterates. The residual ``residual_steady``
(the norms of ``steady_defect``) pairs the same kernel with a fourth-order
derivative stencil, so it measures the defect of a candidate density rather
than the mismatch between two second-order discretizations.

Transient. The time-dependent density follows the local balance

    (d_tau + d_u) p = g(tau) (K[p, p] - p),

advanced by first-order operator splitting: an exact semi-Lagrangian drift
by dtau (one grid cell per step when dtau = h), an Euler reaction step, and
a renormalization. The local form is the differential restatement of the
all-orders memory-integral identity for g(tau) p(u; tau); that equivalence
is never assumed here, it is measured by ``residual_resummed``.

Memory-integral residual. With the seed entering as an impulse at tau = 0
(weight gt0 = g0/(1-g0), survival factor e^-B with B(tau) = int_0^tau g
- ln(1-g0)), the resummed identity reads

    g(tau) p(u; tau) = e^-B(tau) [ gt0 (S_tau p0)(u)
        + int_0^tau ds g(s) (S_{tau-s} p(.; s))(u)
        + int_0^tau ds g(s)^2 e^B(s) (S_{tau-s} K[p,p](.; s))(u) ],

where S_d is the drift shift by d. At tau = 0 the bracket reduces to the
seed term and both sides equal g0 p0 identically. Truncating the underlying
event-chain hierarchy at depth m replaces the collision term by the chain
sum r_{m-1} of the depth below: the depth-m bracket r_m has the source
g p at depth 1 and g (p + K[p, r_{m-1}]) beyond it. The truncated mismatch
must grow with tau and shrink as more depths are included.

Every bracket is the seeded Duhamel sum A_k = gt0 S_{tau_k} p0 + sum_j
wq_k[j] S_{tau_k - tau_j} src_j over the snapshots, wq_k the trapezoid
weights on tau_0..tau_k. It is built by one recurrence over the snapshot
spacings D_k = tau_k - tau_{k-1},

    A_0 = gt0 p0,    A_k = S_{D_k} (A_{k-1} + D_k/2 src_{k-1}) + D_k/2 src_k,

one drift shift per snapshot and quantity, and no kernel call beyond those
in the source. Composing shifts is exact only for whole-cell shifts, so the
snapshot spacings must be whole multiples of h.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, MassLossError, StepInstabilityError
from .gamma import GammaTrajectory, _check_g0, _check_time_steps
from .udist import (
    UDensity,
    UGrid,
    _whole_steps,
    collision_kernel,
    default_init_density,
    drift_shift,
    exponential_density,
    mass,
    normalize,
    point_mass,
)

__all__ = [
    "SolverConfig",
    "SteadyResidual",
    "TransientSolution",
    "ResummedResidual",
    "resolve_init",
    "solve_steady",
    "residual_steady",
    "steady_defect",
    "evolve_transient",
    "residual_resummed",
]

# e^u scaling inside the integrating-factor sweep bounds the usable domain.
_U_MAX_LIMIT = 500.0
_HIERARCHY_LIMIT = 3
# Bounds of a transient run: the per-step mass defect before renormalization,
# and the cumulative drift leakage past u_max, relative to unit mass.
_TOL_MASS = 1e-8
_LOST_MASS_CAP = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Grid and time step shared by the mean-field solvers.

    dtau defaults to the grid spacing h so that the transient drift is an
    exact one-cell shift; dtau_resolved returns any whole multiple of h as is.
    The solvers' tolerances are module constants, see solve_steady and
    evolve_transient.
    """

    u_max: float = 30.0
    h: float = 0.01
    dtau: float | None = None

    def __post_init__(self) -> None:
        if self.u_max > _U_MAX_LIMIT:
            raise ValueError(f"u_max above {_U_MAX_LIMIT} overflows the e^u sweep")
        self.grid  # validates u_max, h
        self.dtau_resolved  # validates dtau

    @property
    def grid(self) -> UGrid:
        return UGrid.from_spacing(self.u_max, self.h)

    @property
    def dtau_resolved(self) -> float:
        if self.dtau is None:
            return self.grid.h
        _whole_steps(self.dtau, self.h, "dtau", "h")
        return float(self.dtau)


# Nodes, relative to the cell's left node, of the cubic that stands in for K
# on the first cell, on interior cells and on the last cell.
_CELL_STENCILS = ((0, 1, 2, 3), (-1, 0, 1, 2), (-2, -1, 0, 1))
# The steady discretization needs five nodes for its one-sided stencils.
_STEADY_MIN_BINS = 4
# Number of past iterate and residual differences the Anderson step fits.
_ANDERSON_DEPTH = 5
# The steady solve's stopping rule, see solve_steady.
_TOL_FIXED_POINT = 1e-8
_MAX_ITERS = 500


@lru_cache(maxsize=8)
def _sweep_weights(h: float) -> np.ndarray:
    """c[s, k] = int_0^h e^-(h - x) L_k(x / h) dx for the Lagrange cubics L_k
    on the nodes of _CELL_STENCILS[s].

    16-point Gauss-Legendre gives them to rounding for h up to 10 at least,
    with no cancellation at small h.
    """
    x, wx = np.polynomial.legendre.leggauss(16)
    x = 0.5 * (x + 1.0)
    damp = 0.5 * h * wx * np.exp(-h * (1.0 - x))
    c = np.empty((len(_CELL_STENCILS), 4))
    for s, nodes in enumerate(_CELL_STENCILS):
        for k, nk in enumerate(nodes):
            basis = np.prod([(x - nm) / (nk - nm) for nm in nodes if nm != nk], axis=0)
            c[s, k] = damp @ basis
    c.setflags(write=False)
    return c


def _cubic_sweep(grid: UGrid, kvals: np.ndarray) -> np.ndarray:
    """Solution of p' + p = K with p(0) = 0, exact for K interpolated by a
    cubic on each cell (centred stencils inside, one-sided on the two end
    cells), projected onto nonnegative values."""
    n = grid.n_bins
    c = _sweep_weights(grid.h)
    d = np.empty(n)
    d[0] = c[0] @ kvals[:4]
    d[1:-1] = sum(c[1, k] * kvals[k:n - 2 + k] for k in range(4))
    d[-1] = c[2] @ kvals[-4:]
    u = grid.nodes()
    out = np.empty(grid.n_nodes)
    out[0] = 0.0
    out[1:] = np.exp(-u[1:]) * np.cumsum(d * np.exp(u[1:]))
    return np.maximum(out, 0.0, out=out)


def _check_steady_grid(grid: UGrid) -> None:
    """Refuses a grid too coarse for the steady stencils."""
    if grid.n_bins < _STEADY_MIN_BINS:
        raise ValueError(
            f"the steady discretization needs at least {_STEADY_MIN_BINS} bins, "
            f"got {grid.n_bins}"
        )


# Initial densities by name, the choices of resolve_init. The transient's
# "init" key offers only "ue" and "point": drift_shift moves p(0) from node
# 0's half weight onto a full weight, a real mass gain of h/2 p(0), so "exp"
# (p(0) = 1) stops at its first step on any grid. The point sits on the
# multiple of 2h nearest u = 1 (u = 1 itself at h = 0.02): its kernel is a
# spike at half the point, which between two nodes the node scheme's cubics
# make negative there and the clip to nonnegative values leaves massless.
_INIT_GUESSES = {
    "ue": default_init_density,
    "exp": exponential_density,
    "point": lambda g: point_mass(g, 2 * g.h * round(0.5 / g.h)),
}


def resolve_init(grid: UGrid, init) -> UDensity:
    """The initial density named by init ("ue", "exp" or "point") on grid,
    or init itself renormalized when it is a UDensity on grid."""
    if isinstance(init, UDensity):
        if init.grid != grid:
            raise ValueError("initial guess lives on a different grid")
        return normalize(init)
    if init not in _INIT_GUESSES:
        raise ValueError(f"unknown initial guess {init!r}; use one of {sorted(_INIT_GUESSES)}")
    return _INIT_GUESSES[init](grid)


def solve_steady(cfg: SolverConfig, init="ue") -> UDensity:
    """Anderson-accelerated fixed-point solve of p + p' = K[p, p].

    The map is G(p) = normalize(sweep(K[p, p])) with residual f = G(p) - p.
    Each iteration takes the type-II Anderson step (Walker and Ni, 2011)

        p_next = p + f - (dP + dF) gamma,

    where the columns of dP and dF are the differences of the last
    _ANDERSON_DEPTH iterates and residuals, and gamma minimizes the
    trapezoid-weighted L2 norm of f - dF gamma; with no history it is the
    plain step p + f. The step is projected onto nonnegative
    values and renormalized. The history is cleared whenever the L1
    residual grows.

    init selects the starting guess: "ue" (u e^-u, default), "exp", "point",
    or any normalized UDensity on the config grid. Each iteration makes one
    kernel call. At the first iterate p whose L1 residual w @ |G(p) - p|
    falls below _TOL_FIXED_POINT (1e-8), returns G(p), which is within that
    tolerance of p and, unlike the extrapolated p, is a sweep output, so it
    keeps the sweep's p(0) = 0 and nonnegativity. Raises ConvergenceError
    if no iterate does within _MAX_ITERS (500) iterations, or if a sweep or
    an Anderson step gives a non-finite or massless iterate.
    """
    grid = cfg.grid
    _check_steady_grid(grid)
    w = grid.quad_weights()
    root_w = np.sqrt(w)
    p = resolve_init(grid, init)
    d_p: list[np.ndarray] = []
    d_f: list[np.ndarray] = []
    prev = None  # (iterate, residual) of the previous iteration
    res = np.inf
    for _ in range(_MAX_ITERS):
        swept = _cubic_sweep(grid, collision_kernel(p, p, scheme="node").values)
        total = float(w @ swept)
        if not np.isfinite(total) or total <= 0.0:
            raise ConvergenceError(f"fixed-point sweep lost its mass (total={total})")
        swept /= total
        f = swept - p.values
        res_prev, res = res, float(w @ np.abs(f))
        if res < _TOL_FIXED_POINT:
            return UDensity(grid, swept)
        if res > res_prev:
            d_p.clear()
            d_f.clear()
        elif prev is not None:
            d_p.append(p.values - prev[0])
            d_f.append(f - prev[1])
            if len(d_p) > _ANDERSON_DEPTH:
                del d_p[0], d_f[0]
        prev = (p.values, f)
        step = f
        if d_p:
            dp, df = np.column_stack(d_p), np.column_stack(d_f)
            gamma = np.linalg.lstsq(root_w[:, None] * df, root_w * f, rcond=None)[0]
            step = f - (dp + df) @ gamma
        nxt = np.maximum(p.values + step, 0.0)
        total = float(w @ nxt)
        if not np.isfinite(total) or total <= 0.0:
            raise ConvergenceError(f"Anderson step lost its mass (total={total})")
        p = UDensity(grid, nxt / total)
    raise ConvergenceError(
        f"steady solve stalled at L1 residual {res:.3e} after {_MAX_ITERS} iterations"
    )


class SteadyResidual(NamedTuple):
    sup: float
    l1: float


# Fourth-order one-sided first-derivative stencils (times 12 h) at the first
# two nodes; the last two use their mirror images.
_EDGE_D1 = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _derivative(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative: the five-point central stencil inside,
    one-sided five-point stencils at the two nodes nearest each end."""
    d = np.empty_like(vals)
    d[2:-2] = vals[:-4] - 8.0 * vals[1:-3] + 8.0 * vals[3:-1] - vals[4:]
    d[:2] = _EDGE_D1 @ vals[:5]
    d[-2:] = -(_EDGE_D1 @ vals[:-6:-1])[::-1]
    return d / (12.0 * h)


def steady_defect(p: UDensity) -> np.ndarray:
    """Pointwise defect p + p' - K[p, p] of a candidate steady density.

    K is the "node" scheme of ``collision_kernel`` and p' the fourth-order
    stencil of ``_derivative``, so for smooth p the defect is exact to
    O(h^4) at every node; it vanishes to that order at the steady density.
    """
    _check_steady_grid(p.grid)
    return p.values + _derivative(p.values, p.grid.h) - collision_kernel(p, p, scheme="node").values


def residual_steady(p: UDensity) -> SteadyResidual:
    """Sup and trapezoid L1 norm of ``steady_defect``."""
    r = steady_defect(p)
    return SteadyResidual(float(np.max(np.abs(r))), float(p.grid.quad_weights() @ np.abs(r)))


@dataclass(frozen=True, eq=False)
class TransientSolution:
    """Snapshots of the transient density at equally spaced times.

    densities has one row per snapshot; every row is renormalized to unit
    mass. max_renorm_drift is the largest per-step mass defect seen before
    renormalization, lost_mass the accumulated drift leakage past u_max.
    """

    grid: UGrid
    taus: np.ndarray
    densities: np.ndarray
    dtau: float
    max_renorm_drift: float = 0.0
    lost_mass: float = 0.0

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if dens.shape != (taus.size, self.grid.n_nodes):
            raise ValueError("densities must have one row of node values per snapshot")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "densities", dens)

    def index_of(self, tau: float) -> int:
        i = int(np.argmin(np.abs(self.taus - tau)))
        if not abs(self.taus[i] - tau) <= 0.5 * self.dtau + 1e-12:  # NaN too
            raise ValueError(f"no stored snapshot near tau={tau}")
        return i

    def density_at(self, tau: float) -> UDensity:
        return UDensity(self.grid, self.densities[self.index_of(tau)])


def _g_of(g, tau: float) -> float:
    if isinstance(g, GammaTrajectory):
        return float(g.value_at(tau))
    return float(g)


def evolve_transient(
    p0: UDensity,
    g,
    tau_end: float,
    cfg: SolverConfig,
    *,
    snapshot_stride: int = 1,
) -> TransientSolution:
    """Advance (d_tau + d_u) p = g (K[p,p] - p) from p0 to tau_end.

    g is either a constant fraction or a GammaTrajectory covering
    [0, tau_end]; it is sampled at the start of each step. tau_end must be
    1 to 10^7 - 1 whole steps of cfg.dtau_resolved. Every step performs the
    exact cell-shift drift, the Euler reaction update, and a renormalization.
    Snapshots are stored every ``snapshot_stride`` steps plus the final state.

    Raises StepInstabilityError when a step produces a negative value (with
    g dtau <= 1 the rounded Euler update of nonnegative values cannot, so
    only an unstable step does), a non-finite value (seen as a non-finite
    mass) or a pre-renormalization mass defect beyond _TOL_MASS (1e-8), and
    MassLossError when cumulative leakage past u_max exceeds _LOST_MASS_CAP
    (1e-10 of unit mass).

    Each step's density is checked by the step itself, so it is handed to
    drift_shift and collision_kernel without being validated again.
    """
    grid = cfg.grid
    if p0.grid != grid:
        raise ValueError("p0 lives on a different grid than the config")
    if abs(mass(p0) - 1.0) > 1e-9:
        raise ValueError("p0 must be normalized")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    if not isinstance(g, GammaTrajectory):
        g = _check_g0(g)
    elif g.tau_end < tau_end - 1e-12:
        raise ValueError("fraction trajectory does not cover [0, tau_end]")
    dtau = cfg.dtau_resolved
    n_steps = _whole_steps(tau_end, dtau, "tau_end", "dtau")
    _check_time_steps(n_steps, tau_end, dtau)

    w = grid.quad_weights()
    vals = p0.values.copy()
    snaps = [vals.copy()]
    snap_taus = [0.0]
    cum_lost = 0.0
    max_drift = 0.0
    for step in range(n_steps):
        tau_here = step * dtau
        shifted, lost = drift_shift(UDensity._unchecked(grid, vals), dtau)
        cum_lost += abs(lost)
        if cum_lost > _LOST_MASS_CAP:
            raise MassLossError(
                f"cumulative drift leakage {cum_lost:.3e} exceeded cap "
                f"{_LOST_MASS_CAP:.3e} at tau={tau_here + dtau:.6g}"
            )
        gval = _g_of(g, tau_here)
        k = collision_kernel(shifted, shifted)
        vals = shifted.values + dtau * gval * (k.values - shifted.values)
        vmin = float(vals.min())
        if vmin < 0.0:
            raise StepInstabilityError(
                f"negative density {vmin:.3e} at tau={tau_here + dtau:.6g}"
            )
        total = float(w @ vals)
        # the weights are positive and no value is below zero here, so the
        # mass is finite exactly when every value is
        if not np.isfinite(total):
            raise StepInstabilityError(
                f"non-finite density mass {total} at tau={tau_here + dtau:.6g}"
            )
        drift = abs(total - 1.0)
        max_drift = max(max_drift, drift)
        if drift > _TOL_MASS:
            raise StepInstabilityError(
                f"per-step mass defect {drift:.3e} exceeds tol_mass={_TOL_MASS:.1e} "
                f"at tau={tau_here + dtau:.6g}"
            )
        vals = vals / total
        if (step + 1) % snapshot_stride == 0 or step + 1 == n_steps:
            snaps.append(vals.copy())
            snap_taus.append((step + 1) * dtau)
    return TransientSolution(
        grid=grid,
        taus=np.asarray(snap_taus),
        densities=np.asarray(snaps),
        dtau=dtau,
        max_renorm_drift=max_drift,
        lost_mass=cum_lost,
    )


@dataclass(frozen=True, eq=False)
class ResummedResidual:
    """L1(u) mismatch of the memory-integral identity per snapshot time.

    footnote[k] uses the closed two-event form of the collision term;
    truncated[m-1, k] uses the event-chain hierarchy cut at depth m. Both
    include the tau = 0 seed impulse, so the residual vanishes identically
    at tau = 0.
    """

    taus: np.ndarray
    footnote: np.ndarray
    truncated: np.ndarray


def _memory_integral(sol: TransientSolution, gt0: float, src: np.ndarray) -> np.ndarray:
    """Seeded Duhamel sums A_k = gt0 S_{tau_k} p_0 + sum_j wq_k[j]
    S_{tau_k - tau_j} src_j at every snapshot k, by the trapezoid recurrence
    of the module docstring; the spacings must be whole cells. Raises
    ConvergenceError once a sum is not finite."""
    grid = sol.grid

    def finite(vals: np.ndarray, tau: float) -> np.ndarray:
        if not np.all(np.isfinite(vals)):
            raise ConvergenceError(f"the Duhamel sum of the resummed residual is not "
                                   f"finite at tau={tau:g}")
        return vals

    out = np.empty_like(src)
    out[0] = gt0 * sol.densities[0]
    for k in range(1, src.shape[0]):
        delta = sol.taus[k] - sol.taus[k - 1]
        carried = UDensity(grid, finite(out[k - 1] + 0.5 * delta * src[k - 1], sol.taus[k - 1]))
        out[k] = drift_shift(carried, delta)[0].values + 0.5 * delta * src[k]
    finite(out[-1], sol.taus[-1])
    return out


# e^B and the sums may overflow on a long run; _memory_integral raises then
@np.errstate(over="ignore", invalid="ignore")
def residual_resummed(sol: TransientSolution, g, m_max: int = _HIERARCHY_LIMIT) -> ResummedResidual:
    """Measure how well the transient snapshots satisfy the resummed identity.

    g must be the fraction input used for the evolution (constant or
    trajectory) with 0 <= g(0) < 1. Snapshots must be dense enough for the
    time quadrature, spacing at most 10 * dtau, and spaced by 1 or more whole
    grid cells, as every ``evolve_transient`` output is. The footnote and each
    depth are one ``_memory_integral`` of their own source, which takes
    nsnap * m_max kernel calls in all. Raises ConvergenceError when a
    Duhamel sum is not finite, as when e^B overflows on a long run.
    """
    if not 1 <= m_max <= _HIERARCHY_LIMIT:
        raise ValueError(f"m_max must lie in 1..{_HIERARCHY_LIMIT}, got {m_max}")
    taus = sol.taus
    if taus.size < 2:
        raise ValueError("need at least two snapshots")
    spacing = np.diff(taus)
    if np.max(spacing) > 10.0 * sol.dtau + 1e-12:
        raise ValueError(
            f"snapshot spacing {np.max(spacing):.4g} too coarse for the time "
            f"quadrature (limit {10.0 * sol.dtau:.4g})"
        )
    grid = sol.grid
    for delta in np.unique(spacing):
        _whole_steps(float(delta), grid.h, "snapshot spacing", "h")
    g0 = _g_of(g, 0.0)
    if not 0.0 <= g0 < 1.0:
        raise ValueError(f"resummed residual requires 0 <= g(0) < 1, got {g0}")

    w = grid.quad_weights()
    gvals = np.array([_g_of(g, t) for t in taus])
    if isinstance(g, GammaTrajectory):
        cum = np.interp(taus, g.taus, g.cumulative())
    else:
        cum = float(g) * taus
    exp_b = np.exp(cum) / (1.0 - g0)  # e^{B}, B = int g - ln(1-g0)
    exp_mb = np.exp(-cum) * (1.0 - g0)
    gt0 = g0 / (1.0 - g0)
    dens = sol.densities
    snaps = [UDensity(grid, row) for row in dens]
    lhs = gvals[:, None] * dens  # also the depth-1 source g p

    def mismatch(acc: np.ndarray) -> np.ndarray:
        return np.abs(lhs - exp_mb[:, None] * acc) @ w

    kern = np.array([collision_kernel(s, s).values for s in snaps])
    footnote = mismatch(
        _memory_integral(sol, gt0, lhs + (gvals**2 * exp_b)[:, None] * kern)
    )
    truncated = np.empty((m_max, taus.size))
    chain = _memory_integral(sol, gt0, lhs)
    truncated[0] = mismatch(chain)
    for m in range(1, m_max):
        kr = np.array(
            [collision_kernel(s, UDensity(grid, r)).values for s, r in zip(snaps, chain)]
        )
        chain = _memory_integral(sol, gt0, gvals[:, None] * (dens + kr))
        truncated[m] = mismatch(chain)
    return ResummedResidual(taus=taus.copy(), footnote=footnote, truncated=truncated)
