"""Dense reference of ``randloc.meanfield.residual_resummed``.

It evaluates every memory integral as its own trapezoid sum: for each
snapshot k, every earlier source is drifted by tau_k - tau_j and weighted
with the trapezoid weights on tau_0..tau_k, O(nsnap^2) drift shifts per
quantity. Depth 1 pairs each snapshot with an all-zero chain. The
residual builds the same sums by a recurrence, so the two agree to
rounding, not bit for bit.
"""

import numpy as np

from randloc.gamma import GammaTrajectory
from randloc.meanfield import ResummedResidual, TransientSolution
from randloc.udist import UDensity, collision_kernel, drift_shift


def dense_resummed(sol: TransientSolution, g, m_max: int) -> ResummedResidual:
    """Footnote and truncated residuals by the all-pairs double sum."""
    taus = sol.taus
    grid = sol.grid
    w = grid.quad_weights()
    nsnap = taus.size
    if isinstance(g, GammaTrajectory):
        gvals = np.array([float(g.value_at(t)) for t in taus])
        cum = np.interp(taus, g.taus, g.cumulative())
    else:
        gvals = np.full(nsnap, float(g))
        cum = float(g) * taus
    g0 = gvals[0]
    exp_b = np.exp(cum) / (1.0 - g0)
    exp_mb = np.exp(-cum) * (1.0 - g0)
    gt0 = g0 / (1.0 - g0)
    dens = sol.densities

    def shift(vals, delta):
        return drift_shift(UDensity(grid, vals), delta)[0].values

    def quad_weights_upto(k):
        wq = np.zeros(k + 1)
        for j in range(k):
            half = 0.5 * (taus[j + 1] - taus[j])
            wq[j] += half
            wq[j + 1] += half
        return wq

    lhs = gvals[:, None] * dens
    kern = np.array([collision_kernel(UDensity(grid, d), UDensity(grid, d)).values for d in dens])
    footnote = np.zeros(nsnap)
    for k in range(nsnap):
        acc = gt0 * shift(dens[0], taus[k])
        wq = quad_weights_upto(k)
        for j in range(k + 1):
            d = taus[k] - taus[j]
            acc = acc + wq[j] * (
                gvals[j] * shift(dens[j], d) + gvals[j] ** 2 * exp_b[j] * shift(kern[j], d)
            )
        footnote[k] = float(w @ np.abs(lhs[k] - exp_mb[k] * acc))

    truncated = np.zeros((m_max, nsnap))
    r_prev = np.zeros_like(dens)
    for m in range(m_max):
        kr = np.array([
            collision_kernel(UDensity(grid, d), UDensity(grid, r)).values
            for d, r in zip(dens, r_prev)
        ])
        r_m = np.empty_like(dens)
        for k in range(nsnap):
            acc = gt0 * shift(dens[0], taus[k])
            wq = quad_weights_upto(k)
            for j in range(k + 1):
                acc = acc + wq[j] * gvals[j] * shift(dens[j] + kr[j], taus[k] - taus[j])
            r_m[k] = acc
            truncated[m, k] = float(w @ np.abs(lhs[k] - exp_mb[k] * acc))
        r_prev = r_m
    return ResummedResidual(taus=taus.copy(), footnote=footnote, truncated=truncated)
