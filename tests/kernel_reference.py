"""Dense reference of the deposit scheme of ``randloc.udist.collision_kernel``.

It bins all N^2 ordered node pairs with ``np.bincount``: every pair deposits
w_i p_i w_j q_j at the bin of its combined value, split linearly between the
bin's two nodes. The kernel stores each unordered pair once and sums bins by
segments, so the two agree to rounding, not bit for bit.
"""

import numpy as np

from randloc.udist import UDensity


def dense_deposit(p: UDensity, q: UDensity) -> np.ndarray:
    """Node values of K[p, q] by the all-pairs bincount deposition."""
    g = p.grid
    nodes = g.nodes()
    s = nodes[:, None] + nodes[None, :]
    c = np.multiply.outer(nodes, nodes)
    np.divide(c, s, out=c, where=s > 0.0)
    c[0, 0] = 0.0
    f = c.ravel()
    f *= g.n_bins / g.u_max
    idx = np.floor(f).astype(np.int64)
    frac = f - idx
    w = g.quad_weights()
    wflat = np.multiply.outer(w * p.values, w * q.values).ravel()
    n = g.n_nodes
    dep = np.bincount(idx, weights=wflat * (1.0 - frac), minlength=n)
    hi = np.bincount(idx, weights=wflat * frac, minlength=n)
    dep[1:] += hi[: n - 1]
    return dep / w
