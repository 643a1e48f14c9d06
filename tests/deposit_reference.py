"""One-shot reference of the deposit scheme of ``randloc.udist``.

It computes every pair's target bin at once and sorts all pairs with one
stable argsort, with pair-sized temporaries, as ``_deposit_tables`` did
before it filled its arrays row block by row block, and evaluates the
kernel from those tables in one pass over all pairs. The blocked build and
kernel do the same float operations on the same values and keep the same
stable order and segment sums, so the two agree bit for bit.
"""

import numpy as np

from randloc.udist import UDensity, _grid_tables


def deposit_tables(u_max: float, n_bins: int):
    """The tables (i, j, frac, bins, starts, diag) of ``udist._deposit_tables``,
    built in one shot."""
    n = n_bins + 1
    nodes = _grid_tables(u_max, n_bins)[0]
    i, j = np.triu_indices(n)
    c = nodes[i] * nodes[j]
    s = nodes[i] + nodes[j]
    np.divide(c, s, out=c, where=s > 0.0)
    c[0] = 0.0
    c *= n_bins / u_max
    k = np.floor(c).astype(np.intp)
    c -= k
    counts = np.bincount(k, minlength=n)
    order = np.argsort(k, kind="stable")
    bins = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[bins]
    i = i[order].astype(np.uint16)
    j = j[order].astype(np.uint16)
    return i, j, c[order], bins, starts, np.flatnonzero(i == j)


def deposit_kernel(p: UDensity, q: UDensity) -> np.ndarray:
    """Node values of the deposit scheme's K[p, q], from ``deposit_tables``."""
    g = p.grid
    i, j, frac, bins, starts, diag = deposit_tables(g.u_max, g.n_bins)
    w = g.quad_weights()
    a = w * p.values
    b = w * q.values
    if q is p:
        wt = a[i] * a[j] * 2.0
    else:
        wt = a[i] * b[j] + a[j] * b[i]
    wt[diag] = a * b
    hi = wt * frac
    wt -= hi
    dep = np.zeros(g.n_nodes)
    dep[bins] = np.add.reduceat(wt, starts)
    dep[bins + 1] += np.add.reduceat(hi, starts)
    return dep / w
