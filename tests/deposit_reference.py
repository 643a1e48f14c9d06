"""One-shot reference of the deposit tables of ``randloc.udist``.

It computes every pair's target bin at once and sorts all pairs with one
stable argsort, with pair-sized temporaries, as ``_deposit_tables`` did
before it filled its arrays row block by row block. The blocked build does
the same float operations on the same values and keeps the same stable
order, so the two agree bit for bit.
"""

import numpy as np

from randloc.udist import _grid_tables


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
    i = i[order]
    j = j[order]
    return i, j, c[order], bins, starts, np.flatnonzero(i == j)
