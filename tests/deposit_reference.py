"""One-shot reference of the deposit scheme of ``randloc.udist``.

It computes every pair's target bin at once and sorts all pairs with one
stable argsort, with pair-sized temporaries, and evaluates the kernel from
those tables in one pass over all pairs, adding the diagonal pairs (i, i)
after the bin segments. The blocked build and kernel do the same float
operations on the same values and keep the same stable order and segment
sums, so the two agree bit for bit.
"""

import numpy as np

from randloc.udist import UDensity, _grid_tables


def _split(x, y, scale):
    """Target bins and split fractions of the pairs (x, y), (0, 0) at bin 0."""
    c = x * y
    s = x + y
    np.divide(c, s, out=c, where=s > 0.0)
    c *= scale
    k = np.floor(c).astype(np.intp)
    return k, c - k


def deposit_tables(u_max: float, n_bins: int):
    """The tables (i, j, frac, bins, starts, diagonal bin, diagonal fraction)
    of ``udist._deposit_tables``, built in one shot."""
    n = n_bins + 1
    nodes = _grid_tables(u_max, n_bins)[0]
    i, j = np.triu_indices(n, k=1)
    k, c = _split(nodes[i], nodes[j], n_bins / u_max)
    counts = np.bincount(k, minlength=n)
    order = np.argsort(k, kind="stable")
    bins = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[bins]
    return (i[order].astype(np.uint16), j[order].astype(np.uint16), c[order], bins, starts,
            *_split(nodes, nodes, n_bins / u_max))


def deposit_kernel(p: UDensity, q: UDensity) -> np.ndarray:
    """Node values of the deposit scheme's K[p, q], from ``deposit_tables``."""
    g = p.grid
    i, j, frac, bins, starts, diag_bin, diag_frac = deposit_tables(g.u_max, g.n_bins)
    w = g.quad_weights()
    a = w * p.values
    b = w * q.values
    if q is p:
        wt = a[i] * a[j] * 2.0
    else:
        wt = a[i] * b[j] + a[j] * b[i]
    hi = wt * frac
    wt -= hi
    dep = np.zeros(g.n_nodes)
    dep[bins] = np.add.reduceat(wt, starts)
    dep[bins + 1] += np.add.reduceat(hi, starts)
    wt = a * b
    hi = wt * diag_frac
    wt -= hi
    dep += np.bincount(diag_bin, weights=wt, minlength=g.n_nodes)
    dep[1:] += np.bincount(diag_bin, weights=hi, minlength=g.n_bins)
    return dep / w
