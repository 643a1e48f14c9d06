"""One-shot references of the node scheme of ``randloc.udist.collision_kernel``.

They build the quadrature tables of every row at once and evaluate the
kernel with pair-sized temporaries.

* ``thin_node_tables`` and ``thin_node_kernel`` store, as the scheme does,
  each pair's stencil offset and folded weight and interpolate in Newton
  form from forward differences. The blocked tables and kernel do the same
  float operations on the same values, so the two agree bit for bit.
* ``node_tables`` and ``node_kernel`` store four folded Lagrange weights a
  pair, as the scheme did before its tables were thinned. They interpolate
  the same cubic, so the two forms agree to rounding.
"""

import numpy as np

from randloc.udist import (
    _GREGORY,
    _NEAR_PANEL,
    _NEAR_SPAN,
    UDensity,
    _interp4,
    _lagrange4,
    _stencil,
)


def _pairs(u_max: float, n: int):
    """Rows, row starts, and the nodes i and j, x / (x - u) and quadrature
    weight of every pair."""
    m = max(0, min(int(np.ceil(_NEAR_SPAN * n / u_max - 1e-9)), (n - 7) // 2))
    rows = np.arange(1, n // 2 + 1)
    first = np.where(rows < m, rows + m, 2 * rows)
    lens = n - first + 1
    starts = np.cumsum(lens) - lens
    i = np.repeat(rows, lens)
    j = np.arange(i.size) - np.repeat(starts - first, lens)
    r = j / (j - i)
    q = np.ones(i.size)
    q[starts + lens - 1] = 0.5
    long_row = lens >= 8
    for k, g in enumerate(_GREGORY):
        q[starts[long_row] + k] = g
    q[starts[~long_row]] = np.where(lens[~long_row] == 1, 0.0, 0.5)
    return m, rows, starts, i, j, r, q


def _gauss_part(u_max: float, n: int, m: int):
    xg, wg = np.polynomial.legendre.leggauss(8)
    parts = [np.zeros((3, 0))]
    for ii in range(1, m):
        span = np.log(m / ii)
        panels = int(np.ceil(span / _NEAR_PANEL))
        s = (np.arange(panels)[:, None] + 0.5 * (xg + 1.0)).ravel() * (span / panels)
        parts.append([np.full(s.size, ii), ii * np.exp(s), np.tile(0.5 * wg * span / panels, panels)])
    ni, v, ws = np.concatenate(parts, axis=1)
    bx, wx = _lagrange4(ni + v, n)
    by, wy = _lagrange4(ni + ni * ni / v, n)
    wy *= (2.0 * u_max / n) * (1.0 + ni / v) ** 2 * v * ws
    return ni.astype(np.int64), bx, wx, by, wy


def thin_node_tables(u_max: float, n_bins: int):
    """The tables of ``udist._node_tables``, built in one shot."""
    m, rows, starts, i, j, r, q = _pairs(u_max, n_bins)
    b, t = _stencil(i * r, n_bins)
    fold = q * (2.0 * u_max / n_bins) * r * r
    return (rows, starts, j.astype(np.uint16), b.astype(np.uint16), t, fold,
            *_gauss_part(u_max, n_bins, m))


def node_tables(u_max: float, n_bins: int):
    """Tables with four folded Lagrange weights a pair, built in one shot."""
    m, rows, starts, i, j, r, q = _pairs(u_max, n_bins)
    b, w = _lagrange4(i * r, n_bins)
    w *= q * (2.0 * u_max / n_bins) * r * r
    return (rows, starts, j.astype(np.uint16), b.astype(np.uint16), w,
            *_gauss_part(u_max, n_bins, m))


def _finish(p: UDensity, rows, starts, pair_terms, ni, bx, wx, by, wy) -> np.ndarray:
    g = p.grid
    v = p.values
    out = np.zeros(g.n_nodes)
    out[rows] = np.add.reduceat(pair_terms, starts)
    out += np.bincount(ni, weights=_interp4(v, bx, wx) * _interp4(v, by, wy),
                       minlength=g.n_nodes)
    wq = g.quad_weights().copy()
    if g.n_bins >= 7:
        wq[:4] = g.h * _GREGORY
        wq[-4:] = g.h * _GREGORY[::-1]
    out[0] = 2.0 * v[0] * (wq @ v)
    return np.maximum(out, 0.0, out=out)


def thin_node_kernel(p: UDensity) -> np.ndarray:
    """Node values of the node scheme's K[p, p], from ``thin_node_tables``."""
    g = p.grid
    rows, starts, j, b, t, fold, *gauss = thin_node_tables(g.u_max, g.n_bins)
    v = p.values
    d1 = np.diff(v)
    d2 = np.diff(d1) / 2.0
    d3 = np.diff(d1, 2) / 6.0
    newton = ((d3[b] * (t - 2.0) + d2[b]) * (t - 1.0) + d1[b]) * t + v[b]
    return _finish(p, rows, starts, newton * fold * v[j], *gauss)


def node_kernel(p: UDensity) -> np.ndarray:
    """Node values of K[p, p] from the four-weight ``node_tables``."""
    g = p.grid
    rows, starts, j, b, w, *gauss = node_tables(g.u_max, g.n_bins)
    v = p.values
    return _finish(p, rows, starts, _interp4(v, b, w) * v[j], *gauss)
