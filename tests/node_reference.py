"""One-shot references of the node scheme of ``randloc.udist.collision_kernel``.

They build the quadrature tables of every row at once and evaluate the
kernel with pair-sized temporaries.

* ``thin_node_tables`` and ``thin_node_kernel`` store, as the scheme does,
  each pair's and Gauss point's stencil starts and offsets and folded
  weight and interpolate in Newton form from forward differences. The
  blocked tables and kernel do the same float operations on the same
  values, so the two agree bit for bit. The scheme reads p at each row's
  partner nodes as a slice; the reference gathers it from its own list of
  every pair's node j.
* ``node_tables`` and ``node_kernel`` store four folded Lagrange weights a
  pair and a Gauss point, from this module's own ``_lagrange4``. They
  interpolate the same cubics, so the two forms agree to rounding.
"""

import numpy as np

from randloc.udist import _GREGORY, _NEAR_PANEL, _NEAR_SPAN, UDensity, _stencil


def _lagrange4(s: np.ndarray, n_bins: int):
    """First node b and the four Lagrange weights of the stencil of
    ``_stencil`` at positions s."""
    b, t = _stencil(s, n_bins)
    w = np.empty((4, t.size))
    w[0] = -(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0
    w[1] = t * (t - 2.0) * (t - 3.0) / 2.0
    w[2] = -t * (t - 1.0) * (t - 3.0) / 2.0
    w[3] = t * (t - 1.0) * (t - 2.0) / 6.0
    return b, w


def _interp4(v: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = w[0] * v[b]
    for k in (1, 2, 3):
        out += w[k] * v[k:][b]
    return out


def _newton(v: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    d1 = np.diff(v)
    d2 = np.diff(d1) / 2.0
    d3 = np.diff(d1, 2) / 6.0
    return ((d3[b] * (t - 2.0) + d2[b]) * (t - 1.0) + d1[b]) * t + v[b]


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
    """Row, x / h and y / h of every Gauss point, and its folded weight."""
    xg, wg = np.polynomial.legendre.leggauss(8)
    parts = [np.zeros((3, 0))]
    for ii in range(1, m):
        span = np.log(m / ii)
        panels = int(np.ceil(span / _NEAR_PANEL))
        s = (np.arange(panels)[:, None] + 0.5 * (xg + 1.0)).ravel() * (span / panels)
        parts.append([np.full(s.size, ii), ii * np.exp(s), np.tile(0.5 * wg * span / panels, panels)])
    ni, v, ws = np.concatenate(parts, axis=1)
    fold = (2.0 * u_max / n) * (1.0 + ni / v) ** 2 * v * ws
    return ni.astype(np.int64), ni + v, ni + ni * ni / v, fold


def _thin_tables(u_max: float, n_bins: int):
    """The tables of ``udist._node_tables``, built in one shot, and the
    node j of every pair."""
    m, rows, starts, i, j, r, q = _pairs(u_max, n_bins)
    b, t = _stencil(i * r, n_bins)
    fold = q * (2.0 * u_max / n_bins) * r * r
    ni, sx, sy, gauss_fold = _gauss_part(u_max, n_bins, m)
    return (rows, starts, b.astype(np.uint16), t, fold, ni, *_stencil(sx, n_bins),
            *_stencil(sy, n_bins), gauss_fold), j


def thin_node_tables(u_max: float, n_bins: int):
    """The tables of ``udist._node_tables``, built in one shot."""
    return _thin_tables(u_max, n_bins)[0]


def node_tables(u_max: float, n_bins: int):
    """Tables with four folded Lagrange weights a pair and a Gauss point,
    built in one shot."""
    m, rows, starts, i, j, r, q = _pairs(u_max, n_bins)
    b, w = _lagrange4(i * r, n_bins)
    w *= q * (2.0 * u_max / n_bins) * r * r
    ni, sx, sy, gauss_fold = _gauss_part(u_max, n_bins, m)
    bx, wx = _lagrange4(sx, n_bins)
    by, wy = _lagrange4(sy, n_bins)
    wy *= gauss_fold
    return rows, starts, j.astype(np.uint16), b.astype(np.uint16), w, ni, bx, wx, by, wy


def _finish(p: UDensity, rows, starts, pair_terms, ni, gauss_terms) -> np.ndarray:
    g = p.grid
    v = p.values
    out = np.zeros(g.n_nodes)
    out[rows] = np.add.reduceat(pair_terms, starts)
    out += np.bincount(ni, weights=gauss_terms, minlength=g.n_nodes)
    wq = g.quad_weights().copy()
    if g.n_bins >= 7:
        wq[:4] = g.h * _GREGORY
        wq[-4:] = g.h * _GREGORY[::-1]
    out[0] = 2.0 * v[0] * (wq @ v)
    return np.maximum(out, 0.0, out=out)


def thin_node_kernel(p: UDensity) -> np.ndarray:
    """Node values of the node scheme's K[p, p], from ``thin_node_tables``."""
    g = p.grid
    (rows, starts, b, t, fold, ni, bx, tx, by, ty, gw), j = _thin_tables(g.u_max, g.n_bins)
    v = p.values
    gauss = _newton(v, bx, tx) * _newton(v, by, ty) * gw
    return _finish(p, rows, starts, _newton(v, b, t) * fold * v[j], ni, gauss)


def node_kernel(p: UDensity) -> np.ndarray:
    """Node values of K[p, p] from the four-weight ``node_tables``."""
    g = p.grid
    rows, starts, j, b, w, ni, bx, wx, by, wy = node_tables(g.u_max, g.n_bins)
    v = p.values
    gauss = _interp4(v, bx, wx) * _interp4(v, by, wy)
    return _finish(p, rows, starts, _interp4(v, b, w) * v[j], ni, gauss)
