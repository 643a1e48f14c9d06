"""Distributions of the dimensionless squared localization length.

The state variable u lives on a uniform grid [0, u_max]. Densities are
node-valued and integrated with trapezoid weights; every mass statement in
this module uses the same weight vector, so conservation checks are exact
at rounding level rather than merely consistent to O(h^2).

Core physics operations:

* ``combine``: harmonic pairing u1*u2/(u1+u2). A proximity measurement on a
  pair of localized particles contracts both onto the harmonic combination
  of their squared widths (inverse variances add).
* ``collision_kernel``: the gain term of the pairing dynamics, the density
  of combined values, in one of two discretizations. The default bilinear
  deposition of all node pairs onto the bin of their combined value is
  mass-exact at rounding level but only second-order accurate at the nodes;
  the transient solver and the resummed residual use it. Its cached tables
  hold each unordered pair once, sorted by target bin (24 bytes a pair,
  12 N^2 bytes for N nodes). The kernel walks them in fixed blocks of about
  64k pairs, cut at bin-segment starts, on at most two threads once a grid
  has 16 blocks; no bin's sum crosses a block, so the result is the same
  floats for any thread count.
  The "node" scheme evaluates K[p, p] at the nodes by a fourth-order
  quadrature of its integral form. It is not mass-exact; the steady solver
  and the steady residual use it.
* ``drift_shift``: free spreading between measurements, a rigid translation
  of the density toward larger u by whole cells.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "UGrid",
    "UDensity",
    "combine",
    "collision_kernel",
    "drift_shift",
    "laplace",
    "mass",
    "moment",
    "normalize",
    "point_mass",
    "exponential_density",
    "default_init_density",
]


@dataclass(frozen=True)
class UGrid:
    """Uniform grid over u in [0, u_max] with nodes u_i = i * h."""

    u_max: float
    n_bins: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.u_max) or self.u_max <= 0:
            raise ValueError(f"u_max must be positive and finite, got {self.u_max}")
        if self.n_bins < 2:
            raise ValueError(f"need at least 2 bins, got {self.n_bins}")

    @classmethod
    def from_spacing(cls, u_max: float, h: float) -> "UGrid":
        if h <= 0:
            raise ValueError(f"spacing must be positive, got {h}")
        n = int(round(u_max / h))
        if n < 2 or abs(n * h - u_max) > 1e-9 * u_max:
            raise ValueError(f"u_max={u_max} is not an integer multiple of h={h}")
        return cls(float(u_max), n)

    @property
    def h(self) -> float:
        return self.u_max / self.n_bins

    @property
    def n_nodes(self) -> int:
        return self.n_bins + 1

    def nodes(self) -> np.ndarray:
        return _grid_tables(self.u_max, self.n_bins)[0]

    def quad_weights(self) -> np.ndarray:
        """Trapezoid weights: h at interior nodes, h/2 at the two ends."""
        return _grid_tables(self.u_max, self.n_bins)[1]


@dataclass(frozen=True, eq=False)
class UDensity:
    """Nonnegative node values of a density over u on a fixed grid."""

    grid: UGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} node values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        if np.any(vals < 0.0):
            raise ValueError("density values must be nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@lru_cache(maxsize=8)
def _grid_tables(u_max: float, n_bins: int):
    nodes = np.linspace(0.0, u_max, n_bins + 1)
    w = np.full(n_bins + 1, u_max / n_bins)
    w[0] *= 0.5
    w[-1] *= 0.5
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


# Pair tables above this many bytes are refused before they are built;
# building them peaks at about 2.5 times the cached size.
_TABLE_BUDGET_BYTES = 1 << 30


def _check_table_bytes(kind: str, grid: UGrid, nbytes: int) -> None:
    if nbytes > _TABLE_BUDGET_BYTES:
        raise ValueError(
            f"the {kind} kernel tables of the grid u_max={grid.u_max:g}, h={grid.h:g} "
            f"({grid.n_nodes} nodes) would take {nbytes} bytes, above the budget of "
            f"{_TABLE_BUDGET_BYTES} bytes; use a coarser grid"
        )


@lru_cache(maxsize=8)
def _deposit_tables(u_max: float, n_bins: int):
    """Pair-deposition tables of the deposit scheme.

    combine is symmetric, so only the node pairs i <= j are stored, sorted
    (stably, from row-major order) by the target bin k = floor(combine / h):
    the nodes i and j of every pair (intp) and its linear split fraction
    toward node k + 1 (float64), 24 bytes a pair, 12 N^2 bytes for N nodes.
    ``bins`` lists the bins that receive pairs and ``starts`` the first pair
    of each, so a bin's deposits are one contiguous segment. ``diag`` gives
    the positions of the pairs (0, 0), (1, 1), ... in node order: the bin of
    (i, i) grows with i, and the sort is stable. The (0, 0) pair is pinned
    to u = 0, the limit of combine along any path. combine never exceeds
    u_max / 2 on the grid, so k + 1 stays on it.
    """
    n = n_bins + 1
    nodes = _grid_tables(u_max, n_bins)[0]
    i, j = np.triu_indices(n)
    c = nodes[i] * nodes[j]
    s = nodes[i] + nodes[j]
    np.divide(c, s, out=c, where=s > 0.0)
    del s
    c[0] = 0.0
    c *= n_bins / u_max
    k = np.floor(c).astype(np.intp)
    c -= k
    counts = np.bincount(k, minlength=n)
    order = np.argsort(k, kind="stable")
    del k
    bins = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[bins]
    frac = c[order]
    del c
    i = i[order]
    j = j[order]
    del order
    diag = np.flatnonzero(i == j)
    tables = (i, j, frac, bins, starts, diag)
    for arr in tables:
        arr.setflags(write=False)
    return tables


# Pairs per block of the deposit kernel; a block ends at the first bin
# segment start at or past each multiple of this.
_BLOCK_PAIRS = 1 << 16
# Threads of the deposit kernel, the calling one included, at most: the
# kernel is bound by memory traffic, which further threads would only share.
_MAX_KERNEL_THREADS = 2
# Grids with fewer blocks run in the calling thread alone: on two cores a
# helper made 3- and 8-block calls about 7 % slower and 18- and 45-block
# calls 1.2-1.6 times faster.
_MIN_THREADED_BLOCKS = 16


@lru_cache(maxsize=8)
def _deposit_blocks(u_max: float, n_bins: int, block_pairs: int):
    """Fixed blocks of the bin-sorted pairs of ``_deposit_tables``.

    Every block starts at a bin segment start, so each bin's sums lie in one
    block. A block is (first pair, end pair, first bin, end bin, segment
    starts relative to the first pair, first diagonal node, end diagonal
    node, diagonal positions relative to the first pair); the blocks come
    with the widest block's pair count.
    """
    _, _, _, _, starts, diag = _deposit_tables(u_max, n_bins)
    n_pairs = (n_bins + 1) * (n_bins + 2) // 2
    cuts = np.unique(np.searchsorted(starts, np.arange(0, n_pairs, block_pairs)))
    cuts = cuts[cuts < starts.size]
    bin_cuts = np.append(cuts, starts.size)
    pair_cuts = np.append(starts[cuts], n_pairs)
    diag_cuts = np.searchsorted(diag, pair_cuts)
    blocks = []
    for k in range(cuts.size):
        s0, s1 = int(pair_cuts[k]), int(pair_cuts[k + 1])
        b0, b1 = int(bin_cuts[k]), int(bin_cuts[k + 1])
        d0, d1 = int(diag_cuts[k]), int(diag_cuts[k + 1])
        blocks.append((s0, s1, b0, b1, starts[b0:b1] - s0, d0, d1, diag[d0:d1] - s0))
    return tuple(blocks), int(np.max(np.diff(pair_cuts)))


def _kernel_threads() -> int:
    """Threads of the deposit kernel, the calling one included: one per
    usable CPU, at most _MAX_KERNEL_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_KERNEL_THREADS, cpus))


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# Per-thread scratch of the deposit blocks, grown to the widest block seen.
_scratch = threading.local()


def _kernel_pool(helpers: int) -> ThreadPoolExecutor:
    """The kernel's helper threads, started on the first call that uses them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(helpers, thread_name_prefix="randloc-kernel")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's pool threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def combine(u1, u2):
    """Harmonic combination u1*u2/(u1+u2) of squared localization lengths.

    Equals adding the inverse variances of two localized wave packets.
    Supports the extended value combine(u, inf) = u. Raises on negative
    input and on the undefined (0, 0) pair.
    """
    a = np.asarray(u1, dtype=float)
    b = np.asarray(u2, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("combine requires nonnegative arguments")
    if np.any((a == 0.0) & (b == 0.0)):
        raise ValueError("combine(0, 0) is undefined")
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = a * b / (a + b)
    out = np.where(np.isinf(a), b, np.where(np.isinf(b), a, raw))
    if out.ndim == 0:
        return float(out)
    return out


def collision_kernel(p: UDensity, q: UDensity, *, scheme: str = "deposit") -> UDensity:
    """Distribution of combine(X, Y) for independent X ~ p, Y ~ q.

    Two discretizations of the same gain term, chosen by ``scheme``:

    * ``"deposit"`` (default): every node pair deposits its trapezoid-weighted
      product mass into the bin containing the combined value, split linearly
      between the two adjacent nodes. Deposition is mass-exact: the output
      trapezoid mass equals mass(p) * mass(q) up to rounding. combine is
      symmetric, so the cached tables of ``_deposit_tables`` hold only the
      pairs i <= j, sorted by target bin: two intp node indices and one
      float64 split fraction, 24 bytes a pair, 12 N^2 bytes for N nodes.
      Each bin's shares are sums over one contiguous segment of pairs, in a
      fixed order, so results are bit-reproducible and K[p, q] equals
      K[q, p] bit for bit. The pairs are walked in fixed blocks of about
      64k, cut at bin-segment starts from the tables alone, on at most
      min(2, usable CPUs) threads; a grid of fewer than 16 blocks (about a
      million pairs, N below about 1450) runs in the calling thread. No
      segment crosses a block, so the floats do not depend on the thread
      count. Grids whose tables would exceed a fixed budget (1 GiB) raise
      ValueError before any table is built.
    * ``"node"``: K[p, p] evaluated at the nodes from its integral form, see
      ``_node_kernel``. Fourth order in h for smooth p, but the output mass
      equals mass(p)^2 only to that order. Needs q equal to p.
    """
    if p.grid != q.grid:
        raise ValueError("collision_kernel requires both densities on the same grid")
    if scheme == "node":
        if q is not p and not np.array_equal(p.values, q.values):
            raise ValueError("the node scheme evaluates K[p, p] only; pass q equal to p")
        return _node_kernel(p)
    if scheme != "deposit":
        raise ValueError(f"unknown kernel scheme {scheme!r}; use 'deposit' or 'node'")
    g = p.grid
    return UDensity(g, _deposit(p, q) / g.quad_weights())


def _deposit(p: UDensity, q: UDensity) -> np.ndarray:
    """Trapezoid mass of K[p, q] at each node, from the tables of
    ``_deposit_tables``, block by block of ``_deposit_blocks``.

    With a = w p and b = w q, the pair i < j carries a_i b_j + a_j b_i and
    the pair i == j carries a_i b_i, so K[p, q] and K[q, p] are the same
    floats. Each bin's lower and upper shares are sums of nonnegative terms
    over its contiguous segment of pairs, which lies in one block, so the
    sums do not depend on how the blocks are spread over threads.
    """
    g = p.grid
    _check_table_bytes("deposit", g, 24 * (g.n_nodes * (g.n_nodes + 1) // 2))
    tables = _deposit_tables(g.u_max, g.n_bins)
    blocks, width = _deposit_blocks(g.u_max, g.n_bins, _BLOCK_PAIRS)
    w = g.quad_weights()
    a = w * p.values
    b = a if q is p else w * q.values
    bins = tables[3]
    lo = np.empty(bins.size)
    hi = np.empty(bins.size)

    # The calling thread and its helpers take blocks off one iterator (next
    # on a tuple iterator is atomic under the interpreter lock), and each
    # block writes only its own slices of lo and hi.
    todo = iter(blocks)

    def drain():
        for block in todo:
            _deposit_block(block, width, tables, a, b, lo, hi)

    threads = _kernel_threads() if len(blocks) >= _MIN_THREADED_BLOCKS else 1
    helpers = [_kernel_pool(threads - 1).submit(drain) for _ in range(threads - 1)]
    drain()
    for helper in helpers:
        helper.result()
    dep = np.zeros(g.n_nodes)
    dep[bins] = lo
    dep[bins + 1] += hi
    return dep


def _deposit_block(block, width, tables, a, b, lo, hi) -> None:
    """One block's lower and upper bin shares, into its slices of lo and hi.

    Gathers into this thread's scratch, so no pair-sized array is allocated.
    """
    i, j, frac = tables[:3]
    s0, s1, b0, b1, seg, d0, d1, dpos = block
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape[1] < width:
        buf = _scratch.buf = np.empty((3, width))
    n = s1 - s0
    wt, x, y = buf[0, :n], buf[1, :n], buf[2, :n]
    np.take(a, i[s0:s1], out=wt, mode="clip")
    np.take(b, j[s0:s1], out=x, mode="clip")
    wt *= x
    if b is a:
        # a_i a_j + a_j a_i is exactly 2 a_i a_j: the general branch's floats
        wt *= 2.0
    else:
        np.take(a, j[s0:s1], out=x, mode="clip")
        np.take(b, i[s0:s1], out=y, mode="clip")
        x *= y
        wt += x
    wt[dpos] = a[d0:d1] * b[d0:d1]
    np.multiply(wt, frac[s0:s1], out=x)
    wt -= x  # wt (1 - frac), never below 0 since the upper share is <= wt
    np.add.reduceat(wt, seg, out=lo[b0:b1])
    np.add.reduceat(x, seg, out=hi[b0:b1])


# Gregory's end correction of the trapezoid rule, fourth order at a smooth end.
_GREGORY = np.array([17.0, 59.0, 43.0, 49.0]) / 48.0
# Rows of the node kernel with u below this length integrate the stretch
# x - u < _NEAR_SPAN by Gauss-Legendre in log(x - u); see _node_tables.
_NEAR_SPAN = 1.0
_NEAR_PANEL = 0.25


def _lagrange4(s: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """First node b and weights of the 4-point Lagrange stencil b..b+3 that
    interpolates node values at positions s, in units of h."""
    b = np.clip(np.floor(s).astype(np.int64) - 1, 0, n_bins - 3)
    t = s - b
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


@lru_cache(maxsize=8)
def _node_tables(u_max: float, n_bins: int):
    """Quadrature tables of ``_node_kernel``, in units of h.

    Row i (1 <= i <= n_bins // 2) integrates over x >= 2 u_i. The integrand
    carries x^2 / (x - u)^2 and p(y(x)), which vary on the scale u_i, so
    the node rule alone is fourth order only once u_i spans many cells.
    Rows with i < m, m cells making up _NEAR_SPAN, therefore take the
    stretch x - u_i < m h from composite Gauss-Legendre in log(x - u_i),
    with p at x and at y from 4-point Lagrange stencils, and the nodes
    x_j, j >= i + m, from the trapezoid rule; other rows take the nodes
    from j = 2i. Gregory's end weights sit at each row's first node.

    Returns the node part (row numbers, each row's start in the flat pair
    arrays, the node j of every pair, the stencil b for p(y_j), and its four
    weights with quadrature weight and Jacobian folded in; about 40 bytes
    per pair, under n_bins^2 / 4 pairs) and the Gauss part (row of every
    point, then stencil and weights for p(x) and for p(y), the quadrature
    weight folded into the latter).
    """
    n = n_bins
    m = max(0, min(int(np.ceil(_NEAR_SPAN * n / u_max - 1e-9)), (n - 7) // 2))
    rows = np.arange(1, n // 2 + 1)
    first = np.where(rows < m, rows + m, 2 * rows)
    lens = n - first + 1
    starts = np.cumsum(lens) - lens
    i = np.repeat(rows, lens)
    j = np.arange(i.size) - np.repeat(starts - first, lens)
    r = j / (j - i)  # x / (x - u), so y_j / h = i r, in (i, 2i]
    b, w = _lagrange4(i * r, n)
    # Rows too short for Gregory's weights lie near u_max / 2, where
    # p(x) p(y) is negligible, and keep the plain trapezoid; a one-node row
    # spans no interval.
    q = np.ones(i.size)
    q[starts + lens - 1] = 0.5
    long_row = lens >= 8
    for k, g in enumerate(_GREGORY):
        q[starts[long_row] + k] = g
    q[starts[~long_row]] = np.where(lens[~long_row] == 1, 0.0, 0.5)
    w *= q * (2.0 * u_max / n) * r * r
    # Gauss part: x - u = u e^s for s in [0, log(m / i)], in panels of at
    # most _NEAR_PANEL.
    xg, wg = np.polynomial.legendre.leggauss(8)
    parts = [np.zeros((3, 0))]  # row, (x - u) / h, weight in s
    for ii in range(1, m):
        span = np.log(m / ii)
        panels = int(np.ceil(span / _NEAR_PANEL))
        s = (np.arange(panels)[:, None] + 0.5 * (xg + 1.0)).ravel() * (span / panels)
        parts.append([np.full(s.size, ii), ii * np.exp(s), np.tile(0.5 * wg * span / panels, panels)])
    ni, v, ws = np.concatenate(parts, axis=1)
    bx, wx = _lagrange4(ni + v, n)
    by, wy = _lagrange4(ni + ni * ni / v, n)
    # dx = (x - u) ds, and x^2 / (x - u)^2 = (1 + u / (x - u))^2
    wy *= (2.0 * u_max / n) * (1.0 + ni / v) ** 2 * v * ws
    tables = (rows, starts, j.astype(np.int32), b.astype(np.int32), w,
              ni.astype(np.int64), bx, wx, by, wy)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _node_kernel(p: UDensity) -> UDensity:
    """K[p, p] at the nodes, the density of combine(X, Y) for X, Y ~ p.

    Uses the integral form over the larger member x of each pair,

        K(u) = 2 int_{2u}^{u_max} p(x) p(y) x^2 / (x - u)^2 dx,
        y = u x / (x - u) in (u, 2u],

    with the quadrature of ``_node_tables``: fourth order in h for smooth
    p, down to the first node above u = 0. K(0) is the limit
    2 p(0) int p, with the integral by Gregory-corrected trapezoid weights.
    Cubic interpolation can undershoot where p rises steeply from zero, so
    the output is projected onto nonnegative values to stay a density. The
    exact K is nonnegative, so the projection never moves a node value
    further from it.
    """
    g = p.grid
    if g.n_bins < 3:
        raise ValueError(f"the node scheme needs at least 3 bins, got {g.n_bins}")
    # 40 bytes for each pair of the rows' node parts, at most n_bins^2 / 4 pairs
    half = g.n_bins // 2
    _check_table_bytes("node", g, 40 * half * (g.n_bins - half))
    rows, starts, j, b, w, ni, bx, wx, by, wy = _node_tables(g.u_max, g.n_bins)
    v = p.values
    out = np.zeros(g.n_nodes)
    out[rows] = np.add.reduceat(_interp4(v, b, w) * v[j], starts)
    out += np.bincount(ni, weights=_interp4(v, bx, wx) * _interp4(v, by, wy),
                       minlength=g.n_nodes)
    wq = g.quad_weights().copy()
    if g.n_bins >= 7:
        wq[:4] = g.h * _GREGORY
        wq[-4:] = g.h * _GREGORY[::-1]
    out[0] = 2.0 * v[0] * (wq @ v)
    return UDensity(g, np.maximum(out, 0.0, out=out))


def drift_shift(p: UDensity, delta: float) -> tuple[UDensity, float]:
    """Translate the density by +delta in u (free spreading for a time delta).

    delta must be a whole number of cells, so the shift is exact:
    out(u) = p(u - delta), zero below u = delta. Returns (shifted density,
    lost mass), where the lost mass is the trapezoid-mass defect, the tail
    pushed past u_max.
    """
    if not np.isfinite(delta) or delta < 0.0:
        raise ValueError(f"shift must be nonnegative and finite, got {delta}")
    g = p.grid
    steps = delta / g.h
    m = int(round(steps))
    if abs(steps - m) > 1e-9 * max(1.0, steps):
        raise ValueError(f"shift must be a whole multiple of h={g.h}, got {delta}")
    out = np.zeros(g.n_nodes)
    if m <= g.n_bins:
        out[m:] = p.values[: g.n_nodes - m]
    shifted = UDensity(g, out)
    return shifted, mass(p) - mass(shifted)


def mass(p: UDensity) -> float:
    """Trapezoid mass of the density over [0, u_max]."""
    return float(p.grid.quad_weights() @ p.values)


def moment(p: UDensity, k: int) -> float:
    """k-th raw moment, k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"moment order must be 0, 1 or 2, got {k}")
    g = p.grid
    return float(p.grid.quad_weights() @ (p.values * g.nodes() ** k))


def laplace(p: UDensity, kappa: float) -> float:
    """Laplace transform integral of p(u) * exp(-kappa*u) du, kappa >= 0."""
    if not np.isfinite(kappa) or kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    g = p.grid
    return float(g.quad_weights() @ (p.values * np.exp(-kappa * g.nodes())))


def normalize(p: UDensity) -> UDensity:
    """Rescale to unit trapezoid mass. Raises on zero total mass."""
    m = mass(p)
    if m <= 0.0 or not np.isfinite(m):
        raise ValueError(f"cannot normalize density with mass {m}")
    return UDensity(p.grid, p.values / m)


def point_mass(grid: UGrid, u0: float) -> UDensity:
    """Unit point mass at u0, split onto the two adjacent nodes."""
    if not 0.0 <= u0 <= grid.u_max:
        raise ValueError(f"u0={u0} outside [0, {grid.u_max}]")
    w = grid.quad_weights()
    f = u0 / grid.h
    i = min(int(f), grid.n_bins - 1)
    t = f - i
    dep = np.zeros(grid.n_nodes)
    dep[i] = 1.0 - t
    dep[i + 1] = t
    return UDensity(grid, dep / w)


def exponential_density(grid: UGrid) -> UDensity:
    """Normalized exp(-u) profile on the grid."""
    return normalize(UDensity(grid, np.exp(-grid.nodes())))


def default_init_density(grid: UGrid) -> UDensity:
    """Normalized u * exp(-u) profile, the default transient seed shape."""
    u = grid.nodes()
    return normalize(UDensity(grid, u * np.exp(-u)))
