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
  hold each unordered pair once, sorted by target bin (12 bytes a pair,
  6 N^2 bytes for N nodes).
  The "node" scheme evaluates K[p, p] at the nodes by a fourth-order
  quadrature of its integral form. It is not mass-exact; the steady solver
  and the steady residual use it. Its cached tables hold one row of pairs
  per node u_i <= u_max / 2 (18 bytes a pair, under N^2 / 4 pairs): each
  pair keeps its cubic stencil's start and offset, and a call forms the
  stencil in Newton form from forward differences of p. A row's partner
  nodes are consecutive, so they are not stored: a call reads them as
  slices of p. The tables are built row block by row block, in per-thread
  scratch, without pair-sized temporaries.
  Both schemes store node indices as uint16, so ``UGrid`` refuses more
  than 65536 nodes on every grid, a histogram's too. Both walk their pairs
  in fixed blocks of about 64k, cut at segment starts (a target bin, a
  row), on at most two threads once a grid has 16 blocks; no segment's sum
  crosses a block, so the result is the same floats for any block size and
  thread count. Each scheme caches the tables and call blocks of its last
  grid only, at most 1 GiB, so a process that uses both schemes holds at
  most 2 GiB of tables; every array of a cache entry is read-only.
* ``drift_shift``: free spreading between measurements, a rigid translation
  of the density toward larger u by whole cells.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_positive_finite

__all__ = [
    "UGrid",
    "UDensity",
    "combine",
    "collision_kernel",
    "drift_shift",
    "mass",
    "moment",
    "normalize",
    "point_mass",
    "exponential_density",
    "default_init_density",
]


# Both kinds of kernel tables index nodes as uint16, so no grid has more
# nodes; its node and weight arrays stay within 512 KB each.
_MAX_NODES = 1 << 16


def _whole_steps(span: float, step: float, span_name: str, step_name: str, *, least=1) -> int:
    """n = round(span / step) for a positive step: the one rule that cuts a grid,
    a time step, a drift shift and a snapshot spacing into whole cells. A ratio
    that is NaN, infinite, below least or more than 1e-9 max(1, n) from n
    raises a ValueError that names both quantities."""
    ratio = span / step
    if math.isfinite(ratio):
        n = round(ratio)
        if n >= least and abs(ratio - n) <= 1e-9 * max(1, n):
            return n
    elif math.isfinite(span):  # round() of an overflowed ratio raises OverflowError
        raise ValueError(f"{span_name} / {step_name} overflows for "
                         f"{span_name}={span}, {step_name}={step}")
    raise ValueError(f"{span_name}={span} is not an integer multiple of {step_name}={step}, "
                     f"{least} or more times")


@dataclass(frozen=True)
class UGrid:
    """Uniform grid over u in [0, u_max] with nodes u_i = i * h, at most _MAX_NODES."""

    u_max: float
    n_bins: int

    def __post_init__(self) -> None:
        check_positive_finite(u_max=self.u_max)
        if self.n_bins < 2:
            raise ValueError(f"need at least 2 bins, got {self.n_bins}")
        if self.n_nodes > _MAX_NODES:
            raise ValueError(f"the kernel tables of the grid u_max={self.u_max:g}, h={self.h:g} "
                             f"({self.n_nodes} nodes) index nodes as uint16, so a grid has "
                             f"at most {_MAX_NODES} nodes; use a coarser grid")

    @classmethod
    def from_spacing(cls, u_max: float, h: float) -> "UGrid":
        """The grid of spacing h over [0, u_max], 2 or more whole cells of h."""
        check_positive_finite(spacing=h, u_max=u_max)
        return cls(float(u_max), _whole_steps(u_max, h, "u_max", "h", least=2))

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

    @classmethod
    def _unchecked(cls, grid: UGrid, values: np.ndarray) -> "UDensity":
        """A density from float64 node values that are known to be finite
        and nonnegative, with no checks and no copy: values become
        read-only."""
        values.setflags(write=False)
        p = object.__new__(cls)
        object.__setattr__(p, "grid", grid)
        object.__setattr__(p, "values", values)
        return p


@lru_cache(maxsize=8)
def _grid_tables(u_max: float, n_bins: int):
    nodes = np.linspace(0.0, u_max, n_bins + 1)
    w = np.full(n_bins + 1, u_max / n_bins)
    w[0] *= 0.5
    w[-1] *= 0.5
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


# Pair tables above this many bytes are refused before they are built. Each
# scheme caches the tables of one grid, so a process holds at most this many
# bytes of tables of one scheme and twice that of both. Both kinds of tables
# are filled in place, block by block, and their builds peak at about 1.1
# times their size in traced allocations.
_TABLE_BUDGET_BYTES = 1 << 30


def _table_bytes(kind: str, grid: UGrid) -> int:
    """Bytes of the cached tables of one kind on a grid, at most."""
    n = grid.n_nodes
    if kind == "deposit":
        # i, j (uint16) and frac (float64) of each pair i <= j; bins,
        # starts, diag and the blocks' segment and diagonal starts (intp),
        # each at most one a node
        return 12 * (n * (n + 1) // 2) + 40 * n
    # b (uint16) and the stencil offset and folded weight (float64) of each
    # of at most half * (n_bins - half) pairs; rows, starts and the blocks'
    # segment starts (intp) of each row, and the blocks' first node of each
    # row (a Python int, 36 bytes with its tuple slot); and the Gauss
    # part's points, 88 bytes each: 8 ceil(4 log(m / i)) for each row
    # i < m, fewer than 40 m in all
    half = grid.n_bins // 2
    m = _near_cells(grid.u_max, grid.n_bins)
    return 18 * half * (grid.n_bins - half) + 60 * half + 88 * 40 * m


def _check_table_bytes(kind: str, grid: UGrid) -> None:
    """Refuses a grid whose tables would exceed the budget, before any is built."""
    nbytes = _table_bytes(kind, grid)
    if nbytes > _TABLE_BUDGET_BYTES:
        raise ValueError(f"the {kind} kernel tables of the grid u_max={grid.u_max:g}, "
                         f"h={grid.h:g} ({grid.n_nodes} nodes) would take {nbytes} bytes, "
                         f"above the budget of {_TABLE_BUDGET_BYTES} bytes; use a coarser grid")


@lru_cache(maxsize=1)
def _deposit_tables(u_max: float, n_bins: int):
    """Pair-deposition tables of the deposit scheme, with its call blocks.

    combine is symmetric, so only the node pairs i <= j are stored, sorted
    (stably, from row-major order) by the target bin k = floor(combine / h):
    the nodes i and j of every pair (uint16) and its linear split fraction
    toward node k + 1 (float64), 12 bytes a pair, 6 N^2 bytes for N nodes.
    ``bins`` lists the bins that receive pairs and ``starts`` the first pair
    of each, so a bin's deposits are one contiguous segment. ``diag`` gives
    the positions of the pairs (0, 0), (1, 1), ... in node order: the bin of
    (i, i) grows with i, and the sort is stable. The (0, 0) pair is pinned
    to u = 0, the limit of combine along any path. combine never exceeds
    u_max / 2 on the grid, so k + 1 stays on it. The call blocks are those
    of ``_segment_blocks`` over the bin segments, each extended by (first
    diagonal node, end diagonal node, diagonal positions relative to the
    first pair), and come with the widest block's pair count.

    The flat arrays are allocated once and filled row block by row block of
    ``_segment_blocks``: one pass counts each block's pairs per bin, the next
    computes the block's bins and fractions again, sorts them by bin and
    places every pair at its bin's start plus the pairs of that bin in
    earlier blocks plus its rank in the block. So the build allocates no
    pair-sized temporary, and every pair's floats and place are those of one
    stable sort of all pairs.
    """
    n = n_bins + 1
    nodes = _grid_tables(u_max, n_bins)[0]
    lens = np.arange(n, 0, -1)  # row i holds the pairs (i, i) .. (i, n - 1)
    row_starts = np.cumsum(lens) - lens
    n_pairs = n * (n + 1) // 2
    row_blocks = list(enumerate(_segment_blocks(row_starts, n_pairs, _BLOCK_PAIRS)[0]))
    scale = n_bins / u_max

    def bins_of(r0, r1):
        """The target bins and split fractions of the pairs of rows r0..r1."""
        x = np.repeat(nodes[r0:r1], lens[r0:r1])
        y = np.concatenate([nodes[r:] for r in range(r0, r1)])
        c = x * y
        x += y
        np.divide(c, x, out=c, where=x > 0.0)
        if r0 == 0:
            c[0] = 0.0
        c *= scale
        k = c.astype(np.intp)  # floor, as c >= 0
        c -= k
        return k, c

    counts = np.empty((len(row_blocks), n), dtype=np.intp)

    def count(item):
        b, (_, _, r0, r1, _) = item
        counts[b] = np.bincount(bins_of(r0, r1)[0], minlength=n)

    _run_blocks(row_blocks, count)
    total = counts.sum(axis=0)
    # per block and bin: the first place of the block's pairs, less the
    # block's own pairs of lower bins
    base = np.cumsum(counts, axis=0)
    base += np.cumsum(total) - total - np.cumsum(counts, axis=1)
    i_out = np.empty(n_pairs, dtype=np.uint16)
    j_out = np.empty(n_pairs, dtype=np.uint16)
    frac = np.empty(n_pairs)
    diag = np.empty(n, dtype=np.intp)

    def place(item):
        b, (s0, s1, r0, r1, seg) = item
        k, c = bins_of(r0, r1)
        # a pair goes to its bin's first place in this block plus its rank
        # among the block's pairs of that bin
        order = np.argsort(k, kind="stable")
        to = np.empty_like(order)
        to[order] = base[b][k[order]] + np.arange(order.size)
        rows = np.arange(r0, r1)
        i_out[to] = np.repeat(rows, lens[r0:r1])
        j_out[to] = np.arange(s1 - s0) - np.repeat(seg - rows, lens[r0:r1])
        frac[to] = c
        diag[r0:r1] = to[seg]  # (r, r) opens row r

    _run_blocks(row_blocks, place)
    bins = np.flatnonzero(total)
    starts = (np.cumsum(total) - total)[bins]
    diag.sort()
    arrays = (i_out, j_out, frac, bins, starts, diag)
    for arr in arrays:
        arr.setflags(write=False)
    blocks, width = _segment_blocks(starts, n_pairs, _BLOCK_PAIRS)
    call_blocks = []
    for s0, s1, b0, b1, seg in blocks:
        d0, d1 = (int(d) for d in np.searchsorted(diag, (s0, s1)))
        dpos = diag[d0:d1] - s0
        dpos.setflags(write=False)
        call_blocks.append((s0, s1, b0, b1, seg, d0, d1, dpos))
    return arrays + (tuple(call_blocks), width)


# Pairs per block of both kernel schemes; a block ends at the first segment
# start (a deposit bin, a node-scheme row) at or past each multiple of this.
_BLOCK_PAIRS = 1 << 16
# Threads of the kernels, the calling one included, at most: they are bound
# by memory traffic, which further threads would only share.
_MAX_KERNEL_THREADS = 2
# Grids with fewer blocks run in the calling thread alone: on two cores a
# helper made 3- and 8-block calls about 7 % slower and 18- and 45-block
# calls 1.2-1.6 times faster.
_MIN_THREADED_BLOCKS = 16


def _segment_blocks(starts: np.ndarray, total: int, block_pairs: int):
    """Blocks of about block_pairs of ``total`` pairs, cut only at segment
    starts, so that every segment's sum lies in one block.

    ``starts`` holds the first pair of each segment, starting at 0. A block
    is (first pair, end pair, first segment, end segment, segment starts
    relative to the first pair, read-only); the blocks come with the widest
    block's pair count.
    """
    cuts = np.searchsorted(starts, np.arange(0, total, block_pairs))
    # the cuts are sorted, so this dedupes them; np.unique would too, but
    # its first call without return_inverse imports numpy.ma
    cuts = cuts[(np.diff(cuts, prepend=-1) > 0) & (cuts < starts.size)]
    seg_cuts = np.append(cuts, starts.size)
    pair_cuts = np.append(starts[cuts], total)
    blocks = []
    for k in range(cuts.size):
        s0, s1 = int(pair_cuts[k]), int(pair_cuts[k + 1])
        g0, g1 = int(seg_cuts[k]), int(seg_cuts[k + 1])
        seg = starts[g0:g1] - s0
        seg.setflags(write=False)
        blocks.append((s0, s1, g0, g1, seg))
    return blocks, int(np.max(np.diff(pair_cuts)))


def _run_blocks(blocks, work) -> None:
    """Calls work(block) for every block, on the calling thread and, from
    _MIN_THREADED_BLOCKS blocks on, the kernel's helper threads.

    Every thread takes blocks off one iterator (next on a list iterator is
    atomic under the interpreter lock), so work must write only the block's
    own slices of shared outputs.
    """
    todo = iter(blocks)

    def drain():
        for block in todo:
            work(block)

    threads = _kernel_threads() if len(blocks) >= _MIN_THREADED_BLOCKS else 1
    helpers = [_kernel_pool(threads - 1).submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()


def _scratch_rows(width: int):
    """This thread's scratch for a block of up to ``width`` pairs: three
    float64 rows and one intp row, the latter for the block's uint16 node
    indices widened once before their gathers; grown to the widest block
    seen. The node tables are built in the float rows too."""
    if getattr(_scratch, "width", 0) < width:
        _scratch.rows = np.empty((3, width))
        _scratch.idx = np.empty(width, dtype=np.intp)
        _scratch.width = width
    return _scratch.rows, _scratch.idx


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
# Per-thread scratch of the kernel blocks, see _scratch_rows.
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
      pairs i <= j, sorted by target bin: two uint16 node indices and one
      float64 split fraction, 12 bytes a pair, 6 N^2 bytes for N nodes.
      Each bin's shares are sums over one contiguous segment of pairs, in a
      fixed order, so results are bit-reproducible and K[p, q] equals
      K[q, p] bit for bit.
    * ``"node"``: K[p, p] evaluated at the nodes from its integral form, see
      ``_node_kernel``. Fourth order in h for smooth p, but the output mass
      equals mass(p)^2 only to that order. Needs q equal to p. The cached
      tables of ``_node_tables`` hold one row of pairs per node with
      u <= u_max / 2: a uint16 stencil start, a float64 stencil offset
      and a float64 folded weight, 18 bytes a pair, under N^2 / 4 pairs
      (40.7 MB at h = 0.01, u_max = 30). A row pairs its node with the
      consecutive nodes from its first one on, so a call reads their
      values as one slice of p a row. Each row's value is a sum over its
      contiguous segment of pairs.

    Both schemes walk their pairs in fixed blocks of about 64k, cut at
    segment starts (a bin, a row) from the tables alone, on at most
    min(2, usable CPUs) threads; a grid of fewer than 16 blocks (about a
    million pairs: deposit N below about 1450, node N below about 2000)
    runs in the calling thread. Each block widens its uint16 node indices
    (the node scheme: its stencil starts) once into per-thread scratch
    before gathering. No segment crosses a
    block, so the floats do not depend on the block size or the thread
    count, and no call allocates a pair-sized array. Grids whose tables
    would exceed a fixed budget (1 GiB) raise ValueError before any table
    is built; ``UGrid`` already refuses more than 65536 nodes. Each scheme
    caches the tables of its last grid only, so the cached tables stay
    within that budget for one scheme and twice it for both.
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
    ``_deposit_tables``, walked in the call blocks cached with them.

    With a = w p and b = w q, the pair i < j carries a_i b_j + a_j b_i and
    the pair i == j carries a_i b_i, so K[p, q] and K[q, p] are the same
    floats. Each bin's lower and upper shares are sums of nonnegative terms
    over its contiguous segment of pairs, which lies in one block, so the
    sums do not depend on how the blocks are spread over threads.
    """
    g = p.grid
    _check_table_bytes("deposit", g)
    *tables, blocks, width = _deposit_tables(g.u_max, g.n_bins)
    w = g.quad_weights()
    a = w * p.values
    b = a if q is p else w * q.values
    bins = tables[3]
    lo = np.empty(bins.size)
    hi = np.empty(bins.size)
    _run_blocks(blocks, lambda block: _deposit_block(block, width, tables, a, b, lo, hi))
    dep = np.zeros(g.n_nodes)
    dep[bins] = lo
    dep[bins + 1] += hi
    return dep


def _deposit_block(block, width, tables, a, b, lo, hi) -> None:
    """One block's lower and upper bin shares, into its slices of lo and hi.

    Widens the block's uint16 i and j, each once, into this thread's intp
    scratch and gathers into its float scratch, so no pair-sized array is
    allocated.
    """
    i, j, frac = tables[:3]
    s0, s1, b0, b1, seg, d0, d1, dpos = block
    buf, idx = _scratch_rows(width)
    n = s1 - s0
    wt, x, y, idx = buf[0, :n], buf[1, :n], buf[2, :n], idx[:n]
    idx[:] = i[s0:s1]
    np.take(a, idx, out=wt, mode="clip")
    if b is not a:
        np.take(b, idx, out=y, mode="clip")
    idx[:] = j[s0:s1]
    np.take(b, idx, out=x, mode="clip")
    wt *= x
    if b is a:
        # a_i a_j + a_j a_i is exactly 2 a_i a_j: the general branch's floats
        wt *= 2.0
    else:
        np.take(a, idx, out=x, mode="clip")
        x *= y  # a_j b_i
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


def _stencil(s: np.ndarray, n_bins: int):
    """First node b of the 4-point stencil b..b+3 that interpolates node
    values at positions s, in units of h, and the offset t = s - b."""
    b = np.clip(np.floor(s).astype(np.int64) - 1, 0, n_bins - 3)
    return b, s - b


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


def _near_cells(u_max: float, n_bins: int) -> int:
    """Cells m making up _NEAR_SPAN, at most (n_bins - 7) // 2: the node
    scheme's rows i < m take their near stretch by Gauss-Legendre."""
    return max(0, min(int(np.ceil(_NEAR_SPAN * n_bins / u_max - 1e-9)), (n_bins - 7) // 2))


@lru_cache(maxsize=1)
def _node_tables(u_max: float, n_bins: int):
    """Quadrature tables of ``_node_kernel``, in units of h.

    Row i (1 <= i <= n_bins // 2) integrates over x >= 2 u_i. The integrand
    carries x^2 / (x - u)^2 and p(y(x)), which vary on the scale u_i, so
    the node rule alone is fourth order only once u_i spans many cells.
    Rows with i < m, m = _near_cells cells making up _NEAR_SPAN, take the
    stretch x - u_i < m h from composite Gauss-Legendre in log(x - u_i),
    with p at x and at y from 4-point Lagrange stencils, and the nodes
    x_j, j >= i + m, from the trapezoid rule; other rows take the nodes
    from j = 2i. Gregory's end weights sit at each row's first node.

    Returns the node part (row numbers, each row's start in the flat pair
    arrays, the start b (uint16) and offset t = y_j / h - b (float64) of
    the 4-point stencil for p(y_j), and the pair's quadrature weight with
    the Jacobian and 2h folded in (float64); 18 bytes per pair, under
    n_bins^2 / 4 pairs) and the Gauss part (row of every point, then
    stencil and weights for p(x) and for p(y), the quadrature weight folded
    into the latter), then the row blocks of ``_segment_blocks``, each
    extended by the first node of each of its rows, and the widest block's
    pair count. Row i's pairs are the nodes first .. n_bins in order, so
    no pair stores its node j: a block's x_j are the slices
    nodes[first:] of its rows, one after another. The flat arrays are
    allocated once and filled block by block in per-thread scratch, so the
    build allocates no pair-sized temporary; each pair's floats come from
    the same operations whatever the blocks.
    """
    n = n_bins
    m = _near_cells(u_max, n_bins)
    rows = np.arange(1, n // 2 + 1)
    first = np.where(rows < m, rows + m, 2 * rows)
    lens = n - first + 1
    starts = np.cumsum(lens) - lens
    n_pairs = int(lens.sum())
    b = np.empty(n_pairs, dtype=np.uint16)
    t = np.empty(n_pairs)
    fold = np.empty(n_pairs)
    scale = 2.0 * u_max / n
    cells = np.arange(n + 1, dtype=np.float64)

    def fill(block):
        s0, s1, r0, r1, seg, firsts = block
        rl = lens[r0:r1]
        x, d, r = _scratch_rows(width)[0][:, :s1 - s0]
        np.concatenate([cells[f:] for f in firsts], out=x)  # x_j / h
        np.concatenate([cells[f - i:n + 1 - i] for i, f in zip(rows[r0:r1].tolist(), firsts)],
                       out=d)  # (x_j - u_i) / h
        np.divide(x, d, out=r)  # x / (x - u), so y_j / h = i r, in (i, 2i]
        x -= d  # i
        x *= r  # y_j / h
        # the stencil of _stencil: b = clip(floor(y_j / h) - 1, 0, n - 3)
        np.floor(x, out=d)
        d -= 1.0
        np.clip(d, 0.0, n - 3, out=d)
        b[s0:s1] = d
        np.subtract(x, d, out=t[s0:s1])
        # Rows too short for Gregory's weights lie near u_max / 2, where
        # p(x) p(y) is negligible, and keep the plain trapezoid; a one-node
        # row spans no interval.
        q = x
        q.fill(1.0)
        q[seg + rl - 1] = 0.5
        long_row = rl >= 8
        for k, g in enumerate(_GREGORY):
            q[seg[long_row] + k] = g
        q[seg[~long_row]] = np.where(rl[~long_row] == 1, 0.0, 0.5)
        fb = fold[s0:s1]
        np.multiply(q, scale, out=fb)
        fb *= r
        fb *= r

    blocks, width = _segment_blocks(starts, n_pairs, _BLOCK_PAIRS)
    blocks = [blk + (tuple(first[blk[2]:blk[3]].tolist()),) for blk in blocks]
    _run_blocks(blocks, fill)
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
    wy *= scale * (1.0 + ni / v) ** 2 * v * ws
    arrays = (rows, starts, b, t, fold, ni.astype(np.int64), bx, wx, by, wy)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays + (tuple(blocks), width)


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

    The node part interpolates p(y) in Newton form, from the forward
    differences d1 = Δv, d2 = Δ²v / 2 and d3 = Δ³v / 6 of the node values,
    built once a call, and takes p(x_j) of a row as the slice v[first:].
    It walks the row blocks of ``_node_tables`` (about _BLOCK_PAIRS pairs
    each, cut at row starts) through ``_run_blocks``, in per-thread
    scratch, so no call allocates a pair-sized array. Every row's sum lies
    in one block, so the output does not depend on the block size or the
    thread count.
    """
    g = p.grid
    if g.n_bins < 3:
        raise ValueError(f"the node scheme needs at least 3 bins, got {g.n_bins}")
    _check_table_bytes("node", g)
    rows, _, b, t, fold, ni, bx, wx, by, wy, blocks, width = _node_tables(g.u_max, g.n_bins)
    v = p.values
    d1 = np.diff(v)
    diffs = (v, d1, np.diff(d1) / 2.0, np.diff(d1, 2) / 6.0)
    out = np.zeros(g.n_nodes)
    row_out = out[rows[0]:rows[-1] + 1]
    _run_blocks(blocks, lambda block: _node_block(block, width, b, t, fold, diffs, row_out))
    out += np.bincount(ni, weights=_interp4(v, bx, wx) * _interp4(v, by, wy),
                       minlength=g.n_nodes)
    wq = g.quad_weights().copy()
    if g.n_bins >= 7:
        wq[:4] = g.h * _GREGORY
        wq[-4:] = g.h * _GREGORY[::-1]
    out[0] = 2.0 * v[0] * (wq @ v)
    return UDensity(g, np.maximum(out, 0.0, out=out))


def _node_block(block, width, b, t, fold, diffs, row_out) -> None:
    """One row block's sums of fold (v[b] + t (d1[b] + (t - 1) (d2[b] +
    (t - 2) d3[b]))) v[j], into its slice of the row outputs, in this
    thread's scratch; v[j] of a row is the slice v[first:]."""
    s0, s1, r0, r1, seg, firsts = block
    v, d1, d2, d3 = diffs
    buf, idx = _scratch_rows(width)
    n = s1 - s0
    acc, x, idx, tb = buf[0, :n], buf[1, :n], idx[:n], t[s0:s1]
    idx[:] = b[s0:s1]  # widened once, for the four gathers
    np.take(d3, idx, out=acc, mode="clip")
    np.subtract(tb, 2.0, out=x)
    acc *= x
    np.take(d2, idx, out=x, mode="clip")
    acc += x
    np.subtract(tb, 1.0, out=x)
    acc *= x
    np.take(d1, idx, out=x, mode="clip")
    acc += x
    acc *= tb
    np.take(v, idx, out=x, mode="clip")
    acc += x
    acc *= fold[s0:s1]
    np.concatenate([v[f:] for f in firsts], out=x)
    acc *= x
    np.add.reduceat(acc, seg, out=row_out[r0:r1])


def drift_shift(p: UDensity, delta: float) -> tuple[UDensity, float]:
    """Translate the density by +delta in u (free spreading for a time delta).

    delta must be zero or more whole cells (``_whole_steps``), so the shift
    is exact: out(u) = p(u - delta), zero below u = delta. Returns (shifted
    density, lost mass), where the lost mass is the trapezoid-mass defect,
    the tail pushed past u_max.
    """
    g = p.grid
    m = _whole_steps(delta, g.h, "shift", "h", least=0)
    out = np.zeros(g.n_nodes)
    if m <= g.n_bins:
        out[m:] = p.values[: g.n_nodes - m]
    shifted = UDensity._unchecked(g, out)  # node values of p
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
