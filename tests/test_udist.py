import contextlib
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from deposit_reference import deposit_kernel, deposit_tables
from kernel_reference import dense_deposit
from node_reference import node_kernel, thin_node_kernel, thin_node_tables

import randloc
from randloc import udist
from randloc.meanfield import SolverConfig, solve_steady
from randloc.udist import (
    UDensity,
    UGrid,
    collision_kernel,
    combine,
    default_init_density,
    drift_shift,
    exponential_density,
    mass,
    moment,
    normalize,
    point_mass,
)


def test_grid_from_spacing_round_trip():
    g = UGrid.from_spacing(30.0, 0.01)
    assert g.n_nodes == 3001
    assert g.h == pytest.approx(0.01, rel=1e-15)
    assert g.nodes()[0] == 0.0
    assert g.nodes()[-1] == pytest.approx(30.0)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        UGrid.from_spacing(-1.0, 0.01)
    with pytest.raises(ValueError):
        UGrid.from_spacing(10.0, 0.0)


def test_quad_weights_are_trapezoid():
    g = UGrid.from_spacing(1.0, 0.25)
    w = g.quad_weights()
    assert w[0] == w[-1] == pytest.approx(0.125)
    assert np.all(w[1:-1] == pytest.approx(0.25))
    assert w.sum() == pytest.approx(1.0)


def test_density_rejects_negative_values():
    g = UGrid.from_spacing(1.0, 0.5)
    with pytest.raises(ValueError):
        UDensity(g, np.array([0.0, -1.0, 0.0]))


def test_combine_basics():
    assert combine(2.0, 2.0) == pytest.approx(1.0)
    assert combine(1.0, 3.0) == pytest.approx(0.75)
    # commutative
    assert combine(0.3, 1.7) == combine(1.7, 0.3)


def test_combine_bounds():
    # always in [min/2, min]
    rng = np.random.default_rng(0)
    u1 = rng.uniform(0.01, 10.0, 500)
    u2 = rng.uniform(0.01, 10.0, 500)
    c = combine(u1, u2)
    lo = np.minimum(u1, u2)
    assert np.all(c >= 0.5 * lo - 1e-15)
    assert np.all(c <= lo + 1e-15)


def test_combine_with_infinite_partner_is_identity():
    assert combine(2.5, np.inf) == 2.5
    assert combine(np.inf, 2.5) == 2.5
    assert np.isinf(combine(np.inf, np.inf))


def test_combine_zero():
    assert combine(0.0, 1.0) == 0.0


def test_kernel_point_mass_pair():
    g = UGrid.from_spacing(4.0, 0.01)
    p = point_mass(g, 2.0)
    k = collision_kernel(p, p)
    # combine(2, 2) = 1: all mass lands at u = 1
    assert mass(k) == pytest.approx(1.0, abs=1e-12)
    assert moment(k, 1) == pytest.approx(1.0, abs=1e-9)
    peak = g.nodes()[np.argmax(k.values)]
    assert abs(peak - 1.0) <= g.h


def test_kernel_mass_multiplicative():
    g = UGrid.from_spacing(20.0, 0.02)
    p = normalize(default_init_density(g))
    q = normalize(exponential_density(g))
    k = collision_kernel(p, q)
    assert mass(k) == pytest.approx(mass(p) * mass(q), abs=1e-12)


def test_kernel_mass_multiplicative_unnormalized():
    g = UGrid.from_spacing(10.0, 0.05)
    p = UDensity(g, np.exp(-0.5 * g.nodes()))
    q = UDensity(g, np.exp(-2.0 * g.nodes()))
    k = collision_kernel(p, q)
    assert mass(k) == pytest.approx(mass(p) * mass(q), abs=1e-12 * mass(p) * mass(q) + 1e-12)


def test_kernel_uniform_support():
    # for p = q uniform on [1, 2] the output lives in [0.5, 1]
    g = UGrid.from_spacing(4.0, 0.005)
    u = g.nodes()
    vals = np.where((u >= 1.0) & (u <= 2.0), 1.0, 0.0)
    p = normalize(UDensity(g, vals))
    k = collision_kernel(p, p)
    inside = (u >= 0.5 - g.h) & (u <= 1.0 + g.h)
    assert mass(k) == pytest.approx(1.0, abs=1e-12)
    assert float(np.abs(k.values[~inside]).max()) == 0.0


def test_kernel_against_pair_sampling():
    """Independently sampled node pairs must reproduce the kernel deposit."""
    g = UGrid.from_spacing(12.0, 0.02)
    p = normalize(default_init_density(g))
    k = collision_kernel(p, p)
    rng = np.random.default_rng(42)
    n = 400000
    u = g.nodes()
    node_w = g.quad_weights() * p.values
    node_w /= node_w.sum()
    i = rng.choice(g.n_nodes, size=n, p=node_w)
    j = rng.choice(g.n_nodes, size=n, p=node_w)
    keep = (u[i] > 0.0) | (u[j] > 0.0)
    c = combine(u[i[keep]], u[j[keep]])
    cell = np.minimum((c / g.h).astype(int), g.n_nodes - 2)
    frac = c / g.h - cell
    emp = np.zeros(g.n_nodes)
    np.add.at(emp, cell, (1.0 - frac) / n)
    np.add.at(emp, cell + 1, frac / n)
    ref = g.quad_weights() * k.values
    ref /= ref.sum()
    ks = float(np.max(np.abs(np.cumsum(emp) - np.cumsum(ref))))
    assert ks < 4.0 / np.sqrt(n)


def test_node_kernel_matches_exponential_closed_form(exp_pair_density):
    # fourth order at every node up to u = 10, down to the origin
    err = {}
    for h in (0.04, 0.02):
        g = UGrid.from_spacing(30.0, h)
        u = g.nodes()
        sel = u <= 10.0
        p = UDensity(g, np.exp(-u))
        k = collision_kernel(p, p, scheme="node")
        err[h] = float(np.max(np.abs(k.values[sel] - exp_pair_density(u[sel]))))
    assert err[0.02] < 1e-8
    assert err[0.04] / err[0.02] > 12.0  # fourth order: 16


def test_node_kernel_origin_limit_and_mass():
    g = UGrid.from_spacing(20.0, 0.02)
    p = exponential_density(g)
    # K(0) = 2 p(0) int_0^20 p, the integral exact for the exponential
    k0 = collision_kernel(p, p, scheme="node").values[0]
    assert k0 == pytest.approx(2.0 * p.values[0] ** 2 * (1.0 - np.exp(-20.0)), abs=1e-8)
    # mass is conserved to the quadrature's order, not to rounding
    q = default_init_density(g)
    assert mass(collision_kernel(q, q, scheme="node")) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="3 bins"):
        r = UDensity(UGrid(1.0, 2), np.ones(3))
        collision_kernel(r, r, scheme="node")


def test_kernel_scheme_is_checked():
    g = UGrid.from_spacing(8.0, 0.04)
    p = default_init_density(g)
    with pytest.raises(ValueError, match="unknown kernel scheme"):
        collision_kernel(p, p, scheme="fft")
    with pytest.raises(ValueError, match="K\\[p, p\\] only"):
        collision_kernel(p, exponential_density(g), scheme="node")
    # equal values on distinct objects are accepted
    same = UDensity(g, p.values)
    assert np.array_equal(collision_kernel(p, same, scheme="node").values,
                          collision_kernel(p, p, scheme="node").values)


@pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
def test_deposit_kernel_matches_dense_reference(h):
    g = UGrid.from_spacing(30.0, h)
    p = normalize(default_init_density(g))
    q = normalize(exponential_density(g))
    for a, b in ((p, p), (p, q), (q, p)):
        ref = dense_deposit(a, b)
        got = collision_kernel(a, b).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)


def _arrays(obj):
    """Every array in obj, a nest of tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for x in obj for a in _arrays(x)]
    return []


def _nbytes(obj) -> int:
    """Bytes of the arrays in obj, a nest of tuples."""
    return sum(a.nbytes for a in _arrays(obj))


_TABLE_CACHES = (udist._deposit_tables, udist._node_tables)


def _clear_table_caches():
    for fn in _TABLE_CACHES:
        fn.cache_clear()


def _set_block_pairs(mp, block_pairs):
    """Patches the kernel block size and clears the table caches, which
    hold each grid's blocks, so the next build and call use the new size."""
    mp.setattr(udist, "_BLOCK_PAIRS", block_pairs)
    _clear_table_caches()


@contextlib.contextmanager
def _patched_blocks():
    """A MonkeyPatch context that clears the table caches on exit, so no
    later call meets tables cut into patched blocks."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            yield mp
    finally:
        _clear_table_caches()


def test_deposit_tables_hold_each_pair_once():
    g = UGrid.from_spacing(30.0, 0.05)
    tables = udist._deposit_tables(g.u_max, g.n_bins)
    i, j = tables[0], tables[1]
    assert i.size == g.n_nodes * (g.n_nodes - 1) // 2
    assert np.all(i < j)
    assert tables[5].size == tables[6].size == g.n_nodes  # the diagonal's bins and fractions
    assert _nbytes(tables) <= 7 * g.n_nodes**2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.sampled_from([0.9, 4.0, 30.0, 250.0]), st.integers(1, 64))
def test_blocked_deposit_tables_match_one_shot_reference(n_bins, u_max, block_pairs):
    want = deposit_tables(u_max, n_bins)
    with _patched_blocks() as mp:
        _set_block_pairs(mp, block_pairs)
        mp.setattr(udist, "_MIN_THREADED_BLOCKS", 2)
        for cpus in (1, 2):
            mp.setattr(udist, "_usable_cpus", lambda: cpus)
            udist._deposit_tables.cache_clear()  # build the tables in these blocks
            got = udist._deposit_tables(u_max, n_bins)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("h", [0.05, 0.02])
def test_deposit_tables_match_one_shot_reference_on_transient_grids(h):
    g = UGrid.from_spacing(30.0, h)
    udist._deposit_tables.cache_clear()
    for a, b in zip(deposit_tables(g.u_max, g.n_bins), udist._deposit_tables(g.u_max, g.n_bins)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("h", [0.05, 0.02])
def test_deposit_kernel_matches_one_shot_reference_on_transient_grids(h):
    g = UGrid.from_spacing(30.0, h)
    p = default_init_density(g)
    q = exponential_density(g)
    for a, b in ((p, p), (p, q), (q, p)):
        assert np.array_equal(collision_kernel(a, b).values, deposit_kernel(a, b))


def test_kernel_of_equal_copy_matches_same_object():
    g = UGrid.from_spacing(20.0, 0.05)
    p = normalize(default_init_density(g))
    copy = UDensity(g, p.values)
    assert np.array_equal(collision_kernel(p, p).values, collision_kernel(p, copy).values)


@st.composite
def density_pairs(draw):
    n_bins = draw(st.integers(2, 60))
    u_max = draw(st.floats(0.5, 50.0))
    g = UGrid(u_max, n_bins)
    values = arrays(np.float64, g.n_nodes, elements=st.floats(0.0, 1e3, allow_subnormal=False))
    return UDensity(g, draw(values)), UDensity(g, draw(values))


@settings(max_examples=60, deadline=None)
@given(density_pairs())
def test_kernel_agrees_with_dense_reference(pq):
    p, q = pq
    ref = dense_deposit(p, q)
    np.testing.assert_allclose(collision_kernel(p, q).values, ref, rtol=0,
                               atol=1e-13 * np.max(ref) + 1e-300)


@settings(max_examples=60, deadline=None)
@given(density_pairs())
def test_kernel_mass_is_product_of_masses(pq):
    p, q = pq
    want = mass(p) * mass(q)
    assert mass(collision_kernel(p, q)) == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert mass(collision_kernel(p, p)) == pytest.approx(mass(p) ** 2, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(density_pairs())
def test_kernel_is_symmetric_bit_for_bit(pq):
    p, q = pq
    assert np.array_equal(collision_kernel(p, q).values, collision_kernel(q, p).values)


def test_kernel_first_moment_matches_double_sum():
    # the linear split keeps each pair's combined value as the mean of its shares
    g = UGrid.from_spacing(8.0, 0.04)
    p = normalize(default_init_density(g))
    got = moment(collision_kernel(p, p), 1)
    w = g.quad_weights() * p.values
    u = g.nodes()
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    c = np.zeros_like(u1)
    ok = (u1 > 0.0) | (u2 > 0.0)
    c[ok] = combine(u1[ok], u2[ok])
    brute = float(w @ c @ w)
    assert got == pytest.approx(brute, rel=1e-9)


def _kernels(p, q):
    return [collision_kernel(a, b).values for a, b in ((p, p), (p, q), (q, p))]


@pytest.mark.parametrize("h", [0.05, 0.02, 0.0125])
def test_deposit_kernel_is_the_same_on_one_and_two_threads(monkeypatch, h):
    g = UGrid.from_spacing(30.0, h)
    assert len(udist._deposit_tables(g.u_max, g.n_bins)[-1]) > 1
    p = normalize(default_init_density(g))
    q = normalize(exponential_density(g))
    monkeypatch.setattr(udist, "_MIN_THREADED_BLOCKS", 2)
    got = {}
    for cpus in (1, 2):
        monkeypatch.setattr(udist, "_usable_cpus", lambda: cpus)
        got[cpus] = _kernels(p, q)
    for one, two in zip(got[1], got[2]):
        assert np.array_equal(one, two)


@settings(max_examples=30, deadline=None)
@given(density_pairs(), st.integers(1, 40))
def test_small_blocks_give_the_one_block_kernel(pq, block_pairs):
    p, q = pq
    with _patched_blocks() as mp:
        _set_block_pairs(mp, 1 << 40)
        whole = _kernels(p, q)
        _set_block_pairs(mp, block_pairs)
        mp.setattr(udist, "_MIN_THREADED_BLOCKS", 2)
        for cpus in (1, 2):
            mp.setattr(udist, "_usable_cpus", lambda: cpus)
            for one, blocked in zip(whole, _kernels(p, q)):
                assert np.array_equal(one, blocked)
    ref = dense_deposit(p, q)
    np.testing.assert_allclose(whole[1], ref, rtol=0, atol=1e-13 * np.max(ref) + 1e-300)


def test_concurrent_kernel_calls_match_serial_calls():
    # more callers than cores, with frequent switches between them; a block
    # skipped or written into another call's output would change the floats
    grids = [UGrid.from_spacing(30.0, h) for h in (0.05, 0.02, 0.05, 0.02)]
    pairs = [(normalize(default_init_density(g)), normalize(exponential_density(g)))
             for g in grids]
    serial = [_kernels(p, q) for p, q in pairs]
    start = threading.Barrier(len(pairs))
    got = [None] * len(pairs)

    def call(k):
        start.wait()
        got[k] = [_kernels(*pairs[k]) for _ in range(3)]

    callers = [threading.Thread(target=call, args=(k,)) for k in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for want, runs in zip(serial, got):
        for run in runs:
            assert all(np.array_equal(a, b) for a, b in zip(want, run))


def _unique_cut_blocks(starts, total, block_pairs):
    """The blocks of ``udist._segment_blocks``, cut with np.unique."""
    cuts = np.unique(np.searchsorted(starts, np.arange(0, total, block_pairs)))
    cuts = cuts[cuts < starts.size]
    seg_cuts = np.append(cuts, starts.size)
    pair_cuts = np.append(starts[cuts], total)
    blocks = [(int(pair_cuts[k]), int(pair_cuts[k + 1]), int(seg_cuts[k]), int(seg_cuts[k + 1]),
               starts[seg_cuts[k]:seg_cuts[k + 1]] - pair_cuts[k]) for k in range(cuts.size)]
    return blocks


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=80), st.integers(1, 100))
def test_segment_blocks_match_the_unique_cut(lens, block_pairs):
    lens = np.array(lens)
    starts = np.cumsum(lens) - lens
    blocks = udist._segment_blocks(starts, int(lens.sum()), block_pairs)
    want = _unique_cut_blocks(starts, int(lens.sum()), block_pairs)
    assert len(blocks) == len(want)
    for got, ref in zip(blocks, want):
        assert got[:4] == ref[:4] and np.array_equal(got[4], ref[4])


def test_kernel_calls_do_not_import_numpy_ma():
    script = """
import sys
from randloc.udist import UGrid, collision_kernel, default_init_density
p = default_init_density(UGrid.from_spacing(30.0, 0.05))
collision_kernel(p, p)
collision_kernel(p, p, scheme="node")
assert "numpy.ma" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(randloc.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_a_helper_thread_of_its_own():
    # --jobs forks its workers on Linux, and a child has none of its
    # parent's threads: had it kept the parent's executor, its first
    # threaded kernel call would wait forever on a helper that is not there
    script = """
import os, signal, sys
import numpy as np
from randloc import udist
from randloc.udist import UGrid, collision_kernel, default_init_density, exponential_density
udist._usable_cpus = lambda: 2
g = UGrid.from_spacing(30.0, 0.02)
p, q = default_init_density(g), exponential_density(g)
assert len(udist._deposit_tables(g.u_max, g.n_bins)[-1]) >= udist._MIN_THREADED_BLOCKS
want = collision_kernel(p, q).values
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    sys.exit(0 if np.array_equal(collision_kernel(p, q).values, want) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(randloc.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0", "the child exited with status " + run.stdout


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 400), st.sampled_from([0.5, 0.9, 4.0, 30.0, 250.0]))
@example(600, 30.0)
@example(1500, 30.0)
def test_predicted_table_bytes_bound_the_built_tables(n_bins, u_max):
    g = UGrid(u_max, n_bins)
    deposit = _nbytes(udist._deposit_tables(u_max, n_bins))
    assert deposit <= udist._table_bytes("deposit", g)
    node = _nbytes(udist._node_tables(u_max, n_bins))
    assert node <= udist._table_bytes("node", g)
    # 18 bytes a pair, plus row and block starts and the Gauss part, O(N)
    half = n_bins // 2
    assert node <= 18 * half * (n_bins - half) + 1800 * g.n_nodes


@pytest.mark.parametrize("scheme", ["deposit", "node"])
def test_grid_beyond_uint16_nodes_is_refused_before_any_table(monkeypatch, scheme):
    def build(*args):
        pytest.fail("pair tables were built")

    monkeypatch.setattr(udist, "_TABLE_BUDGET_BYTES", 1 << 62)
    monkeypatch.setattr(udist, "_deposit_tables", build)
    monkeypatch.setattr(udist, "_node_tables", build)
    udist._check_table_bytes(scheme, UGrid(1.0, (1 << 16) - 1))  # 65536 nodes fit
    with pytest.raises(ValueError, match=r"65537 nodes\) index nodes as uint16"):
        UGrid(1.0, 1 << 16)


@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (64, 2)])
def test_kernel_thread_count_is_capped(monkeypatch, cpus, threads):
    # at most two threads: no helper on one usable CPU, else the same
    # one-worker executor
    helper = None if threads == 1 else udist._pool
    assert udist._pool._max_workers == 1
    monkeypatch.setattr(udist.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert udist._helper() is helper
    monkeypatch.delattr(udist.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(udist.os, "cpu_count", lambda: cpus)
    assert udist._helper() is helper
    monkeypatch.setattr(udist.os, "cpu_count", lambda: None)
    assert udist._helper() is None


@st.composite
def node_densities(draw):
    n_bins = draw(st.integers(7, 200))
    u_max = draw(st.sampled_from([0.9, 4.0, 30.0, 250.0]))
    g = UGrid(u_max, n_bins)
    values = arrays(np.float64, g.n_nodes, elements=st.floats(0.0, 1e3, allow_subnormal=False))
    return UDensity(g, draw(values))


@settings(max_examples=40, deadline=None)
@given(node_densities(), st.integers(1, 64))
def test_blocked_node_scheme_matches_one_shot_reference(p, block_pairs):
    g = p.grid
    want_tables = thin_node_tables(g.u_max, g.n_bins)
    want = thin_node_kernel(p)
    with _patched_blocks() as mp:
        _set_block_pairs(mp, block_pairs)
        mp.setattr(udist, "_MIN_THREADED_BLOCKS", 2)
        for cpus in (1, 2):
            mp.setattr(udist, "_usable_cpus", lambda: cpus)
            udist._node_tables.cache_clear()  # build the tables in these blocks
            got_tables = udist._node_tables(g.u_max, g.n_bins)
            for a, b in zip(want_tables, got_tables[:-1], strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(collision_kernel(p, p, scheme="node").values, want)


@pytest.mark.parametrize("h", [0.04, 0.02, 0.01])
def test_node_scheme_matches_one_shot_reference_on_steady_grids(h):
    # the Newton form interpolates the same cubic as the four Lagrange
    # weights of the reference, so the two agree to rounding
    g = UGrid.from_spacing(30.0, h)
    steady = solve_steady(SolverConfig(u_max=30.0, h=h))
    for p in (default_init_density(g), UDensity(g, np.exp(-g.nodes())), steady):
        want = node_kernel(p)
        got = collision_kernel(p, p, scheme="node").values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
        assert np.array_equal(got, thin_node_kernel(p))


def test_node_tables_and_call_peak_near_the_kept_tables():
    # the tables and one call walk row blocks: no pair-sized temporary
    g = UGrid.from_spacing(30.0, 0.01)
    p = default_init_density(g)
    _clear_table_caches()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        collision_kernel(p, p, scheme="node")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = _nbytes(udist._node_tables(g.u_max, g.n_bins))
    assert kept > 40e6
    assert peak < 1.25 * kept


def test_deposit_tables_and_call_peak_near_the_kept_tables():
    # the tables are filled block by block: no pair-sized temporary
    g = UGrid.from_spacing(30.0, 0.01)
    p = default_init_density(g)
    _clear_table_caches()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        collision_kernel(p, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = _nbytes(udist._deposit_tables(g.u_max, g.n_bins))
    assert kept > 50e6
    assert peak < 1.25 * kept


@pytest.mark.parametrize("cache", _TABLE_CACHES, ids=lambda fn: fn.__name__)
def test_each_table_cache_holds_one_grid(cache):
    a, b = (10.0, 100), (20.0, 100)
    cache.cache_clear()
    try:
        kept_a = cache(*a)
        assert cache(*a) is kept_a
        kept_b = cache(*b)
        assert cache.cache_info().currsize == 1
        assert cache(*b) is kept_b
        again = cache(*a)  # b replaced a: built again, to the same arrays
        assert again is not kept_a
        for x, y in zip(kept_a, again):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y)
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
        assert cache(*a) is not again
    finally:
        cache.cache_clear()


@pytest.mark.parametrize("cache", _TABLE_CACHES, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("n_bins", [100, 600])
def test_every_cached_array_is_read_only(cache, n_bins):
    # the call blocks' segment starts and the diagonal's bins and fractions
    # too: a write into any of them would change every later kernel call on
    # the grid
    cache.cache_clear()
    try:
        *tables, blocks = cache(30.0, n_bins)
        assert len(_arrays(blocks)) >= len(blocks) > 0
        assert not any(a.flags.writeable for a in _arrays((*tables, blocks)))
    finally:
        cache.cache_clear()


def test_every_grid_keyed_cache_can_be_cleared():
    # Each run of the benchmark clears the module's caches through their
    # cache_clear, so each invocation builds its tables as a fresh process
    # would: every function of a grid's (u_max, n_bins) that returns arrays
    # must be a cache with cache_clear.
    keyed = []
    for name, fn in vars(udist).items():
        if not callable(fn) or getattr(fn, "__module__", None) != udist.__name__:
            continue
        params = list(inspect.signature(fn).parameters)
        if params[:2] == ["u_max", "n_bins"] and _nbytes(fn(30.0, 20)):
            keyed.append(name)
            assert callable(getattr(fn, "cache_clear", None)), name
    assert {"_grid_tables", "_deposit_tables", "_node_tables"} <= set(keyed)
    for name in keyed:
        getattr(udist, name).cache_clear()
        assert getattr(udist, name).cache_info().currsize == 0, name


def test_node_scheme_one_block_kernel_and_mc_start_no_thread(tmp_path):
    script = """
import sys, threading
import randloc.cli
from randloc.udist import UGrid, collision_kernel, default_init_density
assert threading.active_count() == 1, "import"
p = default_init_density(UGrid.from_spacing(30.0, 0.05))
collision_kernel(p, p, scheme="node")
q = default_init_density(UGrid.from_spacing(30.0, 0.25))
collision_kernel(q, q)
assert threading.active_count() == 1, "kernel"
for sub in ("mc-steady", "mc-transient"):
    rc = randloc.cli.main([sub, "--jobs", "1", "--seed", "1", "--out", sys.argv[1],
                           "--set", "m_particles=2000", "--set", "tau_end=2"])
    assert rc == 0 and threading.active_count() == 1, sub
"""
    env = dict(os.environ, PYTHONPATH=str(Path(randloc.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_drift_shift_point_mass():
    g = UGrid.from_spacing(6.0, 0.01)
    p = point_mass(g, 1.0)
    out, lost = drift_shift(p, 2.0)
    assert lost == 0.0
    peak = g.nodes()[np.argmax(out.values)]
    assert abs(peak - 3.0) <= g.h


def test_drift_shift_zero_delta_is_identity():
    g = UGrid.from_spacing(5.0, 0.05)
    p = normalize(default_init_density(g))
    out, lost = drift_shift(p, 0.0)
    assert lost == 0.0
    np.testing.assert_array_equal(out.values, p.values)


def test_drift_shift_mass_accounting():
    g = UGrid.from_spacing(5.0, 0.05)
    p = normalize(default_init_density(g))
    out, lost = drift_shift(p, 3.0)
    assert mass(out) + lost == pytest.approx(mass(p), abs=1e-12)
    assert lost > 0.0  # tail pushed past u_max


def test_drift_shift_rejects_negative_delta():
    g = UGrid.from_spacing(5.0, 0.1)
    p = point_mass(g, 1.0)
    with pytest.raises(ValueError):
        drift_shift(p, -0.1)


def test_drift_shift_rejects_partial_cells():
    g = UGrid.from_spacing(5.0, 0.1)
    p = point_mass(g, 1.0)
    with pytest.raises(ValueError, match="integer multiple"):
        drift_shift(p, 0.25)


def test_moment_and_mass_on_default_init():
    g = UGrid.from_spacing(40.0, 0.005)
    p = normalize(default_init_density(g))
    assert mass(p) == pytest.approx(1.0, abs=1e-12)
    assert moment(p, 1) == pytest.approx(2.0, abs=1e-4)  # u e^{-u} has mean 2


def test_point_mass_unit_mass():
    g = UGrid.from_spacing(3.0, 0.01)
    # off-node center splits between neighbors but keeps unit mass
    p = point_mass(g, 1.2345)
    assert mass(p) == pytest.approx(1.0, abs=1e-12)


def test_normalize_idempotent():
    g = UGrid.from_spacing(5.0, 0.02)
    p = UDensity(g, 3.7 * default_init_density(g).values)
    n1 = normalize(p)
    n2 = normalize(n1)
    assert mass(n1) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(n1.values, n2.values, rtol=0, atol=1e-15)
