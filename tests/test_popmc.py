"""Pairwise event-driven Monte Carlo population dynamics."""

import dataclasses
import math
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from popmc_reference import reference_advance

from randloc import popmc, udist
from randloc.gamma import gamma_closed
from randloc.meanfield import SolverConfig, solve_steady
from randloc.popmc import (
    Population,
    empirical_density,
    ks_distance,
    load_checkpoint,
    resume,
    run_steady,
    run_transient,
    sample_from_density,
    save_checkpoint,
)
from randloc.udist import UDensity, UGrid, exponential_density, mass, normalize


@pytest.fixture(scope="module", autouse=True)
def lookahead_at_every_size():
    """Runs of any size prepare their next run on the kernel's helper thread,
    so that with two usable CPUs the tests below take the helper path, and
    with one the inline path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(popmc, "_MIN_LOOKAHEAD_PARTICLES", 2)
        yield


def state_tuple(pop):
    return (pop.tau, pop.u_sync.copy(), pop.t_sync.copy(), pop.localized.copy(),
            [getattr(pop, name) for name in popmc._COUNTERS])


def assert_same_state(a, b):
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert np.array_equal(a[3], b[3])
    assert a[4] == b[4]


def test_same_seed_reproduces_exactly():
    a, _ = run_steady(2000, 2.0, seed=7)
    b, _ = run_steady(2000, 2.0, seed=7)
    assert_same_state(state_tuple(a), state_tuple(b))


def test_different_seeds_differ():
    a, _ = run_steady(2000, 2.0, seed=7)
    b, _ = run_steady(2000, 2.0, seed=8)
    assert not np.array_equal(a.u_sync, b.u_sync)


def test_snapshots_do_not_perturb_the_stream():
    plain, _ = run_steady(2000, 3.0, seed=5)
    snapped, snaps = run_steady(2000, 3.0, seed=5, snapshot_taus=(0.7, 1.5, 2.9))
    assert_same_state(state_tuple(plain), state_tuple(snapped))
    assert [s.tau for s in snaps] == [0.7, 1.5, 2.9]
    assert all(s.g_empirical == 1.0 for s in snaps)
    assert all(s.u_values.size == 2000 for s in snaps)


def test_checkpoint_resume_is_bit_identical(tmp_path):
    one_shot, _ = run_steady(3000, 4.0, seed=13)
    pop, _ = run_steady(3000, 2.0, seed=13)
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)
    loaded = load_checkpoint(path)
    resume(loaded, 4.0)
    assert_same_state(state_tuple(one_shot), state_tuple(loaded))


def test_in_memory_resume_matches_one_shot():
    one_shot, _ = run_steady(2000, 3.0, seed=21)
    pop, _ = run_steady(2000, 1.0, seed=21)
    resume(pop, 3.0)
    assert_same_state(state_tuple(one_shot), state_tuple(pop))


def test_checkpoint_rejects_foreign_version(tmp_path):
    pop, _ = run_steady(1000, 0.5, seed=1)
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)
    with np.load(path) as z:
        payload = {k: z[k] for k in z.files}
    # version 2 drew its gaps with the platform's log1p, version 3 held a rate field,
    # version 4 an entrant rule, its cap, a ceiling and an overflow count
    for version in (2, 3, 4, 99):
        payload["version"] = np.int64(version)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=f"version {version}"):
            load_checkpoint(path)


def test_resume_requires_generator():
    bare = Population(seed=0, tau=0.0, localized=np.ones(5, dtype=bool),
                      u_sync=np.ones(5), t_sync=np.zeros(5))
    with pytest.raises(ValueError, match="generator"):
        resume(bare, 1.0)


def test_unseeded_population_stays_delocalized():
    pop, snaps = run_transient(2000, 0.0, 3.0, seed=3, snapshot_taus=(1.5,))
    assert pop.n_localized == 0
    assert pop.g_empirical == 0.0
    assert snaps[0].u_values.size == 0


def test_full_seed_equals_steady_run():
    a, _ = run_transient(1500, 1.0, 2.0, seed=9)
    b, _ = run_steady(1500, 2.0, seed=9)
    assert_same_state(state_tuple(a), state_tuple(b))


def test_transient_fraction_tracks_closed_form():
    M = 20000
    pop, _ = run_transient(M, 0.1, 2.0, seed=0)
    gc = gamma_closed(2.0, 0.1)
    se = np.sqrt(gc * (1.0 - gc) / M)
    assert abs(pop.g_empirical - gc) < 3.0 * se


def test_resume_within_the_pending_gap_is_pure_drift():
    pop, _ = run_transient(1000, 0.5, 1.0, seed=6)
    kept = [pop.u_sync.copy(), pop.t_sync.copy(), pop.localized.copy(), pop._buffer.copy()]
    counts = [getattr(pop, n) for n in popmc._COUNTERS]
    u0 = pop.current_u()
    elapsed = 0.5 * pop._pending_gap
    assert elapsed > 0.0
    resume(pop, 1.0 + elapsed)
    assert pop.tau == 1.0 + elapsed
    for a, b in zip(kept, [pop.u_sync, pop.t_sync, pop.localized, pop._buffer]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert [getattr(pop, n) for n in popmc._COUNTERS] == counts
    assert np.max(np.abs(pop.current_u() - u0 - elapsed)) < 1e-12


def test_steady_population_matches_grid_solution():
    p_star = solve_steady(SolverConfig(u_max=15.0, h=0.05))
    pop, _ = run_steady(20000, 10.0, seed=11)
    assert ks_distance(pop, p_star) < 0.03


def test_sampler_scores_small_ks_against_its_source():
    rng = np.random.Generator(np.random.Philox(key=99))
    ref = exponential_density(UGrid.from_spacing(20.0, 0.01))
    draws = sample_from_density(ref, 50000, rng)
    assert ks_distance(draws, ref) < 4.0 / np.sqrt(50000)


def test_ks_detects_a_wrong_reference():
    rng = np.random.Generator(np.random.Philox(key=99))
    grid = UGrid.from_spacing(8.0, 0.01)
    draws = sample_from_density(exponential_density(grid), 30000, rng)
    slower = normalize(UDensity(grid, np.exp(-0.5 * grid.nodes())))
    assert ks_distance(draws, slower) > 0.1


def test_empirical_density_has_unit_mass():
    grid = UGrid.from_spacing(10.0, 0.1)
    values = np.array([0.1, 0.12, 0.2, 3.33, 25.0])  # last one clips to u_max
    d = empirical_density(values, grid)
    assert mass(d) == pytest.approx(1.0, abs=1e-12)
    assert d.values[grid.n_nodes - 1] > 0.0


def test_population_size_guards():
    with pytest.raises(ValueError, match="at least"):
        run_steady(500, 1.0, seed=0)
    with pytest.raises(ValueError, match="localized particles"):
        run_transient(1000, 0.001, 1.0, seed=0)  # ceil(g0*M) = 1 seed particle


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(g0=-0.1), "g0"),
        (dict(g0=1.5), "g0"),
    ],
)
def test_transient_argument_validation(kwargs, msg):
    base = dict(M=2000, g0=0.5, tau_end=1.0, seed=0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=msg):
        run_transient(**base)


def test_run_beyond_the_event_limit_is_refused_before_any_event(monkeypatch):
    # M = 1000 to tau_end = 1e300 once drew events until it was killed
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(popmc, "_apply_events", started)
    message = r"tau_end=1e\+300 with m_particles=1000 expects 5e\+302 events, more than 1e\+10"
    with pytest.raises(ValueError, match=message):
        run_steady(1000, 1e300, seed=0)
    with pytest.raises(Started):  # 10^10 expected events is the most a run may take
        run_steady(2000, 1e7, seed=0)
    with pytest.raises(ValueError, match="more than 1e\\+10"):
        run_transient(2000, 0.5, 1.0000001e7, seed=0)
    monkeypatch.undo()
    pop, _ = run_steady(2000, 1.0, seed=0)
    monkeypatch.setattr(popmc, "_apply_events", started)
    with pytest.raises(ValueError, match="tau_end=1e\\+300 with m_particles=2000 expects"):
        resume(pop, 1e300)
    with pytest.raises(Started):  # the limit counts the events still to come, from tau = 1
        resume(pop, 1e7 + 1.0)


def test_population_beyond_the_particle_limit_is_refused_before_any_array(monkeypatch):
    # 2^50 particles are more than any address space holds, so no array of them is tried
    with pytest.raises(ValueError, match=f"m_particles={2**50} is more than 2e\\+07"):
        run_steady(2**50, 1.0, seed=0)
    monkeypatch.setattr(popmc, "_MAX_PARTICLES", 2000)
    with pytest.raises(ValueError, match="m_particles=2001 is more than 2e\\+03"):
        run_transient(2001, 0.5, 1e-6, seed=0)
    pop, _ = run_transient(2000, 0.5, 1e-6, seed=0)
    assert pop.size == 2000


def test_snapshot_and_rate_guards():
    with pytest.raises(ValueError, match="outside"):
        run_steady(1000, 1.0, seed=0, snapshot_taus=(2.0,))
    pop, _ = run_steady(1000, 1.0, seed=0)
    with pytest.raises(ValueError, match="before"):
        resume(pop, 0.5)


@pytest.mark.parametrize("tau_end", [np.nan, np.inf])
def test_non_finite_end_time_is_rejected(tau_end):
    with pytest.raises(ValueError, match="tau_end must be finite"):
        run_steady(1000, tau_end, seed=0)
    pop, _ = run_transient(1000, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="tau_end must be finite"):
        resume(pop, tau_end)
    assert pop.tau == 0.5


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_snapshot_time_is_rejected(t):
    with pytest.raises(ValueError, match="outside"):
        run_steady(1000, 1.0, seed=0, snapshot_taus=(0.5, t))


def test_empty_sample_guards():
    grid = UGrid.from_spacing(5.0, 0.1)
    with pytest.raises(ValueError, match="no localized"):
        empirical_density(np.array([]), grid)
    with pytest.raises(ValueError, match="no localized"):
        ks_distance(np.array([]), exponential_density(grid))
    rng = np.random.Generator(np.random.Philox(key=0))
    with pytest.raises(ValueError, match="nonnegative"):
        sample_from_density(exponential_density(grid), -1, rng)
    with pytest.raises(ValueError, match="zero mass"):
        sample_from_density(UDensity(grid, np.zeros(grid.n_nodes)), 5, rng)


# Batched event loop against the scalar reference ------------------------------


@contextmanager
def dense_reference():
    """Run the public API on the scalar reference loop."""
    batched = popmc._advance
    popmc._advance = reference_advance
    try:
        yield
    finally:
        popmc._advance = batched


def both_loops(call):
    """(batched, reference) results of call(), a run returning (pop, snaps)."""
    batched = call()
    with dense_reference():
        dense = call()
    return batched, dense


def assert_bit_identical(batched, dense):
    (a, sa), (b, sb) = batched, dense
    assert a.tau == b.tau
    assert np.array_equal(a.localized, b.localized)
    assert np.array_equal(a.u_sync, b.u_sync)
    assert np.array_equal(a.t_sync, b.t_sync)
    assert np.array_equal(a._buffer, b._buffer)
    assert a._pending_gap == b._pending_gap
    for name in popmc._COUNTERS:
        assert getattr(a, name) == getattr(b, name), name
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert x.tau == y.tau
        assert x.g_empirical == y.g_empirical
        assert np.array_equal(x.u_values, y.u_values)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("M", [1000, 2000, 4001])
def test_batched_steady_matches_reference(seed, M):
    assert_bit_identical(*both_loops(lambda: run_steady(M, 3.0, seed, (0.5, 1.7, 3.0))))


# Runs of a few events split the wavefronts and the blocks at every place; runs
# of one event (slow: about 100 numpy calls an event) take only seed 0.
@pytest.mark.parametrize("run_events, seed", [(n, s) for n in (3, 7) for s in (0, 1, 2)] + [(1, 0)])
@pytest.mark.parametrize("M", [1000, 2000, 4001])
def test_batched_run_sizes_match_reference(monkeypatch, run_events, seed, M):
    monkeypatch.setattr(popmc, "_RUN_EVENTS", run_events)
    assert_bit_identical(*both_loops(lambda: run_steady(M, 3.0, seed, (0.5, 1.7, 3.0))))


def test_full_runs_at_small_population_have_many_levels():
    # At M = 2000 a full run touches each particle about 8 times.
    rng = np.random.default_rng(0)
    i = rng.integers(0, 2000, popmc._RUN_EVENTS)
    j = (i + rng.integers(1, 2000, i.size)) % 2000
    assert popmc._wavefront_levels(i, j, 2000).max() >= 10


@pytest.mark.parametrize("m", [2, 3000, 2**17, 2**18, 2**18 + 1, 2**40])
def test_wavefront_levels_follow_the_scalar_rule(m):
    # 1 + the level of the last earlier event on either particle. Runs of
    # _RUN_EVENTS events sort 32-bit keys up to m = 2^19 and runs of twice
    # that, the helper's, up to m = 2^18; m = 2^18 + 1 and 2^40 sort 64-bit
    # ones. Particle m - 1 is in every run, so each run holds its largest key.
    # At m = 2 the events form one chain, which the level loop takes one level
    # a pass, so the helper's length there would take seconds for nothing new.
    rng = np.random.default_rng(m)
    lengths = (0, 1, 7, popmc._RUN_EVENTS) + ((2 * popmc._RUN_EVENTS,) if m > 2 else ())
    for n in lengths:
        i = rng.integers(0, m, n)
        if n:
            i[n // 2] = m - 1
        j = (i + rng.integers(1, m, n)) % m
        last, want = {}, []
        for a, b in zip(i.tolist(), j.tolist()):
            last[a] = last[b] = 1 + max(last.get(a, 0), last.get(b, 0))
            want.append(last[a])
        assert popmc._wavefront_levels(i, j, m).tolist() == want


@pytest.mark.parametrize("g0", [0.1, 1.0])
def test_batched_transient_matches_reference(g0):
    assert_bit_identical(*both_loops(lambda: run_transient(6000, g0, 4.0, 17, (0.0, 1.0, 2.5))))


@pytest.mark.parametrize("block_events", [None, 1, 2, 5])
def test_batched_refills_match_reference(monkeypatch, block_events):
    # Blocks of a few events make most events straddle a refill.
    if block_events is not None:
        monkeypatch.setattr(popmc, "_BLOCK_EVENTS", block_events)
    tau_end = 1.5
    batched, dense = both_loops(lambda: run_transient(
        1000, 0.2, tau_end, 4, snapshot_taus=(0.3 * tau_end,)))
    assert sum(getattr(batched[0], n) for n in popmc._COUNTERS) > 200
    assert_bit_identical(batched, dense)


def test_snapshots_at_event_times_match_reference():
    with dense_reference():
        pop, _ = run_transient(3000, 0.5, 2.0, 6)
    times = np.unique(pop.t_sync[pop.localized & (pop.t_sync > 0.0)])
    snaps = [float(t) for t in times[:: times.size // 7]] + [2.0]
    batched, dense = both_loops(lambda: run_transient(3000, 0.5, 2.0, 6, snapshot_taus=snaps))
    assert len(batched[1]) == len(snaps)
    assert_bit_identical(batched, dense)


@pytest.mark.parametrize("drop", [0, 1, 2])
@pytest.mark.parametrize("tau_stop", [0.4, 1.3])
def test_resumed_buffer_tails_match_reference(tmp_path, drop, tau_stop):
    # A run stops with a tail of 2 mod 3 uniforms; dropping 0, 1 or 2 of
    # them gives a checkpoint with each residue.
    pop, _ = run_transient(2000, 0.25, tau_stop, 12)
    pop._buffer = pop._buffer[drop:]
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)

    def resumed():
        loaded = load_checkpoint(path)
        return loaded, resume(loaded, 3.0, (1.5, 2.0))

    batched, dense = both_loops(resumed)
    assert batched[0].events_loc_loc > 0
    assert_bit_identical(batched, dense)


@pytest.mark.parametrize("tail", [0, 1, 2, 3, 4])
def test_short_buffer_tails_match_reference(tail):
    def resumed():
        pop, _ = run_steady(1000, 0.5, 2)
        pop._buffer = pop._buffer[pop._buffer.size - tail:]
        return pop, resume(pop, 1.0, (0.75,))

    assert_bit_identical(*both_loops(resumed))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    M=st.integers(1000, 3000),
    g0=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    tau_end=st.floats(0.0, 2.0),
    snaps=st.lists(st.floats(0.0, 1.0), max_size=3),
)
def test_batched_loop_matches_reference_property(seed, M, g0, tau_end, snaps):
    taus = tuple(tau_end * f for f in snaps)
    assert_bit_identical(*both_loops(lambda: run_transient(M, g0, tau_end, seed, taus)))


# Look-ahead: runs prepared on the kernel's helper thread or inline ------------


class _RecordingPool:
    """The kernel's pool, keeping every future the event loop submits."""

    def __init__(self, pool):
        self.pool = pool
        self.futures = []

    def submit(self, *args):
        future = self.pool.submit(*args)
        self.futures.append(future)
        return future


def _recorded_helper(monkeypatch):
    """Two usable CPUs, and the kernel's pool recording what the loop submits."""
    monkeypatch.setattr(udist, "_usable_cpus", lambda: 2)
    pool = _RecordingPool(udist._kernel_pool(1))
    monkeypatch.setattr(popmc, "_kernel_pool", lambda helpers: pool)
    return pool


@pytest.fixture(params=["helper", "inline"])
def lookahead(request, monkeypatch):
    """The event loop in runs of 1000 events, the next prepared on the
    kernel's helper thread (two usable CPUs), or inline (one usable CPU,
    which must not ask for the helper). Yields the recording pool, or None."""
    monkeypatch.setattr(popmc, "_RUN_EVENTS", 1000)
    if request.param == "helper":
        pool = _recorded_helper(monkeypatch)
        yield pool
        assert pool.futures and all(f.done() for f in pool.futures)
    else:
        def no_pool(helpers):
            raise AssertionError("a run on one usable CPU asked for the helper thread")

        monkeypatch.setattr(udist, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(popmc, "_kernel_pool", no_pool)
        yield None


# Reference comparisons from above, each run again on both paths in several runs.
_REFERENCE_CASES = {
    "steady": lambda mp, tmp: test_batched_steady_matches_reference(1, 4001),
    "short-runs": lambda mp, tmp: test_batched_run_sizes_match_reference(mp, 7, 2, 2000),
    "transient": lambda mp, tmp: test_batched_transient_matches_reference(0.1),
    "refills": lambda mp, tmp: test_batched_refills_match_reference(mp, 2),
    "snapshots-at-events": lambda mp, tmp: test_snapshots_at_event_times_match_reference(),
    "resumed-tails": lambda mp, tmp: test_resumed_buffer_tails_match_reference(tmp, 1, 0.4),
    "short-tails": lambda mp, tmp: test_short_buffer_tails_match_reference(3),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_both_lookahead_paths_match_reference(lookahead, monkeypatch, tmp_path, case):
    _REFERENCE_CASES[case](monkeypatch, tmp_path)


@pytest.mark.parametrize("name, failing_call, thread", [
    ("_neg_log1p", 3, "randloc-kernel"),  # the first gap, run 1 here, run 2 on the helper
    ("_apply_events", 1, "MainThread"),  # while the helper prepares run 2
])
def test_a_failure_on_either_thread_leaves_no_run_preparing(monkeypatch, name, failing_call,
                                                            thread):
    pool = _recorded_helper(monkeypatch)

    class Injected(Exception):
        pass

    real = getattr(popmc, name)
    threads = []

    def failing(*args):
        threads.append(threading.current_thread().name)
        if len(threads) == failing_call:
            raise Injected
        return real(*args)

    monkeypatch.setattr(popmc, name, failing)
    with pytest.raises(Injected):
        run_steady(70000, 0.5, seed=4)
    assert threads[-1].startswith(thread)
    assert pool.futures and all(f.done() for f in pool.futures)


def test_only_runs_with_events_go_to_the_helper(monkeypatch):
    pool = _recorded_helper(monkeypatch)
    run_steady(70000, 0.05, seed=4)  # about 1750 events: one run, prepared here
    assert pool.futures == []
    run_steady(70000, 1.0, seed=4)  # about 35000 events: runs 2 and 3 on the helper
    assert len(pool.futures) == 2


# At the default run lengths the helper's runs are 16384 events, whose wavefront
# keys are 32 bits wide up to 2^18 particles and 64 bits wide above.
@pytest.mark.parametrize("M, tau_end", [(200000, 0.3), (2**18 + 1, 0.25)])
def test_helper_length_runs_match_reference(monkeypatch, M, tau_end):
    pool = _recorded_helper(monkeypatch)
    assert_bit_identical(*both_loops(lambda: run_steady(M, tau_end, 3, (0.1, tau_end))))
    assert pool.futures


def test_runs_hold_at_most_one_helper_thread(lookahead):
    run_steady(20000, 3.0, seed=4, snapshot_taus=(1.0,))
    run_transient(20000, 0.1, 3.0, seed=5)
    helpers = [t for t in threading.enumerate() if t.name.startswith("randloc-kernel")]
    assert len(helpers) == 1 if lookahead is not None else len(helpers) <= 1


# Event gaps -------------------------------------------------------------------

# (u, -log1p(-u)) as bit patterns, from glibc 2.36's non-FMA log1p
# (__log1p_sse2 in libm.a) at x = -u: one or more inputs per branch.
_NEG_LOG1P_GOLDEN = [
    ("0x0.0p+0", "0x0.0p+0"),  # u = 0
    ("0x0.0000000000001p-1022", "0x0.0000000000001p-1022"),  # smallest subnormal
    ("0x1.0000000000000p-55", "0x1.0000000000000p-55"),  # |x| < 2^-54: log1p(x) = x
    ("0x1.fffffffffffffp-55", "0x1.fffffffffffffp-55"),  # just below 2^-54
    ("0x1.0000000000000p-54", "0x1.0000000000000p-54"),  # 2^-54: x - x*x/2
    ("0x1.0000000000000p-53", "0x1.0000000000000p-53"),  # 2^-53
    ("0x1.0000000000000p-40", "0x1.0000000000800p-40"),  # below 2^-29
    ("0x1.fffffffffffffp-30", "0x1.00000003fffffp-29"),  # just below 2^-29
    ("0x1.0000000000000p-29", "0x1.0000000400000p-29"),  # 2^-29: main path
    ("0x1.ad7f29abcaf48p-24", "0x1.ad7f2b1414ae8p-24"),  # small, k = 0
    ("0x1.0000000000000p-20", "0x1.0000080000555p-20"),  # 2^-20, k = 0
    ("0x1.999999999999ap-4", "0x1.af8e8210a415ep-4"),  # k = 0
    ("0x1.0000000000000p-2", "0x1.269621134db92p-2"),  # k = 0
    ("0x1.2bec3ffffffffp-2", "0x1.62e4420e1ff0fp-2"),  # just below high word 0x3FD2BEC4: k = 0
    ("0x1.2bec400000000p-2", "0x1.62e4420e1ff10p-2"),  # high word 0x3FD2BEC4: 1 + x on the sqrt(2)/2 cut
    ("0x1.2bec400000001p-2", "0x1.62e4420e1ff10p-2"),  # 1 + x rounds onto the cut: k = 0 and glibc drops c
    ("0x1.2bec400000002p-2", "0x1.62e4420e1ff13p-2"),  # just above: k = -1
    ("0x1.4afb100000000p-1", "0x1.0a2b287b59cbcp+0"),  # 1 + x = cut/2: halved, k = -1
    ("0x1.4afb100000001p-1", "0x1.0a2b287b59cbdp+0"),  # 1 + x just below cut/2: k = -2
    ("0x1.fa57d88000000p-1", "0x1.205968149cb64p+2"),  # 1 + x = cut/64
    ("0x1.fa57d88000001p-1", "0x1.205968149cb70p+2"),  # 1 + x just below cut/64
    ("0x1.3333333333333p-2", "0x1.6d3c324e13f4ep-2"),
    ("0x1.0000000000000p-1", "0x1.62e42fefa39efp-1"),  # f == 0, k = -1
    ("0x1.8000000000000p-1", "0x1.62e42fefa39efp+0"),  # f == 0, k = -2
    ("0x1.ff80000000000p-1", "0x1.bb9d3beb8c86bp+2"),  # f == 0, k = -10
    ("0x1.fffffff800000p-2", "0x1.62e42fe7a39efp-1"),  # hu == 0 below a power of two: f = 2^-30
    ("0x1.ffffe00000002p-2", "0x1.62e40fefa49f1p-1"),  # hu == 0: f just under 2^-20
    ("0x1.ffffe00000000p-2", "0x1.62e40fefa49efp-1"),  # f = 2^-20: hu = 1, main path
    ("0x1.0000020000000p-1", "0x1.62e433efa3a2fp-1"),  # hu == 0 above a power of two (u1 just under 1/2)
    ("0x1.0000180000000p-1", "0x1.62e45fefa5defp-1"),  # hu == 0 at its edge: m = 1 - 3*2^-21
    ("0x1.0000180000001p-1", "0x1.62e45fefa5df1p-1"),  # just past the hu == 0 edge: main path
    ("0x1.8000000800000p-1", "0x1.62e42fffa39efp+0"),  # hu == 0 above 1/4
    ("0x1.3333333333333p-1", "0x1.d5240f0e0e077p-1"),
    ("0x1.ccccccccccccdp-1", "0x1.26bb1bbb55516p+1"),
    ("0x1.ff7ced916872bp-1", "0x1.ba18a998fff9fp+2"),
    ("0x1.f9add3739635fp-4", "0x1.0ddd0ce44ea5ap-3"),
    ("0x1.ffffffffffffep-1", "0x1.205966f2b4f12p+5"),
    ("0x1.fffffffffffffp-1", "0x1.25e4f7b2737fap+5"),  # largest uniform below 1
]


def test_neg_log1p_matches_glibc_bit_for_bit():
    u = np.array([float.fromhex(x) for x, _ in _NEG_LOG1P_GOLDEN])
    want = np.array([float.fromhex(y) for _, y in _NEG_LOG1P_GOLDEN])
    got = popmc._neg_log1p(u)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    # one element at a time, and strided, give the same bits
    assert all(popmc._neg_log1p(u[n : n + 1])[0] == want[n] for n in range(u.size))
    assert np.array_equal(popmc._neg_log1p(np.repeat(u, 3)[1::3]), want)


def test_neg_log1p_is_within_one_ulp_of_math_log1p():
    u = np.random.Generator(np.random.Philox(key=2024)).random(10**6)
    got = popmc._neg_log1p(u)
    want = -np.array([math.log1p(-x) for x in u.tolist()])
    assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= 1)


# Event counts by type ---------------------------------------------------------


@pytest.mark.parametrize("g0", [0.01, 0.1, 0.6])
def test_loc_deloc_events_are_the_localizations(g0):
    M = 3000
    pop, _ = run_transient(M, g0, 2.0, 5)
    assert pop.events_loc_deloc == pop.n_localized - int(np.ceil(g0 * M))
    assert pop.events_loc_loc > 0
    assert pop.events_deloc_deloc > 0


def test_steady_runs_count_no_deloc_event():
    pop, _ = run_steady(2000, 2.0, 7)
    assert pop.events_loc_loc > 0
    assert pop.events_loc_deloc == 0
    assert pop.events_deloc_deloc == 0


def test_checkpoint_keeps_event_counts(tmp_path):
    one_shot, _ = run_transient(3000, 0.2, 2.0, 14)
    pop, _ = run_transient(3000, 0.2, 1.0, 14)
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)
    loaded = load_checkpoint(path)
    resume(loaded, 2.0)
    assert [getattr(loaded, n) for n in popmc._COUNTERS] == [
        getattr(one_shot, n) for n in popmc._COUNTERS]
    assert 0 < pop.events_loc_loc < one_shot.events_loc_loc


def test_unseeded_runs_count_only_deloc_events():
    pop, _ = run_transient(2000, 0.0, 2.0, 3)
    assert pop.events_loc_loc == pop.events_loc_deloc == 0
    assert pop.events_deloc_deloc > 0


# Checkpoint validation --------------------------------------------------------


def _corrupt(path, **changes):
    with np.load(path) as z:
        payload = {k: z[k] for k in z.files}
    for key, change in changes.items():
        if change is None:
            del payload[key]
        else:
            payload[key] = change(payload[key])
    np.savez(path, **payload)


def _with(index, value):
    def change(a):
        a = a.copy()
        a[index] = value
        return a
    return change


@pytest.mark.parametrize(
    "changes,msg",
    [
        (dict(localized=lambda a: a[:-1]), "localized has 1999"),
        (dict(u_sync=lambda a: a[:-1]), "u_sync has 1999"),
        (dict(t_sync=lambda a: np.append(a, 0.0)), "t_sync has 2001"),
        (dict(localized=lambda a: a.astype(np.int8)), "localized must be"),
        (dict(u_sync=lambda a: a.astype(np.float32)), "u_sync must be"),
        (dict(t_sync=lambda a: a.reshape(2, -1)), "t_sync must be"),
        (dict(buffer=lambda a: a.astype(np.float32)), "buffer must be"),
        (dict(tau=lambda a: np.float64(np.nan)), "tau is not finite"),
        (dict(pending_gap=lambda a: np.float64(np.inf)), "pending_gap is not finite"),
        (dict(events_deloc_deloc=lambda a: np.int64(-3)), "events_deloc_deloc is negative"),
        (dict(rng_state=None), "lacks rng_state"),
        (dict(u_sync=_with(0, np.nan)), "u_sync holds a non-finite"),
        (dict(t_sync=_with(1, np.inf)), "t_sync holds a non-finite"),
        (dict(localized=None), "lacks localized"),
        (dict(buffer=_with(0, 1.0)), "buffer holds a value outside"),
        (dict(buffer=_with(-1, -0.25)), "buffer holds a value outside"),
        (dict(events_loc_loc=lambda a: np.int64(-1)), "events_loc_loc is negative"),
        (dict(pending_gap=None), "lacks pending_gap"),
    ],
)
def test_checkpoint_rejects_corrupted_field(tmp_path, changes, msg):
    pop, _ = run_transient(2000, 0.5, 0.5, seed=1)
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)
    _corrupt(path, **changes)
    with pytest.raises(ValueError, match=msg):
        load_checkpoint(path)


def test_checkpoint_holds_exactly_the_population_fields(tmp_path):
    pop, _ = run_transient(2000, 0.5, 0.5, seed=1)
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)
    names = [f.name for f in dataclasses.fields(Population) if f.name != "rng"]
    with np.load(path, allow_pickle=False) as z:
        assert sorted(z.files) == sorted(["version", "rng_state",
                                          *(name.lstrip("_") for name in names)])
    loaded = load_checkpoint(path)
    for name in names:
        saved, got = getattr(pop, name), getattr(loaded, name)
        assert type(got) is type(saved), name
        assert np.array_equal(got, saved), name
    assert np.array_equal(loaded.rng.random(8), pop.rng.random(8))  # the same stream state


def test_checkpoint_saves_only_what_it_can_load(tmp_path):
    # every 128-bit seed keys a Philox stream, but np.savez would pickle one
    # beyond 64 bits, which load_checkpoint refuses to read
    path = tmp_path / "pop.npz"
    pop, _ = run_steady(1000, 0.1, seed=2**70)
    with pytest.raises(ValueError, match="cannot hold seed 1180591620717411303424"):
        save_checkpoint(pop, path)
    assert not path.exists()
    pop, _ = run_steady(1000, 0.1, seed=2**64 - 1)
    save_checkpoint(pop, path)
    assert load_checkpoint(path).seed == 2**64 - 1


def _bare(**changes):
    fields = dict(seed=0, tau=0.0, localized=np.ones(5, dtype=bool), u_sync=np.ones(5),
                  t_sync=np.zeros(5))
    fields.update(changes)
    return Population(**fields)


@pytest.mark.parametrize(
    "changes, name",
    [
        (dict(localized=np.ones(5, dtype=np.int8)), "localized"),
        (dict(localized=np.ones(1, dtype=bool), u_sync=np.ones(1), t_sync=np.zeros(1)),
         "at least 2 particles"),
        (dict(u_sync=np.ones(5, dtype=np.float32)), "u_sync"),
        (dict(t_sync=np.zeros((5, 1))), "t_sync"),
        (dict(u_sync=np.ones(4)), "u_sync"),
        (dict(u_sync=np.array([1.0, np.nan, 1.0, 1.0, 1.0])), "u_sync"),
        (dict(t_sync=np.full(5, -np.inf)), "t_sync"),
        (dict(t_sync=np.zeros(6)), "t_sync"),
        (dict(localized=np.ones((5, 1), dtype=bool)), "localized"),
        (dict(u_sync=np.full(5, np.inf)), "u_sync"),
        (dict(tau=np.nan), "tau"),
        (dict(_buffer=np.array([-0.5])), "buffer"),
        (dict(events_loc_loc=-1), "events_loc_loc"),
        (dict(events_loc_deloc=-1), "events_loc_deloc"),
        (dict(tau=np.inf), "tau"),
        (dict(_pending_gap=np.nan), "pending_gap"),
        (dict(_buffer=np.ones(3, dtype=np.float32)), "buffer"),
        (dict(_buffer=np.array([0.5, 1.0])), "buffer"),
        (dict(_pending_gap=-np.inf), "pending_gap"),
        (dict(events_deloc_deloc=-2), "events_deloc_deloc"),
    ],
)
def test_population_refuses_a_bad_field(changes, name):
    with pytest.raises(ValueError, match=name):
        _bare(**changes)


@pytest.mark.parametrize("M", [0, 1])
def test_population_of_fewer_than_two_is_refused(M):
    # one particle once failed with an IndexError at its first event, none
    # with a ZeroDivisionError in its empirical fraction
    with pytest.raises(ValueError, match=f"at least 2 particles, got {M}"):
        run_transient(M, 0.0, 1.0, seed=0)


def test_resume_refuses_a_field_set_after_construction():
    pop, _ = run_transient(2000, 0.5, 0.5, seed=1)
    kept = [pop.u_sync.copy(), pop._buffer.copy(), [getattr(pop, n) for n in popmc._COUNTERS]]
    pop.tau = np.nan
    with pytest.raises(ValueError, match="tau is not finite"):
        resume(pop, 1.0)
    assert np.isnan(pop.tau)
    assert np.array_equal(pop.u_sync, kept[0]) and np.array_equal(pop._buffer, kept[1])
    assert [getattr(pop, n) for n in popmc._COUNTERS] == kept[2]


def test_checkpoint_ignores_stale_delocalized_values(tmp_path):
    pop, _ = run_transient(2000, 0.1, 0.5, seed=1)
    stale = int(np.flatnonzero(~pop.localized)[0])
    path = tmp_path / "pop.npz"
    save_checkpoint(pop, path)
    _corrupt(path, u_sync=_with(stale, np.nan), t_sync=_with(stale, np.inf))
    loaded = load_checkpoint(path)
    resume(loaded, 1.0)
    resume(pop, 1.0)
    assert np.array_equal(loaded.current_u(), pop.current_u())
    assert loaded.events_loc_deloc == pop.events_loc_deloc
