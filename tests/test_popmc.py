"""Pairwise event-driven Monte Carlo population dynamics."""

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
from randloc.popmc import empirical_density, ks_distance, run_steady, run_transient
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


def test_steady_population_matches_grid_solution():
    p_star = solve_steady(SolverConfig(u_max=15.0, h=0.05))
    pop, _ = run_steady(20000, 10.0, seed=11)
    assert ks_distance(pop, p_star) < 0.03


def test_exponential_draws_score_small_ks_against_their_density():
    rng = np.random.Generator(np.random.Philox(key=99))
    ref = exponential_density(UGrid.from_spacing(20.0, 0.01))
    draws = rng.exponential(size=50000)
    assert ks_distance(draws, ref) < 4.0 / np.sqrt(50000)


def test_ks_detects_a_wrong_reference():
    rng = np.random.Generator(np.random.Philox(key=99))
    grid = UGrid.from_spacing(8.0, 0.01)
    draws = rng.exponential(size=30000)
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


@pytest.mark.parametrize("M", [0, 1])
def test_population_of_fewer_than_two_is_refused(M):
    # one particle once failed with an IndexError at its first event, none
    # with a ZeroDivisionError in its empirical fraction
    with pytest.raises(ValueError, match=f"at least 2 particles, got {M}"):
        run_transient(M, 0.0, 1.0, seed=0)


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(g0=-0.1), "g0"),
        (dict(g0=1.5), "g0"),
        (dict(g0=np.nan), "g0"),
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
    with pytest.raises(ValueError, match="tau_end=-0.5 is before the population time 0.0"):
        run_steady(1000, -0.5, seed=0)
    # a fresh population starts at tau = 0, so no time before it is let through
    with pytest.raises(ValueError, match="tau_end=-1e-13 is before the population time 0.0"):
        run_steady(1000, -1e-13, seed=0)
    with pytest.raises(ValueError, match="outside"):
        run_steady(1000, 1.0, seed=0, snapshot_taus=(-1e-13,))


@pytest.mark.parametrize("tau_end", [np.nan, np.inf])
def test_non_finite_end_time_is_rejected(tau_end):
    with pytest.raises(ValueError, match="tau_end must be finite"):
        run_steady(1000, tau_end, seed=0)


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
    with pytest.raises(ValueError, match="zero mass"):
        ks_distance(np.array([1.0]), UDensity(grid, np.zeros(grid.n_nodes)))


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


# Runs of a few events split the wavefronts and the draws at every place; runs
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


def test_snapshots_at_event_times_match_reference():
    with dense_reference():
        pop, _ = run_transient(3000, 0.5, 2.0, 6)
    times = np.unique(pop.t_sync[pop.localized & (pop.t_sync > 0.0)])
    snaps = [float(t) for t in times[:: times.size // 7]] + [2.0]
    batched, dense = both_loops(lambda: run_transient(3000, 0.5, 2.0, 6, snapshot_taus=snaps))
    assert len(batched[1]) == len(snaps)
    assert_bit_identical(batched, dense)


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
    pool = _RecordingPool(udist._helper())
    monkeypatch.setattr(popmc, "_helper", lambda: pool)
    return pool


@pytest.fixture(params=["helper", "inline"])
def lookahead(request, monkeypatch):
    """The event loop in runs of 1000 events, the next prepared on the
    kernel's helper thread (two usable CPUs), or inline (one usable CPU,
    which must submit nothing to the helper). Yields the recording pool,
    or None."""
    monkeypatch.setattr(popmc, "_RUN_EVENTS", 1000)
    if request.param == "helper":
        pool = _recorded_helper(monkeypatch)
        yield pool
        assert pool.futures and all(f.done() for f in pool.futures)
    else:
        monkeypatch.setattr(udist, "_usable_cpus", lambda: 1)
        pool = _RecordingPool(udist._pool)
        monkeypatch.setattr(udist, "_pool", pool)
        yield None
        assert pool.futures == [], "a run on one usable CPU used the helper thread"


# Reference comparisons from above, each run again on both paths in several runs.
_REFERENCE_CASES = {
    "steady": lambda mp: test_batched_steady_matches_reference(1, 4001),
    "short-runs": lambda mp: test_batched_run_sizes_match_reference(mp, 7, 2, 2000),
    "transient": lambda mp: test_batched_transient_matches_reference(0.1),
    "snapshots-at-events": lambda mp: test_snapshots_at_event_times_match_reference(),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_both_lookahead_paths_match_reference(lookahead, monkeypatch, case):
    _REFERENCE_CASES[case](monkeypatch)


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


def test_unseeded_runs_count_only_deloc_events():
    pop, _ = run_transient(2000, 0.0, 2.0, 3)
    assert pop.events_loc_loc == pop.events_loc_deloc == 0
    assert pop.events_deloc_deloc > 0
