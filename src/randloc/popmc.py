"""Event-driven population Monte Carlo for the localization process.

A population of M particles is either delocalized or localized with a
dimensionless squared length u >= 0. Localized values start as u e^{-u}
variates and grow at unit rate between events. Pair events arrive as a
Poisson stream of total rate M/2 (so each particle is involved at rate
1); at each event an unordered distinct pair is drawn uniformly and

    (localized, localized)    both members become combine(u_i, u_j),
    (localized, delocalized)  the delocalized member localizes and adopts
                              the partner's current u, which is
                              combine(u, infinity) under the extended-value
                              convention,
    (delocalized, delocalized) nothing happens.

Expected-fraction bookkeeping then gives dg/dtau = g(1-g) * M/(M-1), the
logistic law up to the finite-M pair-counting factor. Population counts
each kind of event: loc-deloc events are exactly the localizations, and a
fully localized population sees only loc-loc ones.

Drift is lazy: each localized particle stores (value, sync time) and is
materialized only when touched by an event or a snapshot. A run always
starts from a fresh population and returns it as a record of its end
state; run_steady is run_transient at g0 = 1.

Determinism. All randomness comes from one counter-based Philox stream
keyed by the run seed. Initial values are drawn first, then the first
gap, one uniform scaled by / rate. After it each run of events draws its
own uniforms, a triple an event (first index, second index, next gap),
the gap scaled by * (1 / rate). Philox yields the same uniforms however
the draws are split, and only the last run of a call leaves triples
unread, so every event reads the same uniforms at any run length.
Identical (seed, config) runs therefore reproduce bit-identical
trajectories, and the event loop does so on every platform that rounds
doubles to IEEE 754 (see Gaps below); the initial values come from
numpy's gamma sampler, which reads the platform's log, log1p and exp, so
across platforms one can rarely differ in its last bits. The thread count
never changes the bits: runs are drawn and prepared one after another in
stream order, whichever thread prepares them, and applied in that order.

Wavefront schedule. The loop takes the triples as arrays, _RUN_EVENTS at
a time (a run; twice that with the look-ahead below), and gets the event
times from one cumulative sum seeded with the current time, which
performs the same left-to-right additions as stepping event by event. It
cuts the run at the first event past tau_end and at each pending
snapshot. Within a run every event gets a wavefront level, one more than
the highest level of the earlier events that touched either of its
particles. One sort of the keys particle << b | event, b the bit length
of the last event index, lists each particle's events in order; the keys
are 32 bits wide while M - 1 fits 32 - b bits (M up to 2^18 in
16384-event runs, 2^19 in 8192-event ones) and 64 bits wide above. One
stable sort puts each cut in level order. Events of one level touch
disjoint particles and depend only on lower levels, so each level is
applied with numpy gathers and scatters and yields the floats and counts
of the one-event-at-a-time rule (kept as the dense reference in the
tests); in a fully localized population every event is loc-loc and no
flag is read. Preparing a run (its draws, gaps, times, cuts and levels)
never reads the particles, so while the caller applies one run the
kernel's helper thread prepares the next: a look-ahead of one run. With
one usable CPU, or in a population of fewer than
_MIN_LOOKAHEAD_PARTICLES, the same preparation runs inline.

Gaps. A gap is -log1p(-u) / rate, and a last-bit change in one gap moves
every later event time. Neither math.log1p nor np.log1p fixes those bits:
glibc picks an FMA or an SSE2 log1p by CPU feature (they differ on about
4e-4 of uniforms), and numpy picks a SIMD one. _neg_log1p is fdlibm's
log1p, as glibc's non-FMA variant evaluates it, written with numpy's
IEEE + - * /, frexp and compares only, so the gaps have the same bits on
every platform, and a whole run's gaps cost a few dozen array passes.
"""

from __future__ import annotations

from concurrent.futures import wait
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .gamma import _check_g0
from .udist import UDensity, UGrid, _helper

__all__ = [
    "Population",
    "PopulationSnapshot",
    "run_steady",
    "run_transient",
    "empirical_density",
    "ks_distance",
]

_MIN_STEADY = 1000
_MIN_SEEDED = 10
_RUN_EVENTS = 1 << 13  # events per wavefront run; keeps a run's temporaries in cache
# Smaller populations prepare every run inline: their runs have many small
# levels, whose numpy calls hold the interpreter lock. On two cores the
# helper thread made runs of 2000-20000 particles 1.10-1.16 times slower,
# was even at 32768-50000 and made runs of 65536-200000 particles 1.1-1.2
# times faster.
_MIN_LOOKAHEAD_PARTICLES = 1 << 16
_MAX_EVENTS = 10**10  # expected events of one run: 28-42 minutes at 4-6 M events a second
_MAX_PARTICLES = 2 * 10**7  # a run holds about 45 bytes a particle: 0.9 GB
_COUNTERS = ("events_loc_loc", "events_loc_deloc", "events_deloc_deloc")


@dataclass(eq=False)
class PopulationSnapshot:
    """State summary at one time: empirical fraction and localized values."""

    tau: float
    g_empirical: float
    u_values: np.ndarray


@dataclass(eq=False)
class Population:
    """Particle states at the end of a run, with its event counts.

    u_sync[i] is particle i's value at its private sync time t_sync[i];
    its current value is u_sync[i] + (tau - t_sync[i]). localized marks
    live entries; delocalized slots keep stale numbers that must never be
    read. events_loc_loc, events_loc_deloc and events_deloc_deloc count the
    events of each kind.
    """

    seed: int
    tau: float
    localized: np.ndarray
    u_sync: np.ndarray
    t_sync: np.ndarray
    events_loc_loc: int = 0
    events_loc_deloc: int = 0
    events_deloc_deloc: int = 0

    @property
    def size(self) -> int:
        return int(self.localized.size)

    @property
    def n_localized(self) -> int:
        return int(np.count_nonzero(self.localized))

    @property
    def g_empirical(self) -> float:
        return self.n_localized / self.size

    def current_u(self) -> np.ndarray:
        """Materialized values of the localized particles at self.tau."""
        sel = self.localized
        return self.u_sync[sel] + (self.tau - self.t_sync[sel])


def _reference_cdf_table(density: UDensity) -> np.ndarray:
    v = density.values
    h = density.grid.h
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * h * (v[1:] + v[:-1]))))
    if cdf[-1] <= 0.0:
        raise ValueError("density has zero mass")
    return cdf


def empirical_density(pop: Population | np.ndarray, grid: UGrid) -> UDensity:
    """Histogram of localized values on the grid's node-centered bins.

    Values are assigned to the nearest node (bins of width h centered on
    each node, half-width at the two ends plus any clipped overflow), and
    counts are divided by sample size times the node quadrature weight so
    the result has unit trapezoid mass exactly.
    """
    u = pop.current_u() if isinstance(pop, Population) else np.asarray(pop, dtype=float)
    if u.size == 0:
        raise ValueError("no localized particles to bin")
    idx = np.clip(np.floor(u / grid.h + 0.5).astype(np.int64), 0, grid.n_nodes - 1)
    counts = np.bincount(idx, minlength=grid.n_nodes).astype(float)
    return UDensity(grid, counts / (u.size * grid.quad_weights()))


def ks_distance(pop: Population | np.ndarray, ref: UDensity) -> float:
    """Exact Kolmogorov-Smirnov statistic of the sample against ref.

    The reference CDF is the piecewise-linear interpolant of the trapezoid
    prefix integrals of ref (renormalized), evaluated at every sample point.
    """
    u = pop.current_u() if isinstance(pop, Population) else np.asarray(pop, dtype=float)
    if u.size == 0:
        raise ValueError("no localized particles to compare")
    cdf = _reference_cdf_table(ref)
    x = np.sort(u)
    f = np.interp(x, ref.grid.nodes(), cdf / cdf[-1])
    n = x.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - f), np.max(f - lo)))


def run_steady(
    M: int,
    tau_end: float,
    seed: int,
    snapshot_taus=(),
) -> tuple[Population, list[PopulationSnapshot]]:
    """Fully localized population (g = 1) advanced to tau_end.

    Initial values are u e^{-u} variates and events arrive at total rate
    M/2. Snapshots never perturb the event sequence. This is run_transient
    at g0 = 1, which the same seed reproduces bit for bit, for populations
    of at least 1000 particles.
    """
    if M < _MIN_STEADY:
        raise ValueError(f"steady runs need at least {_MIN_STEADY} particles, got {M}")
    return run_transient(M, 1.0, tau_end, seed, snapshot_taus)


def run_transient(
    M: int,
    g0: float,
    tau_end: float,
    seed: int,
    snapshot_taus=(),
) -> tuple[Population, list[PopulationSnapshot]]:
    """Seeded population: ceil(g0*M) localized at the start, rest delocalized.

    A newly localized particle adopts its localized partner's current u.
    g0 = 1 reduces to run_steady semantics, g0 = 0 stays identically
    delocalized. A run of more than 2 10^7 particles, or one that expects
    more than 10^10 events, M tau_end / 2, is refused before any array is
    made.
    """
    _check_g0(g0)
    if M < 2:  # an event draws two distinct particles
        raise ValueError(f"a population needs at least 2 particles, got {M}")
    if M > _MAX_PARTICLES:
        raise ValueError(f"m_particles={M} is more than {_MAX_PARTICLES:.0e}, the most a run holds")
    _check_span(M, tau_end)
    n0 = int(np.ceil(g0 * M))
    if g0 > 0 and n0 < _MIN_SEEDED:
        raise ValueError(
            f"seeded runs need ceil(g0*M) >= {_MIN_SEEDED} localized particles, got {n0}"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    localized = np.zeros(M, dtype=bool)
    localized[:n0] = True
    u_sync = np.zeros(M)
    if n0:  # u e^{-u}, a gamma(shape 2, scale 1) variate
        u_sync[:n0] = rng.gamma(2.0, 1.0, n0)
    pop = Population(
        seed=seed,
        tau=0.0,
        localized=localized,
        u_sync=u_sync,
        t_sync=np.zeros(M),
    )
    snaps = _advance(pop, rng, tau_end, snapshot_taus)
    return pop, snaps


def _check_span(m: int, tau_end: float) -> None:
    """Refuses a run of m particles from tau = 0 to tau_end that would never
    stop, would run backwards or expects more than _MAX_EVENTS events."""
    if not np.isfinite(tau_end):  # a NaN or infinite end would never stop the loop
        raise ValueError(f"tau_end must be finite, got {tau_end}")
    if tau_end < 0:
        raise ValueError(f"tau_end={tau_end} is before the population time 0.0")
    events = m * tau_end / 2.0
    if events > _MAX_EVENTS:
        raise ValueError(f"tau_end={tau_end} with m_particles={m} expects {events:.3g} "
                         f"events, more than {_MAX_EVENTS:.0e}; use a shorter run")


def _advance(pop: Population, rng: np.random.Generator, tau_end: float,
             snapshot_taus) -> list[PopulationSnapshot]:
    """Event loop core: advances a fresh population, its events drawn from
    rng, to a tau_end that _check_span accepts. Mutates pop in place and
    returns the snapshots.

    While this thread applies one run, the kernel's helper thread prepares
    the next (see _prepare_run); with one usable CPU, or fewer than
    _MIN_LOOKAHEAD_PARTICLES particles, both run here.
    """
    pending = sorted(float(t) for t in snapshot_taus)
    for t in pending:
        if not pop.tau <= t <= tau_end + 1e-12:  # also refuses NaN
            raise ValueError(f"snapshot time {t} outside [{pop.tau}, {tau_end}]")
    snaps: list[PopulationSnapshot] = []
    m = pop.size
    rate = m / 2.0  # each particle takes part in events at rate 1
    snap_i = 0

    def emit(until: int) -> None:
        # Emit the pending snapshots before index until without touching the stream.
        nonlocal snap_i
        sel = pop.localized
        for ts in pending[snap_i:until]:
            u = pop.u_sync[sel] + (ts - pop.t_sync[sel])
            snaps.append(PopulationSnapshot(tau=ts, g_empirical=pop.n_localized / m, u_values=u))
        snap_i = until

    gap = float(_neg_log1p(rng.random(1))[0]) / rate  # the first gap
    pool = _helper() if m >= _MIN_LOOKAHEAD_PARTICLES else None
    # Handed between threads, runs of twice the length overlap better; on one
    # thread the length makes no difference at these sizes.
    run_events = _RUN_EVENTS if pool is None else 2 * _RUN_EVENTS
    prepare = partial(_prepare_run, rng, m, tau_end, pending, run_events)
    parts, cur = prepare(_Cursor(pop.tau, gap, 0))
    n_loc = pop.n_localized
    ahead = None
    try:
        while parts:
            # a run of events ahead goes to the helper, the empty last one need not
            ahead = (pool.submit(prepare, cur)
                     if pool is not None and cur.tau + cur.gap <= tau_end else None)
            for i, j, t, lev, snap_end in parts:
                n_loc += _apply_events(pop, i, j, t, lev, n_loc == m)
                emit(snap_end)
            parts, cur = prepare(cur) if ahead is None else ahead.result()
    finally:
        if ahead is not None:  # a failed apply leaves no run preparing
            wait((ahead,))
    emit(len(pending))
    pop.tau = tau_end
    return snaps


class _Cursor(NamedTuple):
    """Where the event loop stands: the time of the last event, the gap to
    the next one and the index of the next pending snapshot."""

    tau: float
    gap: float
    snap_i: int


def _prepare_run(rng: np.random.Generator, m: int, tau_end: float, pending: list,
                 run_events: int, cur: _Cursor) -> tuple[list, _Cursor]:
    """The next run of at most run_events events from cur, cut into parts,
    and the cursor after it: everything the event loop does but touch the
    Population.

    Once the next event falls past tau_end no part is returned and cur is
    returned as it is, so nothing is drawn. Otherwise the run's last part
    ends at the first event past tau_end, and another part ends at each
    pending snapshot: a snapshot within 1e-12 of an event sees the state
    before it. A part is (i, j, t, lev, snapshot index): its events in
    stream order with their wavefront levels, and the index of the first
    snapshot still pending after it.
    """
    tau, gap, snap_i = cur
    if tau + gap > tau_end:
        return [], cur
    draws = rng.random(3 * run_events).reshape(run_events, 3)
    i = (draws[:, 0] * m).astype(np.int64)
    j = (draws[:, 1] * (m - 1)).astype(np.int64)
    j += j >= i
    gaps = _neg_log1p(draws[:, 2].copy())  # a contiguous copy first saves it time
    gaps *= 1.0 / (m / 2.0)
    # The same left-to-right additions as stepping tau += gap event by event.
    times = np.cumsum(np.concatenate(([tau, gap], gaps[:-1])))[1:]
    n = int(np.searchsorted(times, tau_end, side="right"))
    parts = []
    a = 0
    while True:
        c = n
        if snap_i < len(pending):
            c = a + int(np.searchsorted(times[a:n] + 1e-12, pending[snap_i]))
            while snap_i < len(pending) and c < n and pending[snap_i] <= times[c] + 1e-12:
                snap_i += 1
        parts.append((i[a:c], j[a:c], times[a:c], _wavefront_levels(i[a:c], j[a:c], m), snap_i))
        if c == n:
            break
        a = c
    return parts, _Cursor(float(times[n - 1]), float(gaps[n - 1]), snap_i)


# fdlibm's log1p constants (Sun Microsystems, 1993), as in glibc 2.36
# sysdeps/ieee754/dbl-64/s_log1p.c.
_LN2_HI = 6.93147180369123816490e-01  # 0x3FE62E42 FEE00000
_LN2_LO = 1.90821492927058770002e-10  # 0x3DEA39EF 35793C76
_LP1 = 6.666666666666735130e-01  # 0x3FE55555 55555593
_LP2 = 3.999999999940941908e-01  # 0x3FD99999 9997FA04
_LP3 = 2.857142874366239149e-01  # 0x3FD24924 94229359
_LP4 = 2.222219843214978396e-01  # 0x3FCC71C5 1D8E78AF
_LP5 = 1.818357216161805012e-01  # 0x3FC74664 96CB03DE
_LP6 = 1.531383769920937332e-01  # 0x3FC39A09 D078C69F
_LP7 = 1.479819860511658591e-01  # 0x3FC2F112 DF3E5244
_K0_END = float.fromhex("0x1.2bec4p-2")  # high word 0x3FD2BEC4: below it, f = x and k = 0
_SQRT2_CUT = float.fromhex("0x1.6a09ep-1")  # high word 0x3FE6A09E: 1 + x at or above it is halved


def _neg_log1p(u: np.ndarray) -> np.ndarray:
    """-log1p(-u) for floats u in [0, 1), with the bits of fdlibm's log1p.

    A port of glibc 2.36's s_log1p.c evaluated without fused multiply-add
    (its __log1p_sse2). It is written in the negated quantities f' = -f,
    k' = -k and c' = -c, which round exactly as fdlibm's do. It uses only
    + - * /, frexp and compares, so every IEEE double platform gets the
    same bits. Branches take exact 0.0/1.0 weights; the two rare ones
    (|x| < 2^-29, and the hu == 0 shortcut for |f| < 2^-20) are patched
    per index.
    """
    # fdlibm's 1 + x = 2^k (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)); the arrays
    # k, f and c below hold k' = -k, f' = -f and c' = -c.
    u1 = 1.0 - u
    m, e = np.frexp(u1)  # u1 = m 2^e with m in [1/2, 1)
    low = m < _SQRT2_CUT  # then 1 + f = 2m and k = e - 1, else 1 + f = m and k = e
    k = np.subtract(low, e, dtype=float)
    f = np.add(low, 1.0)
    f *= m
    np.subtract(1.0, f, out=f)
    c = u1 - 1.0  # the rounding error of 1 + x, relative to it
    c += u
    c /= u1
    # Below _K0_END fdlibm takes f = x and k = 0; glibc also drops c wherever k = 0.
    w = np.greater_equal(u, _K0_END).astype(float)
    f *= w
    t = 1.0 - w
    t *= u
    f += t
    k *= w
    np.minimum(k, 1.0, out=t)
    c *= t
    hfsq = 0.5 * f
    hfsq *= f
    s = 2.0 - f
    np.divide(f, s, out=s)
    z = s * s
    z2 = z * z
    z4 = z2 * z2
    # R = z Lp1 + z2 (Lp2 + z Lp3) + z4 (Lp4 + z Lp5) + z6 (Lp6 + z Lp7), in glibc's order.
    r = z * _LP1
    for zp, lo, hi in ((z2, _LP2, _LP3), (z4, _LP4, _LP5), (z4 * z2, _LP6, _LP7)):
        np.multiply(z, hi, out=t)
        t += lo
        t *= zp
        r += t
    # -log1p = k' ln2_hi + ((hfsq + (s' (hfsq + R) + (k' ln2_lo + c'))) + f')
    r += hfsq
    r *= s
    np.multiply(k, _LN2_LO, out=t)
    t += c
    r += t
    r += hfsq
    r += f
    np.multiply(k, _LN2_HI, out=t)
    r += t
    for n in np.flatnonzero(np.abs(f) < 2.0**-19).tolist():  # holds every rare point
        y = _neg_log1p_rare(float(u[n]), float(f[n]), float(k[n]), float(c[n]))
        if y is not None:
            r[n] = y
    return r


def _neg_log1p_rare(u: float, f: float, k: float, c: float) -> float | None:
    """fdlibm's two rare branches at one point, in the negated quantities of
    _neg_log1p; None where its main path holds."""
    if u < 2.0**-29:
        return u if u < 2.0**-54 else u + u * u * 0.5
    if u < _K0_END or not -(2.0**-20) < f <= 1.5 * 2.0**-20:  # hu != 0
        return None
    if f == 0.0:
        return k * _LN2_HI + (c + k * _LN2_LO)
    hfsq = 0.5 * f * f
    r = hfsq * (1.0 + 0.66666666666666666 * f)
    return k * _LN2_HI + ((r + (k * _LN2_LO + c)) + f)


def _wavefront_levels(i: np.ndarray, j: np.ndarray, m: int) -> np.ndarray:
    """Level of each event in a run of n events on particles below m: 1 +
    the highest level among the earlier events of the run that touched
    particle i[k] or j[k].

    Events of one level touch disjoint particles, and every event an event
    depends on lies in a lower level.

    Sorting the keys particle << b | event, with b = bit_length(n - 1)
    event bits, lists each particle's events in stream order; the keys are
    unique since j[k] != i[k]. Where m - 1 fits 32 - b bits (m up to 2^18
    in runs of 16384 events, 2^19 in runs of 8192) the keys are built and
    sorted as 32-bit integers, in half the time of 64-bit ones.
    """
    n = i.size
    bits = (n - 1).bit_length()
    keys = np.empty((2, n), dtype=np.uint32 if (m - 1).bit_length() + bits <= 32 else np.uint64)
    keys[0] = i
    keys[1] = j
    keys <<= bits
    keys |= np.arange(n, dtype=keys.dtype)
    keys = keys.ravel()
    keys.sort()
    particle = keys >> bits
    # Sorted positions whose particle an earlier event of the run touched: the
    # edge enters slot i or slot j of the later event dst.
    later = np.flatnonzero(particle[1:] == particle[:-1]) + 1
    mask = (1 << bits) - 1
    dst = (keys[later] & mask).astype(np.intp)
    # prev[k] and prev[n + k], the earlier events on slots i and j of event k;
    # event n is a level-0 sentinel
    prev = np.full(2 * n, n)
    prev[dst + n * (particle[later] == j[dst])] = keys[later - 1] & mask
    lev = np.ones(n + 1, dtype=np.int64)
    lev[n] = 0
    # Only events with an earlier event on one of their particles can rise.
    dep = np.flatnonzero(np.minimum(prev[:n], prev[n:]) < n)
    prev_i, prev_j = prev[:n][dep], prev[n:][dep]
    while True:
        nxt = np.maximum(lev[prev_i], lev[prev_j]) + 1
        if np.array_equal(nxt, lev[dep]):
            return lev[:n]
        lev[dep] = nxt


def _apply_events(pop: Population, i: np.ndarray, j: np.ndarray, t: np.ndarray, lev: np.ndarray,
                  full: bool) -> int:
    """Apply the events (i[k], j[k]) at times t[k], of wavefront levels
    lev[k], to pop and return the number that localized a particle.

    One stable sort puts the events in level order, and the levels run in
    order, each applied with gathers and scatters on its slice; the
    arithmetic is the scalar rule's, so the floats are the same. full says
    that every particle is localized, so that every event is loc-loc and no
    flag is read.
    """
    # levels are at most the run length, 2 _RUN_EVENTS < 2^16, and on 16-bit
    # keys a stable sort is a radix sort
    order = np.argsort(lev.astype(np.uint16), kind="stable")
    i, j, t = i[order], j[order], t[order]
    bounds = np.cumsum(np.bincount(lev)).tolist()
    u_s, t_s, loc = pop.u_sync, pop.t_sync, pop.localized
    n_ll = n_ld = 0
    for b0, b1 in zip(bounds, bounds[1:]):
        x, y, tl = i[b0:b1], j[b0:b1], t[b0:b1]
        if not full:
            lx, ly = loc[x], loc[y]
            one = lx != ly
            if one.any():
                from_x = lx[one]
                src = np.where(from_x, x[one], y[one])
                dst = np.where(from_x, y[one], x[one])
                ot = tl[one]
                u_s[dst] = u_s[src] + (ot - t_s[src])
                t_s[dst] = ot
                loc[dst] = True
                n_ld += src.size
            both = lx & ly
            x, y, tl = x[both], y[both], tl[both]
        if x.size:
            ux = u_s[x] + (tl - t_s[x])
            uy = u_s[y] + (tl - t_s[y])
            s = ux + uy
            c = np.divide(ux * uy, s, out=np.zeros_like(s), where=s > 0.0)
            u_s[x] = c
            u_s[y] = c
            t_s[x] = tl
            t_s[y] = tl
            n_ll += x.size
    pop.events_loc_loc += n_ll
    pop.events_loc_deloc += n_ld
    pop.events_deloc_deloc += i.size - n_ll - n_ld
    return n_ld

