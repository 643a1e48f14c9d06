"""Event-driven population Monte Carlo for the localization process.

A population of M particles is either delocalized or localized with a
dimensionless squared length u >= 0. Localized values grow at unit rate
between events. Pair events arrive as a Poisson stream of total rate M/2
(so each particle is involved at rate 1); at each event an unordered
distinct pair is drawn uniformly and

    (localized, localized)    both members become combine(u_i, u_j),
    (localized, delocalized)  the delocalized member localizes; by default
                              it adopts the partner's current u, which is
                              combine(u, infinity) under the extended-value
                              convention,
    (delocalized, delocalized) nothing happens.

Expected-fraction bookkeeping then gives dg/dtau = g(1-g) * M/(M-1), the
logistic law up to the finite-M pair-counting factor. Population counts
each kind of event: loc-deloc events are exactly the localizations, and a
fully localized population sees only loc-loc ones.

Drift is lazy: each localized particle stores (value, sync time) and is
materialized only when touched by an event, a snapshot, or a checkpoint.

Determinism. All randomness comes from one counter-based Philox stream
keyed by the run seed. Initial values are drawn first; then the event
loop draws uniforms in blocks of 3 * _BLOCK_EVENTS. The first gap of a
fresh population is one uniform (scaled by / rate); after it each event
consumes a triple (first index, second index, next gap), the gap scaled
by * (1 / rate). A refill before the indices drops a tail of fewer than
two uniforms; a gap is drawn from a refill only once the block is used
up, so nothing is dropped there. Identical (seed, config) runs
therefore reproduce bit-identical trajectories on every platform that
rounds doubles to IEEE 754 (see Gaps below). Checkpoints capture the
stream state, the unconsumed tail of the current block, the pending
interarrival gap and the event counters, so a resumed run continues
bit-for-bit as if never interrupted.

Wavefront schedule. The loop takes a block's triples as arrays, at most
_RUN_EVENTS at a time (a run), and gets the event times from one
cumulative sum seeded with the current time, which performs the same
left-to-right additions as stepping event by event. It cuts the run at the
first event past tau_end and at each pending snapshot. Within a run every
event gets a wavefront level, one more than the highest level of the
earlier events that touched either of its particles. Events of one level
touch disjoint particles and depend only on lower levels, so each level is
applied with numpy gathers and scatters and yields the floats and counts
of the one-event-at-a-time rule (kept as the dense reference in the
tests).

Gaps. A gap is -log1p(-u) / rate, and a last-bit change in one gap moves
every later event time. Neither math.log1p nor np.log1p fixes those bits:
glibc picks an FMA or an SSE2 log1p by CPU feature (they differ on about
4e-4 of uniforms), and numpy picks a SIMD one. _neg_log1p is fdlibm's
log1p, as glibc's non-FMA variant evaluates it, written with numpy's
IEEE + - * /, frexp and compares only, so the gaps have the same bits on
every platform, and a whole run's gaps cost a few dozen array passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .udist import UDensity, UGrid

__all__ = [
    "Population",
    "PopulationSnapshot",
    "run_steady",
    "run_transient",
    "resume",
    "empirical_density",
    "ks_distance",
    "sample_from_density",
    "save_checkpoint",
    "load_checkpoint",
]

_MIN_STEADY = 1000
_MIN_SEEDED = 10
_BLOCK_EVENTS = 1 << 15
_RUN_EVENTS = 1 << 13  # events per wavefront run; keeps a run's temporaries in cache
_CHECKPOINT_VERSION = 3
_ENTRANT_RULES = ("adopt", "capped")
_COUNTERS = ("overflow_count", "events_loc_loc", "events_loc_deloc", "events_deloc_deloc")


@dataclass(eq=False)
class PopulationSnapshot:
    """State summary at one time: empirical fraction and localized values."""

    tau: float
    g_empirical: float
    u_values: np.ndarray


@dataclass(eq=False)
class Population:
    """Particle states plus everything needed to continue the run.

    u_sync[i] is particle i's value at its private sync time t_sync[i];
    its current value is u_sync[i] + (tau - t_sync[i]). localized marks
    live entries; delocalized slots keep stale numbers that must never be
    read. overflow_count records materialized values above u_ceiling
    (counted, never dropped); events_loc_loc, events_loc_deloc and
    events_deloc_deloc count the events of each kind. The private fields
    carry the RNG block buffer and the already-drawn gap to the next event
    so that resumed runs are bit-identical to uninterrupted ones.
    """

    seed: int
    tau: float
    localized: np.ndarray
    u_sync: np.ndarray
    t_sync: np.ndarray
    entrant_rule: str = "adopt"
    entrant_cap: float = 100.0
    pair_rate: float | None = None
    u_ceiling: float = 1e9
    overflow_count: int = 0
    events_loc_loc: int = 0
    events_loc_deloc: int = 0
    events_deloc_deloc: int = 0
    rng: np.random.Generator | None = None
    _buffer: np.ndarray = field(default_factory=lambda: np.empty(0))
    _pending_gap: float = -1.0  # time from self.tau to the next event; < 0 if not drawn

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


def _new_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_from_density(density: UDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from a grid density.

    The cumulative is the same piecewise-linear interpolant of the
    trapezoid prefix integrals that ks_distance uses for its reference,
    so samples drawn here score KS ~ O(n^-1/2) against the density with
    no discretization offset.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    cdf = _reference_cdf_table(density)
    u = rng.random(n)
    return np.interp(u * cdf[-1], cdf, density.grid.nodes())


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


def _draw_init_values(init: UDensity | None, n: int, rng: np.random.Generator) -> np.ndarray:
    # Default start: u e^{-u}, i.e. a gamma(shape 2, scale 1) variate.
    if init is None:
        return rng.gamma(2.0, 1.0, size=n)
    return sample_from_density(init, n, rng)


def _check_positive_finite(name: str, value: float) -> None:
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def run_steady(
    M: int,
    tau_end: float,
    seed: int,
    snapshot_taus=(),
    *,
    init: UDensity | None = None,
    pair_rate: float | None = None,
    u_ceiling: float = 1e9,
) -> tuple[Population, list[PopulationSnapshot]]:
    """Fully localized population (g = 1) advanced to tau_end.

    Initial values are drawn from init (default u e^{-u}). pair_rate
    overrides the default total event rate M/2; rate 0 turns events off
    entirely (drift-only test hook). Snapshots never perturb the event
    sequence.
    """
    if M < _MIN_STEADY:
        raise ValueError(f"steady runs need at least {_MIN_STEADY} particles, got {M}")
    _check_positive_finite("u_ceiling", u_ceiling)
    rng = _new_rng(seed)
    pop = Population(
        seed=seed,
        tau=0.0,
        localized=np.ones(M, dtype=bool),
        u_sync=_draw_init_values(init, M, rng),
        t_sync=np.zeros(M),
        pair_rate=pair_rate,
        u_ceiling=u_ceiling,
        rng=rng,
    )
    snaps = _advance(pop, tau_end, snapshot_taus)
    return pop, snaps


def run_transient(
    M: int,
    g0: float,
    tau_end: float,
    seed: int,
    entrant_rule: str = "adopt",
    snapshot_taus=(),
    *,
    init: UDensity | None = None,
    entrant_cap: float = 100.0,
    pair_rate: float | None = None,
    u_ceiling: float = 1e9,
) -> tuple[Population, list[PopulationSnapshot]]:
    """Seeded population: ceil(g0*M) localized at the start, rest delocalized.

    entrant_rule fixes the value a newly localized particle receives from
    its localized partner u: "adopt" copies u; "capped" uses the harmonic
    combination of u with entrant_cap. g0 = 1 reduces to run_steady
    semantics, g0 = 0 stays identically delocalized.
    """
    if not 0.0 <= g0 <= 1.0:
        raise ValueError(f"g0 must lie in [0, 1], got {g0}")
    if entrant_rule not in _ENTRANT_RULES:
        raise ValueError(f"unknown entrant rule {entrant_rule!r}")
    if entrant_rule == "capped":
        _check_positive_finite("entrant_cap", entrant_cap)
    _check_positive_finite("u_ceiling", u_ceiling)
    n0 = int(np.ceil(g0 * M))
    if g0 > 0 and n0 < _MIN_SEEDED:
        raise ValueError(
            f"seeded runs need ceil(g0*M) >= {_MIN_SEEDED} localized particles, got {n0}"
        )
    rng = _new_rng(seed)
    localized = np.zeros(M, dtype=bool)
    localized[:n0] = True
    u_sync = np.zeros(M)
    if n0:
        u_sync[:n0] = _draw_init_values(init, n0, rng)
    pop = Population(
        seed=seed,
        tau=0.0,
        localized=localized,
        u_sync=u_sync,
        t_sync=np.zeros(M),
        entrant_rule=entrant_rule,
        entrant_cap=entrant_cap,
        pair_rate=pair_rate,
        u_ceiling=u_ceiling,
        rng=rng,
    )
    snaps = _advance(pop, tau_end, snapshot_taus)
    return pop, snaps


def resume(pop: Population, tau_end: float, snapshot_taus=()) -> list[PopulationSnapshot]:
    """Continue a population (fresh or loaded from checkpoint) to tau_end."""
    if pop.rng is None:
        raise ValueError("population carries no generator; load a checkpoint first")
    return _advance(pop, tau_end, snapshot_taus)


def _advance(pop: Population, tau_end: float, snapshot_taus) -> list[PopulationSnapshot]:
    """Event loop core. Mutates pop in place and returns the snapshots."""
    if not np.isfinite(tau_end):  # a NaN or infinite end would never stop the loop
        raise ValueError(f"tau_end must be finite, got {tau_end}")
    if tau_end < pop.tau - 1e-12:
        raise ValueError(f"tau_end={tau_end} is before the population time {pop.tau}")
    pending = sorted(float(t) for t in snapshot_taus)
    for t in pending:
        if not pop.tau - 1e-12 <= t <= tau_end + 1e-12:  # also refuses NaN
            raise ValueError(f"snapshot time {t} outside [{pop.tau}, {tau_end}]")
    snaps: list[PopulationSnapshot] = []
    m = pop.size
    rate = (m / 2.0) if pop.pair_rate is None else float(pop.pair_rate)
    if not 0.0 <= rate < np.inf:
        raise ValueError(f"pair_rate must be nonnegative and finite, got {rate}")

    # Events scatter into private copies; the caller's arrays are replaced, not mutated.
    pop.u_sync = np.array(pop.u_sync, dtype=float)
    pop.t_sync = np.array(pop.t_sync, dtype=float)
    pop.localized = np.array(pop.localized, dtype=bool)
    snap_i = 0
    n_pending = len(pending)

    def emit_until(limit: float) -> None:
        # Emit every pending snapshot at time <= limit without touching the stream.
        nonlocal snap_i
        while snap_i < n_pending and pending[snap_i] <= limit + 1e-12:
            ts = pending[snap_i]
            sel = pop.localized
            u = pop.u_sync[sel] + (ts - pop.t_sync[sel])
            pop.overflow_count += int(np.count_nonzero(u > pop.u_ceiling))
            snaps.append(PopulationSnapshot(tau=ts, g_empirical=pop.n_localized / m, u_values=u))
            snap_i += 1

    if rate > 0.0:
        rng = pop.rng
        block = 3 * _BLOCK_EVENTS
        buf = pop._buffer
        pos = 0
        gap = pop._pending_gap
        if gap < 0.0:  # a fresh population's first gap
            if buf.size == 0:
                buf = rng.random(block)
            gap = float(_neg_log1p(buf[:1])[0]) / rate
            pos = 1
        inv_rate = 1.0 / rate
        tau = pop.tau
        while True:
            t_next = tau + gap
            if t_next > tau_end:
                break
            if buf.size - pos < 3:
                # A refill drops a tail too short for the indices; a tail of two
                # holds the indices of the event whose gap opens the new block.
                tail = buf[pos:] if buf.size - pos == 2 else buf[:0]
                buf = np.concatenate((tail, rng.random(block)))
                pos = 0
            k = min((buf.size - pos) // 3, _RUN_EVENTS)
            draws = buf[pos : pos + 3 * k].reshape(k, 3)
            i = (draws[:, 0] * m).astype(np.int64)
            j = (draws[:, 1] * (m - 1)).astype(np.int64)
            j += j >= i
            gaps = _neg_log1p(draws[:, 2])
            gaps *= inv_rate
            # The same left-to-right additions as stepping tau += gap event by event.
            times = np.cumsum(np.concatenate(([tau, gap], gaps[:-1])))[1:]
            n = int(np.searchsorted(times, tau_end, side="right"))
            a = 0
            while True:  # a snapshot within 1e-12 of an event sees the state before it
                c = n
                if snap_i < n_pending:
                    c = a + int(np.searchsorted(times[a:n] + 1e-12, pending[snap_i]))
                _apply_events(pop, i[a:c], j[a:c], times[a:c])
                if c == n:
                    break
                emit_until(times[c])
                a = c
            tau = float(times[n - 1])
            gap = float(gaps[n - 1])
            pos += 3 * n
        pop._buffer = buf[pos:].copy()
        pop._pending_gap = float(t_next - tau_end)
    emit_until(tau_end)
    pop.tau = tau_end
    return snaps


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


def _wavefront_levels(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Level of each event in a run: 1 + the highest level among the earlier
    events of the run that touched particle i[k] or j[k].

    Events of one level touch disjoint particles, and every event an event
    depends on lies in a lower level.
    """
    n = i.size
    bits = (2 * n - 1).bit_length()
    touched = np.empty(2 * n, dtype=np.int64)
    touched[0::2] = i
    touched[1::2] = j
    # Sorting (particle, slot) keys lists each particle's slots in stream order.
    keys = np.sort((touched << bits) | np.arange(2 * n))
    slot = keys & ((1 << bits) - 1)
    same = (keys[1:] >> bits) == (keys[:-1] >> bits)
    prev = np.full(2 * n, n)  # event n is a level-0 sentinel
    prev[slot[1:][same]] = slot[:-1][same] >> 1
    lev = np.ones(n + 1, dtype=np.int64)
    lev[n] = 0
    # Only events with an earlier event on one of their particles can rise.
    dep = np.flatnonzero(np.minimum(prev[0::2], prev[1::2]) < n)
    prev_i, prev_j = prev[0::2][dep], prev[1::2][dep]
    while True:
        nxt = np.maximum(lev[prev_i], lev[prev_j]) + 1
        if np.array_equal(nxt, lev[dep]):
            return lev[:n]
        lev[dep] = nxt


def _apply_events(pop: Population, i: np.ndarray, j: np.ndarray, t: np.ndarray) -> None:
    """Apply the events (i[k], j[k]) at times t[k], in stream order, to pop.

    Levels run in order and each is applied with gathers and scatters; the
    arithmetic is the scalar rule's, so the floats are the same.
    """
    if i.size == 0:
        return
    lev = _wavefront_levels(i, j)
    u_s, t_s, loc = pop.u_sync, pop.t_sync, pop.localized
    ceiling, cap = pop.u_ceiling, pop.entrant_cap
    adopt = pop.entrant_rule == "adopt"
    overflow = n_ll = n_ld = 0
    for level in range(1, int(lev.max()) + 1):
        sel = np.flatnonzero(lev == level)  # the order within a level does not matter
        x, y, tl = i[sel], j[sel], t[sel]
        lx, ly = loc[x], loc[y]
        both = lx & ly
        if both.any():
            bx, by, bt = x[both], y[both], tl[both]
            ux = u_s[bx] + (bt - t_s[bx])
            uy = u_s[by] + (bt - t_s[by])
            overflow += int(np.count_nonzero(ux > ceiling)) + int(np.count_nonzero(uy > ceiling))
            s = ux + uy
            c = np.divide(ux * uy, s, out=np.zeros_like(s), where=s > 0.0)
            u_s[bx] = c
            u_s[by] = c
            t_s[bx] = bt
            t_s[by] = bt
            n_ll += bx.size
        one = lx != ly
        if one.any():
            from_x = lx[one]
            src = np.where(from_x, x[one], y[one])
            dst = np.where(from_x, y[one], x[one])
            ot = tl[one]
            us = u_s[src] + (ot - t_s[src])
            overflow += int(np.count_nonzero(us > ceiling))
            u_s[dst] = us if adopt else us * cap / (us + cap)
            t_s[dst] = ot
            loc[dst] = True
            n_ld += src.size
    pop.overflow_count += overflow
    pop.events_loc_loc += n_ll
    pop.events_loc_deloc += n_ld
    pop.events_deloc_deloc += i.size - n_ll - n_ld


def save_checkpoint(pop: Population, path) -> None:
    """Binary checkpoint (versioned npz) of the full resumable state."""
    if pop.rng is None:
        raise ValueError("population carries no generator state to save")
    state = json.dumps(pop.rng.bit_generator.state, default=_json_np)
    np.savez(
        path,
        version=np.int64(_CHECKPOINT_VERSION),
        seed=np.int64(pop.seed),
        tau=np.float64(pop.tau),
        localized=pop.localized,
        u_sync=pop.u_sync,
        t_sync=pop.t_sync,
        entrant_rule=np.str_(pop.entrant_rule),
        entrant_cap=np.float64(pop.entrant_cap),
        pair_rate=np.float64(-1.0 if pop.pair_rate is None else pop.pair_rate),
        u_ceiling=np.float64(pop.u_ceiling),
        **{name: np.int64(getattr(pop, name)) for name in _COUNTERS},
        rng_state=np.str_(state),
        buffer=pop._buffer,
        pending_gap=np.float64(pop._pending_gap),
    )


def _json_np(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def load_checkpoint(path) -> Population:
    """Rebuild a resumable Population from a checkpoint file.

    Every field is checked before the population is built; a missing,
    mistyped, non-finite or inconsistent one raises ValueError naming it.
    """
    with np.load(path, allow_pickle=False) as z:
        version = int(z["version"])
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        f = {name: z[name] for name in z.files}
    _check_checkpoint(f)
    rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = json.loads(str(f["rng_state"]))
    pr = float(f["pair_rate"])
    return Population(
        seed=int(f["seed"]),
        tau=float(f["tau"]),
        localized=f["localized"],
        u_sync=f["u_sync"],
        t_sync=f["t_sync"],
        entrant_rule=str(f["entrant_rule"]),
        entrant_cap=float(f["entrant_cap"]),
        pair_rate=None if pr < 0.0 else pr,
        u_ceiling=float(f["u_ceiling"]),
        **{name: int(f[name]) for name in _COUNTERS},
        rng=rng,
        _buffer=f["buffer"],
        _pending_gap=float(f["pending_gap"]),
    )


def _check_checkpoint(f: dict) -> None:
    missing = sorted(
        {"seed", "tau", "localized", "u_sync", "t_sync", "entrant_rule", "entrant_cap",
         "pair_rate", "u_ceiling", "rng_state", "buffer", "pending_gap", *_COUNTERS} - f.keys()
    )
    if missing:
        raise ValueError(f"checkpoint lacks {', '.join(missing)}")
    for name, dtype in (("localized", np.bool_), ("u_sync", np.float64),
                        ("t_sync", np.float64), ("buffer", np.float64)):
        if f[name].dtype != dtype or f[name].ndim != 1:
            raise ValueError(
                f"checkpoint {name} must be a 1-d {np.dtype(dtype)} array, "
                f"got {f[name].ndim}-d {f[name].dtype}"
            )
    m = f["localized"].size
    for name in ("u_sync", "t_sync"):
        if f[name].size != m:
            raise ValueError(f"checkpoint {name} has {f[name].size} entries, localized has {m}")
    for name in ("tau", "pending_gap", "entrant_cap", "pair_rate"):
        if not np.isfinite(f[name]):
            raise ValueError(f"checkpoint {name} is not finite")
    for name in ("u_sync", "t_sync"):
        if not np.all(np.isfinite(f[name][f["localized"]])):
            raise ValueError(f"checkpoint {name} holds a non-finite localized value")
    if str(f["entrant_rule"]) not in _ENTRANT_RULES:
        raise ValueError(f"checkpoint entrant_rule {str(f['entrant_rule'])!r} is unknown")
    # the guards of run_steady and run_transient
    if str(f["entrant_rule"]) == "capped":
        _check_positive_finite("checkpoint entrant_cap", float(f["entrant_cap"]))
    _check_positive_finite("checkpoint u_ceiling", float(f["u_ceiling"]))
    if not np.all((f["buffer"] >= 0.0) & (f["buffer"] < 1.0)):
        raise ValueError("checkpoint buffer holds a value outside [0, 1)")
    for name in _COUNTERS:
        if int(f[name]) < 0:
            raise ValueError(f"checkpoint {name} is negative")
