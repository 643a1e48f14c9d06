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
logistic law up to the finite-M pair-counting factor.

Drift is lazy: each localized particle stores (value, sync time) and is
materialized only when touched by an event, a snapshot, or a checkpoint.

Determinism. All randomness comes from one counter-based Philox stream
keyed by the run seed. Initial values are drawn first, then the event
loop consumes exactly three uniforms per event (interarrival, first index,
second index) drawn in fixed-size blocks. Identical (seed, config) runs
therefore reproduce bit-identical trajectories on a given numpy release.
Checkpoints capture the stream state, the unconsumed tail of the current
block, and the pending interarrival gap, so a resumed run continues
bit-for-bit as if never interrupted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import log1p as _log1p

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
_CHECKPOINT_VERSION = 1


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
    (counted, never dropped). The private fields carry the RNG block
    buffer and the already-drawn gap to the next event so that resumed
    runs are bit-identical to uninterrupted ones.
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
    if entrant_rule not in ("adopt", "capped"):
        raise ValueError(f"unknown entrant rule {entrant_rule!r}")
    if entrant_rule == "capped" and entrant_cap <= 0.0:
        raise ValueError("entrant_cap must be positive")
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
    if tau_end < pop.tau - 1e-12:
        raise ValueError(f"tau_end={tau_end} is before the population time {pop.tau}")
    pending = sorted(float(t) for t in snapshot_taus)
    for t in pending:
        if t < pop.tau - 1e-12 or t > tau_end + 1e-12:
            raise ValueError(f"snapshot time {t} outside [{pop.tau}, {tau_end}]")
    snaps: list[PopulationSnapshot] = []
    m = pop.size
    rate = (m / 2.0) if pop.pair_rate is None else float(pop.pair_rate)
    if rate < 0.0:
        raise ValueError("pair_rate must be nonnegative")

    # Hot loop runs on plain Python floats/lists; numpy arrays are rebuilt at exit.
    u_s = pop.u_sync.tolist()
    t_s = pop.t_sync.tolist()
    loc = pop.localized.astype(np.uint8).tolist()
    n_loc = pop.n_localized
    rng = pop.rng
    adopt = pop.entrant_rule == "adopt"
    cap = pop.entrant_cap
    ceiling = pop.u_ceiling
    overflow = 0
    snap_i = 0
    tau = pop.tau

    n_pending = len(pending)

    def emit_until(limit: float) -> None:
        # Emit every pending snapshot at time <= limit without touching the stream.
        nonlocal snap_i, overflow
        while snap_i < n_pending and pending[snap_i] <= limit + 1e-12:
            ts = pending[snap_i]
            sel = np.asarray(loc, dtype=bool)
            u = np.asarray(u_s)[sel] + (ts - np.asarray(t_s)[sel])
            overflow += int(np.count_nonzero(u > ceiling))
            snaps.append(PopulationSnapshot(tau=ts, g_empirical=n_loc / m, u_values=u))
            snap_i += 1

    if rate == 0.0:
        emit_until(tau_end)
        tau = tau_end
    else:
        buf = pop._buffer.tolist()
        pos = 0
        gap = pop._pending_gap
        if gap < 0.0:
            if pos + 1 > len(buf):
                buf = rng.random(3 * _BLOCK_EVENTS).tolist()
                pos = 0
            gap = -_log1p(-buf[pos]) / rate
            pos += 1
        inv_rate = 1.0 / rate
        m1 = m - 1
        n_buf = len(buf)
        while True:
            t_next = tau + gap
            if t_next > tau_end:
                gap = t_next - tau_end
                emit_until(tau_end)
                tau = tau_end
                break
            if snap_i < n_pending and pending[snap_i] <= t_next + 1e-12:
                emit_until(t_next)
            tau = t_next
            if pos + 2 > n_buf:
                buf = rng.random(3 * _BLOCK_EVENTS).tolist()
                pos = 0
                n_buf = len(buf)
            i = int(buf[pos] * m)
            j = int(buf[pos + 1] * m1)
            pos += 2
            if j >= i:
                j += 1
            li = loc[i]
            lj = loc[j]
            if li:
                if lj:
                    ui = u_s[i] + (tau - t_s[i])
                    uj = u_s[j] + (tau - t_s[j])
                    if ui > ceiling:
                        overflow += 1
                    if uj > ceiling:
                        overflow += 1
                    s = ui + uj
                    c = ui * uj / s if s > 0.0 else 0.0
                    u_s[i] = c
                    u_s[j] = c
                    t_s[i] = tau
                    t_s[j] = tau
                else:
                    ui = u_s[i] + (tau - t_s[i])
                    if ui > ceiling:
                        overflow += 1
                    u_s[j] = ui if adopt else ui * cap / (ui + cap)
                    t_s[j] = tau
                    loc[j] = 1
                    n_loc += 1
            elif lj:
                uj = u_s[j] + (tau - t_s[j])
                if uj > ceiling:
                    overflow += 1
                u_s[i] = uj if adopt else uj * cap / (uj + cap)
                t_s[i] = tau
                loc[i] = 1
                n_loc += 1
            # draw the next interarrival with the same block discipline
            if pos + 1 > n_buf:
                buf = rng.random(3 * _BLOCK_EVENTS).tolist()
                pos = 0
                n_buf = len(buf)
            gap = -_log1p(-buf[pos]) * inv_rate
            pos += 1
        pop._buffer = np.asarray(buf[pos:])
        pop._pending_gap = float(gap)

    pop.tau = tau
    pop.u_sync = np.asarray(u_s)
    pop.t_sync = np.asarray(t_s)
    pop.localized = np.asarray(loc, dtype=bool)
    pop.overflow_count += overflow
    return snaps


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
        overflow_count=np.int64(pop.overflow_count),
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
    """Rebuild a resumable Population from a checkpoint file."""
    with np.load(path, allow_pickle=False) as z:
        version = int(z["version"])
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        state = json.loads(str(z["rng_state"]))
        rng = np.random.Generator(np.random.Philox())
        rng.bit_generator.state = state
        pr = float(z["pair_rate"])
        return Population(
            seed=int(z["seed"]),
            tau=float(z["tau"]),
            localized=z["localized"].astype(bool),
            u_sync=z["u_sync"].astype(float),
            t_sync=z["t_sync"].astype(float),
            entrant_rule=str(z["entrant_rule"]),
            entrant_cap=float(z["entrant_cap"]),
            pair_rate=None if pr < 0.0 else pr,
            u_ceiling=float(z["u_ceiling"]),
            overflow_count=int(z["overflow_count"]),
            rng=rng,
            _buffer=z["buffer"].astype(float),
            _pending_gap=float(z["pending_gap"]),
        )
