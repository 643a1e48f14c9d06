"""Dense reference of ``randloc.popmc._advance``: the scalar event loop.

It applies one event per Python iteration on lists of floats, drawing the
first gap and then a triple an event (first index, second index, next
gap) from the Philox stream, in chunks of its own size: the stream gives
the same uniforms however its draws are split. The batched loop applies
the same events in wavefront levels with numpy gathers and scatters, so
the two agree bit for bit: final state, counters and every snapshot. Both
take their gaps from ``popmc._neg_log1p``, here applied to each whole
chunk. Tests swap this function in for ``popmc._advance`` to run the
public API on it.
"""

import numpy as np

from randloc import popmc
from randloc.popmc import Population, PopulationSnapshot

_CHUNK_EVENTS = 5000  # events a draw; any size gives the same uniforms


def reference_advance(pop: Population, rng: np.random.Generator, tau_end: float,
                      snapshot_taus) -> list[PopulationSnapshot]:
    """Event loop core for a fresh population. Mutates pop in place and
    returns the snapshots."""
    pending = sorted(float(t) for t in snapshot_taus)
    for t in pending:
        if not pop.tau <= t <= tau_end + 1e-12:
            raise ValueError(f"snapshot time {t} outside [{pop.tau}, {tau_end}]")
    snaps: list[PopulationSnapshot] = []
    m = pop.size
    rate = m / 2.0

    # Hot loop runs on plain Python floats/lists; numpy arrays are rebuilt at exit.
    u_s = pop.u_sync.tolist()
    t_s = pop.t_sync.tolist()
    loc = pop.localized.astype(np.uint8).tolist()
    n_loc = pop.n_localized
    n_ll = n_ld = n_dd = 0
    snap_i = 0
    tau = pop.tau

    n_pending = len(pending)

    def emit_until(limit: float) -> None:
        # Emit every pending snapshot at time <= limit without touching the stream.
        nonlocal snap_i
        while snap_i < n_pending and pending[snap_i] <= limit + 1e-12:
            ts = pending[snap_i]
            sel = np.asarray(loc, dtype=bool)
            u = np.asarray(u_s)[sel] + (ts - np.asarray(t_s)[sel])
            snaps.append(PopulationSnapshot(tau=ts, g_empirical=n_loc / m, u_values=u))
            snap_i += 1

    def draw_chunk():
        # -log1p(-u) of every uniform, so a gap is one lookup
        chunk = rng.random(3 * _CHUNK_EVENTS)
        return chunk.tolist(), popmc._neg_log1p(chunk).tolist()

    buf, neg = draw_chunk()
    gap = neg[0] / rate
    pos = 1
    inv_rate = 1.0 / rate
    m1 = m - 1
    n_buf = len(buf)
    while True:
        t_next = tau + gap
        if t_next > tau_end:
            emit_until(tau_end)
            tau = tau_end
            break
        if snap_i < n_pending and pending[snap_i] <= t_next + 1e-12:
            emit_until(t_next)
        tau = t_next
        # the indices always fit: each chunk opens with a gap, so it ends with the
        # indices of the event whose gap opens the next
        i = int(buf[pos] * m)
        j = int(buf[pos + 1] * m1)
        pos += 2
        if j >= i:
            j += 1
        li = loc[i]
        lj = loc[j]
        if li:
            if lj:
                n_ll += 1
                ui = u_s[i] + (tau - t_s[i])
                uj = u_s[j] + (tau - t_s[j])
                s = ui + uj
                c = ui * uj / s if s > 0.0 else 0.0
                u_s[i] = c
                u_s[j] = c
                t_s[i] = tau
                t_s[j] = tau
            else:
                n_ld += 1
                u_s[j] = u_s[i] + (tau - t_s[i])
                t_s[j] = tau
                loc[j] = 1
                n_loc += 1
        elif lj:
            n_ld += 1
            u_s[i] = u_s[j] + (tau - t_s[j])
            t_s[i] = tau
            loc[i] = 1
            n_loc += 1
        else:
            n_dd += 1
        # the next interarrival, from a new chunk once this one is used up
        if pos + 1 > n_buf:
            buf, neg = draw_chunk()
            pos = 0
            n_buf = len(buf)
        gap = neg[pos] * inv_rate
        pos += 1

    pop.tau = tau
    pop.u_sync = np.asarray(u_s)
    pop.t_sync = np.asarray(t_s)
    pop.localized = np.asarray(loc, dtype=bool)
    pop.events_loc_loc += n_ll
    pop.events_loc_deloc += n_ld
    pop.events_deloc_deloc += n_dd
    return snaps
