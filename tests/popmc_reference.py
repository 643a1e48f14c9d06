"""Dense reference of ``randloc.popmc._advance``: the scalar event loop.

It applies one event per Python iteration on lists of floats, drawing the
indices and the next gap from the block buffer exactly as the stream layout
prescribes. The batched loop applies the same events in wavefront levels
with numpy gathers and scatters, so the two agree bit for bit: final
state, buffer tail, pending gap, counters and every snapshot. Both take
their gaps from ``popmc._neg_log1p``, here applied to each whole buffer.
Tests swap this function in for ``popmc._advance`` to run the public API
on it.
"""

import numpy as np

from randloc import popmc
from randloc.popmc import Population, PopulationSnapshot


def reference_advance(pop: Population, tau_end: float, snapshot_taus) -> list[PopulationSnapshot]:
    """Event loop core. Mutates pop in place and returns the snapshots."""
    if not np.isfinite(tau_end):
        raise ValueError(f"tau_end must be finite, got {tau_end}")
    if tau_end < pop.tau - 1e-12:
        raise ValueError(f"tau_end={tau_end} is before the population time {pop.tau}")
    pending = sorted(float(t) for t in snapshot_taus)
    for t in pending:
        if not pop.tau - 1e-12 <= t <= tau_end + 1e-12:
            raise ValueError(f"snapshot time {t} outside [{pop.tau}, {tau_end}]")
    snaps: list[PopulationSnapshot] = []
    m = pop.size
    rate = (m / 2.0) if pop.pair_rate is None else float(pop.pair_rate)
    if rate < 0.0:
        raise ValueError("pair_rate must be nonnegative")
    block_events = popmc._BLOCK_EVENTS

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
    n_ll = n_ld = n_dd = 0
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
        def refill():
            # -log1p(-u) of every uniform, so a gap is one lookup
            block = rng.random(3 * block_events)
            return block.tolist(), popmc._neg_log1p(block).tolist()

        buf, neg = pop._buffer.tolist(), popmc._neg_log1p(pop._buffer).tolist()
        pos = 0
        gap = pop._pending_gap
        if gap < 0.0:
            if pos + 1 > len(buf):
                buf, neg = refill()
                pos = 0
            gap = neg[pos] / rate
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
                buf, neg = refill()
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
                    n_ll += 1
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
                    n_ld += 1
                    ui = u_s[i] + (tau - t_s[i])
                    if ui > ceiling:
                        overflow += 1
                    u_s[j] = ui if adopt else ui * cap / (ui + cap)
                    t_s[j] = tau
                    loc[j] = 1
                    n_loc += 1
            elif lj:
                n_ld += 1
                uj = u_s[j] + (tau - t_s[j])
                if uj > ceiling:
                    overflow += 1
                u_s[i] = uj if adopt else uj * cap / (uj + cap)
                t_s[i] = tau
                loc[i] = 1
                n_loc += 1
            else:
                n_dd += 1
            # draw the next interarrival with the same block discipline
            if pos + 1 > n_buf:
                buf, neg = refill()
                pos = 0
                n_buf = len(buf)
            gap = neg[pos] * inv_rate
            pos += 1
        pop._buffer = np.asarray(buf[pos:])
        pop._pending_gap = float(gap)

    pop.tau = tau
    pop.u_sync = np.asarray(u_s)
    pop.t_sync = np.asarray(t_s)
    pop.localized = np.asarray(loc, dtype=bool)
    pop.overflow_count += overflow
    pop.events_loc_loc += n_ll
    pop.events_loc_deloc += n_ld
    pop.events_deloc_deloc += n_dd
    return snaps
