"""The emulator's original tick loop, kept as a reference oracle.

It tracks a trace cursor, a dict of per-tick ACK lists and per-packet
ACK and RTT columns; ``mdi.linksim.run_simulation`` derives all three.
The differential test in ``test_linksim.py`` requires both to give
identical results, so this loop stays as it was written.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from mdi.controllers import Controller, EpochFeedback
from mdi.linksim import LinkParams, SimResult, SimulationError
from mdi.trainer import EpochLog


def reference_run_simulation(params: LinkParams, controller: Controller) -> SimResult:
    """Run one controller over one link configuration.

    Same params and controller state always produce the same result; the
    only randomness is the loss process, driven by params.seed.
    """
    opp = params.trace.opportunities
    n_opp = int(opp.size)
    wrap_span = int(opp[-1])
    ack_delay = max(2 * params.one_way_prop_ms, 1)
    qcap = params.queue_capacity_pkts
    loss = params.loss_rate
    rng = np.random.default_rng(params.seed) if loss > 0.0 else None

    sent: list[int] = []
    delivered: list[int] = []
    acked: list[int] = []
    rtts: list[int] = []
    dropped: list[bool] = []
    queue: deque[int] = deque()
    ack_at: dict[int, list[int]] = {}
    in_flight = 0
    clamps = 0

    window = 1.0
    epoch_len = 1
    send_cap = 0
    carry = 0.0

    def apply(decision) -> None:
        nonlocal window, epoch_len, send_cap, carry, clamps
        w = float(decision.window_pkts)
        el = int(decision.epoch_len_ms)
        if not math.isfinite(w) or w < 1.0:
            w = 1.0
            clamps += 1
        if el < 1:
            el = 1
            clamps += 1
        window = w
        epoch_len = el
        total = window + carry
        send_cap = int(total)
        carry = total - send_cap

    apply(controller.on_epoch(EpochFeedback(0, 0.0, 0.0, 0, 0)))

    epoch_t: list[int] = []
    epoch_delay: list[float] = []
    epoch_window: list[float] = []
    eidx = 1
    boundary = epoch_len
    ack_sum = 0
    ack_cnt = 0
    min_rtt = -1
    last_mean = 0.0
    any_ack = False
    opp_i = 0
    offset = 0

    for t in range(params.duration_ms):
        arrivals = ack_at.pop(t, None)
        if arrivals is not None:
            for s in arrivals:
                acked[s] = t
                r = t - sent[s]
                rtts[s] = r
                ack_sum += r
                ack_cnt += 1
                if min_rtt < 0 or r < min_rtt:
                    min_rtt = r
            in_flight -= len(arrivals)
            any_ack = True

        if t == boundary:
            if ack_cnt > 0:
                last_mean = ack_sum / ack_cnt
            if any_ack:
                epoch_t.append(t)
                epoch_delay.append(last_mean)
                epoch_window.append(window)
            feedback = EpochFeedback(
                epoch_index=eidx,
                mean_delay_ms=last_mean if any_ack else 0.0,
                min_delay_ms=float(min_rtt) if min_rtt >= 0 else 0.0,
                acked_pkts=ack_cnt,
                now_ms=t,
            )
            apply(controller.on_epoch(feedback))
            ack_sum = 0
            ack_cnt = 0
            eidx += 1
            boundary = t + epoch_len

        while in_flight < send_cap:
            s = len(sent)
            sent.append(t)
            delivered.append(-1)
            acked.append(-1)
            rtts.append(-1)
            if qcap is not None and len(queue) >= qcap:
                # Tail drop; stop bursting into a full buffer this tick.
                dropped.append(True)
                break
            dropped.append(False)
            queue.append(s)
            in_flight += 1

        while True:
            if opp_i == n_opp:
                if wrap_span <= 0:
                    raise SimulationError(
                        "trace exhausted and cannot wrap (last timestamp is 0)"
                    )
                offset += wrap_span
                opp_i = 0
            if opp[opp_i] + offset > t:
                break
            opp_i += 1
            if queue:
                s = queue.popleft()
                if rng is not None and rng.random() < loss:
                    dropped[s] = True
                    in_flight -= 1
                else:
                    delivered[s] = t
                    ack_at.setdefault(t + ack_delay, []).append(s)

    return SimResult(
        epochs=EpochLog(epoch_t, epoch_delay, epoch_window),
        sent_ms=np.array(sent, dtype=np.int64),
        delivered_ms=np.array(delivered, dtype=np.int64),
        acked_ms=np.array(acked, dtype=np.int64),
        rtt_ms=np.array(rtts, dtype=np.int64),
        dropped=np.array(dropped, dtype=bool),
        queued_end_pkts=len(queue),
        clamp_warnings=clamps,
        duration_ms=params.duration_ms,
        mtu_bytes=params.trace.mtu_bytes,
    )
