"""The emulator's original tick loop, its row-at-a-time packet CSV codec
and its row-at-a-time epoch CSV reader, kept as reference oracles.

The tick loop tracks a trace cursor, a dict of per-tick ACK lists and
per-packet ACK and RTT columns; ``mdi.linksim.run_simulation`` derives
all three. The codec and the epoch reader write and parse one row at a
time through the csv module, with per-value ``int``/``float``;
``mdi.linksim`` formats whole columns and parses each file with one
``np.loadtxt``. The differential tests in ``test_linksim.py`` and
``test_properties.py`` require both to give identical results, so this
code stays as it was written; the epoch reader only follows the epoch
CSV to its one layout of four columns.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import deque
from typing import TextIO

import numpy as np

from mdi.controllers import Controller, EpochFeedback
from mdi.linksim import (
    EPOCH_CSV_HEADER,
    PACKET_CSV_HEADER,
    LinkParams,
    PacketLog,
    SimResult,
    SimulationError,
)
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


def reference_write_packet_csv(log: PacketLog, sink: TextIO) -> None:
    """Packet log as CSV; missing stages are blank, dropped is 0/1."""

    def blank_missing(col: np.ndarray):
        return ("" if v < 0 else v for v in memoryview(col))

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(PACKET_CSV_HEADER)
    writer.writerows(
        zip(
            range(log.sent_ms.size),
            memoryview(log.sent_ms),
            blank_missing(log.delivered_ms),
            blank_missing(log.acked_ms),
            blank_missing(log.rtt_ms),
            memoryview(log.dropped.astype(np.uint8)),
        )
    )


def reference_read_packet_csv(source: TextIO) -> PacketLog:
    """Parse a packet CSV, rejecting rows no run could have written."""
    header, _, body = source.read().partition("\n")
    if next(csv.reader([header]), None) != PACKET_CSV_HEADER:
        raise ValueError(f"unexpected packet CSV header: {header!r}")
    # Missing stages are blank, so no field may carry a minus sign.
    if "-" in body:
        row = body.count("\n", 0, body.index("-"))
        raise ValueError(f"packet CSV row {row}: negative number")
    cols = seq, sent, delivered, acked, rtt, dropped = [array("q") for _ in range(6)]
    for row in csv.reader(body.splitlines()):
        if len(row) != len(PACKET_CSV_HEADER):
            raise ValueError(f"packet CSV row has {len(row)} fields: {row!r}")
        seq.append(int(row[0]))
        sent.append(int(row[1]))
        delivered.append(int(row[2]) if row[2] else -1)
        acked.append(int(row[3]) if row[3] else -1)
        rtt.append(int(row[4]) if row[4] else -1)
        dropped.append(int(row[5]))
    seq, sent, delivered, acked, rtt, dropped = (np.frombuffer(c, dtype=np.int64) for c in cols)
    problems = {
        "seq is not the row number": seq != np.arange(seq.size),
        "dropped is not 0 or 1": (dropped != 0) & (dropped != 1),
        "ACK without a delivery": (acked >= 0) & (delivered < 0),
        "packet both delivered and dropped": (delivered >= 0) & (dropped == 1),
        "rtt_ms is not acked_ms - sent_ms": rtt != np.where(acked >= 0, acked - sent, -1),
        "delivered before it was sent": (delivered >= 0) & (delivered < sent),
    }
    for problem, bad in problems.items():
        if bad.any():
            raise ValueError(f"packet CSV row {int(np.argmax(bad))}: {problem}")
    # The return leg is one constant of at least 1 ms for the whole run.
    ack_delay = (acked - delivered)[acked >= 0]
    bad = (ack_delay != ack_delay[:1]) | (ack_delay < 1)
    if bad.any():
        row = int(np.flatnonzero(acked >= 0)[np.argmax(bad)])
        raise ValueError(f"packet CSV row {row}: ACK delay is not one constant >= 1 ms")
    return PacketLog(
        sent_ms=sent, delivered_ms=delivered, acked_ms=acked, rtt_ms=rtt, dropped=dropped == 1
    )


def reference_read_epoch_csv(source: TextIO) -> EpochLog:
    """Parse an epoch CSV back into a log."""
    reader = csv.reader(source)
    header = next(reader, None)
    if header != EPOCH_CSV_HEADER:
        raise ValueError(f"unexpected epoch CSV header: {header!r}")
    rows = list(reader)
    for row in rows:
        if len(row) != len(EPOCH_CSV_HEADER):
            raise ValueError(f"epoch CSV row has {len(row)} fields: {row!r}")
    cols = list(zip(*rows)) or [()] * len(EPOCH_CSV_HEADER)
    _, t_ms, delay_ms, window_pkts = cols
    return EpochLog(
        [int(x) for x in t_ms],
        [float(x) for x in delay_ms],
        [float(x) for x in window_pkts],
    )
