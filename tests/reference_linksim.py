"""The emulator's original tick loop, its row-at-a-time packet CSV codec
and its row-at-a-time epoch CSV reader, kept as reference oracles.

The tick loop tracks a trace cursor, a dict of per-tick ACK lists and
per-packet ACK and RTT columns; ``mdi.linksim.run_simulation`` derives
all three, and its RTT is ``PacketLog.rtt_ms``. The loop's own RTT
column is returned beside its result, so the differential tests check
that derivation too. The codec and the epoch reader write and parse one
row at a time through the csv module, with per-value ``int``/``float``;
``mdi.linksim`` works on whole columns: the packet codec on the file's
bytes, the epoch reader with one ``np.loadtxt``. The differential tests
in ``test_linksim.py`` and ``test_properties.py`` require both to give
identical results, so this code stays as it was written, except that
the codec and the epoch reader follow each CSV to its one layout, which
states each value once; the epoch reader rejects a ``t_ms`` that is
negative or not above the row before, and a row that ``repr`` of its
own values does not spell exactly; the packet reader rejects a
value outside int64 or a zero-padded field with ValueError, as it does
every other malformed field; and the tick loop logs only the epochs
that carried ACKs, counting the silent ones, whose feedback's mean
delay is 0.0, and counts its tail drops and random-loss drops apart.
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


def reference_run_simulation(
    params: LinkParams, controller: Controller
) -> tuple[SimResult, np.ndarray]:
    """Run one controller over one link configuration; return the result
    and each packet's RTT, -1 if never ACKed.

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
    tail_drops = 0
    loss_drops = 0

    window = 1.0
    epoch_len = 1
    send_cap = 0
    carry = 0.0

    def apply(decision) -> None:
        nonlocal window, epoch_len, send_cap, carry, clamps
        w, el = decision
        w = float(w)
        el = int(el)
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

    apply(controller.on_epoch(EpochFeedback(0.0, 0.0, 0)))

    epoch_t: list[int] = []
    epoch_delay: list[float] = []
    epoch_window: list[float] = []
    boundary = epoch_len
    ack_sum = 0
    ack_cnt = 0
    min_rtt = -1
    silent = 0
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

        if t == boundary:
            mean = 0.0
            if ack_cnt > 0:
                mean = ack_sum / ack_cnt
                epoch_t.append(t)
                epoch_delay.append(mean)
                epoch_window.append(window)
            else:
                silent += 1
            feedback = EpochFeedback(
                mean_delay_ms=mean,
                min_delay_ms=float(min_rtt) if min_rtt >= 0 else 0.0,
                acked_pkts=ack_cnt,
            )
            apply(controller.on_epoch(feedback))
            ack_sum = 0
            ack_cnt = 0
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
                tail_drops += 1
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
                    loss_drops += 1
                    in_flight -= 1
                else:
                    delivered[s] = t
                    ack_at.setdefault(t + ack_delay, []).append(s)

    result = SimResult(
        epochs=EpochLog(epoch_t, epoch_delay, epoch_window),
        sent_ms=np.array(sent, dtype=np.int64),
        delivered_ms=np.array(delivered, dtype=np.int64),
        acked_ms=np.array(acked, dtype=np.int64),
        dropped=np.array(dropped, dtype=bool),
        queued_end_pkts=len(queue),
        tail_drops=tail_drops,
        loss_drops=loss_drops,
        clamp_warnings=clamps,
        silent_epochs=silent,
        duration_ms=params.duration_ms,
        mtu_bytes=params.trace.mtu_bytes,
    )
    return result, np.array(rtts, dtype=np.int64)


def reference_write_packet_csv(log: PacketLog, sink: TextIO) -> None:
    """Packet log as CSV; missing stages are blank, dropped is 0/1."""

    def blank_missing(col: np.ndarray):
        return ("" if v < 0 else v for v in memoryview(col))

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(PACKET_CSV_HEADER)
    writer.writerows(
        zip(
            memoryview(log.sent_ms),
            blank_missing(log.delivered_ms),
            blank_missing(log.acked_ms),
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

    def int64(field: str) -> int:
        if len(field) > 1 and field[0] == "0":
            raise ValueError(f"packet CSV field {field!r} is zero-padded")
        value = int(field)
        if value >= 2**63:
            raise ValueError(f"packet CSV field {field!r} is out of int64 range")
        return value

    cols = sent, delivered, acked, dropped = [array("q") for _ in range(4)]
    for row in csv.reader(body.splitlines()):
        if len(row) != len(PACKET_CSV_HEADER):
            raise ValueError(f"packet CSV row has {len(row)} fields: {row!r}")
        sent.append(int64(row[0]))
        delivered.append(int64(row[1]) if row[1] else -1)
        acked.append(int64(row[2]) if row[2] else -1)
        dropped.append(int64(row[3]))
    sent, delivered, acked, dropped = (np.frombuffer(c, dtype=np.int64) for c in cols)
    problems = {
        "dropped is not 0 or 1": (dropped != 0) & (dropped != 1),
        "ACK without a delivery": (acked >= 0) & (delivered < 0),
        "packet both delivered and dropped": (delivered >= 0) & (dropped == 1),
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
    return PacketLog(sent_ms=sent, delivered_ms=delivered, acked_ms=acked, dropped=dropped == 1)


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
        t, delay, window = row
        if f"{int(t)!r},{float(delay)!r},{float(window)!r}" != ",".join(row):
            raise ValueError(f"epoch CSV row {row!r} is not written as repr writes it")
    cols = list(zip(*rows)) or [()] * len(EPOCH_CSV_HEADER)
    t_ms, delay_ms, window_pkts = cols
    t_ms = [int(x) for x in t_ms]
    prev = -1
    for row, t in enumerate(t_ms):
        if t <= prev:
            raise ValueError(f"epoch CSV row {row}: t_ms is negative or not above the row before")
        prev = t
    return EpochLog(t_ms, [float(x) for x in delay_ms], [float(x) for x in window_pkts])
