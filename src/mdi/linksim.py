"""Trace-driven bottleneck link emulation.

The link advances in 1 ms ticks. Each tick, in order: ACKs due this tick
arrive at the sender, an epoch boundary (if due) feeds the controller and
applies its decision, the sender transmits while in-flight is below the
current window, and finally each delivery opportunity in this ms serves
the head of the drop-tail queue. Opportunities per ms are counted once,
before the run, from the trace replayed shifted by its last timestamp;
unused ones are wasted, which makes the trace a capacity ceiling.

Each tick costs a few steps, not a few per packet it moves. All
packets sent in one tick share a send time, service is FIFO, and an ACK
returns a constant 2 * one-way propagation (at least 1 ms) after
delivery, so the ACKs arriving at tick t are exactly the packets served
without loss at tick t - ack_delay. The loop therefore keeps running
totals, one entry per tick: packets queued, packets served without loss
and the sum of their queueing waits. In-flight is every packet queued
so far minus the lost and the ACKed ones; an epoch's ACK count and RTT
sum are differences of two reads at its boundaries; the minimum RTT is
the return leg plus the least wait served so far. Sends and services
are one batch each per tick, and random loss is drawn a block at a time
in service order. The packet columns (send, delivery, ACK and RTT
times, drop flags) are rebuilt from the per-tick counts once the run
ends.

Windows may be fractional; the integer send cap floors the running value
and carries the remainder into the next epoch. Random loss, when enabled,
strikes packets at service time and the sender notices immediately (no
retransmissions; lost packets simply leave the in-flight budget).

A packet log is five columns (send, delivery, ACK and RTT times, -1 for
a stage never reached, and a drop flag); summarize() is the one
definition of a run's throughput and delay. Packet and epoch logs both
have a CSV form here, written a column at a time and read by one
checked np.loadtxt whose errors name the body row. The packet CSV holds
only digits, commas and newlines, with a blank for -1. The epoch CSV has
one layout for every controller, the epoch index and the log's three
columns, and adds the '.', 'e', '+' and '-' of repr'd floats.
"""

from __future__ import annotations

import io
import math
import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, TextIO

import numpy as np

from .controllers import Controller, EpochFeedback
from .trace import LinkTrace
from .trainer import COLUMN_DTYPES, EpochLog


# Loss draws are taken this many at a time; rng.random(n) gives the same
# doubles as n single draws.
_LOSS_BLOCK = 4096


class SimulationError(RuntimeError):
    """The simulation cannot proceed (e.g. unwrappable trace)."""


@dataclass(frozen=True)
class LinkParams:
    """One simulation's link configuration."""

    trace: LinkTrace
    one_way_prop_ms: int = 10
    queue_capacity_pkts: Optional[int] = None
    loss_rate: float = 0.0
    seed: int = 0
    duration_ms: int = 60_000

    def __post_init__(self) -> None:
        if self.one_way_prop_ms < 0:
            raise ValueError(f"one_way_prop_ms must be >= 0, got {self.one_way_prop_ms}")
        if self.queue_capacity_pkts is not None and self.queue_capacity_pkts < 1:
            raise ValueError("queue_capacity_pkts must be >= 1 or None")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.duration_ms < 1:
            raise ValueError(f"duration_ms must be >= 1, got {self.duration_ms}")


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    p25: float
    p50: float
    p75: float


@dataclass(frozen=True)
class SimSummary:
    throughput_mbps: SummaryStats
    delay_ms: SummaryStats


def _stats(values: np.ndarray) -> SummaryStats:
    if values.size == 0:
        return SummaryStats(0.0, 0.0, 0.0, 0.0)
    p25, p50, p75 = np.percentile(values, [25.0, 50.0, 75.0])
    return SummaryStats(float(values.mean()), float(p25), float(p50), float(p75))


def per_second_mbps(
    delivered_ms: np.ndarray, duration_ms: int, mtu_bytes: int
) -> np.ndarray:
    """Throughput in each whole second of a run, from its delivery times.

    A partial last second is left out. A run shorter than one second
    gets a single rate over its whole length.
    """
    n_sec = duration_ms // 1000
    pkt_mbits = mtu_bytes * 8.0 / 1e6
    if n_sec < 1:
        return np.array([delivered_ms.size * pkt_mbits / (duration_ms / 1000.0)])
    in_full = delivered_ms[delivered_ms < n_sec * 1000]
    counts = np.bincount(in_full // 1000, minlength=n_sec)[:n_sec]
    return counts.astype(np.float64) * pkt_mbits


@dataclass(frozen=True, eq=False)
class PacketLog:
    """Columnar packet log; -1 marks a stage the packet never reached."""

    sent_ms: np.ndarray
    delivered_ms: np.ndarray
    acked_ms: np.ndarray
    rtt_ms: np.ndarray
    dropped: np.ndarray

    @property
    def sent_pkts(self) -> int:
        return int(self.sent_ms.size)

    @property
    def delivered_pkts(self) -> int:
        return int(np.count_nonzero(self.delivered_ms >= 0))

    @property
    def dropped_pkts(self) -> int:
        return int(np.count_nonzero(self.dropped))


def summarize(log: PacketLog, duration_ms: int, mtu_bytes: int) -> SimSummary:
    """Per-second throughput and per-packet RTT statistics of one run."""
    if duration_ms < 1 or mtu_bytes < 1:
        raise ValueError(f"need duration_ms, mtu_bytes >= 1, got {duration_ms}, {mtu_bytes}")
    delivered = log.delivered_ms[log.delivered_ms >= 0]
    tput = per_second_mbps(delivered, duration_ms, mtu_bytes)
    rtts = log.rtt_ms[log.rtt_ms >= 0].astype(np.float64)
    return SimSummary(throughput_mbps=_stats(tput), delay_ms=_stats(rtts))


@dataclass(frozen=True, eq=False)
class SimResult(PacketLog):
    """Everything one run produced: packet log, epoch log, counters."""

    epochs: EpochLog
    queued_end_pkts: int
    clamp_warnings: int
    duration_ms: int
    mtu_bytes: int

    @property
    def zero_delivered(self) -> bool:
        """True when the run delivered nothing; the epoch log is then empty."""
        return self.delivered_pkts == 0

    @cached_property
    def summary(self) -> SimSummary:
        return summarize(self, self.duration_ms, self.mtu_bytes)


def run_simulation(params: LinkParams, controller: Controller) -> SimResult:
    """Run one controller over one link configuration.

    Same params and controller state always produce the same result; the
    only randomness is the loss process, driven by params.seed.
    """
    duration = params.duration_ms
    opp = params.trace.opportunities
    span = int(opp[-1])
    if span == 0:
        raise SimulationError("trace cannot wrap (last timestamp is 0)")
    # One cycle of the trace, tiled over the run; the last timestamp's
    # opportunities also land on every later wrap point.
    n = min(span, duration)
    opps_at = np.tile(np.bincount(opp[opp < n], minlength=n), -(-duration // n))[:duration]
    opps_at[span::span] += np.count_nonzero(opp == span)
    ack_delay = max(2 * params.one_way_prop_ms, 1)
    qcap = math.inf if params.queue_capacity_pkts is None else params.queue_capacity_pkts
    loss = params.loss_rate
    rng = np.random.default_rng(params.seed) if loss > 0.0 else None

    # Packets queued by the end of each tick's sends. The queue holds
    # queue positions served..enqueued-1, and position q was sent at the
    # first tick whose count exceeds q; head is that tick for the head.
    enq_cum: list[int] = []
    enqueued = served = lost = head = 0
    tail_ms: list[int] = []
    # Packets served without loss, and the sum of their queueing waits,
    # up to each tick, shifted by the return leg: ok_cum[t] is every ACK
    # that has arrived by tick t.
    ok_cum = [0] * ack_delay
    wait_cum = [0] * ack_delay
    ok_total = wait_total = 0
    # Queue positions whose loss draw struck, drawn a block at a time;
    # lost_at[:lost] are the ones served so far. A batch needs a look at
    # the draws only if it reaches next_lost, the next lost position or
    # the first one not yet drawn.
    lost_at: list[int] = []
    drawn = next_lost = math.inf if rng is None else 0
    # (tick its ACK arrives, RTT) of each packet that lowers the minimum.
    rtt_due: deque[tuple[int, float]] = deque()
    best_wait = math.inf
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
    last_boundary = 0
    min_rtt = 0.0
    last_mean = 0.0

    for t, opps in enumerate(opps_at.tolist()):
        acked = ok_cum[t]

        if t == boundary:
            cnt = acked - ok_cum[last_boundary]
            if cnt:
                rtt_sum = ack_delay * cnt + wait_cum[t] - wait_cum[last_boundary]
                last_mean = rtt_sum / cnt
            while rtt_due and rtt_due[0][0] <= t:
                min_rtt = rtt_due.popleft()[1]
            if acked:
                epoch_t.append(t)
                epoch_delay.append(last_mean)
                epoch_window.append(window)
            feedback = EpochFeedback(
                epoch_index=eidx,
                mean_delay_ms=last_mean,
                min_delay_ms=min_rtt,
                acked_pkts=cnt,
                now_ms=t,
            )
            apply(controller.on_epoch(feedback))
            eidx += 1
            last_boundary = t
            boundary = t + epoch_len

        sends = send_cap - (enqueued - lost - acked)
        if sends > 0:
            if enqueued - served + sends > qcap:
                # Tail drop; stop bursting into a full buffer this tick.
                sends = qcap - (enqueued - served)
                tail_ms.append(t)
            enqueued += sends
        enq_cum.append(enqueued)

        n = enqueued - served
        if opps < n:
            n = opps
        if n:
            end = served + n
            # The batch's queueing waits, one send tick at a time: served
            # steps over each earlier tick's packets until head, the send
            # tick of the batch's last packet, is reached.
            ok = n
            wait = n * t
            while enq_cum[head] < end:
                wait -= (enq_cum[head] - served) * head
                served = enq_cum[head]
                head += 1
            wait -= (end - served) * head
            if next_lost < end:
                while drawn < end:
                    block = rng.random(_LOSS_BLOCK)
                    lost_at += (np.flatnonzero(block < loss) + drawn).tolist()
                    drawn += _LOSS_BLOCK
                # A lost packet is never ACKed, so its wait leaves the sum.
                while lost < len(lost_at) and lost_at[lost] < end:
                    ok -= 1
                    wait -= t - bisect_right(enq_cum, lost_at[lost])
                    lost += 1
                next_lost = lost_at[lost] if lost < len(lost_at) else drawn
            if ok:
                # FIFO: the batch's last packet waited least.
                if t - head < best_wait:
                    last, i = end - 1, lost - 1
                    while i >= 0 and lost_at[i] == last:
                        last, i = last - 1, i - 1
                    least = t - bisect_right(enq_cum, last)
                    if least < best_wait:
                        best_wait = least
                        rtt_due.append((t + ack_delay, float(ack_delay + least)))
                ok_total += ok
                wait_total += wait
            served = end
        ok_cum.append(ok_total)
        wait_cum.append(wait_total)

    # Packet columns, from the per-tick counts. A tick's tail drop is the
    # last packet it sent.
    enq = np.array(enq_cum)
    tail = np.array(tail_ms, dtype=np.intp)
    sent_per_tick = np.diff(enq, prepend=0)
    sent_per_tick[tail] += 1
    ticks = np.arange(duration, dtype=np.int64)
    sent_ms = np.repeat(ticks, sent_per_tick)
    dropped = np.zeros(sent_ms.size, dtype=bool)
    dropped[enq[tail] + np.arange(tail.size)] = True
    queued_pkt = np.flatnonzero(~dropped)
    lost_pos = np.array(lost_at[:lost], dtype=np.intp)
    dropped[queued_pkt[lost_pos]] = True
    delivered_ms = np.full(sent_ms.size, -1, dtype=np.int64)
    ok_per_tick = np.diff(np.array(ok_cum[ack_delay - 1 :]))
    delivered_ms[np.delete(queued_pkt[:served], lost_pos)] = np.repeat(ticks, ok_per_tick)
    acked_ms = delivered_ms + ack_delay
    acked_ms[(delivered_ms < 0) | (acked_ms >= duration)] = -1
    return SimResult(
        epochs=EpochLog(epoch_t, epoch_delay, epoch_window),
        sent_ms=sent_ms,
        delivered_ms=delivered_ms,
        acked_ms=acked_ms,
        rtt_ms=np.where(acked_ms >= 0, acked_ms - sent_ms, -1),
        dropped=dropped,
        queued_end_pkts=enqueued - served,
        clamp_warnings=clamps,
        duration_ms=duration,
        mtu_bytes=params.trace.mtu_bytes,
    )


# An epoch CSV row is the epoch's index, then the log's own columns.
_EPOCH_DTYPE = np.dtype([("epoch_index", np.int64), *COLUMN_DTYPES.items()])
EPOCH_CSV_HEADER = list(_EPOCH_DTYPE.names)

PACKET_CSV_HEADER = ["seq", "sent_ms", "delivered_ms", "acked_ms", "rtt_ms", "dropped"]

_PACKET_DTYPE = np.dtype({"names": PACKET_CSV_HEADER, "formats": ["i8"] * 6})


def _read_table(
    source: TextIO, name: str, header: list[str], chars: bytes, layout: Callable
) -> np.ndarray:
    """Check a CSV file's shape and parse its body with one np.loadtxt.

    The header line must be `header` exactly, and the body may hold only
    `chars`; every row is non-empty, ends in a bare newline (one is added
    after a last row that lacks it) and has one field per column.
    `layout(body)` gives the text to parse, row for row, and its
    structured dtype. Every error names the 0-based body row at fault.
    """
    head, _, body = source.read().partition("\n")
    if head != ",".join(header):
        raise ValueError(f"unexpected {name} CSV header: {head!r}")
    if body and not body.endswith("\n"):
        body += "\n"
    raw = body.encode()
    if raw.translate(None, chars):
        at = re.search(f"[^{re.escape(chars.decode())}]", body).start()
        row = body.count("\n", 0, at)
        problem = "negative number" if body[at] == "-" else f"unexpected {body[at]!r}"
        raise ValueError(f"{name} CSV row {row}: {problem}")
    # loadtxt skips empty lines and reports field counts in its own row
    # numbers, so both are checked here on the raw bytes.
    flat = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(flat == ord("\n"))
    empty = np.diff(ends, prepend=-1) == 1
    if empty.any():
        raise ValueError(f"{name} CSV row {int(np.argmax(empty))}: empty row")
    fields = np.diff(np.searchsorted(np.flatnonzero(flat == ord(",")), ends), prepend=0) + 1
    bad = fields != len(header)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{name} CSV row {row}: {fields[row]} fields, expected {len(header)}")
    text, dtype = layout(body)
    if not text:
        return np.empty(0, dtype=dtype)
    try:
        return np.loadtxt(io.StringIO(text), delimiter=",", dtype=dtype, ndmin=1, comments=None)
    except ValueError as exc:
        # The checks above leave loadtxt only conversion errors, which it
        # reports as "... at row R, column C" with R 0-based and C 1-based.
        found = re.fullmatch(r"(.*) at row (\d+), column (\d+)\.", str(exc))
        problem, row, column = found.groups()
        raise ValueError(f"{name} CSV row {row}: {problem} in column {column}") from exc


def write_epoch_csv(log: EpochLog, sink: TextIO) -> None:
    """Epoch log as CSV, one row per epoch."""
    cols = [map(repr, range(len(log)))]
    cols += [map(repr, col.tolist()) for col in (log.t_ms, log.delay_ms, log.window_pkts)]
    sink.write(",".join(EPOCH_CSV_HEADER) + "\n")
    sink.write("".join(map("{},{},{},{}\n".format, *cols)))


def read_epoch_csv(source: TextIO) -> EpochLog:
    """Parse an epoch CSV back into a log."""
    table = _read_table(
        source, "epoch", EPOCH_CSV_HEADER, b"0123456789.e+-,\n", lambda body: (body, _EPOCH_DTYPE)
    )
    index, *cols = (table[name].copy() for name in table.dtype.names)
    bad = index != np.arange(index.size)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"epoch CSV row {row}: epoch_index is not the row number")
    return EpochLog(*cols)


def write_packet_csv(log: PacketLog, sink: TextIO) -> None:
    """Packet log as CSV; missing stages are blank, dropped is 0/1.

    Each distinct value is formatted once, with its trailing comma, and
    every cell is joined in one pass.
    """
    n = log.sent_ms.size
    values = np.stack([np.arange(n), log.sent_ms, log.delivered_ms, log.acked_ms, log.rtt_ms])
    distinct, inverse = np.unique(values, return_inverse=True)
    cells = np.empty((n, len(PACKET_CSV_HEADER)), dtype=object)
    formatted = np.array([f"{v}," for v in distinct.tolist()], dtype=object)
    cells[:, :5] = formatted[inverse.reshape(values.shape).T]
    cells[:, 2:5][values[2:].T < 0] = ","
    cells[:, 5] = np.array(["0\n", "1\n"], dtype=object)[log.dropped.astype(np.intp)]
    sink.write(",".join(PACKET_CSV_HEADER) + "\n")
    sink.write("".join(cells.ravel().tolist()))


def read_packet_csv(source: TextIO) -> PacketLog:
    """Parse a packet CSV, rejecting rows no run could have written.

    The body holds only digits, commas and newlines: one row per line,
    six integer fields, and a blank for a stage never reached.
    """

    def layout(body: str) -> tuple[str, np.dtype]:
        # A blank stage reads as -1. replace() skips overlapping matches,
        # so a run of blanks needs a second pass.
        return body.replace(",,", ",-1,").replace(",,", ",-1,"), _PACKET_DTYPE

    # Missing stages are blank, so no field carries a minus sign.
    table = _read_table(source, "packet", PACKET_CSV_HEADER, b"0123456789,\n", layout)
    seq, sent, delivered, acked, rtt, dropped = (table[name].copy() for name in PACKET_CSV_HEADER)
    problems = {
        "seq is not the row number": seq != np.arange(seq.size),
        "blank send time": sent < 0,
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
