"""Trace-driven bottleneck link emulation.

The link advances in 1 ms ticks. Each tick, in order: ACKs due this tick
arrive at the sender, an epoch boundary (if due) feeds the controller and
applies its decision, the sender transmits while in-flight is below the
current window, and finally each delivery opportunity in this ms serves
the head of the drop-tail queue. Opportunities per ms are counted once,
before the run, from the trace replayed shifted by its last timestamp;
unused ones are wasted, which makes the trace a capacity ceiling.

The emulator decides only when each packet is sent, delivered or
dropped. Its ACK returns a constant 2 * one-way propagation (at least
1 ms) after delivery, so ACK times and RTTs (queueing plus the return
legs) are derived from the delivery times once the run ends.

Windows may be fractional; the integer send cap floors the running value
and carries the remainder into the next epoch. Random loss, when enabled,
strikes packets at service time and the sender notices immediately (no
retransmissions; lost packets simply leave the in-flight budget).

A packet log is five columns (send, delivery, ACK and RTT times, -1 for
a stage never reached, and a drop flag); summarize() is the one
definition of a run's throughput and delay. Packet and epoch logs both
have a CSV form here.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, TextIO

import numpy as np

from .controllers import Controller, EpochFeedback
from .trace import LinkTrace
from .trainer import EpochLog


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
    qcap = params.queue_capacity_pkts
    loss = params.loss_rate
    rng = np.random.default_rng(params.seed) if loss > 0.0 else None

    sent: list[int] = []
    delivered: list[int] = []
    dropped: list[bool] = []
    queue: deque[int] = deque()
    # Delivered packets whose ACK is on its way back. The return leg is
    # constant and service is FIFO, so ACKs come due in delivery order.
    returning: deque[int] = deque()
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

    for t, opps in enumerate(opps_at.tolist()):
        while returning and delivered[returning[0]] + ack_delay <= t:
            r = t - sent[returning.popleft()]
            ack_sum += r
            ack_cnt += 1
            in_flight -= 1
            any_ack = True
            if min_rtt < 0 or r < min_rtt:
                min_rtt = r

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
            if qcap is not None and len(queue) >= qcap:
                # Tail drop; stop bursting into a full buffer this tick.
                dropped.append(True)
                break
            dropped.append(False)
            queue.append(s)
            in_flight += 1

        for _ in range(min(opps, len(queue))):
            s = queue.popleft()
            if rng is not None and rng.random() < loss:
                dropped[s] = True
                in_flight -= 1
            else:
                delivered[s] = t
                returning.append(s)

    sent_ms = np.array(sent, dtype=np.int64)
    delivered_ms = np.array(delivered, dtype=np.int64)
    acked_ms = delivered_ms + ack_delay
    acked_ms[(delivered_ms < 0) | (acked_ms >= duration)] = -1
    return SimResult(
        epochs=EpochLog(epoch_t, epoch_delay, epoch_window),
        sent_ms=sent_ms,
        delivered_ms=delivered_ms,
        acked_ms=acked_ms,
        rtt_ms=np.where(acked_ms >= 0, acked_ms - sent_ms, -1),
        dropped=np.array(dropped, dtype=bool),
        queued_end_pkts=len(queue),
        clamp_warnings=clamps,
        duration_ms=duration,
        mtu_bytes=params.trace.mtu_bytes,
    )


EPOCH_CSV_HEADER = [
    "epoch_index",
    "t_ms",
    "delay_ms",
    "window_pkts",
    "d_hat",
    "w_hat",
    "d_idx",
    "w_idx",
]

PACKET_CSV_HEADER = ["seq", "sent_ms", "delivered_ms", "acked_ms", "rtt_ms", "dropped"]


def write_epoch_csv(log: EpochLog, sink: TextIO) -> None:
    """Epoch log as CSV; derived columns are blank where an epoch has none."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(EPOCH_CSV_HEADER)
    for i, (t_ms, delay_ms, window_pkts, d_hat, w_hat, d_idx, w_idx) in enumerate(log):
        if d_idx is not None:
            derived = [repr(d_hat), repr(w_hat), d_idx, w_idx]
        else:
            derived = ["", "", "", ""]
        writer.writerow([i, t_ms, repr(delay_ms), repr(window_pkts), *derived])


def read_epoch_csv(source: TextIO) -> EpochLog:
    """Parse an epoch CSV back into a log (derived columns optional)."""
    reader = csv.reader(source)
    header = next(reader, None)
    if header != EPOCH_CSV_HEADER:
        raise ValueError(f"unexpected epoch CSV header: {header!r}")
    rows = list(reader)
    for row in rows:
        if len(row) != len(EPOCH_CSV_HEADER):
            raise ValueError(f"epoch CSV row has {len(row)} fields: {row!r}")
    cols = list(zip(*rows)) or [()] * len(EPOCH_CSV_HEADER)
    _, t_ms, delay_ms, window_pkts, *derived = cols
    raw = (
        [int(x) for x in t_ms],
        [float(x) for x in delay_ms],
        [float(x) for x in window_pkts],
    )
    if not any(any(col) for col in derived):
        return EpochLog(*raw)
    if any(col[0] or not all(col[1:]) for col in derived):
        raise ValueError(
            "epoch CSV must fill every derived field of every epoch "
            "after the first, or none"
        )
    d_hat, w_hat, d_idx, w_idx = (col[1:] for col in derived)
    return EpochLog(
        *raw,
        d_hat=[float(x) for x in d_hat],
        w_hat=[float(x) for x in w_hat],
        d_idx=[int(x) for x in d_idx],
        w_idx=[int(x) for x in w_idx],
    )


def write_packet_csv(log: PacketLog, sink: TextIO) -> None:
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


def read_packet_csv(source: TextIO) -> PacketLog:
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
