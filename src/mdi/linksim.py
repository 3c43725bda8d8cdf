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
without loss at tick t - ack_delay. A tick therefore does only its
sends, its service and its losses, and appends two running counts:
E(u), the packets queued by tick u, and OK(u), those served without
loss by tick u. In-flight is every packet queued so far minus the lost
and the ACKed ones, so a tick sends until its queue reaches position
send_cap + lost + acked; the first two terms change only at a boundary
or a loss, and are kept summed. An epoch's ACK count is a difference of
two reads of OK. The rest is read at the boundaries, which move forward
only. Queue position q was sent at tick bisect_right(E, q), so summing
by parts gives the total queueing wait of the packets served without
loss by tick u, exactly and in integers:

    WT(u) = u*OK(u) - sum(OK(v) for v < u) - F(S) + LS(S),
    F(S)  = h*S - sum(E(v) for v < h),  h = bisect_right(E, S - 1),

where the first S queue positions hold those packets and the lost ones
among them, and LS(S) sums the lost ones' send ticks, which the rare
loss branch records. An epoch's RTT sum is ack_delay per ACK plus a
difference of two WTs, and both prefix sums grow by one C-level sum()
of a list slice per boundary. The minimum RTT is the return leg plus
the least wait so far; FIFO makes a tick's last packet served without
loss wait least of its tick's, so each boundary scans the service
ticks it newly sees, and stops scanning for good once a wait of 0 is
found. Random loss is drawn once, before the loop: one draw per
delivery opportunity, in service order, since a run serves at most one
packet per opportunity. The packet columns (send, delivery and ACK
times, drop flags) are rebuilt from the per-tick counts once the run
ends.

Windows may be fractional; the integer send cap floors the running value
and carries the remainder into the next epoch. Random loss, when enabled,
strikes packets at service time and the sender notices immediately (no
retransmissions; lost packets simply leave the in-flight budget).

A packet log is four columns (send, delivery and ACK times, -1 for a
stage never reached, and a drop flag); PacketLog.rtt_ms derives RTTs
and run_samples() is the one definition of a run's throughput and
delay samples, which summarize() reduces to statistics and
median_gaps() to the relative gap of two sets of runs' medians.
The time columns are int32 when every time fits, and int64 otherwise
(time_dtype, the one rule the emulator and the packet reader share), so
a packet of an int32 log takes 13 bytes: three 4-byte times and the flag.
Packet and epoch logs both have a CSV form here, stating each value
once, and every reader error names the 0-based body row. The packet CSV
holds only digits, commas and newlines, with a blank for -1; `mdi.cells`
writes and reads its integers a column at a time, on the file's bytes,
and the reader adds the file's own rules, such as no zero padding: no
field of two or more bytes starts with '0'. The epoch CSV is the log's
three columns for every controller, each number spelled as repr spells
it (no leading '+' or zero, no padded fraction). Its reader makes one
pass over the rows, split at newlines and commas and read by int and
float; the values' rules, t_ms's order among them, are EpochLog's, so
every log reads back, and each row must then be the line the writer
spells for its values.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, TextIO

import numpy as np

from . import cells
from .controllers import W_MAX_PKTS, Controller, EpochFeedback
from .trace import LinkTrace, check_mtu
from .trainer import COLUMN_DTYPES, EpochLog


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
        least = {"one_way_prop_ms": 0, "queue_capacity_pkts": 1, "seed": 0, "duration_ms": 1}
        for name, lo in least.items():
            value = getattr(self, name)
            if not (name == "queue_capacity_pkts" and value is None):
                cells.check_int(name, value, lo)
        cells.check_real("loss_rate", self.loss_rate, 0, 1)
        # The emulator forms no time above duration_ms + 2 * one_way_prop_ms,
        # and time_dtype has no type wider than int64.
        last = self.duration_ms + 2 * self.one_way_prop_ms
        if last >= 2**63:
            raise ValueError(f"duration_ms + 2 * one_way_prop_ms must be below 2**63, got {last}")


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    p25: float
    p50: float
    p75: float

    @classmethod
    def of(cls, values: np.ndarray) -> SummaryStats:
        """Mean and quartiles of a sample; all 0.0 for an empty one."""
        if values.size == 0:
            return cls(0.0, 0.0, 0.0, 0.0)
        p25, p50, p75 = np.percentile(values, [25.0, 50.0, 75.0])
        return cls(float(values.mean()), float(p25), float(p50), float(p75))


@dataclass(frozen=True)
class SimSummary:
    throughput_mbps: SummaryStats
    delay_ms: SummaryStats


def time_dtype(largest: int) -> np.dtype:
    """The dtype of a packet log's time columns whose largest time is
    `largest`: int32 when it fits, int64 otherwise."""
    return np.dtype(np.int32 if largest <= np.iinfo(np.int32).max else np.int64)


@dataclass(frozen=True, eq=False)
class PacketLog:
    """Columnar packet log; -1 marks a stage the packet never reached.

    The three time columns share one dtype, time_dtype of the largest
    time, and `dropped` is bool: 13 bytes a packet while times fit int32.
    """

    sent_ms: np.ndarray
    delivered_ms: np.ndarray
    acked_ms: np.ndarray
    dropped: np.ndarray

    @property
    def rtt_ms(self) -> np.ndarray:
        """ACK time minus send time, -1 if never ACKed; rebuilt on each read."""
        return np.where(self.acked_ms >= 0, self.acked_ms - self.sent_ms, -1)

    @property
    def sent_pkts(self) -> int:
        return int(self.sent_ms.size)

    @property
    def delivered_pkts(self) -> int:
        return int(np.count_nonzero(self.delivered_ms >= 0))

    @property
    def dropped_pkts(self) -> int:
        return int(np.count_nonzero(self.dropped))


def run_samples(log: PacketLog, duration_ms: int, mtu_bytes: int) -> dict[str, np.ndarray]:
    """A run's two samples, keyed as SimSummary's fields: the megabits
    delivered in each whole second, and the RTT of each ACKed packet.

    A partial last second is left out. A run shorter than one second
    gets a single rate over its whole length.
    """
    cells.check_int("duration_ms", duration_ms, 1)
    check_mtu(mtu_bytes)
    delivered = log.delivered_ms[log.delivered_ms >= 0]
    n_sec = duration_ms // 1000
    pkt_mbits = mtu_bytes * 8.0 / 1e6
    if n_sec < 1:
        tput = np.array([delivered.size * pkt_mbits / (duration_ms / 1000.0)])
    else:
        in_full = delivered[delivered < n_sec * 1000]
        tput = np.bincount(in_full // 1000, minlength=n_sec) * pkt_mbits
    rtts = log.rtt_ms[log.acked_ms >= 0].astype(np.float64)
    return {"throughput_mbps": tput, "delay_ms": rtts}


def median_gaps(a: list[dict], b: list[dict]) -> dict[str, float]:
    """Relative gap of a's median from b's for each run_samples sample,
    keyed "throughput_median" and "delay_median": |pa - pb| / max(|pb|,
    1e-9). Each side's runs are pooled, and p is the pool's 50th
    percentile, 0.0 for an empty one as in SummaryStats.of."""

    def median(side: list[dict], key: str) -> float:
        pooled = np.concatenate([s[key] for s in side])
        return float(np.percentile(pooled, 50.0)) if pooled.size else 0.0

    gaps = {}
    for key, name in (("throughput_mbps", "throughput"), ("delay_ms", "delay")):
        pa, pb = median(a, key), median(b, key)
        gaps[f"{name}_median"] = abs(pa - pb) / max(abs(pb), 1e-9)
    return gaps


def summarize(log: PacketLog, duration_ms: int, mtu_bytes: int) -> SimSummary:
    """Per-second throughput and per-packet RTT statistics of one run."""
    samples = run_samples(log, duration_ms, mtu_bytes)
    return SimSummary(**{key: SummaryStats.of(v) for key, v in samples.items()})


@dataclass(frozen=True, eq=False)
class SimResult(PacketLog):
    """Everything one run produced: packet log, epoch log, counters.

    The epoch log holds the epochs that carried ACKs; silent_epochs
    counts the others. Of the dropped packets, tail_drops found the
    queue full and loss_drops were struck by random loss.
    """

    epochs: EpochLog
    queued_end_pkts: int
    tail_drops: int
    loss_drops: int
    clamp_warnings: int
    silent_epochs: int
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
    only randomness is the loss process, driven by params.seed. Raises
    SimulationError if the trace cannot wrap.
    """
    duration = params.duration_ms
    opp = params.trace.opportunities
    span = int(opp[-1])
    if span == 0:
        raise SimulationError("trace cannot wrap (last timestamp is 0)")
    # One cycle of the trace, tiled over the run; the last timestamp's
    # opportunities also land on every later wrap point. The stamps are
    # sorted, so bisection finds those below n and those at span. The
    # cycle is no local: kept to the end of the run, it raised the peak
    # RSS of a process that drives many runs.
    n = min(span, duration)
    opps_at = np.tile(
        np.bincount(opp[: opp.searchsorted(n)], minlength=n), -(-duration // n)
    )[:duration]
    opps_at[span::span] += opp.size - opp.searchsorted(span)
    ack_delay = max(2 * params.one_way_prop_ms, 1)
    qcap = math.inf if params.queue_capacity_pkts is None else params.queue_capacity_pkts
    # Queue positions whose loss draw strikes, ending in a sentinel;
    # lost_at[:lost] are the ones served so far. A run serves at most one
    # packet per opportunity, so one draw per opportunity covers it, and
    # no queue position served reaches the sentinel, the draw count.
    draws = int(opps_at.sum())
    lost_at = [draws]
    if params.loss_rate > 0.0:
        struck = np.random.default_rng(params.seed).random(draws) < params.loss_rate
        lost_at = np.flatnonzero(struck).tolist() + lost_at

    # Packets queued by the end of each tick's sends. The queue holds
    # queue positions served..enqueued-1, and position q was sent at the
    # first tick whose count exceeds q: bisect_right(enq_cum, q).
    enq_cum: list[int] = []
    enqueued = served = lost = 0
    tail_ms: list[int] = []
    # Packets served without loss up to each tick, shifted by the return
    # leg: ok_cum[t] is every ACK that has arrived by tick t.
    ok_cum = [0] * ack_delay
    # lost_sent[j] sums the send ticks of the first j lost packets.
    lost_sent = [0]
    clamps = 0

    window = 1.0
    carry = 0.0
    # A tick may queue up to position reach + acked, where in-flight,
    # enqueued - lost - acked, meets send_cap: reach = send_cap + lost.
    # A boundary sets reach and each loss adds 1. next_lost is
    # lost_at[lost], the next queue position loss strikes.
    reach = 0
    next_lost = lost_at[0]
    epoch_t: list[int] = []
    epoch_delay: list[float] = []
    epoch_window: list[float] = []
    # The first decision is taken at a boundary at t = 0, which has no
    # epoch behind it: it is neither logged nor counted silent.
    boundary = last_boundary = 0
    silent = 0
    # Boundary state: how many lost packets sit among the queue positions
    # of the ACKed ones, the sums of ok_cum[:ok_seen] and
    # enq_cum[:enq_seen], and the queueing waits of every packet ACKed by
    # the last boundary, summed.
    below = ok_seen = ok_sum = enq_seen = enq_sum = waits = 0
    # The least wait of a packet ACKed by the last boundary, found by
    # scanning the service ticks from `scan` on; waits are never
    # negative, so the scan stops for good at 0.
    scan = 0
    best_wait = math.inf
    min_rtt = 0.0
    # Each epoch's feedback is built by tuple.__new__, which costs about
    # half what the Python __new__ that NamedTuple generates does.
    new_tuple = tuple.__new__

    for t, opps in enumerate(opps_at.tolist()):
        acked = ok_cum[t]

        if t == boundary:
            cnt = acked - ok_cum[last_boundary]
            mean = 0.0  # a silent epoch has no delay: it is counted, not logged
            if cnt:
                # ACKs arriving by t left the queue by tick u = t - ack_delay.
                # FIFO: a tick's last packet served without loss, the k-th,
                # waited least of its tick's. The first k + below queue
                # positions hold the first k such packets and the lost ones
                # among them.
                u = t - ack_delay
                if best_wait:
                    for v in range(scan, u + 1):
                        k = ok_cum[v + ack_delay]
                        if k > ok_cum[v + ack_delay - 1]:
                            while lost_at[below] < k + below:
                                below += 1
                            least = v - bisect_right(enq_cum, k + below - 1)
                            if least < best_wait:
                                best_wait = least
                                min_rtt = float(ack_delay + least)
                    scan = u + 1
                # The waits of the packets ACKed by t, summed by parts: their
                # service ticks, less the send ticks of the first s queue
                # positions, plus those of the lost ones among them.
                while lost_at[below] < acked + below:
                    below += 1
                s = acked + below
                h = bisect_right(enq_cum, s - 1, enq_seen)
                enq_sum += sum(enq_cum[enq_seen:h])
                ok_sum += sum(ok_cum[ok_seen:t])
                enq_seen, ok_seen = h, t
                wait = u * acked - ok_sum - (h * s - enq_sum) + lost_sent[below]
                mean = (ack_delay * cnt + wait - waits) / cnt
                waits = wait
                epoch_t.append(t)
                epoch_delay.append(mean)
                epoch_window.append(window)
            elif t:
                silent += 1
            window, epoch_len = controller.on_epoch(
                new_tuple(EpochFeedback, (mean, min_rtt, cnt))
            )
            window = float(window)
            epoch_len = int(epoch_len)
            if not 1.0 <= window <= W_MAX_PKTS:
                window = W_MAX_PKTS if W_MAX_PKTS < window < math.inf else 1.0
                clamps += 1
            if epoch_len < 1:
                epoch_len = 1
                clamps += 1
            total = window + carry
            send_cap = int(total)
            carry = total - send_cap
            reach = send_cap + lost
            last_boundary = t
            boundary = t + epoch_len

        # Send until the queue reaches position reach + acked.
        target = reach + acked
        if target > enqueued:
            if target - served > qcap:
                # Tail drop; stop bursting into a full buffer this tick.
                target = served + qcap
                tail_ms.append(t)
            enqueued = target
        enq_cum.append(enqueued)

        served += opps
        if served > enqueued:
            served = enqueued
        while next_lost < served:
            lost_sent.append(lost_sent[-1] + bisect_right(enq_cum, next_lost))
            lost += 1
            reach += 1
            next_lost = lost_at[lost]
        ok_cum.append(served - lost)

    # Packet columns, from the per-tick counts. The window stops at
    # W_MAX_PKTS, so even on a queue that never fills they hold at most
    # W_MAX_PKTS + 1 packets more than the run served, plus one tail drop
    # per tick. A tick's tail drop is the last packet it sent. The latest
    # time is an ACK at duration - 1, but delivered_ms + ack_delay is
    # formed before the ACK mask, so the dtype must hold duration +
    # ack_delay.
    enq = np.fromiter(enq_cum, np.int64, duration)
    tail = np.array(tail_ms, dtype=np.intp)
    sent_per_tick = np.diff(enq, prepend=0)
    sent_per_tick[tail] += 1
    times = time_dtype(duration + ack_delay)
    ticks = np.arange(duration, dtype=times)
    sent_ms = np.repeat(ticks, sent_per_tick)
    # Tail drop i was sent right after queue position tail_q[i] - 1, so
    # queue position q is sent after q positions and the tail drops with
    # tail_q <= q: its send index is q + tail_q.searchsorted(q, "right").
    tail_q = enq[tail]
    dropped = np.zeros(sent_ms.size, dtype=bool)
    dropped[tail_q + np.arange(tail.size)] = True
    lost_pos = np.array(lost_at[:lost], dtype=np.intp)
    dropped[lost_pos + tail_q.searchsorted(lost_pos, "right")] = True
    # Every send index before the first unserved queue position's is a
    # served packet or a drop; the served ones not lost were delivered,
    # in order.
    n_served = served + int(tail_q.searchsorted(served, "right"))
    delivered_ms = np.full(sent_ms.size, -1, dtype=times)
    ok_per_tick = np.diff(np.fromiter(ok_cum, np.int64, ack_delay + duration)[ack_delay - 1 :])
    delivered_ms[:n_served][~dropped[:n_served]] = np.repeat(ticks, ok_per_tick)
    acked_ms = delivered_ms + ack_delay
    acked_ms[(delivered_ms < 0) | (acked_ms >= duration)] = -1
    # The epoch columns go in as arrays: EpochLog scans a list's cells for bools.
    return SimResult(
        epochs=EpochLog(np.array(epoch_t), np.array(epoch_delay), np.array(epoch_window)),
        sent_ms=sent_ms,
        delivered_ms=delivered_ms,
        acked_ms=acked_ms,
        dropped=dropped,
        queued_end_pkts=enqueued - served,
        tail_drops=len(tail_ms),
        loss_drops=lost,
        clamp_warnings=clamps,
        silent_epochs=silent,
        duration_ms=duration,
        mtu_bytes=params.trace.mtu_bytes,
    )


EPOCH_CSV_HEADER = list(COLUMN_DTYPES)
PACKET_CSV_HEADER = ["sent_ms", "delivered_ms", "acked_ms", "dropped"]


def _read_table(source: TextIO) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a packet CSV's shape; return its body and field bounds.

    The header line must be PACKET_CSV_HEADER exactly, and the body may
    hold only digits, commas and newlines; every row is non-empty, ends
    in a bare newline (one is added after a last row that lacks it) and
    has one field per column. Returns the body's bytes as a uint8 array
    and two (rows, columns) arrays: where each field starts, and the
    comma or newline that closes it. Every error names the 0-based body
    row at fault.
    """
    # The file is held once, as bytes: the text is encoded once, and the
    # body is decoded again only to name a stray character.
    head, _, raw = source.read().encode().partition(b"\n")
    if head != ",".join(PACKET_CSV_HEADER).encode():
        raise ValueError(f"unexpected packet CSV header: {head.decode()!r}")
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    if raw.translate(None, b"0123456789,\n"):
        body = raw.decode()
        at = re.search("[^0-9,\n]", body).start()
        row = body.count("\n", 0, at)
        problem = "negative number" if body[at] == "-" else f"unexpected {body[at]!r}"
        raise ValueError(f"packet CSV row {row}: {problem}")
    flat = np.frombuffer(raw, dtype=np.uint8)
    is_sep = flat == ord(",")
    is_sep |= flat == ord("\n")
    seps = np.flatnonzero(is_sep).astype(np.int32 if flat.size < 2**31 else np.int64)
    row_end = np.flatnonzero(flat[seps] == ord("\n"))
    empty = np.diff(seps[row_end], prepend=-1) == 1
    if empty.any():
        raise ValueError(f"packet CSV row {int(np.argmax(empty))}: empty row")
    fields = np.diff(row_end, prepend=-1)
    n_cols = len(PACKET_CSV_HEADER)
    bad = fields != n_cols
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"packet CSV row {row}: {fields[row]} fields, expected {n_cols}")
    # A field starts just after the separator before it.
    starts = np.roll(seps, 1) + 1
    starts[:1] = 0
    return flat, starts.reshape(-1, n_cols), seps.reshape(-1, n_cols)


def _epoch_lines(rows) -> list[str]:
    """The epoch CSV lines of (t_ms, delay_ms, window_pkts) rows of
    Python scalars, without their newlines: each number as repr spells it."""
    return [f"{t!r},{delay!r},{window!r}" for t, delay, window in rows]


def write_epoch_csv(log: EpochLog, sink: TextIO) -> None:
    """Epoch log as CSV, one row per epoch."""
    sink.write("\n".join([",".join(EPOCH_CSV_HEADER), *_epoch_lines(log), ""]))


def read_epoch_csv(source: TextIO) -> EpochLog:
    """Parse an epoch CSV back into a log.

    One rule holds the body to the writer: it must be exactly what
    write_epoch_csv writes for the log it parses to, so a number spelled
    any way repr does not spell it is an error. The body is split at
    each newline and comma alone, and each row read by int and float.
    The log's own value rules are checked first, and name their row;
    then the error names the first row the writer spells otherwise.
    """
    head, _, body = source.read().partition("\n")
    if head != ",".join(EPOCH_CSV_HEADER):
        raise ValueError(f"unexpected epoch CSV header: {head!r}")
    lines = body.removesuffix("\n").split("\n") if body else []
    unwritten = "not written as write_epoch_csv writes it"
    n_cols = len(EPOCH_CSV_HEADER)
    t_ms, delay_ms, window_pkts = [], [], []
    for row, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ValueError(f"epoch CSV row {row}: {len(fields)} fields, expected {n_cols}")
        try:
            t, delay, window = int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError:
            raise ValueError(f"epoch CSV row {row}: {unwritten}") from None
        # A t_ms no int64 holds is no log's, so the writer never wrote it.
        if not -(2**63) <= t < 2**63:
            raise ValueError(f"epoch CSV row {row}: {unwritten}")
        t_ms.append(t)
        delay_ms.append(delay)
        window_pkts.append(window)
    try:
        log = EpochLog(np.array(t_ms, np.int64), np.array(delay_ms), np.array(window_pkts))
    except ValueError as exc:  # the log's own value rules, which name the row
        raise ValueError(f"epoch CSV {exc}") from None
    for row, (line, spelled) in enumerate(zip(lines, _epoch_lines(log))):
        if line != spelled:
            raise ValueError(f"epoch CSV row {row}: {unwritten}")
    return log


def write_packet_csv(log: PacketLog, sink: TextIO) -> None:
    """Packet log as CSV; missing stages are blank, dropped is 0/1."""
    cols = [log.sent_ms, log.delivered_ms, log.acked_ms, log.dropped.astype(np.uint8)]
    sink.write(",".join(PACKET_CSV_HEADER) + "\n")
    sink.write(cells.format_cells(cols, ",,,\n").decode("ascii"))


def _packet_columns(flat: np.ndarray, starts: np.ndarray, seps: np.ndarray) -> list[np.ndarray]:
    """The four columns of a packet CSV body as int64, -1 for a blank;
    raises on the first field, row by row, that does not convert."""
    cols, wrong = [], []
    for name, start, end in zip(PACKET_CSV_HEADER, starts.T, seps.T):
        end = end.astype(np.intp)
        length = end - start
        value, bad = cells.parse_fields(flat, end, length)
        bad |= (length > 1) & (flat.take(start) == ord("0"))  # zero-padded
        # Only a stage never reached may be blank, and reads as -1.
        if name == "dropped":
            bad |= length == 0
        col = value.view(np.int64)
        col[length == 0] = -1
        cols.append(col)
        wrong.append(bad)
    # The first field that does not convert, row by row.
    first = [int(np.argmax(bad)) if bad.any() else bad.size for bad in wrong]
    row = min(first)
    if row < seps.shape[0]:
        k = first.index(row)
        field = flat[starts[row, k] : seps[row, k]].tobytes().decode()
        raise ValueError(
            f"packet CSV row {row}: could not convert string {field!r} to int64 in column {k + 1}"
        )
    return cols


def read_packet_csv(source: TextIO) -> PacketLog:
    """Parse a packet CSV, rejecting rows no run could have written.

    The body holds only digits, commas and newlines: one row per line,
    four integer fields with no leading zeros, and a blank for a stage
    never reached. `mdi.cells` reads each column from the body's bytes.
    The time columns take time_dtype of their largest value.
    """
    # The body's bytes are freed once its fields are read, so they are
    # never held with both widths of the time columns.
    sent, delivered, acked, dropped = _packet_columns(*_read_table(source))
    times = time_dtype(max(int(col.max(initial=-1)) for col in (sent, delivered, acked)))
    sent, delivered, acked = (col.astype(times, copy=False) for col in (sent, delivered, acked))
    problems = {
        "blank send time": sent < 0,
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
