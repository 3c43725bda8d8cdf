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
have a CSV form here, written a column at a time and read by one
checked np.loadtxt whose errors name the body row. The packet CSV holds
only digits, commas and newlines, with a blank for -1; the epoch CSV
adds the '.', 'e', '+' and '-' of repr'd floats.
"""

from __future__ import annotations

import io
import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, Optional, TextIO

import numpy as np

from .controllers import Controller, EpochFeedback
from .trace import LinkTrace
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


# An epoch CSV row is the epoch's index, then the log's own columns.
_EPOCH_DTYPE = np.dtype([("epoch_index", np.int64), *COLUMN_DTYPES.items()])
EPOCH_CSV_HEADER = list(_EPOCH_DTYPE.names)

PACKET_CSV_HEADER = ["seq", "sent_ms", "delivered_ms", "acked_ms", "rtt_ms", "dropped"]

# An underived epoch log parses only its first four columns.
_RAW_EPOCH_DTYPE = np.dtype(_EPOCH_DTYPE.descr[:4])
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
    """Epoch log as CSV; derived columns are blank where an epoch has none."""
    n = len(log)
    cols = [map(repr, range(n))]
    cols += [map(repr, col.tolist()) for col in (log.t_ms, log.delay_ms, log.window_pkts)]
    derived = (log.d_hat, log.w_hat, log.d_idx, log.w_idx)
    if log.derived:
        cols += [chain([""], map(repr, col.tolist())) for col in derived]
    else:
        cols += [repeat("", n) for _ in derived]
    sink.write(",".join(EPOCH_CSV_HEADER) + "\n")
    sink.write("".join(map("{},{},{},{},{},{},{},{}\n".format, *cols)))


def read_epoch_csv(source: TextIO) -> EpochLog:
    """Parse an epoch CSV back into a log (derived columns optional).

    The first row's derived fields are blank; every later row's are all
    filled or, in an underived log, all blank.
    """

    def layout(body: str) -> tuple[str, np.dtype]:
        first, _, rest = body.partition("\n")
        if first and not first.endswith(",,,,"):
            raise ValueError("epoch CSV row 0: the first epoch has derived fields")
        # A later row's derived fields can only be blank as its last four.
        if rest.count(",,,,\n") == rest.count("\n"):
            return body.replace(",,,,\n", "\n"), _RAW_EPOCH_DTYPE
        # The first row's blank derived fields get placeholders, dropped
        # below, so one table holds every row.
        return first[:-3] + "0,0,0,0\n" + rest, _EPOCH_DTYPE

    table = _read_table(source, "epoch", EPOCH_CSV_HEADER, b"0123456789.e+-,\n", layout)
    index, *cols = (table[name].copy() for name in table.dtype.names)
    bad = index != np.arange(index.size)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"epoch CSV row {row}: epoch_index is not the row number")
    raw, derived = cols[:3], [col[1:] for col in cols[3:]]
    return EpochLog(*raw, *derived)


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
