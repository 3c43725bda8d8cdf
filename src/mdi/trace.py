"""Bottleneck-capacity traces.

A trace is a sequence of delivery opportunities: each entry is an integer
millisecond timestamp at which the link may forward exactly one MTU-sized
packet. Timestamps are non-decreasing; repeats mean several packets can
leave in the same millisecond. When a simulation outlives the trace, the
trace wraps by re-playing with all timestamps shifted by the last
timestamp. A generated trace's last timestamp is its duration, so its
cycle is its duration.

The on-disk format is text, one integer per line in ASCII digits, each
line ending in a newline; `mdi.cells` writes and reads the integers.
The reader adds the file's own rules: where lines end, blank lines and
stray bytes, and stamps that decrease. It accepts zero padding, since
trace files come from outside the program.

In memory a trace holds its first timestamp and the gaps between
consecutive ones, in the narrowest unsigned integer type that fits the
largest gap: one byte when no gap reaches 256 ms, as in every generated
trace, and two once one does, as after a long outage. The timestamps
are rebuilt as int64 on each read of `opportunities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import cells


class TraceParseError(ValueError):
    """A trace file violated the one-integer-per-line format."""


# The largest packet: an IPv4 datagram's 16-bit total length, in bytes.
MAX_MTU_BYTES = 65_535


def check_mtu(mtu_bytes) -> int:
    """`mtu_bytes` as an int, if it is an integer from 1 to
    MAX_MTU_BYTES; otherwise a ValueError naming it."""
    mtu_bytes = cells.check_int("mtu_bytes", mtu_bytes, 1)
    if mtu_bytes > MAX_MTU_BYTES:
        raise ValueError(f"mtu_bytes must be at most {MAX_MTU_BYTES}, got {mtu_bytes}")
    return mtu_bytes


class LinkTrace:
    """Immutable sequence of per-packet delivery opportunity times (ms).

    Timestamps must be given as integers (a list of ints or an integer
    array; floats, bools and strings are rejected), start at or above 0,
    never decrease and stay below 2**63. The trace keeps its own
    read-only copy of them as the first timestamp plus the gaps between
    neighbours, each gap in the narrowest unsigned type that holds the
    largest one, and its last timestamp, so that len() and duration_ms
    read no array.
    """

    __slots__ = ("_first", "_gaps", "_last", "mtu_bytes")

    def __init__(self, opportunities, mtu_bytes: int = 1500) -> None:
        mtu_bytes = check_mtu(mtu_bytes)
        arr = cells.check_ints("timestamps", opportunities)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trace needs at least one delivery opportunity")
        if arr[0] < 0:
            raise ValueError(f"timestamps must be >= 0, got {arr[0]}")
        # Compared, not differenced: a difference can wrap past int64.
        if np.any(arr[1:] < arr[:-1]):
            raise ValueError("timestamps must be non-decreasing")
        if arr[-1] >= 2**63:
            raise ValueError(f"timestamps must be below 2**63, got {arr[-1]}")
        # Non-negative and non-decreasing, so no gap wraps in arr's dtype.
        gaps = np.diff(arr)
        gaps = gaps.astype(np.min_scalar_type(gaps.max(initial=0)), copy=False)
        gaps.setflags(write=False)
        object.__setattr__(self, "_first", int(arr[0]))
        object.__setattr__(self, "_gaps", gaps)
        object.__setattr__(self, "_last", int(arr[-1]))
        object.__setattr__(self, "mtu_bytes", mtu_bytes)

    def __setattr__(self, name, value):
        raise AttributeError("LinkTrace is immutable")

    def __len__(self) -> int:
        return self._gaps.size + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinkTrace):
            return NotImplemented
        return (
            self.mtu_bytes == other.mtu_bytes
            and self._first == other._first
            and np.array_equal(self._gaps, other._gaps)
        )

    def __repr__(self) -> str:
        return (
            f"LinkTrace({len(self)} opportunities over "
            f"{self.duration_ms} ms, mtu={self.mtu_bytes})"
        )

    @property
    def opportunities(self) -> np.ndarray:
        """The timestamps as a read-only int64 array, rebuilt on each read."""
        opp = np.empty(len(self), dtype=np.int64)
        opp[0] = self._first
        opp[1:] = self._gaps
        np.cumsum(opp, out=opp)
        opp.setflags(write=False)
        return opp

    @property
    def duration_ms(self) -> int:
        """Timestamp of the last opportunity; also the wrap offset."""
        return self._last

    def mean_rate_mbps(self) -> float:
        span_ms = max(self.duration_ms, 1)
        return len(self) * self.mtu_bytes * 8.0 / (span_ms * 1000.0)


_NEWLINE = ord("\n")


def load_trace(source: BinaryIO, mtu_bytes: int = 1500) -> LinkTrace:
    """Parse a trace from a binary stream; errors carry the line number.

    Every line ends in a newline byte, except that the last may lack
    it, and holds only ASCII digits. The first line at fault is reported: a blank
    line, one that is not a non-negative integer, a timestamp that
    decreases, or one of 2**63 or more.
    """
    check_mtu(mtu_bytes)
    data = source.read()
    if not data:
        raise TraceParseError("empty trace file")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    length = np.diff(ends, prepend=-1) - 1
    digit = buf - np.uint8(ord("0"))  # wraps above 9 for every non-digit
    bad = length == 0
    stray = np.flatnonzero((digit > 9) & (buf != _NEWLINE))
    bad[np.searchsorted(ends, stray)] = True
    value, over = cells.parse_fields(buf, ends, length)
    # Only a line of digits is a timestamp, too large or not.
    over &= ~bad
    bad |= over
    stop = int(np.argmax(bad)) if bad.any() else bad.size
    stamps = value[:stop].view(np.int64)
    down = np.flatnonzero(stamps[1:] < stamps[:-1])
    if down.size:
        i = int(down[0]) + 1
        raise TraceParseError(
            f"line {i + 1}: timestamp {stamps[i]} decreases below {stamps[i - 1]}"
        )
    if stop < bad.size:
        line = data[ends[stop] - length[stop] : ends[stop]].decode("utf-8", "backslashreplace")
        if over[stop]:
            raise TraceParseError(f"line {stop + 1}: timestamp {line} is not below 2**63")
        if not line.strip():
            raise TraceParseError(f"line {stop + 1}: blank line")
        raise TraceParseError(f"line {stop + 1}: not a non-negative integer: {line!r}")
    return LinkTrace(stamps, mtu_bytes=mtu_bytes)


def save_trace(trace: LinkTrace, sink: BinaryIO) -> None:
    """Write the one-integer-per-line form; round-trips with load_trace."""
    sink.write(cells.format_cells([trace.opportunities], "\n"))


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Recipe for a rapidly-varying synthetic trace.

    The link rate is redrawn uniformly in [rate_min_mbps, rate_max_mbps]
    at the start of every segment.
    """

    duration_s: float
    segment_s: float
    rate_min_mbps: float
    rate_max_mbps: float
    seed: int

    def __post_init__(self) -> None:
        # The trace is whole milliseconds long, so it needs at least one,
        # and fewer than 2**63.
        if round(cells.check_real("duration_s", self.duration_s, hi=2**63 / 1000) * 1000.0) < 1:
            raise ValueError(f"duration_s must round to at least 1 ms, got {self.duration_s!r}")
        cells.check_real("segment_s", self.segment_s, 0, open_lo=True)
        cells.check_real("rate_min_mbps", self.rate_min_mbps, 0, open_lo=True)
        cells.check_real("rate_max_mbps", self.rate_max_mbps, self.rate_min_mbps)
        cells.check_int("seed", self.seed, 0)


def gen_rapidly_changing(spec: SyntheticTraceSpec, mtu_bytes: int = 1500) -> LinkTrace:
    """Generate a trace whose rate jumps at fixed segment boundaries.

    Each ms's opportunities are stamped at its end, as in Mahimahi, so
    stamps run from 1 to the trace's duration, which is its cycle when
    it wraps. A ms holds as many as the ideal packet count still to
    come, rounded up, drops across it: every window of the trace
    carries the segment rate to within one packet, and the last ms
    holds at least one. Same spec, same bytes. A spec whose count at
    rate_max_mbps over the whole duration reaches 2**63 is rejected
    before any rate is drawn.
    """
    check_mtu(mtu_bytes)
    duration_ms = int(round(spec.duration_s * 1000.0))
    segment_ms = max(int(round(min(spec.segment_s, spec.duration_s) * 1000.0)), 1)
    pkts_per_mbps_ms = 1e6 / (8.0 * mtu_bytes * 1000.0)
    most = spec.rate_max_mbps * pkts_per_mbps_ms * duration_ms
    if most >= 2**63:
        raise ValueError(
            f"rate_max_mbps {spec.rate_max_mbps!r} over {duration_ms} ms at mtu_bytes "
            f"{mtu_bytes} can give {most:.3g} opportunities, not below 2**63"
        )
    n_segments = -(-duration_ms // segment_ms)
    rng = np.random.default_rng(spec.seed)
    pkts_per_ms = rng.uniform(spec.rate_min_mbps, spec.rate_max_mbps, n_segments) * pkts_per_mbps_ms
    seg_end = np.minimum(np.arange(1, n_segments + 1) * segment_ms, duration_ms)
    seg_ms = np.diff(seg_end, prepend=0)
    # Ideal packets after each segment's end. Each ms below takes one
    # product of its own, not a running sum, whose rounding could lift
    # a whole count to one more.
    after = np.append(np.cumsum((pkts_per_ms * seg_ms)[:0:-1])[::-1], 0.0)
    ms = np.arange(1, duration_ms + 1)
    # Ideal packets still to come at the start of each ms, rounded up.
    to_come = np.ceil(
        pkts_per_ms.repeat(seg_ms) * (seg_end.repeat(seg_ms) - ms + 1) + after.repeat(seg_ms)
    )
    counts = (to_come - np.append(to_come[1:], 0.0)).astype(np.int64)
    # Only a rate whose packets per ms underflow to 0 leaves the last ms
    # empty; the trace still ends at its duration.
    counts[-1] = max(counts[-1], 1)
    return LinkTrace(np.repeat(ms, counts), mtu_bytes=mtu_bytes)
