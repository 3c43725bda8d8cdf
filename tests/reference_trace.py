"""The trace file's original line-at-a-time reader and writer, kept as
reference oracles.

``mdi.trace`` reads and writes the file as whole byte arrays. The
differential tests in ``test_trace.py`` require both to agree on every
file this reader accepts and on the errors of small edits to one, so
this code stays as it was written. It splits lines with
``str.splitlines``, which also ends a line at "\\r", "\\x0c" or U+2028;
those tests draw no such byte, because ``mdi.trace`` ends a line only
at "\\n".
"""

from __future__ import annotations

from typing import BinaryIO

from mdi.trace import LinkTrace, TraceParseError


def reference_load_trace(source: BinaryIO, mtu_bytes: int = 1500) -> LinkTrace:
    """Parse a trace from a binary stream; errors carry the line number."""
    text = source.read().decode("utf-8")
    stamps = []
    prev = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise TraceParseError(f"line {lineno}: blank line")
        if not (line.isascii() and line.isdigit()):
            raise TraceParseError(f"line {lineno}: not a non-negative integer: {line!r}")
        ts = int(line)
        if ts < prev:
            raise TraceParseError(
                f"line {lineno}: timestamp {ts} decreases below {prev}"
            )
        prev = ts
        stamps.append(ts)
    if not stamps:
        raise TraceParseError("empty trace file")
    return LinkTrace(stamps, mtu_bytes=mtu_bytes)


def reference_save_trace(trace: LinkTrace, sink: BinaryIO) -> None:
    """Write the one-integer-per-line form; round-trips with load_trace."""
    body = "\n".join(str(int(t)) for t in trace.opportunities)
    sink.write((body + "\n").encode("utf-8"))
