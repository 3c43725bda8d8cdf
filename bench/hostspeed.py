"""How fast the host runs right now, and times scaled to a quiet host.

On a shared host a co-tenant slows this process by up to half for
seconds at a time, so the same job takes 12 s in one minute and 19 s in
the next. A short pure-Python loop timed next to the job slows with it.
Every time the benchmark reports is cut into pieces, the loop is timed
at each cut, and each piece is scaled by the loop's mean time at its two
ends. This module imports nothing from the program, so that a child
process can use it before it imports the program.

The loop does integer arithmetic, then allocates small objects and reads
their attributes. On a 2-core Xeon VM, regressing the log of a training
run's time on the log of the loop's time gave a slope of 1.0 for this
mix; integer arithmetic alone gave 1.35 and allocation alone 0.8.

    PYTHONPATH=src:tests python3 bench/hostspeed.py

prints the scaled time to import the program in a fresh interpreter.
"""

from __future__ import annotations

import json
import statistics
import time

REF_INT_LOOPS = 3000
REF_OBJECTS = 800
# The reference loop's time on a quiet host: about the fastest it ran on
# a 2.0 GHz Xeon VM core. Scaled times read as seconds on such a host.
REF_QUIET_NS = 380_000
# Loops timed at a cut that has no job running around it.
REF_SAMPLES = 5


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a + 1


def reference_ns() -> int:
    """Time of a fixed pure-Python loop: how fast the host runs now."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(REF_INT_LOOPS):
        s += i * i % 7
    sums = []
    for i in range(REF_OBJECTS):
        cell = _Cell(i)
        sums.append(cell.a + cell.b)
    return time.perf_counter_ns() - t0


def reference_median_ns() -> float:
    return statistics.median(reference_ns() for _ in range(REF_SAMPLES))


def scaled_seconds(pieces_ns: list[int], ref_ns: list[float]) -> float:
    """Seconds on a quiet host for a span of time cut into pieces.

    ``ref_ns`` holds the reference loop's time at each cut, one more
    than there are pieces.
    """
    return sum(
        piece * REF_QUIET_NS * 2 / (a + b) for piece, a, b in zip(pieces_ns, ref_ns, ref_ns[1:])
    ) / 1e9


def import_time() -> float:
    """Scaled seconds for this interpreter to import the program."""
    before = reference_median_ns()
    t0 = time.perf_counter_ns()
    import harness  # noqa: F401
    import mdi  # noqa: F401

    elapsed = time.perf_counter_ns() - t0
    return scaled_seconds([elapsed], [before, reference_median_ns()])


if __name__ == "__main__":
    print(json.dumps(import_time()))
