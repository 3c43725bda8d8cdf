#!/usr/bin/env python3
"""Tour of the millisecond-stamp trace format and the rapidly changing
synthetic generator used for training sweeps.
"""

import io

import numpy as np

from mdi.trace import SyntheticTraceSpec, gen_rapidly_changing, load_trace, save_trace


def segment_rates(stamps, mtu_bytes, segment_s, duration_s):
    """Realized Mbps per segment, from the stamp counts."""
    rates = []
    seg_ms = int(segment_s * 1000)
    for start in range(0, int(duration_s * 1000), seg_ms):
        lo, hi = np.searchsorted(stamps, [start, start + seg_ms])
        rates.append((hi - lo) * mtu_bytes * 8 / (segment_s * 1e6))
    return rates


def main():
    print("=" * 64)
    print("1. The format: one delivery opportunity per line, in ms")
    print("=" * 64)
    spec = SyntheticTraceSpec(duration_s=10.0, segment_s=2.0,
                              rate_min_mbps=3.0, rate_max_mbps=50.0, seed=42)
    trace = gen_rapidly_changing(spec)
    # Each read of trace.opportunities rebuilds the stamps from the
    # stored gaps, so read them once per trace.
    stamps = trace.opportunities
    print(f"  {stamps.size} opportunities over 10 s "
          f"(mean {trace.mean_rate_mbps():.1f} Mbps)")
    print(f"  first stamps: {stamps[:6].tolist()}")

    print()
    print("=" * 64)
    print("2. Rate redraws every segment")
    print("=" * 64)
    print("  segment  realized Mbps")
    for i, r in enumerate(segment_rates(stamps, trace.mtu_bytes, 2.0, 10.0)):
        bar = "#" * int(r / 1.5)
        print(f"  {i:>7d}  {r:>7.2f}  {bar}")
    print("  Each 2 s segment draws a fresh uniform rate, which is what")
    print("  keeps a delay-based controller permanently off balance.")

    print()
    print("=" * 64)
    print("3. Seeds are the whole identity")
    print("=" * 64)
    again = gen_rapidly_changing(spec)
    other = gen_rapidly_changing(
        SyntheticTraceSpec(duration_s=10.0, segment_s=2.0,
                           rate_min_mbps=3.0, rate_max_mbps=50.0, seed=43))
    print(f"  same seed identical: {trace == again}")
    print(f"  seed+1 identical:    {trace == other}")

    print()
    print("=" * 64)
    print("4. Round trip through the text format")
    print("=" * 64)
    buf = io.BytesIO()
    save_trace(trace, buf)
    text = buf.getvalue()
    loaded = load_trace(io.BytesIO(text))
    print(f"  serialized size: {len(text)} bytes")
    print(f"  round trip identical: {trace == loaded}")
    print("  Repeated stamps mean multiple opportunities in one ms;")
    repeats = stamps.size - np.unique(stamps).size
    print(f"  this trace has {repeats} of them.")


if __name__ == "__main__":
    main()
