#!/usr/bin/env python3
"""Ground truth tour of the bottleneck-link emulator.

Five tiny experiments where the right answer is computable by hand:
stop-and-wait on an idle link, a saturated buffer, fractional window
accounting, the stall flag on a silent trace, and conservation on a
lossy, shaped link.
"""

import numpy as np

from mdi.controllers import Pinned
from mdi.linksim import LinkParams, run_simulation
from mdi.trace import LinkTrace, SyntheticTraceSpec, gen_rapidly_changing


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def constant_trace(mbps, duration_s, seed=0):
    spec = SyntheticTraceSpec(duration_s=duration_s, segment_s=duration_s,
                              rate_min_mbps=mbps, rate_max_mbps=mbps, seed=seed)
    return gen_rapidly_changing(spec)


def main():
    banner("1. Stop-and-wait: one packet per bare round trip")
    params = LinkParams(trace=constant_trace(12.0, 10.0),
                        one_way_prop_ms=20, duration_ms=5000)
    res = run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    print(f"  prop 20 ms each way -> expect 40 ms RTT, 125 pkts in 5 s")
    print(f"  observed: RTT {rtts.min()}..{rtts.max()} ms, "
          f"{res.delivered_pkts} delivered")
    sends = res.sent_ms
    print(f"  send spacing: {np.unique(np.diff(sends))} ms")

    banner("2. Saturated buffer: delay = propagation + queue drain")
    params = LinkParams(trace=constant_trace(12.0, 10.0), one_way_prop_ms=10,
                        queue_capacity_pkts=50, duration_ms=6000, seed=3)
    res = run_simulation(params, Pinned(window_pkts=400.0, epoch_ms=20))
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    p50 = float(np.percentile(rtts, 50))
    print(f"  12 Mbps = 1 pkt/ms, queue 50 -> expect ~{2 * 10 + 50} ms p50 RTT")
    print(f"  observed p50: {p50:.1f} ms")
    delivered = res.delivered_ms[res.delivered_ms >= 0]
    last_sec = np.count_nonzero(delivered >= delivered.max() - 999)
    print(f"  deliveries in the last full second: {last_sec} "
          f"(capacity is 1000)")
    print(f"  drops at the full queue: {res.dropped_pkts}")

    banner("3. Fractional windows accumulate, not truncate")
    sent = {}
    for w in (2.0, 2.5, 3.0):
        params = LinkParams(trace=constant_trace(120.0, 10.0),
                            one_way_prop_ms=0, duration_ms=5000)
        res = run_simulation(params, Pinned(window_pkts=w, epoch_ms=20))
        sent[w] = res.sent_pkts
        print(f"  window {w}: sent {res.sent_pkts}")
    print("  The half packet is banked and released on a later epoch, so")
    print("  2.5 sits between 2 and 3 instead of truncating down:")
    mid = (sent[2.0] + sent[3.0]) / 2
    print(f"  midpoint of the integer runs: {mid:.0f}, "
          f"fractional run: {sent[2.5]}")

    banner("4. A silent link raises the stall flag")
    quiet = LinkTrace(np.array([5000], dtype=np.int64))
    params = LinkParams(trace=quiet, one_way_prop_ms=10, duration_ms=100)
    res = run_simulation(params, Pinned(window_pkts=10.0, epoch_ms=20))
    print(f"  first delivery opportunity at t=5000 ms, run ends at 100 ms")
    print(f"  sent {res.sent_pkts}, delivered {res.delivered_pkts}, "
          f"zero_delivered={res.zero_delivered}")

    banner("5. Conservation holds on a lossy, shaped link")
    trace = gen_rapidly_changing(SyntheticTraceSpec(
        duration_s=8.0, segment_s=1.0, rate_min_mbps=2.0,
        rate_max_mbps=30.0, seed=11))
    params = LinkParams(trace=trace, one_way_prop_ms=15,
                        queue_capacity_pkts=80, loss_rate=0.1,
                        seed=11, duration_ms=8000)
    res = run_simulation(params, Pinned(window_pkts=60.0, epoch_ms=20))
    print(f"  sent {res.sent_pkts} = delivered {res.delivered_pkts}"
          f" + dropped {res.dropped_pkts} + queued {res.queued_end_pkts}")
    assert res.sent_pkts == (res.delivered_pkts + res.dropped_pkts
                             + res.queued_end_pkts)
    print("  identity verified.")


if __name__ == "__main__":
    main()
