#!/usr/bin/env python3
"""End-to-end quickstart: train a transition model on a delay-based
controller, then let the model itself drive the link on a held-out
trace and compare the two runs.

Scaled down from the full recipe (fewer, shorter traces) so it finishes
in a few seconds.
"""

import numpy as np

from mdi.controllers import VerusLike
from mdi.linksim import LinkParams, run_simulation
from mdi.pipeline import derive_run_seed, run_and_derive, train_on_traces
from mdi.runtime import MdiController
from mdi.trace import SyntheticTraceSpec, gen_rapidly_changing

MASTER_SEED = 7
PROP_MS = 30
DURATION_MS = 20_000
N_TRAIN = 12


def make_controller():
    return VerusLike(lam=1.2, inc=1.0, dec_mult=0.9, rise_floor_ms=1.0,
                     inc_frac=0.06, epoch_ms=20)


def make_trace(seed):
    spec = SyntheticTraceSpec(
        duration_s=DURATION_MS / 1000.0, segment_s=2.0,
        rate_min_mbps=3.0, rate_max_mbps=50.0, seed=seed,
    )
    return gen_rapidly_changing(spec)


def median_stats(result):
    delivered = result.delivered_ms[result.delivered_ms >= 0]
    secs = delivered // 1000
    per_sec = np.bincount(secs, minlength=DURATION_MS // 1000)
    mbps = per_sec.astype(np.float64) * 1500 * 8 / 1e6
    rtts = result.rtt_ms[result.rtt_ms >= 0]
    return float(np.median(mbps)), float(np.median(rtts))


def main():
    print("=" * 64)
    print("1. Train on %d rapidly changing traces" % N_TRAIN)
    print("=" * 64)
    traces = [(f"t{i:02d}", make_trace(1000 + i)) for i in range(N_TRAIN)]
    model, summary = train_on_traces(
        traces, make_controller,
        duration_ms=DURATION_MS, one_way_prop_ms=PROP_MS,
        queue_capacity_pkts=2000, master_seed=MASTER_SEED,
    )
    for key in ("runs", "epochs", "transitions", "source_states"):
        print(f"  {key:<14s} {summary[key]}")
    print(f"  empty rows     {summary['empty_quadrant_row_fraction']:.3f}")

    print()
    print("=" * 64)
    print("2. Native controller vs model-driven run on a held-out trace")
    print("=" * 64)
    held = make_trace(5000)
    native = run_simulation(
        LinkParams(trace=held, one_way_prop_ms=PROP_MS,
                   queue_capacity_pkts=2000,
                   seed=derive_run_seed(MASTER_SEED, "held", 0),
                   duration_ms=DURATION_MS),
        make_controller(),
    )
    driver = MdiController(model, epoch_ms=20,
                           seed=derive_run_seed(MASTER_SEED, "held", 1))
    driven, records = run_and_derive(
        held, driver, model.cfg,
        one_way_prop_ms=PROP_MS, queue_capacity_pkts=2000,
        seed=derive_run_seed(MASTER_SEED, "held", 0),
        duration_ms=DURATION_MS,
    )

    nat_tput, nat_rtt = median_stats(native)
    mdl_tput, mdl_rtt = median_stats(driven)
    print(f"  {'':<16s}{'native':>10s}{'model':>10s}{'rel diff':>10s}")
    for label, a, b in (
        ("median Mbps", nat_tput, mdl_tput),
        ("median RTT ms", nat_rtt, mdl_rtt),
    ):
        rel = abs(a - b) / a if a else float("inf")
        print(f"  {label:<16s}{a:>10.2f}{b:>10.2f}{rel:>10.3f}")

    print()
    print("  model-driven decision mix over the run:")
    print(f"    epochs          {driver.epoch_count}")
    print(f"    exact-row draws {driver.epoch_count - driver.marginal_count - driver.fallback_count - driver.boundary_count}")
    print(f"    marginal draws  {driver.marginal_count}")
    print(f"    holds           {driver.fallback_count}")
    print(f"    boundary moves  {driver.boundary_count}")
    derived = records.d_idx.size if records.derived else 0
    print(f"    epochs with a derived grid state: {derived}/{len(records)}")


if __name__ == "__main__":
    main()
