#!/usr/bin/env python3
"""Behavioral fingerprints: two delay-based controllers trained under
identical conditions leave visibly different transition surfaces.

Writes SVG + CSV heatmaps for each controller into demos/output/ and
prints a numeric summary of the asymmetry that separates them: how
much probability mass in the rising-delay columns lands on
window-decrease moves.
"""

from pathlib import Path

import numpy as np

from mdi.controllers import CopaLike, VerusLike
from mdi.heatmap import heatmap_export
from mdi.pipeline import train_on_traces
from mdi.trace import SyntheticTraceSpec, gen_rapidly_changing

OUT_DIR = Path(__file__).resolve().parent / "output"
MASTER_SEED = 7
DURATION_MS = 30_000
N_TRAIN = 12


def make_traces(rate_min, rate_max, segment_s):
    specs = [
        SyntheticTraceSpec(
            duration_s=DURATION_MS / 1000.0, segment_s=segment_s,
            rate_min_mbps=rate_min, rate_max_mbps=rate_max, seed=1000 + i,
        )
        for i in range(N_TRAIN)
    ]
    return [(f"t{i:02d}", gen_rapidly_changing(s)) for i, s in enumerate(specs)]


def decrease_share(model):
    cfg = model.cfg
    dec = inc = 0.0
    for r in range(cfg.n_d):
        if cfg.d_hat_edges[r] < 0:
            continue
        for v in range(cfg.n_w):
            mass = float(model.counts[:, :, r, v].sum())
            if cfg.w_midpoint(v) < 0:
                dec += mass
            elif cfg.w_midpoint(v) > 0:
                inc += mass
    return dec / (dec + inc) if dec + inc else float("nan")


def export(model, label):
    OUT_DIR.mkdir(exist_ok=True)
    n = model.cfg.n_d * model.cfg.n_w
    quad = model.quadrant_rows.reshape(n, n)
    svg = OUT_DIR / f"{label}_fingerprint.svg"
    csv = svg.with_suffix(".csv")
    with open(csv, "w") as csv_fh, open(svg, "w") as svg_fh:
        heatmap_export(quad, model.cfg, csv_fh, svg_fh,
                       title=f"{label} transition fingerprint")
    return svg


def main():
    print("Training both controllers on their natural operating ranges...")
    jobs = [
        ("verus_like",
         lambda: VerusLike(lam=1.2, dec_mult=0.9,
                           rise_floor_ms=1.0, inc_frac=0.06, epoch_ms=20),
         make_traces(3.0, 50.0, 2.0)),
        ("copa_like",
         lambda: CopaLike(velocity=3.0, epoch_ms=60),
         make_traces(8.0, 16.0, 5.0)),
    ]
    print()
    print(f"  {'controller':<12s}{'transitions':>12s}{'src states':>12s}"
          f"{'dec share':>11s}")
    for label, make_controller, traces in jobs:
        model, _summary = train_on_traces(
            traces, make_controller,
            duration_ms=DURATION_MS, one_way_prop_ms=30,
            queue_capacity_pkts=2000, master_seed=MASTER_SEED,
        )
        share = decrease_share(model)
        path = export(model, label)
        print(f"  {label:<12s}{model.total_transitions:>12d}"
              f"{model.source_state_count():>12d}{share:>11.3f}")

    print()
    print("Fingerprints written to", OUT_DIR)
    print()
    print("Reading the heatmaps: rows are source states, columns are")
    print("destinations, both ordered delay-bucket-major. A multiplicative")
    print("backoff controller piles rising-delay mass below the w_hat = 0")
    print("line (decrease share well above one half); a velocity-based one")
    print("spreads it across both signs as it probes.")


if __name__ == "__main__":
    main()
