#!/usr/bin/env python3
"""Tour of the composite delay/window observables and the quantizer grid.

Walks through what the composite actually measures: relative change
scaled by log-magnitude, so a doubling at 10 ms and a doubling at
200 ms land in different buckets, while the absolute queue level on
its own is invisible.
"""

import numpy as np

from mdi.quantizer import QuantizerConfig, composite, fit_config


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def show(curr, prev, label):
    val = composite(curr, prev)
    print(f"  {label:<38s} d_hat = {val:+.4f}")


def main():
    banner("1. What the composite responds to")
    show(100.0, 100.0, "flat delay (100 -> 100 ms)")
    show(200.0, 100.0, "doubling at high level (100 -> 200)")
    show(20.0, 10.0, "doubling at low level (10 -> 20)")
    show(50.0, 100.0, "halving at high level (100 -> 50)")
    show(5.0, 10.0, "halving at low level (10 -> 5)")
    show(101.0, 100.0, "1 ms jitter at 100 ms")
    show(11.0, 10.0, "1 ms jitter at 10 ms")
    print()
    print("  Same ratio, different magnitude, different bucket: the")
    print("  composite sees relative motion weighted by where it happens.")

    banner("2. Blind to absolute level")
    for base in (5.0, 50.0, 500.0):
        print(f"  steady at {base:>5.0f} ms: d_hat = {composite(base, base):+.4f}")
    print("  A full queue that stays full looks exactly like an empty one.")

    banner("3. The default grid")
    cfg = QuantizerConfig.uniform(-2.0, 2.0, -0.5, 0.5)
    print(f"  delay axis:  {cfg.n_d} buckets over [{cfg.d_hat_edges[0]}, {cfg.d_hat_edges[-1]}]")
    print(f"  window axis: {cfg.n_w} buckets over [{cfg.w_hat_edges[0]}, {cfg.w_hat_edges[-1]}]")
    print(f"  states:      {cfg.n_states}")
    d_idx = cfg.d_bucket(composite(200.0, 100.0))
    w_idx = cfg.w_bucket(composite(12.0, 10.0))
    print(f"  (100->200 ms, 10->12 pkts) lands in state (d_idx={d_idx}, w_idx={w_idx})")
    print(
        f"  bucket midpoint: d_hat={cfg.d_midpoint(d_idx):+.3f}, "
        f"w_hat={cfg.w_midpoint(w_idx):+.3f}"
    )

    banner("4. Fitting edges to observed behavior")
    rng = np.random.default_rng(42)
    # A controller that mostly sits still but occasionally swings hard.
    d_obs = np.concatenate([
        rng.normal(0.0, 0.05, size=800),
        rng.normal(1.2, 0.3, size=100),
        rng.normal(-0.8, 0.2, size=100),
    ])
    w_obs = rng.normal(0.0, 0.1, size=1000)
    fitted = fit_config(d_obs, w_obs, n_d=11, n_w=21)
    print(f"  fitted delay edges:  [{fitted.d_hat_edges[0]:+.3f} ... {fitted.d_hat_edges[-1]:+.3f}]")
    print(f"  fitted window edges: [{fitted.w_hat_edges[0]:+.3f} ... {fitted.w_hat_edges[-1]:+.3f}]")
    print("  Outer edges pin the 1st/99th percentile so rare swings")
    print("  saturate the end buckets instead of stretching the grid.")
    inside = np.mean(
        (d_obs >= fitted.d_hat_edges[0]) & (d_obs < fitted.d_hat_edges[-1])
    )
    print(f"  fraction of samples strictly inside the fitted range: {inside:.3f}")


if __name__ == "__main__":
    main()
