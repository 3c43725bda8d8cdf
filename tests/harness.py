"""Shared fixtures-in-code: trace families, training runs, and held-out
comparisons at the scale the acceptance checks operate on.

Each baseline gets a trace family inside its adaptation bandwidth. The
verus-like controller moves multiplicatively and recovers from large
capacity swings within a couple of epochs, so it trains on hard traces
(3-50 Mbps redrawn every 2 s). The copa-like controller takes a fixed
additive step per epoch; against swings it cannot follow, its own
behavior is dominated by chasing, so it trains on a gentler family
(8-16 Mbps every 5 s) and uses a one-RTT epoch, which keeps its
feedback loop single-lag and its delay oscillation visible to the
quantizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from mdi.controllers import Controller, CopaLike, VerusLike
from mdi import linksim
from mdi.linksim import LinkParams, SimResult, run_simulation
from mdi.pipeline import derive_run_seed, train_on_traces
from mdi.runtime import MdiController
from mdi.trace import LinkTrace, SyntheticTraceSpec, gen_rapidly_changing
from mdi.trainer import EpochLog, TransitionModel

MASTER_SEED = 7
PROP_MS = 30
QUEUE_PKTS = 2000
DURATION_S = 60
N_TRAIN = 50
N_HELD = 5
# The link every harness run uses; each run adds its trace and seed.
LINK = dict(
    one_way_prop_ms=PROP_MS, queue_capacity_pkts=QUEUE_PKTS, duration_ms=DURATION_S * 1000
)


@dataclass(frozen=True)
class HarnessSpec:
    """One baseline's training and evaluation setup."""

    label: str
    make_controller: Callable[[], Controller]
    epoch_ms: int
    rate_min_mbps: float
    rate_max_mbps: float
    segment_s: float


def make_verus() -> VerusLike:
    # A tight delay budget (lam 1.2) plus a gentle cut (0.9) keeps the
    # sawtooth short, and the small proportional increase term makes
    # recovery take similar epoch counts at every window scale.
    return VerusLike(
        lam=1.2, dec_mult=0.9, rise_floor_ms=1.0,
        inc_frac=0.06, epoch_ms=20,
    )


def make_copa() -> CopaLike:
    # velocity 3 with a one-RTT epoch gives a constant 6-packet step,
    # large enough to swing queueing delay by whole milliseconds.
    return CopaLike(velocity=3.0, epoch_ms=60)


VERUS = HarnessSpec(
    label="verus-like", make_controller=make_verus, epoch_ms=20,
    rate_min_mbps=3.0, rate_max_mbps=50.0, segment_s=2.0,
)

COPA = HarnessSpec(
    label="copa-like", make_controller=make_copa, epoch_ms=60,
    rate_min_mbps=8.0, rate_max_mbps=16.0, segment_s=5.0,
)


def build_traces(spec: HarnessSpec, count: int = N_TRAIN + N_HELD):
    out = []
    for i in range(count):
        ts = SyntheticTraceSpec(
            duration_s=DURATION_S,
            segment_s=spec.segment_s,
            rate_min_mbps=spec.rate_min_mbps,
            rate_max_mbps=spec.rate_max_mbps,
            seed=1000 + i,
        )
        out.append((f"t{i:02d}", gen_rapidly_changing(ts)))
    return out


def train(spec: HarnessSpec, traces) -> tuple[TransitionModel, dict]:
    return train_on_traces(traces, spec.make_controller, master_seed=MASTER_SEED, **LINK)


def run_native(spec: HarnessSpec, name: str, trace: LinkTrace) -> SimResult:
    params = LinkParams(trace=trace, seed=derive_run_seed(MASTER_SEED, name + ":n", 0), **LINK)
    return run_simulation(params, spec.make_controller())


def run_mdi(
    spec: HarnessSpec, model: TransitionModel, name: str, trace: LinkTrace
) -> tuple[SimResult, EpochLog, MdiController]:
    ctrl = MdiController(
        model,
        epoch_ms=spec.epoch_ms,
        seed=derive_run_seed(MASTER_SEED, name + ":m", 1),
    )
    params = LinkParams(trace=trace, seed=derive_run_seed(MASTER_SEED, name + ":m", 0), **LINK)
    result = run_simulation(params, ctrl)
    return result, result.epochs, ctrl


@dataclass
class HeldRun:
    name: str
    trace: LinkTrace
    native: SimResult
    mdi: SimResult
    mdi_records: EpochLog
    mdi_ctrl: MdiController


@dataclass
class Bundle:
    """A trained model with its trace corpus and held-out comparisons."""

    spec: HarnessSpec
    traces: list
    model: TransitionModel
    summary: dict
    held: list[HeldRun] = field(default_factory=list)
    train_s: float = 0.0
    held_s: float = 0.0


def build_bundle(spec: HarnessSpec) -> Bundle:
    traces = build_traces(spec)
    t0 = time.perf_counter()
    model, summary = train(spec, traces[:N_TRAIN])
    t1 = time.perf_counter()
    bundle = Bundle(
        spec=spec, traces=traces, model=model, summary=summary,
        train_s=t1 - t0,
    )
    for name, trace in traces[N_TRAIN:]:
        native = run_native(spec, name, trace)
        mdi_res, records, ctrl = run_mdi(spec, model, name, trace)
        bundle.held.append(
            HeldRun(
                name=name, trace=trace, native=native,
                mdi=mdi_res, mdi_records=records, mdi_ctrl=ctrl,
            )
        )
    bundle.held_s = time.perf_counter() - t1
    return bundle


def pooled_median_gap(bundle: Bundle) -> tuple[float, float]:
    """Relative gaps of pooled median throughput and median delay,
    model run vs native run, across all held traces."""
    pooled = {"native": [], "mdi": []}
    for run in bundle.held:
        for side, result in (("native", run.native), ("mdi", run.mdi)):
            pooled[side].append(linksim.run_samples(result, result.duration_ms, result.mtu_bytes))

    def median(side: str, key: str) -> float:
        return float(np.median(np.concatenate([s[key] for s in pooled[side]])))

    nt, mt = median("native", "throughput_mbps"), median("mdi", "throughput_mbps")
    nd, md = median("native", "delay_ms"), median("mdi", "delay_ms")
    return abs(mt - nt) / nt, abs(md - nd) / nd


def decrease_share_in_rise_columns(model: TransitionModel) -> float:
    """Fraction of transition mass landing on window-decrease cells,
    restricted to next-delay columns whose whole bucket is a rise.

    Columns straddling zero mix flat and rising delay, so only columns
    with a non-negative lower edge count as delay-increase feedback.
    Cells are classified by the sign of their window-bucket midpoint.
    """
    cfg = model.cfg
    counts = model.counts.astype(np.float64)
    inc_mass = 0.0
    dec_mass = 0.0
    for r in range(cfg.n_d):
        if cfg.d_hat_edges[r] < 0:
            continue
        for v in range(cfg.n_w):
            mass = float(counts[:, :, r, v].sum())
            if mass == 0.0:
                continue
            mid = cfg.w_midpoint(v)
            if mid < 0:
                dec_mass += mass
            elif mid > 0:
                inc_mass += mass
    total = inc_mass + dec_mass
    return dec_mass / total if total else float("nan")
