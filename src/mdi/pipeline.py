"""Batch training: many controller runs pooled into one transition model.

The pipeline runs a fresh controller over every trace, computes each
run's composite columns once, pools them to fit one quantizer grid, then
derives and counts each run's epoch log separately so transitions never
straddle a run boundary. Per-run seeds are derived from the master seed
plus the trace name and run index, so results do not depend on
incidental ordering tricks and re-running with the same inputs is
byte-stable.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np

from .controllers import Controller
from .linksim import LinkParams, SimResult, run_simulation
from .quantizer import fit_config
from .trace import LinkTrace
from .trainer import EpochLog, TransitionModel, count_transitions, derive_states


def derive_run_seed(master_seed: int, tag: str, index: int) -> int:
    """Stable 63-bit seed for one run, from the master seed and run identity."""
    digest = hashlib.sha256(f"{master_seed}:{tag}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def train_on_traces(
    traces: Sequence[tuple[str, LinkTrace]],
    make_controller: Callable[[], Controller],
    *,
    n_d: int = 11,
    n_w: int = 21,
    master_seed: int = 1,
    runs_per_trace: int = 1,
    **link,
) -> tuple[TransitionModel, dict]:
    """Train a transition model from controller runs over named traces.

    The remaining keywords are LinkParams fields other than trace and
    seed (each run's seed is derived from master_seed). Returns the
    model and a summary of what it was trained from: the number of runs
    and of epochs. The model reports its own transitions and sparsity.
    """
    if not traces:
        raise ValueError("need at least one trace to train on")
    if runs_per_trace < 1:
        raise ValueError(f"runs_per_trace must be >= 1, got {runs_per_trace}")

    run_logs: list[EpochLog] = []
    for name, trace in traces:
        for run_index in range(runs_per_trace):
            seed = derive_run_seed(master_seed, name, run_index)
            params = LinkParams(trace=trace, seed=seed, **link)
            result = run_simulation(params, make_controller())
            run_logs.append(result.epochs)

    d_pool, w_pool = zip(*(log.composites for log in run_logs))
    cfg = fit_config(np.concatenate(d_pool), np.concatenate(w_pool), n_d=n_d, n_w=n_w)

    counts = np.zeros((n_d, n_w, n_d, n_w), dtype=np.int64)
    for log in run_logs:
        if len(log) >= 2:
            counts += count_transitions(cfg, *derive_states(log, cfg))
    summary = {"runs": len(run_logs), "epochs": sum(len(log) for log in run_logs)}
    return TransitionModel(cfg, counts), summary


def run_and_derive(
    trace: LinkTrace, controller: Controller, cfg, **link
) -> tuple[SimResult, EpochLog]:
    """Run one controller and return the result plus its epoch log.

    The keywords are LinkParams fields other than trace. The log is
    result.epochs: its states are derived where they are used, so cfg
    is not read.
    """
    result = run_simulation(LinkParams(trace=trace, **link), controller)
    return result, result.epochs
