"""Output checks. Each returns a list of problems; an empty list passes.

The analysis and model functions are bound here at import time, before
any layer is wrapped, so a traced run never times its own checks.
"""

from __future__ import annotations

import io

import numpy as np

from mdi.markov import AnalysisError, ConvergenceError, stationary, to_stochastic
from mdi.trainer import ModelFormatError, load_model, save_model

ROW_TOL = 1e-9
RESIDUAL_TOL = 1e-8


def sim_problems(params, result) -> list[str]:
    """Conservation, the trace's per-second capacity ceiling, FIFO order."""
    problems = []
    if result.sent_pkts != (
        result.delivered_pkts + result.dropped_pkts + result.queued_end_pkts
    ):
        problems.append(
            f"conservation: sent {result.sent_pkts} != delivered "
            f"{result.delivered_pkts} + dropped {result.dropped_pkts} + "
            f"queued {result.queued_end_pkts}"
        )
    delivered = result.delivered_ms[result.delivered_ms >= 0]
    if np.any(np.diff(delivered) < 0):
        problems.append("FIFO: a later packet was delivered before an earlier one")
    duration = params.duration_ms
    if delivered.size and (delivered[0] < 0 or delivered[-1] >= duration):
        problems.append("delivery outside the run")
        return problems
    # The emulator replays the trace shifted by its last timestamp.
    opp = params.trace.opportunities
    span = int(opp[-1])
    copies = [opp]
    while span > 0 and copies[-1][0] + span < duration:
        copies.append(copies[-1] + span)
    opps = np.concatenate(copies)
    n_sec = -(-duration // 1000)
    cap = np.bincount(opps[opps < duration] // 1000, minlength=n_sec)
    got = np.bincount(delivered // 1000, minlength=n_sec)
    over = np.flatnonzero(got > cap)
    if over.size:
        sec = int(over[0])
        problems.append(
            f"capacity: second {sec} delivered {int(got[sec])} > {int(cap[sec])} opportunities"
        )
    return problems


def model_bytes(model) -> bytes:
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def model_problems(model) -> tuple[list[str], bytes]:
    """Stochastic rows, a save->load->save byte round trip and the
    stationary residual; also returns the saved bytes for digests."""
    problems = []
    nonempty = model.counts.sum(axis=3) > 0
    quad = model.quadrant_rows.sum(axis=3)
    if np.abs(quad[nonempty] - 1.0).max(initial=0.0) > ROW_TOL or quad[~nonempty].any():
        problems.append("quadrant rows are not stochastic")
    full_nonempty = model.counts.sum(axis=(2, 3)) > 0
    full = model.full_rows.sum(axis=2)
    if np.abs(full[full_nonempty] - 1.0).max(initial=0.0) > ROW_TOL or full[~full_nonempty].any():
        problems.append("full rows are not stochastic")
    first = model_bytes(model)
    try:
        again = model_bytes(load_model(io.BytesIO(first)))
    except ModelFormatError as exc:
        problems.append(f"model does not load back: {exc}")
    else:
        if again != first:
            problems.append("save -> load -> save is not byte-identical")
    try:
        P = to_stochastic(model, empty_rows="uniform")
        pi = stationary(P)
    except (AnalysisError, ConvergenceError) as exc:
        problems.append(f"stationary: {exc}")
    else:
        problems.extend(residual_problems(P, pi))
    return problems, first


def residual_problems(P, pi) -> list[str]:
    residual = float(np.abs(pi @ P - pi).max())
    if residual > RESIDUAL_TOL:
        return [f"stationary residual {residual} > {RESIDUAL_TOL}"]
    return []


def packet_csv_problems(result, log) -> list[str]:
    """Read-back packet log equals the run's arrays."""
    bad = [
        name
        for name in ("sent_ms", "delivered_ms", "acked_ms", "rtt_ms", "dropped")
        if not np.array_equal(getattr(result, name), getattr(log, name))
    ]
    return [f"packet CSV read-back differs in {', '.join(bad)}"] if bad else []


def epoch_csv_problems(records, back) -> list[str]:
    """Read-back epoch log equals the records written."""
    if len(back) != len(records):
        return [f"epoch CSV read back {len(back)} records, wrote {len(records)}"]
    for i, (a, b) in enumerate(zip(records, back)):
        if a != b:
            return [f"epoch CSV record {i} differs: {a!r} vs {b!r}"]
    return []
