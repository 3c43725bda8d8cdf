"""Convergence analysis of trained models as Markov chains.

The full row table of a transition model is an ordinary
row-stochastic matrix over the flat composite states. This module
computes its stationary distribution by power iteration, mixing times
from worst-case one-hot starts, and divergence metrics between the
predicted stationary distribution and empirically observed state
frequencies.

Desk-scale training leaves states with no observed outflow. They get
one rule: a uniform row, so they diffuse. While a state was never
entered, that does not make the chain irreducible: no state the runs
visited leads to it, so the chain analyzed is not the one the
protocol visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import cells
from .quantizer import QuantizerConfig
from .trainer import EpochLog, TransitionModel, derive_states


class AnalysisError(ValueError):
    """Analysis input did not satisfy its contract."""


class ConvergenceError(RuntimeError):
    """An iterative computation hit its cap before converging."""


# How far a row or a distribution may sum from 1.
SUM_TOL = 1e-9
# Power iteration stops when successive distributions agree this closely
# (max norm), and then fails if pi @ P - pi is larger than RESIDUAL_TOL.
STATIONARY_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# kl_divergence clips q below at this before renormalizing.
KL_FLOOR = 1e-9


def check_stochastic(P: np.ndarray) -> np.ndarray:
    """Validate a row-stochastic matrix; returns it as float64."""
    P = np.asarray(cells.check_reals("P", P), dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise AnalysisError(f"expected a square matrix, got shape {P.shape}")
    if not np.all(np.isfinite(P)) or np.any(P < 0.0):
        raise AnalysisError("matrix entries must be finite and >= 0")
    row_err = np.abs(P.sum(axis=1) - 1.0).max()
    if row_err > SUM_TOL:
        raise AnalysisError(f"rows must sum to 1 within {SUM_TOL}, worst error {row_err}")
    return P


def check_distribution(p: np.ndarray) -> np.ndarray:
    """Validate a probability vector; returns it as float64."""
    p = np.asarray(cells.check_reals("p", p), dtype=np.float64)
    if p.ndim != 1:
        raise AnalysisError(f"expected a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise AnalysisError("probabilities must be finite and >= 0")
    if abs(float(p.sum()) - 1.0) > SUM_TOL:
        raise AnalysisError(f"probabilities must sum to 1 within {SUM_TOL}")
    return p


def to_stochastic(model: TransitionModel, empty_rows: str = "uniform") -> np.ndarray:
    """Full-row chain over flat states; a state with no observed outflow
    gets a uniform row. empty_rows accepts only "uniform": it is kept for
    the benchmark's callers, which pass it, and goes with them (ROADMAP
    item 3)."""
    if empty_rows != "uniform":
        raise ValueError(f"empty_rows must be 'uniform', got {empty_rows!r}")
    n = model.cfg.n_states
    P = model.full_rows.reshape(n, n).copy()
    P[P.sum(axis=1) == 0.0] = 1.0 / n
    return check_stochastic(P)


def lazy(P: np.ndarray) -> np.ndarray:
    """Half-self-loop transform (P + I) / 2; same stationary distribution,
    kills periodicity."""
    P = check_stochastic(P)
    return 0.5 * (P + np.eye(P.shape[0]))


def is_irreducible(P: np.ndarray) -> bool:
    """True when every state reaches every other along positive entries."""
    P = check_stochastic(P)
    adj = P > 0.0
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = np.flatnonzero(nxt)
    return bool(seen.all())


def stationary(P: np.ndarray, max_iter: int = 1_000_000) -> np.ndarray:
    """Stationary distribution by power iteration from uniform.

    Iterates until successive distributions agree within STATIONARY_TOL
    in max norm, then verifies the fixed-point residual against
    RESIDUAL_TOL. Periodic chains may never converge; wrap them with
    lazy() first.
    """
    P = check_stochastic(P)
    n = P.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pi @ P
        delta = float(np.abs(nxt - pi).max())
        pi = nxt
        if delta < STATIONARY_TOL:
            pi = pi / pi.sum()
            residual = float(np.abs(pi @ P - pi).max())
            if residual > RESIDUAL_TOL:
                raise ConvergenceError(
                    f"fixed-point residual {residual} exceeds {RESIDUAL_TOL}"
                )
            return pi
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} steps; "
        "the chain may be periodic, try lazy()"
    )


@dataclass(frozen=True)
class MixingReport:
    """Mixing time at one threshold, with the per-start profile."""

    t_mix: int
    per_start: np.ndarray


def mixing_times(
    P: np.ndarray,
    epsilons: Iterable[float],
    max_iter: int = 100_000,
) -> dict[float, MixingReport]:
    """Per-start mixing times at several thresholds in one sweep.

    For each one-hot start the mixing time is the smallest t where the
    distribution at t and at t+1 agree within epsilon in max norm; the
    chain's mixing time is the worst start. Rows are dropped from the
    iteration once they have resolved at the tightest threshold.
    """
    P = check_stochastic(P)
    eps = [cells.check_real("epsilon", e, 0, open_lo=True) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    eps = sorted(set(eps), reverse=True)
    n = P.shape[0]
    M = np.eye(n)
    hits = {e: np.full(n, -1, dtype=np.int64) for e in eps}
    tightest = hits[eps[-1]]
    active = np.arange(n)
    t = 0
    while active.size:
        if t > max_iter:
            raise ConvergenceError(
                f"mixing did not resolve at epsilon={eps[-1]} within {max_iter} steps"
            )
        stepped = M[active] @ P
        diff = np.abs(M[active] - stepped).max(axis=1)
        for e in eps:
            h = hits[e]
            fresh = (h[active] < 0) & (diff < e)
            h[active[fresh]] = t
        M[active] = stepped
        active = active[tightest[active] < 0]
        t += 1
    return {
        e: MixingReport(t_mix=int(h.max()), per_start=h.copy())
        for e, h in hits.items()
    }


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) in nats, flooring q's zeros so the result stays finite.

    q is clipped below at KL_FLOOR and renormalized; terms with p == 0
    contribute nothing.
    """
    p = check_distribution(p)
    q = check_distribution(q)
    if p.shape != q.shape:
        raise AnalysisError(f"shape mismatch: {p.shape} vs {q.shape}")
    qf = np.maximum(q, KL_FLOOR)
    qf = qf / qf.sum()
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / qf[mask])))


def max_abs_diff(p: np.ndarray, q: np.ndarray) -> float:
    """Largest per-state probability gap between two distributions."""
    p = check_distribution(p)
    q = check_distribution(q)
    if p.shape != q.shape:
        raise AnalysisError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(np.abs(p - q).max())


def state_visits(log: EpochLog, cfg: QuantizerConfig, discard: int = 0) -> np.ndarray:
    """Visit counts of an epoch log's states on cfg's grid.

    The first and the last epoch of a run have no state (derive_states
    says why); the first `discard` states are dropped as burn-in.
    """
    cells.check_int("discard", discard, 0)
    d_idx, w_idx = derive_states(log, cfg)
    kept = (d_idx * cfg.n_w + w_idx)[discard:]
    if not kept.size:
        raise AnalysisError(f"no states left after discarding {discard} of {d_idx.size}")
    return np.bincount(kept, minlength=cfg.n_states)


def empirical_distribution(log: EpochLog, cfg: QuantizerConfig, discard: int = 0) -> np.ndarray:
    """State-visit frequencies of an epoch log: its state_visits, normalized."""
    visits = state_visits(log, cfg, discard)
    return visits / visits.sum()
