"""Convergence analysis of trained models as Markov chains.

The full row table of a transition model is an ordinary
row-stochastic matrix over the flat composite states. This module
computes its stationary distribution by power iteration, mixing times
in total variation from one-hot starts, and divergence metrics between
the predicted stationary distribution and empirically observed state
frequencies.

Desk-scale training leaves states with no observed outflow. They get
one rule: a uniform row, so they diffuse. Such rows lead into the
states the runs visited, never out of them, so the analysis is of the
one closed communicating class the protocol visits: P's block on it,
stepped by a sparse product over the block's nonzeros. A chain with
more than one closed class, or whose class is periodic, has no unique
limit and is refused.
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
# (max norm), and then fails if pi P - pi is larger than RESIDUAL_TOL.
STATIONARY_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# The most steps either power iteration takes: towards pi, and the
# mixing sweep from the one-hot starts.
MAX_STEPS = 100_000
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
    item 4)."""
    if empty_rows != "uniform":
        raise ValueError(f"empty_rows must be 'uniform', got {empty_rows!r}")
    n = model.cfg.n_states
    P = model.full_rows.reshape(n, n).copy()
    P[P.sum(axis=1) == 0.0] = 1.0 / n
    return check_stochastic(P)


def _levels(adj: np.ndarray, start: int) -> np.ndarray:
    """BFS depth of each state from `start` along `adj`, -1 where unreached."""
    level = np.full(adj.shape[0], -1)
    level[start] = 0
    frontier, depth = np.array([start]), 0
    while frontier.size:
        depth += 1
        nxt = adj[frontier].any(axis=0) & (level < 0)
        level[nxt] = depth
        frontier = np.flatnonzero(nxt)
    return level


def _closed_class(P: np.ndarray) -> np.ndarray:
    """The states of P's one closed communicating class, sorted.

    A state whose forward reach all leads back to it spans a closed
    class; from any other state, the walk moves to a state its reach
    holds that does not lead back, which reaches strictly less. Every
    state leads into some closed class, so the class found first is
    the only one when every state reaches it; otherwise the states that
    do not are searched the same way for the next. The class must be
    aperiodic: its period is the gcd of level[u] + 1 - level[v] over its
    edges, with level the BFS depth from one of its states. Any other
    chain has no unique stationary distribution, or its distributions
    never settle, and raises AnalysisError.
    """
    adj = P > 0.0
    classes, leads = [], np.zeros(adj.shape[0], dtype=bool)
    while not leads.all():
        u = int(np.argmin(leads))  # a state that leads to no class found yet
        while True:
            level = _levels(adj, u)
            back = _levels(adj.T, u) >= 0
            escape = (level >= 0) & ~back
            if not escape.any():
                break
            u = int(np.argmax(np.where(escape, level, -1)))
        members = np.flatnonzero(level >= 0)
        classes.append((members, level[members]))
        leads |= back
    if len(classes) > 1:
        sizes = ", ".join(str(members.size) for members, _ in classes)
        raise AnalysisError(
            f"the chain has {len(classes)} closed classes, of {sizes} states; "
            "analysis needs exactly one"
        )
    ((members, level),) = classes
    rows, cols = np.nonzero(adj[np.ix_(members, members)])
    period = int(np.gcd.reduce(level[rows] + 1 - level[cols]))
    if period != 1:
        raise AnalysisError(f"the closed class has period {period}; analysis needs period 1")
    return members


def _stepper(P: np.ndarray, members: np.ndarray):
    """x -> x Q for the rows x of an array, with Q P's block on the
    class `members`: each row's products with Q's nonzeros, summed
    column by column with np.add.reduceat. Every column of an
    irreducible block holds a nonzero."""
    Q = P[np.ix_(members, members)]
    cols, rows = np.nonzero(Q.T)
    weights = Q[rows, cols]
    starts = np.flatnonzero(np.diff(cols, prepend=-1))

    def step(x: np.ndarray) -> np.ndarray:
        terms = x[..., rows]
        terms *= weights  # in place: a second array this size tripled the step
        return np.add.reduceat(terms, starts, axis=-1)

    return step


def _class_stationary(step, m: int) -> np.ndarray:
    """Stationary distribution of an m-state irreducible aperiodic block
    by power iteration from uniform."""
    pi = np.full(m, 1.0 / m)
    for _ in range(MAX_STEPS):
        nxt = step(pi)
        delta = float(np.abs(nxt - pi).max())
        pi = nxt
        if delta < STATIONARY_TOL:
            pi = pi / pi.sum()
            residual = float(np.abs(step(pi) - pi).max())
            if residual > RESIDUAL_TOL:
                raise ConvergenceError(
                    f"fixed-point residual {residual} exceeds {RESIDUAL_TOL}"
                )
            return pi
    raise ConvergenceError(f"power iteration did not converge in {MAX_STEPS} steps")


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of P's one closed class, padded with
    exact zeros to P's states.

    Power iteration from uniform over the class runs until successive
    distributions agree within STATIONARY_TOL in max norm, at most
    MAX_STEPS steps, then checks the fixed-point residual against
    RESIDUAL_TOL. A chain with more than one closed class, or a periodic
    one, raises AnalysisError.
    """
    P = check_stochastic(P)
    members = _closed_class(P)
    pi = np.zeros(P.shape[0])
    pi[members] = _class_stationary(_stepper(P, members), members.size)
    return pi


@dataclass(frozen=True)
class MixingReport:
    """Mixing time at one threshold, with the per-start profile."""

    t_mix: int
    per_start: np.ndarray


def mixing_times(P: np.ndarray, epsilons: Iterable[float]) -> dict[float, MixingReport]:
    """Mixing times of P's one closed class at several thresholds in
    one sweep.

    From each one-hot start x in the class, the mixing time is the
    smallest t with total variation distance ||P^t(x, .) - pi||_TV below
    epsilon; the chain's t_mix is the worst start, the first t with
    d(t) = max_x ||P^t(x, .) - pi||_TV below epsilon. A start outside
    the class has per_start -1. Starts are dropped from the iteration
    once they have resolved at the tightest threshold, since no start's
    distance grows. MAX_STEPS caps the power iteration for pi and the
    sweep alike.
    """
    P = check_stochastic(P)
    eps = [cells.check_real("epsilon", e, 0, open_lo=True) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    eps = sorted(set(eps), reverse=True)
    members = _closed_class(P)
    m = members.size
    step = _stepper(P, members)
    pi = _class_stationary(step, m)
    M = np.eye(m)
    hits = {e: np.full(m, -1, dtype=np.int64) for e in eps}
    tightest = hits[eps[-1]]
    active = np.arange(m)
    t = 0
    while active.size:
        if t > MAX_STEPS:
            raise ConvergenceError(
                f"mixing did not resolve at epsilon={eps[-1]} within {MAX_STEPS} steps"
            )
        tv = 0.5 * np.abs(M - pi).sum(axis=1)
        for e in eps:
            h = hits[e]
            fresh = (h[active] < 0) & (tv < e)
            h[active[fresh]] = t
        keep = tightest[active] < 0
        active, M = active[keep], step(M[keep])
        t += 1
    reports = {}
    for e, h in hits.items():
        per_start = np.full(P.shape[0], -1, dtype=np.int64)
        per_start[members] = h
        reports[e] = MixingReport(t_mix=int(h.max()), per_start=per_start)
    return reports


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


def stationary_fit(
    logs: Iterable[EpochLog], cfg: QuantizerConfig, pi: np.ndarray, discard: int = 0
) -> dict:
    """How closely runs' states follow pi: `epochs_used`, the states the
    logs keep after each drops `discard` (state_visits), and
    `kl_empirical_vs_stationary` and `max_abs_diff` of the mean of the
    logs' visit frequencies against pi."""
    visits = [state_visits(log, cfg, discard) for log in logs]
    if not visits:
        raise AnalysisError("need at least one log")
    empirical = np.mean([v / v.sum() for v in visits], axis=0)
    return {
        "epochs_used": int(sum(v.sum() for v in visits)),
        "kl_empirical_vs_stationary": kl_divergence(empirical, pi),
        "max_abs_diff": max_abs_diff(empirical, pi),
    }
