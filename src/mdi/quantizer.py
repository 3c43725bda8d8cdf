"""Composite delay/window observations and their quantization grid.

A controller run is summarized once per epoch by two dimensionless
composites. Each blends the relative change of a quantity with the
log-magnitude of its current value, so "small change at a large value"
and "large change at a small value" land in different regions:

    d_hat = (d_curr / d_prev - 1) * log10(d_curr)      delays in ms
    w_hat = (w_curr / w_prev - 1) * log10(w_curr)      windows in packets

The composites are bucketed on a fixed grid fitted from data: edges span
the 1st..99th percentile of the observed population with uniform spacing
in between, so rare extremes do not stretch the grid. Buckets are
half-open [e_i, e_{i+1}) and out-of-range values clamp to the first or
last bucket. A (d_idx, w_idx) pair is one discrete state; flat index is
d_idx * n_w + w_idx.

composite() is the only place the formula is written, for both axes;
composite_steps maps it over a column of an epoch log. bucket() is the
one bucketing rule, which d_bucket/w_bucket apply to one value with
bisect.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cells

N_D, N_W = 11, 21  # the default grid: delay buckets by window buckets


class FitError(ValueError):
    """Bucket edges could not be fitted to the observation sample."""


def composite(curr: float, prev: float) -> float:
    """The composite of one value against its predecessor, unchecked."""
    return (curr / prev - 1.0) * math.log10(curr)


def composite_steps(values: np.ndarray) -> np.ndarray:
    """Composite of every element against the one before it (len - 1 values).

    Maps the scalar formula with math.log10 over the elements: np.log10
    can differ from it by one ulp, which would move bucket edges and CSV
    bytes.
    """
    v = np.asarray(values, dtype=np.float64).tolist()
    return np.array(list(map(composite, v[1:], v[:-1])), dtype=np.float64)


def bucket(values, edges: Sequence[float]) -> np.ndarray:
    """Bucket index of each value on half-open [e_i, e_{i+1}) buckets.

    Values below the first edge or at/above the last clamp to the end
    buckets; non-finite values are rejected.
    """
    values = np.asarray(cells.check_reals("values", values), dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("cannot bucket non-finite values")
    # Searching the interior edges only is bisect_right(edges, x) - 1
    # with the clamp built in.
    return np.searchsorted(edges[1:-1], values, side="right")


def _bucket_one(value: float, edges: Sequence[float]) -> int:
    """bucket() for one value, without numpy's per-call overhead."""
    if not math.isfinite(value):
        raise ValueError("cannot bucket non-finite values")
    return bisect_right(edges, value, 1, len(edges) - 1) - 1


def _check_edges(edges: tuple[float, ...], name: str) -> None:
    if len(edges) < 3:
        raise ValueError(f"{name}: need at least 3 edges (2 buckets), got {len(edges)}")
    for a, b in zip(edges, edges[1:]):
        if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
            raise ValueError(f"{name}: edges must be finite and strictly increasing")


@dataclass(frozen=True)
class QuantizerConfig:
    """Bucket edges for both composite dimensions.

    Edges are stored as tuples so configs compare and hash by value;
    each axis has one bucket fewer than it has edges.
    """

    d_hat_edges: tuple[float, ...]
    w_hat_edges: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("d_hat_edges", "w_hat_edges"):
            edges = np.asarray(cells.check_reals(name, getattr(self, name)), dtype=np.float64)
            object.__setattr__(self, name, tuple(edges.tolist()))
            _check_edges(getattr(self, name), name)

    @classmethod
    def uniform(
        cls,
        d_lo: float,
        d_hi: float,
        w_lo: float,
        w_hi: float,
        n_d: int = N_D,
        n_w: int = N_W,
    ) -> "QuantizerConfig":
        """Evenly spaced edges over explicit ranges, at least 2 buckets each."""
        names = ("d_lo", "d_hi", "w_lo", "w_hi")
        d_lo, d_hi, w_lo, w_hi = map(cells.check_real, names, (d_lo, d_hi, w_lo, w_hi))
        d_edges = np.linspace(d_lo, d_hi, cells.check_int("n_d", n_d, 2) + 1)
        w_edges = np.linspace(w_lo, w_hi, cells.check_int("n_w", n_w, 2) + 1)
        return cls(tuple(d_edges), tuple(w_edges))

    @property
    def n_d(self) -> int:
        return len(self.d_hat_edges) - 1

    @property
    def n_w(self) -> int:
        return len(self.w_hat_edges) - 1

    @property
    def n_states(self) -> int:
        return self.n_d * self.n_w

    def d_bucket(self, d_hat: float) -> int:
        """Bucket index for a delay composite; out-of-range values clamp."""
        return _bucket_one(d_hat, self.d_hat_edges)

    def w_bucket(self, w_hat: float) -> int:
        """Bucket index for a window composite; out-of-range values clamp."""
        return _bucket_one(w_hat, self.w_hat_edges)

    def d_midpoint(self, d_idx: int) -> float:
        if not 0 <= d_idx < self.n_d:
            raise ValueError(f"d_idx out of range: {d_idx}")
        return 0.5 * (self.d_hat_edges[d_idx] + self.d_hat_edges[d_idx + 1])

    def w_midpoint(self, w_idx: int) -> float:
        if not 0 <= w_idx < self.n_w:
            raise ValueError(f"w_idx out of range: {w_idx}")
        return 0.5 * (self.w_hat_edges[w_idx] + self.w_hat_edges[w_idx + 1])


def fit_config(
    d_hat: np.ndarray,
    w_hat: np.ndarray,
    n_d: int = N_D,
    n_w: int = N_W,
) -> QuantizerConfig:
    """Fit bucket edges to the pooled composite columns.

    Outer edges sit at the 1st and 99th percentile of each composite so
    the grid resolves the bulk of the distribution; interior edges are
    evenly spaced. Needs at least 100 finite observations and a
    non-degenerate spread on both axes.
    """
    d = np.asarray(cells.check_reals("d_hat", d_hat), dtype=np.float64)
    w = np.asarray(cells.check_reals("w_hat", w_hat), dtype=np.float64)
    if d.ndim != 1 or d.shape != w.shape:
        raise ValueError(
            f"need two equal-length composite columns, got {d.shape} and {w.shape}"
        )
    if d.size < 100:
        raise FitError(f"need at least 100 observations to fit, got {d.size}")
    if not (np.isfinite(d).all() and np.isfinite(w).all()):
        raise ValueError("composites must be finite")
    d_lo, d_hi = np.percentile(d, [1.0, 99.0])
    w_lo, w_hi = np.percentile(w, [1.0, 99.0])
    if not d_lo < d_hi:
        raise FitError(f"degenerate d_hat sample: p1 == p99 == {float(d_lo)!r}")
    if not w_lo < w_hi:
        raise FitError(f"degenerate w_hat sample: p1 == p99 == {float(w_lo)!r}")
    return QuantizerConfig.uniform(d_lo, d_hi, w_lo, w_hi, n_d=n_d, n_w=n_w)
