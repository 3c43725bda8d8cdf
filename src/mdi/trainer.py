"""From epoch logs to a quadrant-structured transition model.

A controller run is one columnar EpochLog: the epoch time, mean delay
and window in effect, one array each, and nothing else. A run's states
follow from the log and a quantizer grid, so they are derived where
they are used: derive_states buckets the composites (d_hat, w_hat) of
every epoch after the first, against its predecessor, into state
indices (d_idx, w_idx). Transitions are counted as consecutive state
pairs with one bincount over the flat pair index, into a 4-D tensor
indexed (k, l, r, v): (current delay bucket, current window bucket,
next delay bucket, next window bucket). A model holds one such
tensor, read-only, and three row tables read off it, each built on
first use:

* quadrant rows p(v | k, l, r): within the quadrant selected by the pair
  of delay buckets (k, r), each window row l is normalized across the
  next-window cells v. This is what the runtime controller samples.
* quadrant marginal rows p(v | k, r): the same with the current window
  bucket summed out, the runtime's fallback for an unseen (k, l, r) row.
* full rows p(r, v | k, l): each (k, l) state's outgoing mass normalized
  across all (r, v), giving an ordinary row-stochastic chain for
  analysis.

Runs never blend: transition counting restarts at every run boundary.

Models serialize to a line-oriented text format ("MDIMODEL v1") holding
the grid edges plus the sparse nonzero counts, one "k l r v count" line
per cell in increasing (k, l, r, v) order, with a declared total so
truncated files fail loudly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterator

import numpy as np

from .quantizer import QuantizerConfig, bucket, composite_steps


class ModelFormatError(ValueError):
    """A serialized model violated the MDIMODEL format."""


# Every column of an epoch log, in the order the epoch CSV lists them.
COLUMN_DTYPES = {
    "t_ms": np.int64,
    "delay_ms": np.float64,
    "window_pkts": np.float64,
}


@dataclass(frozen=True, eq=False)
class EpochLog:
    """One controller run, one column per field.

    delay_ms is the mean ACKed delay observed during each epoch and
    window_pkts the window that was in effect while it elapsed.

    Iterating yields one row tuple (t_ms, delay_ms, window_pkts) of
    Python scalars per epoch, so two rows compare equal exactly when
    their values do; compare logs by their rows.
    """

    t_ms: np.ndarray
    delay_ms: np.ndarray
    window_pkts: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in COLUMN_DTYPES.items():
            col = np.asarray(getattr(self, name), dtype=dtype)
            if col.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            object.__setattr__(self, name, col)
        n = self.t_ms.size
        if self.delay_ms.size != n or self.window_pkts.size != n:
            raise ValueError("t_ms, delay_ms and window_pkts must have equal lengths")
        if not (np.isfinite(self.delay_ms) & (self.delay_ms > 0.0)).all():
            raise ValueError("delay_ms must be finite and > 0")
        if not (np.isfinite(self.window_pkts) & (self.window_pkts >= 1.0)).all():
            raise ValueError("window_pkts must be finite and >= 1")

    def __len__(self) -> int:
        return self.t_ms.size

    def __iter__(self) -> Iterator[tuple]:
        return zip(self.t_ms.tolist(), self.delay_ms.tolist(), self.window_pkts.tolist())

    @cached_property
    def composites(self) -> tuple[np.ndarray, np.ndarray]:
        """(d_hat, w_hat) of every epoch after the first, from the raw columns."""
        return composite_steps(self.delay_ms), composite_steps(self.window_pkts)


def derive_states(log: EpochLog, cfg: QuantizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(d_idx, w_idx) of every epoch after the first, on cfg's grid.

    Each state buckets the composites of an epoch against its
    predecessor, so the first epoch has none.
    """
    if len(log) < 2:
        raise ValueError(f"need at least 2 epoch records, got {len(log)}")
    d_hat, w_hat = log.composites
    return bucket(d_hat, cfg.d_hat_edges), bucket(w_hat, cfg.w_hat_edges)


def _rows(counts: np.ndarray) -> np.ndarray:
    """Counts divided by their sums over the last axis; empty rows all-zero."""
    counts = counts.astype(np.float64)
    sums = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(sums > 0, counts / sums, 0.0)


class TransitionModel:
    """Transition counts over the composite state grid, plus row tables.

    A model is a value: the counts are copied at construction and are
    read-only, so each table, built from them on first use, stays valid.
    """

    def __init__(self, cfg: QuantizerConfig, counts=None) -> None:
        shape = (cfg.n_d, cfg.n_w, cfg.n_d, cfg.n_w)
        if counts is None:
            counts = np.zeros(shape, dtype=np.uint64)
        counts = np.array(counts, dtype=np.uint64)
        if counts.shape != shape:
            raise ValueError(f"counts must have shape {shape}, got {counts.shape}")
        counts.flags.writeable = False
        self.cfg = cfg
        self.counts = counts

    @property
    def total_transitions(self) -> int:
        # Summed as Python ints: a uint64 sum wraps past 2**64.
        return sum(self.counts.ravel().tolist())

    @cached_property
    def quadrant_rows(self) -> np.ndarray:
        """p(v | k, l, r), shape (n_d, n_w, n_d, n_w); empty rows all-zero."""
        return _rows(self.counts)

    @cached_property
    def full_rows(self) -> np.ndarray:
        """p(r, v | k, l), shape (n_d, n_w, n_d * n_w); empty rows all-zero."""
        return _rows(self.counts.reshape(self.cfg.n_d, self.cfg.n_w, -1))

    @cached_property
    def quadrant_marginal_rows(self) -> np.ndarray:
        """p(v | k, r) with the window bucket marginalized out,
        shape (n_d, n_d, n_w)."""
        # Summed in float64: a uint64 sum wraps past 2**64.
        return _rows(self.counts.astype(np.float64).sum(axis=1))

    def source_state_count(self) -> int:
        """Number of (k, l) states with at least one outgoing transition."""
        return int(np.count_nonzero(self.counts.any(axis=(2, 3))))

    def empty_quadrant_row_fraction(self) -> float:
        """Fraction of (k, l, r) rows that were never observed."""
        observed = self.counts.any(axis=3)
        return float(np.count_nonzero(~observed) / observed.size)


def count_transitions(cfg: QuantizerConfig, d_idx, w_idx) -> np.ndarray:
    """Consecutive state pairs of one run, shape (n_d, n_w, n_d, n_w).

    The run is given as its two state-index columns. Counting one run at
    a time keeps runs from chaining into each other.
    """
    n_d, n_w = cfg.n_d, cfg.n_w
    d_idx = np.asarray(d_idx, dtype=np.int64)
    w_idx = np.asarray(w_idx, dtype=np.int64)
    if d_idx.ndim != 1 or d_idx.shape != w_idx.shape:
        raise ValueError("need two equal-length state-index columns")
    if ((d_idx < 0) | (d_idx >= n_d) | (w_idx < 0) | (w_idx >= n_w)).any():
        raise ValueError(f"state outside {n_d}x{n_w} grid")
    flat = d_idx * n_w + w_idx
    n = cfg.n_states
    pairs = np.bincount(flat[:-1] * n + flat[1:], minlength=n * n)
    return pairs.reshape(n_d, n_w, n_d, n_w)


_MAGIC = "MDIMODEL v1"


def _format_edge(e: float) -> str:
    return repr(float(e))


def save_model(model: TransitionModel, sink: BinaryIO) -> None:
    """Serialize edges and sparse counts; byte-identical for equal models."""
    cfg = model.cfg
    lines = [
        _MAGIC,
        f"{cfg.n_d} {cfg.n_w} {model.total_transitions}",
        " ".join(_format_edge(e) for e in cfg.d_hat_edges),
        " ".join(_format_edge(e) for e in cfg.w_hat_edges),
    ]
    nz = np.argwhere(model.counts)
    for k, l, r, v in nz:
        c = int(model.counts[k, l, r, v])
        lines.append(f"{k} {l} {r} {v} {c}")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def load_model(source: BinaryIO) -> TransitionModel:
    """Parse a serialized model, validating structure and count totals."""
    text = source.read().decode("utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ModelFormatError(f"bad magic line, expected {_MAGIC!r}")
    if len(lines) < 4:
        raise ModelFormatError("file truncated before edge lines")

    header = lines[1].split()
    if len(header) != 3:
        raise ModelFormatError(f"header needs 'n_d n_w total', got {lines[1]!r}")
    try:
        n_d, n_w, declared_total = values = [int(x) for x in header]
    except ValueError:
        values = []
    # Only the plain decimal form save_model writes: no '+', no '_'.
    if [str(x) for x in values] != header:
        raise ModelFormatError(f"non-integer header field in {lines[1]!r}")
    if declared_total < 0:
        raise ModelFormatError(f"negative transition total {declared_total}")

    def parse_edges(line: str, expect: int, name: str) -> tuple[float, ...]:
        parts = line.split()
        if len(parts) != expect:
            raise ModelFormatError(f"{name}: expected {expect} edges, got {len(parts)}")
        try:
            edges = [float(p) for p in parts]
        except ValueError:
            edges = []
        # Only the repr save_model writes: no '_', no spelling repr differs from.
        if [repr(e) for e in edges] != parts:
            raise ModelFormatError(f"{name}: non-numeric edge")
        return tuple(edges)

    d_edges = parse_edges(lines[2], n_d + 1, "d_hat_edges")
    w_edges = parse_edges(lines[3], n_w + 1, "w_hat_edges")
    try:
        cfg = QuantizerConfig(d_edges, w_edges)
    except ValueError as exc:
        raise ModelFormatError(f"invalid quantizer config: {exc}") from None

    counts = np.zeros((n_d, n_w, n_d, n_w), dtype=np.uint64)
    prev = (-1,)
    for lineno, line in enumerate(lines[4:], start=5):
        fields = re.fullmatch(r"(\d+) (\d+) (\d+) (\d+) (\d+)", line, re.ASCII)
        if fields is None:
            raise ModelFormatError(
                f"line {lineno}: expected 'k l r v count' in ASCII digits and single spaces"
            )
        k, l, r, v, c = map(int, fields.groups())
        if not (k < n_d and r < n_d and l < n_w and v < n_w):
            raise ModelFormatError(f"line {lineno}: index out of range")
        if not 0 < c < 2**64:
            raise ModelFormatError(f"line {lineno}: count must be > 0 and fit 64 bits, got {c}")
        if (k, l, r, v) <= prev:
            raise ModelFormatError(
                f"line {lineno}: cells must be listed once each, "
                "in increasing (k, l, r, v) order"
            )
        prev = (k, l, r, v)
        counts[prev] = c
    model = TransitionModel(cfg, counts)
    if model.total_transitions != declared_total:
        raise ModelFormatError(
            f"count total mismatch: header says {declared_total}, "
            f"entries sum to {model.total_transitions}"
        )
    return model
