"""From epoch logs to a quadrant-structured transition model.

A controller run is one columnar EpochLog: the epoch time, mean delay
and window in effect, one array each, and nothing else. A run's states
follow from the log and a quantizer grid, so they are derived where
they are used: derive_states buckets each epoch's delay composite and
the composite of the window move chosen after that delay, into state
indices (d_idx, w_idx). Transitions are counted as consecutive state
pairs with one bincount over the flat pair index, into a 4-D tensor
indexed (k, l, r, v): (current delay bucket, current window bucket,
next delay bucket, next window bucket). A model holds one such
tensor, read-only, and three tables read off it, each built on first
use:

* quadrant rows p(v | k, l, r): within the quadrant selected by the pair
  of delay buckets (k, r), each window row l is normalized across the
  next-window cells v.
* the decision table: for each (k, l, r), the tier the runtime walk
  takes and the CDF it samples, held as two plain arrays (an int8 tier
  per row, n_w floats of CDF per row). A seen row is EXACT and samples
  its quadrant row; an unseen row whose quadrant holds mass is MARGINAL
  and samples p(v | k, r), the quadrant with the window bucket summed
  out; a wholly unseen quadrant is HOLD, with an all-zero CDF.
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

from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Iterator

import numpy as np

from . import cells
from .quantizer import QuantizerConfig, bucket, composite_steps


class ModelFormatError(ValueError):
    """A serialized model violated the MDIMODEL format."""


# The runtime walk's tiers, per (k, l, r) row: sample the row itself,
# sample its quadrant with the window bucket summed out, or hold.
EXACT, MARGINAL, HOLD = 0, 1, 2

# Every column of an epoch log, in the order the epoch CSV lists them.
COLUMN_DTYPES = {
    "t_ms": np.int64,
    "delay_ms": np.float64,
    "window_pkts": np.float64,
}


@dataclass(frozen=True, eq=False)
class EpochLog:
    """One controller run, one column per field.

    A run logs each epoch that carried ACKs, in order: t_ms is its
    boundary (integers from 0, increasing), delay_ms the mean ACKed delay
    observed during it and window_pkts the window in effect while it
    elapsed. read_epoch_csv takes back every log these rules admit.

    Iterating yields one row tuple (t_ms, delay_ms, window_pkts) of
    Python scalars per epoch, so two rows compare equal exactly when
    their values do; compare logs by their rows.
    """

    t_ms: np.ndarray
    delay_ms: np.ndarray
    window_pkts: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in COLUMN_DTYPES.items():
            check = cells.check_ints if dtype is np.int64 else cells.check_reals
            col = np.asarray(check(name, getattr(self, name)), dtype=dtype)
            if col.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            object.__setattr__(self, name, col)
        n = self.t_ms.size
        if self.delay_ms.size != n or self.window_pkts.size != n:
            raise ValueError("t_ms, delay_ms and window_pkts must have equal lengths")
        t, delay, window = self.t_ms, self.delay_ms, self.window_pkts
        for rule, ok in (
            ("t_ms is negative or not above the row before", t > np.append(-1, t[:-1])),
            ("delay_ms must be finite and > 0", np.isfinite(delay) & (delay > 0.0)),
            ("window_pkts must be finite and >= 1", np.isfinite(window) & (window >= 1.0)),
        ):
            if not ok.all():
                raise ValueError(f"row {int(np.argmin(ok))}: {rule}")

    def __len__(self) -> int:
        return self.t_ms.size

    def __iter__(self) -> Iterator[tuple]:
        return zip(self.t_ms.tolist(), self.delay_ms.tolist(), self.window_pkts.tolist())

    @cached_property
    def composites(self) -> tuple[np.ndarray, np.ndarray]:
        """(d_hat, w_hat) of every epoch after the first, from the raw columns."""
        return composite_steps(self.delay_ms), composite_steps(self.window_pkts)


def derive_states(log: EpochLog, cfg: QuantizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(d_idx, w_idx) of every epoch but the first and the last, on cfg's grid.

    Row m's state pairs the delay composite of d_m against d_{m-1} with
    the window move chosen once that delay was seen: w_{m+1} against
    w_m. The first row has no delay before it and the last no window
    after it, so a log of n rows gives max(n - 2, 0) states.
    """
    d_hat, w_hat = log.composites
    return bucket(d_hat[:-1], cfg.d_hat_edges), bucket(w_hat[1:], cfg.w_hat_edges)


def _rows(counts: np.ndarray) -> np.ndarray:
    """Counts divided by their sums over the last axis; empty rows all-zero."""
    counts = counts.astype(np.float64)
    sums = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(sums > 0, counts / sums, 0.0)


class TransitionModel:
    """Transition counts over the composite state grid, plus tables.

    A model is a value: the counts are copied at construction and are
    read-only, so each table, built from them on first use, stays valid.
    """

    def __init__(self, cfg: QuantizerConfig, counts=None) -> None:
        shape = (cfg.n_d, cfg.n_w, cfg.n_d, cfg.n_w)
        if counts is None:
            counts = np.zeros(shape, dtype=np.uint64)
        counts = np.asarray(counts)
        if counts.shape != shape:
            raise ValueError(f"counts must have shape {shape}, got {counts.shape}")
        counts = np.array(cells.check_ints("counts", counts, 0), dtype=np.uint64)
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
    def decision_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The runtime walk's tier and CDF for each (k, l, r), as two
        C-contiguous read-only arrays: tier, int8 of shape (n_d, n_w, n_d),
        and cdf, float64 of shape (n_d, n_w, n_d, n_w). Row (k, l, r) is
        flat entry (k * n_w + l) * n_d + r of tier, and its CDF the n_w
        floats of cdf from n_w times that index."""
        seen = self.counts.any(axis=3)
        unseen = np.where(seen.any(axis=1)[:, None], MARGINAL, HOLD)
        tier = np.where(seen, EXACT, unseen).astype(np.int8)
        # Filled in place: a full-size temporary stays in the heap and
        # raises the peak RSS of a process that drives runs.
        cdf = np.empty(self.counts.shape, dtype=np.float64)
        # Summed in float64: a uint64 sum wraps past 2**64.
        cdf[...] = _rows(self.counts.astype(np.float64).sum(axis=1))[:, None]
        cdf[seen] = self.quadrant_rows[seen]
        np.cumsum(cdf, axis=-1, out=cdf)
        tier.flags.writeable = cdf.flags.writeable = False
        return tier, cdf

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
    d_idx = np.asarray(cells.check_ints("d_idx", d_idx), dtype=np.int64)
    w_idx = np.asarray(cells.check_ints("w_idx", w_idx), dtype=np.int64)
    if d_idx.ndim != 1 or d_idx.shape != w_idx.shape:
        raise ValueError("need two equal-length state-index columns")
    if ((d_idx < 0) | (d_idx >= n_d) | (w_idx < 0) | (w_idx >= n_w)).any():
        raise ValueError(f"state outside {n_d}x{n_w} grid")
    flat = d_idx * n_w + w_idx
    n = cfg.n_states
    pairs = np.bincount(flat[:-1] * n + flat[1:], minlength=n * n)
    return pairs.reshape(n_d, n_w, n_d, n_w)


_MAGIC = "MDIMODEL v1"


def save_model(model: TransitionModel, sink: BinaryIO) -> None:
    """Serialize edges and sparse counts; byte-identical for equal models."""
    cfg = model.cfg
    lines = [
        _MAGIC,
        f"{cfg.n_d} {cfg.n_w} {model.total_transitions}",
        " ".join(map(repr, cfg.d_hat_edges)),
        " ".join(map(repr, cfg.w_hat_edges)),
    ]
    nz = np.argwhere(model.counts)
    for k, l, r, v in nz:
        c = int(model.counts[k, l, r, v])
        lines.append(f"{k} {l} {r} {v} {c}")
    sink.write(("\n".join(lines) + "\n").encode("utf-8"))


def _numbers(line: str, kind: type) -> list | None:
    """The numbers of one model line, each read by `kind`, when the line
    is spelled as save_model spells them: joined by single spaces, each
    as repr writes it (repr of an int is its str). Otherwise None."""
    try:
        values = [kind(field) for field in line.split(" ")]
    except ValueError:
        return None
    return values if " ".join(map(repr, values)) == line else None


def load_model(source: BinaryIO) -> TransitionModel:
    """Parse a serialized model, validating structure and count totals."""
    # Only save_model's line ends and separators: "\n" and one space.
    lines = source.read().decode("utf-8").removesuffix("\n").split("\n")
    if lines[0] != _MAGIC:
        raise ModelFormatError(f"line 1: bad magic line, expected {_MAGIC!r}")
    if len(lines) < 4:
        raise ModelFormatError("file truncated before edge lines")

    header = _numbers(lines[1], int)
    if header is None:
        raise ModelFormatError(f"line 2: non-integer header field in {lines[1]!r}")
    if len(header) != 3:
        raise ModelFormatError(f"line 2: header needs 'n_d n_w total', got {lines[1]!r}")
    n_d, n_w, declared_total = header
    if declared_total < 0:
        raise ModelFormatError(f"line 2: negative transition total {declared_total}")

    def parse_edges(lineno: int, expect: int, name: str) -> tuple[float, ...]:
        edges = _numbers(lines[lineno - 1], float)
        if edges is None:
            raise ModelFormatError(f"line {lineno}: {name}: non-numeric edge")
        if len(edges) != expect:
            raise ModelFormatError(f"line {lineno}: {name}: expected {expect} edges")
        return tuple(edges)

    d_edges = parse_edges(3, n_d + 1, "d_hat_edges")
    w_edges = parse_edges(4, n_w + 1, "w_hat_edges")
    try:
        cfg = QuantizerConfig(d_edges, w_edges)
    except ValueError as exc:
        raise ModelFormatError(f"invalid quantizer config: {exc}") from None

    counts = np.zeros((n_d, n_w, n_d, n_w), dtype=np.uint64)
    prev = (-1,)
    for lineno, line in enumerate(lines[4:], start=5):
        fields = _numbers(line, int)
        if fields is None or len(fields) != 5:
            raise ModelFormatError(
                f"line {lineno}: expected 'k l r v count' in ASCII digits and single spaces"
            )
        k, l, r, v, c = fields
        if not (0 <= k < n_d and 0 <= r < n_d and 0 <= l < n_w and 0 <= v < n_w):
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
