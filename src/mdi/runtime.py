"""Running a trained transition model as a congestion controller.

Each epoch the controller forms the delay composite from the new mean
delay, then either:

* applies a fixed multiplicative correction when the composite falls
  outside the trained grid (c1 > 1 below the range: delay collapsed,
  grow; c2 < 1 above: delay blew up, back off), or
* looks up the quadrant selected by (previous delay bucket k, new delay
  bucket r), takes the row for its previous window bucket l, samples the
  next window bucket v by inverse CDF from one uniform draw, and moves
  the window to realize that bucket's midpoint composite.

Either way, the walk then remembers (r, bucket of the window composite
reached), which is derive_states' state of the log row it just closed,
so each (k, l, r) it looks up is a transition its own log counts.

Realizing a window composite means inverting
f(w) = (w / w_prev - 1) * log10(w) for w at fixed w_prev. f is not
monotone: it is zero at w = 1 and w = w_prev and dips negative between
them, so a negative target selects the branch rising back toward w_prev
(the root nearest the current window), found by bisection. Targets below
the dip's minimum clamp to the minimizer; positive targets are bisected
on [w_prev, 1000 * w_prev].

Each (k, l, r) row's tier and CDF come from the model's decision table,
built once per model. An unseen row backs off to the quadrant's row with
the window bucket marginalized out, i.e. p(v | k, r); only when the whole
quadrant is unseen does the controller hold the window and count a
fallback. Without the marginal tier a model-driven run can wedge: holding
keeps w_hat at exactly 0, and if training never visited that window
bucket the exact lookup keeps missing forever. Epochs with no ACKs hold
the window: silence carries no delay sample, and at a small window it is
the expected ACK cadence rather than a congestion signal.
"""

from __future__ import annotations

import math

import numpy as np

from .controllers import Controller, ControllerDecision, EpochFeedback
from .quantizer import composite
from .trainer import HOLD, MARGINAL, TransitionModel

_BISECT_STEPS = 80
_POS_SPAN = 1000.0


def _dip_minimizer(w_prev: float) -> float:
    """Locate the minimum of the window composite on (1, w_prev).

    The derivative's sign is carried by (ln w + 1) / w_prev - 1 / w,
    which increases in w, so a plain bisection on its sign converges to
    the unique stationary point.

    Both bisections stop once the midpoint of [lo, hi] is lo or hi: no
    float lies between them, so further steps could not move it.
    """
    lo, hi = 1.0, w_prev
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if (math.log(mid) + 1.0) / w_prev - 1.0 / mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_increasing(target: float, lo: float, hi: float, w_prev: float) -> float:
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if composite(mid, w_prev) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_w_hat(w_hat_target: float, w_prev: float) -> float:
    """Window w >= 1 whose composite against w_prev equals the target.

    Exact where the target is reachable; out-of-range targets clamp to
    the nearest achievable window (the dip minimizer below, a 1000x
    window above).
    """
    if not math.isfinite(w_hat_target):
        raise ValueError(f"w_hat_target must be finite, got {w_hat_target!r}")
    if not math.isfinite(w_prev) or w_prev < 1.0:
        raise ValueError(f"w_prev must be >= 1, got {w_prev!r}")
    if w_hat_target == 0.0:
        return w_prev
    if w_hat_target > 0.0:
        lo = max(w_prev, 1.0)
        hi = max(w_prev, 1.0) * _POS_SPAN
        if composite(hi, w_prev) <= w_hat_target:
            return hi
        return _bisect_increasing(w_hat_target, lo, hi, w_prev)
    if w_prev <= 1.0:
        return 1.0
    m = _dip_minimizer(w_prev)
    if w_hat_target <= composite(m, w_prev):
        return m
    return _bisect_increasing(w_hat_target, m, w_prev, w_prev)


class MdiController(Controller):
    """Guided random walk over a trained transition model."""

    name = "mdi"

    def __init__(
        self,
        model: TransitionModel,
        c1: float = 1.25,
        c2: float = 0.8,
        epoch_ms: int = 20,
        seed: int = 0,
        w_init: float = 2.0,
    ) -> None:
        if not c1 > 1.0:
            raise ValueError(f"c1 must be > 1, got {c1}")
        if not 0.0 < c2 < 1.0:
            raise ValueError(f"c2 must be in (0, 1), got {c2}")
        super().__init__(w_init, epoch_ms)
        self.model = model
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.rng = np.random.default_rng(seed)
        self.d_prev_ms: float | None = None
        self.d_idx_prev: int | None = None
        self.w_idx_prev = model.cfg.w_bucket(0.0)
        self.fallback_count = 0
        self.marginal_count = 0
        self.boundary_count = 0
        self.epoch_count = 0

    def on_epoch(self, feedback: EpochFeedback) -> ControllerDecision:
        self.epoch_count += 1

        if feedback.acked_pkts == 0:
            # A silent epoch carries no delay sample. At small windows
            # silence is simply the ACK cadence (fewer than one packet
            # per epoch in flight), so treating it as congestion would
            # pin the walk against the w >= 1 clamp. Hold and wait for
            # the next measurable epoch.
            return ControllerDecision(self.window, self.epoch_ms)

        d_new = feedback.mean_delay_ms
        if self.d_prev_ms is None:
            self.d_prev_ms = d_new
            return ControllerDecision(self.window, self.epoch_ms)

        cfg = self.model.cfg
        d_hat = composite(d_new, self.d_prev_ms)
        r = cfg.d_bucket(d_hat)
        lo, hi = cfg.d_hat_edges[0], cfg.d_hat_edges[-1]
        w_old = self.window
        if not lo <= d_hat <= hi:
            self.window = max(1.0, w_old * (self.c1 if d_hat < lo else self.c2))
            self.boundary_count += 1
        else:
            k = self.d_idx_prev if self.d_idx_prev is not None else r
            tier, cdf = self.model.decision_table[k, self.w_idx_prev, r]
            if tier == HOLD:
                self.fallback_count += 1
            else:
                if tier == MARGINAL:
                    self.marginal_count += 1
                v = int(np.searchsorted(cdf, self.rng.random(), side="right"))
                v = min(v, cfg.n_w - 1)
                self.window = max(1.0, invert_w_hat(cfg.w_midpoint(v), w_old))
        # The bucket reached, not the one drawn (the inversion can clamp
        # short of v): derive_states' state of this row.
        self.w_idx_prev = cfg.w_bucket(composite(self.window, w_old))
        self.d_idx_prev = r
        self.d_prev_ms = d_new
        return ControllerDecision(self.window, self.epoch_ms)
