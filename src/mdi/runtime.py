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
(the root nearest the current window). f is convex, so Newton steps
from above the root (from w_prev for a negative target, from
1000 * w_prev or W_MAX_PKTS, whichever is less, for a positive one)
descend to it without overshoot. The dip's minimizer is the root of
f's derivative, which is increasing and concave, so Newton steps from
w = 1 climb to it. Each iteration stops once a step no longer moves
its way. The answer is the rounded midpoint of two adjacent floats,
found next to the last iterate, across which the float function crosses
its target. Targets below the dip's minimum clamp to the minimizer, and
positive targets beyond that upper bound clamp to it. The draws whose
bucket the window could not reach are counted in unreached_count.

Each (k, l, r) row's tier and CDF come from the model's decision table,
built once per model as two flat arrays. The controller reads them
through zero-copy memoryviews, so a row's tier is one Python int at its
flat index, and the draw is bisect_right of one uniform over the row's
n_w CDF floats: the bucket np.searchsorted(cdf, u, side="right") picks.
An unseen row backs off to the quadrant's row with the window bucket
marginalized out, i.e. p(v | k, r); only when the whole quadrant is
unseen does the controller hold the window and count a fallback.
Without the marginal tier a model-driven run can wedge: holding
keeps w_hat at exactly 0, and if training never visited that window
bucket the exact lookup keeps missing forever. Epochs with no ACKs hold
the window: silence carries no delay sample, and at a small window it is
the expected ACK cadence rather than a congestion signal.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from . import cells
from .controllers import W_MAX_PKTS, Controller, EpochFeedback
from .quantizer import composite
from .trainer import HOLD, MARGINAL, TransitionModel

_POS_SPAN = 1000.0
_LN10 = math.log(10.0)


def _slope(w: float, w_prev: float) -> float:
    """ln(10) times the window composite's derivative in w.

    It increases in w (its own derivative is 1/(w_prev*w) + 1/w**2) and
    is concave, so it has one root: the bottom of the composite's dip.
    """
    return (math.log(w) + 1.0) / w_prev - 1.0 / w


def _crossing(fn, target: float, w_prev: float, x: float, lo: float, hi: float) -> float:
    """0.5 * (a + b) for adjacent floats a < b with fn(a) < target <= fn(b).

    The pair is sought next to the estimate x, inside [lo, hi], where
    fn(lo) < target <= fn(hi) is known. Near a tangent the float fn is
    noise across a wide band, so the step away from x doubles until the
    side flips, and the bracket it spans is then bisected down to two
    adjacent floats; the midpoint rounds to one of them.
    """
    step = math.ulp(x)
    if fn(x, w_prev) < target:
        lo = x
        while (y := x + step) < hi and fn(y, w_prev) < target:
            lo, step = y, 2.0 * step
        hi = min(y, hi)
    else:
        hi = x
        while (y := x - step) > lo and not fn(y, w_prev) < target:
            hi, step = y, 2.0 * step
        lo = max(y, lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if fn(mid, w_prev) < target:
            lo = mid
        else:
            hi = mid


def _dip_minimizer(w_prev: float) -> float:
    """Locate the minimum of the window composite on [1, w_prev].

    Newton on the slope from w = 1: the slope is increasing and concave,
    so each step lands short of its root and the iterates climb to it.
    They stop once a step no longer climbs.
    """
    w = 1.0
    while (g := _slope(w, w_prev)) < 0.0:
        nxt = w - g * w_prev * w * w / (w + w_prev)
        if not nxt > w:
            break
        w = nxt if nxt < w_prev else w_prev
    return _crossing(_slope, 0.0, w_prev, w, 1.0, w_prev)


def _descend(target: float, w_prev: float, w: float, lo: float) -> float:
    """Newton on composite(w, w_prev) = target from w down toward lo.

    The composite is convex and, above lo, increasing, so from a window
    whose composite exceeds the target each step lands at or above the
    root. The iterates stop once a step no longer descends. Each step
    takes one logarithm: it scales the composite's excess and the slope
    by ln(10) together.
    """
    scaled = target * _LN10
    while True:
        lw = math.log(w)
        over = (w / w_prev - 1.0) * lw - scaled
        g = (lw + 1.0) / w_prev - 1.0 / w
        if not (over > 0.0 and g > 0.0):
            return w
        nxt = w - over / g
        if not nxt < w:
            return w
        w = nxt if nxt > lo else lo


def invert_w_hat(w_hat_target: float, w_prev: float) -> float:
    """Window w >= 1 whose composite against w_prev equals the target.

    Exact where the target is reachable; out-of-range targets clamp to
    the nearest achievable window (the dip minimizer below, a 1000x
    window or W_MAX_PKTS, whichever is less, above).
    """
    if not math.isfinite(w_hat_target):
        raise ValueError(f"w_hat_target must be finite, got {w_hat_target!r}")
    if not 1.0 <= w_prev <= W_MAX_PKTS:
        raise ValueError(f"w_prev must be in [1, {W_MAX_PKTS}], got {w_prev!r}")
    if w_hat_target == 0.0:
        return w_prev
    if w_hat_target > 0.0:
        hi = min(w_prev * _POS_SPAN, W_MAX_PKTS)
        if composite(hi, w_prev) <= w_hat_target:
            return hi
        w = _descend(w_hat_target, w_prev, hi, w_prev)
        return _crossing(composite, w_hat_target, w_prev, w, w_prev, hi)
    if w_prev <= 1.0:
        return 1.0
    m = _dip_minimizer(w_prev)
    if w_hat_target <= composite(m, w_prev):
        return m
    w = _descend(w_hat_target, w_prev, w_prev, m)
    return _crossing(composite, w_hat_target, w_prev, w, m, w_prev)


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
        self.c1 = cells.check_real("c1", c1, 1, open_lo=True)
        self.c2 = cells.check_real("c2", c2, 0, 1, open_lo=True)
        cells.check_int("seed", seed, 0)
        super().__init__(w_init, epoch_ms)
        self.model = model
        tier, cdf = model.decision_table
        # Flat views of the table, read as Python values without a copy.
        self._tiers = memoryview(tier.reshape(-1))
        self._cdfs = memoryview(cdf.reshape(-1))
        self.rng = np.random.default_rng(seed)
        self.d_prev_ms: float | None = None
        self.d_idx_prev: int | None = None
        self.w_idx_prev = model.cfg.w_bucket(0.0)
        self.fallback_count = 0
        self.marginal_count = 0
        self.range_low_count = 0
        self.range_high_count = 0
        self.unreached_count = 0
        self.epoch_count = 0

    @property
    def boundary_count(self) -> int:
        """Range exits of both kinds: below the trained range and above it."""
        return self.range_low_count + self.range_high_count

    def on_epoch(self, feedback: EpochFeedback) -> tuple[float, int]:
        self.epoch_count += 1

        if feedback.acked_pkts == 0:
            # A silent epoch carries no delay sample. At small windows
            # silence is simply the ACK cadence (fewer than one packet
            # per epoch in flight), so treating it as congestion would
            # pin the walk against the w >= 1 clamp. Hold and wait for
            # the next measurable epoch.
            return self.window, self.epoch_ms

        d_new = feedback.mean_delay_ms
        if self.d_prev_ms is None:
            self.d_prev_ms = d_new
            return self.window, self.epoch_ms

        cfg = self.model.cfg
        d_hat = composite(d_new, self.d_prev_ms)
        r = cfg.d_bucket(d_hat)
        lo, hi = cfg.d_hat_edges[0], cfg.d_hat_edges[-1]
        w_old = self.window
        v = None
        if not lo <= d_hat <= hi:
            if d_hat < lo:
                self.window = min(w_old * self.c1, W_MAX_PKTS)
                self.range_low_count += 1
            else:
                self.window = max(1.0, w_old * self.c2)
                self.range_high_count += 1
        else:
            k = self.d_idx_prev if self.d_idx_prev is not None else r
            n_w = cfg.n_w
            row = (k * n_w + self.w_idx_prev) * cfg.n_d + r
            tier = self._tiers[row]
            if tier == HOLD:
                self.fallback_count += 1
            else:
                if tier == MARGINAL:
                    self.marginal_count += 1
                start = row * n_w
                v = bisect_right(self._cdfs, self.rng.random(), start, start + n_w) - start
                v = min(v, n_w - 1)
                self.window = invert_w_hat(cfg.w_midpoint(v), w_old)
        # The bucket reached, not the one drawn (the inversion can clamp
        # short of v): derive_states' state of this row.
        self.w_idx_prev = cfg.w_bucket(composite(self.window, w_old))
        if v is not None and v != self.w_idx_prev:
            self.unreached_count += 1
        self.d_idx_prev = r
        self.d_prev_ms = d_new
        return self.window, self.epoch_ms
