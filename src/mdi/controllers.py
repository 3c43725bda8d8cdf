"""Epoch-driven congestion controllers.

A controller is called once per epoch with aggregate delay feedback and
returns a plain (window_pkts, epoch_len_ms) pair: the congestion window
to use for the next epoch and the length of that epoch. The simulator
owns packet-level mechanics; controllers only see per-epoch summaries,
which is also the granularity the model trainer consumes.

The built-in baselines are deliberately small. They keep the qualitative
shapes that matter for modeling: the verus-like rule decreases decisively
when delay rises or sits high and explores additively otherwise; the
copa-like rule steps toward a delay-derived target window, so it repeats
its last direction until it overshoots.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from . import cells

# The verus-like additive step (packets), the factor by which an epoch's
# mean delay must exceed its EWMA to count as rising, and the EWMA's
# weight on the newest epoch.
VERUS_INC = 1.0
VERUS_RISE_THRESH = 1.03
VERUS_EWMA_ALPHA = 0.25
# Copa's delta: the target window is 1 / (delta * queueing delay).
COPA_DELTA = 0.5
# The largest window, in packets: thousands of times any window a seeded
# run reaches, and small enough that a run's packets in flight fit in
# memory. A float, so that a window stopped at it stays one.
W_MAX_PKTS = 2.0**20


class EpochFeedback(NamedTuple):
    """Aggregate link feedback for one elapsed epoch; only the emulator builds it."""

    mean_delay_ms: float
    min_delay_ms: float
    acked_pkts: int


class Controller(abc.ABC):
    """Decides the congestion window once per epoch."""

    name: str = "controller"

    def __init__(self, window: float, epoch_ms: int, window_name: str = "w_init") -> None:
        """Check and keep the starting window, named to the caller as
        `window_name`, and the epoch length."""
        self.window = cells.check_real(window_name, window, 1, W_MAX_PKTS)
        self.epoch_ms = cells.check_int("epoch_ms", epoch_ms, 1)

    @abc.abstractmethod
    def on_epoch(self, feedback: EpochFeedback) -> tuple[float, int]:
        """Consume one epoch of feedback; return the window for the next
        epoch and how long that epoch lasts, (window_pkts, epoch_len_ms).

        The emulator clamps a window outside [1, W_MAX_PKTS] to it (one
        that is not finite to 1) and an epoch below 1 ms to 1, and counts
        each clamp in its clamp_warnings.
        """


class Pinned(Controller):
    """Constant window; the null controller for plumbing and tests."""

    name = "pinned"

    def __init__(self, window_pkts: float = 10.0, epoch_ms: int = 20) -> None:
        super().__init__(window_pkts, epoch_ms, "window_pkts")
        self.decision = (self.window, self.epoch_ms)

    def on_epoch(self, feedback: EpochFeedback) -> tuple[float, int]:
        return self.decision


class VerusLike(Controller):
    """Additive explore, multiplicative back-off on rising or high delay.

    Per epoch: decrease (w *= dec_mult) when the epoch's mean delay sits
    noticeably above its own smoothed history, or when it exceeds
    lam * min_delay; otherwise increase (w += VERUS_INC + inc_frac * w).
    The smoothed reference is an EWMA of recent epoch means with weight
    VERUS_EWMA_ALPHA on the newest; "noticeably above" means more than
    both VERUS_RISE_THRESH times it and rise_floor_ms over it. The EWMA
    lags a sustained climb, so slow queue growth that never jumps much
    in one epoch still trips the back-off, while one-epoch noise from
    millisecond RTT quantization stays inside the threshold band. The
    optional inc_frac term scales exploration with the operating point,
    so recovery after a back-off takes a similar number of epochs on a
    10 packet window as on a 200 packet one; the default (0) keeps the
    increase purely additive. Epochs with no ACKs hold the window.
    """

    name = "verus-like"

    def __init__(
        self,
        lam: float = 1.5,
        dec_mult: float = 0.7,
        rise_floor_ms: float = 1.5,
        inc_frac: float = 0.0,
        epoch_ms: int = 20,
        w_init: float = 2.0,
    ) -> None:
        self.lam = cells.check_real("lam", lam, 1)
        self.dec_mult = cells.check_real("dec_mult", dec_mult, 0, 1, open_lo=True)
        self.rise_floor_ms = cells.check_real("rise_floor_ms", rise_floor_ms, 0)
        self.inc_frac = cells.check_real("inc_frac", inc_frac, 0)
        super().__init__(w_init, epoch_ms)
        self._ewma_ms: float | None = None

    def on_epoch(self, feedback: EpochFeedback) -> tuple[float, int]:
        if feedback.acked_pkts > 0:
            mean = feedback.mean_delay_ms
            rising = self._ewma_ms is not None and mean > max(
                self._ewma_ms * VERUS_RISE_THRESH,
                self._ewma_ms + self.rise_floor_ms,
            )
            high = mean > self.lam * feedback.min_delay_ms
            if rising or high:
                self.window = max(1.0, self.window * self.dec_mult)
            else:
                self.window = self.window + VERUS_INC + self.inc_frac * self.window
            if self._ewma_ms is None:
                self._ewma_ms = mean
            else:
                self._ewma_ms += VERUS_EWMA_ALPHA * (mean - self._ewma_ms)
        return self.window, self.epoch_ms


class CopaLike(Controller):
    """Step toward a target window derived from measured queueing delay.

    The target follows target_w = mean_delay / (COPA_DELTA * dq) with
    dq = max(mean_delay - min_delay, 0.1) ms, i.e. lower queueing delay
    justifies a larger window. Each epoch moves the window by
    acked_pkts * velocity / (COPA_DELTA * w) toward the target, so steps
    self-scale and the controller overshoots then reverses rather than
    settling. Zero-ACK epochs hold.
    """

    name = "copa-like"

    def __init__(
        self,
        velocity: float = 1.0,
        epoch_ms: int = 10,
        w_init: float = 2.0,
    ) -> None:
        self.velocity = cells.check_real("velocity", velocity, 0, open_lo=True)
        super().__init__(w_init, epoch_ms)

    def on_epoch(self, feedback: EpochFeedback) -> tuple[float, int]:
        if feedback.acked_pkts > 0:
            dq_ms = max(feedback.mean_delay_ms - feedback.min_delay_ms, 0.1)
            target_w = feedback.mean_delay_ms / (COPA_DELTA * dq_ms)
            step = feedback.acked_pkts * self.velocity / (COPA_DELTA * self.window)
            if self.window < target_w:
                self.window += step
            else:
                self.window -= step
            self.window = max(1.0, self.window)
        return self.window, self.epoch_ms


BASELINES = {
    Pinned.name: Pinned,
    VerusLike.name: VerusLike,
    CopaLike.name: CopaLike,
}
