"""The baselines' original decision rules, kept as reference oracles.

``ReferenceVerusLike`` and ``ReferenceCopaLike`` take their parameters,
their checks and their starting state from ``mdi.controllers``; only
``on_epoch`` is the rule as it was first written, reading each feedback
field by name and clamping with ``max``. ``mdi.controllers`` reads the
feedback once and writes each ``max`` as the comparison ``max`` makes.
The differential test in ``test_controllers.py`` requires both to give
the same decisions and the same smoothed delay on every feedback
sequence, NaN and infinities included, so this code stays as it was
written.
"""

from __future__ import annotations

from mdi.controllers import (
    COPA_DELTA,
    VERUS_EWMA_ALPHA,
    VERUS_INC,
    VERUS_RISE_THRESH,
    CopaLike,
    EpochFeedback,
    VerusLike,
)


class ReferenceVerusLike(VerusLike):
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


class ReferenceCopaLike(CopaLike):
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
