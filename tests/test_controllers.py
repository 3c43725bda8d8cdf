"""Baseline controller decision rules."""

import numpy as np
import pytest

from mdi.controllers import (
    BASELINES,
    CopaLike,
    EpochFeedback,
    Pinned,
    VerusLike,
)
from mdi.linksim import LinkParams, run_simulation
from mdi.trace import SyntheticTraceSpec, gen_rapidly_changing


def fb(mean: float, mn: float, acked: int = 10) -> EpochFeedback:
    return EpochFeedback(mean_delay_ms=mean, min_delay_ms=mn, acked_pkts=acked)


def constant_trace(mbps: float, duration_s: float):
    spec = SyntheticTraceSpec(
        duration_s=duration_s, segment_s=duration_s,
        rate_min_mbps=mbps, rate_max_mbps=mbps, seed=0,
    )
    return gen_rapidly_changing(spec)


def test_pinned_never_moves():
    ctrl = Pinned(window_pkts=4.0, epoch_ms=20)
    for i in range(5):
        d = ctrl.on_epoch(fb(10.0 * (i + 1), 5.0, acked=i))
        assert d == (4.0, 20)


def test_pinned_parameter_validation():
    for kwargs in (
        dict(window_pkts=0.5), dict(window_pkts=float("nan")),
        dict(window_pkts=float("inf")), dict(epoch_ms=0), dict(epoch_ms=float("inf")),
        dict(epoch_ms=1.5), dict(epoch_ms=20.0),
    ):
        with pytest.raises(ValueError):
            Pinned(**kwargs)


def test_verus_flat_delay_inspires_additive_increase():
    ctrl = VerusLike(w_init=2.0)
    window, _ = ctrl.on_epoch(fb(10.0, 10.0))
    assert window == pytest.approx(3.0)  # the additive step is 1


def test_verus_high_delay_triggers_multiplicative_cut():
    ctrl = VerusLike(w_init=10.0)  # lam defaults to 1.5
    window, _ = ctrl.on_epoch(fb(100.0, 10.0))
    assert window == pytest.approx(7.0)  # dec_mult defaults to 0.7


def test_verus_cut_floors_at_one_packet():
    ctrl = VerusLike(w_init=1.0)
    window, _ = ctrl.on_epoch(fb(100.0, 10.0))
    assert window == 1.0


def test_verus_smoothed_rise_guard():
    # A climb above both the ratio and absolute guards trips the cut even
    # though the delay is still under lam * min_delay.
    ctrl = VerusLike(w_init=2.0)
    ctrl.on_epoch(fb(10.0, 10.0))  # seeds the smoothed reference at 10
    window, _ = ctrl.on_epoch(fb(12.0, 10.0))  # 12 > max(10.3, 11.5), 12 < 15
    assert window == pytest.approx(3.0 * 0.7)


def test_verus_small_rise_stays_additive():
    ctrl = VerusLike(w_init=2.0)
    ctrl.on_epoch(fb(10.0, 10.0))
    window, _ = ctrl.on_epoch(fb(11.0, 10.0))  # under the 1.5 ms rise floor
    assert window == pytest.approx(4.0)


def test_verus_proportional_increase_term():
    ctrl = VerusLike(inc_frac=0.1, w_init=10.0)
    window, _ = ctrl.on_epoch(fb(10.0, 10.0))
    assert window == pytest.approx(10.0 + 1.0 + 1.0)


def test_verus_zero_ack_epoch_holds():
    ctrl = VerusLike(w_init=6.0)
    window, epoch_len = ctrl.on_epoch(fb(0.0, 0.0, acked=0))
    assert window == 6.0
    assert epoch_len == 20


def test_verus_parameter_validation():
    for kwargs in (
        dict(lam=0.9), dict(dec_mult=1.0), dict(dec_mult=0.0),
        dict(rise_floor_ms=-0.1), dict(inc_frac=-0.01), dict(w_init=0.5),
        dict(w_init=float("nan")), dict(epoch_ms=0), dict(lam=float("nan")),
        dict(rise_floor_ms=float("nan")), dict(inc_frac=float("nan")),
        dict(lam=float("inf")), dict(rise_floor_ms=float("inf")), dict(inc_frac=float("inf")),
        dict(epoch_ms=1.5),
    ):
        with pytest.raises(ValueError):
            VerusLike(**kwargs)


def test_verus_long_run_keeps_delay_near_its_budget():
    # On a steady 12 Mbps link the sawtooth should hold the median RTT
    # between the bare round trip and the back-off budget lam * min RTT,
    # with slack for the one-epoch detection lag.
    params = LinkParams(
        trace=constant_trace(12.0, 30.0), one_way_prop_ms=10,
        queue_capacity_pkts=500, duration_ms=30_000,
    )
    res = run_simulation(params, VerusLike())
    p50 = res.summary.delay_ms.p50
    assert 20.0 <= p50 <= 2 * 1.5 * 20.0
    # And it should be using the link rather than idling at w_init.
    assert res.summary.throughput_mbps.p50 > 6.0


def test_copa_below_target_steps_up():
    ctrl = CopaLike(w_init=2.0)  # delta 0.5
    # target = 20 / (0.5 * 10) = 4 > 2; step = 1 * 1 / (0.5 * 2) = 1
    window, _ = ctrl.on_epoch(fb(20.0, 10.0, acked=1))
    assert window == pytest.approx(3.0)


def test_copa_above_target_steps_down():
    ctrl = CopaLike(w_init=10.0)
    # dq = 10, target = 10 / (0.5 * 10) = 2 < 10; step = 4 / (0.5 * 10) = 0.8
    window, _ = ctrl.on_epoch(fb(10.0, 0.0, acked=4))
    assert window == pytest.approx(9.2)


def test_copa_step_scales_with_acks_and_window():
    ctrl = CopaLike(w_init=3.0)
    # target = 20 / (0.5 * 10) = 4 > 3; step = 6 * 1 / (0.5 * 3) = 4
    window, _ = ctrl.on_epoch(fb(20.0, 10.0, acked=6))
    assert window == pytest.approx(7.0)


def test_copa_window_floors_at_one():
    # Every target is at least 1 / delta = 2, so a window at 1 could
    # only step up; start above the target and overshoot below 1.
    ctrl = CopaLike(w_init=3.0)
    window, _ = ctrl.on_epoch(fb(10.0, 0.0, acked=50))
    assert window == 1.0


def test_copa_zero_ack_epoch_holds():
    ctrl = CopaLike(w_init=5.0)
    window, _ = ctrl.on_epoch(fb(0.0, 0.0, acked=0))
    assert window == 5.0


def test_copa_dq_floor_prevents_divide_by_zero():
    ctrl = CopaLike(w_init=2.0)
    window, _ = ctrl.on_epoch(fb(10.0, 10.0, acked=1))  # dq floors at 0.1
    assert np.isfinite(window)
    assert window >= 1.0


def test_copa_parameter_validation():
    for kwargs in (
        dict(velocity=0.0), dict(velocity=float("nan")), dict(w_init=0.9), dict(epoch_ms=0),
        dict(velocity=float("inf")), dict(epoch_ms=1.5),
    ):
        with pytest.raises(ValueError):
            CopaLike(**kwargs)


def test_copa_equilibrium_queue_tracks_delta():
    # At equilibrium the target equals the window, which pins standing
    # queueing delay near 1 / (delta * rate). At 1 packet per ms and
    # delta 0.5 that is 2 ms; allow a factor of two for ms quantization.
    params = LinkParams(
        trace=constant_trace(12.0, 30.0), one_way_prop_ms=10,
        queue_capacity_pkts=500, duration_ms=30_000,
    )
    res = run_simulation(params, CopaLike(velocity=1.0, epoch_ms=10))
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    settled = rtts[rtts.size // 2 :].astype(np.float64)
    dq = settled.mean() - rtts.min()
    assert 1.0 <= dq <= 4.0


def test_controllers_are_deterministic():
    seq = [fb(10.0 + 3 * i, 10.0, acked=5) for i in range(20)]
    for make in (lambda: VerusLike(), lambda: CopaLike()):
        a = [window for window, _ in (make().on_epoch(f) for f in seq)]
        b = [window for window, _ in (make().on_epoch(f) for f in seq)]
        # Replaying the same feedback through a fresh instance matches
        # only per-call here; stateful evolution needs one instance.
        assert a == b
        c1, c2 = make(), make()
        wa = [window for window, _ in (c1.on_epoch(f) for f in seq)]
        wb = [window for window, _ in (c2.on_epoch(f) for f in seq)]
        assert wa == wb


def test_registry_instantiates_by_name():
    for name, cls in BASELINES.items():
        assert cls.name == name
    assert BASELINES["pinned"](window_pkts=7.0).decision == (7.0, 20)
    assert BASELINES["copa-like"](velocity=2.0).velocity == 2.0
