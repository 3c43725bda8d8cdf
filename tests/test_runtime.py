"""Model-driven controller: composite inversion and the guided walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harness
from mdi import runtime
from mdi.controllers import W_MAX_PKTS, EpochFeedback
from mdi.linksim import LinkParams, SimResult, run_simulation
from mdi.pipeline import derive_run_seed
from mdi.quantizer import QuantizerConfig, composite
from mdi.runtime import MdiController, invert_w_hat
from mdi.trace import LinkTrace
from mdi.trainer import TransitionModel, count_transitions, derive_states


def fb(mean: float, acked: int = 10) -> EpochFeedback:
    return EpochFeedback(mean_delay_ms=mean, min_delay_ms=min(mean, 20.0), acked_pkts=acked)


def small_grid() -> QuantizerConfig:
    # Delay buckets (-inf-clamped) [-0.5,-0.1), [-0.1,0.1), [0.1,0.5];
    # window midpoints -0.2, 0.0, +0.2.
    return QuantizerConfig((-0.5, -0.1, 0.1, 0.5), (-0.3, -0.1, 0.1, 0.3))


def model_with(cells) -> TransitionModel:
    counts = np.zeros((3, 3, 3, 3), dtype=np.uint64)
    for (k, l, r, v), c in cells.items():
        counts[k, l, r, v] = c
    return TransitionModel(small_grid(), counts)


def test_invert_round_trips_reachable_targets():
    for w_prev in (1.5, 2.0, 8.0, 100.0):
        for factor in (1.05, 1.3, 2.0, 0.9, 0.97):
            w_target = w_prev * factor
            if w_target < 1.0:
                continue
            target = composite(w_target, w_prev)
            got = invert_w_hat(target, w_prev)
            assert got == pytest.approx(w_target, rel=1e-6)


def test_invert_zero_returns_previous_window():
    for w_prev in (1.0, 3.7, 50.0):
        assert invert_w_hat(0.0, w_prev) == w_prev


def test_invert_clamps_unreachable_negative_targets():
    w_prev = 8.0
    got = invert_w_hat(-10.0, w_prev)
    assert 1.0 < got < w_prev
    # The clamp lands on the dip's bottom: nearby windows do not go lower.
    f = lambda w: (w / w_prev - 1.0) * math.log10(w)
    assert f(got) <= min(f(got * 1.01), f(got * 0.99)) + 1e-12


def test_invert_negative_target_from_unit_window():
    assert invert_w_hat(-0.4, 1.0) == 1.0


def test_invert_clamps_huge_positive_targets():
    w_prev = 4.0
    assert invert_w_hat(1e9, w_prev) == w_prev * 1000.0


def test_invert_is_monotone_in_positive_targets():
    w_prev = 6.0
    targets = np.linspace(0.01, 2.0, 40)
    ws = [invert_w_hat(t, w_prev) for t in targets]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_invert_validates_inputs():
    with pytest.raises(ValueError):
        invert_w_hat(float("nan"), 2.0)
    for w_prev in (0.5, math.nextafter(W_MAX_PKTS, math.inf), math.inf, math.nan):
        with pytest.raises(ValueError, match="w_prev must be in"):
            invert_w_hat(0.1, w_prev)
    assert invert_w_hat(0.1, W_MAX_PKTS) == W_MAX_PKTS


def test_controller_parameter_validation():
    model = model_with({})
    for kwargs in (
        dict(c1=1.0), dict(c1=float("nan")), dict(c2=0.0), dict(c2=1.0),
        dict(epoch_ms=0), dict(w_init=0.5), dict(w_init=float("nan")),
        dict(c1=float("inf")), dict(epoch_ms=1.5),
    ):
        with pytest.raises(ValueError):
            MdiController(model, **kwargs)
    for seed in (1.5, True, -1, "1"):
        with pytest.raises(ValueError, match="seed"):
            MdiController(model, seed=seed)
    MdiController(model, seed=np.int64(3))


def test_bootstrap_holds_until_delay_history_exists():
    ctrl = MdiController(model_with({}), w_init=5.0)
    # Silence first, then the first delay sample: both hold.
    for feedback in (fb(0.0, acked=0), fb(10.0)):
        window, _ = ctrl.on_epoch(feedback)
        assert window == 5.0
    assert ctrl.boundary_count == 0 and ctrl.fallback_count == 0


def test_silent_epochs_hold_even_with_history():
    ctrl = MdiController(model_with({}), w_init=5.0)
    ctrl.on_epoch(fb(10.0))
    before = ctrl.window
    for _ in range(10):
        window, _ = ctrl.on_epoch(fb(0.0, acked=0))
        assert window == before
    assert ctrl.boundary_count == 0


def test_collapse_below_trained_range_grows_multiplicatively():
    ctrl = MdiController(model_with({}), c1=1.25, w_init=10.0)
    ctrl.on_epoch(fb(100.0))
    # d_hat = (30/100 - 1) * log10(30) = -1.03, below the trained range.
    window, _ = ctrl.on_epoch(fb(30.0))
    assert window == pytest.approx(12.5)
    assert (ctrl.range_low_count, ctrl.range_high_count, ctrl.boundary_count) == (1, 0, 1)
    assert ctrl.d_idx_prev == 0  # clamped into the lowest delay bucket


def test_blowup_above_trained_range_backs_off():
    ctrl = MdiController(model_with({}), c2=0.8, w_init=10.0)
    ctrl.on_epoch(fb(10.0))
    # d_hat = (20/10 - 1) * log10(20) = +1.30, above the trained range.
    window, _ = ctrl.on_epoch(fb(20.0))
    assert window == pytest.approx(8.0)
    assert (ctrl.range_low_count, ctrl.range_high_count, ctrl.boundary_count) == (0, 1, 1)
    assert ctrl.d_idx_prev == 2


def test_backoff_never_goes_below_one_packet():
    ctrl = MdiController(model_with({}), c2=0.8, w_init=1.0)
    ctrl.on_epoch(fb(10.0))
    window, _ = ctrl.on_epoch(fb(20.0))
    assert window == 1.0


def test_growth_below_the_range_stops_at_the_ceiling():
    w_init = W_MAX_PKTS - 1.0
    ctrl = MdiController(model_with({}), c1=1.25, w_init=w_init)
    ctrl.on_epoch(fb(100.0))
    window, _ = ctrl.on_epoch(fb(30.0))  # 1.25 * w_init is past the ceiling
    assert window == W_MAX_PKTS
    assert ctrl.range_low_count == 1
    assert ctrl.w_idx_prev == small_grid().w_bucket(composite(window, w_init))


def test_point_mass_on_zero_movement_holds_forever():
    # Every in-range row says "stay in the flat window bucket", whose
    # midpoint composite is exactly zero, so the window must not move.
    cells = {(1, l, 1, 1): 1 for l in range(3)}
    ctrl = MdiController(model_with(cells), w_init=7.0, seed=3)
    ctrl.on_epoch(fb(10.0))
    for _ in range(100):
        window, _ = ctrl.on_epoch(fb(10.0))  # flat delay, composite 0, in range
        assert window == 7.0
    assert ctrl.fallback_count == 0 and ctrl.boundary_count == 0


def test_point_mass_on_growth_ratchets_upward():
    cells = {(1, l, 1, 2): 1 for l in range(3)}
    ctrl = MdiController(model_with(cells), w_init=4.0, seed=0)
    ctrl.on_epoch(fb(10.0))
    windows = [window for window, _ in (ctrl.on_epoch(fb(10.0)) for _ in range(10))]
    assert all(a < b for a, b in zip(windows, windows[1:]))
    # Each step realizes the +0.2 composite against the previous window.
    expected = invert_w_hat(0.2, 4.0)
    assert windows[0] == pytest.approx(expected, rel=1e-9)
    assert ctrl.w_idx_prev == 2
    assert ctrl.unreached_count == 0


def test_unseen_exact_row_backs_off_to_quadrant_marginal():
    # Mass exists only for window bucket 2, but a fresh controller starts
    # from the flat bucket 1, so the exact (k, l, r) lookup misses.
    ctrl = MdiController(model_with({(1, 2, 1, 2): 4}), w_init=4.0)
    ctrl.on_epoch(fb(10.0))
    window, _ = ctrl.on_epoch(fb(10.0))
    assert ctrl.marginal_count == 1
    assert ctrl.fallback_count == 0
    assert window > 4.0  # sampled the growth bucket from the marginal


def test_wholly_unseen_quadrant_holds_and_counts_fallback():
    ctrl = MdiController(model_with({}), w_init=4.0)
    ctrl.on_epoch(fb(10.0))
    for i in range(3):
        window, _ = ctrl.on_epoch(fb(10.0))
        assert window == 4.0
    assert ctrl.fallback_count == 3
    assert ctrl.epoch_count == 4


def test_walk_calls_invert_w_hat_through_the_module(monkeypatch):
    # A benchmark times the inversions by replacing runtime.invert_w_hat;
    # a walk holding the function it imported would go unseen.
    calls = []

    def counted(target, w_prev):
        calls.append(target)
        return invert_w_hat(target, w_prev)

    monkeypatch.setattr(runtime, "invert_w_hat", counted)
    params = LinkParams(trace=LinkTrace(np.arange(4000) // 2), duration_ms=2000)
    model = TransitionModel(small_grid(), np.ones((3, 3, 3, 3), dtype=np.uint64))
    ctrl = MdiController(model, epoch_ms=20, w_init=4.0)
    result = run_simulation(params, ctrl)
    # Every epoch with ACKs but the first draws a move, or exits the range.
    assert ctrl.fallback_count == 0
    assert len(calls) == len(result.epochs) - 1 - ctrl.boundary_count > 0


def test_same_seed_same_walk_different_seed_diverges():
    cells = {}
    for l in range(3):
        cells[(1, l, 1, 0)] = 3
        cells[(1, l, 1, 1)] = 4
        cells[(1, l, 1, 2)] = 3
    def walk(seed):
        ctrl = MdiController(model_with(cells), w_init=20.0, seed=seed)
        ctrl.on_epoch(fb(10.0))
        return [window for window, _ in (ctrl.on_epoch(fb(10.0)) for _ in range(50))]

    assert walk(1) == walk(1)
    assert walk(1) != walk(2)


def test_boundary_event_updates_window_bucket_memory():
    # After a back-off the controller remembers the decrease bucket it
    # just realized, so the next lookup row reflects the multiplier move.
    ctrl = MdiController(model_with({}), c2=0.8, w_init=10.0)
    ctrl.on_epoch(fb(10.0))
    ctrl.on_epoch(fb(20.0))
    grid = small_grid()
    moved = composite(8.0, 10.0)
    assert ctrl.w_idx_prev == grid.w_bucket(moved)


def test_state_records_the_bucket_the_window_reached():
    # Flat delay keeps r = 1. From the flat bucket the walk grows (v2),
    # and from growth it draws a decrease (v0), whose -0.2 midpoint lies
    # below the composite's dip once the window is small, so the
    # inversion clamps short of it. Remembering the drawn v0 would keep
    # drawing decreases until the window sits at one packet; the bucket
    # reached is flat, which draws growth again.
    cells = {(1, 0, 1, 0): 5, (1, 1, 1, 2): 5, (1, 2, 1, 0): 5}
    ctrl = MdiController(model_with(cells), w_init=4.0, seed=0)
    grid = small_grid()
    drawn = {0: 0, 1: 2, 2: 0}  # each row's one bucket, by l
    unreached = 0
    for _ in range(300):
        before, v = ctrl.window, drawn[ctrl.w_idx_prev]
        sampled = ctrl.d_prev_ms is not None
        ctrl.on_epoch(fb(10.0))
        assert ctrl.w_idx_prev == grid.w_bucket(composite(ctrl.window, before))
        assert ctrl.window != 1.0
        unreached += sampled and ctrl.w_idx_prev != v
    assert ctrl.unreached_count == unreached > 0


def test_verus_model_keeps_trace_t41_off_the_one_packet_floor(verus_bundle):
    # On t41 with these seeds the walk once reached a row whose only
    # counts draw a decrease at flat delay, and sat at one packet for
    # most of the minute, at 6% of native's median throughput.
    name, trace = verus_bundle.traces[41]
    params = LinkParams(trace=trace, seed=derive_run_seed(99, name, 0), **harness.LINK)
    native = run_simulation(params, harness.make_verus())
    ctrl = MdiController(
        verus_bundle.model, epoch_ms=harness.VERUS.epoch_ms, seed=derive_run_seed(99, name, 1)
    )
    mdi = run_simulation(params, ctrl)
    assert mdi.summary.throughput_mbps.p50 >= 0.5 * native.summary.throughput_mbps.p50


def walk_reads(
    model: TransitionModel, params: LinkParams, **kwargs
) -> tuple[SimResult, dict, list]:
    """Run a walk on `model`. Record each (k, l, r) row whose tier it
    reads from the decision table under the epoch-log row it was
    handling, and the state (d_idx_prev, w_idx_prev) it remembers after
    each row."""
    shape = model.decision_table[0].shape
    reads: dict[int, tuple] = {}
    states: list[tuple] = []
    row = -1

    class Tiers:
        """The walk's flat tier view, recording each index read."""

        def __init__(self, view):
            self.view = view

        def __getitem__(self, i):
            assert row not in reads  # one read per epoch
            reads[row] = tuple(map(int, np.unravel_index(i, shape)))
            return self.view[i]

    class Walk(MdiController):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self._tiers = Tiers(self._tiers)

        def on_epoch(self, feedback):
            nonlocal row
            row += feedback.acked_pkts > 0  # an epoch with ACKs is the log's next row
            decision = super().on_epoch(feedback)
            if feedback.acked_pkts > 0:
                states.append((self.d_idx_prev, self.w_idx_prev))
            return decision

    return run_simulation(params, Walk(model, **kwargs)), reads, states


def assert_walk_reads_its_log(
    cfg: QuantizerConfig, result: SimResult, reads: dict, states: list
) -> None:
    """The walk's transitions are the ones the trainer counts on its log.

    After each row but the first and the last, the walk remembers the
    state derive_states gives that row. At each row j >= 1 whose delay
    composite is in range it reads (k, l, r): the state it remembered
    after row j - 1, then the delay bucket of row j; it reads nothing
    at a range exit. So count_transitions on the log counts exactly
    each read (k, l, r) -> the window bucket the walk reached. Two
    reads fall outside the count: the first, which has no state before
    it (k = r, and l is the bucket of a window held at w_init), and the
    last, whose window move the log never shows.
    """
    log = result.epochs
    n = len(log)
    assert len(states) == n
    d, w = derive_states(log, cfg)
    assert states[1:-1] == list(zip(d.tolist(), w.tolist()))
    d_hat, _ = log.composites
    if n >= 2:  # the last row's delay bucket is the log's too
        assert states[-1][0] == cfg.d_bucket(d_hat[-1])
    counted = count_transitions(cfg, d, w)
    walked = np.zeros_like(counted)
    for j in range(2, n - 1):
        walked[states[j - 1] + states[j]] += 1
    assert np.array_equal(counted, walked)
    lo, hi = cfg.d_hat_edges[0], cfg.d_hat_edges[-1]
    want = {}
    for j in range(1, n):
        if lo <= d_hat[j - 1] <= hi:  # a range exit looks nothing up
            r = states[j][0]
            k, l = states[j - 1] if j >= 2 else (r, cfg.w_bucket(0.0))
            want[j] = (k, l, r)
    assert reads == want


@pytest.mark.parametrize("bundle_name", ["verus_bundle", "copa_bundle"])
def test_walk_reads_the_states_its_own_log_derives(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    for run in bundle.held:
        params = LinkParams(
            trace=run.trace, seed=derive_run_seed(harness.MASTER_SEED, run.name + ":m", 0),
            **harness.LINK,
        )
        result, reads, states = walk_reads(
            bundle.model, params, epoch_ms=bundle.spec.epoch_ms,
            seed=derive_run_seed(harness.MASTER_SEED, run.name + ":m", 1),
        )
        assert list(result.epochs) == list(run.mdi_records)  # the same walk
        assert len(reads) > len(result.epochs) // 2  # not a vacuous match
        assert_walk_reads_its_log(bundle.model.cfg, result, reads, states)


def row_tv(model: TransitionModel, logs, min_count: int = 20) -> np.ndarray:
    """Total-variation distance between each (k, l, r) row of `model`
    and of the model retrained on its grid from `logs`, over the rows
    that hold at least min_count transitions in both."""
    cfg = model.cfg
    again = TransitionModel(
        cfg, sum(count_transitions(cfg, *derive_states(log, cfg)) for log in logs)
    )
    both = (model.counts.sum(axis=3) >= min_count) & (again.counts.sum(axis=3) >= min_count)
    return 0.5 * np.abs(model.quadrant_rows[both] - again.quadrant_rows[both]).sum(axis=-1)


@pytest.mark.parametrize("bundle_name", ["verus_bundle", "copa_bundle"])
def test_retraining_on_model_driven_runs_reproduces_the_model(bundle_name, request):
    # The model is a fixed point of its own walk: retrained on the
    # held-out model-driven runs, its well-visited rows come back about
    # as closely as they do from the baseline's own held-out runs, whose
    # spread sets the noise level.
    bundle = request.getfixturevalue(bundle_name)
    mdi = row_tv(bundle.model, [run.mdi_records for run in bundle.held])
    native = row_tv(bundle.model, [run.native.epochs for run in bundle.held])
    assert mdi.size >= 20 and native.size >= 20  # not a vacuous match
    assert np.median(mdi) <= np.percentile(native, 90)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.sampled_from([0, 0, 0, 1, 5]), min_size=81, max_size=81),
    gaps=st.lists(st.integers(0, 6), min_size=1, max_size=200),
    prop_ms=st.integers(5, 40),
    queue=st.one_of(st.none(), st.integers(1, 20)),
    loss=st.floats(0.0, 0.3),
    duration_ms=st.integers(100, 3000),
    w_init=st.floats(1.0, 3.0),
    epoch_ms=st.integers(5, 30),
    seed=st.integers(0, 2**32),
)
def test_walk_reads_its_log_on_short_lossy_links(
    counts, gaps, prop_ms, queue, loss, duration_ms, w_init, epoch_ms, seed
):
    # A window of a few packets on a round trip longer than the epoch
    # leaves many epochs without ACKs, which the log leaves out.
    stamps = np.cumsum(gaps)  # one more stamp below, so the trace can wrap
    params = LinkParams(
        trace=LinkTrace(np.append(stamps, stamps[-1] + 1)), one_way_prop_ms=prop_ms,
        queue_capacity_pkts=queue, loss_rate=loss, seed=seed, duration_ms=duration_ms,
    )
    model = TransitionModel(small_grid(), np.reshape(counts, (3, 3, 3, 3)))
    result, reads, states = walk_reads(model, params, w_init=w_init, epoch_ms=epoch_ms, seed=seed)
    assert_walk_reads_its_log(model.cfg, result, reads, states)
