"""Property tests for the columnar epoch-log path (the array composite,
vectorised and scalar bucketing, bincount counting, the one state
derivation both counting and visit frequencies read, the epoch CSV round
trip), the runtime's window inversion, the trace and model file round
trips, the decimal cell writer, the row tables and the runtime's
decision table."""

import io
import math
import sys
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_linksim import reference_read_epoch_csv

from mdi import runtime
from mdi.cells import format_cells
from mdi.controllers import EpochFeedback
from mdi.linksim import read_epoch_csv, write_epoch_csv
from mdi.markov import empirical_distribution, state_visits
from mdi.quantizer import QuantizerConfig, bucket, composite, composite_steps
from mdi.runtime import MdiController, _dip_minimizer, invert_w_hat
from mdi.trace import LinkTrace, load_trace, save_trace
from mdi.trainer import (
    EXACT,
    HOLD,
    MARGINAL,
    EpochLog,
    TransitionModel,
    count_transitions,
    derive_states,
    load_model,
    save_model,
)

positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(positive, min_size=2, max_size=50))
def test_array_composite_is_bit_identical_to_the_scalar(values):
    got = composite_steps(np.array(values))
    want = np.array([composite(c, p) for p, c in zip(values, values[1:])])
    assert got.tobytes() == want.tobytes()


@st.composite
def edges_and_values(draw):
    edges = sorted(set(draw(st.lists(finite, min_size=3, max_size=12))))
    if len(edges) < 3:
        edges = [-1.0, 0.0, 1.0]
    on_or_off = st.one_of(st.sampled_from(edges), finite)
    values = draw(st.lists(on_or_off, min_size=1, max_size=40))
    return tuple(edges), values


@settings(max_examples=200, deadline=None)
@given(edges_and_values())
def test_vectorised_bucketing_matches_clamped_bisect(case):
    edges, values = case
    n = len(edges) - 1
    want = [min(max(bisect_right(edges, x) - 1, 0), n - 1) for x in values]
    assert bucket(values, edges).tolist() == want
    cfg = QuantizerConfig(edges, edges)
    assert [cfg.d_bucket(x) for x in values] == want
    assert [cfg.w_bucket(x) for x in values] == want


@st.composite
def walks(draw):
    n_d = draw(st.integers(1, 4))
    n_w = draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, n_d - 1), st.integers(0, n_w - 1))
    runs = draw(st.lists(st.lists(cells, max_size=30), max_size=4))
    return n_d, n_w, runs


@settings(max_examples=100, deadline=None)
@given(walks())
def test_bincount_counting_matches_a_pairwise_loop(case):
    n_d, n_w, runs = case
    cfg = QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_d=max(n_d, 2), n_w=max(n_w, 2))
    for run in runs:
        reference = np.zeros((cfg.n_d, cfg.n_w, cfg.n_d, cfg.n_w), dtype=np.int64)
        for (k, l), (r, v) in zip(run, run[1:]):
            reference[k, l, r, v] += 1
        d_idx = [k for k, _ in run]
        w_idx = [l for _, l in run]
        assert np.array_equal(count_transitions(cfg, d_idx, w_idx), reference)


@st.composite
def epoch_logs(draw, min_size=0):
    n = draw(st.integers(min_size, 30))
    # A run logs its epoch boundaries in increasing order.
    t_ms = sorted(draw(st.lists(st.integers(0, 10**7), min_size=n, max_size=n, unique=True)))
    delay = draw(st.lists(st.floats(1.0, 1e4), min_size=n, max_size=n))
    window = draw(st.lists(st.floats(1.0, 1e5), min_size=n, max_size=n))
    return EpochLog(t_ms, delay, window)


def epoch_csv(log: EpochLog) -> str:
    buf = io.StringIO()
    write_epoch_csv(log, buf)
    return buf.getvalue()


def assert_same_epochs(got: EpochLog, want: EpochLog) -> None:
    for field in ("t_ms", "delay_ms", "window_pkts"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@settings(max_examples=100, deadline=None)
@given(epoch_logs())
def test_epoch_csv_round_trip_preserves_the_log(log):
    text = epoch_csv(log)
    back = read_epoch_csv(io.StringIO(text))
    assert list(back) == list(log)
    assert_same_epochs(back, reference_read_epoch_csv(io.StringIO(text)))


@settings(max_examples=100, deadline=None)
@given(epoch_logs(min_size=3))
def test_both_consumers_read_the_one_derivation(log):
    # The visit frequencies and the transition counts of a run come from
    # the same states: one per epoch but the first and the last, one
    # transition between each consecutive pair.
    cfg = QuantizerConfig.uniform(-1.0, 1.0, -0.5, 0.5)
    d_idx, w_idx = derive_states(log, cfg)
    visits = np.bincount(d_idx * cfg.n_w + w_idx, minlength=cfg.n_states)
    assert np.array_equal(state_visits(log, cfg), visits)
    assert np.array_equal(empirical_distribution(log, cfg), visits / (len(log) - 2))
    assert count_transitions(cfg, d_idx, w_idx).sum() == len(log) - 3


@settings(max_examples=200, deadline=None)
@given(epoch_logs(), st.data())
def test_epoch_csv_reader_agrees_with_the_reference_on_edited_files(log, data):
    # One edit of the body from the characters an epoch CSV is made of;
    # both readers must agree on each.
    text = epoch_csv(log)
    at = data.draw(st.integers(text.index("\n") + 1, len(text)))
    cut = data.draw(st.integers(0, 2))
    edited = text[:at] + data.draw(st.text("019.e-,\n", max_size=2)) + text[at + cut :]
    assume(edited != text)

    def outcome(read):
        try:
            return read(io.StringIO(edited))
        except ValueError:
            return None

    got, want = outcome(read_epoch_csv), outcome(reference_read_epoch_csv)
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_epochs(got, want)


def dip_slope(w: float, w_prev: float) -> float:
    """ln(10) times the window composite's derivative: its sign rule."""
    return (math.log(w) + 1.0) / w_prev - 1.0 / w


def reference_dip_minimizer(w_prev: float) -> float:
    """The dip minimizer by an 80-step bisection on the slope's sign."""
    lo, hi = 1.0, w_prev
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dip_slope(mid, w_prev) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_bisect_increasing(target: float, lo: float, hi: float, w_prev: float) -> float:
    """A root of composite(w, w_prev) = target in [lo, hi] by 80 bisection steps."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if composite(mid, w_prev) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def span_top(w_prev: float) -> float:
    """The positive search bound: 1000 * w_prev, at most the largest float."""
    return min(1000.0 * w_prev, sys.float_info.max)


def reference_invert_w_hat(target: float, w_prev: float) -> float:
    """invert_w_hat with both Newton iterations replaced by the bisections."""
    if target == 0.0:
        return w_prev
    if target > 0.0:
        top = span_top(w_prev)
        if composite(top, w_prev) <= target:
            return top
        return reference_bisect_increasing(target, w_prev, top, w_prev)
    if w_prev <= 1.0:
        return 1.0
    m = reference_dip_minimizer(w_prev)
    if target <= composite(m, w_prev):
        return m
    return reference_bisect_increasing(target, m, w_prev, w_prev)


def assert_next_to_a_crossing(fn, target: float, w: float) -> None:
    """w is one of two adjacent floats a < b with fn(a) < target <= fn(b)."""
    if fn(w) < target:
        assert not fn(math.nextafter(w, math.inf)) < target
    else:
        assert fn(math.nextafter(w, -math.inf)) < target


w_prevs = st.one_of(st.just(1.0), st.floats(1.0, sys.float_info.max))
targets = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e4, 1e5))


def assert_inverts_or_clamps(target: float, w_prev: float) -> None:
    got = invert_w_hat(target, w_prev)
    top = span_top(w_prev)
    if target == 0.0:
        assert got == w_prev
    elif target > 0.0 and composite(top, w_prev) <= target:
        assert got == top
    elif target < 0.0 and w_prev == 1.0:
        assert got == 1.0
    else:
        if target < 0.0:
            m = _dip_minimizer(w_prev)
            assert_next_to_a_crossing(lambda w: dip_slope(w, w_prev), 0.0, m)
            if target <= composite(m, w_prev):
                assert got == m
                return
        assert_next_to_a_crossing(lambda w: composite(w, w_prev), target, got)


@settings(max_examples=300, deadline=None)
@given(w_prevs, targets)
def test_invert_w_hat_returns_a_float_next_to_a_crossing(w_prev, target):
    assert_inverts_or_clamps(target, w_prev)


TANGENT_W_PREV = 2761.812011624613


@pytest.mark.parametrize(
    "w_prev, target",
    [
        # Within 1e-12 of the dip's bottom the float composite is noise
        # across hundreds of thousands of ulps around the root.
        (TANGENT_W_PREV, composite(_dip_minimizer(TANGENT_W_PREV), TANGENT_W_PREV) * (1 - 1e-12)),
        (1e6, 1e-300),
        (1e6, -1e-300),
        (1e6, 1e-12),
        (TANGENT_W_PREV, composite(1000.0 * TANGENT_W_PREV, TANGENT_W_PREV) * (1 - 1e-15)),
    ],
    ids=["dip-tangent", "tiny-positive", "tiny-negative", "small-positive", "span-top"],
)
def test_invert_w_hat_returns_near_tangents_and_extremes(w_prev, target):
    assert_inverts_or_clamps(target, w_prev)


def test_newton_matches_the_reference_bisection_where_the_crossing_is_single():
    # Where the float composite crosses the target once within 16 ulps
    # of the bisection's answer, both must return the same float; inside
    # a noisy band each may return a different crossing. 18,363 of these
    # 20,000 pairs have a single crossing there.
    rng = np.random.default_rng(20_000)
    w_prevs_ = np.exp(rng.uniform(0.0, math.log(3000.0), 20_000)).tolist()
    targets_ = rng.uniform(-0.3, 0.3, 20_000).tolist()
    checked = 0
    for w_prev, target in zip(w_prevs_, targets_):
        assert _dip_minimizer(w_prev) == reference_dip_minimizer(w_prev)
        want = reference_invert_w_hat(target, w_prev)
        window = [want]
        for direction in (-math.inf, math.inf):
            w = want
            for _ in range(16):
                w = math.nextafter(w, direction)
                window.append(w)
        window.sort()
        below = [composite(w, w_prev) < target for w in window]
        if sum(a != b for a, b in zip(below, below[1:])) == 1:
            assert invert_w_hat(target, w_prev) == want
            checked += 1
    assert checked >= 18_000


@settings(max_examples=200, deadline=None)
@given(w_prevs, st.floats(0.0, 1.0))
def test_invert_w_hat_solves_its_equation(w_prev, u):
    # Any window in [1, span_top(w_prev)] gives a reachable target; the
    # inverse may pick the other branch of the dip, but must hit it.
    w = 1.0 + u * (span_top(w_prev) - 1.0)
    target = composite(w, w_prev)
    got = invert_w_hat(target, w_prev)
    assert 1.0 <= got <= span_top(w_prev)
    assert composite(got, w_prev) == pytest.approx(target, rel=1e-9, abs=1e-12)
    if target < 0.0:
        assert _dip_minimizer(w_prev) <= got < w_prev


@settings(max_examples=200, deadline=None)
@given(w_prevs, st.floats(1e-9, 1e3))
def test_invert_w_hat_clamps_unreachable_targets(w_prev, excess):
    top = span_top(w_prev)
    assert invert_w_hat(composite(top, w_prev) + excess, w_prev) == top
    m = _dip_minimizer(w_prev)
    assert invert_w_hat(composite(m, w_prev) - excess, w_prev) == m
    # The minimizer is the dip's lowest point.
    for w in (1.0 + 0.5 * (m - 1.0), m + 0.5 * (w_prev - m)):
        assert composite(m, w_prev) <= composite(w, w_prev)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0, 1, 2**40]),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=300),
    st.integers(1, 9000),
)
def test_trace_file_round_trip(start, gaps, mtu_bytes):
    trace = LinkTrace(start + np.cumsum(gaps), mtu_bytes=mtu_bytes)
    buf = io.BytesIO()
    save_trace(trace, buf)
    back = load_trace(io.BytesIO(buf.getvalue()), mtu_bytes=mtu_bytes)
    assert back == trace
    again = io.BytesIO()
    save_trace(back, again)
    assert again.getvalue() == buf.getvalue()


# Where a cell gains a digit: every 10**k - 1 and 10**k, up to 2**63 - 1.
DIGIT_EDGES = sorted({0, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0)})


@st.composite
def cell_columns(draw):
    """1-5 equal-length int32, int64 or uint8 columns, some cells or a
    whole column negative, and one separator byte per column."""
    rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    cols = []
    for _ in range(n_cols):
        info = np.iinfo(draw(st.sampled_from([np.int32, np.int64, np.uint8])))
        edges = [v for v in DIGIT_EDGES if v <= info.max]
        value = st.one_of(st.sampled_from(edges), st.integers(0, info.max))
        if info.min < 0:
            # Blanks reach int32's least value; the int64 extreme has its own test.
            negative = st.integers(-(2**31), -1)
            value = draw(st.sampled_from([value | negative, negative]))
        cols.append(np.array(draw(st.lists(value, min_size=rows, max_size=rows)), info.dtype))
    seps = "".join(draw(st.lists(st.sampled_from(",\n\t;"), min_size=n_cols, max_size=n_cols)))
    return cols, seps


@settings(max_examples=300, deadline=None)
@given(cell_columns())
def test_cell_writer_matches_a_str_join(case):
    cols, seps = case
    rows = zip(*(col.tolist() for col in cols))
    want = "".join((str(v) if v >= 0 else "") + sep for row in rows for v, sep in zip(row, seps))
    assert format_cells(cols, seps) == want.encode("ascii")


def test_cell_writer_blanks_the_least_int64():
    col = np.array([-(2**63), -1, 0, 2**63 - 1])
    want = b";9223372036854775807\n;0\n0;\n9223372036854775807;\n"
    assert format_cells([col, col[::-1]], ";\n") == want


def edge_lists(n: int):
    return st.lists(finite, min_size=n + 1, max_size=n + 1, unique=True).map(sorted)


@st.composite
def models(draw):
    """A model over random edges with sparse counts written directly, up
    to 2**40 per cell."""
    n_d, n_w = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    cfg = QuantizerConfig(draw(edge_lists(n_d)), draw(edge_lists(n_w)))
    counts = np.zeros((n_d, n_w, n_d, n_w), dtype=np.uint64)
    cells = st.tuples(
        st.integers(0, n_d - 1), st.integers(0, n_w - 1),
        st.integers(0, n_d - 1), st.integers(0, n_w - 1),
    )
    for cell, count in draw(st.lists(st.tuples(cells, st.integers(1, 2**40)), max_size=40)):
        counts[cell] += np.uint64(count)
    return TransitionModel(cfg, counts)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 40), st.integers(3, 40))
def test_config_sizes_follow_any_edge_counts(d_edges, w_edges):
    cfg = QuantizerConfig(range(d_edges), range(w_edges))
    n_d, n_w = d_edges - 1, w_edges - 1
    assert (cfg.n_d, cfg.n_w, cfg.n_states) == (n_d, n_w, n_d * n_w)
    assert (cfg.d_bucket(d_edges), cfg.w_bucket(w_edges)) == (n_d - 1, n_w - 1)
    assert TransitionModel(cfg).counts.shape == (n_d, n_w, n_d, n_w)


@settings(max_examples=200, deadline=None)
@given(models())
def test_model_file_round_trip_is_byte_stable(model):
    buf = io.BytesIO()
    save_model(model, buf)
    back = load_model(io.BytesIO(buf.getvalue()))
    assert back.cfg == model.cfg
    assert np.array_equal(back.counts, model.counts)
    again = io.BytesIO()
    save_model(back, again)
    assert again.getvalue() == buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(models())
def test_row_tables_are_stochastic_where_seen_and_zero_elsewhere(model):
    n_d, n_w = model.cfg.n_d, model.cfg.n_w
    for table, counts in (
        (model.quadrant_rows, model.counts),
        (model.full_rows, model.counts.reshape(n_d, n_w, -1)),
    ):
        seen = counts.sum(axis=-1) > 0
        assert (table >= 0.0).all()
        assert np.allclose(table[seen].sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
        assert not table[~seen].any()


@st.composite
def sparse_counts(draw):
    """Counts on a grid of 2x2 to 4x4. Each draw puts one count on a
    (k, r, v) cell for a set of window buckets l, so counts of 2**63
    make uint64 sums over l, or over a row, wrap."""
    n_d, n_w = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    counts = np.zeros((n_d, n_w, n_d, n_w), dtype=np.uint64)
    d, w = st.integers(0, n_d - 1), st.integers(0, n_w - 1)
    sizes = st.sampled_from([1, 3, 2**40, 2**63])
    for k, ls, r, v, count in draw(st.lists(st.tuples(d, st.sets(w, min_size=1), d, w, sizes))):
        counts[k, list(ls), r, v] = count
    return counts


@settings(max_examples=200, deadline=None)
@given(sparse_counts())
def test_decision_table_tiers_follow_the_counts(counts):
    n_d, n_w = counts.shape[:2]
    model = TransitionModel(QuantizerConfig(range(n_d + 1), range(n_w + 1)), counts)
    tier, cdf = model.decision_table
    assert tier.shape == (n_d, n_w, n_d) and tier.dtype == np.int8
    assert cdf.shape == (n_d, n_w, n_d, n_w) and cdf.dtype == np.float64
    for array, cell in ((tier, (0, 0, 0)), (cdf, (0, 0, 0, 0))):
        assert array.flags.c_contiguous and not array.flags.writeable
        with pytest.raises(ValueError):
            array[cell] = HOLD
    for k, l, r in np.ndindex(tier.shape):
        row = cdf[k, l, r]
        if counts[k, l, r].any():
            assert tier[k, l, r] == EXACT
            # The same draw as the cumsum of the row taken at each epoch.
            assert row.tobytes() == np.cumsum(model.quadrant_rows[k, l, r]).tobytes()
        elif counts[k, :, r].any():
            assert tier[k, l, r] == MARGINAL
            # Pooled over l in Python ints, which do not wrap.
            pooled = list(accumulate(sum(counts[k, :, r, v].tolist()) for v in range(n_w)))
            assert np.allclose(row, [c / pooled[-1] for c in pooled], rtol=0.0, atol=1e-12)
        else:
            assert tier[k, l, r] == HOLD
            assert not row.any()
            continue
        assert (np.diff(row) >= 0.0).all()
        assert row[-1] == pytest.approx(1.0, rel=0.0, abs=1e-12)


class _Uniform:
    """Stands in for a walk's generator: random() returns `u`."""

    u = 0.0

    def random(self) -> float:
        return self.u


@settings(max_examples=100, deadline=None)
@given(sparse_counts(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3))
def test_walk_draws_the_bucket_searchsorted_picks(counts, extra):
    # Delay grid: feeding d_prev + r after d_prev lands on edge r, so
    # the walk reads row (k, l, r) for the k and l it remembers.
    n_d, n_w = counts.shape[:2]
    d_prev = 10.0
    marks = [composite(d_prev + r, d_prev) for r in range(n_d)]
    cfg = QuantizerConfig((*marks, marks[-1] + 1.0), range(n_w + 1))
    model = TransitionModel(cfg, counts)
    tier, cdf = model.decision_table
    ctrl = MdiController(model, w_init=4.0)
    ctrl.rng = _Uniform()
    targets = []

    def record(target, w_prev):
        targets.append(target)
        return w_prev

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "invert_w_hat", record)
        for k, l, r in np.ndindex(tier.shape):
            if tier[k, l, r] == HOLD:
                continue
            row = cdf[k, l, r]
            for u in [*row.tolist(), 0.0, math.nextafter(1.0, 0.0), *extra]:
                ctrl.rng.u = u
                ctrl.d_prev_ms, ctrl.d_idx_prev, ctrl.w_idx_prev = d_prev, k, l
                ctrl.on_epoch(EpochFeedback(d_prev + r, 0.0, 1))
                v = min(int(np.searchsorted(row, u, side="right")), n_w - 1)
                assert targets.pop() == cfg.w_midpoint(v)
    assert ctrl.fallback_count == ctrl.boundary_count == 0
