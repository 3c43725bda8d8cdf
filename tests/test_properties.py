"""Property tests for the columnar epoch-log path (the array composite,
vectorised and scalar bucketing, bincount counting, the one state
derivation both counting and visit frequencies read, the epoch CSV round
trip), the runtime's window inversion, the trace and model file round
trips, and the row tables."""

import io
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_linksim import reference_read_epoch_csv

from mdi.linksim import read_epoch_csv, write_epoch_csv
from mdi.markov import empirical_distribution
from mdi.quantizer import QuantizerConfig, bucket, composite, composite_steps
from mdi.runtime import _bisect_increasing, _dip_minimizer, invert_w_hat
from mdi.trace import LinkTrace, load_trace, save_trace
from mdi.trainer import (
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
    t_ms = sorted(draw(st.lists(st.integers(0, 10**7), min_size=n, max_size=n)))
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
@given(epoch_logs(min_size=2))
def test_both_consumers_read_the_one_derivation(log):
    # The visit frequencies and the transition counts of a run come from
    # the same states: one per epoch after the first, one transition
    # between each consecutive pair.
    cfg = QuantizerConfig.uniform(-1.0, 1.0, -0.5, 0.5)
    d_idx, w_idx = derive_states(log, cfg)
    visits = np.bincount(d_idx * cfg.n_w + w_idx, minlength=cfg.n_states)
    assert np.array_equal(empirical_distribution(log, cfg), visits / (len(log) - 1))
    assert count_transitions(cfg, d_idx, w_idx).sum() == len(log) - 2


def epoch_indices_in_order(text: str) -> bool:
    try:
        index = [int(row.split(",")[0]) for row in text.splitlines()[1:]]
    except ValueError:
        return False
    return index == list(range(len(index)))


@settings(max_examples=200, deadline=None)
@given(epoch_logs(), st.data())
def test_epoch_csv_reader_agrees_with_the_reference_on_edited_files(log, data):
    # One edit of the body from the characters an epoch CSV is made of;
    # both readers must agree on each, except that the reference never
    # reads the epoch_index column.
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
    if got is None and want is not None:
        assert not epoch_indices_in_order(edited)
    else:
        assert (got is None) == (want is None)
    if got is not None:
        assert_same_epochs(got, want)


def reference_dip_minimizer(w_prev: float) -> float:
    """The runtime's dip bisection as a fixed 80-step loop, no early exit."""
    lo, hi = 1.0, w_prev
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (math.log(mid) + 1.0) / w_prev - 1.0 / mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_bisect_increasing(target: float, lo: float, hi: float, w_prev: float) -> float:
    """The runtime's root bisection as a fixed 80-step loop, no early exit."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if composite(mid, w_prev) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


w_prevs = st.one_of(st.just(1.0), st.floats(1.0, 1e6))
targets = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e4, 1e5))


@settings(max_examples=200, deadline=None)
@given(w_prevs, targets)
def test_bisection_early_exit_is_bit_identical_to_fixed_steps(w_prev, target):
    m = _dip_minimizer(w_prev)
    assert m.hex() == reference_dip_minimizer(w_prev).hex()
    for lo, hi in ((m, w_prev), (w_prev, 1000.0 * w_prev)):
        got = _bisect_increasing(target, lo, hi, w_prev)
        assert got.hex() == reference_bisect_increasing(target, lo, hi, w_prev).hex()


@settings(max_examples=200, deadline=None)
@given(w_prevs, st.floats(0.0, 1.0))
def test_invert_w_hat_solves_its_equation(w_prev, u):
    # Any window in [1, 1000 * w_prev] gives a reachable target; the
    # inverse may pick the other branch of the dip, but must hit it.
    w = 1.0 + u * (1000.0 * w_prev - 1.0)
    target = composite(w, w_prev)
    got = invert_w_hat(target, w_prev)
    assert 1.0 <= got <= 1000.0 * w_prev
    assert composite(got, w_prev) == pytest.approx(target, rel=1e-9, abs=1e-12)
    if target < 0.0:
        assert _dip_minimizer(w_prev) <= got < w_prev


@settings(max_examples=200, deadline=None)
@given(w_prevs, st.floats(1e-9, 1e3))
def test_invert_w_hat_clamps_unreachable_targets(w_prev, excess):
    top = 1000.0 * w_prev
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
