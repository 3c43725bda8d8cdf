"""Property tests for the columnar epoch-log path: the array composite,
vectorised and scalar bucketing, bincount counting and the epoch CSV
round trip."""

import io
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi.linksim import read_epoch_csv, write_epoch_csv
from mdi.quantizer import QuantizerConfig, bucket, composite_steps, compute_d_hat
from mdi.trainer import EpochLog, TransitionModel, derive_states

positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(positive, min_size=2, max_size=50))
def test_array_composite_is_bit_identical_to_the_scalar(values):
    got = composite_steps(np.array(values))
    want = np.array([compute_d_hat(c, p) for p, c in zip(values, values[1:])])
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
    cfg = QuantizerConfig(edges, edges, n_d=n, n_w=n)
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
    model = TransitionModel(cfg)
    reference = np.zeros_like(model.counts)
    for run in runs:
        for (k, l), (r, v) in zip(run, run[1:]):
            reference[k, l, r, v] += 1
        d_idx = [k for k, _ in run]
        w_idx = [l for _, l in run]
        assert model.add_transitions(d_idx, w_idx) == max(len(run) - 1, 0)
    assert np.array_equal(model.counts, reference)


@st.composite
def epoch_logs(draw):
    n = draw(st.integers(0, 30))
    t_ms = sorted(draw(st.lists(st.integers(0, 10**7), min_size=n, max_size=n)))
    delay = draw(st.lists(st.floats(1.0, 1e4), min_size=n, max_size=n))
    window = draw(st.lists(st.floats(1.0, 1e5), min_size=n, max_size=n))
    return EpochLog(t_ms, delay, window)


@settings(max_examples=100, deadline=None)
@given(epoch_logs(), st.booleans())
def test_epoch_csv_round_trip_preserves_the_log(log, derive):
    if derive and len(log) >= 2:
        log = derive_states(log, QuantizerConfig.uniform(-1.0, 1.0, -0.5, 0.5))
    buf = io.StringIO()
    write_epoch_csv(log, buf)
    back = read_epoch_csv(io.StringIO(buf.getvalue()))
    assert list(back) == list(log)
    assert back.derived == log.derived
