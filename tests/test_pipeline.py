"""Batch training orchestration and seed derivation."""

import pytest

from mdi.controllers import Pinned, VerusLike
from mdi.pipeline import derive_run_seed, run_and_derive, train_on_traces
from mdi.quantizer import FitError
from mdi.trace import SyntheticTraceSpec, gen_rapidly_changing


def make_traces(n, rate_lo=6.0, rate_hi=18.0, duration_s=8):
    out = []
    for i in range(n):
        spec = SyntheticTraceSpec(
            duration_s=duration_s, segment_s=2.0,
            rate_min_mbps=rate_lo, rate_max_mbps=rate_hi, seed=100 + i,
        )
        out.append((f"t{i}", gen_rapidly_changing(spec)))
    return out


def test_run_seeds_are_stable_and_distinct():
    assert derive_run_seed(7, "t00:n", 0) == derive_run_seed(7, "t00:n", 0)
    seen = {
        derive_run_seed(m, tag, i)
        for m in (1, 7)
        for tag in ("a", "b", "a:n")
        for i in (0, 1)
    }
    assert len(seen) == 12
    for s in seen:
        assert 0 <= s < 2**63


def test_training_summary_is_consistent_with_the_model():
    traces = make_traces(3)
    model, summary = train_on_traces(
        traces, VerusLike, duration_ms=8000, one_way_prop_ms=10,
        queue_capacity_pkts=500, master_seed=3,
    )
    assert summary.keys() == {"runs", "epochs"}
    assert summary["runs"] == 3
    assert (model.cfg.n_d, model.cfg.n_w) == (11, 21)
    # Each run of n epochs yields n-1 states and n-2 transitions.
    assert 0 < model.total_transitions == summary["epochs"] - 2 * summary["runs"]


def test_training_is_deterministic_in_the_master_seed():
    traces = make_traces(2)
    kwargs = dict(duration_ms=6000, queue_capacity_pkts=300, loss_rate=0.02)
    m1, s1 = train_on_traces(traces, VerusLike, master_seed=5, **kwargs)
    m2, s2 = train_on_traces(traces, VerusLike, master_seed=5, **kwargs)
    m3, _ = train_on_traces(traces, VerusLike, master_seed=6, **kwargs)
    assert s1 == s2
    assert (m1.counts == m2.counts).all()
    assert m1.cfg == m2.cfg
    assert m1.cfg != m3.cfg or (m1.counts != m3.counts).any()


def test_runs_per_trace_multiplies_runs():
    traces = make_traces(2)
    _, summary = train_on_traces(
        traces, VerusLike, duration_ms=6000, runs_per_trace=2, master_seed=1
    )
    assert summary["runs"] == 4


def test_training_argument_validation():
    with pytest.raises(ValueError):
        train_on_traces([], VerusLike)
    with pytest.raises(ValueError):
        train_on_traces(make_traces(1), VerusLike, runs_per_trace=0)
    # Link keywords go straight to LinkParams; each run's seed is derived.
    with pytest.raises(TypeError):
        train_on_traces(make_traces(1), VerusLike, queue_pkts=10)
    with pytest.raises(TypeError):
        train_on_traces(make_traces(1), VerusLike, seed=3)
    with pytest.raises(TypeError):
        run_and_derive(make_traces(1)[0][1], VerusLike(), None, queue_pkts=10)


def test_too_little_data_to_fit_a_grid_fails_loudly():
    # A pinned controller never changes its window, so the pooled window
    # composites are all identical and no grid can be fitted.
    with pytest.raises(FitError):
        train_on_traces(
            make_traces(2), Pinned, duration_ms=8000, master_seed=1
        )


def test_run_and_derive_aligns_with_the_epoch_log():
    traces = make_traces(1)
    model, _ = train_on_traces(
        traces, VerusLike, duration_ms=8000, master_seed=2
    )
    result, log = run_and_derive(
        traces[0][1], VerusLike(), model.cfg, duration_ms=8000, seed=9
    )
    assert log is result.epochs and len(log) > 100


def test_run_and_derive_passes_link_keywords_to_the_run():
    traces = make_traces(1)
    model, _ = train_on_traces(traces, VerusLike, duration_ms=4000, master_seed=2)
    clean, _ = run_and_derive(traces[0][1], VerusLike(), model.cfg, duration_ms=4000)
    lossy, _ = run_and_derive(
        traces[0][1], VerusLike(), model.cfg, duration_ms=4000, loss_rate=0.3
    )
    assert clean.duration_ms == lossy.duration_ms == 4000
    assert clean.dropped_pkts == 0
    assert lossy.dropped_pkts > 0.2 * lossy.sent_pkts
