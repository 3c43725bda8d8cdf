"""Composite computation and grid quantization."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from mdi.markov import empirical_distribution
from mdi.quantizer import (
    FitError,
    QuantizerConfig,
    bucket,
    composite,
    fit_config,
)
from mdi.trainer import EpochLog


def test_equal_delays_give_exact_zero():
    for d in (0.5, 1.0, 7.25, 123.0):
        assert composite(d, d) == 0.0


def test_delay_composite_reference_values():
    assert composite(200.0, 100.0) == pytest.approx(2.30103, abs=1e-5)
    assert composite(50.0, 100.0) == pytest.approx(-0.849485, abs=1e-5)
    assert composite(20.0, 10.0) == pytest.approx(1.30103, abs=1e-5)
    assert composite(5.0, 10.0) == pytest.approx(-0.349485, abs=1e-5)


def test_window_composite_matches_delay_form():
    # A log's window column takes the same formula as its delay column,
    # so the same reference points hold.
    log = EpochLog([0, 20, 40], [10.0, 10.0, 10.0], [100.0, 200.0, 10.0])
    d_hat, w_hat = log.composites
    assert d_hat.tolist() == [0.0, 0.0]
    assert w_hat == pytest.approx([2.30103, -0.95], abs=1e-5)


def test_observation_rejects_nonfinite_fields():
    good = np.linspace(-1.0, 1.0, 200)
    for bad in (math.nan, math.inf, -math.inf):
        spoiled = good.copy()
        spoiled[7] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_config(spoiled, good)
        with pytest.raises(ValueError, match="finite"):
            fit_config(good, spoiled)
        with pytest.raises(ValueError, match="non-finite"):
            bucket(spoiled, (-1.0, 0.0, 1.0))


def one_state_log(cfg: QuantizerConfig, d_idx: int, w_idx: int) -> EpochLog:
    """A two-epoch log whose one state is (d_idx, w_idx) on cfg's grid.

    The second epoch's values are 10, where log10 is 1, so each
    composite is the ratio to the first epoch's value minus one; the
    first epoch's values put it at the bucket's midpoint.
    """
    d, w = cfg.d_midpoint(d_idx), cfg.w_midpoint(w_idx)
    return EpochLog([0, 20], [10.0 / (1.0 + d), 10.0], [10.0 / (1.0 + w), 10.0])


def test_state_index_flat_round_trip():
    # A state's flat index is row-major: d_idx * n_w + w_idx.
    cfg = QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0)
    for d_idx in range(cfg.n_d):
        for w_idx in range(cfg.n_w):
            flat = np.flatnonzero(empirical_distribution(one_state_log(cfg, d_idx, w_idx), cfg))
            assert flat.tolist() == [d_idx * cfg.n_w + w_idx]
            assert divmod(int(flat[0]), cfg.n_w) == (d_idx, w_idx)


def test_uniform_config_edge_layout():
    cfg = QuantizerConfig.uniform(-1.0, 1.0, -2.0, 2.0, n_d=2, n_w=4)
    assert cfg.d_hat_edges == (-1.0, 0.0, 1.0)
    assert len(cfg.w_hat_edges) == 5
    assert cfg.n_states == 8
    steps = np.diff(cfg.w_hat_edges)
    assert np.allclose(steps, steps[0], atol=1e-12)


def test_config_rejects_bad_edges():
    with pytest.raises(ValueError):
        QuantizerConfig((0.0, 1.0), (0.0, 0.5, 1.0))  # too few d edges
    with pytest.raises(ValueError):
        QuantizerConfig((0.0, 1.0, 0.5), (0.0, 0.5, 1.0))  # not increasing
    with pytest.raises(ValueError):
        QuantizerConfig((0.0, 0.5, 1.0), (0.0, math.inf, 2.0))


def test_buckets_are_half_open_and_clamp():
    cfg = QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_d=2, n_w=2)
    # Edges on the delay axis are (-1, 0, 1).
    assert cfg.d_bucket(-0.5) == 0
    assert cfg.d_bucket(0.0) == 1  # left-closed boundary
    assert cfg.d_bucket(0.999) == 1
    assert cfg.d_bucket(1.0) == 1  # top edge clamps into the last bucket
    assert cfg.d_bucket(-5.0) == 0
    assert cfg.d_bucket(5.0) == 1
    with pytest.raises(ValueError):
        cfg.d_bucket(math.nan)


def test_midpoints_stay_inside_their_buckets():
    cfg = QuantizerConfig.uniform(-0.7, 1.3, -0.2, 0.4, n_d=5, n_w=7)
    for i in range(cfg.n_d):
        assert cfg.d_hat_edges[i] < cfg.d_midpoint(i) < cfg.d_hat_edges[i + 1]
    for j in range(cfg.n_w):
        assert cfg.w_hat_edges[j] < cfg.w_midpoint(j) < cfg.w_hat_edges[j + 1]
    with pytest.raises(ValueError):
        cfg.d_midpoint(cfg.n_d)
    with pytest.raises(ValueError):
        cfg.w_midpoint(-1)


def test_fit_pins_outer_edges_to_percentiles():
    vals = np.linspace(-1.0, 1.0, 201)
    cfg = fit_config(vals, vals[::-1])
    assert cfg.d_hat_edges[0] == pytest.approx(-0.98, abs=1e-9)
    assert cfg.d_hat_edges[-1] == pytest.approx(0.98, abs=1e-9)
    assert cfg.w_hat_edges[0] == pytest.approx(-0.98, abs=1e-9)
    assert cfg.w_hat_edges[-1] == pytest.approx(0.98, abs=1e-9)
    d_steps = np.diff(cfg.d_hat_edges)
    assert np.allclose(d_steps, d_steps[0], atol=1e-9)


def test_fit_needs_enough_observations():
    vals = np.arange(99, dtype=np.float64)
    with pytest.raises(FitError):
        fit_config(vals, vals)
    with pytest.raises(ValueError):
        fit_config(np.arange(200.0), np.arange(199.0))


def test_fit_rejects_degenerate_axis():
    vals = np.arange(200, dtype=np.float64)
    with pytest.raises(FitError):
        fit_config(np.full(200, 0.5), vals)
    with pytest.raises(FitError):
        fit_config(vals, np.full(200, -2.0))


def test_every_default_grid_state_round_trips():
    cfg = QuantizerConfig.uniform(-2.0, 2.0, -0.5, 0.5)
    assert cfg.n_states == 231
    for flat in range(cfg.n_states):
        d_idx, w_idx = divmod(flat, cfg.n_w)
        assert cfg.d_bucket(cfg.d_midpoint(d_idx)) == d_idx
        assert cfg.w_bucket(cfg.w_midpoint(w_idx)) == w_idx


def test_quantize_random_sweep_matches_manual_bucketing():
    cfg = QuantizerConfig.uniform(-1.5, 2.5, -0.8, 0.9, n_d=7, n_w=13)
    rng = np.random.default_rng(42)
    d_hat, w_hat = rng.uniform(-3.0, 3.0, size=(2, 500))
    d_idx = bucket(d_hat, cfg.d_hat_edges)
    w_idx = bucket(w_hat, cfg.w_hat_edges)
    for i in range(500):
        d_ref = min(max(bisect_right(cfg.d_hat_edges, d_hat[i]) - 1, 0), 6)
        w_ref = min(max(bisect_right(cfg.w_hat_edges, w_hat[i]) - 1, 0), 12)
        assert (d_idx[i], w_idx[i]) == (d_ref, w_ref)
        assert (cfg.d_bucket(d_hat[i]), cfg.w_bucket(w_hat[i])) == (d_ref, w_ref)
