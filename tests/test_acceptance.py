"""Whole-system checks: each test states one externally visible guarantee
of the toolkit at its operating scale (50 training runs, 5 held-out
traces per baseline), with explicit tolerances and time budgets.
"""

import io
import time

import numpy as np
import pytest

import harness
from harness import constant_trace
from mdi.controllers import CopaLike, Pinned, VerusLike
from mdi.heatmap import decrease_share
from mdi.linksim import (
    LinkParams,
    run_simulation,
    write_epoch_csv,
    write_packet_csv,
)
from mdi import markov
from mdi.quantizer import QuantizerConfig, composite
from mdi.trainer import TransitionModel, count_transitions, save_model


def test_composite_reference_points_and_grid_round_trip():
    t0 = time.perf_counter()
    for d in (1.5, 10.0, 80.0, 300.0):
        assert composite(d, d) == 0.0
    assert composite(200.0, 100.0) == pytest.approx(2.30103, abs=1e-5)
    assert composite(50.0, 100.0) == pytest.approx(-0.849485, abs=1e-5)
    cfg = QuantizerConfig.uniform(-2.0, 2.0, -0.5, 0.5)
    assert cfg.n_states == 231
    for flat in range(cfg.n_states):
        d_idx, w_idx = divmod(flat, cfg.n_w)
        assert cfg.d_bucket(cfg.d_midpoint(d_idx)) == d_idx
        assert cfg.w_bucket(cfg.w_midpoint(w_idx)) == w_idx
    assert time.perf_counter() - t0 < 1.0


def build_sampled_chain(seed=11, steps=100_000):
    """A hand-specified 8-state chain on the default grid, plus a walk
    sampled from it and the model trained on that walk."""
    rng = np.random.default_rng(seed)
    cfg = QuantizerConfig.uniform(-2.0, 2.0, -0.5, 0.5)
    flats = np.sort(rng.choice(cfg.n_states, size=8, replace=False))
    truth = rng.dirichlet(np.ones(8) * 2.0, size=8)
    cdfs = np.cumsum(truth, axis=1)
    draws = rng.random(steps)
    walk = np.empty(steps + 1, dtype=np.int64)
    walk[0] = 0
    for t in range(steps):
        walk[t + 1] = np.searchsorted(cdfs[walk[t]], draws[t], side="right")
    counts = count_transitions(cfg, flats[walk] // cfg.n_w, flats[walk] % cfg.n_w)
    model = TransitionModel(cfg, counts)
    return model, truth, flats


def test_trained_rows_recover_a_sampled_chain():
    t0 = time.perf_counter()
    model, truth, flats = build_sampled_chain()
    cfg = model.cfg
    visits = model.counts.sum(axis=(2, 3))
    checked = 0
    for i, flat in enumerate(flats):
        d_idx, w_idx = divmod(int(flat), cfg.n_w)
        if visits[d_idx, w_idx] < 500:
            continue
        learned = model.full_rows[d_idx, w_idx]
        truth_full = np.zeros(cfg.n_states)
        truth_full[flats] = truth[i]
        tv = 0.5 * float(np.abs(learned - truth_full).sum())
        assert tv <= 0.05
        checked += 1
    assert checked == 8  # every source row was visited often enough
    assert time.perf_counter() - t0 < 10.0


def test_stationary_agreement_and_trained_residuals(verus_bundle, copa_bundle):
    # Closed form on the two-state chain.
    pi = markov.stationary(np.array([[0.9, 0.1], [0.5, 0.5]]))
    assert abs(pi[0] - 5.0 / 6.0) < 1e-9
    assert abs(pi[1] - 1.0 / 6.0) < 1e-9
    # Power iteration against a direct linear solve on random ergodic chains.
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        P = rng.uniform(0.01, 1.0, size=(n, n))
        P /= P.sum(axis=1, keepdims=True)
        pi = markov.stationary(P)
        A = np.vstack([P.T - np.eye(n), np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.abs(pi - ref).max() <= 1e-6
    # The fixed-point residual stays tight on every trained model.
    for bundle in (verus_bundle, copa_bundle):
        P = markov.to_stochastic(bundle.model, empty_rows="uniform")
        pi = markov.stationary(P)
        assert float(np.abs(pi @ P - pi).max()) < 1e-8


def test_mixing_time_thresholds_are_ordered_on_trained_models(
    verus_bundle, copa_bundle
):
    t0 = time.perf_counter()
    q = np.array([0.4, 0.3, 0.2, 0.1])
    assert markov.mixing_times(np.tile(q, (4, 1)), [1e-3])[1e-3].t_mix == 1
    # The identity has one closed class per state: no unique pi to mix to.
    with pytest.raises(markov.AnalysisError, match="6 closed classes"):
        markov.mixing_times(np.eye(6), [1e-3])
    for bundle in (verus_bundle, copa_bundle):
        P = markov.to_stochastic(bundle.model, empty_rows="uniform")
        reports = markov.mixing_times(P, [1e-3, 1e-5, 1e-7])
        assert reports[1e-3].t_mix <= reports[1e-5].t_mix <= reports[1e-7].t_mix
    assert time.perf_counter() - t0 < 60.0


def test_model_driven_runs_reproduce_native_medians(verus_bundle, copa_bundle):
    for bundle in (verus_bundle, copa_bundle):
        tput_gap, delay_gap = harness.pooled_median_gap(bundle)
        assert tput_gap <= 0.15, f"{bundle.spec.label}: throughput gap {tput_gap:.3f}"
        assert delay_gap <= 0.15, f"{bundle.spec.label}: delay gap {delay_gap:.3f}"
    total = sum(b.train_s + b.held_s for b in (verus_bundle, copa_bundle))
    assert total < 300.0


def test_observed_frequencies_match_the_chain_own_stationary(verus_bundle):
    t0 = time.perf_counter()
    model = verus_bundle.model
    P = markov.to_stochastic(model, empty_rows="uniform")
    pi = markov.stationary(P)
    burn_in = markov.mixing_times(P, [1e-3])[1e-3].t_mix
    fit = markov.stationary_fit(
        [run.mdi_records for run in verus_bundle.held], model.cfg, pi, discard=burn_in
    )
    kl, gap = fit["kl_empirical_vs_stationary"], fit["max_abs_diff"]
    assert kl <= 0.8, f"KL(observed || stationary) = {kl:.3f}"
    assert gap <= 0.06, f"max state probability gap = {gap:.4f}"
    analysis_s = time.perf_counter() - t0
    assert verus_bundle.held_s + analysis_s < 120.0


def test_emulator_conservation_capacity_and_stop_and_wait():
    # Stop-and-wait oracle: pinned window 1 on an idle 12 Mbps link with
    # 20 ms propagation must see one bare round trip per packet.
    params = LinkParams(
        trace=constant_trace(12.0, 10.0), one_way_prop_ms=20, duration_ms=5000
    )
    res = run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    assert np.all(np.abs(rtts - 2 * 20) <= 1)
    assert abs(res.delivered_pkts - 125) <= 1

    rng = np.random.default_rng(99)
    controllers = [
        lambda r: Pinned(window_pkts=float(r.uniform(1, 400)), epoch_ms=20),
        lambda r: VerusLike(epoch_ms=int(r.integers(10, 61))),
        lambda r: CopaLike(epoch_ms=int(r.integers(10, 61))),
    ]
    for case in range(100):
        mbps = float(rng.uniform(1.0, 40.0))
        prop = int(rng.integers(0, 40))
        qcap = int(rng.integers(2, 300)) if rng.random() < 0.7 else None
        loss = float(rng.uniform(0.0, 0.15)) if rng.random() < 0.4 else 0.0
        duration = int(rng.integers(400, 3000))
        trace = constant_trace(mbps, 6.0, seed=case)
        params = LinkParams(
            trace=trace, one_way_prop_ms=prop, queue_capacity_pkts=qcap,
            loss_rate=loss, seed=case, duration_ms=duration,
        )
        res = run_simulation(params, controllers[case % 3](rng))
        # Conservation: every packet is delivered, dropped, or queued.
        assert (
            res.sent_pkts
            == res.delivered_pkts + res.dropped_pkts + res.queued_end_pkts
        )
        delivered = res.delivered_ms[res.delivered_ms >= 0]
        # Capacity ceiling: per-second deliveries never beat the trace.
        offered = np.bincount(trace.opportunities // 1000, minlength=duration // 1000 + 1)
        for sec in range(duration // 1000 + 1):
            got = int(
                np.count_nonzero((delivered >= sec * 1000) & (delivered < (sec + 1) * 1000))
            )
            assert got <= offered[sec]
        # FIFO service order and a constant return leg.
        assert np.all(np.diff(delivered) >= 0)
        mask = (res.delivered_ms >= 0) & (res.acked_ms >= 0)
        assert np.all(
            res.acked_ms[mask] - res.delivered_ms[mask] == max(2 * prop, 1)
        )


def epoch_csv_bytes(records) -> bytes:
    buf = io.StringIO()
    write_epoch_csv(records, buf)
    return buf.getvalue().encode("utf-8")


def packet_csv_bytes(result) -> bytes:
    buf = io.StringIO()
    write_packet_csv(result, buf)
    return buf.getvalue().encode("utf-8")


def model_bytes(model) -> bytes:
    buf = io.BytesIO()
    save_model(model, buf)
    return buf.getvalue()


def test_same_seed_reproduces_models_and_logs_byte_identically(
    verus_bundle, copa_bundle
):
    # Chain-recovery training is repeatable to the byte.
    m1, _, _ = build_sampled_chain()
    m2, _, _ = build_sampled_chain()
    assert model_bytes(m1) == model_bytes(m2)
    # Retraining each baseline from the same master seed reproduces the
    # model file exactly.
    for bundle in (verus_bundle, copa_bundle):
        retrained, _ = harness.train(bundle.spec, bundle.traces[: harness.N_TRAIN])
        assert model_bytes(retrained) == model_bytes(bundle.model)
    # Re-running one held-out pair per baseline reproduces both CSVs.
    for bundle in (verus_bundle, copa_bundle):
        run = bundle.held[0]
        native2 = harness.run_native(bundle.spec, run.name, run.trace)
        assert epoch_csv_bytes(native2.epochs) == epoch_csv_bytes(run.native.epochs)
        assert packet_csv_bytes(native2) == packet_csv_bytes(run.native)
        mdi2, _ = harness.run_mdi(bundle.spec, bundle.model, run.name, run.trace)
        assert epoch_csv_bytes(mdi2.epochs) == epoch_csv_bytes(run.mdi_records)
        assert packet_csv_bytes(mdi2) == packet_csv_bytes(run.mdi)


def test_rising_delay_mass_sits_on_window_decreases(verus_bundle):
    # Columns whose whole delay bucket is a rise should mostly pair with
    # window-decrease cells: that is the multiplicative back-off showing
    # up in the trained surface.
    share = decrease_share(verus_bundle.model)
    assert np.isfinite(share)
    assert share >= 0.60, f"decrease share in rising-delay columns: {share:.4f}"
