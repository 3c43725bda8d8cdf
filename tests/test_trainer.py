"""Epoch-log derivation, transition counting, model serialization."""

import io
import math

import numpy as np
import pytest

from mdi.quantizer import QuantizerConfig
from mdi.trainer import (
    EXACT,
    HOLD,
    MARGINAL,
    EpochLog,
    ModelFormatError,
    TransitionModel,
    count_transitions,
    derive_states,
    load_model,
    save_model,
)


def grid(n_d=3, n_w=3) -> QuantizerConfig:
    return QuantizerConfig.uniform(-1.0, 1.0, -1.0, 1.0, n_d=n_d, n_w=n_w)


def records(delays, windows) -> EpochLog:
    return EpochLog([20 * (i + 1) for i in range(len(delays))], delays, windows)


def walk_counts(cfg: QuantizerConfig, states) -> np.ndarray:
    """Count a run given as a list of (d_idx, w_idx) pairs."""
    d_idx, w_idx = zip(*states) if states else ((), ())
    return count_transitions(cfg, d_idx, w_idx)


def model_of(cfg: QuantizerConfig, *runs) -> TransitionModel:
    return TransitionModel(cfg, sum(walk_counts(cfg, run) for run in runs))


def test_epoch_log_validates_its_columns():
    raw = ([0, 20], [10.0, 11.0], [2.0, 3.0])
    EpochLog(*raw)
    with pytest.raises(ValueError, match="equal lengths"):
        EpochLog([0, 20], [10.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        EpochLog([[0, 20]], [[10.0, 11.0]], [[2.0, 3.0]])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delay_ms"):
            EpochLog(*raw[:1], [10.0, bad], raw[2])
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="window_pkts"):
            EpochLog(*raw[:2], [2.0, bad])
    # Neither float column casts a string or a bool, alone or beside numbers.
    for col, cell, got in ((["10", "11"], 0, "dtype <U2"), ([10.0, True], 1, "a bool")):
        for at, name in ((1, "delay_ms"), (2, "window_pkts")):
            rule = rf"^{name} must be real numbers, got {got}: {name}\[{cell}\]"
            with pytest.raises(ValueError, match=rule):
                EpochLog(*raw[:at], col, *raw[at + 1 :])
    # t_ms is taken as given, at least 0 and increasing, so no log is
    # written that read_epoch_csv would reject; an empty one has any dtype.
    with pytest.raises(ValueError, match=r"t_ms must be integers.*t_ms\[0\] is 1.5"):
        EpochLog([1.5, 2.7], *raw[1:])
    with pytest.raises(ValueError, match=r"t_ms must be integers, got a bool: t_ms\[1\] is True"):
        EpochLog([0, True], *raw[1:])
    for t_ms, row in (([-5, -7], 0), ([5, 5], 1), ([5, 3], 1)):
        with pytest.raises(ValueError, match=f"^row {row}: t_ms is negative or not above"):
            EpochLog(t_ms, *raw[1:])
    assert EpochLog(np.array([], dtype=np.float64), [], []).t_ms.dtype == np.int64


def test_epoch_log_rows_compare_by_value():
    raw = ([0, 20], [10.0, 11.0], [2.0, 3.0])
    a = EpochLog(*raw)
    assert list(a) == [(0, 10.0, 2.0), (20, 11.0, 3.0)]
    assert list(a) == list(EpochLog(*raw))
    assert list(a) != list(EpochLog(*raw[:2], [2.0, 3.5]))
    assert list(EpochLog([], [], [])) == []


def test_derive_constant_run_lands_in_the_zero_bucket():
    cfg = grid()
    log = records([10.0] * 5, [4.0] * 5)
    d_idx, w_idx = derive_states(log, cfg)
    d_hat, w_hat = log.composites
    assert d_idx.size == w_idx.size == 3
    assert np.all(d_hat == 0.0)
    assert np.all(w_hat == 0.0)
    assert np.all(d_idx == cfg.d_bucket(0.0))
    assert np.all(w_idx == cfg.w_bucket(0.0))


def test_derive_uses_consecutive_ratios():
    cfg = grid()
    # Row 1's delay doubles; the window move chosen after it, seen in
    # row 2, doubles the window.
    log = records([100.0, 200.0, 200.0], [10.0, 10.0, 20.0])
    d_hat, w_hat = log.composites
    assert d_hat[0] == pytest.approx(2.30103, abs=1e-5)
    assert w_hat[1] == pytest.approx(1.30103, abs=1e-5)
    # Both composites exceed the grid, so the state clamps to the corner.
    d_idx, w_idx = derive_states(log, cfg)
    assert (d_idx.tolist(), w_idx.tolist()) == ([cfg.n_d - 1], [cfg.n_w - 1])


def test_derive_needs_three_records_and_does_not_mutate():
    cfg = grid()
    for n in range(3):
        d_idx, w_idx = derive_states(records([10.0] * n, [2.0] * n), cfg)
        assert d_idx.size == w_idx.size == 0
    original = records([10.0, 12.0, 11.0], [2.0, 3.0, 4.0])
    derive_states(original, cfg)
    assert list(original) == list(records([10.0, 12.0, 11.0], [2.0, 3.0, 4.0]))


def test_three_record_run_yields_one_state_and_no_transitions():
    cfg = grid()
    d_idx, w_idx = derive_states(records([10.0, 12.0, 11.0], [2.0, 3.0, 4.0]), cfg)
    assert d_idx.size == w_idx.size == 1
    assert not count_transitions(cfg, d_idx, w_idx).any()


def test_add_transitions_counts_consecutive_pairs():
    cfg = grid()
    a, b = (0, 1), (2, 0)
    counts = walk_counts(cfg, [a, b, a])
    assert counts.shape == (3, 3, 3, 3)
    assert counts[0, 1, 2, 0] == 1
    assert counts[2, 0, 0, 1] == 1
    assert counts.sum() == 2
    assert TransitionModel(cfg, counts).total_transitions == 2
    assert not walk_counts(cfg, [a]).any()
    assert not walk_counts(cfg, []).any()


def test_add_transitions_rejects_off_grid_states():
    cfg = grid()
    for bad in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="grid"):
            walk_counts(cfg, [bad, (0, 0)])
    with pytest.raises(ValueError, match="equal-length"):
        count_transitions(cfg, [0, 1], [0])
    # Indices are integers, never rounded or cast from bool.
    for d_idx, w_idx, name in (([0.5, 1.7], [0, 0], "d_idx"), ([0, 1], [True, False], "w_idx")):
        with pytest.raises(ValueError, match=rf"{name} must be integers.*{name}\[0\]"):
            count_transitions(cfg, d_idx, w_idx)
    assert not count_transitions(cfg, np.array([1], np.uint8), [1]).any()


def test_runs_never_chain_across_boundaries():
    cfg = grid()
    a, b, c = (0, 0), (1, 1), (2, 2)
    model = model_of(cfg, [a, b], [b, c])
    # No a->...->c path was ever observed as a single pair.
    assert model.counts[0, 0, 2, 2] == 0
    assert model.total_transitions == 2


def test_counting_is_order_invariant_across_runs():
    cfg = grid()
    runs = [
        [(0, 0), (1, 1)],
        [(1, 1), (2, 2), (0, 0)],
    ]
    m1, m2 = model_of(cfg, *runs), model_of(cfg, *reversed(runs))
    assert np.array_equal(m1.counts, m2.counts)


def hand_model() -> TransitionModel:
    s = (1, 1)
    targets = [(0, 0), (0, 1), (0, 2), (0, 2)]
    return model_of(grid(), *([s, t] for t in targets))


def test_quadrant_rows_normalize_within_next_delay_bucket():
    model = hand_model()
    assert np.allclose(model.quadrant_rows[1, 1, 0], [0.25, 0.25, 0.5])
    assert not model.quadrant_rows[1, 1, 2].any()
    assert not model.quadrant_rows[0, 0, 0].any()


def test_full_rows_are_stochastic_where_observed():
    model = hand_model()
    row = model.full_rows[1, 1]
    assert row.sum() == pytest.approx(1.0, abs=1e-9)
    assert row[0 * 3 + 2] == pytest.approx(0.5)
    assert not model.full_rows[2, 2].any()
    full = model.full_rows
    sums = full.reshape(-1, full.shape[-1]).sum(axis=1)
    assert set(np.round(sums, 9)) <= {0.0, 1.0}


def test_marginal_rows_pool_window_buckets():
    model = model_of(grid(), [(1, 0), (0, 1)], [(1, 2), (0, 2)])
    tier, cdf = model.decision_table
    assert tier[1, 1, 0] == MARGINAL
    assert np.allclose(cdf[1, 1, 0], [0.0, 0.5, 1.0])
    assert tier[1, 0, 0] == EXACT
    assert np.allclose(cdf[1, 0, 0], [0.0, 1.0, 1.0])
    assert (tier[2, :, 2] == HOLD).all()
    assert not cdf[2, :, 2].any()


def huge_counts(*cells) -> np.ndarray:
    """3x3-grid counts with 2**63 in each given cell, so uint64 sums wrap."""
    counts = np.zeros((3, 3, 3, 3), dtype=np.uint64)
    for cell in cells:
        counts[cell] = 2**63
    return counts


def test_marginal_rows_do_not_wrap_on_huge_counts():
    counts = huge_counts((0, 0, 0, 0), (0, 1, 0, 0))
    counts[0, 0, 0, 1] = 1
    tier, cdf = TransitionModel(grid(), counts).decision_table
    # Pooled over l in uint64, the two 2**63 cells would sum to 0.
    assert tier[0, 2, 0] == MARGINAL
    assert np.allclose(cdf[0, 2, 0], [1.0, 1.0, 1.0])


def test_source_state_count_does_not_wrap_on_huge_counts():
    model = TransitionModel(grid(), huge_counts((0, 0, 0, 0), (0, 0, 0, 1)))
    assert model.source_state_count() == 1


def test_empty_row_fraction_does_not_wrap_on_huge_counts():
    model = TransitionModel(grid(), huge_counts((0, 0, 0, 0), (0, 0, 0, 1)))
    assert model.empty_quadrant_row_fraction() == pytest.approx(26 / 27)


def test_reading_the_tables_leaves_counts_unchanged():
    model = hand_model()
    before = model.counts.copy()
    first = model.quadrant_rows.copy()
    model.full_rows, model.decision_table
    assert np.array_equal(model.counts, before)
    assert np.array_equal(model.quadrant_rows, first)


def test_tables_from_counts_written_directly():
    # Counts filled in a local array (as load_model does), then handed over.
    counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
    counts[1, 1, 0, 0] = 1
    counts[1, 1, 0, 2] = 3
    counts[1, 2, 0, 1] = 4
    counts[1, 1, 2, 1] = 4
    model = TransitionModel(grid(), counts)
    assert np.allclose(model.quadrant_rows[1, 1, 0], [0.25, 0.0, 0.75])
    assert np.allclose(model.quadrant_rows[1, 2, 0], [0.0, 1.0, 0.0])
    tier, cdf = model.decision_table
    assert tier[1, 0, 0] == MARGINAL
    assert np.allclose(cdf[1, 0, 0], [1 / 8, 5 / 8, 1.0])
    assert tier[1, 1, 0] == EXACT
    assert np.allclose(cdf[1, 1, 0], [0.25, 0.25, 1.0])
    assert np.allclose(model.full_rows[1, 1], [1 / 8, 0, 3 / 8, 0, 0, 0, 0, 4 / 8, 0])
    assert not model.quadrant_rows[1, 1, 1].any()
    assert (tier[0, :, 0] == HOLD).all()
    assert not cdf[0, :, 0].any()
    assert not model.full_rows[0, 0].any()
    assert model.quadrant_rows.shape == (3, 3, 3, 3)
    assert model.full_rows.shape == (3, 3, 9)
    assert tier.shape == (3, 3, 3)
    assert cdf.shape == (3, 3, 3, 3)


def test_model_counts_are_a_read_only_copy():
    counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
    counts[1, 1, 0, 0] = 2
    model = TransitionModel(grid(), counts)
    counts[1, 1, 0, 0] = 5
    assert model.counts[1, 1, 0, 0] == 2
    assert model.counts.dtype == np.uint64
    with pytest.raises(ValueError, match="read-only"):
        model.counts[1, 1, 0, 0] = 3
    with pytest.raises(ValueError, match="read-only"):
        model.counts += np.uint64(1)
    assert model.total_transitions == 2
    with pytest.raises(ValueError, match="shape"):
        TransitionModel(grid(), np.zeros((3, 3, 3)))
    assert TransitionModel(grid()).total_transitions == 0
    # Counts are integers of at least 0: a -1 would wrap to 2**64 - 1,
    # 1.5 round to 1 and NaN cast to 2**63. The error names the cell.
    counts[1, 1, 0, 0] = -1
    with pytest.raises(ValueError, match=r"counts must be >= 0: counts\[1, 1, 0, 0\] is -1"):
        TransitionModel(grid(), counts)
    for bad in (counts.astype(np.float64), np.full(counts.shape, np.nan), counts > 0):
        with pytest.raises(ValueError, match=r"counts must be integers.*counts\[0, 0, 0, 0\]"):
            TransitionModel(grid(), bad)


def test_source_and_empty_row_accounting():
    model = hand_model()
    assert model.source_state_count() == 1
    # One (k, l, r) row of the 27 has mass.
    assert model.empty_quadrant_row_fraction() == pytest.approx(26 / 27)


def test_save_load_round_trip_is_byte_identical():
    model = hand_model()
    buf1 = io.BytesIO()
    save_model(model, buf1)
    buf1.seek(0)
    back = load_model(buf1)
    assert back.cfg == model.cfg
    assert np.array_equal(back.counts, model.counts)
    buf2 = io.BytesIO()
    save_model(back, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_load_rejects_malformed_files():
    good = io.BytesIO()
    save_model(hand_model(), good)
    lines = good.getvalue().decode("utf-8").splitlines()

    def as_stream(ls):
        return io.BytesIO(("\n".join(ls) + "\n").encode("utf-8"))

    with pytest.raises(ModelFormatError, match="magic"):
        load_model(as_stream(["NOTAMODEL", *lines[1:]]))
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(as_stream(lines[:3]))
    with pytest.raises(ModelFormatError, match="header"):
        load_model(as_stream([lines[0], "3 3", *lines[2:]]))
    with pytest.raises(ModelFormatError, match="edges"):
        load_model(as_stream([lines[0], lines[1], "0.0 1.0", *lines[3:]]))
    with pytest.raises(ModelFormatError, match="k l r v count"):
        load_model(as_stream([*lines, "1 2 3"]))
    with pytest.raises(ModelFormatError, match="out of range"):
        load_model(as_stream([*lines, "9 0 0 0 1"]))
    with pytest.raises(ModelFormatError, match="count must be > 0"):
        load_model(as_stream([*lines, "0 0 0 0 0"]))
    # Dropping a count line breaks the declared total.
    with pytest.raises(ModelFormatError, match="total mismatch"):
        load_model(as_stream(lines[:-1]))


# hand_model() saves as three count lines, 5-7: "1 1 0 0 1", "1 1 0 1 1"
# and "1 1 0 2 2", with a declared total of 4.
@pytest.mark.parametrize(
    "total, cells, bad_line",
    [
        (6, ["1 1 0 0 1", "1 1 0 1 1", "1 1 0 2 2", "1 1 0 2 2"], 8),
        (4, ["1 1 0 0 1", "1 1 0 2 2", "1 1 0 1 1"], 7),
        (4, ["1 1 0 0 1", "1 1 0 1 1", "1 1 0 2 0_2"], 7),
        (4, ["1 1 0 0 1", "1 1 0 1 1", "1 1 0 2 +2"], 7),
        (4, ["1 1 0 0 1", "1 1 0 1 1", "1 1 0  2 2"], 7),
        (4, ["1 1 0 0 1", "1 1 0 1 1", "1\t1 0 2 2"], 7),
        (2 + 2**64, ["1 1 0 0 1", "1 1 0 1 1", f"1 1 0 2 {2**64}"], 7),
        (4, ["1 1 0 0 1", "1 1 0 1 1", "1 1 0 2 02"], 7),
    ],
    ids=[
        "twice", "out-of-order", "separator", "sign", "two-spaces", "tab", "above-64-bits",
        "zero-padded",
    ],
)
def test_load_accepts_only_count_lines_save_writes(total, cells, bad_line):
    good = io.BytesIO()
    save_model(hand_model(), good)
    lines = good.getvalue().decode("utf-8").splitlines()
    assert lines[1] == "3 3 4" and lines[4:] == ["1 1 0 0 1", "1 1 0 1 1", "1 1 0 2 2"]
    text = "\n".join([lines[0], f"3 3 {total}", *lines[2:4], *cells]) + "\n"
    with pytest.raises(ModelFormatError, match=f"line {bad_line}:"):
        load_model(io.BytesIO(text.encode("utf-8")))


def empty_2x2_lines() -> list[str]:
    """An empty 2x2 model as saved: magic, "2 2 0" and two edge lines
    of "-1.0 0.0 1.0"."""
    buf = io.BytesIO()
    save_model(TransitionModel(grid(2, 2)), buf)
    return buf.getvalue().decode("utf-8").splitlines()


def load_lines(lines: list[str]) -> TransitionModel:
    return load_model(io.BytesIO(("\n".join(lines) + "\n").encode("utf-8")))


def test_model_totals_do_not_wrap_past_64_bits():
    # Two cells of 2**63 sum to 0 in uint64, so a header total of 0
    # would match a wrapped sum.
    magic, _, *edges = empty_2x2_lines()
    cells = [f"0 0 0 0 {2**63}", f"0 0 0 1 {2**63}"]
    with pytest.raises(ModelFormatError, match=f"header says 0, entries sum to {2**64}"):
        load_lines([magic, "2 2 0", *edges, *cells])
    model = load_lines([magic, f"2 2 {2**64}", *edges, *cells])
    assert model.total_transitions == 2**64
    buf = io.BytesIO()
    save_model(model, buf)
    assert buf.getvalue().decode("utf-8").splitlines()[1] == f"2 2 {2**64}"


def test_load_rejects_a_header_field_save_never_writes():
    magic, header, *edges = empty_2x2_lines()
    assert load_lines([magic, header, *edges]).total_transitions == 0
    for bad in ("+2 +2 0", "2 x 0"):
        with pytest.raises(ModelFormatError, match="non-integer header field"):
            load_lines([magic, bad, *edges])
    with pytest.raises(ModelFormatError, match="negative transition total -1"):
        load_lines([magic, "2 2 -1", *edges])


def test_load_rejects_an_edge_save_never_writes():
    # int() and float() both take '_' between digits: 1_0.5 reads as 10.5.
    magic, header, d_edges, w_edges = empty_2x2_lines()
    assert d_edges == "-1.0 0.0 1.0"
    for bad in ("-1.0 0.0 1_0.5", "-1.0 0.0 x"):
        with pytest.raises(ModelFormatError, match="d_hat_edges: non-numeric edge"):
            load_lines([magic, header, bad, w_edges])
    with pytest.raises(ModelFormatError, match="invalid quantizer config"):
        load_lines([magic, header, "-1.0 1.0 0.0", w_edges])


def test_load_accepts_only_the_line_ends_and_spaces_save_writes():
    good = io.BytesIO()
    save_model(hand_model(), good)
    text = good.getvalue().decode("utf-8")
    lines = text.splitlines()
    assert load_model(io.BytesIO(text.rstrip("\n").encode("utf-8"))).total_transitions == 4
    # str.splitlines breaks lines at each of these; save_model writes "\n".
    endings = ("\r\n", "\x0c", "\x1c", "\u2028")
    files = {ending: (text.replace("\n", ending), 1) for ending in endings}
    files["tabs"] = ("\n".join([lines[0], lines[1].replace(" ", "\t"), *lines[2:]]) + "\n", 2)
    doubled = lines[3].replace(" ", "  ")
    files["doubled spaces"] = ("\n".join([*lines[:3], doubled, *lines[4:]]) + "\n", 4)
    for name, (bad, line) in files.items():
        with pytest.raises(ModelFormatError, match=f"^line {line}: "):
            load_model(io.BytesIO(bad.encode("utf-8")))


def test_recovers_known_chain_rows_from_samples():
    # Sample a hand-specified chain and check the learned rows approach
    # the truth in total variation.
    cfg = grid(n_d=2, n_w=2)
    truth = np.array(
        [
            [0.10, 0.40, 0.30, 0.20],
            [0.25, 0.25, 0.25, 0.25],
            [0.05, 0.05, 0.45, 0.45],
            [0.70, 0.10, 0.10, 0.10],
        ]
    )
    rng = np.random.default_rng(5)
    walk = [0]
    for _ in range(20_000):
        walk.append(int(rng.choice(4, p=truth[walk[-1]])))
    walk = np.array(walk)
    model = TransitionModel(cfg, count_transitions(cfg, walk // 2, walk % 2))
    for f in range(4):
        learned = model.full_rows[f // 2, f % 2]
        tv = 0.5 * np.abs(learned - truth[f]).sum()
        assert tv <= 0.05
