"""Trace parsing, serialization, and synthetic generation."""

import io

import numpy as np
import pytest

from mdi.trace import (
    LinkTrace,
    SyntheticTraceSpec,
    TraceParseError,
    gen_rapidly_changing,
    load_trace,
    save_trace,
)


def _load(text: str) -> LinkTrace:
    return load_trace(io.BytesIO(text.encode("utf-8")))


def test_load_small_trace():
    tr = _load("0\n1\n2\n")
    assert len(tr) == 3
    assert list(tr.opportunities) == [0, 1, 2]
    # 3 packets * 1500 B * 8 over 2 ms is 18 Mbps.
    assert tr.mean_rate_mbps() == pytest.approx(18.0)


def test_load_reports_line_of_decreasing_timestamp():
    with pytest.raises(TraceParseError, match="line 2"):
        _load("5\n3\n")


def test_load_rejects_garbage_with_line_number():
    with pytest.raises(TraceParseError, match="line 3"):
        _load("0\n1\nbanana\n")
    with pytest.raises(TraceParseError, match="line 1"):
        _load("-4\n")
    with pytest.raises(TraceParseError, match="line 2"):
        _load("7\n\n9\n")


@pytest.mark.parametrize("line", ["+20", " 1_0 ", "1_0", "\uff12", "3 "])
def test_load_accepts_only_ascii_digit_lines(line):
    with pytest.raises(TraceParseError, match="line 2:"):
        _load(f"0\n{line}\n")


def test_load_rejects_empty_file():
    with pytest.raises(TraceParseError):
        _load("")


def test_single_opportunity_and_repeats_are_valid():
    assert len(_load("0\n")) == 1
    tr = LinkTrace([0, 0, 7])
    assert len(tr) == 3
    assert tr.duration_ms == 7
    assert np.bincount(tr.opportunities).tolist() == [2, 0, 0, 0, 0, 0, 0, 1]


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one delivery opportunity"):
        LinkTrace([])
    with pytest.raises(ValueError):
        LinkTrace([-1, 0])
    with pytest.raises(ValueError):
        LinkTrace([3, 2])
    with pytest.raises(ValueError):
        LinkTrace([0, 1], mtu_bytes=0)
    # Only integers: nothing is rounded, cast from bool or parsed.
    for stamps in ([0.5, 1.7, 2.9], np.array([True, True]), ["1", "2"]):
        with pytest.raises(ValueError, match="must be integers"):
            LinkTrace(stamps)
    # 2**63 and up do not fit int64, whether given as ints or as uint64.
    for stamps in ([2**63], [0, 2**64], np.array([5, 2**63], dtype=np.uint64)):
        with pytest.raises(ValueError):
            LinkTrace(stamps)
    # A decrease whose difference would wrap past int64 is still one.
    with pytest.raises(ValueError, match="non-decreasing"):
        LinkTrace([0, 2**63 - 1, -(2**63)])


def test_stamps_are_stored_at_the_width_they_need():
    # A stamp plus one wrap span must fit int32, so 4 bytes hold a
    # trace whose last stamp is below 2**30.
    for last, itemsize in ((2**30 - 1, 4), (2**30, 8), (2**63 - 1, 8)):
        tr = LinkTrace([0, 5, last])
        assert tr.opportunities.itemsize == itemsize
        assert tr.opportunities.tolist() == [0, 5, last]
        assert tr.duration_ms == last
        with pytest.raises(ValueError):
            tr.opportunities[0] = 1


def test_list_and_integer_arrays_of_one_trace_are_equal():
    stamps = [0, 3, 3, 10, 500]
    arrays = [np.array(stamps, dtype=dtype) for dtype in ("i4", "i8", "u2")]
    traces = [LinkTrace(stamps)] + [LinkTrace(a) for a in arrays]
    assert all(tr == traces[0] for tr in traces)
    # The trace holds its own copy; the caller's array stays writable.
    for dtype in ("i4", "i8"):
        given = np.array(stamps, dtype=dtype)
        tr = LinkTrace(given)
        given[0] = 1
        assert tr.opportunities[0] == 0


def test_generated_harness_trace_stores_4_bytes_per_stamp():
    spec = SyntheticTraceSpec(
        duration_s=60, segment_s=2, rate_min_mbps=3, rate_max_mbps=50, seed=1000
    )
    tr = gen_rapidly_changing(spec)
    assert tr.opportunities.nbytes == 4 * len(tr)


def test_trace_is_immutable():
    tr = LinkTrace([0, 1, 2])
    with pytest.raises(AttributeError):
        tr.mtu_bytes = 9000
    with pytest.raises(ValueError):
        tr.opportunities[0] = 5


def test_save_load_round_trip():
    tr = LinkTrace([0, 3, 3, 10, 500], mtu_bytes=1500)
    buf = io.BytesIO()
    save_trace(tr, buf)
    buf.seek(0)
    assert load_trace(buf) == tr


def test_constant_rate_generation_is_even():
    # 12 Mbps at 1500 B MTU is exactly one packet per millisecond.
    spec = SyntheticTraceSpec(
        duration_s=10, segment_s=10, rate_min_mbps=12, rate_max_mbps=12, seed=0
    )
    tr = gen_rapidly_changing(spec)
    assert len(tr) == 10_000
    gaps = np.diff(tr.opportunities)
    assert gaps.min() == 1 and gaps.max() == 1
    assert tr.mean_rate_mbps() == pytest.approx(12.0, rel=1e-3)


def test_generated_segments_carry_their_rate():
    spec = SyntheticTraceSpec(
        duration_s=20, segment_s=2, rate_min_mbps=3, rate_max_mbps=50, seed=11
    )
    tr = gen_rapidly_changing(spec)
    rates = np.random.default_rng(11).uniform(3, 50, 10)
    per_segment = np.bincount(tr.opportunities // 2000, minlength=len(rates))
    for got, rate in zip(per_segment, rates):
        want = rate * 1e6 * 2.0 / (8.0 * 1500)
        # Integer packet placement can shift one packet across a boundary.
        assert abs(got - want) <= 1.0 + 1e-9


def test_generation_is_deterministic_and_seed_sensitive():
    spec = SyntheticTraceSpec(
        duration_s=5, segment_s=1, rate_min_mbps=2, rate_max_mbps=30, seed=9
    )
    assert gen_rapidly_changing(spec) == gen_rapidly_changing(spec)
    other = SyntheticTraceSpec(
        duration_s=5, segment_s=1, rate_min_mbps=2, rate_max_mbps=30, seed=10
    )
    assert gen_rapidly_changing(other) != gen_rapidly_changing(spec)


def test_generation_rejects_an_mtu_below_one_byte():
    spec = SyntheticTraceSpec(
        duration_s=1, segment_s=1, rate_min_mbps=1, rate_max_mbps=2, seed=0
    )
    for mtu in (0, -1500):
        with pytest.raises(ValueError, match="mtu_bytes must be >= 1"):
            gen_rapidly_changing(spec, mtu_bytes=mtu)


def test_distinct_seeds_give_distinct_traces():
    base = dict(duration_s=3, segment_s=1, rate_min_mbps=2, rate_max_mbps=40)
    traces = [
        gen_rapidly_changing(SyntheticTraceSpec(seed=s, **base)) for s in range(10)
    ]
    seen = {tuple(tr.opportunities.tolist()) for tr in traces}
    assert len(seen) == 10


def test_spec_rejects_a_duration_below_one_ms():
    # 0.0001 s rounds to 0 ms, which would leave nothing to generate.
    spec = dict(segment_s=1, rate_min_mbps=1, rate_max_mbps=2, seed=0)
    with pytest.raises(ValueError, match="duration_s"):
        SyntheticTraceSpec(duration_s=0.0001, **spec)
    assert len(gen_rapidly_changing(SyntheticTraceSpec(duration_s=0.001, **spec))) >= 1


def test_spec_validation():
    good = dict(
        duration_s=1, segment_s=1, rate_min_mbps=1, rate_max_mbps=2, seed=0
    )
    SyntheticTraceSpec(**good)
    for field, bad in [
        ("duration_s", 0),
        ("segment_s", -1),
        ("rate_min_mbps", 0),
        ("rate_max_mbps", 0.5),
        ("seed", -3),
    ]:
        with pytest.raises(ValueError):
            SyntheticTraceSpec(**{**good, field: bad})
