"""Trace parsing, serialization, and synthetic generation."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_trace import reference_load_trace, reference_save_trace

from mdi.controllers import Pinned
from mdi.linksim import LinkParams, run_simulation
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
    # The last line may lack its newline.
    assert _load("0\n1\n2") == tr
    # 3 packets * 1500 B * 8 over 2 ms is 18 Mbps.
    assert tr.mean_rate_mbps() == pytest.approx(18.0)


def test_load_reports_line_of_decreasing_timestamp():
    with pytest.raises(TraceParseError, match="line 2"):
        _load("5\n3\n")
    # The first line at fault is reported, whatever is wrong further on.
    with pytest.raises(TraceParseError, match="^line 2: timestamp 3 decreases below 5$"):
        _load("5\n3\nbanana\n")


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


# A form feed, CRLF and U+2028 each end a line for str.splitlines, but
# a trace line ends only at "\n".
@pytest.mark.parametrize("data", [b"0\x0c5\n", b"0\r\n5\r\n", "0\u20285\n".encode()])
def test_load_ends_lines_only_at_newline(data):
    with pytest.raises(TraceParseError, match="^line 1: not a non-negative integer"):
        load_trace(io.BytesIO(data))


def test_load_names_the_line_of_a_stamp_past_int64():
    assert _load("0\n9223372036854775807\n").duration_ms == 2**63 - 1
    # Zero padding does not count against the 19 digits.
    assert _load("0\n" + "0" * 25 + "5\n").opportunities.tolist() == [0, 5]
    for line in ("9223372036854775808", "1" + "0" * 19, "0" * 30 + "9223372036854775808"):
        with pytest.raises(TraceParseError, match=r"^line 2: timestamp \d+ is not below 2\*\*63"):
            _load(f"0\n{line}\n")
    # A line with a stray byte is no timestamp, however large its digits.
    for line in ("a" + "0" * 18, "9" * 18 + "a", "9" * 20 + "-"):
        with pytest.raises(TraceParseError, match="^line 2: not a non-negative integer"):
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
    for stamps in ([0.5, 1.7, 2.9], np.array([True, True]), ["1", "2"], [0, True]):
        with pytest.raises(ValueError, match="must be integers"):
            LinkTrace(stamps)
    # 2**63 and up do not fit int64, whether given as ints or as uint64.
    for stamps in ([2**63], [0, 2**64], np.array([5, 2**63], dtype=np.uint64)):
        with pytest.raises(ValueError):
            LinkTrace(stamps)
    # A decrease whose difference would wrap past int64 is still one.
    with pytest.raises(ValueError, match="non-decreasing"):
        LinkTrace([0, 2**63 - 1, -(2**63)])


# Gaps at the edges of each unsigned width.
GAP_EDGES = [0, 1, 2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32]


@st.composite
def stamp_inputs(draw):
    """Non-decreasing stamps, as a list and as the array a caller passes:
    a list of ints below 2**63 or an i4, i8 or u2 array within its dtype."""
    kind = draw(st.sampled_from(["list", "i4", "i8", "u2"]))
    top = 2**63 - 1 if kind == "list" else int(np.iinfo(kind).max)
    stamps = [draw(st.sampled_from([0, 1, 2**15, 2**62]).filter(lambda s: s <= top))]
    gap = st.integers(0, 3) | st.sampled_from(GAP_EDGES) | st.integers(0, 2**40)
    for step in draw(st.lists(gap, max_size=40)):
        if stamps[-1] + step > top:
            break
        stamps.append(stamps[-1] + step)
    return stamps, stamps if kind == "list" else np.array(stamps, dtype=kind)


@settings(max_examples=300, deadline=None)
@given(stamp_inputs())
def test_trace_stores_its_gaps_in_the_narrowest_unsigned_type(case):
    stamps, given_stamps = case
    tr = LinkTrace(given_stamps)
    opp = tr.opportunities
    assert opp.dtype == np.int64 and opp.tolist() == stamps
    assert not opp.flags.writeable
    with pytest.raises(ValueError):
        opp[0] = 1
    assert len(tr) == len(stamps) and tr.duration_ms == stamps[-1]
    assert tr == LinkTrace(stamps)
    assert tr != LinkTrace(stamps, mtu_bytes=9000)
    assert tr != LinkTrace(stamps + [stamps[-1]])
    if len(stamps) > 1 and stamps[-1] > stamps[-2]:
        assert tr != LinkTrace(stamps[:-1] + [stamps[-2]])
    # The same gaps from another first stamp.
    if stamps[-1] < 2**63 - 1:
        assert tr != LinkTrace([s + 1 for s in stamps])
    largest = max((b - a for a, b in zip(stamps, stamps[1:])), default=0)
    width = next(w for w in (1, 2, 4, 8) if largest < 2 ** (8 * w))
    assert tr._gaps.dtype == np.dtype(f"u{width}")


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


def test_generated_harness_trace_stores_1_byte_per_gap():
    spec = SyntheticTraceSpec(
        duration_s=60, segment_s=2, rate_min_mbps=3, rate_max_mbps=50, seed=1000
    )
    tr = gen_rapidly_changing(spec)
    assert tr._gaps.nbytes == len(tr) - 1
    # One 256 ms outage widens every gap to 2 bytes.
    stamps = tr.opportunities
    outage = LinkTrace(np.append(stamps, stamps[-1] + 256))
    assert outage._gaps.nbytes == 2 * len(tr)


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


@st.composite
def trace_files(draw, starts=(0, 1, 2**40, 2**62, *(10**d - 1 for d in range(1, 19))), max_pad=25):
    """A trace file the line-at-a-time reader accepts: digit lines that
    never decrease, some zero-padded by up to `max_pad` zeros, so that a
    line can be wider than 19 digits, the last newline optional. Some
    start just below each power of ten, so the digit count changes."""
    start = draw(st.sampled_from(starts))
    gaps = draw(st.lists(st.integers(0, 300) | st.sampled_from([0, 2**20]), max_size=60))
    stamps = [start]
    for gap in gaps:
        stamps.append(stamps[-1] + gap)
    pads = draw(st.lists(st.integers(0, max_pad), min_size=len(stamps), max_size=len(stamps)))
    lines = ["0" * pad + str(stamp) for pad, stamp in zip(pads, stamps)]
    end = draw(st.sampled_from(["\n", ""]))
    return ("\n".join(lines) + end).encode(), stamps


@settings(max_examples=200, deadline=None)
@given(trace_files())
def test_trace_codec_matches_the_line_at_a_time_reference(case):
    data, stamps = case
    tr = load_trace(io.BytesIO(data))
    assert tr == reference_load_trace(io.BytesIO(data))
    assert tr.opportunities.tolist() == stamps
    ours, ref = io.BytesIO(), io.BytesIO()
    save_trace(tr, ours)
    reference_save_trace(tr, ref)
    assert ours.getvalue() == ref.getvalue()


def _outcome(load, data: bytes):
    try:
        return load(io.BytesIO(data))
    except TraceParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(trace_files(starts=(0, 1), max_pad=3), st.data())
def test_trace_reader_agrees_with_the_reference_on_edited_files(case, data):
    # Small stamps and short pads keep every merged or grown line far
    # below 2**63, where the reference fails in the LinkTrace
    # constructor, with no line.
    raw = bytearray(case[0])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw)))
        op = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        char = data.draw(st.sampled_from(b"0159\n a-"))
        if op == "insert":
            raw.insert(at, char)
        elif at < len(raw):
            if op == "replace":
                raw[at] = char
            else:
                del raw[at]
    edited = bytes(raw)
    assert _outcome(load_trace, edited) == _outcome(reference_load_trace, edited)


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
    # Each ms's opportunities are stamped at its end.
    per_segment = np.bincount((tr.opportunities - 1) // 2000, minlength=len(rates))
    for got, rate in zip(per_segment, rates):
        want = rate * 1e6 * 2.0 / (8.0 * 1500)
        # Integer packet placement can shift one packet across a boundary.
        assert abs(got - want) <= 1.0 + 1e-9


@pytest.mark.parametrize("mbps", [0.3, 8.0, 41.7])
def test_a_generated_trace_cycles_at_its_duration(mbps):
    # At a 1000-byte MTU these are 0.0375, 1 and 5.2125 packets per ms.
    spec = SyntheticTraceSpec(
        duration_s=2, segment_s=2, rate_min_mbps=mbps, rate_max_mbps=mbps, seed=3
    )
    tr = gen_rapidly_changing(spec, mtu_bytes=1000)
    assert tr.opportunities[-1] == tr.duration_ms == 2000
    one_packet_mbps = 1000 * 8 / (2000 * 1000)
    assert abs(tr.mean_rate_mbps() - mbps) < one_packet_mbps
    # A saturating sender over three cycles: ms 0 has no opportunity,
    # each later cycle carries exactly the trace, and no ms holds more
    # than the trace's own most.
    params = LinkParams(
        trace=tr, one_way_prop_ms=0, queue_capacity_pkts=100_000, duration_ms=6000
    )
    res = run_simulation(params, Pinned(window_pkts=1000))
    delivered = np.bincount(res.delivered_ms[res.delivered_ms >= 0], minlength=6000)
    per_cycle = delivered.reshape(3, 2000).sum(axis=1)
    assert per_cycle[0] == len(tr) - np.count_nonzero(tr.opportunities == 2000)
    assert per_cycle[1] == per_cycle[2] == len(tr)
    assert delivered.max() == np.bincount(tr.opportunities).max()


def test_a_rate_that_underflows_still_ends_at_the_duration():
    spec = SyntheticTraceSpec(
        duration_s=1, segment_s=1, rate_min_mbps=1e-320, rate_max_mbps=1e-320, seed=0
    )
    assert gen_rapidly_changing(spec).opportunities.tolist() == [1000]


def test_a_segment_longer_than_the_trace_is_the_trace():
    spec = dict(duration_s=3, rate_min_mbps=2, rate_max_mbps=40, seed=4)
    whole = gen_rapidly_changing(SyntheticTraceSpec(segment_s=3, **spec))
    assert gen_rapidly_changing(SyntheticTraceSpec(segment_s=1e300, **spec)) == whole


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
        with pytest.raises(ValueError, match="mtu_bytes must be an integer >= 1"):
            gen_rapidly_changing(spec, mtu_bytes=mtu)


def test_distinct_seeds_give_distinct_traces():
    base = dict(duration_s=3, segment_s=1, rate_min_mbps=2, rate_max_mbps=40)
    traces = [
        gen_rapidly_changing(SyntheticTraceSpec(seed=s, **base)) for s in range(10)
    ]
    seen = {tuple(tr.opportunities.tolist()) for tr in traces}
    assert len(seen) == 10


def test_generation_rejects_an_opportunity_count_past_int64():
    # The count at rate_max_mbps over the whole duration must stay below
    # 2**63; it is checked before any rate is drawn.
    for rate_max, mtu in ((1e300, 1500), (1e12, 1)):
        spec = SyntheticTraceSpec(
            duration_s=100, segment_s=2, rate_min_mbps=3, rate_max_mbps=rate_max, seed=0
        )
        with pytest.raises(ValueError, match=r"rate_max_mbps .* not below 2\*\*63"):
            gen_rapidly_changing(spec, mtu_bytes=mtu)


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
        ("duration_s", 1e306),
        ("segment_s", -1),
        ("rate_min_mbps", 0),
        ("rate_max_mbps", 0.5),
        ("seed", -3),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "1"),
    ]:
        with pytest.raises(ValueError, match=field):
            SyntheticTraceSpec(**{**good, field: bad})
    SyntheticTraceSpec(**{**good, "seed": np.int64(3)})
