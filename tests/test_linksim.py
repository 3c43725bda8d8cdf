"""Bottleneck link emulator: oracles, conservation, serialization."""

import io
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_linksim import (
    reference_read_packet_csv,
    reference_run_simulation,
    reference_write_packet_csv,
)

import harness
from mdi.controllers import BASELINES, W_MAX_PKTS, Controller, Pinned
from mdi.linksim import (
    EPOCH_CSV_HEADER,
    PACKET_CSV_HEADER,
    LinkParams,
    PacketLog,
    SimResult,
    SimulationError,
    read_epoch_csv,
    read_packet_csv,
    run_samples,
    run_simulation,
    summarize,
    time_dtype,
    write_epoch_csv,
    write_packet_csv,
)
from mdi.trace import LinkTrace, SyntheticTraceSpec, gen_rapidly_changing
from mdi.trainer import EpochLog


def constant_trace(mbps: float, duration_s: float) -> LinkTrace:
    spec = SyntheticTraceSpec(
        duration_s=duration_s,
        segment_s=duration_s,
        rate_min_mbps=mbps,
        rate_max_mbps=mbps,
        seed=0,
    )
    return gen_rapidly_changing(spec)


def test_stop_and_wait_oracle():
    # Window pinned at 1 on an uncongested link: every packet sees the
    # bare round trip, and sends are spaced exactly one RTT apart, but
    # for the first packet, which waits for the trace's first stamp at
    # 1 ms (each ms's opportunities are stamped at its end).
    params = LinkParams(
        trace=constant_trace(12.0, 10.0), one_way_prop_ms=20, duration_ms=5000
    )
    res = run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    assert rtts.size > 0
    assert rtts[0] == 41 and np.all(rtts[1:] == 40)
    gaps = np.diff(res.sent_ms)
    assert gaps[0] == 41 and np.all(gaps[1:] == 40)
    assert abs(res.sent_pkts - 125) <= 1  # 5000 ms / 40 ms per round trip
    assert res.dropped_pkts == 0
    # Every delivered packet is acked exactly one return leg later.
    mask = (res.delivered_ms >= 0) & (res.acked_ms >= 0)
    assert np.all(res.acked_ms[mask] - res.delivered_ms[mask] == 40)


def test_full_buffer_delay_matches_queue_plus_propagation():
    # A huge pinned window against a bounded buffer keeps the queue
    # pinned at capacity, so delay sits at 2*prop + qcap service ticks.
    params = LinkParams(
        trace=constant_trace(12.0, 12.0),
        one_way_prop_ms=10,
        queue_capacity_pkts=50,
        duration_ms=10_000,
    )
    res = run_simulation(params, Pinned(window_pkts=200.0, epoch_ms=20))
    assert res.dropped_pkts > 0
    p50 = res.summary.delay_ms.p50
    assert abs(p50 - (2 * 10 + 50)) <= 1.5
    # The link itself is saturated: one packet per ms reaches the far end.
    assert res.summary.throughput_mbps.p50 == pytest.approx(12.0, rel=0.02)


def test_epoch_log_appears_once_acks_flow():
    # One packet per 40 ms round trip and a boundary every 20 ms: ACKs
    # land in every other epoch, from the first ACK at t = 41 on (the
    # trace's first stamp is at 1 ms). The 99 boundaries before 2 s give
    # 49 rows; the other 50 epochs are silent, counted and not logged.
    params = LinkParams(
        trace=constant_trace(12.0, 10.0), one_way_prop_ms=20, duration_ms=2000
    )
    res = run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))
    assert len(res.epochs) == 49
    assert res.silent_epochs == 50
    assert res.epochs.t_ms[0] == 60  # first boundary after the first ack
    assert res.epochs.delay_ms[0] == 41.0 and np.all(res.epochs.delay_ms[1:] == 40.0)
    assert np.all(np.diff(res.epochs.t_ms) == 40)


def test_fractional_window_carries_remainder():
    # Window 2.5 with instant acks alternates integer send caps 2 and 3
    # between epochs, so the long-run average honors the fraction.
    params = LinkParams(
        trace=constant_trace(120.0, 4.0), one_way_prop_ms=0, duration_ms=1000
    )
    res = run_simulation(params, Pinned(window_pkts=2.5, epoch_ms=20))
    assert abs(res.sent_pkts - 2500) <= 60


def test_identical_runs_are_bit_identical():
    trace = constant_trace(8.0, 6.0)
    params = LinkParams(
        trace=trace, one_way_prop_ms=15, queue_capacity_pkts=60,
        loss_rate=0.05, seed=123, duration_ms=3000,
    )
    a = run_simulation(params, Pinned(window_pkts=30.0, epoch_ms=20))
    b = run_simulation(params, Pinned(window_pkts=30.0, epoch_ms=20))
    for field in PACKET_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))

    other = LinkParams(
        trace=trace, one_way_prop_ms=15, queue_capacity_pkts=60,
        loss_rate=0.05, seed=124, duration_ms=3000,
    )
    c = run_simulation(other, Pinned(window_pkts=30.0, epoch_ms=20))
    assert not np.array_equal(a.dropped, c.dropped)


def test_random_loss_drops_at_service_time():
    params = LinkParams(
        trace=constant_trace(12.0, 6.0), one_way_prop_ms=5,
        loss_rate=0.2, seed=7, duration_ms=4000,
    )
    res = run_simulation(params, Pinned(window_pkts=40.0, epoch_ms=20))
    frac = res.dropped_pkts / res.sent_pkts
    assert 0.1 < frac < 0.3
    # Lost packets have no delivery or ack timestamps.
    assert np.all(res.delivered_ms[res.dropped] == -1)
    assert np.all(res.acked_ms[res.dropped] == -1)


class _Rogue(Controller):
    """Returns one out-of-contract decision every epoch and counts the calls."""

    name = "rogue"

    def __init__(self, window_pkts: float, epoch_len_ms: int) -> None:
        self.decision = (window_pkts, epoch_len_ms)
        self.calls = 0

    def on_epoch(self, feedback):
        self.calls += 1
        return self.decision


def test_out_of_contract_decisions_are_clamped_and_counted():
    params = LinkParams(trace=constant_trace(12.0, 4.0), duration_ms=500)
    for window_pkts, epoch_len_ms in ((0.99, 20), (float("nan"), 20), (1e300, 20), (5.0, 0)):
        rogue = _Rogue(window_pkts, epoch_len_ms)
        res = run_simulation(params, rogue)
        # Each decision breaks one bound, and each is clamped and counted.
        assert rogue.calls > 1
        assert res.clamp_warnings == rogue.calls
        # The clamp floors the window at one packet and the epoch at
        # 1 ms, so traffic still flows.
        assert res.delivered_pkts > 0
        if window_pkts > W_MAX_PKTS:
            # The window stops at W_MAX_PKTS: the first epoch sends that
            # many, and a queue that never fills holds at most that many
            # beyond those the run served.
            assert set(res.epochs.window_pkts) == {W_MAX_PKTS}
            served = res.delivered_pkts + res.loss_drops
            assert W_MAX_PKTS <= res.sent_pkts <= W_MAX_PKTS + 1 + served + res.tail_drops
    assert rogue.calls == params.duration_ms  # a 1 ms epoch, every tick


def test_zero_delivery_run_is_flagged():
    # All capacity sits beyond the simulated horizon.
    params = LinkParams(trace=LinkTrace([5000]), duration_ms=100)
    res = run_simulation(params, Pinned(window_pkts=4.0, epoch_ms=20))
    assert res.zero_delivered
    assert len(res.epochs) == 0
    assert res.summary.throughput_mbps.p50 == 0.0


def test_unwrappable_trace_raises():
    params = LinkParams(trace=LinkTrace([0]), duration_ms=10)
    with pytest.raises(SimulationError):
        run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))


def test_trace_wraps_past_its_end():
    # One opportunity per ms for 1 s, run for 3 s: wrapping keeps serving.
    trace = constant_trace(12.0, 1.0)
    params = LinkParams(trace=trace, one_way_prop_ms=5, duration_ms=3000)
    res = run_simulation(params, Pinned(window_pkts=20.0, epoch_ms=20))
    delivered = res.delivered_ms[res.delivered_ms >= 0]
    assert delivered.max() > 2000
    assert res.summary.throughput_mbps.p50 == pytest.approx(12.0, rel=0.05)


def test_summary_matches_manual_recompute():
    params = LinkParams(
        trace=constant_trace(9.0, 8.0), one_way_prop_ms=12,
        queue_capacity_pkts=80, duration_ms=6000,
    )
    res = run_simulation(params, Pinned(window_pkts=35.0, epoch_ms=20))
    delivered = res.delivered_ms[res.delivered_ms >= 0]
    counts = np.bincount(delivered // 1000, minlength=6)[:6]
    tput = counts * 1500 * 8.0 / 1e6
    assert res.summary.throughput_mbps.p50 == pytest.approx(np.median(tput))
    assert res.summary.throughput_mbps.mean == pytest.approx(tput.mean())
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    assert res.summary.delay_ms.p50 == pytest.approx(np.median(rtts))
    assert res.summary.delay_ms.p25 == pytest.approx(np.percentile(rtts, 25))
    # A run's samples need a length and a packet size of at least 1.
    for duration_ms, mtu_bytes, name in ((0, 1500, "duration_ms"), (6000, 0, "mtu_bytes")):
        for reduce in (run_samples, summarize):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                reduce(res, duration_ms, mtu_bytes)


def test_link_params_validation():
    trace = LinkTrace([0, 1, 2])
    with pytest.raises(ValueError):
        LinkParams(trace=trace, one_way_prop_ms=-1)
    with pytest.raises(ValueError):
        LinkParams(trace=trace, queue_capacity_pkts=0)
    with pytest.raises(ValueError):
        LinkParams(trace=trace, loss_rate=1.0)
    with pytest.raises(ValueError):
        LinkParams(trace=trace, seed=-1)
    with pytest.raises(ValueError):
        LinkParams(trace=trace, duration_ms=0)
    # The integer fields take integers only, numpy's included, never a bool.
    for name, value in (
        ("one_way_prop_ms", 1.5), ("one_way_prop_ms", True), ("one_way_prop_ms", 10.0),
        ("queue_capacity_pkts", 2.5), ("queue_capacity_pkts", True),
        ("seed", 1.5), ("seed", False), ("duration_ms", 1500.5), ("duration_ms", "1500"),
    ):
        with pytest.raises(ValueError, match=name):
            LinkParams(trace=trace, **{name: value})
    # Every packet time, up to the run's length plus its ACK delay, fits int64.
    for duration_ms, prop in ((2**63, 0), (2**63 - 20, 10), (10**303, 10)):
        with pytest.raises(ValueError, match=r"duration_ms \+ 2 \* one_way_prop_ms must be below"):
            LinkParams(trace=trace, duration_ms=duration_ms, one_way_prop_ms=prop)
    LinkParams(trace=trace, duration_ms=2**63 - 21, one_way_prop_ms=10)
    fields = ("one_way_prop_ms", "queue_capacity_pkts", "seed", "duration_ms")
    params = LinkParams(trace=trace, **{name: np.int64(20) for name in fields})
    assert run_simulation(params, Pinned(window_pkts=2.0)).sent_pkts > 0


def test_epoch_csv_round_trip():
    log = EpochLog([40, 60], [12.5, 13.25], [8.0, 9.5])
    buf = io.StringIO()
    write_epoch_csv(log, buf)
    assert buf.getvalue().splitlines() == [
        "t_ms,delay_ms,window_pkts",
        "40,12.5,8.0",
        "60,13.25,9.5",
    ]
    buf.seek(0)
    assert list(read_epoch_csv(buf)) == list(log)


def test_epoch_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        read_epoch_csv(io.StringIO("a,b,c\n1,2,3\n"))
    # A file from before states were derived where used, with its four
    # state columns, fails at the header instead of being misread.
    old = (
        "epoch_index,t_ms,delay_ms,window_pkts,d_hat,w_hat,d_idx,w_idx\n"
        "0,40,12.5,8.0,,,,\n1,60,13.25,9.5,0.0625,0.181,5,11\n"
    )
    with pytest.raises(ValueError, match="^unexpected epoch CSV header: "):
        read_epoch_csv(io.StringIO(old))
    # The layout with an epoch_index column before the log's own fails
    # at the header too.
    with pytest.raises(ValueError, match="^unexpected epoch CSV header: "):
        read_epoch_csv(io.StringIO("epoch_index,t_ms,delay_ms,window_pkts\n0,40,12.5,8.0\n"))
    header = "t_ms,delay_ms,window_pkts\n"
    bad_bodies = [
        "40,0.0,8.0\n",  # zero delay
        "40,12.5,0.5\n",  # window below one packet
        "40,nan,8.0\n",  # non-finite delay
        "40,12.5\n",  # short row
        '"40",12.5,8.0\n',  # quoted field
        "40,12.5,8.0\r\n",  # carriage return
        " 40,12.5 ,8.0\n",  # padded fields
        "4_0,12.5,8.0\n",  # digit separator
        "40,12.5,8.0\n\n60,13.25,9.5\n",  # empty row
        "40,12.5,8.0,\n",  # 4 fields
        "40,12.5,8.0,,,,\n",  # blank state fields
        "-5,12.5,8.0\n",  # negative t_ms
        "40,12.5,8.0\n20,13.25,9.5\n",  # t_ms going back
        "40,12.5,8.0\n40,13.25,9.5\n",  # t_ms repeated
    ]
    for body in bad_bodies:
        with pytest.raises(ValueError):
            read_epoch_csv(io.StringIO(header + body))


def test_readme_states_the_csv_headers_the_code_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = dict(re.findall(r"The (packet|epoch) CSV has the header\s+`([^`]*)`", readme))
    assert stated == {
        "packet": ",".join(PACKET_CSV_HEADER),
        "epoch": ",".join(EPOCH_CSV_HEADER),
    }


def test_epoch_csv_errors_name_the_body_row():
    header = "t_ms,delay_ms,window_pkts\n"
    first = "40,12.5,8.0\n"
    for row in ("60,13.25\n", "60,13..25,9.5\n"):  # field count, conversion
        with pytest.raises(ValueError, match="^epoch CSV row 1: "):
            read_epoch_csv(io.StringIO(header + first + row))
    for row in ("20,13.25,9.5\n", "40,13.25,9.5\n", "-5,13.25,9.5\n"):  # t_ms order
        with pytest.raises(ValueError, match="^epoch CSV row 1: t_ms is negative or not above"):
            read_epoch_csv(io.StringIO(header + first + row))
    with pytest.raises(ValueError, match="^epoch CSV row 0: t_ms is negative"):
        read_epoch_csv(io.StringIO(header + "-5,12.5,8.0\n"))
    # Values no run could log: an infinite or non-positive delay, an
    # infinite window or one below a packet.
    for row, column in (
        ("60,1e999,9.5\n", "delay_ms"), ("60,0.0,9.5\n", "delay_ms"),
        ("60,13.25,1e999\n", "window_pkts"), ("60,13.25,-1\n", "window_pkts"),
        ("60,13.25,0.5\n", "window_pkts"),
    ):
        with pytest.raises(ValueError, match=f"^epoch CSV row 1: {column} must be finite"):
            read_epoch_csv(io.StringIO(header + first + row))
    # Spellings repr never writes: a leading "+", a zero before a digit
    # at a field's start, a fraction padded with trailing zeros. Alone,
    # each would read as a valid one-row log.
    for row in (
        "01,2.0,3.0\n", "+1,2.0,3.0\n", "1,+2.0,3.0\n", "1,2.0,0003.0\n", "1,2.50,3.0\n",
        "1,2.5,1.10e+16\n",
    ):
        for body, at in ((row, 0), ("0,12.5,8.0\n" + row, 1), (row + "90,12.5,8.0\n", 0)):
            with pytest.raises(ValueError, match=f"^epoch CSV row {at}: not written as"):
                read_epoch_csv(io.StringIO(header + body))
    # More at t_ms 0: an exponent where repr writes none, a bare point,
    # a signed zero, a whole number in a real column.
    for row in ("0,1e2,5.0\n", "0,.5,5.0\n", "-0,5.0,5.0\n", "0,5.,3\n", "0,5.0,3.0e0\n"):
        for body in (row, row + "90,12.5,8.0\n"):
            with pytest.raises(ValueError, match="^epoch CSV row 0: not written as"):
                read_epoch_csv(io.StringIO(header + body))
    # What repr does write reads: an exponent's own zeros, a bare zero
    # before the point and a one-digit fraction.
    log = read_epoch_csv(io.StringIO(header + "0,0.5,1e+16\n10,1e-05,100.0\n"))
    assert list(log) == [(0, 0.5, 1e16), (10, 1e-05, 100.0)]


def test_epoch_csv_names_a_t_ms_outside_int64():
    header = "t_ms,delay_ms,window_pkts\n"
    for t in (2**63, 2**64, -(2**63) - 1):
        for body, at in ((f"{t},12.5,8.0\n", 0), (f"0,12.5,8.0\n{t},12.5,8.0\n", 1)):
            with pytest.raises(ValueError, match=f"^epoch CSV row {at}: not written as"):
                read_epoch_csv(io.StringIO(header + body))
    log = read_epoch_csv(io.StringIO(f"{header}0,12.5,8.0\n{2**63 - 1},12.5,8.0\n"))
    assert log.t_ms.tolist() == [0, 2**63 - 1]


def test_packet_csv_round_trip():
    params = LinkParams(
        trace=constant_trace(10.0, 4.0), one_way_prop_ms=8,
        queue_capacity_pkts=30, loss_rate=0.1, seed=3, duration_ms=2000,
    )
    res = run_simulation(params, Pinned(window_pkts=50.0, epoch_ms=20))
    buf = io.StringIO()
    write_packet_csv(res, buf)
    buf.seek(0)
    log = read_packet_csv(buf)
    assert np.array_equal(log.sent_ms, res.sent_ms)
    assert np.array_equal(log.delivered_ms, res.delivered_ms)
    assert np.array_equal(log.acked_ms, res.acked_ms)
    assert np.array_equal(log.rtt_ms, res.rtt_ms)
    assert np.array_equal(log.dropped, res.dropped)
    again = io.StringIO()
    write_packet_csv(log, again)
    assert again.getvalue() == buf.getvalue()


def test_packet_csv_rejects_rows_no_run_could_write():
    header = "sent_ms,delivered_ms,acked_ms,dropped\n"
    good = "0,5,25,0\n0,,,1\n"
    log = read_packet_csv(io.StringIO(header + good))
    assert log.dropped_pkts == 1
    assert log.rtt_ms.tolist() == [25, -1]
    for empty in (header, header.rstrip("\n")):
        assert read_packet_csv(io.StringIO(empty)).sent_pkts == 0
    # The layout with seq and rtt_ms columns fails at the header.
    old = "seq,sent_ms,delivered_ms,acked_ms,rtt_ms,dropped\n0,0,5,25,25,0\n"
    with pytest.raises(ValueError, match="^unexpected packet CSV header: "):
        read_packet_csv(io.StringIO(old))
    bad_bodies = [
        "0,5,25,7\n",  # dropped is not 0 or 1
        "-3,5,25,0\n",  # negative send time
        "0,-1,,1\n",  # explicit negative instead of a blank
        "0,,25,0\n",  # ACK without a delivery
        "0,5,,1\n",  # delivered and dropped
        ",5,25,0\n",  # blank send time
        "0,5,25\n",  # short row
        "10,5,25,0\n",  # delivered before it was sent
        "0,1,3,0\n0,2,9,0\n",  # ACK delay not one constant
        "0,5,5,0\n",  # ACK delay of 0 ms
        "0,5,25,0\n\n0,,,1\n",  # empty row
        "\n0,5,25,0\n",  # leading empty row
        "0,5,25,0\n\n",  # trailing empty row
        "0,5,25,0,0\n",  # 5 fields
        "0,5.0,25,0\n",  # not an integer
        "0,5,25,\n",  # blank drop flag
        ",,,1\n",  # blank send time, every other field consistent
        '"0",5,25,0\n',  # quoted field
        "0,5,25,0 \n",  # padded field
        "0,05,25,0\n",  # zero-padded field
        "00,5,25,0\n",  # zero-padded send time
        "0,5,25,0\r\n",  # carriage return
        "0,5,25,0\x0c\n",  # form feed, a line break to str.splitlines
    ]
    for body in bad_bodies:
        with pytest.raises(ValueError):
            read_packet_csv(io.StringIO(header + body))


def test_packet_csv_errors_name_the_body_row():
    header = "sent_ms,delivered_ms,acked_ms,dropped\n"
    first = "0,5,25,0\n"
    # Field count, conversion, padding.
    for row in ("0,5\n", "0,5,25,\n", "0,05,25,0\n"):
        with pytest.raises(ValueError, match="^packet CSV row 1: "):
            read_packet_csv(io.StringIO(header + first + row))
    # A stray character is named as the text has it, one of several
    # bytes too.
    for row, problem in (
        ("0,5,25,x\n", "unexpected 'x'"), ("0,5,25,é\n", "unexpected 'é'"),
        ("0,-5,25,0\n", "negative number"),
    ):
        with pytest.raises(ValueError, match=f"^packet CSV row 1: {problem}$"):
            read_packet_csv(io.StringIO(header + first + row))
    with pytest.raises(ValueError, match="^unexpected packet CSV header: 'sént_ms,"):
        read_packet_csv(io.StringIO(header.replace("sent", "sént") + first))


def test_packet_csv_reads_every_int64_and_rejects_wider_values():
    header = "sent_ms,delivered_ms,acked_ms,dropped\n"
    first = "0,,,1\n"
    top = str(2**63 - 1)
    text = header + first + f"{top},{top},,0\n"
    log = read_packet_csv(io.StringIO(text))
    assert log.sent_ms[1] == log.delivered_ms[1] == 2**63 - 1
    assert_same_packets(log, reference_read_packet_csv(io.StringIO(text)), np.int64)
    assert packet_csv(write_packet_csv, log) == text
    # No field is zero-padded, not even past the 19th digit.
    padded = ("5".rjust(22, "0"), "0" * 22, "00", "05", "0" + top)
    for wide in (str(2**63), "9" * 20, "0" + str(2**63), str(10**19), *padded):
        for row in (f"{wide},,,1\n", f"0,{wide},,0\n"):
            text = header + first + row
            with pytest.raises(ValueError, match="^packet CSV row 1: "):
                read_packet_csv(io.StringIO(text))
            with pytest.raises(ValueError):
                reference_read_packet_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "largest, times", [(2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64)]
)
def test_packet_csv_times_are_int32_while_every_time_fits(largest, times):
    # The largest time is an ACK's; all three time columns take its width.
    header = "sent_ms,delivered_ms,acked_ms,dropped\n"
    text = f"{header}0,,,1\n{largest - 5},{largest - 3},{largest},0\n"
    log = read_packet_csv(io.StringIO(text))
    assert_same_packets(log, reference_read_packet_csv(io.StringIO(text)), times)
    assert log.rtt_ms.tolist() == [-1, 5]
    assert packet_csv(write_packet_csv, log) == text


def test_emulator_times_are_int32_while_duration_plus_ack_delay_fits():
    # The emulator forms delivered_ms + ack_delay, up to duration_ms +
    # ack_delay, before it masks the ACKs past the run's end.
    top = 2**31 - 1
    for duration, ack_delay in ((top - 1, 1), (1, top - 1), (60_000, top - 60_000)):
        assert time_dtype(duration + ack_delay) == np.int32
        assert time_dtype(duration + ack_delay + 1) == np.int64
    assert time_dtype(2**63 - 1) == np.int64


def test_a_minute_of_packets_takes_13_bytes_each(verus_bundle):
    # Three 4-byte times and a 1-byte drop flag, in a run and in its
    # read-back alike.
    held = verus_bundle.held[0]
    for run in (held.native, held.mdi):
        back = read_packet_csv(io.StringIO(packet_csv(write_packet_csv, run)))
        for log in (run, back):
            assert sum(getattr(log, f).nbytes for f in PACKET_FIELDS) == 13 * log.sent_pkts


PACKET_FIELDS = ("sent_ms", "delivered_ms", "acked_ms", "dropped")


@st.composite
def packet_logs(draw):
    """Logs of the kinds a run writes: sends in order, then each packet
    ACKed, delivered but not yet ACKed, still queued, or dropped; one
    constant ACK delay; times from zero up to about 2**62 ms, so a cell
    can have 19 digits and every ACK time stays within int64. Hypothesis
    draws the shape, a seeded generator the columns."""
    n = draw(st.integers(0, 300))
    start = draw(st.sampled_from([0, 1, 2**40, 2**62]))
    gap, wait = (draw(st.sampled_from([1, 10, 10**6])) for _ in range(2))
    fate_weights = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
    ack_delay = draw(st.integers(1, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sent = start + np.cumsum(rng.integers(0, gap, n, endpoint=True))
    fates = rng.choice(4, n, p=np.array(fate_weights) / sum(fate_weights))
    delivered = np.where(fates <= 1, sent + rng.integers(0, wait, n, endpoint=True), -1)
    acked = np.where(fates == 0, delivered + ack_delay, -1)
    return PacketLog(
        sent_ms=sent,
        delivered_ms=delivered,
        acked_ms=acked,
        dropped=fates == 3,
    )


def assert_same_packets(got: PacketLog, want: PacketLog, times) -> None:
    """`got` holds `want`'s values, with its times in dtype `times`; the
    reference code keeps every time in int64."""
    for field in PACKET_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        dtype = b.dtype if field == "dropped" else np.dtype(times)
        assert a.dtype == dtype and np.array_equal(a, b), field


def read_times(log: PacketLog) -> np.dtype:
    """The reader's rule: time_dtype of the log's largest time."""
    return time_dtype(max(int(getattr(log, f).max(initial=-1)) for f in PACKET_FIELDS[:3]))


def run_times(params: LinkParams) -> np.dtype:
    """The emulator's rule: time_dtype of the run's length plus the ACK
    delay, the largest time it forms."""
    return time_dtype(params.duration_ms + max(2 * params.one_way_prop_ms, 1))


def packet_csv(write, log: PacketLog) -> str:
    buf = io.StringIO()
    write(log, buf)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(packet_logs())
def test_packet_csv_codec_matches_the_row_at_a_time_reference(log):
    text = packet_csv(write_packet_csv, log)
    assert text == packet_csv(reference_write_packet_csv, log)
    back = read_packet_csv(io.StringIO(text))
    want = reference_read_packet_csv(io.StringIO(text))
    assert_same_packets(back, want, read_times(want))
    assert packet_csv(write_packet_csv, back) == text


@settings(max_examples=200, deadline=None)
@given(packet_logs(), st.data())
def test_packet_csv_reader_agrees_with_the_reference_on_edited_files(log, data):
    # One edit of the body from the characters a packet CSV is made of;
    # most edits break a row, and both readers must agree on each.
    text = packet_csv(write_packet_csv, log)
    at = data.draw(st.integers(text.index("\n") + 1, len(text)))
    cut = data.draw(st.integers(0, 2))
    edited = text[:at] + data.draw(st.text("019,\n-", max_size=2)) + text[at + cut :]
    assume(edited != text)

    def outcome(read):
        try:
            return read(io.StringIO(edited))
        except ValueError:
            return None

    got, want = outcome(read_packet_csv), outcome(reference_read_packet_csv)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same_packets(got, want, read_times(want))


@st.composite
def link_cases(draw):
    gaps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=400))
    stamps = np.cumsum(gaps)
    # A last gap of 2**30 or more makes the trace store 4- or 8-byte gaps.
    if draw(st.booleans()):
        stamps = np.append(stamps, draw(st.integers(2**30, 2**40)))
    params = LinkParams(
        trace=LinkTrace(stamps),
        one_way_prop_ms=draw(st.integers(0, 40)),
        queue_capacity_pkts=draw(st.one_of(st.none(), st.integers(1, 50))),
        loss_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
        seed=draw(st.integers(0, 2**32)),
        duration_ms=draw(st.integers(1, 8000)),
    )
    return params, draw(st.sampled_from(sorted(BASELINES)))


def assert_same_run(
    params: LinkParams, got: SimResult, want: SimResult, want_rtt: np.ndarray
) -> None:
    """A run equals the reference loop's, whose RTT column is its own."""
    assert_same_packets(got, want, run_times(params))
    assert np.array_equal(got.rtt_ms, want_rtt)
    assert list(got.epochs) == list(want.epochs)
    assert got.queued_end_pkts == want.queued_end_pkts
    assert (got.tail_drops, got.loss_drops) == (want.tail_drops, want.loss_drops)
    assert got.tail_drops + got.loss_drops == got.dropped_pkts
    assert got.clamp_warnings == want.clamp_warnings
    assert got.silent_epochs == want.silent_epochs


def _run_or_error(run, params, name):
    try:
        return run(params, BASELINES[name]())
    except SimulationError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(link_cases())
def test_emulator_matches_the_reference_tick_loop(case):
    # Random traces repeat ms, end before the run or cannot wrap; with
    # loss and short queues this pins random and tail drops, which the
    # golden digests (loss-free runs only) do not.
    params, name = case
    got = _run_or_error(run_simulation, params, name)
    want = _run_or_error(reference_run_simulation, params, name)
    assert isinstance(got, str) == isinstance(want, str)
    if not isinstance(want, str):
        assert_same_run(params, got, *want)


class _Recorder(Controller):
    """Hands each epoch's feedback on to `inner` and keeps a copy."""

    def __init__(self, inner: Controller) -> None:
        self.inner = inner
        self.feedback: list = []

    def on_epoch(self, feedback):
        self.feedback.append(feedback)
        return self.inner.on_epoch(feedback)


def _feedback(run, params, name):
    """The feedback a run hands its controller, or None if the run fails."""
    recorder = _Recorder(BASELINES[name]())
    try:
        run(params, recorder)
    except SimulationError:
        return None
    return recorder.feedback


@settings(max_examples=200, deadline=None)
@given(link_cases())
def test_emulator_hands_the_controller_the_reference_feedback(case):
    # No log holds acked_pkts or min_delay_ms, yet controllers read
    # them: MdiController holds on acked_pkts == 0.
    params, name = case
    got = _feedback(run_simulation, params, name)
    want = _feedback(reference_run_simulation, params, name)
    assert got == want
    # The emulator is the only builder of feedback; these are its bounds.
    for mean, least, acked in got or ():
        assert acked >= 0
        assert math.isfinite(mean) and mean >= 0.0
        assert math.isfinite(least) and least >= 0.0
        if acked > 0:
            assert mean >= least


@settings(max_examples=200, deadline=None)
@given(link_cases())
def test_emulator_keeps_its_laws_on_wrapped_lossy_links(case):
    # Random traces that wrap, with loss and short queues; a trace that
    # cannot wrap raises instead and has no laws to keep.
    params, name = case
    try:
        res = run_simulation(params, BASELINES[name]())
    except SimulationError:
        return
    # Conservation: every packet is delivered, dropped for one cause, or
    # queued, and the drop flags mark the dropped ones.
    assert res.sent_pkts == (
        res.delivered_pkts + res.tail_drops + res.loss_drops + res.queued_end_pkts
    )
    assert res.dropped_pkts == res.tail_drops + res.loss_drops
    # Capacity: per-second deliveries never beat the trace, replayed
    # shifted by its last timestamp.
    duration = params.duration_ms
    opp = params.trace.opportunities
    span = int(opp[-1])
    copies = [opp]
    while copies[-1][0] + span < duration:
        copies.append(copies[-1] + span)
    opps = np.concatenate(copies)
    n_sec = -(-duration // 1000)
    delivered = res.delivered_ms[res.delivered_ms >= 0]
    offered = np.bincount(opps[opps < duration] // 1000, minlength=n_sec)
    assert np.all(np.bincount(delivered // 1000, minlength=n_sec) <= offered)
    # FIFO: packets are delivered in send order.
    assert np.all(np.diff(delivered) >= 0)
    # The return leg is one constant: ACK time is delivery time plus it.
    acked = res.acked_ms >= 0
    ack_delay = max(2 * params.one_way_prop_ms, 1)
    assert np.array_equal(res.acked_ms[acked], res.delivered_ms[acked] + ack_delay)


@pytest.mark.parametrize(
    "make, queue_pkts, loss_rate",
    [(harness.make_copa, 60, 0.01), (harness.make_verus, 20, 0.2)],
    ids=["copa-q60-1pct", "verus-q20-20pct"],
)
def test_lossy_minute_matches_the_reference_tick_loop(make, queue_pkts, loss_rate):
    # A minute of a harness trace serves over 110k packets, one loss draw
    # each; the emulator draws them all before its loop, one per
    # opportunity, and the reference one per packet served. The copa-like
    # link is the train-copa-lossy benchmark's; the 20-packet one adds
    # many tail drops to the random ones.
    spec = harness.VERUS
    trace = gen_rapidly_changing(
        SyntheticTraceSpec(
            duration_s=harness.DURATION_S,
            segment_s=spec.segment_s,
            rate_min_mbps=spec.rate_min_mbps,
            rate_max_mbps=spec.rate_max_mbps,
            seed=1000,
        )
    )
    link = {**harness.LINK, "queue_capacity_pkts": queue_pkts}
    params = LinkParams(trace=trace, loss_rate=loss_rate, seed=harness.MASTER_SEED, **link)
    got = run_simulation(params, make())
    assert got.delivered_pkts > 100_000
    assert got.tail_drops > 0 and got.loss_drops > 0
    assert_same_run(params, got, *reference_run_simulation(params, make()))


class _Scripted(Controller):
    """Replays (window, epoch length) decisions in a cycle; keeps each
    epoch's feedback."""

    def __init__(self, decisions) -> None:
        self.decisions = itertools.cycle(decisions)
        self.feedback: list = []

    def on_epoch(self, feedback):
        self.feedback.append(feedback)
        return next(self.decisions)


def test_standing_queue_matches_the_reference_tick_loop():
    # The first opportunity comes at ms 3, then one every 4 ms. For the
    # first 2 s the window is far above the path's bandwidth-delay
    # product (2.5 packets), so a queue stands from tick 0 and no packet
    # waits less than 3 ms; at window 1 packets wait less, but none gets
    # an opportunity in its send tick. So the minimum RTT stays above the
    # 10 ms propagation for the whole run, the emulator looks for a lower
    # one at every boundary, and finds one twice. Each 100 ms epoch
    # outlasts the 10 ms return leg, and random and tail drops fall
    # inside the epochs.
    params = LinkParams(
        trace=LinkTrace(np.arange(3, 1000, 4)),
        one_way_prop_ms=5,
        queue_capacity_pkts=40,
        loss_rate=0.1,
        seed=7,
        duration_ms=5000,
    )
    script = [(200.0, 100)] * 20 + [(1.0, 100)] * 30
    got, want = _Scripted(script), _Scripted(script)
    result = run_simulation(params, got)
    assert_same_run(params, result, *reference_run_simulation(params, want))
    assert got.feedback == want.feedback
    assert result.tail_drops > 0 and result.loss_drops > 0
    least = [fb.min_delay_ms for fb in got.feedback[1:]]
    assert all(fb.acked_pkts for fb in got.feedback[1:])
    assert least[0] == 13.0 and least[-1] > 10.0 and len(set(least)) > 2


decisions = st.tuples(
    st.one_of(
        st.floats(1.0, 300.0),
        st.floats(-5.0, 1.0, exclude_max=True),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
    st.integers(-3, 150),
)


@settings(max_examples=200, deadline=None)
@given(link_cases(), st.lists(decisions, min_size=1, max_size=20))
# The run ends on a tail drop sent right after the last queue position served.
@example((LinkParams(trace=LinkTrace([0, 1]), queue_capacity_pkts=1, duration_ms=1), ""), [(3, 9)])
# A window past the ceiling is clamped to it; the one-packet queue keeps
# the reference loop to one send and one tail drop a tick.
@example(
    (LinkParams(trace=LinkTrace([0, 1, 2]), queue_capacity_pkts=1, duration_ms=50), ""),
    [(1e300, 7), (2.5, 5)],
)
def test_scripted_decisions_match_the_reference_tick_loop(case, script):
    # Any window and epoch length, clamped ones included: a NaN, infinite,
    # sub-1 or past-the-ceiling window and an epoch below 1 ms.
    params, _ = case
    got, want = _Scripted(script), _Scripted(script)
    try:
        result = run_simulation(params, got)
    except SimulationError:
        with pytest.raises(SimulationError):
            reference_run_simulation(params, want)
        return
    assert_same_run(params, result, *reference_run_simulation(params, want))
    assert got.feedback == want.feedback
