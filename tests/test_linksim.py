"""Bottleneck link emulator: oracles, conservation, serialization."""

import io
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_linksim import (
    reference_read_packet_csv,
    reference_run_simulation,
    reference_write_packet_csv,
)

import harness
from mdi.controllers import BASELINES, Controller, Pinned, make_controller
from mdi.linksim import (
    EPOCH_CSV_HEADER,
    PACKET_CSV_HEADER,
    LinkParams,
    PacketLog,
    SimulationError,
    read_epoch_csv,
    read_packet_csv,
    run_simulation,
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
    # bare round trip, and sends are spaced exactly one RTT apart.
    params = LinkParams(
        trace=constant_trace(12.0, 10.0), one_way_prop_ms=20, duration_ms=5000
    )
    res = run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))
    rtts = res.rtt_ms[res.rtt_ms >= 0]
    assert rtts.size > 0
    assert np.all(rtts == 40)
    assert np.all(np.diff(res.sent_ms) == 40)
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
    params = LinkParams(
        trace=constant_trace(12.0, 10.0), one_way_prop_ms=20, duration_ms=2000
    )
    res = run_simulation(params, Pinned(window_pkts=1.0, epoch_ms=20))
    assert res.epochs.t_ms[0] == 40  # first boundary after the first ack
    assert np.all(res.epochs.delay_ms == 40.0)
    assert np.all(np.diff(res.epochs.t_ms) == 20)


def test_conservation_and_capacity_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        mbps = float(rng.uniform(1.0, 40.0))
        prop = int(rng.integers(1, 40))
        qcap = int(rng.integers(2, 200)) if rng.random() < 0.7 else None
        window = float(rng.uniform(1.0, 400.0))
        duration = int(rng.integers(500, 4000))
        trace = constant_trace(mbps, 8.0)
        params = LinkParams(
            trace=trace,
            one_way_prop_ms=prop,
            queue_capacity_pkts=qcap,
            duration_ms=duration,
        )
        res = run_simulation(params, Pinned(window_pkts=window, epoch_ms=20))
        # Every sent packet is delivered, dropped, or still queued.
        assert res.sent_pkts == res.delivered_pkts + res.dropped_pkts + res.queued_end_pkts
        # Deliveries never exceed what the trace offered in any second.
        delivered = res.delivered_ms[res.delivered_ms >= 0]
        offered = np.bincount(trace.opportunities // 1000, minlength=duration // 1000 + 1)
        for sec in range(duration // 1000 + 1):
            got = int(np.count_nonzero((delivered >= sec * 1000) & (delivered < (sec + 1) * 1000)))
            assert got <= offered[sec]
        # FIFO: deliveries happen in send order.
        assert np.all(np.diff(delivered) >= 0)
        # The return leg is constant.
        mask = (res.delivered_ms >= 0) & (res.acked_ms >= 0)
        assert np.all(res.acked_ms[mask] - res.delivered_ms[mask] == max(2 * prop, 1))


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
    for field in ("sent_ms", "delivered_ms", "acked_ms", "rtt_ms", "dropped"):
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
    """Returns an out-of-contract decision to exercise the safety clamp."""

    name = "rogue"

    def on_epoch(self, feedback):
        return SimpleNamespace(window_pkts=0.0, epoch_len_ms=0)


def test_out_of_contract_decisions_are_clamped_and_counted():
    params = LinkParams(trace=constant_trace(12.0, 4.0), duration_ms=500)
    res = run_simulation(params, _Rogue())
    assert res.clamp_warnings > 0
    # The clamp floors the window at one packet, so traffic still flows.
    assert res.delivered_pkts > 0


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


def test_epoch_csv_round_trip():
    log = EpochLog([40, 60], [12.5, 13.25], [8.0, 9.5])
    buf = io.StringIO()
    write_epoch_csv(log, buf)
    assert buf.getvalue().splitlines() == [
        "epoch_index,t_ms,delay_ms,window_pkts",
        "0,40,12.5,8.0",
        "1,60,13.25,9.5",
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
    header = "epoch_index,t_ms,delay_ms,window_pkts\n"
    bad_bodies = [
        "0,40,0.0,8.0\n",  # zero delay
        "0,40,12.5,0.5\n",  # window below one packet
        "0,40,nan,8.0\n",  # non-finite delay
        "0,40,12.5\n",  # short row
        "7,40,12.5,8.0\n",  # epoch_index is not the row number
        '"0",40,12.5,8.0\n',  # quoted field
        "0,40,12.5,8.0\r\n",  # carriage return
        "0, 40,12.5 ,8.0\n",  # padded fields
        "0,4_0,12.5,8.0\n",  # digit separator
        "0,40,12.5,8.0\n\n1,60,13.25,9.5\n",  # empty row
        "0,40,12.5,8.0,\n",  # 5 fields
        "0,40,12.5,8.0,,,,\n",  # the old layout's blank state fields
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
    header = "epoch_index,t_ms,delay_ms,window_pkts\n"
    first = "0,40,12.5,8.0\n"
    for row in ("1,60,13.25\n", "1,60,13..25,9.5\n"):  # field count, conversion
        with pytest.raises(ValueError, match="^epoch CSV row 1: "):
            read_epoch_csv(io.StringIO(header + first + row))
    with pytest.raises(ValueError, match="^epoch CSV row 1: "):  # index out of order
        read_epoch_csv(io.StringIO(header + first + "2,60,13.25,9.5\n"))


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
    header = "seq,sent_ms,delivered_ms,acked_ms,rtt_ms,dropped\n"
    good = "0,0,5,25,25,0\n1,0,,,,1\n"
    assert read_packet_csv(io.StringIO(header + good)).dropped_pkts == 1
    for empty in (header, header.rstrip("\n")):
        assert read_packet_csv(io.StringIO(empty)).sent_pkts == 0
    bad_bodies = [
        "0,0,5,25,25,0\n99,0,,,,1\n",  # seq is not the row number
        "0,0,5,25,25,7\n",  # dropped is not 0 or 1
        "0,-3,5,25,28,0\n",  # negative send time
        "0,0,-1,,,1\n",  # explicit negative instead of a blank
        "0,0,,25,25,0\n",  # ACK without a delivery
        "0,0,5,,,1\n",  # delivered and dropped
        "0,0,5,25,24,0\n",  # rtt is not acked - sent
        "0,0,5,25,,0\n",  # ACK without an RTT
        "0,0,5,,25,0\n",  # RTT without an ACK
        "0,,5,25,25,0\n",  # blank send time
        "0,0,5,25,25\n",  # short row
        "0,10,5,25,15,0\n",  # delivered before it was sent
        "0,0,1,3,3,0\n1,0,2,9,9,0\n",  # ACK delay not one constant
        "0,0,5,5,5,0\n",  # ACK delay of 0 ms
        "0,0,5,25,25,0\n\n1,0,,,,1\n",  # empty row
        "\n0,0,5,25,25,0\n",  # leading empty row
        "0,0,5,25,25,0\n\n",  # trailing empty row
        "0,0,5,25,25,0,0\n",  # 7 fields
        "0,0,5.0,25,25,0\n",  # not an integer
        "0,0,5,25,25,\n",  # blank drop flag
        ",0,5,25,25,0\n",  # blank seq
        "0,,,,,1\n",  # blank send time, every other field consistent
        '"0",0,5,25,25,0\n',  # quoted field
        "0,0,5,25,25,0 \n",  # padded field
        "0,0,5,25,25,0\r\n",  # carriage return
        "0,0,5,25,25,0\x0c\n",  # form feed, a line break to str.splitlines
    ]
    for body in bad_bodies:
        with pytest.raises(ValueError):
            read_packet_csv(io.StringIO(header + body))


def test_packet_csv_errors_name_the_body_row():
    header = "seq,sent_ms,delivered_ms,acked_ms,rtt_ms,dropped\n"
    first = "0,0,5,25,25,0\n"
    for row in ("1,0\n", "1,0,5,25,25,\n"):  # field count, conversion
        with pytest.raises(ValueError, match="^packet CSV row 1: "):
            read_packet_csv(io.StringIO(header + first + row))


PACKET_FIELDS = ("sent_ms", "delivered_ms", "acked_ms", "rtt_ms", "dropped")


@st.composite
def packet_logs(draw):
    """Logs of the kinds a run writes: sends in order, then each packet
    ACKed, delivered but not yet ACKed, still queued, or dropped; one
    constant ACK delay; times from zero up to about 2**40 ms. Hypothesis
    draws the shape, a seeded generator the columns."""
    n = draw(st.integers(0, 300))
    start = draw(st.sampled_from([0, 1, 2**40]))
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
        rtt_ms=np.where(acked >= 0, acked - sent, -1),
        dropped=fates == 3,
    )


def assert_same_packets(got: PacketLog, want: PacketLog) -> None:
    for field in PACKET_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


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
    assert_same_packets(back, reference_read_packet_csv(io.StringIO(text)))
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
        assert_same_packets(got, want)


@st.composite
def link_cases(draw):
    gaps = draw(st.lists(st.integers(0, 4), min_size=1, max_size=400))
    params = LinkParams(
        trace=LinkTrace(np.cumsum(gaps)),
        one_way_prop_ms=draw(st.integers(0, 40)),
        queue_capacity_pkts=draw(st.one_of(st.none(), st.integers(1, 50))),
        loss_rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3))),
        seed=draw(st.integers(0, 2**32)),
        duration_ms=draw(st.integers(1, 8000)),
    )
    return params, draw(st.sampled_from(sorted(BASELINES)))


def _run_or_error(run, params, name):
    try:
        return run(params, make_controller(name))
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
    if isinstance(want, str):
        return
    for field in PACKET_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert list(got.epochs) == list(want.epochs)
    assert got.queued_end_pkts == want.queued_end_pkts
    assert got.clamp_warnings == want.clamp_warnings


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
    recorder = _Recorder(make_controller(name))
    try:
        run(params, recorder)
    except SimulationError:
        return None
    return recorder.feedback


@settings(max_examples=200, deadline=None)
@given(link_cases())
def test_emulator_hands_the_controller_the_reference_feedback(case):
    # No log holds acked_pkts, min_delay_ms or now_ms, yet controllers
    # read them: MdiController holds on acked_pkts == 0.
    params, name = case
    got = _feedback(run_simulation, params, name)
    want = _feedback(reference_run_simulation, params, name)
    assert got == want


@pytest.mark.parametrize(
    "make, queue_pkts, loss_rate",
    [(harness.make_copa, 60, 0.01), (harness.make_verus, 20, 0.2)],
    ids=["copa-q60-1pct", "verus-q20-20pct"],
)
def test_lossy_minute_matches_the_reference_tick_loop(make, queue_pkts, loss_rate):
    # A minute of a harness trace serves over 110k packets, one loss draw
    # each, so the emulator's draws span many blocks. The copa-like link
    # is the train-copa-lossy benchmark's; the 20-packet one adds many
    # tail drops to the random ones.
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
    want = reference_run_simulation(params, make())
    assert got.delivered_pkts > 100_000
    for field in PACKET_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert list(got.epochs) == list(want.epochs)
    assert got.queued_end_pkts == want.queued_end_pkts
    assert got.clamp_warnings == want.clamp_warnings
