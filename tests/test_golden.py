"""Golden digests: the seeded corpus must keep producing the same bytes.

For each baseline bundle this hashes the trained model file and the
epoch and packet CSVs of the first held-out trace's native and
model-driven runs, and compares them with digests recorded from an
earlier build. Those runs drop nothing, so one more digest pins a short
lossy run whose packet CSV has both kinds of dropped row, and another
pins the trace file of the first harness trace. A refactor
that is meant to keep behaviour must pass this test unchanged; a change
that moves these bytes says so and why.
"""

import hashlib
import io

import numpy as np
import pytest

import harness
from mdi.linksim import LinkParams, run_simulation, write_epoch_csv, write_packet_csv
from mdi.trace import save_trace
from mdi.trainer import save_model

GOLDEN = {
    "verus-like": {
        "model": "72e3e7f49d88a170246e382072d35aaee0b5b53bd2b9899597c7690332cd7ffc",
        "native.epochs": "b0402ffe4fbff8f3a126ffc5af5b8a4d8194f98a32fd392b8b81a2040ab50648",
        "native.packets": "5a23ad01b1e12706c18b8a22b084e3f00be386c95dd318112a9a3ed75c3535d1",
        "mdi.epochs": "e686c9aa8ece2edfbb263dbf11b200262e33fda1df6cdb173d2657b71bd3c609",
        "mdi.packets": "54b4b8319d494e71079ae65c742ae132bb1ed3fe03638e302a0263587c0b6617",
    },
    "copa-like": {
        "model": "8d90c73c496262da26a9f94af6a712b090ee9f0e260e26eb0c42becda765ec5e",
        "native.epochs": "ffeea03a4d82a45ad892a14967053b1d8e67b0a81b107468596470aa5dbaa909",
        "native.packets": "b30723b82c3907b13f1cad9a227c0fd440defd140ffdc80a6b8295b219063c9e",
        "mdi.epochs": "8d0c8760a56ff953e53ac0a8492759351aa3dde04cb756419494a89a0853788d",
        "mdi.packets": "b04304bbd912bc95f8324e8e68e2af203600db28652abcbbe9797e2ca5975d49",
    },
}

# The first verus-like harness trace, t00: 60 s of 2 s segments at
# 3-50 Mbps, seed 1000, as save_trace writes it.
TRACE_T00 = "253674df13822b741df1f21cba4192d60c4a1171e8d8284ce375bb8521e49b48"

# A copa-like sender on a 3-50 Mbps harness trace overruns a 60-packet
# queue, and 1% random loss strikes the packets that get in.
LOSSY_PACKETS = "6c85eac86d863030951da4dd9455373d7f75cc2e8a6265ecccf37606efaed881"


def _sha(write, obj, binary: bool = False) -> str:
    buf = io.BytesIO() if binary else io.StringIO()
    write(obj, buf)
    data = buf.getvalue()
    return hashlib.sha256(data if binary else data.encode("utf-8")).hexdigest()


def bundle_digests(bundle) -> dict[str, str]:
    run = bundle.held[0]
    return {
        "model": _sha(save_model, bundle.model, binary=True),
        "native.epochs": _sha(write_epoch_csv, run.native.epochs),
        "native.packets": _sha(write_packet_csv, run.native),
        "mdi.epochs": _sha(write_epoch_csv, run.mdi_records),
        "mdi.packets": _sha(write_packet_csv, run.mdi),
    }


@pytest.mark.parametrize("bundle_name", ["verus_bundle", "copa_bundle"])
def test_seeded_outputs_match_golden_digests(bundle_name, request):
    bundle = request.getfixturevalue(bundle_name)
    assert bundle_digests(bundle) == GOLDEN[bundle.spec.label]


def test_harness_trace_file_matches_golden_digest():
    _, trace = harness.build_traces(harness.VERUS, 1)[0]
    assert _sha(save_trace, trace, binary=True) == TRACE_T00


def test_lossy_run_packet_csv_matches_golden_digest():
    _, trace = harness.build_traces(harness.VERUS, 1)[0]
    link = {**harness.LINK, "queue_capacity_pkts": 60, "duration_ms": 10_000}
    params = LinkParams(trace=trace, loss_rate=0.01, seed=harness.MASTER_SEED, **link)
    run = run_simulation(params, harness.make_copa())
    # A tail drop ends its tick's sends, so a dropped packet with a later
    # one sent in the same tick is a random loss. Loss is drawn once per
    # queued packet in service order, so drops beyond the draws that
    # struck among the first sent_pkts are tail drops.
    same_tick_next = np.append(run.sent_ms[1:] == run.sent_ms[:-1], False)
    assert np.count_nonzero(run.dropped & same_tick_next) > 0
    draws = np.random.default_rng(params.seed).random(run.sent_pkts)
    assert run.dropped_pkts > np.count_nonzero(draws < params.loss_rate)
    assert _sha(write_packet_csv, run) == LOSSY_PACKETS
