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
        "model": "557dd7dd8fdc138038e35d9c1d49e72ac2029fbc5652e4b172a8deb62aa7e625",
        "native.epochs": "6d5dabf97b9df8d1abd93a2986dc9579d1c9c46d4c6071c1fe22b6f07ea07590",
        "native.packets": "7604cec79b4693f19b614599397298e3b802c993dad9b8218bff9da5eb3b23bd",
        "mdi.epochs": "95a69a9994bc9bb732e5c2e583f5d9b40bec93d9f33a184eadbde66fee784cc9",
        "mdi.packets": "356402f3fad5bd1fafc89fe1af7130ea58a26268526e4f05f3ced63e938407e3",
    },
    "copa-like": {
        "model": "8d90c73c496262da26a9f94af6a712b090ee9f0e260e26eb0c42becda765ec5e",
        "native.epochs": "21a025713bb27539b6da37b79cc0a7e06709aa5c8256f58f3f5c9741e6071327",
        "native.packets": "8c66dd2876ba344d20a8d48801c71268ddf53c9ccff0a3e56edd284f13eb7073",
        "mdi.epochs": "8f28930cf7221dfa73cb9be9e16dce5bc94a1a8611b8c564206c2f048faef9db",
        "mdi.packets": "3dd8e9fcc40b7332e4d5a0e963cbc2f60242dfab1bc30593180eec789edfca2a",
    },
}

# The first verus-like harness trace, t00: 60 s of 2 s segments at
# 3-50 Mbps, seed 1000, as save_trace writes it.
TRACE_T00 = "253674df13822b741df1f21cba4192d60c4a1171e8d8284ce375bb8521e49b48"

# A copa-like sender on a 3-50 Mbps harness trace overruns a 60-packet
# queue, and 1% random loss strikes the packets that get in.
LOSSY_PACKETS = "5108efcf8dd0433962e0a138c246589fc061baf7ad28208ae8c73e16e9b2d1c7"


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
