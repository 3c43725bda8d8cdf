"""Golden digests: the seeded corpus must keep producing the same bytes.

For each baseline bundle this hashes the trained model file, its
heatmap fingerprint (CSV and SVG), the epoch and packet CSVs of the
first held-out trace's native and model-driven runs, and the epoch CSVs
of all its model-driven held-out runs, concatenated in order, and
compares them with digests recorded from an earlier build. Those runs
drop nothing, so two more digests pin lossy runs: the packet CSV of a
short run that has both kinds of dropped row, and a model trained on
such runs. Another pins the trace file of the first harness trace. A refactor that is meant to keep behaviour
must pass this test unchanged; a change that moves these bytes says so
and why.
"""

import hashlib
import io

import numpy as np
import pytest

import harness
from mdi.heatmap import heatmap_export
from mdi.linksim import LinkParams, run_simulation, write_epoch_csv, write_packet_csv
from mdi.pipeline import train_on_traces
from mdi.trace import SyntheticTraceSpec, gen_rapidly_changing, save_trace
from mdi.trainer import save_model

GOLDEN = {
    "verus-like": {
        "model": "a1247efbe864e5aa412c3c495ccc94eb77ecc41cc09ec8c71d9d6a5714c76ccf",
        "fingerprint": "3a3bf15a4739f31ef5786d203b866e34f33ea9ee4666f78c4cbb979ba33aa91d",
        "native.epochs": "a2a2e2362f10781bdfd658eb74e4cf0875eabd43d471ae0d3157f8486b4861f7",
        "native.packets": "9df784d4b4aeea8bcfd322c71eb1c6f58f7382bbac41b77115163177646c27ec",
        "mdi.epochs": "8feb7c035e0d5f7025ed15add2aa421f6d1ebf6fc01c29d670e03cc597d26aff",
        "mdi.packets": "6cae691132a9b2e0269570b5acdbb45a21c79ddbd05c7146a754dab22bc2b30c",
        "mdi.epochs.held": "32638d2dc75e4d4c0b133e3d0263778eb16020b9066777f5403280d3a2ef3d41",
    },
    "copa-like": {
        "model": "3713912e4d79b77b083172ab2b2973e27f5f9a06244fbd85ecfec8b073007fdb",
        "fingerprint": "aefeaec09742ecbac5076ec8a05c9e397d956aa20ba56613a5038eee8280c496",
        "native.epochs": "1c2294010090ec83c05edcf9cee86e4e819d164af1f0c9f21617cd16bccd4555",
        "native.packets": "680c6b1dc9314ed89fbddf8bd2c71de9fceae0519276adfcada9838205f5c827",
        "mdi.epochs": "883ba896558452107889e7e510a604c4a8f233973ce3739e4b3a104c9c821ff4",
        "mdi.packets": "fd3bade083a5311c49380cdc446f68a5d912600ca0960a631ebb6c69ba9b0ebf",
        "mdi.epochs.held": "e3f22b083a5785fd70e7eb5e324845ae12667c1da40bd6c1b38ec294bd46f31b",
    },
}

# The first verus-like harness trace, t00: 60 s of 2 s segments at
# 3-50 Mbps, seed 1000, as save_trace writes it.
TRACE_T00 = "b26b43ead04a4444670eed8f5b8468052a11d11c4cb9f86f2ff877f4bf417a8f"

# A copa-like sender on a 3-50 Mbps harness trace overruns a 60-packet
# queue, and 1% random loss strikes the packets that get in.
LOSSY_PACKETS = "c9871eeaffd05a8e2ffd8db15bcb74b659c5c9c4882bc377aa7fbab4811c3058"

# The model a copa-like sender trains on four 10 s traces of the
# verus-like family (seeds 1000-1003) through a 60-packet queue at 1%
# loss, the reduced train-copa-lossy bench recipe: its runs take both
# the tail-drop and the loss branches.
LOSSY_MODEL = "83422363d2bdf457bb9c7964f6075ca49c1a734fff521699f473a390a167328c"


def _sha(write, obj, binary: bool = False) -> str:
    buf = io.BytesIO() if binary else io.StringIO()
    write(obj, buf)
    data = buf.getvalue()
    return hashlib.sha256(data if binary else data.encode("utf-8")).hexdigest()


def _fingerprint(model, title: str) -> str:
    """Digest of heatmap_export's CSV then SVG, as `mdi fingerprint` renders a model."""
    csv_buf, svg_buf = io.StringIO(), io.StringIO()
    n = model.cfg.n_states
    heatmap_export(model.quadrant_rows.reshape(n, n), model.cfg, csv_buf, svg_buf, title=title)
    return hashlib.sha256((csv_buf.getvalue() + svg_buf.getvalue()).encode("utf-8")).hexdigest()


def write_held_epochs(held, sink) -> None:
    for run in held:
        write_epoch_csv(run.mdi_records, sink)


def bundle_digests(bundle) -> dict[str, str]:
    run = bundle.held[0]
    return {
        "model": _sha(save_model, bundle.model, binary=True),
        "fingerprint": _fingerprint(bundle.model, bundle.spec.label),
        "native.epochs": _sha(write_epoch_csv, run.native.epochs),
        "native.packets": _sha(write_packet_csv, run.native),
        "mdi.epochs": _sha(write_epoch_csv, run.mdi_records),
        "mdi.packets": _sha(write_packet_csv, run.mdi),
        "mdi.epochs.held": _sha(write_held_epochs, bundle.held),
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


def test_lossy_trained_model_matches_golden_digest():
    family = harness.VERUS
    traces = [
        (
            f"t{i:02d}",
            gen_rapidly_changing(
                SyntheticTraceSpec(
                    duration_s=10,
                    segment_s=family.segment_s,
                    rate_min_mbps=family.rate_min_mbps,
                    rate_max_mbps=family.rate_max_mbps,
                    seed=1000 + i,
                )
            ),
        )
        for i in range(4)
    ]
    link = {**harness.LINK, "queue_capacity_pkts": 60, "duration_ms": 10_000}
    model, _ = train_on_traces(
        traces, harness.make_copa, master_seed=harness.MASTER_SEED, loss_rate=0.01, **link
    )
    assert _sha(save_model, model, binary=True) == LOSSY_MODEL
