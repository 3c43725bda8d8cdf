"""Golden digests: the seeded corpus must keep producing the same bytes.

For each baseline bundle this hashes the trained model file, its
heatmap fingerprint (CSV and SVG), the epoch and packet CSVs of the
first held-out trace's native and model-driven runs, and the epoch CSVs
of all its model-driven held-out runs, concatenated in order, and
compares them with digests recorded from an earlier build. Those runs
drop nothing, so one more digest pins a short lossy run whose packet
CSV has both kinds of dropped row, and another pins the trace file of
the first harness trace. A refactor that is meant to keep behaviour
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
from mdi.trace import save_trace
from mdi.trainer import save_model

GOLDEN = {
    "verus-like": {
        "model": "e2ce7715fd0c65e8737d6c8895e016d3d31a84b8d1dd308feccfff43c1d7b327",
        "fingerprint": "c0d5f6407d67c7c9df9461fe5b7e8fc0778d5a439098848563fec605100e4f67",
        "native.epochs": "6d5dabf97b9df8d1abd93a2986dc9579d1c9c46d4c6071c1fe22b6f07ea07590",
        "native.packets": "7604cec79b4693f19b614599397298e3b802c993dad9b8218bff9da5eb3b23bd",
        "mdi.epochs": "bde5d6bf773a421bd4a31f009570f632897720e7687dbaaaa25d630c5301f0cc",
        "mdi.packets": "80b03cfcdfa5904d21059e6a8d7194ede175ee8d8e11ab546e4728470e7f82a7",
        "mdi.epochs.held": "51095eadc432aedcb1bcdf7098a7cac767f47038adaaa14fa6ed8662aa533d92",
    },
    "copa-like": {
        "model": "e7bff196b61032b9e7905a87123b90848fc4f80becea36789811a6125ee7b03a",
        "fingerprint": "bf43d80e5d6528555cd633a9b4eec0afb239eab68ed494e8934de702dd02c3eb",
        "native.epochs": "21a025713bb27539b6da37b79cc0a7e06709aa5c8256f58f3f5c9741e6071327",
        "native.packets": "8c66dd2876ba344d20a8d48801c71268ddf53c9ccff0a3e56edd284f13eb7073",
        "mdi.epochs": "e5d7bd254011506b15e2e931954b98d1173d3ff4f47b2eb55732bb0e3dd7eb84",
        "mdi.packets": "94666afb50251570874049b4de86ff7ce5bc30c65bdabf66b7a79a0234612ec7",
        "mdi.epochs.held": "d7fbbbf323aaef2a573ed0e25684653164a96a243892b330170d5260069a2072",
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
