"""Golden digests: the seeded corpus must keep producing the same bytes.

For each baseline bundle this hashes the trained model file and the
epoch and packet CSVs of the first held-out trace's native and
model-driven runs, and compares them with digests recorded from an
earlier build. A refactor that is meant to keep behaviour must pass this
test unchanged; a change that moves these bytes says so and why.
"""

import hashlib
import io

import pytest

from mdi.linksim import write_epoch_csv, write_packet_csv
from mdi.trainer import save_model

GOLDEN = {
    "verus-like": {
        "model": "72e3e7f49d88a170246e382072d35aaee0b5b53bd2b9899597c7690332cd7ffc",
        "native.epochs": "ad0087ab39dd2bc2733507de5935ccaecf47aec64dca5e860f69a8bf572c2e36",
        "native.packets": "5a23ad01b1e12706c18b8a22b084e3f00be386c95dd318112a9a3ed75c3535d1",
        "mdi.epochs": "f124898481b88a3384edcd552e9be7e1141de2f7ec0d88b586ec5fd52652451d",
        "mdi.packets": "54b4b8319d494e71079ae65c742ae132bb1ed3fe03638e302a0263587c0b6617",
    },
    "copa-like": {
        "model": "8d90c73c496262da26a9f94af6a712b090ee9f0e260e26eb0c42becda765ec5e",
        "native.epochs": "0c182165023877dc3f72cfca9f5a47b13443b89521223a1a44c9933ff91beaef",
        "native.packets": "b30723b82c3907b13f1cad9a227c0fd440defd140ffdc80a6b8295b219063c9e",
        "mdi.epochs": "ec9fa96620c59ffff264a6101ac44c5e94f439e2b469e05904e5c94e6a76635f",
        "mdi.packets": "b04304bbd912bc95f8324e8e68e2af203600db28652abcbbe9797e2ca5975d49",
    },
}


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
