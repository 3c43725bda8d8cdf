import pytest
from hypothesis import settings

import harness

# Every run draws the same examples, so tier-1 results do not depend on luck.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def verus_bundle():
    """Trained verus-like model plus held-out native/model run pairs.

    Built once per session; training 50 runs takes around ten seconds.
    """
    return harness.build_bundle(harness.VERUS)


@pytest.fixture(scope="session")
def copa_bundle():
    """Trained copa-like model plus held-out native/model run pairs."""
    return harness.build_bundle(harness.COPA)
