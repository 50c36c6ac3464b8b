import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# the numpy whose rounding every bit pin (the trialbench check digests,
# TestBitPin, TestPlacementPin, TestChannelPin, the sweep CSV pin) was
# recorded with; another numpy need not reproduce those bits, and neither
# need a CPU on which numpy dispatches the LoS field's exp, hypot and
# arctan2 to other SIMD loops
PINNED_NUMPY = "2.4.6"


def _simd_extensions() -> str:
    """numpy's SIMD extensions on this CPU. numpy picks its exp, hypot and
    arctan2 loops by them, and those loops give the LoS field's bits."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):  # a numpy without the dicts mode
        return "SIMD extensions unknown"
    return f"SIMD baseline {' '.join(simd['baseline'])}, found {' '.join(simd['found'])}"


SIMD = _simd_extensions()

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    # a failure replayed from a local .hypothesis database prints its
    # @reproduce_failure line, so it can be replayed in a fresh clone
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


def pytest_report_header(config):
    return f"numpy {np.__version__}, {SIMD} (bit pins recorded with numpy {PINNED_NUMPY})"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pin_note():
    """A bit pin's failure message: the numpy it was recorded with, the
    running one and the CPU's SIMD extensions."""
    return f"bit pin recorded with numpy {PINNED_NUMPY}, running numpy {np.__version__} ({SIMD})"
