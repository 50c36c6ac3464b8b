import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# the numpy whose rounding every bit pin (the trialbench check digests,
# TestBitPin, TestPlacementPin, TestChannelPin, the sweep CSV pin) was
# recorded with; another numpy need not reproduce those bits
PINNED_NUMPY = "2.4.6"

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


def pytest_report_header(config):
    return f"numpy {np.__version__} (bit pins recorded with numpy {PINNED_NUMPY})"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pin_note():
    """A bit pin's failure message: the numpy it was recorded with and the running one."""
    return f"bit pin recorded with numpy {PINNED_NUMPY}, running numpy {np.__version__}"
