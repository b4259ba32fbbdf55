import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from droidflow.nn import tape  # noqa: E402

# GitHub Actions sets CI: there every property test draws a fixed sequence of
# examples, so a failing CI run reproduces locally with CI=1. A test's own
# @settings still applies on top.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def lstm_float64(monkeypatch):
    """Run the fused LSTM op in float64, for the tests that hold it to a
    float64 reference or to finite differences at float64 tolerances."""
    monkeypatch.setattr(tape, "LSTM_DTYPE", np.float64)
