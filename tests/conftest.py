import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from droidflow.nn import tape  # noqa: E402


@pytest.fixture
def lstm_float64(monkeypatch):
    """Run the fused LSTM op in float64, for the tests that hold it to a
    float64 reference or to finite differences at float64 tolerances."""
    monkeypatch.setattr(tape, "LSTM_DTYPE", np.float64)
