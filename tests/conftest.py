import sys
from pathlib import Path

import numpy as np
import pytest

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def dense_svd_calls(monkeypatch) -> list:
    """Shapes of the dense SVDs that ``linalg.compute_svd`` runs during the test."""
    from lowrankopt import linalg

    calls = []
    dense = linalg.compute_svd

    def recorded(x):
        calls.append(np.shape(x))
        return dense(x)

    monkeypatch.setattr(linalg, "compute_svd", recorded)
    return calls
