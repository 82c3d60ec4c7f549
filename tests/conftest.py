import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

REPO = Path(__file__).resolve().parents[1]


def load_module(relative: str):
    """The repository's file ``relative`` (``tools/trace_diff.py``, say), loaded
    read-only as a module named after its stem, for the scripts and benchmark
    files that are not part of the package."""
    path = REPO / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def dense_svd_calls(monkeypatch) -> list:
    """Shapes of the dense SVDs that ``linalg.compute_svd`` runs during the test.

    The recorder replaces the function in every ``lowrankopt`` module that
    holds it, so a call through a name imported from ``linalg`` counts too.
    """
    from lowrankopt import linalg

    calls = []
    dense = linalg.compute_svd

    def recorded(x):
        calls.append(np.shape(x))
        return dense(x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lowrankopt" and vars(module).get("compute_svd") is dense:
            monkeypatch.setattr(module, "compute_svd", recorded)
    return calls
