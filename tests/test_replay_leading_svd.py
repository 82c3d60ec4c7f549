"""``tools/replay_leading_svd.py`` replays recorded leading-triplet SVDs.

The tool is loaded by path, as ``tests/test_trace_diff.py`` loads its
tool, with ``tools/`` on the import path for the loader it shares with
``tools/trace_digest.py``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from test_linalg import graded

from lowrankopt import linalg

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def replay_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    path = TOOLS / "replay_leading_svd.py"
    spec = importlib.util.spec_from_file_location("replay_leading_svd", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qr_calls(monkeypatch, a, k) -> int:
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", counted)
        linalg._leading_svd(a, k)
    return len(calls)


def test_replays_a_graded_and_a_flat_block(replay_tool, monkeypatch, capsys):
    graded_block = graded(np.random.default_rng(22), 200, 160, 0.7 ** np.arange(160))
    flat_block = graded(np.random.default_rng(21), 200, 170, np.linspace(1.0, 0.9, 170))
    sweeps = qr_calls(monkeypatch, graded_block, 4)
    flat_sweeps = qr_calls(monkeypatch, flat_block, 3)
    assert sweeps > 1 and flat_sweeps >= 1
    replay_tool.replay([(graded_block, 4), (flat_block, 3)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(f"0 shape=200x160 k=4 sweeps={sweeps} fallback=no best_s=")
    assert lines[1].startswith(f"1 shape=200x170 k=3 sweeps={flat_sweeps} fallback=yes best_s=")
    assert lines[2].startswith(
        f"total calls=2 sweeps={sweeps + flat_sweeps} fallbacks=1 best_s="
    )
    times = [float(line.rsplit("best_s=", 1)[1]) for line in lines]
    assert all(t > 0 for t in times) and times[2] == pytest.approx(times[0] + times[1], abs=2e-6)


def test_records_a_tiny_workload_solve(replay_tool, capsys):
    # The zero start's SVD of G is the only call; at 60x50 it is below the
    # size cutoff, so it is dense, with no sweep.
    assert replay_tool.main(["--workload", "mc-dense", "--size", "tiny", "--seed", "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("0 shape=60x50 k=3 sweeps=0 fallback=yes best_s=")
    assert lines[1].startswith("total calls=1 sweeps=0 fallbacks=1 best_s=")
