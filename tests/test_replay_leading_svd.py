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


def sweep_widths(monkeypatch, a, k) -> tuple[list[int], list[int]]:
    """The block width of each QR and of each Chebyshev filter in one ``_leading_svd``."""
    qr_widths, filter_widths = [], []
    qr, chebyshev_filter = np.linalg.qr, linalg._chebyshev_filter

    def counted_qr(x, *args, **kwargs):
        qr_widths.append(x.shape[1])
        return qr(x, *args, **kwargs)

    def counted_filter(a, v, *args):
        filter_widths.append(v.shape[1])
        return chebyshev_filter(a, v, *args)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", counted_qr)
        patch.setattr(linalg, "_chebyshev_filter", counted_filter)
        linalg._leading_svd(a, k)
    return qr_widths, filter_widths


def test_replays_a_graded_and_a_flat_block(replay_tool, monkeypatch, capsys):
    graded_block = graded(np.random.default_rng(22), 200, 160, 0.7 ** np.arange(160))
    flat_block = graded(np.random.default_rng(21), 200, 170, np.linspace(1.0, 0.9, 170))
    widths, filters = sweep_widths(monkeypatch, graded_block, 4)
    flat_widths, flat_filters = sweep_widths(monkeypatch, flat_block, 3)
    sweeps, flat_sweeps = len(widths), len(flat_widths)
    assert sweeps > 1 and flat_sweeps >= 1
    # The start block, Q^T a and a V at each sweep, and 2 * degree products per filter.
    degree = linalg.LEADING_FILTER_DEGREE
    col_products = widths[0] + 2 * sum(widths) + 2 * degree * sum(filters)
    flat_col_products = flat_widths[0] + 2 * sum(flat_widths) + 2 * degree * sum(flat_filters)
    assert widths[0] == 14 and flat_widths[0] == 13
    replay_tool.replay([(graded_block, 4), (flat_block, 3)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(
        f"0 shape=200x160 k=4 sweeps={sweeps} width={widths[-1]} "
        f"col_products={col_products} fallback=no best_s="
    )
    assert lines[1].startswith(
        f"1 shape=200x170 k=3 sweeps={flat_sweeps} width={flat_widths[-1]} "
        f"col_products={flat_col_products} fallback=yes best_s="
    )
    assert lines[2].startswith(
        f"total calls=2 sweeps={sweeps + flat_sweeps} width={widths[-1] + flat_widths[-1]} "
        f"col_products={col_products + flat_col_products} fallbacks=1 best_s="
    )
    times = [float(line.rsplit("best_s=", 1)[1]) for line in lines]
    assert all(t > 0 for t in times) and times[2] == pytest.approx(times[0] + times[1], abs=2e-6)


def test_records_a_tiny_workload_solve(replay_tool, capsys):
    # The zero start's SVD of G is the only call; at 60x50 it is below the
    # size cutoff, so it is dense, with no sweep and no column-product.
    assert replay_tool.main(["--workload", "mc-dense", "--size", "tiny", "--seed", "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        "0 shape=60x50 k=3 sweeps=0 width=0 col_products=0 fallback=yes best_s="
    )
    assert lines[1].startswith(
        "total calls=1 sweeps=0 width=0 col_products=0 fallbacks=1 best_s="
    )
