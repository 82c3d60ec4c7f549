"""``tools/probe.py`` probes one workload: ``point`` times the evaluation
of a solve's final point, ``faults`` times direct solves and counts their
page faults, and ``svd`` replays recorded leading-triplet SVDs.

The tool is loaded by path, with ``tools/`` on the import path for the
loader it shares with ``tools/trace_digest.py``.
"""

import re

import numpy as np
import pytest
from conftest import REPO, load_module
from test_linalg import graded

from lowrankopt import linalg

SOLVE = re.compile(r"solve workload=(\S+) size=tiny seed=101 shape=\d+x\d+ rank=\d+ "
                   r"iters=\d+ termination=stationary")
TIMING = re.compile(r"(matrix|gradient|evaluate|gradient\+measure|step) best_ms=(\S+)")
FAULTS = re.compile(r"(\d+|median) wall_s=(\S+) minflt=([\d.]+) peak_mb=(\S+)")


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "tools"))
    return load_module("tools/probe.py")


# A residual cost takes ResidualCost.evaluate, and its gradient of the point
# is timed; the polynomial takes the generic evaluate.
@pytest.mark.parametrize("workload, names", [
    ("mc-dense", ["matrix", "gradient", "evaluate", "gradient+measure", "step"]),
    ("poly-desk", ["matrix", "evaluate", "gradient+measure", "step"]),
], ids=["mc-dense", "poly-desk"])
def test_point_times_a_tiny_workload(probe, capsys, workload, names):
    argv = ["point", "--workload", workload, "--size", "tiny", "--repeats", "3"]
    assert probe.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(names), lines
    solve = SOLVE.fullmatch(lines[0])
    assert solve and solve.group(1) == workload, lines[0]
    timings = [TIMING.fullmatch(line) for line in lines[1:]]
    assert all(timings), lines
    assert [t.group(1) for t in timings] == names
    assert all(float(t.group(2)) > 0 for t in timings)


def test_faults_solves_a_tiny_workload(probe, capsys):
    assert probe.main(["faults", "--workload", "mc-dense", "--size", "tiny", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    matches = [FAULTS.fullmatch(line) for line in lines]
    assert len(lines) == 3 and all(matches), lines
    assert [m.group(1) for m in matches] == ["0", "1", "median"]
    for m in matches:
        assert float(m.group(2)) > 0 and float(m.group(4)) > 0
    # Each solve of one instance allocates the same buffers.
    assert matches[0].group(4) == matches[1].group(4) == matches[2].group(4)


@pytest.mark.parametrize("subcommand", ["point", "faults", "svd"])
def test_rejects_no_repeats(probe, subcommand):
    with pytest.raises(SystemExit):
        probe.main([subcommand, "--size", "tiny", "--repeats", "0"])


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


def test_svd_replays_a_graded_and_a_flat_block(probe, monkeypatch, capsys):
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
    probe.replay([(graded_block, 4), (flat_block, 3)], 3)
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


def test_svd_records_a_tiny_workload_solve(probe, capsys):
    # The zero start's SVD of G is the only call; at 60x50 it is below the
    # size cutoff, so it is dense, with no sweep and no column-product.
    argv = ["svd", "--workload", "mc-dense", "--size", "tiny", "--seed", "101"]
    assert probe.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        "0 shape=60x50 k=3 sweeps=0 width=0 col_products=0 fallback=yes best_s="
    )
    assert lines[1].startswith(
        "total calls=1 sweeps=0 width=0 col_products=0 fallbacks=1 best_s="
    )
