"""``tools/point_eval_timing.py`` times the evaluation of a solve's final point.

The tool is loaded by path, with ``tools/`` on the import path for the
loader it shares with ``tools/trace_digest.py``.
"""

import importlib.util
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SOLVE = re.compile(r"solve workload=(\S+) size=tiny seed=101 shape=\d+x\d+ rank=\d+ "
                   r"iters=\d+ termination=stationary")
TIMING = re.compile(r"(matrix|evaluate|gradient\+measure|step) best_ms=(\S+)")


@pytest.fixture
def timing_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    path = TOOLS / "point_eval_timing.py"
    spec = importlib.util.spec_from_file_location("point_eval_timing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A residual cost takes ResidualCost.evaluate; the polynomial the generic one.
@pytest.mark.parametrize("workload", ["mc-dense", "poly-desk"])
def test_times_a_tiny_workload(timing_tool, capsys, workload):
    argv = ["--workload", workload, "--size", "tiny", "--repeats", "3"]
    assert timing_tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5, lines
    solve = SOLVE.fullmatch(lines[0])
    assert solve and solve.group(1) == workload, lines[0]
    timings = [TIMING.fullmatch(line) for line in lines[1:]]
    assert all(timings), lines
    assert [t.group(1) for t in timings] == ["matrix", "evaluate", "gradient+measure", "step"]
    assert all(float(t.group(2)) > 0 for t in timings)


def test_rejects_no_repeats(timing_tool):
    with pytest.raises(SystemExit):
        timing_tool.main(["--size", "tiny", "--repeats", "0"])
