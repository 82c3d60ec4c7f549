"""``tools/solve_faults.py`` times direct solves and counts their page faults.

The tool is loaded by path, with ``tools/`` on the import path for the
loader it shares with ``tools/trace_digest.py``.
"""

import importlib.util
import re
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
LINE = re.compile(r"(\d+|median) wall_s=(\S+) minflt=([\d.]+) peak_mb=(\S+)")


@pytest.fixture
def faults_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    path = TOOLS / "solve_faults.py"
    spec = importlib.util.spec_from_file_location("solve_faults", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solves_a_tiny_workload(faults_tool, capsys):
    assert faults_tool.main(["--workload", "mc-dense", "--size", "tiny", "--solves", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    matches = [LINE.fullmatch(line) for line in lines]
    assert len(lines) == 3 and all(matches), lines
    assert [m.group(1) for m in matches] == ["0", "1", "median"]
    for m in matches:
        assert float(m.group(2)) > 0 and float(m.group(4)) > 0
    # Each solve of one instance allocates the same buffers.
    assert matches[0].group(4) == matches[1].group(4) == matches[2].group(4)


def test_rejects_no_solves(faults_tool):
    with pytest.raises(SystemExit):
        faults_tool.main(["--size", "tiny", "--solves", "0"])
