"""``tools/trace_diff.py`` compares two directories of trace CSVs.

The tool is loaded by path, as ``tests/test_bench_lookups.py`` loads the
benchmark's tracer, and run through its ``main`` on small hand-written
traces.
"""

import pytest
from conftest import load_module

HEADER = "iter,f,s,rank,delta_rank,chosen_j,alpha,candidates\n"
BEFORE = HEADER + "0,4,2,1,1,0,1,1\n1,1,0.5,2,1,1,0.5,2\n"


@pytest.fixture
def run(tmp_path, capsys):
    """Write ``before`` and ``after`` (None: no such file) as ``t.csv``, run
    the tool on them with ``options`` and return the exit status and the
    printed report."""
    trace_diff = load_module("tools/trace_diff.py")

    def compare(before: str, after: str | None, *options: str) -> tuple[int, str]:
        for name, text in (("before", before), ("after", after)):
            (tmp_path / name).mkdir()
            if text is not None:
                (tmp_path / name / "t.csv").write_text(text, encoding="utf-8")
        code = trace_diff.main([*options, str(tmp_path / "before"), str(tmp_path / "after")])
        return code, capsys.readouterr().out

    return compare


def test_identical(run):
    assert run(BEFORE, BEFORE) == (0, "t: identical\n")


def test_structural_identical_reports_largest_relative_difference(run):
    # f: 4 -> 5 is 0.2 relative and 1 -> 1.1 is 0.09; alpha: 0.5 -> 0.25 is 0.5.
    after = HEADER + "0,5,2,1,1,0,1,1\n1,1.1,0.5,2,1,1,0.25,2\n"
    code, out = run(BEFORE, after)
    assert code == 0
    assert out == ("t: structural identical, max relative difference "
                   "f=2.00e-01 s=0.00e+00 alpha=5.00e-01\n")


@pytest.mark.parametrize("rtol, code, tail", [
    ("0.5", 0, ""),
    ("0.3", 1, ", above rtol 3.00e-01: alpha"),
    ("1e-9", 1, ", above rtol 1.00e-09: f alpha"),
])
def test_rtol_bounds_the_value_differences(run, rtol, code, tail):
    # f differs by 0.2 and alpha by 0.5 relative; a difference equal to rtol passes.
    after = HEADER + "0,5,2,1,1,0,1,1\n1,1.1,0.5,2,1,1,0.25,2\n"
    assert run(BEFORE, after, "--rtol", rtol) == (
        code,
        "t: structural identical, max relative difference "
        f"f=2.00e-01 s=0.00e+00 alpha=5.00e-01{tail}\n",
    )


def test_rtol_passes_identical_traces(run):
    assert run(BEFORE, BEFORE, "--rtol", "0") == (0, "t: identical\n")


def test_rtol_does_not_excuse_a_structural_change(run):
    after = HEADER + "0,4,2,1,1,0,1,1\n1,1,0.5,1,1,1,0.5,2\n"
    assert run(BEFORE, after, "--rtol", "1") == (1, "t: structural columns differ: rank\n")


def test_changed_structural_column(run):
    after = HEADER + "0,4,2,1,1,0,1,1\n1,1,0.5,1,1,1,0.5,2\n"
    assert run(BEFORE, after) == (1, "t: structural columns differ: rank\n")


def test_different_row_counts(run):
    after = BEFORE + "2,0.5,0.1,1,1,0,1,1\n"
    code, out = run(BEFORE, after)
    assert code == 1
    assert out == ("t: structural columns differ: iter rank delta_rank chosen_j candidates "
                   "(rows 2 vs 3)\n")


def test_missing_file_exits_1(run):
    assert run(BEFORE, None) == (1, "t: missing\n")
