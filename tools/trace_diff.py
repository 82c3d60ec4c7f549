"""Compare two directories of trace CSVs written by ``trace_digest.py --save``.

Prints one line per trace of the first directory:

- ``identical`` when the two files are byte-identical;
- ``structural identical`` when every structural column (iter, rank,
  delta_rank, chosen_j, candidates) and the row count agree, followed by
  the largest relative difference in f, s and alpha over all rows;
- otherwise the structural columns that differ (and the row counts, if
  they do), or ``missing`` when the second directory has no such trace.

    PYTHONPATH=/path/to/parent/src python3 tools/trace_digest.py --save before > /dev/null
    PYTHONPATH=src python3 tools/trace_digest.py --save after > /dev/null
    python3 tools/trace_diff.py before after

A relative difference is ``|a - b| / max(|a|, |b|)``, and 0 when both
values are 0. With ``--rtol TOL`` a structurally identical line whose
largest f, s or alpha difference exceeds TOL ends with ``above rtol`` and
the columns that do. The exit status is 0 when every trace is at least
structurally identical and, with ``--rtol``, within TOL, and 1 otherwise:

    python3 tools/trace_diff.py --rtol 2e-9 before after
"""

from __future__ import annotations

import argparse
import csv
import io
import math
from pathlib import Path

STRUCTURAL = ("iter", "rank", "delta_rank", "chosen_j", "candidates")
VALUES = ("f", "s", "alpha")


def read_columns(text: str) -> dict[str, list[str]]:
    header, *rows = csv.reader(io.StringIO(text))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def relative_difference(a: list[str], b: list[str]) -> float:
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(before: str, after: str, rtol: float = math.inf) -> tuple[bool, str]:
    """(structurally identical with every f, s and alpha difference within
    ``rtol``, the report line's verdict) for two CSV texts."""
    if before == after:
        return True, "identical"
    a, b = read_columns(before), read_columns(after)
    differ = [name for name in STRUCTURAL if a.get(name) != b.get(name)]
    if differ:
        rows = len(a.get("iter", [])), len(b.get("iter", []))
        counts = f" (rows {rows[0]} vs {rows[1]})" if rows[0] != rows[1] else ""
        return False, f"structural columns differ: {' '.join(differ)}{counts}"
    worst = {name: relative_difference(a[name], b[name]) for name in VALUES}
    verdict = "structural identical, max relative difference " + " ".join(
        f"{name}={value:.2e}" for name, value in worst.items()
    )
    above = [name for name, value in worst.items() if value > rtol]
    if above:
        return False, f"{verdict}, above rtol {rtol:.2e}: {' '.join(above)}"
    return True, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--rtol", type=float, default=math.inf,
                        help="largest relative f, s or alpha difference that passes")
    args = parser.parse_args(argv)
    ok = True
    for path in sorted(args.before.glob("*.csv")):
        other = args.after / path.name
        if not other.exists():
            ok = False
            print(f"{path.stem}: missing", flush=True)
            continue
        passed, verdict = compare(path.read_text(encoding="utf-8"),
                                  other.read_text(encoding="utf-8"), args.rtol)
        ok = ok and passed
        print(f"{path.stem}: {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
