"""Lossless text codecs for matrices: CSV, and the JSON matrix document
``{"rows": m, "cols": n, "entries": [row-major]}`` that problem and x0
files use. Floats are printed with 17 significant digits, which
round-trips every finite double exactly. Every JSON document the program
reads takes its objects, arrays and numbers through :func:`json_object`,
:func:`json_array` and :func:`~lowrankopt.linalg.json_number`. :func:`read_json` turns each
``entries`` array of numbers into a float64 array as its object closes, so
a document load holds the Python floats of one matrix at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import as_matrix, json_number


def json_object(where: str, value, keys, required) -> dict:
    """``value``, the JSON object ``where``, holding only ``keys`` and every one of ``required``.

    Every JSON object the program reads is checked here: run configs,
    problem documents, their payloads, polynomial terms and matrix
    documents. A value that is not an object, a key outside ``keys`` (each
    is named) or a missing required key (the first is named) raises
    ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(map(str, value.keys() - keys))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(map(repr, unknown))}")
    missing = next((key for key in required if key not in value), None)
    if missing is not None:
        raise ValueError(f"malformed {where}: missing key {missing!r}")
    return value


def json_array(key: str, value) -> list | tuple:
    """``value``, given for ``key``, which must be an array: a JSON array,
    or a list or tuple from Python."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key!r} must be an array, got {value!r:.40}")
    return value


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def matrix_to_csv(x) -> str:
    a = as_matrix(x)
    return "\n".join(",".join(_fmt(v) for v in row) for row in a) + "\n"


def _csv_cell(cell: str) -> float:
    """A CSV cell as ``float()`` reads an ASCII one without digit-group
    underscores: a decimal number, or a NaN or Inf for ``as_matrix`` to
    refuse. Anything else raises ``float()``'s own ValueError."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [
        [_csv_cell(cell) for cell in line.split(",")]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    if not rows:
        raise ValueError("empty CSV matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged CSV matrix: row widths {sorted(widths)}")
    return as_matrix(np.array(rows))


def matrix_to_json(x) -> dict:
    a = as_matrix(x)
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": a.ravel().tolist()}


def matrix_from_json(obj) -> np.ndarray:
    keys = ("rows", "cols", "entries")
    doc = json_object("matrix document", obj, keys, keys)
    rows, cols = (json_number(key, doc[key], integer=True) for key in ("rows", "cols"))
    if rows < 1 or cols < 1:
        raise ValueError(f"'rows' and 'cols' must be positive, got {rows} and {cols}")
    entries = _entries(doc["entries"])
    if entries.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {entries.size}")
    return as_matrix(entries.reshape(rows, cols))


def _entries(values) -> np.ndarray:
    """The ``entries`` of a matrix document: a JSON array of numbers that fit a
    double, or the 1-D float64 array that :func:`read_json` makes of one (an
    array is taken as given, not copied; any other array is refused)."""
    if type(values) is np.ndarray and values.ndim == 1 and values.dtype == np.float64:
        return values
    array = _float_array(json_array("entries", values))
    if array is not None:
        return array
    for value in values:
        if type(value) not in (int, float):
            raise ValueError(f"'entries' must be an array of numbers, got {value!r:.40}")
    raise ValueError("'entries' must be numbers that fit a double")


def _float_array(values) -> np.ndarray | None:
    """The float64 array of ``values``, a list of numbers that fit a double, or None."""
    # Exact types: a bool is an int subclass, and JSON gives no other number types.
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        return None
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        return None


def _entries_to_array(obj: dict) -> dict:
    """``read_json``'s object hook: a JSON object's ``entries`` list of numbers
    becomes its float64 array as soon as the object closes, so the Python
    floats of one matrix are freed before the next matrix is parsed. Any
    other value stays as parsed, for :func:`matrix_from_json` to name."""
    array = _float_array(obj.get("entries"))
    if array is not None:
        obj["entries"] = array
    return obj


def save_matrix(x, path) -> None:
    """Write a matrix as CSV (``.csv``) or JSON (anything else)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(matrix_to_csv(x), encoding="utf-8")
    else:
        path.write_text(json.dumps(matrix_to_json(x)), encoding="utf-8")


def read_json(path):
    """The JSON document in the file ``path``; a decode or parse error names the file.

    Each object's ``entries`` array of numbers that fit a double is read as a
    1-D float64 ndarray (see :func:`matrix_from_json`)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=_entries_to_array)
    except ValueError as exc:  # not UTF-8, a JSONDecodeError, or an integer past the digit limit
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """The matrix in the file ``path``, CSV (``.csv``) or JSON; a bad CSV names the file."""
    path = Path(path)
    if path.suffix.lower() != ".csv":
        return matrix_from_json(read_json(path))
    try:
        return matrix_from_csv(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"malformed CSV in {path}: {exc}") from exc
