"""Lossless text codecs for matrices: CSV, and the JSON matrix document
``{"rows": m, "cols": n, "entries": [row-major]}`` that problem and x0
files use. Floats are printed with 17 significant digits, which
round-trips every finite double exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .linalg import as_matrix


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def matrix_to_csv(x) -> str:
    a = as_matrix(x)
    return "\n".join(",".join(_fmt(v) for v in row) for row in a) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [
        [float(cell) for cell in line.split(",")]
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
    if not isinstance(obj, dict):
        raise ValueError("matrix document must be a JSON object")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = np.asarray(obj["entries"], dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if entries.size != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {entries.size}")
    return as_matrix(entries.reshape(rows, cols))


def save_matrix(x, path) -> None:
    """Write a matrix as CSV (``.csv``) or JSON (anything else)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(matrix_to_csv(x), encoding="utf-8")
    else:
        path.write_text(json.dumps(matrix_to_json(x)), encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".csv":
        return matrix_from_csv(text)
    return matrix_from_json(json.loads(text))
