"""The document reader: ``read_json`` turns each matrix document's
``entries`` into a float64 array as its object closes.

A load holds the Python floats of one matrix at a time, and reads every
value exactly as a dict document's list is read.
"""

import json
import tracemalloc

import numpy as np
import pytest

from lowrankopt.problems import load_problem
from lowrankopt.serialize import load_matrix, matrix_from_json, read_json

# JSON numbers that a float64 array could read otherwise than a list of
# them: ints, a negative zero, an int of 301 digits, exponents of both
# cases and signs, and a subnormal.
EDGE_VALUES = ["3", "-7", "0", "-0.0", str(10**300), "1.5e-7", "2E+10", "-4.25e300",
               "6.02214076e23", "1e-320"]


def matrix_text(rows, cols, values) -> str:
    return f'{{"rows": {rows}, "cols": {cols}, "entries": [{", ".join(values)}]}}'


def completion_text(rng, m, n) -> str:
    """A completion document with the edge values first in its target, and
    a mask of 0, 1, 0.0 and 1.0."""
    target = EDGE_VALUES + [repr(v) for v in rng.standard_normal(m * n - len(EDGE_VALUES)).tolist()]
    mask = rng.choice(["0", "1", "0.0", "1.0"], m * n)
    return (f'{{"type": "completion", "shape": [{m}, {n}], "payload": '
            f'{{"target": {matrix_text(m, n, target)}, "mask": {matrix_text(m, n, mask)}}}}}')


def layout(a: np.ndarray):
    return a.dtype.str, a.shape, a.tobytes()


def test_file_and_dict_documents_read_the_same_bytes(tmp_path):
    text = completion_text(np.random.default_rng(5), 6, 4)
    path = tmp_path / "problem.json"
    path.write_text(text)
    from_file, from_dict = load_problem(path), load_problem(json.loads(text))
    for name in ("target", "mask", "_offset"):
        assert layout(getattr(from_file, name)) == layout(getattr(from_dict, name)), name
    assert np.signbit(from_file.target.flat[3])


def test_load_matrix_reads_what_matrix_from_json_reads(tmp_path):
    values = EDGE_VALUES + ["0.1", "-2.5e-3"]
    text = matrix_text(3, 4, values)
    path = tmp_path / "x0.json"
    path.write_text(text)
    assert layout(load_matrix(path)) == layout(matrix_from_json(json.loads(text)))
    assert isinstance(read_json(path)["entries"], np.ndarray)


@pytest.mark.parametrize("entries", ["[1.0, true, 3.0, 4.0]", f"[1, 2, 3, {10**400}]"],
                         ids=["bool", "int-past-double"])
def test_a_list_the_rule_refuses_stays_a_list(tmp_path, entries):
    path = tmp_path / "x0.json"
    path.write_text(f'{{"rows": 2, "cols": 2, "entries": {entries}, "inner": {{"entries": [1]}}}}')
    doc = read_json(path)
    assert isinstance(doc["inner"]["entries"], np.ndarray)
    assert type(doc["entries"]) is list and doc["entries"] == json.loads(entries)


@pytest.mark.parametrize("entries", [
    np.zeros((2, 2)), np.zeros(4, dtype=np.float32), np.zeros(4, dtype=np.int64),
    np.zeros(4).view(np.ma.MaskedArray),
], ids=["2-d", "float32", "int64", "subclass"])
def test_an_array_that_is_not_1d_float64_is_refused(entries):
    with pytest.raises(ValueError, match=r"^'entries' must be an array, got "):
        matrix_from_json({"rows": 2, "cols": 2, "entries": entries})
    doc = {"type": "lowrank_approx", "shape": [2, 2],
           "payload": {"target": {"rows": 2, "cols": 2, "entries": entries}}}
    with pytest.raises(ValueError, match=r"^'entries' must be an array, got "):
        load_problem(doc)


def test_a_1d_float64_array_is_taken_as_given():
    entries = np.arange(6.0)
    x = matrix_from_json({"rows": 2, "cols": 3, "entries": entries})
    assert np.array_equal(x, entries.reshape(2, 3)) and np.shares_memory(x, entries)


def test_completion_load_peaks_below_text_plus_one_list_and_three_arrays(tmp_path):
    # The text, one matrix's list of Python floats (8 B a pointer and 24 B
    # a float; the mask's 0.0 and 1.0 are floats too) and at most three
    # m x n float64 arrays. A parse into lists holds both lists at once,
    # 32 B an entry more than one, and fails this bound.
    m, n = 300, 250
    rng = np.random.default_rng(26)
    target = rng.standard_normal(m * n).tolist()
    mask = (rng.random(m * n) < 0.6).astype(float).tolist()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "completion", "shape": [m, n], "payload": {
        "target": {"rows": m, "cols": n, "entries": target},
        "mask": {"rows": m, "cols": n, "entries": mask}}}))
    del target, mask
    bound = path.stat().st_size + 32 * m * n + 3 * 8 * m * n
    tracemalloc.start()
    try:
        load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
