import numpy as np
import pytest

from lowrankopt.serialize import (
    json_number,
    load_matrix,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    save_matrix,
)


def awkward_matrix():
    # values that expose any lossy float formatting
    return np.array(
        [
            [0.1, 1.0 / 3.0, -0.0, 1e-300],
            [np.pi, 1e308, 5e-324, -7.123456789012345e-17],
        ]
    )


def test_csv_roundtrip_bit_exact():
    x = awkward_matrix()
    y = matrix_from_csv(matrix_to_csv(x))
    assert np.array_equal(x, y)
    assert np.signbit(y[0, 2])


def test_csv_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
        assert np.array_equal(matrix_from_csv(matrix_to_csv(x)), x)


def test_csv_rejects_ragged():
    with pytest.raises(ValueError, match="ragged"):
        matrix_from_csv("1,2\n3\n")


def test_csv_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        matrix_from_csv("\n")


def test_json_roundtrip_bit_exact():
    x = awkward_matrix()
    obj = matrix_to_json(x)
    assert obj["rows"] == 2 and obj["cols"] == 4
    assert np.array_equal(matrix_from_json(obj), x)


def test_json_rejects_wrong_count():
    with pytest.raises(ValueError, match="entries"):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [1.0, 2.0, 3.0]})


@pytest.mark.parametrize("entries", [
    [1.0, 2.0, 3.0, 10**400],
    ["1e3", 2.0, 3.0, 4.0],
    [True, 2.0, 3.0, 4.0],
    [None, 2.0, 3.0, 4.0],
    [[1.0, 2.0], [3.0, 4.0]],
    {"0": 1.0},
], ids=["int-past-double", "string", "bool", "null", "nested", "object"])
def test_json_entries_must_be_numbers_that_fit_a_double(entries):
    with pytest.raises(ValueError, match="^'entries' must be "):
        matrix_from_json({"rows": 2, "cols": 2, "entries": entries})


def test_json_entries_read_ints_and_floats():
    x = matrix_from_json({"rows": 1, "cols": 3, "entries": [1, -2.5, 10**300]})
    assert np.array_equal(x, [[1.0, -2.5, 1e300]])


def test_json_number_past_a_double_names_its_key():
    with pytest.raises(ValueError, match="^'delta' must be a number that fits a double$"):
        json_number("delta", 10**400)


@pytest.mark.parametrize("integer, kind", [(False, "a number"), (True, "an integer")])
def test_json_number_rejects_null_naming_its_key(integer, kind):
    with pytest.raises(ValueError, match=f"^'coeff' must be {kind}, got None$"):
        json_number("coeff", None, integer=integer)


@pytest.mark.parametrize("rows, cols, entries", [
    (-1, -2, [1.0, 2.0]), (-2, -2, [1.0, 2.0, 3.0, 4.0]), (0, 2, []), (2, 0, []),
])
def test_json_rows_and_cols_must_be_positive(rows, cols, entries):
    with pytest.raises(ValueError, match=f"^'rows' and 'cols' must be positive, "
                                         f"got {rows} and {cols}$"):
        matrix_from_json({"rows": rows, "cols": cols, "entries": entries})


def test_json_missing_key_is_named():
    with pytest.raises(ValueError, match="^malformed matrix document: missing key 'entries'$"):
        matrix_from_json({"rows": 2, "cols": 2})


def test_unparsable_json_file_is_named(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2, "cols": 2, "entr')
    with pytest.raises(ValueError, match=f"^malformed JSON in {path}: "):
        load_matrix(path)


@pytest.mark.parametrize("text, message", [
    ("1,abc\n", "could not convert string to float: 'abc'"),
    ("1,1_5\n", "could not convert string to float: '1_5'"),
    ("1,\u0661\u0662\n", "could not convert string to float: '\u0661\u0662'"),
    ("1,2\n3\n", r"ragged CSV matrix: row widths \[1, 2\]"),
    ("\n", "empty CSV matrix"),
], ids=["word", "underscore", "arabic-indic-digits", "ragged", "empty"])
def test_bad_csv_file_is_named(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^malformed CSV in {path}: {message}$"):
        load_matrix(path)


@pytest.mark.parametrize("name, kind", [("m.json", "JSON"), ("m.csv", "CSV")])
def test_file_that_is_not_utf8_is_named(tmp_path, name, kind):
    path = tmp_path / name
    path.write_bytes(b"\xff1,2\n")
    with pytest.raises(ValueError, match=f"^malformed {kind} in {path}: 'utf-8' codec "):
        load_matrix(path)


def test_integer_past_the_digit_limit_names_its_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [' + "1" * 5000 + "]}")
    with pytest.raises(ValueError, match=f"^malformed JSON in {path}: "):
        load_matrix(path)


def test_save_load_dispatch(tmp_path):
    x = awkward_matrix()
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "m.json"
    save_matrix(x, csv_path)
    save_matrix(x, json_path)
    assert np.array_equal(load_matrix(csv_path), x)
    assert np.array_equal(load_matrix(json_path), x)
