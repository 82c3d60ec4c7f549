import json
import re
import sys
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from lowrankopt import cli
from lowrankopt.linalg import singular_values
from lowrankopt.problems import PROBLEM_TYPES, load_problem, problem_skeleton
from lowrankopt.serialize import matrix_to_json, save_matrix
from lowrankopt.solver import LineSearchParams, SolverParams


def write_lowrank_setup(tmp_path, a, rank_bound, delta, **config_extra):
    problem_doc = {
        "type": "lowrank_approx",
        "shape": list(a.shape),
        "payload": {"target": matrix_to_json(a)},
    }
    (tmp_path / "problem.json").write_text(json.dumps(problem_doc))
    config = {
        "problem": "problem.json",
        "x0": "zero",
        "rank_bound": rank_bound,
        "delta": delta,
        "stop_tol": 1e-8,
        "max_iters": 500,
        "out": "results",
        "algorithm": "p2gdr",
    }
    config.update(config_extra)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def _polynomial(shape=(3, 3), factor=(0, 0, 2), coeff=1.0) -> str:
    """A polynomial problem document with one single-factor term."""
    return json.dumps({
        "type": "polynomial",
        "shape": shape,
        "payload": {"terms": [{"monomial": [factor], "coeff": coeff}]},
    })


def failing(name, caller=None):
    """``np.linalg.<name>`` that does not converge when ``linalg._lapack``,
    the package's one caller of it, is called from the function named
    ``caller``, or from anywhere when ``caller`` is None."""
    routine = getattr(np.linalg, name)

    def routine_or_fail(*args, **kwargs):
        if caller in (None, sys._getframe(2).f_code.co_name):
            raise np.linalg.LinAlgError(f"{name.upper()} did not converge")
        return routine(*args, **kwargs)

    return routine_or_fail


@pytest.fixture
def lowrank_config(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 8))
    path = write_lowrank_setup(tmp_path, a, 3, 0.1 * float(singular_values(a)[0]))
    return path, a, tmp_path / "results"


class TestRun:
    def test_stationary_start_empty_trace(self, tmp_path):
        a = np.diag([1.0, 0.0, 0.0])
        config = write_lowrank_setup(tmp_path, a, 2, 0.1, x0="x0.csv")
        save_matrix(a, tmp_path / "x0.csv")
        assert cli.main(["run", str(config)]) == 0
        trace = (tmp_path / "results" / "trace_p2gdr.csv").read_text()
        assert trace.strip().splitlines() == ["iter,f,s,rank,delta_rank,chosen_j,alpha,candidates"]

    def test_reaches_svd_oracle(self, lowrank_config):
        config, a, out_dir = lowrank_config
        assert cli.main(["run", str(config)]) == 0
        summary = json.loads((out_dir / "summary_p2gdr.json").read_text())
        sv = singular_values(a)
        assert summary["termination"] == "stationary"
        assert abs(summary["final_f"] - 0.5 * np.sum(sv[3:] ** 2)) <= 1e-6

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        for text in (
            "{not json",
            "[1, 2]",
            json.dumps({"problem": 3, "rank_bound": 2, "delta": 0.1}),
        ):
            config.write_text(text)
            assert cli.main(["run", str(config)]) == 1
            assert "config error" in capsys.readouterr().err
            assert not (tmp_path / "results").exists()

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "missing.json"
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {config}: ")
        assert not (tmp_path / "results").exists()

    def test_unknown_config_keys_exit_1(self, tmp_path, capsys):
        a = np.diag([3.0, 2.0, 1.0])
        for extra in ({"initial_alpha": 0.5}, {"algorithm": "both"}, {"detla": 0.1}):
            config = write_lowrank_setup(tmp_path, a, 2, 0.1, **extra)
            assert cli.main(["run", str(config)]) == 1
            err = capsys.readouterr().err
            assert "config error" in err
            assert not (tmp_path / "results").exists()
        assert "detla" in err

    @pytest.mark.parametrize(
        "problem_text, x0_text",
        [
            ("[1, 2]", None),
            ('{"type": "lowrank_approx", "shape": 3, "payload": {}}', None),
            (
                '{"type": "polynomial", "shape": [2, 2],'
                ' "payload": {"terms": [{"monomial": 5, "coeff": 1.0}]}}',
                None,
            ),
            (None, "[[1, 2]]"),
            (_polynomial(factor=[0, 0, 1.5]), None),
            (_polynomial(factor=[0.9, 0, 2]), None),
            (_polynomial(factor=[0, 0]), None),
            (_polynomial(factor=[0, 0, 1, 1]), None),
            (_polynomial(shape="33"), None),
            (_polynomial(shape=[3.7, 3]), None),
            (_polynomial(shape=[3, 3, 3]), None),
            (_polynomial(coeff="2"), None),
            (_polynomial(coeff=True), None),
            (None, json.dumps({"rows": 3.5, "cols": 3, "entries": [0.0] * 9})),
        ],
        ids=["problem-array", "shape-int", "monomial-int", "x0-array", "factor-power-1.5",
             "factor-row-0.9", "factor-2-entries", "factor-4-entries", "shape-string",
             "shape-3.7", "shape-3-entries", "coeff-string", "coeff-bool", "x0-rows-3.5"],
    )
    def test_malformed_documents_exit_1(self, tmp_path, capsys, problem_text, x0_text):
        config = write_lowrank_setup(tmp_path, np.diag([3.0, 2.0, 1.0]), 2, 0.1, x0="x0.json")
        if problem_text is not None:
            (tmp_path / "problem.json").write_text(problem_text)
        if x0_text is not None:
            (tmp_path / "x0.json").write_text(x0_text)
        else:
            save_matrix(np.zeros((3, 3)), tmp_path / "x0.json")
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name, change, message", [
        ("problem.json", lambda doc: doc["payload"].update(mask=matrix_to_json(np.eye(3))),
         "unknown lowrank_approx payload keys: 'mask'"),
        ("problem.json", lambda doc: doc["payload"].update(weights=1.0),
         "unknown lowrank_approx payload keys: 'weights'"),
        ("problem.json", lambda doc: doc.update(comment="ignored until now"),
         "unknown problem document keys: 'comment'"),
        ("x0.json", lambda doc: doc.update(extra=1), "unknown matrix document keys: 'extra'"),
    ], ids=["lowrank-mask", "payload-key", "document-key", "x0-key"])
    def test_unread_problem_keys_exit_1(self, tmp_path, capsys, name, change, message):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1, x0="x0.json")
        save_matrix(np.zeros((3, 3)), tmp_path / "x0.json")
        doc = json.loads((tmp_path / name).read_text())
        change(doc)
        (tmp_path / name).write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("weight", [0.5, -3.0, 2.0])
    def test_completion_mask_entries_are_0_or_1(self, tmp_path, capsys, weight):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1)
        mask = np.ones((3, 3))
        mask[2, 1] = weight
        (tmp_path / "problem.json").write_text(json.dumps({
            "type": "completion", "shape": [3, 3],
            "payload": {"target": matrix_to_json(np.eye(3)), "mask": matrix_to_json(mask)},
        }))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: 'mask' entries must be 0 or 1, got {weight!r} at (2, 1)\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("entries", [
        [10**400] + [0.0] * 8,
        ["1e3", True, 3, 4, 5, 6, 7, 8, 9],
        [None] + [1.0] * 8,
    ], ids=["int-past-double", "string-and-bool", "null"])
    def test_entries_must_be_numbers_that_fit_a_double(self, tmp_path, capsys, entries):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1)
        (tmp_path / "problem.json").write_text(json.dumps({
            "type": "lowrank_approx", "shape": [3, 3],
            "payload": {"target": {"rows": 3, "cols": 3, "entries": entries}},
        }))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: 'entries' must be ")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("problem_doc, x0_doc, message", [
        ({"type": "lowrank_approx", "payload": {}}, None, "problem document: missing key 'shape'"),
        ({"type": "lowrank_approx", "shape": [3, 3], "payload": {}}, None,
         "lowrank_approx payload: missing key 'target'"),
        ({"type": "polynomial", "shape": [3, 3], "payload": {"terms": [{"monomial": []}]}}, None,
         "polynomial term: missing key 'coeff'"),
        (None, {"rows": 3, "cols": 3}, "matrix document: missing key 'entries'"),
    ], ids=["shape", "target", "coeff", "x0-entries"])
    def test_missing_key_is_named(self, tmp_path, capsys, problem_doc, x0_doc, message):
        config = write_lowrank_setup(tmp_path, np.diag([3.0, 2.0, 1.0]), 2, 0.1, x0="x0.json")
        if problem_doc is not None:
            (tmp_path / "problem.json").write_text(json.dumps(problem_doc))
        (tmp_path / "x0.json").write_text(json.dumps(x0_doc or matrix_to_json(np.zeros((3, 3)))))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"error: malformed {message}\n"

    @pytest.mark.parametrize("kind, change, message", [
        ("lowrank_approx", lambda doc: doc.update(shape=[None, 3]),
         "'shape' must be an integer, got None"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0].update(coeff=None),
         "'coeff' must be a number, got None"),
        ("lowrank_approx", lambda doc: doc["payload"]["target"].update(rows=None),
         "'rows' must be an integer, got None"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0]["monomial"][0].__setitem__(1, None),
         "'col' must be an integer, got None"),
        ("lowrank_approx", lambda doc: doc["payload"]["target"].update(
            rows=-1, cols=-2, entries=[1.0, 2.0]),
         "'rows' and 'cols' must be positive, got -1 and -2"),
        ("lowrank_approx", lambda doc: doc.update(type=["x"]), "'type' must be a string, got ['x']"),
        ("lowrank_approx", lambda doc: doc.update(type={}), "'type' must be a string, got {}"),
        ("polynomial", lambda doc: (doc.update(shape=[3, 10**30]),
                                    doc["payload"]["terms"][0]["monomial"][0].__setitem__(0, 1)),
         f"shape must be positive and fit an array, got {(3, 10**30)}"),
    ], ids=["shape-null", "coeff-null", "rows-null", "factor-null", "rows-cols-negative",
            "type-list", "type-object", "shape-past-an-array"])
    def test_bad_values_are_named(self, tmp_path, capsys, kind, change, message):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1)
        doc = problem_skeleton(kind)
        change(doc)
        (tmp_path / "problem.json").write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("x0", ["zero", "random:3"])
    def test_unallocatable_start_exits_1(self, tmp_path, monkeypatch, capsys, x0):
        # The start's allocation is made to fail; nothing that large is allocated.
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1, x0=x0)
        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
        zeros = np.zeros

        def no_memory(*args, **kwargs):
            if sys._getframe(1).f_code.co_name != "_load":
                return zeros(*args, **kwargs)
            raise MemoryError(message)

        monkeypatch.setattr(np, "zeros", no_memory)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: SimpleNamespace(
            standard_normal=no_memory))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("text, message", [
        ("1,0,0\n0,abc,0\n0,0,0\n", "could not convert string to float: 'abc'"),
        ("1,0,0\n0,1_5,0\n0,0,0\n", "could not convert string to float: '1_5'"),
        ("1,0,0\n0,\u0661\u0662,0\n0,0,0\n",
         "could not convert string to float: '\u0661\u0662'"),
        ("1,0,0\n0,0\n", "ragged CSV matrix: row widths [2, 3]"),
    ], ids=["word", "underscore", "arabic-indic-digits", "ragged"])
    def test_bad_csv_x0_names_its_file(self, tmp_path, capsys, text, message):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1, x0="x0.csv")
        (tmp_path / "x0.csv").write_text(text, encoding="utf-8")
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"error: malformed CSV in {tmp_path / 'x0.csv'}: {message}\n"
        assert not (tmp_path / "results").exists()

    def test_unparsable_document_names_its_file(self, tmp_path, capsys):
        config = write_lowrank_setup(tmp_path, np.diag([3.0, 2.0, 1.0]), 2, 0.1, x0="x0.json")
        problem_text = (tmp_path / "problem.json").read_text()
        for name in ("problem.json", "x0.json"):
            (tmp_path / name).write_text('{"rows": ')

        def error():
            assert cli.main(["run", str(config)]) == 1
            return capsys.readouterr().err

        assert error().startswith(f"error: malformed JSON in {tmp_path / 'problem.json'}: ")
        (tmp_path / "problem.json").write_text(problem_text)
        assert error().startswith(f"error: malformed JSON in {tmp_path / 'x0.json'}: ")
        assert not (tmp_path / "results").exists()

    def test_missing_problem_file_exits_1(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": "nope.json", "rank_bound": 2, "delta": 0.1}))
        assert cli.main(["run", str(config)]) == 1

    def test_rank_bound_too_large_exits_1(self, tmp_path):
        a = np.eye(3)
        config = write_lowrank_setup(tmp_path, a, 3, 0.1)
        assert cli.main(["run", str(config)]) == 1

    def test_infeasible_x0_exits_1(self, tmp_path):
        a = np.diag([1.0, 0.0, 0.0])
        config = write_lowrank_setup(tmp_path, a, 1, 0.1, x0="x0.csv")
        save_matrix(np.diag([3.0, 2.0, 1.0]), tmp_path / "x0.csv")
        assert cli.main(["run", str(config)]) == 1

    def test_x0_of_another_shape_exits_1(self, tmp_path, capsys):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1, x0="x0.json")
        save_matrix(np.eye(2), tmp_path / "x0.json")
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: x0 shape (2, 2) does not match problem shape (3, 3)\n")

    def test_nonfinite_x0_exits_1(self, tmp_path, capsys):
        config = write_lowrank_setup(tmp_path, np.eye(3), 1, 0.1, x0="x0.csv")
        (tmp_path / "x0.csv").write_text("nan,0,0\n0,0,0\n0,0,0\n")
        assert cli.main(["run", str(config)]) == 1
        assert "NaN or Inf" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_max_iters_exits_2(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 6))
        mask_doc = matrix_to_json((rng.uniform(size=(8, 6)) < 0.6).astype(float))
        problem_doc = {
            "type": "completion",
            "shape": [8, 6],
            "payload": {"target": matrix_to_json(a), "mask": mask_doc},
        }
        (tmp_path / "problem.json").write_text(json.dumps(problem_doc))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "problem": "problem.json",
                    "x0": "random:7",
                    "rank_bound": 2,
                    "delta": 0.3,
                    "stop_tol": 1e-14,
                    "max_iters": 3,
                    "out": "results",
                }
            )
        )
        assert cli.main(["run", str(config)]) == 2

    def test_line_search_failure_exits_3(self, tmp_path):
        # gigantic forced step with a single backtrack cannot decrease
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 4))
        config = write_lowrank_setup(
            tmp_path, a, 2, 0.3,
            alpha_hi=1e18, max_backtracks=1, stop_tol=1e-10,
        )
        assert cli.main(["run", str(config)]) == 3

    def test_nonfinite_cost_exits_5(self, tmp_path):
        # x0 = 1e100 e_00 is feasible, but its cost x_00^4 overflows to Inf
        problem_doc = {
            "type": "polynomial",
            "shape": [3, 3],
            "payload": {"terms": [{"monomial": [[0, 0, 4]], "coeff": 1.0}]},
        }
        (tmp_path / "problem.json").write_text(json.dumps(problem_doc))
        x0 = np.zeros((3, 3))
        x0[0, 0] = 1e100
        save_matrix(x0, tmp_path / "x0.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"problem": "problem.json", "x0": "x0.csv", "rank_bound": 1, "delta": 0.1,
             "out": "results"}
        ))
        with np.errstate(over="ignore"):
            assert cli.main(["run", str(config)]) == 5
        text = (tmp_path / "results" / "summary_p2gdr.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        summary = json.loads(text)
        assert summary["termination"] == "nonfinite"
        assert (summary["iters"], summary["final_f"], summary["final_s"]) == (0, None, None)

    def test_overflowing_gradient_norm_exits_5(self, tmp_path):
        (tmp_path / "problem.json").write_text(json.dumps({
            "type": "polynomial",
            "shape": [3, 3],
            "payload": {"terms": [{"monomial": [[0, 0, 1]], "coeff": 1e300},
                                  {"monomial": [[0, 0, 2]], "coeff": 1.0}]},
        }))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"problem": "problem.json", "rank_bound": 1, "delta": 0.1, "out": "results"}
        ))
        # The overflow is reported by the termination, not by numpy warnings.
        assert cli.main(["run", str(config)]) == 5
        summary = json.loads((tmp_path / "results" / "summary_p2gdr.json").read_text())
        assert (summary["termination"], summary["iters"]) == ("nonfinite", 0)

    def test_overflowing_trial_step_exits_5(self, tmp_path):
        rng = np.random.default_rng(0)
        target = rng.standard_normal((6, 5)) * 1e150
        mask = (rng.random((6, 5)) < 0.7).astype(np.float64)
        (tmp_path / "problem.json").write_text(json.dumps({
            "type": "completion",
            "shape": [6, 5],
            "payload": {"target": matrix_to_json(target), "mask": matrix_to_json(mask)},
        }))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"problem": "problem.json", "rank_bound": 2, "delta": 1e-3, "stop_tol": 0.0,
             "alpha_hi": 1e160, "out": "results"}
        ))
        assert cli.main(["run", str(config)]) == 5
        summary = json.loads((tmp_path / "results" / "summary_p2gdr.json").read_text())
        assert (summary["termination"], summary["iters"]) == ("nonfinite", 0)

    @pytest.mark.parametrize("x0", ["random:3", "x0.csv"])
    def test_failed_start_svd_exits_1(self, tmp_path, monkeypatch, capsys, x0):
        # The run's first SVD truncates the random start, or factors the file's.
        a = np.random.default_rng(4).standard_normal((6, 5))
        config = write_lowrank_setup(tmp_path, a, 2, 0.1, x0=x0)
        save_matrix(a[:, :2] @ a[:2, :], tmp_path / "x0.csv")
        monkeypatch.setattr(np.linalg, "svd", failing("svd"))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == "error: SVD did not converge for shape (6, 5)\n"
        assert not (tmp_path / "results").exists()

    def test_failed_step_svd_exits_1(self, tmp_path, monkeypatch, capsys):
        a = np.random.default_rng(4).standard_normal((6, 5))
        config = write_lowrank_setup(tmp_path, a, 2, 0.1)
        monkeypatch.setattr(np.linalg, "svd", failing("svd", "project_step_factored"))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == "error: SVD did not converge for shape (2, 2)\n"
        assert not (tmp_path / "results").exists()

    def test_failed_step_qr_exits_1(self, tmp_path, monkeypatch, capsys):
        a = np.random.default_rng(4).standard_normal((6, 5))
        config = write_lowrank_setup(tmp_path, a, 2, 0.1)
        monkeypatch.setattr(np.linalg, "qr", failing("qr", "_complement_qr"))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == "error: QR did not converge for shape (6, 2)\n"
        assert not (tmp_path / "results").exists()

    def test_override_flags(self, lowrank_config):
        config, _, out_dir = lowrank_config
        assert cli.main(["run", str(config), "--max-iters", "1", "--stop-tol", "1e-16"]) == 2
        summary = json.loads((out_dir / "summary_p2gdr.json").read_text())
        assert summary["termination"] == "max_iters"
        assert summary["iters"] == 1

    def test_deterministic_outputs(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 6))
        config = write_lowrank_setup(tmp_path, a, 2, 0.2, x0="random:11", max_iters=40)
        assert cli.main(["run", str(config)]) in (0, 2)
        first = (tmp_path / "results" / "trace_p2gdr.csv").read_bytes()
        assert cli.main(["run", str(config)]) in (0, 2)
        assert (tmp_path / "results" / "trace_p2gdr.csv").read_bytes() == first

    def test_paths_resolve_against_config_dir(self, tmp_path):
        # problem lives in a subdirectory; x0 and out stay relative to the config
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 4))
        (tmp_path / "problems").mkdir()
        problem_doc = {
            "type": "lowrank_approx",
            "shape": [5, 4],
            "payload": {"target": matrix_to_json(a)},
        }
        (tmp_path / "problems" / "p.json").write_text(json.dumps(problem_doc))
        save_matrix(np.zeros((5, 4)), tmp_path / "x0.csv")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "problem": "problems/p.json",
                    "x0": "x0.csv",
                    "rank_bound": 2,
                    "delta": 0.3,
                    "stop_tol": 1e-8,
                    "out": "results",
                }
            )
        )
        assert cli.main(["run", str(config)]) == 0
        assert (tmp_path / "results" / "trace_p2gdr.csv").exists()


class TestConfig:
    KEYS = {
        "problem", "x0", "rank_bound", "delta", "alpha_lo", "alpha_hi", "beta", "c",
        "max_backtracks", "stop_tol", "max_iters", "out", "algorithm",
    }
    INT_KEYS = ("rank_bound", "max_backtracks", "max_iters")
    PATH_KEYS = ("problem", "x0", "out")
    VALID_OPTIONAL = {
        "x0": ["zero", "random:3"], "alpha_lo": [1e-8, 1e-6], "alpha_hi": [1.0, 2], "beta": [0.5],
        "c": [1e-4], "max_backtracks": [60, 30.0], "stop_tol": [1e-8, None], "max_iters": [50],
        "algorithm": ["p2gdr", "p2gd"],
    }

    def test_keys_are_the_parameter_fields(self):
        numeric = {f.name for cls in (LineSearchParams, SolverParams) for f in fields(cls)}
        assert cli.CONFIG_KEYS == (numeric - {"line_search"}) | {"problem", "x0", "out", "algorithm"}
        assert cli.CONFIG_KEYS == self.KEYS

    def test_minimal_config_takes_the_class_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": "p.json", "rank_bound": 2, "delta": 0.1}))
        loaded = cli.RunConfig.load(config)
        assert loaded.params == SolverParams(2, 0.1)
        assert (loaded.x0, loaded.out_dir, loaded.algorithm) == ("zero", tmp_path, "p2gdr")
        assert loaded.problem_path == tmp_path / "p.json"

    def test_wrongly_typed_values_are_config_errors(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        a = np.diag([3.0, 2.0, 1.0])
        cases = []
        for key in sorted(self.KEYS):
            wrong = [True, [1], {}]
            if key in self.PATH_KEYS:
                wrong += [5, None]
            else:
                wrong.append("1")
            if key in ("rank_bound", "delta", "algorithm"):
                wrong.append(None)
            if key in self.INT_KEYS:
                wrong += [1.5, 1.9]
            cases += [(key, value) for value in wrong]
        for key, value in cases:
            extra = {k: v[rng.integers(len(v))] for k, v in self.VALID_OPTIONAL.items()
                     if rng.random() < 0.5}
            config = write_lowrank_setup(tmp_path, a, 2, 0.1, **extra)
            doc = json.loads(config.read_text())
            doc[key] = value
            config.write_text(json.dumps(doc))
            assert cli.main(["run", str(config)]) == 1, (key, value)
            assert "config error" in capsys.readouterr().err, (key, value)
            assert not (tmp_path / "results").exists(), (key, value)


    def test_nan_stop_tol_is_a_config_error(self, tmp_path, capsys):
        config = write_lowrank_setup(tmp_path, np.diag([3.0, 2.0, 1.0]), 2, 0.1,
                                     stop_tol=float("nan"))
        assert "NaN" in config.read_text()
        assert cli.main(["run", str(config)]) == 1
        assert "invalid config field: stop_tol" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_infinite_stop_tol_is_a_config_error(self, tmp_path, capsys):
        # +Inf would pass any measure at the start: a false `stationary` label.
        a = np.arange(30.0).reshape(6, 5) % 7
        config = write_lowrank_setup(tmp_path, a, 2, 0.1, stop_tol=float("inf"))
        assert "Infinity" in config.read_text()
        assert cli.main(["run", str(config)]) == 1
        assert "invalid config field: stop_tol" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_number_past_a_double_is_a_config_error(self, tmp_path, capsys):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1)
        config.write_text(config.read_text().replace('"delta": 0.1', '"delta": 1' + "0" * 400))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid config field: 'delta' must be a number that fits a double\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("key", ["rank_bound", "delta"])
    @pytest.mark.parametrize("given", [False, True], ids=["absent", "null"])
    def test_missing_or_null_required_key_is_named(self, tmp_path, capsys, key, given):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1)
        doc = json.loads(config.read_text())
        del doc[key]
        if given:
            doc[key] = None
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == f"config error: malformed config: missing key {key!r}\n"
        assert not (tmp_path / "results").exists()

    def test_delta_flag_gives_a_missing_delta(self, tmp_path):
        config = write_lowrank_setup(tmp_path, np.diag([3.0, 2.0, 1.0]), 2, None)
        with pytest.raises(cli.ConfigError, match="^malformed config: missing key 'delta'$"):
            cli.RunConfig.load(config)
        assert cli.RunConfig.load(config, {"delta": 0.5}).params.delta == 0.5
        assert cli.main(["run", str(config), "--delta", "0.5"]) == 0

    def test_random_seed_is_read_with_the_config(self, tmp_path):
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1, x0="random:007")
        assert cli.RunConfig.load(config).x0 == 7

    @pytest.mark.parametrize("seed", ["-5", "1.5", "+3", "x", ""])
    def test_bad_random_seed_is_a_config_error(self, tmp_path, capsys, seed):
        # reported before any document is read: the problem file is missing too
        config = write_lowrank_setup(tmp_path, np.eye(3), 2, 0.1, x0=f"random:{seed}")
        (tmp_path / "problem.json").unlink()
        assert cli.main(["run", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"config error: bad random seed in x0 source 'random:{seed}': "
            "expected a nonnegative integer\n"
        )
        assert not (tmp_path / "results").exists()

    def test_infinite_alpha_hi_is_a_config_error(self, tmp_path, capsys):
        a = np.arange(30.0).reshape(6, 5) % 7
        config = write_lowrank_setup(tmp_path, a, 2, 0.1, alpha_hi=float("inf"))
        assert "Infinity" in config.read_text()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(config)]) == 1
        assert caught == []
        assert "config error: invalid config field: " in capsys.readouterr().err
        assert not (tmp_path / "results").exists()


class TestCompare:
    def test_loads_problem_once(self, lowrank_config, monkeypatch):
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_problem(path)

        monkeypatch.setattr(cli, "load_problem", counting_load)
        assert cli.main(["compare", str(lowrank_config[0])]) == 0
        assert len(calls) == 1

    def test_benign_quadratic_not_flagged(self, lowrank_config):
        config, _, out_dir = lowrank_config
        assert cli.main(["compare", str(config)]) == 0
        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["apocalypse_flag"] is False
        assert verdict["p2gd"]["final_s"] <= 1e-8
        assert verdict["p2gdr"]["final_s"] <= 1e-8
        assert set(verdict["p2gd"]) == {"final_s", "final_f", "final_rank"}

    def test_assert_identical_on_stable_ranks(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 8))
        config = write_lowrank_setup(
            tmp_path, a, 3, 0.05 * float(singular_values(a)[-1]), x0="random:3"
        )
        assert cli.main(["compare", str(config), "--assert-identical"]) == 0
        out_dir = tmp_path / "results"
        assert (out_dir / "trace_p2gd.csv").read_bytes() == (
            out_dir / "trace_p2gdr.csv"
        ).read_bytes()

    def test_detects_diverging_traces(self, tmp_path, capsys):
        # a start with one tiny singular value makes the reduction kick in
        # and win at iteration 0, so the two traces must differ
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4))
        config = write_lowrank_setup(tmp_path, a, 2, 0.5, x0="x0.csv", max_iters=30)
        save_matrix(np.diag([1.0, 0.01, 0.0, 0.0]), tmp_path / "x0.csv")
        assert cli.main(["compare", str(config), "--assert-identical"]) == 4
        assert "differ" in capsys.readouterr().err


class TestCommands:
    def test_check_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check"])
        assert exc.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "{run,compare,gen-problem}" in capsys.readouterr().out


class TestGenProblem:
    @pytest.mark.parametrize("kind", PROBLEM_TYPES)
    def test_emits_loadable_skeleton(self, tmp_path, kind):
        out = tmp_path / "skeleton.json"
        assert cli.main(["gen-problem", kind, "-o", str(out)]) == 0
        problem = load_problem(out)
        assert problem.shape == (3, 3)

    def test_prints_to_stdout(self, capsys):
        assert cli.main(["gen-problem", "polynomial"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "polynomial"
