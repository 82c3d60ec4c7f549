import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lowrankopt.linalg import frobenius, singular_values, truncate_to_rank
from lowrankopt.problems import (
    LowRankApproxProblem,
    MatrixCompletionProblem,
    UserPolynomialProblem,
    finite_difference_check,
    load_problem,
    problem_skeleton,
)
from lowrankopt.variety import point_from_matrix, stationarity_measure


@pytest.fixture
def poly_deg4():
    return UserPolynomialProblem(
        (3, 3),
        [
            ([(0, 0, 2), (1, 1, 2)], 0.7),
            ([(2, 2, 4)], -0.3),
            ([(0, 1, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1)], 1.1),
            ([(0, 2, 3)], 2.0),
        ],
    )


class TestLowRankApprox:
    def test_eval_gradient(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        problem = LowRankApproxProblem(a)
        x = rng.standard_normal((4, 5))
        assert problem.eval(x) == pytest.approx(0.5 * frobenius(x - a) ** 2)
        assert_allclose(problem.gradient(x), x - a)

    def test_truncated_target_is_stationary(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.standard_normal((7, 6))
            sv = singular_values(a)
            r = 3
            if sv[r - 1] - sv[r] < 1e-3:
                continue
            x, _ = truncate_to_rank(a, r)
            report = stationarity_measure(LowRankApproxProblem(a), point_from_matrix(x, r))
            assert report.s_value <= 1e-8 * (1.0 + frobenius(a))

    def test_shape_mismatch(self):
        problem = LowRankApproxProblem(np.eye(3))
        with pytest.raises(ValueError):
            problem.eval(np.eye(4))


class TestMatrixCompletion:
    def test_masked_eval(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        problem = MatrixCompletionProblem(a, mask)
        x = np.zeros((2, 2))
        assert problem.eval(x) == pytest.approx(0.5 * (1.0 + 16.0))
        assert_allclose(problem.gradient(x), np.array([[-1.0, 0.0], [0.0, -4.0]]))

    def test_full_mask_matches_lowrank_bitwise(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 7))
        full = MatrixCompletionProblem(a, np.ones((6, 7), dtype=bool))
        plain = LowRankApproxProblem(a)
        for _ in range(50):
            x = rng.standard_normal((6, 7))
            assert full.eval(x) == plain.eval(x)
            assert np.all(full.gradient(x) == plain.gradient(x))

    def test_matches_where_formula_bitwise(self):
        # The residual is x - target on observed entries and +0.0 elsewhere,
        # also where an unobserved residual is negative.
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((8, 9))
            mask = rng.random((8, 9)) < 0.4
            problem = MatrixCompletionProblem(a, mask)
            x = a - np.abs(rng.standard_normal((8, 9)))
            ref = np.where(mask, x - a, 0.0)
            g = problem.gradient(x)
            assert g.tobytes() == ref.tobytes()
            assert not np.any(np.signbit(g[~mask]))
            assert problem.eval(x) == 0.5 * float(np.sum(ref * ref))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatrixCompletionProblem(np.eye(3), np.ones((2, 3), dtype=bool))


class TestPolynomial:
    def test_eval_by_hand(self):
        problem = UserPolynomialProblem((2, 2), [([(0, 0, 2)], 3.0), ([(0, 1, 1), (1, 0, 1)], -1.0)])
        x = np.array([[2.0, 5.0], [7.0, 0.0]])
        assert problem.eval(x) == pytest.approx(3.0 * 4.0 - 35.0)
        g = problem.gradient(x)
        assert g[0, 0] == pytest.approx(12.0)
        assert g[0, 1] == pytest.approx(-7.0)
        assert g[1, 0] == pytest.approx(-5.0)

    def test_merges_repeated_entries(self):
        merged = UserPolynomialProblem((2, 2), [([(0, 0, 1), (0, 0, 1)], 1.0)])
        square = UserPolynomialProblem((2, 2), [([(0, 0, 2)], 1.0)])
        x = np.array([[3.0, 0.0], [0.0, 0.0]])
        assert merged.eval(x) == square.eval(x)
        assert_allclose(merged.gradient(x), square.gradient(x))

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            UserPolynomialProblem((2, 2), [([(0, 0, 5)], 1.0)])
        with pytest.raises(ValueError, match="degree"):
            UserPolynomialProblem((2, 2), [([(0, 0, 3), (0, 0, 2)], 1.0)])

    def test_index_validation(self):
        with pytest.raises(ValueError, match="outside"):
            UserPolynomialProblem((2, 2), [([(2, 0, 1)], 1.0)])
        with pytest.raises(ValueError, match="power"):
            UserPolynomialProblem((2, 2), [([(0, 0, 0)], 1.0)])

    def test_zero_polynomial(self):
        problem = UserPolynomialProblem((3, 3), [])
        x = np.ones((3, 3))
        assert problem.eval(x) == 0.0
        assert_allclose(problem.gradient(x), np.zeros((3, 3)))
        assert finite_difference_check(problem, x, 1e-5) == 0.0


class TestFiniteDifferences:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(3)
        problem = LowRankApproxProblem(rng.standard_normal((4, 5)))
        x = rng.standard_normal((4, 5))
        assert finite_difference_check(problem, x, 1e-5) <= 1e-8

    def test_degree4_scales_quadratically(self, poly_deg4):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 3))
        errs = [finite_difference_check(poly_deg4, x, h) for h in (1e-3, 1e-4, 1e-5)]
        # central differences: error ~ h^2 until roundoff
        assert 30.0 <= errs[0] / errs[1] <= 300.0
        assert errs[1] / errs[2] >= 3.0

    def test_builtin_problems_pass(self, poly_deg4):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        problems = [
            LowRankApproxProblem(a),
            MatrixCompletionProblem(a, rng.uniform(size=(3, 3)) < 0.5),
            poly_deg4,
        ]
        for problem in problems:
            for _ in range(100):
                x = rng.standard_normal((3, 3))
                assert finite_difference_check(problem, x, 1e-5) <= 1e-6

    def test_rejects_bad_h(self):
        problem = LowRankApproxProblem(np.eye(2))
        with pytest.raises(ValueError):
            finite_difference_check(problem, np.eye(2), 0.0)


class TestLoading:
    def test_lowrank_roundtrip(self, tmp_path):
        doc = {
            "type": "lowrank_approx",
            "shape": [2, 2],
            "payload": {"target": {"rows": 2, "cols": 2, "entries": [1.0, 2.0, 3.0, 4.0]}},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        problem = load_problem(path)
        assert isinstance(problem, LowRankApproxProblem)
        assert_allclose(problem.target, [[1.0, 2.0], [3.0, 4.0]])

    def test_completion(self):
        doc = {
            "type": "completion",
            "shape": [2, 2],
            "payload": {
                "target": {"rows": 2, "cols": 2, "entries": [1.0, 2.0, 3.0, 4.0]},
                "mask": {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0]},
            },
        }
        problem = load_problem(doc)
        assert isinstance(problem, MatrixCompletionProblem)
        assert problem.mask.tolist() == [[True, False], [False, True]]

    def test_polynomial(self):
        doc = {
            "type": "polynomial",
            "shape": [2, 2],
            "payload": {"terms": [{"monomial": [[0, 0, 2]], "coeff": 2.5}]},
        }
        problem = load_problem(doc)
        assert problem.eval(np.array([[3.0, 0.0], [0.0, 0.0]])) == pytest.approx(22.5)

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown"):
            load_problem({"type": "mystery", "shape": [2, 2]})

    def test_shape_mismatch(self):
        doc = {
            "type": "lowrank_approx",
            "shape": [3, 3],
            "payload": {"target": {"rows": 2, "cols": 2, "entries": [1.0, 2.0, 3.0, 4.0]}},
        }
        with pytest.raises(ValueError, match="shape"):
            load_problem(doc)
        short = {
            "type": "lowrank_approx",
            "shape": [2, 2],
            "payload": {"target": {"rows": 2, "cols": 2, "entries": [1.0, 2.0, 3.0]}},
        }
        with pytest.raises(ValueError, match="expected 4 entries, got 3"):
            load_problem(short)

    @pytest.mark.parametrize("kind", ["lowrank_approx", "completion", "polynomial"])
    def test_skeletons_load(self, kind):
        problem = load_problem(problem_skeleton(kind))
        assert problem.shape == (3, 3)
