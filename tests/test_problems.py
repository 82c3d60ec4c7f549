import itertools
import json
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import random_point_factors

from lowrankopt import linalg, solver
from lowrankopt.linalg import (
    NonFiniteError,
    SvdFactorization,
    frobenius,
    singular_values,
    truncate_to_rank,
)
from lowrankopt.problems import (
    CostFunction,
    LowRankApproxProblem,
    MatrixCompletionProblem,
    PROBLEM_TYPES,
    UserPolynomialProblem,
    finite_difference_check,
    load_problem,
    problem_skeleton,
)
from lowrankopt.solver import LineSearchParams, SolverParams, p2gd_step, p2gdr
from lowrankopt.variety import (
    NormedGradient,
    VarietyPoint,
    point_from_matrix,
    stationarity_measure,
)


def loop_polynomial(shape, terms, x):
    """Cost and gradient of a polynomial by the term-by-term loop.

    Numpy scalar powers and products, the cost summed in term order and
    each gradient entry accumulated in term order: the arithmetic that the
    compiled ``UserPolynomialProblem`` reproduces bit for bit.
    """
    a = np.asarray(x, dtype=float)
    total = 0.0
    g = np.zeros(shape)
    for monomial, coeff in terms:
        merged = {}
        for row, col, power in monomial:
            merged[(row, col)] = merged.get((row, col), 0) + power
        factors = sorted(merged.items())
        prod = float(coeff)
        for (row, col), power in factors:
            prod *= a[row, col] ** power
        total += prod
        for i, ((row, col), power) in enumerate(factors):
            partial = float(coeff) * power * a[row, col] ** (power - 1)
            for j, ((r2, c2), p2) in enumerate(factors):
                if j != i:
                    partial *= a[r2, c2] ** p2
            g[row, col] += partial
    return float(total), g


def random_polynomial(rng, m, n, count):
    """``count`` terms of degree 0 to 4 whose factors often repeat an entry."""
    terms = []
    for _ in range(count):
        degree = int(rng.integers(0, 5))
        monomial = []
        while degree:
            power = int(rng.integers(1, degree + 1))
            if monomial and rng.random() < 0.3:
                row, col = monomial[-1][:2]
            else:
                row, col = int(rng.integers(m)), int(rng.integers(n))
            monomial.append((row, col, power))
            degree -= power
        terms.append((monomial, float(rng.standard_normal() * 10.0 ** rng.uniform(-2, 2))))
    return terms


def random_point(rng, m, n):
    """Entries at a scale from 1e-3 to 30, about a quarter of them exact zeros."""
    x = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, np.log10(30.0))
    x[rng.random((m, n)) < 0.25] = 0.0
    return x


def assert_matches_loop(problem, terms, x):
    f_ref, g_ref = loop_polynomial(problem.shape, terms, x)
    f, g = problem.eval(x), problem.gradient(x)
    assert f == f_ref and np.signbit(f) == np.signbit(f_ref), (f, f_ref)
    assert np.array_equal(g, g_ref) and np.array_equal(np.signbit(g), np.signbit(g_ref))


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
            assert problem.eval(x) == 0.5 * float(ref.ravel() @ ref.ravel())

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatrixCompletionProblem(np.eye(3), np.ones((2, 3), dtype=bool))

    @pytest.mark.parametrize("value, shown", [(0.5, "0.5"), (2, "2"), (np.nan, "nan"),
                                              (None, "None")])
    def test_mask_entry_other_than_0_or_1_is_named(self, value, shown):
        # The rule a completion document's mask follows, not truthiness.
        mask = [[1, 0], [0, 1]]
        mask[1][0] = value
        with pytest.raises(ValueError, match=re.escape(
                f"'mask' entries must be 0 or 1, got {shown} at (1, 0)")):
            MatrixCompletionProblem(np.eye(2), mask)

    def test_mask_of_zeros_and_ones_is_read(self):
        weights = np.array([[1.0, 0.0], [-0.0, 1.0]])
        for mask in (weights, weights.astype(int), weights.tolist()):
            problem = MatrixCompletionProblem(np.eye(2), mask)
            assert problem.mask.dtype == bool
            assert problem.mask.tolist() == [[True, False], [False, True]]

    def test_mask_is_copied_and_target_held(self):
        # The cost reads its own copies of the mask and of the observed
        # target, so later changes to the caller's arrays leave it as it
        # was built; ``target`` is the caller's array itself.
        target, mask = np.ones((3, 3)), np.ones((3, 3), dtype=bool)
        problem = MatrixCompletionProblem(target, mask)
        assert problem.eval(np.zeros((3, 3))) == 4.5
        mask[0, 0] = False
        target[1, 1] = 5.0
        assert problem.eval(np.zeros((3, 3))) == 4.5
        assert problem.evaluate(VarietyPoint.zero((3, 3), 1))[0] == 4.5
        assert problem.target is target


def three_pass_residual(x, target, mask):
    """The completion residual as three passes over X: the reference that
    the one-pass ``x * mask + offset`` matches bit for bit."""
    d = x - target
    d *= mask
    d += 0.0
    return d


class TestCompletionResidual:
    def instance(self, seed):
        """x and target with every pairing of +0.0, -0.0 and 1.5 at an
        observed and at an unobserved entry; elsewhere x is below the
        target, so every unobserved residual is negative."""
        rng = np.random.default_rng(seed)
        m, n = 8, 9
        target = rng.standard_normal((m, n))
        x = target - np.abs(rng.standard_normal((m, n)))
        mask = rng.random((m, n)) < 0.4
        cases = itertools.product([True, False], [0.0, -0.0, 1.5], [0.0, -0.0, 1.5])
        for k, (observed, xk, tk) in enumerate(cases):
            mask.flat[k], x.flat[k], target.flat[k] = observed, xk, tk
        return x, target, mask

    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_matches_three_passes_bitwise(self, seed):
        x, target, mask = self.instance(seed)
        problem = MatrixCompletionProblem(target, mask)
        ref = three_pass_residual(x, target, mask)
        f_ref = 0.5 * float(ref.ravel() @ ref.ravel())
        assert np.any((x - target)[~mask] < 0.0)
        assert problem.gradient(x).tobytes() == ref.tobytes()
        assert struct.pack("<d", problem.eval(x)) == struct.pack("<d", f_ref)


def assert_bitwise_equal(a, b):
    """Equal values and equal signs, also of zeros."""
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestEvaluate:
    """``evaluate(point)`` is ``eval`` and ``gradient`` at ``point.matrix()``, bit for bit."""

    def point(self, rng, m, n, rank):
        u, sigma, v = random_point_factors(rng, m, n, rank)
        return VarietyPoint(u, sigma, v, rank)

    def assert_matches(self, problem, point):
        f, gradient = problem.evaluate(point)
        x = point.matrix()
        assert type(f) is float
        assert_bitwise_equal(f, problem.eval(x))
        assert_bitwise_equal(gradient(), problem.gradient(x))
        if isinstance(gradient, NormedGradient):
            assert gradient.norm == frobenius(gradient())

    def test_completion_with_negative_unobserved_residuals(self):
        rng = np.random.default_rng(30)
        for rank in (0, 1, 3):
            point = self.point(rng, 9, 8, rank)
            # target above the point everywhere: every residual x - target is
            # negative, so the unobserved ones are -0.0 before the += 0.0 rule
            target = point.matrix() + np.abs(rng.standard_normal((9, 8))) + 0.1
            mask = rng.random((9, 8)) < 0.4
            problem = MatrixCompletionProblem(target, mask)
            self.assert_matches(problem, point)
            _, gradient = problem.evaluate(point)
            assert not np.any(np.signbit(gradient()[~mask]))

    def test_lowrank_approx(self):
        rng = np.random.default_rng(32)
        for rank in (0, 2, 4):
            self.assert_matches(LowRankApproxProblem(rng.standard_normal((7, 6))),
                                self.point(rng, 7, 6, rank))

    def test_residual_costs_carry_the_norm(self):
        rng = np.random.default_rng(33)
        point = self.point(rng, 7, 6, 2)
        for problem in residual_problems(rng, 7, 6):
            _, gradient = problem.evaluate(point)
            assert isinstance(gradient, NormedGradient)
            self.assert_matches(problem, point)

    def test_polynomial_takes_the_generic_evaluate(self, poly_deg4):
        assert type(poly_deg4).evaluate is CostFunction.evaluate
        point = point_from_matrix(np.diag([0.5, -1.5, 0.0]), 2)
        self.assert_matches(poly_deg4, point)

    def test_generic_gradient_is_deferred(self):
        calls = []

        class Counting(LowRankApproxProblem):
            def gradient(self, x):
                calls.append(x)
                return super().gradient(x)

        problem = Counting(np.eye(3))
        point = point_from_matrix(np.diag([2.0, 0.0, 0.0]), 1)
        f, gradient = problem.evaluate(point)
        assert f == 1.5 and calls == []
        assert_bitwise_equal(gradient(), np.diag([1.0, -1.0, -1.0]))
        assert len(calls) == 1

    def test_subclass_that_redefines_a_method_gets_the_generic_evaluate(self):
        class GradientOnly(MatrixCompletionProblem):
            def gradient(self, x):
                return super().gradient(x)

        class EvalOnly(LowRankApproxProblem):
            def eval(self, x):
                return super().eval(x)

        class OwnEvaluate(MatrixCompletionProblem):
            def gradient(self, x):
                return super().gradient(x)

            def evaluate(self, point):
                return super().evaluate(point)

        class Unchanged(MatrixCompletionProblem):
            pass

        assert GradientOnly.evaluate is CostFunction.evaluate
        assert EvalOnly.evaluate is CostFunction.evaluate
        assert OwnEvaluate.evaluate is not CostFunction.evaluate
        assert Unchanged.evaluate is MatrixCompletionProblem.evaluate
        assert MatrixCompletionProblem.evaluate is not CostFunction.evaluate
        assert LowRankApproxProblem.evaluate is not CostFunction.evaluate


def residual_problems(rng, m, n):
    """A completion and a low-rank-approximation problem of shape (m, n)."""
    return [
        MatrixCompletionProblem(rng.standard_normal((m, n)), rng.random((m, n)) < 0.3),
        LowRankApproxProblem(rng.standard_normal((m, n))),
    ]


class TestResidualBuffer:
    """The residual costs evaluate a point in the one matrix ``point.matrix()`` returns."""

    @pytest.mark.parametrize("kind", [0, 1], ids=["completion", "lowrank"])
    def test_evaluate_allocates_one_matrix(self, kind):
        rng = np.random.default_rng(60)
        # Large enough that numpy's fixed 64 KiB buffer, which casts the
        # completion mask to float in 8192-entry chunks, is small beside
        # one-byte-an-entry m-by-n booleans.
        m, n = 600, 400
        problem = residual_problems(rng, m, n)[kind]
        point = VarietyPoint(*random_point_factors(rng, m, n, 5), 5)
        problem.evaluate(point)  # numpy's first-call caches
        tracemalloc.start()
        try:
            _, gradient = problem.evaluate(point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # X, overwritten by the residual, and nothing else of its size.
        assert peak < 1.1 * m * n * 8
        assert gradient().shape == (m, n)

    def test_overflowing_residual_cost_is_infinite(self):
        rng = np.random.default_rng(62)
        for problem in residual_problems(rng, 6, 5):
            u, _, v = random_point_factors(rng, 6, 5, 2)
            point = VarietyPoint(u, np.array([1e200, 1e199]), v, 2)
            with np.errstate(over="ignore"):
                f, gradient = problem.evaluate(point)
                assert f == np.inf == problem.eval(point.matrix())
            assert np.all(np.isfinite(gradient()))

    def test_overflowing_trial_cost_backtracks(self):
        # The first trial's entries are ~1e155: finite, but their squares
        # overflow, so its cost is Inf and the search backtracks to alpha 1.
        rng = np.random.default_rng(63)
        for problem in residual_problems(rng, 6, 5):
            params = LineSearchParams(alpha_hi=1e155, beta=1e-155)
            with np.errstate(over="ignore"):
                outcome = p2gd_step(problem, point_from_matrix(np.zeros((6, 5)), 2), params)
            assert outcome.backtrack_count == 1 and outcome.accepted_alpha == 1.0
            assert outcome.f_after < outcome.f_before


def overflowing_point(m, n, row=0):
    """A rank-2 point whose X overflows to Inf at (row, 0) and (row + 1, 1) only.

    Its factors are finite; fl(sqrt(1/2))^2 exceeds 1/2, so the two terms
    of those entries sum past the largest double.
    """
    c = np.sqrt(0.5)
    u, v = np.zeros((m, 2)), np.zeros((n, 2))
    u[row : row + 2] = v[:2] = [[c, c], [c, -c]]
    top = np.finfo(np.float64).max
    return VarietyPoint(u, np.array([top, top]), v, 2)


def small_blocks(monkeypatch, rows, n):
    """Row blocks of ``rows`` rows for matrices of ``n`` columns."""
    monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", rows * 8 * n)


class TestNonFiniteX:
    """A NaN or Inf in X, even at an unobserved entry, raises; a trial with
    one ends the solve ``nonfinite``."""

    # shape, the first row that overflows and the rows of a block: X whole,
    # and X over three blocks of three rows and a remainder of two, with the
    # overflow in the third block.
    LAYOUTS = {"whole": ((6, 5), 0, None), "blocked": ((11, 6), 7, 3)}

    @pytest.fixture(params=list(LAYOUTS))
    def layout(self, request, monkeypatch):
        shape, row, block_rows = self.LAYOUTS[request.param]
        if block_rows is not None:
            small_blocks(monkeypatch, block_rows, shape[1])
        return shape, row

    def problem(self, shape=(6, 5), row=0):
        mask = np.ones(shape, dtype=bool)
        mask[row, 0] = mask[row + 1, 1] = False
        return MatrixCompletionProblem(np.ones(shape), mask)

    def test_overflow_at_unobserved_entries_raises(self, layout):
        shape, row = layout
        problem = self.problem(shape, row)
        point = overflowing_point(*shape, row)
        with np.errstate(over="ignore", invalid="ignore"):
            x = point.matrix()
            assert np.array_equal(np.argwhere(~np.isfinite(x)), [[row, 0], [row + 1, 1]])
            assert not np.any(problem.mask & ~np.isfinite(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (problem.gradient, problem.evaluate):
                with pytest.raises(NonFiniteError):
                    call(point)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("factor", ["u", "sigma", "v"])
    @pytest.mark.parametrize("kind", ["completion", "lowrank"])
    def test_evaluate_raises(self, kind, factor, bad):
        # A thin SVD is not checked as a VarietyPoint is, so its X can hold
        # any NaN or Inf that a factor does.
        problem = self.problem() if kind == "completion" else LowRankApproxProblem(np.ones((6, 5)))
        factors = dict(zip(("u", "sigma", "v"),
                           random_point_factors(np.random.default_rng(64), 6, 5, 2)))
        factors[factor][0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (problem.gradient, problem.evaluate):
                with pytest.raises(NonFiniteError):
                    call(SvdFactorization(**factors))

    def test_trial_that_overflows_at_unobserved_entries_ends_nonfinite(self, monkeypatch, layout):
        """Without a numpy warning, for a residual cost and for a polynomial
        whose terms read neither overflowing entry."""
        shape, row = layout
        point = overflowing_point(*shape, row)
        monkeypatch.setattr(solver, "project_step_factored", lambda _point, _frame, _alpha: point)
        polynomial = UserPolynomialProblem(shape, [([(2, 2, 1)], 1.0), ([(3, 1, 2)], 1.0)])
        for problem in (self.problem(shape, row), polynomial):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = p2gdr(problem, np.zeros(problem.shape), SolverParams(rank_bound=2, delta=0.1))
            assert trace.termination == "nonfinite" and trace.records == []


class TestFactoredResidual:
    """A residual cost's ``gradient`` of a point forms X and the residual
    one row block at a time. With blocks of three rows an 11-row point
    spans three blocks and a remainder of two."""

    M, N, BLOCK_ROWS = 11, 6, 3

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        small_blocks(monkeypatch, self.BLOCK_ROWS, self.N)
        assert len(linalg._row_blocks(self.M, self.N)) == 4

    def problems(self, rng, point):
        """Both residual costs, their target above X everywhere, so that the
        unobserved residuals would be -0.0 without the +0.0 rule, and equal
        to X at some entries, so that some observed residuals are +0.0."""
        x = point.matrix()
        target = x + np.abs(rng.standard_normal(x.shape)) + 0.1
        equal = rng.random(x.shape) < 0.2
        target[equal] = x[equal]
        return [MatrixCompletionProblem(target, rng.random(x.shape) < 0.4),
                LowRankApproxProblem(target)]

    @pytest.mark.parametrize("rank", [0, 1, 4])
    def test_matches_the_residual_of_the_matrix_bitwise(self, rank):
        rng = np.random.default_rng(90 + rank)
        point = VarietyPoint(*random_point_factors(rng, self.M, self.N, rank), 4)
        x = point.matrix()
        for problem in self.problems(rng, point):
            reference = problem.gradient(x)
            assert_bitwise_equal(problem.gradient(point), reference)
            f, gradient = problem.evaluate(point)
            assert_bitwise_equal(f, problem.eval(x))
            assert_bitwise_equal(gradient(), reference)
            assert gradient.norm == frobenius(reference)

    def test_point_of_another_shape_raises_as_an_array_does(self):
        rng = np.random.default_rng(94)
        point = VarietyPoint(*random_point_factors(rng, self.N, self.M, 2), 2)
        for problem in self.problems(rng, VarietyPoint.zero((self.M, self.N), 1)):
            with pytest.raises(ValueError) as from_array:
                problem.gradient(point.matrix())
            for call in (problem.gradient, problem.evaluate):
                with pytest.raises(ValueError, match=f"^{re.escape(str(from_array.value))}$"):
                    call(point)

    def test_x_near_overflow_is_formed_whole_and_checked(self):
        # sigma past the entry bound, X finite: the residual is still that
        # of the matrix, without a numpy warning.
        rng = np.random.default_rng(95)
        u, _, v = random_point_factors(rng, self.M, self.N, 2)
        point = VarietyPoint(u, np.array([1e305, 1e304]), v, 2)
        assert point.entry_bound() >= 2.0**1000
        x = point.matrix()
        for problem in self.problems(rng, VarietyPoint.zero((self.M, self.N), 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_bitwise_equal(problem.gradient(point), problem.gradient(x))


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

    @pytest.mark.parametrize("shape, terms, message", [
        ((1, 1), [([(0, 0, 2.5)], 1.0)], "'power' must be an integer, got 2.5"),
        ((2, 2), [([(0.9, 1.7, 1)], 1.0)], "'row' must be an integer, got 0.9"),
        ((2.5, 2), [], "'shape' must be an integer, got 2.5"),
        ((1, 1), [([(0, 0, 1)], 10**400)], "'coeff' must be a number that fits a double"),
        ((2, 2, 5), [], "shape must hold 2 entries, got (2, 2, 5)"),
        ((True, 2), [], "'shape' must be an integer, got True"),
        ((2, 2), [([(True, 0, 1)], 1.0)], "'row' must be an integer, got True"),
        ((2, 2), [([(0, False, 1)], 1.0)], "'col' must be an integer, got False"),
        ((1, 1), [([(0, 0, True)], 1.0)], "'power' must be an integer, got True"),
        ((1, 1), [([(0, 0, np.True_)], 1.0)], "'power' must be an integer, got np.True_"),
        ((1, 1), [([(0, 0, 1)], 10**5000)], "'coeff' must be a number that fits a double"),
        ((10**5000, 2), [], "shape must be positive and fit an array, got (<int of"),
        ((1, 1), [([(0, 0, 1)], True)], "'coeff' must be a number, got True"),
        ((1, 1), [([(0, 0, 1)], "2")], "'coeff' must be a number, got '2'"),
        (5, [], "shape must hold 2 entries, got 5"),
        ((3, 3), 5, "'terms' must be an array, got 5"),
        ((3, 3), [5], "'polynomial term' must be a (monomial, coeff) pair, got 5"),
        ((3, 3), [(5, 1.0)], "'monomial' must be an array, got 5"),
        ((3, 3), [([5], 1.0)], "'monomial factor' must hold 3 integers, got 5"),
        ((3, 3), [([(0, 0)], 1.0)], "'monomial factor' must hold 3 integers, got (0, 0)"),
    ], ids=["power", "entry", "shape", "coefficient", "three-entry-shape", "bool-shape",
            "bool-row", "bool-col", "bool-power", "numpy-bool-power", "long-coefficient",
            "long-shape", "bool-coefficient", "string-coefficient", "int-shape", "int-terms",
            "int-term", "int-monomial", "int-factor", "two-entry-factor"])
    def test_inexact_input_is_named(self, shape, terms, message):
        # Not truncated by int() or float(): x00 ** 2.5 would be read as
        # x00 ** 2, True as x00 ** 1 and (2, 2, 5) as (2, 2). An int past
        # Python's digit limit is named by its size, not by a repr error.
        # Malformed structure is named as a document's would be, not left to
        # a TypeError or an unpacking error.
        with pytest.raises(ValueError, match=re.escape(message)):
            UserPolynomialProblem(shape, terms)

    def test_integral_floats_and_numpy_integers_are_read(self):
        exact = UserPolynomialProblem((2, 3), [([(1, 2, 2), (0, 1, 1)], 3)])
        read = UserPolynomialProblem((2.0, np.int64(3)),
                                     [([(np.int32(1), 2.0, np.uint8(2)), (0.0, 1, 1.0)], 3)])
        x = np.arange(6.0).reshape(2, 3)
        assert read.shape == (2, 3) and read.eval(x) == exact.eval(x) == 3 * 25.0
        assert np.array_equal(read.gradient(x), exact.gradient(x))

    def test_zero_polynomial(self):
        problem = UserPolynomialProblem((3, 3), [])
        x = np.ones((3, 3))
        assert problem.eval(x) == 0.0
        assert_allclose(problem.gradient(x), np.zeros((3, 3)))
        assert finite_difference_check(problem, x, 1e-5) == 0.0

    def test_matches_loop_bitwise(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            m, n = (int(k) for k in rng.integers(1, 7, size=2))
            terms = random_polynomial(rng, m, n, int(rng.integers(0, 41)))
            problem = UserPolynomialProblem((m, n), terms)
            for _ in range(3):
                assert_matches_loop(problem, terms, random_point(rng, m, n))

    def test_matches_loop_across_chunks(self):
        # Term counts on either side of a chunk edge, and enough terms and
        # gradient rows to carry the sums over several chunks.
        rng = np.random.default_rng(11)
        chunk = UserPolynomialProblem.CHUNK
        for count in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            terms = random_polynomial(rng, 4, 5, count)
            problem = UserPolynomialProblem((4, 5), terms)
            for _ in range(5):
                assert_matches_loop(problem, terms, random_point(rng, 4, 5))

    @pytest.mark.parametrize("width", [0, 1, 2, 3, 4])
    def test_slot_rows_are_as_wide_as_the_widest_monomial(self, width):
        # A slot row past the widest monomial would only multiply by the
        # padding's 1.0. Width 0 is a polynomial of constants: one row.
        rng = np.random.default_rng(13 + width)
        terms = [term for term in random_polynomial(rng, 4, 5, 300)
                 if len({(row, col) for row, col, _ in term[0]}) <= width]
        widest = [(0, 0, 1), (1, 2, 1), (3, 4, 1), (2, 0, 1)][:width]
        terms.insert(len(terms) // 2, (widest, -1.5))
        problem = UserPolynomialProblem((4, 5), terms)
        assert len(problem._slots) == len(problem._grad_slots) == max(width, 1)
        for _ in range(5):
            assert_matches_loop(problem, terms, random_point(rng, 4, 5))

    def test_zero_products_sum_to_positive_zero(self):
        # Each product is -0.0; the loop's sum starts at +0.0 and stays there.
        terms = [([(0, 0, 1)], -1.0), ([(0, 0, 3), (0, 1, 1)], 2.0)]
        problem = UserPolynomialProblem((1, 2), terms)
        x = np.array([[0.0, -1.0]])
        assert_matches_loop(problem, terms, x)
        assert not np.signbit(problem.eval(x))

    def test_unused_entry_does_not_overflow(self):
        # Only the powers some term uses are taken: x11 ** 2 would overflow.
        problem = UserPolynomialProblem((2, 2), [([(0, 0, 2)], 1.0)])
        x = np.array([[3.0, 0.0], [0.0, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert problem.eval(x) == 9.0
            assert problem.gradient(x).tolist() == [[6.0, 0.0], [0.0, 0.0]]

    def test_overflowing_power_is_infinite(self):
        quartic = UserPolynomialProblem((1, 1), [([(0, 0, 4)], 1.0)])
        assert quartic.eval([[1e100]]) == np.inf
        assert quartic.gradient([[1e100]])[0, 0] == 4e300
        cubic = UserPolynomialProblem((1, 1), [([(0, 0, 3)], 1.0)])
        assert cubic.eval([[-1e200]]) == -np.inf
        assert cubic.gradient([[-1e200]])[0, 0] == np.inf

    def test_overflow_at_a_later_pair_with_a_negative_base(self):
        # The pairs that math.pow takes, in order: x00 ** 2, x11 ** 2,
        # x11 ** 3. The first overflow is at x11 ** 2, after a finite pair,
        # and the retry gives x11 ** 3 its -inf.
        terms = [([(0, 0, 2)], 1.0), ([(0, 1, 1)], 1.0), ([(1, 1, 3)], 1.0)]
        problem = UserPolynomialProblem((2, 2), terms)
        x = np.array([[3.0, 2.0], [0.0, -1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert problem.eval(x) == -np.inf
            assert problem.gradient(x).tolist() == [[6.0, 1.0], [0.0, np.inf]]
        with np.errstate(over="ignore"):
            assert_matches_loop(problem, terms, x)

    def test_power_table_is_pow_bit_for_bit(self):
        # Powers 0 to 4 of signed zeros, a subnormal, both infinities, NaN
        # and 1e300, whose square overflows, so that the retry runs with the
        # power-0 and power-1 pairs taken without math.pow. Every slot, the
        # padding and the derivative slots included, must read math.pow's
        # value (the signed infinity where it overflows), NaN for NaN.
        bases = [-0.0, 0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300]
        x = np.array([bases])
        terms = [([(0, e, p)], 1.0) for e in range(len(bases)) for p in range(1, 5)]
        terms.append(([(0, 0, 1), (0, 2, 1)], 1.0))  # two slots a row: padding
        problem = UserPolynomialProblem(x.shape, terms)
        table = problem._power_table(x)

        def pow_of(base, power):
            try:
                return math.pow(base, power)
            except OverflowError:
                return math.copysign(math.inf, base) ** power

        expected, got = [], []
        for k, (monomial, _) in enumerate(terms):
            factors = [(e, p) for _, e, p in monomial]
            factors += [(0, 0)] * (len(problem._slots) - len(factors))
            for (e, p), slot in zip(factors, problem._slots[:, k]):
                expected.append(pow_of(bases[e], p))
                got.append(table[slot])
        for row, (e, p) in enumerate(
                (e, p) for monomial, _ in terms for _, e, p in monomial):
            expected.append(pow_of(bases[e], p - 1))
            got.append(table[problem._grad_slots[0, row]])
        assert np.inf in expected and 1.0 in expected
        expected, got = np.array(expected), np.array(got)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        finite = ~np.isnan(expected)
        assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))

    def test_temporaries_do_not_grow_with_terms(self):
        # Rows are taken CHUNK at a time, so a call holds one CHUNK-long
        # buffer and one CHUNK-long gather at a time, the table of at most
        # 1 + 4mn powers, the bases gathered for it (one per table entry)
        # and numpy's fixed ufunc.at workspace (about 5 KB). One array
        # over all 20 000 terms would alone take 160 KB.
        bound = 16_000
        rng = np.random.default_rng(12)
        problem = UserPolynomialProblem((6, 5), random_polynomial(rng, 6, 5, 20_000))
        x = random_point(rng, 6, 5)
        problem.eval(x), problem.gradient(x)  # numpy's first-call caches
        for call in (problem.eval, problem.gradient):
            tracemalloc.start()
            try:
                result = call(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - np.asarray(result).nbytes <= bound, (call.__name__, peak)


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

    @pytest.mark.parametrize("doc, message", [
        ({"type": "lowrank_approx", "payload": {}}, "problem document: missing key 'shape'"),
        ({"type": "lowrank_approx", "shape": [2, 2], "payload": {}},
         "lowrank_approx payload: missing key 'target'"),
        ({"type": "polynomial", "shape": [2, 2], "payload": {"terms": [{"monomial": []}]}},
         "polynomial term: missing key 'coeff'"),
        ({"type": "lowrank_approx", "shape": [2, 2], "payload": {"target": {"rows": 2, "cols": 2}}},
         "matrix document: missing key 'entries'"),
    ], ids=["shape", "target", "coeff", "entries"])
    def test_missing_key_is_named(self, doc, message):
        with pytest.raises(ValueError, match=f"^malformed {message}$"):
            load_problem(doc)

    @pytest.mark.parametrize("kind, change, message", [
        ("lowrank_approx", lambda doc: doc.update(extra=1),
         "unknown problem document keys: 'extra'"),
        ("polynomial", lambda doc: doc["payload"].update(coeffs=[], target=0),
         "unknown polynomial payload keys: 'coeffs', 'target'"),
        ("lowrank_approx", lambda doc: doc["payload"].update(mask=doc["payload"]["target"]),
         "unknown lowrank_approx payload keys: 'mask'"),
        ("completion", lambda doc: doc["payload"]["mask"]["entries"].__setitem__(4, 0.5),
         r"'mask' entries must be 0 or 1, got 0\.5 at \(1, 1\)"),
        ("completion", lambda doc: doc["payload"]["mask"]["entries"].__setitem__(2, -3),
         r"'mask' entries must be 0 or 1, got -3\.0 at \(0, 2\)"),
        ("completion", lambda doc: doc.update(payload=[]),
         "completion payload must be a JSON object"),
        ("lowrank_approx", lambda doc: doc["payload"]["target"].update(extra=1),
         "unknown matrix document keys: 'extra'"),
        ("completion", lambda doc: doc["payload"]["mask"].update(extra=1),
         "unknown matrix document keys: 'extra'"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0].update(coef=2.0),
         "unknown polynomial term keys: 'coef'"),
        ("polynomial", lambda doc: doc["payload"].update(terms={}), "'terms' must be an array, got {}"),
        ("polynomial", lambda doc: doc["payload"].update(terms=""), "'terms' must be an array, got ''"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0].update(monomial={}),
         "'monomial' must be an array, got {}"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0].update(monomial=""),
         "'monomial' must be an array, got ''"),
    ], ids=["document-key", "payload-keys", "lowrank-mask", "mask-0.5", "mask-minus-3",
            "payload-array", "target-key", "mask-key", "term-key", "terms-object", "terms-string",
            "monomial-object", "monomial-string"])
    def test_unread_keys_and_mask_values_are_rejected(self, kind, change, message):
        doc = problem_skeleton(kind)
        change(doc)
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_problem(doc)

    @pytest.mark.parametrize("kind, change, message", [
        ("lowrank_approx", lambda doc: doc.update(shape=[None, 3]),
         "'shape' must be an integer, got None"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0].update(coeff=None),
         "'coeff' must be a number, got None"),
        ("lowrank_approx", lambda doc: doc["payload"]["target"].update(rows=None),
         "'rows' must be an integer, got None"),
        ("completion", lambda doc: doc["payload"]["mask"].update(cols=None),
         "'cols' must be an integer, got None"),
        ("polynomial", lambda doc: doc["payload"]["terms"][0]["monomial"][0].__setitem__(1, None),
         "'col' must be an integer, got None"),
        ("lowrank_approx", lambda doc: doc["payload"]["target"].update(
            rows=-1, cols=-2, entries=[1.0, 2.0]),
         "'rows' and 'cols' must be positive, got -1 and -2"),
        ("lowrank_approx", lambda doc: doc["payload"]["target"].update(rows=0, entries=[]),
         "'rows' and 'cols' must be positive, got 0 and 3"),
        ("lowrank_approx", lambda doc: doc.update(type=["x"]), "'type' must be a string, got ['x']"),
        ("lowrank_approx", lambda doc: doc.update(type={}), "'type' must be a string, got {}"),
        ("polynomial", lambda doc: (doc.update(shape=[3, 10**30]),
                                    doc["payload"]["terms"][0]["monomial"][0].__setitem__(0, 1)),
         f"shape must be positive and fit an array, got {(3, 10**30)}"),
    ], ids=["shape-null", "coeff-null", "rows-null", "mask-cols-null", "factor-null",
            "rows-cols-negative", "rows-zero", "type-list", "type-object", "shape-past-an-array"])
    def test_bad_values_are_named(self, kind, change, message):
        doc = problem_skeleton(kind)
        change(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_problem(doc)

    def test_mask_reads_zeros_and_ones(self):
        doc = problem_skeleton("completion")
        doc["payload"]["mask"]["entries"] = [1, 0.0, -0.0, 1.0, 0, 1, 0, 0, 1]
        mask = load_problem(doc).mask
        assert mask.ravel().tolist() == [True, False, False, True, False, True, False, False, True]

    def test_unparsable_file_is_named(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"type": "lowrank_approx", "shape": [2, 2], "payl')
        with pytest.raises(ValueError, match=f"^malformed JSON in {path}: "):
            load_problem(path)

    @pytest.mark.parametrize("kind", PROBLEM_TYPES)
    def test_skeletons_load(self, kind):
        problem = load_problem(problem_skeleton(kind))
        assert problem.shape == (3, 3)
