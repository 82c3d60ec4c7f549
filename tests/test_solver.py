import copy
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import random_point_factors, reference_backtracking_step

from lowrankopt import solver
from lowrankopt.linalg import (
    NonFiniteError,
    NumericalFailure,
    frobenius,
    singular_values,
    truncate_to_rank,
)
from lowrankopt.problems import (
    CostFunction,
    LowRankApproxProblem,
    MatrixCompletionProblem,
    ResidualCost,
    UserPolynomialProblem,
)
from lowrankopt.solver import (
    LineSearchFailure,
    LineSearchParams,
    SolverParams,
    kappa_bound,
    p2gd_plain,
    p2gd_step,
    p2gdr,
    p2gdr_search,
)
from lowrankopt.variety import (
    ORTHONORMALITY_TOL,
    NormedGradient,
    VarietyPoint,
    point_from_matrix,
    project_step_factored,
    project_to_tangent_cone,
    project_to_variety,
    stationarity_measure,
    step_frame,
)


def make_point(rng, m, n, rank_bound, rank):
    u, sigma, v = random_point_factors(rng, m, n, rank)
    return VarietyPoint(u, sigma, v, rank_bound)


class CountingCompletion(MatrixCompletionProblem):
    """Completion problem that counts its cost and gradient evaluations."""

    def __init__(self, target, mask):
        super().__init__(target, mask)
        self.calls = {"eval": 0, "gradient": 0}

    def eval(self, x):
        self.calls["eval"] += 1
        return super().eval(x)

    def gradient(self, x):
        self.calls["gradient"] += 1
        return super().gradient(x)


class NaNGradientAfterFirst(CountingCompletion):
    """Completion problem whose gradient turns NaN from its second call on."""

    def gradient(self, x):
        g = super().gradient(x)
        return g if self.calls["gradient"] == 1 else np.full_like(g, np.nan)


class NaNCost(CountingCompletion):
    """Completion problem whose cost is NaN everywhere."""

    def eval(self, x):
        super().eval(x)
        return float("nan")


class NaNCostFar(MatrixCompletionProblem):
    """Completion problem whose cost is NaN outside a ball around the origin."""

    far = float("nan")

    def __init__(self, target, mask, radius):
        super().__init__(target, mask)
        self.radius = radius

    def eval(self, x):
        return super().eval(x) if frobenius(x) <= self.radius else self.far


class MinusInfCostFar(NaNCostFar):
    """Completion problem whose cost is -Inf outside a ball around the origin."""

    far = -np.inf


class BadGradient(CostFunction):
    """Ascent direction disguised as a gradient; must defeat the line search."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.shape = self.target.shape

    def eval(self, x):
        d = np.asarray(x) - self.target
        return 0.5 * float(np.sum(d * d))

    def gradient(self, x):
        return self.target - np.asarray(x)  # wrong sign


class WrongGradientBelowRankTwo(LowRankApproxProblem):
    """The right gradient at rank-2 points, an ascent direction at lower ranks."""

    def gradient(self, x):
        g = super().gradient(x)
        return g if np.linalg.matrix_rank(x) == 2 else -g


def wrong_below_rank_two_params() -> SolverParams:
    # Each step halves the distance to diag(3, 0.05, 0, 0), so sigma_2 of the
    # iterates from diag(3, 1, 0, 0) first falls below delta at iteration 5.
    return SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12,
                        line_search=LineSearchParams(alpha_hi=0.5, max_backtracks=5))


class TestParams:
    def test_line_search_validation(self):
        LineSearchParams()
        with pytest.raises(ValueError):
            LineSearchParams(alpha_lo=1.0, alpha_hi=0.5)
        with pytest.raises(ValueError):
            LineSearchParams(beta=1.0)
        with pytest.raises(ValueError):
            LineSearchParams(c=0.0)

    @pytest.mark.parametrize("field,value", [
        ("alpha_hi", np.inf), ("alpha_hi", np.nan), ("alpha_lo", np.nan), ("alpha_lo", -np.inf),
        ("beta", np.nan), ("c", np.inf),
    ])
    def test_line_search_rejects_nan_and_inf(self, field, value):
        with pytest.raises(ValueError):
            LineSearchParams(**{field: value})

    def test_solver_validation(self):
        SolverParams(rank_bound=2, delta=0.1)
        with pytest.raises(ValueError):
            SolverParams(rank_bound=2, delta=0.0)
        with pytest.raises(ValueError):
            SolverParams(rank_bound=2, delta=0.1, stop_tol=-1.0)
        with pytest.raises(ValueError, match="stop_tol"):
            SolverParams(rank_bound=2, delta=0.1, stop_tol=float("nan"))
        with pytest.raises(ValueError, match="stop_tol"):
            SolverParams(rank_bound=2, delta=0.1, stop_tol=float("inf"))
        with pytest.raises(ValueError):
            SolverParams(rank_bound=2, delta=0.1, max_iters=0)

    @pytest.mark.parametrize("cls, given, message", [
        (SolverParams, {"rank_bound": 2.5}, "'rank_bound' must be an integer, got 2.5"),
        (SolverParams, {"rank_bound": True}, "'rank_bound' must be an integer, got True"),
        (SolverParams, {"delta": "0.1"}, "'delta' must be a number, got '0.1'"),
        (SolverParams, {"stop_tol": False}, "'stop_tol' must be a number, got False"),
        (SolverParams, {"delta": 10**400}, "'delta' must be a number that fits a double"),
        (LineSearchParams, {"max_backtracks": 2.5}, "'max_backtracks' must be an integer, got 2.5"),
        (LineSearchParams, {"max_backtracks": np.float32(2.5)},
         "'max_backtracks' must be an integer, got np.float32(2.5)"),
        (LineSearchParams, {"c": np.True_}, "'c' must be a number, got np.True_"),
        (LineSearchParams, {"beta": "0.5"}, "'beta' must be a number, got '0.5'"),
        (LineSearchParams, {"c": None}, "'c' must be a number, got None"),
        (SolverParams, {"line_search": None}, "'line_search' must be a LineSearchParams, got None"),
        (SolverParams, {"line_search": {"alpha_hi": 2.0}},
         "'line_search' must be a LineSearchParams, got {'alpha_hi': 2.0}"),
    ])
    def test_wrongly_typed_field_is_named(self, cls, given, message):
        # As a run config's field is: not truncated (2.5 is not rank 2, True
        # not rank 1) and not left to fail inside the first line search.
        base = {"rank_bound": 2, "delta": 0.1} if cls is SolverParams else {}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**{**base, **given})

    def test_numbers_are_read_as_declared(self):
        params = SolverParams(rank_bound=np.int64(2), delta=1, max_iters=np.float32(30.0),
                              line_search=LineSearchParams(alpha_hi=2, max_backtracks=5.0))
        assert params == SolverParams(2, 1.0, max_iters=30,
                                      line_search=LineSearchParams(alpha_hi=2.0, max_backtracks=5))
        assert [type(v) for v in (params.rank_bound, params.delta, params.max_iters)] == [
            int, float, int]
        assert type(params.line_search.alpha_hi) is float
        assert SolverParams(2, 0.1).stop_tol is None


class TestStep:
    def test_full_step_from_zero(self):
        # target is feasible, so the step from zero lands exactly on it
        m_target = np.diag([1.0, 1.0, 0.0])
        problem = LowRankApproxProblem(m_target)
        point = point_from_matrix(np.zeros((3, 3)), 2)
        out = p2gd_step(problem, point, LineSearchParams(alpha_hi=1.0, c=0.1))
        assert out.accepted_alpha == 1.0
        assert out.backtrack_count == 0
        assert out.f_after == pytest.approx(0.0, abs=1e-28)
        assert out.s_before == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert_allclose(out.next_point.matrix(), m_target, atol=1e-12)
        # hand evaluation of the acceptance test at alpha = 1
        assert out.f_after <= out.f_before - 0.1 * 1.0 * out.s_before**2

    def test_armijo_certificate_random(self):
        rng = np.random.default_rng(0)
        ls = LineSearchParams()
        for _ in range(100):
            m, n = rng.integers(4, 10, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            problem = LowRankApproxProblem(rng.standard_normal((m, n)))
            out = p2gd_step(problem, point, ls)
            assert out.f_after <= out.f_before - ls.c * out.accepted_alpha * out.s_before**2
            assert out.accepted_alpha == pytest.approx(
                ls.alpha_hi * ls.beta**out.backtrack_count, rel=1e-15
            )
            assert out.next_point.rank <= r

    def test_rejects_stationary_point(self):
        point = point_from_matrix(np.diag([1.0, 0.0, 0.0]), 2)
        problem = LowRankApproxProblem(point.matrix())
        with pytest.raises(ValueError, match="stationary"):
            p2gd_step(problem, point, LineSearchParams())

    def test_defective_gradient_fails(self):
        rng = np.random.default_rng(1)
        problem = BadGradient(rng.standard_normal((4, 4)))
        point = point_from_matrix(np.zeros((4, 4)), 2)
        with pytest.raises(LineSearchFailure) as exc_info:
            p2gd_step(problem, point, LineSearchParams(max_backtracks=20))
        assert exc_info.value.last_alpha == pytest.approx(0.5**20, rel=1e-12)

    def test_factored_projection_agrees_with_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m, n = rng.integers(3, 11, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            tangent, direction, _ = project_to_tangent_cone(
                point, rng.standard_normal((m, n))
            )
            alpha = float(rng.uniform(0.01, 1.5))
            dense = project_to_variety(point.matrix() + alpha * direction, r)
            fact = project_step_factored(point, step_frame(point, tangent), alpha)
            assert frobenius(dense.matrix() - fact.matrix()) <= 1e-10 * (
                1.0 + frobenius(dense.matrix())
            )

    def test_factored_projection_larger_shapes(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            point = make_point(rng, 40, 30, 8, int(rng.integers(0, 9)))
            tangent, direction, _ = project_to_tangent_cone(
                point, rng.standard_normal((40, 30))
            )
            alpha = float(rng.uniform(0.01, 1.5))
            dense = project_to_variety(point.matrix() + alpha * direction, 8)
            fact = project_step_factored(point, step_frame(point, tangent), alpha)
            assert frobenius(dense.matrix() - fact.matrix()) <= 1e-10 * (
                1.0 + frobenius(dense.matrix())
            )

    def test_factored_projection_from_zero_with_zero_tangent(self):
        point = point_from_matrix(np.zeros((6, 5)), 2)
        tangent, _, _ = project_to_tangent_cone(point, np.zeros((6, 5)))
        out = project_step_factored(point, step_frame(point, tangent), 0.5)
        assert out.rank == 0
        assert out.shape == (6, 5)
        assert out.rank_bound == 2
        assert_allclose(out.matrix(), np.zeros((6, 5)))

    def test_factored_projection_overflow_is_nonfinite(self):
        # An alpha-scaled stack that overflows; then a finite stack whose
        # first column's norm, alpha * sigma_1 = 2.3e308, overflows in QR.
        rng = np.random.default_rng(28)
        zero = point_from_matrix(np.zeros((6, 5)), 2)
        tangent, _, _ = project_to_tangent_cone(zero, 1e150 * rng.standard_normal((6, 5)))
        sigma_1 = tangent.d_truncated.sigma[0]
        frame = step_frame(zero, tangent)
        with pytest.raises(NonFiniteError, match="factors"):
            project_step_factored(zero, frame, 1e200)
        with pytest.raises(NonFiniteError, match="core"):
            project_step_factored(zero, frame, 2.3 * (1e308 / sigma_1))

    def test_factored_projection_near_overflow_keeps_its_rank(self):
        # A finite core whose sigma_1 times max(m, n) passes a double: the
        # step keeps its rank. One whose sigma_1 itself overflows is named;
        # a rank cutoff of Inf would have made both the zero point.
        rng = np.random.default_rng(0)
        point = point_from_matrix(truncate_to_rank(rng.standard_normal((6, 5)), 2)[0], 2)
        problem = LowRankApproxProblem(rng.standard_normal((6, 5)))
        tangent, _, _ = project_to_tangent_cone(point, -problem.gradient(point.matrix()))
        frame = step_frame(point, tangent)
        peak = np.abs(frame.core).max()
        near = project_step_factored(point, frame, 1.5e308 / peak)
        assert near.rank == 2 and 1e308 < near.sigma[0] < np.inf
        with pytest.raises(NonFiniteError, match="singular values"):
            project_step_factored(point, frame, 1.7e308 / peak)

    def test_factored_projection_failure_is_numerical_failure(self, monkeypatch):
        rng = np.random.default_rng(29)
        point = make_point(rng, 6, 5, 2, 1)
        tangent, _, _ = project_to_tangent_cone(point, rng.standard_normal((6, 5)))
        frame = step_frame(point, tangent)

        def no_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with pytest.raises(NumericalFailure, match=r"^SVD did not converge for shape \(3, 3\)$"):
            project_step_factored(point, frame, 0.5)

    def test_factored_projection_path_in_step(self):
        # the step projects through the factored path and still reproduces
        # the dense reference step, from rank 0, deficient and full rank
        rng = np.random.default_rng(3)
        ls = LineSearchParams()
        for rank in (0, 1, 2, 3):
            for _ in range(5):
                point = make_point(rng, 6, 5, 3, rank)
                problem = LowRankApproxProblem(rng.standard_normal((6, 5)))
                out = p2gd_step(problem, point, ls)
                y, _, alpha = reference_backtracking_step(problem, point.matrix(), 3)
                assert out.accepted_alpha == alpha
                assert frobenius(out.next_point.matrix() - y) <= 1e-10


def diagonal_instance(rank_bound, start):
    """Low-rank approximation of diag(3, 2, 1, .5, .25) padded with a zero
    row: from ``diag(1, 5)`` every column-space part C of its directions
    is exactly zero, so the tall factors of a step are rank-deficient."""
    target = np.zeros((6, 5))
    target[:5] = np.diag([3.0, 2.0, 1.0, 0.5, 0.25])
    x = np.zeros((6, 5))
    if start == "diag(1, 5)":
        x[0, 0], x[1, 1] = 1.0, 5.0
    return LowRankApproxProblem(target), point_from_matrix(x, rank_bound)


class TestStepFrame:
    """The frame of a direction, taken once per step, and the trials in it."""

    @pytest.mark.parametrize("rank_bound, start", [
        (2, "diag(1, 5)"), (3, "diag(1, 5)"), (2, "zero"),
    ], ids=["full-rank", "spare-rank", "rank-zero"])
    def test_rank_deficient_factors(self, rank_bound, start):
        problem, point = diagonal_instance(rank_bound, start)
        tangent = stationarity_measure(problem, point).tangent
        frame = step_frame(point, tangent)
        k = point.rank
        if k:
            # Householder QR alone fills the deficient columns from span(U).
            q = np.linalg.qr(np.hstack([tangent.c_rows, tangent.d_truncated.u]))[0]
            assert np.abs(point.u.T @ q).max() == pytest.approx(1.0)
        for side, q in ((point.u, frame.left), (point.v, frame.right)):
            assert q.shape[1] == k + tangent.d_truncated.rank
            assert np.abs(side.T @ q).max(initial=0.0) <= 1e-14
            assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=ORTHONORMALITY_TOL)
        # The tangent is G's projection; the step walks against it.
        _, direction, _ = project_to_tangent_cone(point, problem.gradient(point.matrix()))
        for alpha in (2.0, 1.0, 0.5, 0.25):
            y = project_step_factored(point, frame, -alpha)
            for q in (y.u, y.v):
                assert_allclose(q.T @ q, np.eye(y.rank), atol=ORTHONORMALITY_TOL)
            dense = project_to_variety(point.matrix() - alpha * direction, rank_bound)
            assert frobenius(y.matrix() - dense.matrix()) <= 1e-10 * (
                1.0 + frobenius(dense.matrix())
            )

    def test_backtracking_step_takes_its_qrs_once(self, monkeypatch):
        rng = np.random.default_rng(31)
        point = make_point(rng, 8, 6, 3, 2)
        problem = LowRankApproxProblem(rng.standard_normal((8, 6)))
        report = stationarity_measure(problem, point)
        f_value = problem.eval(point.matrix())
        qr = np.linalg.qr
        calls = []

        def counting_qr(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        counts = {}
        for alpha_hi in (1.0, 64.0):
            calls.clear()
            out = p2gd_step(problem, point, LineSearchParams(alpha_hi=alpha_hi), report, f_value)
            counts[out.backtrack_count] = list(calls)
        assert min(counts) == 0 and max(counts) >= 3
        assert counts[0] == counts[max(counts)] == [(8, 3), (6, 3)]


class TestKappaBound:
    def test_zero_point(self):
        problem = LowRankApproxProblem(np.eye(3))
        point = point_from_matrix(np.zeros((3, 3)), 2)
        assert kappa_bound(problem, point, 1.0, 1.0) == 0.5

    def test_near_stationary_collapses(self):
        # at a stationary point the formula reduces to the gradient term plus L/2
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 5))
        x, _ = truncate_to_rank(a, 2)
        point = point_from_matrix(x, 2)
        problem = LowRankApproxProblem(a)
        report = stationarity_measure(problem, point)
        t = np.sqrt(2.0) / (2.0 * point.sigma_min)
        got = kappa_bound(problem, point, 1.0, 1.0)
        assert got == pytest.approx(t * report.gradient_norm + 0.5, rel=1e-6)

    def test_bound_past_a_double_is_inf(self):
        problem = LowRankApproxProblem(np.eye(3))
        point = point_from_matrix(np.diag([1.0, 0.5, 0.0]), 2)
        assert kappa_bound(problem, point, 1e300, 1.0) == np.inf

    def test_subnormal_sigma_min_at_a_stationary_point(self):
        # sqrt(r) / (2 sigma_min) is Inf at sigma_min = 5e-324; with a zero
        # gradient and s, neither term reads Inf * 0, and the bound is L / 2.
        d = np.diag([1.0, 0.0, 0.0]) * 5e-324
        assert kappa_bound(LowRankApproxProblem(d), point_from_matrix(d, 2), 1.0, 1.0) == 0.5

    @pytest.mark.parametrize("lipschitz", [0.0, "1.0", True, np.inf])
    def test_rejects_bad_lipschitz(self, lipschitz):
        problem = LowRankApproxProblem(np.eye(3))
        point = point_from_matrix(np.zeros((3, 3)), 2)
        with pytest.raises(ValueError, match="^'lipschitz' must be"):
            kappa_bound(problem, point, 1.0, lipschitz)

    # Positive and finite, as LineSearchParams has it; the zero point's
    # bound does not read alpha_hi, yet it is checked there too.
    @pytest.mark.parametrize("alpha_hi", [0.0, -1.0, np.nan, np.inf, "1.0", True])
    def test_rejects_bad_alpha_hi(self, alpha_hi):
        problem = LowRankApproxProblem(np.eye(3))
        point = point_from_matrix(np.zeros((3, 3)), 2)
        with pytest.raises(ValueError, match="^'alpha_hi' must be"):
            kappa_bound(problem, point, alpha_hi, 1.0)

    def test_step_floor(self):
        # guaranteed lower bound on the accepted step size, quadratic cost
        rng = np.random.default_rng(5)
        ls = LineSearchParams()
        for _ in range(200):
            m, n = rng.integers(4, 11, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            problem = LowRankApproxProblem(rng.standard_normal((m, n)))
            if stationarity_measure(problem, point).s_value == 0.0:
                continue
            out = p2gd_step(problem, point, ls)
            kappa = kappa_bound(problem, point, ls.alpha_hi, 1.0)
            assert out.accepted_alpha >= min(ls.alpha_lo, ls.beta * (1.0 - ls.c) / kappa)
            # sharper floor: the search starts at alpha_hi
            assert out.accepted_alpha >= min(ls.alpha_hi, ls.beta * (1.0 - ls.c) / kappa) * (
                1.0 - 1e-12
            )


class TestSearch:
    def test_stable_rank_matches_plain_step(self):
        rng = np.random.default_rng(6)
        point = make_point(rng, 6, 5, 3, 3)
        problem = LowRankApproxProblem(rng.standard_normal((6, 5)))
        params = SolverParams(rank_bound=3, delta=0.1, stop_tol=1e-12)
        assert point.delta_rank(0.1) == point.rank
        step = p2gd_step(problem, point, params.line_search)
        found = p2gdr_search(problem, point, params)
        best, record = found.step.next_point, found.record
        assert record.candidates_evaluated == 1
        assert record.chosen_j == 0
        assert record.delta_rank == record.rank == 3
        assert frobenius(best.matrix() - step.next_point.matrix()) == 0.0

    def test_small_singular_value_spawns_candidates(self):
        rng = np.random.default_rng(7)
        delta = 0.4
        x0 = np.diag([1.0, 0.2, 0.0])
        problem = LowRankApproxProblem(rng.standard_normal((3, 3)))
        point = point_from_matrix(x0, 2)
        params = SolverParams(rank_bound=2, delta=delta, stop_tol=1e-12)
        record = p2gdr_search(problem, point, params).record
        assert record.rank == 2
        assert record.delta_rank == 1
        assert record.candidates_evaluated == 2

    def test_stationary_truncation_is_its_own_candidate(self):
        # diag(1, 0, 0) is the minimizer, so its truncation of diag(1, 0.05, 0)
        # has s = 0 and stands without a line search; plain P2GD only creeps there
        problem = LowRankApproxProblem(np.diag([1.0, 0.0, 0.0]))
        x0 = np.diag([1.0, 0.05, 0.0])
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12,
                              line_search=LineSearchParams(alpha_hi=0.5))
        trace = p2gdr(problem, x0, params)
        assert [(r.chosen_j, r.accepted_alpha, r.candidates_evaluated)
                for r in trace.records] == [(1, 0.0, 2)]
        assert (trace.termination, trace.final_f, trace.final_rank) == ("stationary", 0.0, 1)
        plain = p2gd_plain(problem, x0, params)
        assert (plain.termination, len(plain.records), plain.final_rank) == ("stationary", 36, 2)

    def test_nonfinite_cost_at_truncated_candidate(self):
        class NaNAtRankOne(LowRankApproxProblem):
            def eval(self, x):
                return float("nan") if np.linalg.matrix_rank(x) == 1 else super().eval(x)

        rng = np.random.default_rng(7)
        problem = NaNAtRankOne(rng.standard_normal((3, 3)))
        point = point_from_matrix(np.diag([1.0, 0.2, 0.0]), 2)
        params = SolverParams(rank_bound=2, delta=0.4, stop_tol=1e-12)
        with pytest.raises(NonFiniteError, match="cost is nan"):
            p2gdr_search(problem, point, params)

    def test_candidate_dominance(self):
        # the reduction never loses to the plain step it includes
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, n = 6, 5
            rank = int(rng.integers(1, 4))
            point = make_point(rng, m, n, 3, rank)
            problem = LowRankApproxProblem(rng.standard_normal((m, n)))
            params = SolverParams(
                rank_bound=3, delta=float(rng.uniform(0.4, 2.5)), stop_tol=1e-12
            )
            plain = p2gd_step(problem, point, params.line_search)
            best = p2gdr_search(problem, point, params).step.next_point
            assert problem.eval(best.matrix()) <= plain.f_after + 1e-12

    def test_requires_nonstationary(self):
        problem = LowRankApproxProblem(np.diag([1.0, 0.0, 0.0]))
        point = point_from_matrix(np.diag([1.0, 0.0, 0.0]), 2)
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-8)
        with pytest.raises(ValueError, match="non-stationary"):
            p2gdr_search(problem, point, params)

    def test_failure_tagged_with_depth(self):
        rng = np.random.default_rng(9)
        problem = BadGradient(rng.standard_normal((4, 4)))
        point = point_from_matrix(np.zeros((4, 4)), 2)
        params = SolverParams(
            rank_bound=2,
            delta=0.1,
            stop_tol=1e-12,
            line_search=LineSearchParams(max_backtracks=5),
        )
        with pytest.raises(LineSearchFailure) as exc_info:
            p2gdr_search(problem, point, params)
        assert exc_info.value.reduction_depth == 0


    def test_failure_at_truncated_candidate_tagged_with_depth(self):
        problem = WrongGradientBelowRankTwo(np.diag([3.0, 0.05, 0.0, 0.0]))
        point = point_from_matrix(np.diag([3.0, 0.08, 0.0, 0.0]), 2)
        with pytest.raises(LineSearchFailure) as exc_info:
            p2gdr_search(problem, point, wrong_below_rank_two_params())
        assert exc_info.value.reduction_depth == 1


class TestOuterLoop:
    def test_stationary_start(self):
        a = np.diag([1.0, 0.0, 0.0])
        trace = p2gdr(
            LowRankApproxProblem(a), a, SolverParams(rank_bound=2, delta=0.1)
        )
        assert trace.termination == "stationary"
        assert trace.records == []
        assert trace.final_f == pytest.approx(0.0, abs=1e-20)

    def test_low_rank_approx_reaches_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((10, 8))
        sv = singular_values(a)
        params = SolverParams(
            rank_bound=3, delta=0.1 * sv[0], stop_tol=1e-8, max_iters=500
        )
        trace = p2gdr(LowRankApproxProblem(a), np.zeros((10, 8)), params)
        assert trace.termination == "stationary"
        assert trace.final_f == pytest.approx(0.5 * np.sum(sv[3:] ** 2), abs=1e-6)
        # from zero the rank grows, and never past the bound
        assert all(rec.rank <= 3 for rec in trace.records) and trace.final_rank <= 3

    def test_strict_descent_and_feasibility(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 6))
        mask = rng.uniform(size=(8, 6)) < 0.7
        problem = MatrixCompletionProblem(a, mask)
        x0, _ = truncate_to_rank(rng.standard_normal((8, 6)), 2)
        params = SolverParams(rank_bound=2, delta=0.3, max_iters=100, stop_tol=1e-6)
        trace = p2gdr(problem, x0, params)
        fs = [rec.f_value for rec in trace.records] + [trace.final_f]
        assert all(b < a_ for a_, b in zip(fs, fs[1:]))
        assert all(rec.rank <= 2 for rec in trace.records)
        assert trace.final_rank <= 2

    def test_max_iters_reason(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 6))
        mask = rng.uniform(size=(8, 6)) < 0.7
        problem = MatrixCompletionProblem(a, mask)
        x0, _ = truncate_to_rank(rng.standard_normal((8, 6)), 2)
        params = SolverParams(rank_bound=2, delta=0.3, max_iters=2, stop_tol=1e-14)
        trace = p2gdr(problem, x0, params)
        assert trace.termination == "max_iters"
        assert len(trace.records) == 2

    def test_line_search_failure_reason(self):
        rng = np.random.default_rng(13)
        problem = BadGradient(rng.standard_normal((4, 4)))
        params = SolverParams(
            rank_bound=2,
            delta=0.1,
            stop_tol=1e-12,
            line_search=LineSearchParams(max_backtracks=5),
        )
        trace = p2gdr(problem, np.zeros((4, 4)), params)
        assert trace.termination == "line_search_failure"

    def test_failure_at_truncated_candidate_keeps_partial_trace(self):
        problem = WrongGradientBelowRankTwo(np.diag([3.0, 0.05, 0.0, 0.0]))
        trace = p2gdr(problem, np.diag([3.0, 1.0, 0.0, 0.0]), wrong_below_rank_two_params())
        assert trace.termination == "line_search_failure"
        assert [rec.index for rec in trace.records] == [0, 1, 2, 3, 4]
        assert all(rec.candidates_evaluated == 1 for rec in trace.records)
        assert trace.final_point.sigma[1] == pytest.approx(0.05 + 0.95 / 32, rel=1e-12)
        assert trace.final_f == pytest.approx(problem.eval(trace.final_point.matrix()), rel=1e-12)

    def test_nonfinite_gradient_keeps_partial_trace(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((6, 5))
        problem = NaNGradientAfterFirst(a, rng.uniform(size=(6, 5)) < 0.7)
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12)
        trace = p2gdr(problem, np.zeros((6, 5)), params)
        assert trace.termination == "nonfinite"
        assert [rec.index for rec in trace.records] == [0]
        assert trace.final_point.rank > 0
        assert trace.final_f < trace.records[0].f_value
        assert np.isnan(trace.final_s)
        assert trace.summary()["final_s"] is None
        assert trace.summary()["final_f"] == trace.final_f

    def test_nonfinite_cost_at_start_takes_no_backtracks(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((6, 5))
        problem = NaNCost(a, rng.uniform(size=(6, 5)) < 0.7)
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12)
        trace = p2gdr(problem, np.zeros((6, 5)), params)
        assert trace.termination == "nonfinite"
        assert trace.records == []
        assert problem.calls["eval"] == 1
        assert trace.summary()["final_f"] is None

    def test_overflowing_gradient_norm_is_nonfinite(self):
        # every gradient entry is finite, but 1e300**2 overflows the norms to Inf
        problem = UserPolynomialProblem((3, 3), [([(0, 0, 1)], 1e300), ([(0, 0, 2)], 1.0)])
        with np.errstate(over="ignore"):
            trace = p2gdr(problem, np.zeros((3, 3)), SolverParams(rank_bound=1, delta=0.1))
        assert trace.termination == "nonfinite"
        assert trace.records == []
        assert np.isnan(trace.stop_tol)

    def test_nonfinite_trial_cost_backtracks(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((6, 5))
        problem = NaNCostFar(a, np.ones((6, 5), dtype=bool), 0.1 * frobenius(a))
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12, max_iters=1)
        trace = p2gdr(problem, np.zeros((6, 5)), params)
        assert trace.termination == "max_iters"
        assert 0.0 < trace.records[0].accepted_alpha < 1.0
        assert np.isfinite(trace.final_f)

    def test_accepted_minus_inf_cost_is_nonfinite(self):
        # -Inf passes the decrease test, so the first trial step is accepted
        rng = np.random.default_rng(26)
        a = rng.standard_normal((6, 5))
        problem = MinusInfCostFar(a, np.ones((6, 5), dtype=bool), 0.1 * frobenius(a))
        trace = p2gdr(problem, np.zeros((6, 5)), SolverParams(rank_bound=2, delta=0.1))
        assert trace.termination == "nonfinite"
        assert [rec.index for rec in trace.records] == [0]
        assert trace.records[0].accepted_alpha == 1.0
        assert np.isfinite(trace.records[0].f_value)
        assert trace.final_point.rank == 2
        assert trace.final_f == -np.inf and trace.summary()["final_f"] is None
        assert np.isnan(trace.final_s)

    def test_nonfinite_trial_point_is_nonfinite(self, monkeypatch):
        # A trial point whose singular values overflowed: the completion
        # problem's own evaluate meets a matrix of Inf and NaN entries.
        rng = np.random.default_rng(27)
        problem = MatrixCompletionProblem(rng.standard_normal((6, 5)), rng.random((6, 5)) < 0.7)
        step = solver.project_step_factored

        def overflowing_step(point, frame, alpha):
            # A copy takes the Inf past VarietyPoint's checks, which reject it.
            y = copy.copy(step(point, frame, alpha))
            object.__setattr__(y, "sigma", np.full(y.rank, np.inf))
            return y

        monkeypatch.setattr(solver, "project_step_factored", overflowing_step)
        with np.errstate(invalid="ignore"):
            trace = p2gdr(problem, np.zeros((6, 5)), SolverParams(rank_bound=2, delta=0.1))
        assert trace.termination == "nonfinite"
        assert trace.records == []
        assert np.isfinite(trace.final_f) and np.isnan(trace.final_s)

    @pytest.mark.parametrize("scale, alpha_hi", [
        (1e150, 1e160), (1e100, 1e250), (1e153, 1e155), (1e10, 1e300),
    ])
    def test_overflowing_trial_step_is_nonfinite(self, scale, alpha_hi):
        # The first trial's alpha-scaled factors overflow before any cost is
        # evaluated; the solve ends nonfinite, with no numpy warning.
        rng = np.random.default_rng(0)
        target = rng.standard_normal((6, 5)) * scale
        problem = MatrixCompletionProblem(target, rng.random((6, 5)) < 0.7)
        params = SolverParams(
            rank_bound=2, delta=1e-3, stop_tol=0.0,
            line_search=LineSearchParams(alpha_hi=alpha_hi),
        )
        trace = p2gdr(problem, np.zeros((6, 5)), params)
        assert trace.termination == "nonfinite"
        assert trace.records == []
        assert np.isfinite(trace.final_f) and np.isnan(trace.final_s)

    def test_infeasible_start(self):
        from lowrankopt.variety import InfeasiblePointError

        with pytest.raises(InfeasiblePointError):
            p2gdr(
                LowRankApproxProblem(np.eye(3)),
                np.diag([3.0, 2.0, 1.0]),
                SolverParams(rank_bound=2, delta=0.1),
            )

    def test_default_stop_tol_resolution(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 5))
        problem = LowRankApproxProblem(a)
        trace = p2gdr(problem, np.zeros((6, 5)), SolverParams(rank_bound=2, delta=0.3))
        assert trace.stop_tol == pytest.approx(1e-8 * frobenius(a), rel=1e-12)

    @pytest.mark.parametrize("solve", [p2gdr, p2gd_plain])
    def test_x0_of_another_shape_is_named(self, solve):
        # Checked before the rank bound is read against x0's shape: with a
        # bound of 2 a 2x2 start would read "rank bound 2 out of range".
        problem = LowRankApproxProblem(np.eye(3))
        with pytest.raises(ValueError, match=r"^x0 shape \(2, 2\) does not match "
                                             r"problem shape \(3, 3\)$"):
            solve(problem, np.eye(2), SolverParams(rank_bound=2, delta=0.1))

    def test_deterministic_traces(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((8, 6))
        mask = rng.uniform(size=(8, 6)) < 0.6
        problem = MatrixCompletionProblem(a, mask)
        x0, _ = truncate_to_rank(rng.standard_normal((8, 6)), 2)
        params = SolverParams(rank_bound=2, delta=0.3, max_iters=50, stop_tol=1e-10)
        t1 = p2gdr(problem, x0, params)
        t2 = p2gdr(problem, x0, params)
        assert t1.to_csv() == t2.to_csv()

    def test_plain_matches_reducing_on_stable_ranks(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((10, 8))
        sv = singular_values(a)
        x0, _ = truncate_to_rank(rng.standard_normal((10, 8)), 3)
        params = SolverParams(
            rank_bound=3, delta=0.05 * sv[-1], stop_tol=1e-8, max_iters=200
        )
        t_reduce = p2gdr(LowRankApproxProblem(a), x0, params)
        t_plain = p2gd_plain(LowRankApproxProblem(a), x0, params)
        assert all(rec.delta_rank == rec.rank for rec in t_reduce.records)
        assert t_reduce.to_csv() == t_plain.to_csv()

    @pytest.mark.parametrize("solve", [p2gd_plain, p2gdr], ids=["p2gd_plain", "p2gdr"])
    def test_one_gradient_and_cost_per_iterate(self, solve, monkeypatch):
        # one gradient and one cost per iterate, plus one cost per backtrack
        rng = np.random.default_rng(21)
        a, _ = truncate_to_rank(rng.standard_normal((40, 30)), 4)
        problem = CountingCompletion(a, rng.uniform(size=(40, 30)) < 0.5)
        backtracks = []
        step = solver.p2gd_step

        def counted_step(*args, **kwargs):
            out = step(*args, **kwargs)
            backtracks.append(out.backtrack_count)
            return out

        monkeypatch.setattr(solver, "p2gd_step", counted_step)
        params = SolverParams(rank_bound=4, delta=1e-12, max_iters=300)
        trace = solve(problem, np.zeros((40, 30)), params)
        assert trace.records
        assert all(rec.candidates_evaluated == 1 for rec in trace.records)
        assert problem.calls["gradient"] == len(trace.records) + 1
        assert problem.calls["eval"] == 1 + len(trace.records) + sum(backtracks)

    def test_plain_never_reduces(self):
        rng = np.random.default_rng(17)
        x0 = np.diag([1.0, 0.01, 0.0])
        problem = LowRankApproxProblem(rng.standard_normal((3, 3)))
        params = SolverParams(rank_bound=2, delta=0.5, max_iters=5, stop_tol=1e-12)
        trace = p2gd_plain(problem, x0, params)
        assert all(rec.candidates_evaluated == 1 for rec in trace.records)
        assert all(rec.chosen_j == 0 for rec in trace.records)

    def test_trace_csv_shape(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((6, 5))
        params = SolverParams(rank_bound=2, delta=0.3, max_iters=20, stop_tol=1e-8)
        trace = p2gdr(LowRankApproxProblem(a), np.zeros((6, 5)), params)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "iter,f,s,rank,delta_rank,chosen_j,alpha,candidates"
        assert len(lines) == len(trace.records) + 1
        summary = trace.summary()
        assert set(summary) == {
            "termination", "iters", "final_f", "final_s", "final_rank", "wall_time_ms",
        }
        assert summary["termination"] == trace.termination
        assert summary["iters"] == len(trace.records)
        assert summary["final_rank"] == trace.final_rank

    def test_record_invariants_along_run(self):
        # recorded fields stay inside their documented ranges on a run
        # that actually exercises rank reduction
        rng = np.random.default_rng(19)
        a = rng.standard_normal((8, 6))
        mask = rng.uniform(size=(8, 6)) < 0.5
        problem = MatrixCompletionProblem(a, mask)
        u, _, v = random_point_factors(rng, 8, 6, 3)
        x0 = (u * np.array([2.0, 1.0, 0.1])) @ v.T
        params = SolverParams(rank_bound=3, delta=0.5, max_iters=60, stop_tol=1e-6)
        trace = p2gdr(problem, x0, params)
        assert trace.records
        assert any(rec.candidates_evaluated > 1 for rec in trace.records)
        for i, rec in enumerate(trace.records):
            assert rec.index == i
            assert rec.rank <= params.rank_bound
            assert 0 <= rec.delta_rank <= rec.rank
            assert 0 <= rec.chosen_j <= rec.rank - rec.delta_rank
            assert rec.candidates_evaluated == rec.rank - rec.delta_rank + 1
            assert rec.accepted_alpha >= 0.0

    def test_records_hold_no_instance_dict(self):
        # A trace keeps one record per iteration. With slots a record is its
        # header and eight field pointers: 104 B with its list slot on
        # Python 3.11, against 152 B with an instance dict. The records share
        # their field values, so only the records themselves are counted.
        count, bound = 1000, 128
        values = (7, 0.25, 1e-3, 3, 1, 0, 0.5, 2)
        tracemalloc.start()
        try:
            records = [solver.IterationRecord(*values) for _ in range(count)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(records) < bound, held


class TestScaleInvariance:
    """Scaling a residual cost's target, the start and ``delta`` by 2^e
    scales the whole solve exactly: f by 4^e; s, every iterate and the
    default ``stop_tol`` by 2^e; the rest of each record not at all."""

    @staticmethod
    def solve(kind, algorithm, e):
        rng = np.random.default_rng(13)
        m, n = 8, 6
        u = np.linalg.qr(rng.standard_normal((m, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        target = (u * [3.0, 2.0, 1.5, 0.2, 0.1, 0.05]) @ v.T
        mask = rng.random((m, n)) < 0.7
        # One small singular value along a weak direction of the target, so
        # that P2GDR reduces the rank at its first iteration.
        x0 = (u[:, [0, 1, 5]] * [2.0, 1.0, 0.1]) @ v[:, [0, 1, 5]].T
        scale = 2.0**e
        problem = (LowRankApproxProblem(target * scale) if kind == "lowrank"
                   else MatrixCompletionProblem(target * scale, mask))
        params = SolverParams(rank_bound=3, delta=0.5 * scale, max_iters=60,
                              line_search=LineSearchParams(alpha_hi=0.3))
        return algorithm(problem, x0 * scale, params)

    @pytest.mark.parametrize("e", [-60, 0, 60])
    @pytest.mark.parametrize("algorithm", [p2gdr, p2gd_plain])
    @pytest.mark.parametrize("kind", ["lowrank", "completion"])
    def test_default_stop_tol_scales_the_solve_bit_for_bit(self, kind, algorithm, e):
        base, scaled = self.solve(kind, algorithm, 0), self.solve(kind, algorithm, e)
        scale = 2.0**e
        assert len(base.records) > 5
        if algorithm is p2gdr:
            assert any(rec.chosen_j > 0 for rec in base.records)
        assert scaled.records == [
            replace(rec, f_value=rec.f_value * scale**2, s_value=rec.s_value * scale)
            for rec in base.records
        ]
        assert scaled.termination == base.termination
        assert scaled.stop_tol == base.stop_tol * scale
        assert (scaled.final_f, scaled.final_s) == (base.final_f * scale**2, base.final_s * scale)
        assert np.array_equal(scaled.final_point.matrix(), base.final_point.matrix() * scale)


class TestEvaluationContract:
    """Each point is evaluated once, through ``problem.evaluate``."""

    PARAMS = SolverParams(rank_bound=4, delta=1e-12, max_iters=300)

    @staticmethod
    def completion(cls=MatrixCompletionProblem):
        rng = np.random.default_rng(21)
        a, _ = truncate_to_rank(rng.standard_normal((40, 30)), 4)
        return cls(a, rng.uniform(size=(40, 30)) < 0.5)

    def test_subclass_redefining_one_method_is_called(self):
        calls = []

        class GradientOnly(MatrixCompletionProblem):
            def gradient(self, x):
                calls.append("gradient")
                return super().gradient(x)

        class EvalOnly(MatrixCompletionProblem):
            def eval(self, x):
                calls.append("eval")
                return super().eval(x)

        reference = p2gdr(self.completion(), np.zeros((40, 30)), self.PARAMS)
        for cls in (GradientOnly, EvalOnly):
            calls.clear()
            trace = p2gdr(self.completion(cls), np.zeros((40, 30)), self.PARAMS)
            assert trace.to_csv() == reference.to_csv()
            assert (trace.final_f, trace.final_s) == (reference.final_f, reference.final_s)
            assert len(calls) >= len(trace.records) + 1

    def test_matrix_formed_once_per_trial_and_at_start(self, monkeypatch):
        # X is formed inside the residual, from the point's factors, and
        # never through point.matrix().
        formed, matrices = [], []
        backtracks = []
        gradient, matrix, step = ResidualCost.gradient, VarietyPoint.matrix, solver.p2gd_step

        def counted_gradient(problem, x):
            if isinstance(x, VarietyPoint):
                formed.append(x.rank)
            return gradient(problem, x)

        def counted_matrix(point):
            matrices.append(point.rank)
            return matrix(point)

        def counted_step(*args, **kwargs):
            out = step(*args, **kwargs)
            backtracks.append(out.backtrack_count)
            return out

        monkeypatch.setattr(ResidualCost, "gradient", counted_gradient)
        monkeypatch.setattr(VarietyPoint, "matrix", counted_matrix)
        monkeypatch.setattr(solver, "p2gd_step", counted_step)
        trace = p2gdr(self.completion(), np.zeros((40, 30)), self.PARAMS)
        assert trace.termination == "stationary"
        assert all(rec.candidates_evaluated == 1 for rec in trace.records)
        assert len(formed) == 1 + len(trace.records) + sum(backtracks)
        assert matrices == []

    def test_gradients_reach_the_measure_only_at_their_own_point(self, monkeypatch):
        # Truncated candidates and rejected trials are evaluated too; the
        # gradient, and the norm it carries, reach stationarity_measure only
        # with the point it was taken at.
        rng = np.random.default_rng(23)
        m, n = 30, 25
        u = np.linalg.qr(rng.standard_normal((m, 4)))[0]
        v = np.linalg.qr(rng.standard_normal((n, 4)))[0]
        problem = MatrixCompletionProblem((u * [5.0, 3.0, 2.0, 0.05]) @ v.T,
                                          rng.random((m, n)) < 0.6)
        evaluated, measured, backtracks = [], [], []
        evaluate, measure, step = problem.evaluate, solver.stationarity_measure, solver.p2gd_step

        def counted_evaluate(point):
            f, gradient = evaluate(point)
            evaluated.append((point, gradient))
            return f, gradient

        def counted_measure(problem, point, gradient=None):
            measured.append((point, gradient))
            return measure(problem, point, gradient)

        def counted_step(*args, **kwargs):
            out = step(*args, **kwargs)
            backtracks.append(out.backtrack_count)
            return out

        monkeypatch.setattr(problem, "evaluate", counted_evaluate)
        monkeypatch.setattr(solver, "stationarity_measure", counted_measure)
        monkeypatch.setattr(solver, "p2gd_step", counted_step)
        params = SolverParams(rank_bound=4, delta=1.0, max_iters=20,
                              line_search=LineSearchParams(alpha_hi=3.0))
        trace = p2gdr(problem, np.zeros((m, n)), params)
        assert sum(backtracks) > 0
        assert any(r.candidates_evaluated > 1 for r in trace.records)
        assert any(r.chosen_j > 0 for r in trace.records)
        # Each gradient measured is the one evaluate returned for that very
        # point, a truncated candidate too.
        pairs = {(id(p), id(g)) for p, g in evaluated}
        for point, gradient in measured:
            assert isinstance(gradient, NormedGradient)
            assert (id(point), id(gradient)) in pairs
        # No rejected trial's gradient reaches the measure.
        handed = {id(g) for _, g in measured}
        assert sum(id(g) not in handed for _, g in evaluated) >= sum(backtracks)

    def test_search_hands_over_the_winners_gradient(self):
        rng = np.random.default_rng(22)
        problem = MatrixCompletionProblem(rng.standard_normal((8, 6)), rng.random((8, 6)) < 0.6)
        point = make_point(rng, 8, 6, 3, 3)
        found = p2gdr_search(problem, point, SolverParams(rank_bound=3, delta=0.1, stop_tol=0.0))
        best = found.step.next_point
        assert found.step.f_after == problem.eval(best.matrix())
        assert np.array_equal(found.step.gradient(), problem.gradient(best.matrix()))

    def test_stationary_truncation_hands_over_its_zero_step(self):
        # The stationary copy wins with the zero step and the gradient its
        # own evaluate returned.
        problem = LowRankApproxProblem(np.diag([1.0, 0.0, 0.0]))
        point = point_from_matrix(np.diag([1.0, 0.05, 0.0]), 2)
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12,
                              line_search=LineSearchParams(alpha_hi=0.5))
        found = p2gdr_search(problem, point, params)
        step, best = found.step, found.step.next_point
        assert (found.record.chosen_j, found.record.accepted_alpha) == (1, 0.0)
        assert (best.rank, step.accepted_alpha, step.backtrack_count) == (1, 0.0, 0)
        assert step.f_after == step.f_before == problem.eval(best.matrix())
        assert np.array_equal(step.gradient(), problem.gradient(best.matrix()))

    def test_stationary_truncation_is_evaluated_once(self, monkeypatch):
        # The start, the iterate's one trial and the stationary copy: each
        # point is evaluated once, the copy that the solve stands on too.
        problem = LowRankApproxProblem(np.diag([1.0, 0.0, 0.0]))
        params = SolverParams(rank_bound=2, delta=0.1, stop_tol=1e-12,
                              line_search=LineSearchParams(alpha_hi=0.5))
        evaluated = []
        evaluate = problem.evaluate

        def counted_evaluate(point):
            evaluated.append(point)
            return evaluate(point)

        monkeypatch.setattr(problem, "evaluate", counted_evaluate)
        trace = p2gdr(problem, np.diag([1.0, 0.05, 0.0]), params)
        assert [r.chosen_j for r in trace.records] == [1]
        assert len(evaluated) == 3
        assert evaluated[-1] is trace.final_point

    def test_solve_holds_no_gradient_across_iterations(self):
        # From zero, D is G itself and each accepted gradient is let go once
        # measured, so the solve never holds two m-by-n arrays at once.
        rng = np.random.default_rng(60)
        m, n, r = 400, 300, 5
        target = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        problem = MatrixCompletionProblem(target, rng.random((m, n)) < 0.3)
        x0 = np.zeros((m, n))
        params = SolverParams(rank_bound=r, delta=0.1, stop_tol=0.0, max_iters=30)
        tracemalloc.start()
        try:
            trace = p2gdr(problem, x0, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (trace.termination, len(trace.records)) == ("max_iters", 30)
        assert peak < 1.5 * x0.nbytes


def test_search_agrees_with_bruteforce_candidates():
    # the argmin the search reports matches independently recomputed candidates
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        problem = LowRankApproxProblem(a)
        x0 = np.diag([1.0, 0.1, 0.0, 0.0])[:4, :4]
        point = point_from_matrix(x0, 2)
        params = SolverParams(rank_bound=2, delta=0.25, stop_tol=1e-12)
        found = p2gdr_search(problem, point, params)
        best, record = found.step.next_point, found.record
        fs = []
        for j in range(record.candidates_evaluated):
            x_hat = np.diag([1.0, 0.1, 0.0, 0.0])[:4, :4] if j == 0 else np.diag(
                [1.0, 0.0, 0.0, 0.0]
            )[:4, :4]
            _, fj, _ = reference_backtracking_step(problem, x_hat, 2)
            fs.append(fj)
        assert problem.eval(best.matrix()) == pytest.approx(min(fs), rel=1e-9, abs=1e-12)
        assert record.chosen_j == int(np.argmin(fs))
