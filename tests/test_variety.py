import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import complement, random_point_factors, reference_tangent_projection

from lowrankopt import linalg, variety
from lowrankopt.linalg import (
    NonFiniteError,
    compute_svd,
    distance_to_bounded_rank,
    frobenius,
    truncate_to_rank,
)
from lowrankopt.problems import LowRankApproxProblem, MatrixCompletionProblem
from lowrankopt.variety import (
    InfeasiblePointError,
    NormedGradient,
    VarietyPoint,
    point_from_matrix,
    project_to_tangent_cone,
    project_to_variety,
    stationarity_measure,
    stationarity_sandwich_check,
    tangent_curve,
    tangent_line_distance_bound,
    tightness_instance,
)


def make_point(rng, m, n, rank_bound, rank):
    u, sigma, v = random_point_factors(rng, m, n, rank)
    return VarietyPoint(u, sigma, v, rank_bound)


def no_leading_svd(monkeypatch, what: str) -> None:
    """Make every SVD that ``variety`` starts through ``linalg`` fail the test."""

    def no_svd(*_):
        raise AssertionError(f"SVD run for {what}")

    monkeypatch.setattr(variety, "_leading_svd", no_svd)


def graded(rng, m, n, sigma):
    """Matrix with singular values ``sigma`` and random singular vectors."""
    u = np.linalg.qr(rng.standard_normal((m, len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(sigma))))[0]
    return (u * np.asarray(sigma)) @ v.T


class TestPointFromMatrix:
    def test_diagonal(self):
        p = point_from_matrix(np.diag([2.0, 1.0, 0.0]), 2)
        assert p.rank == 2
        assert_allclose(p.sigma, [2.0, 1.0])
        assert_allclose(p.matrix(), np.diag([2.0, 1.0, 0.0]), atol=1e-14)

    def test_zero(self):
        p = point_from_matrix(np.zeros((3, 3)), 2)
        assert p.rank == 0
        assert p.sigma.size == 0
        assert_allclose(p.matrix(), np.zeros((3, 3)))

    def test_zero_needs_no_svd(self, monkeypatch, dense_svd_calls):
        no_leading_svd(monkeypatch, "the zero matrix")
        p = point_from_matrix(np.zeros((6, 5)), 3)
        assert (p.rank, p.rank_bound, p.shape) == (0, 3, (6, 5))
        assert dense_svd_calls == []

    @pytest.mark.parametrize("sigma", [
        np.logspace(0, -6, 8), np.linspace(3.0, 1.0, 8), [5.0, 4.0, 1e-3, 1e-3, 1e-9],
    ])
    def test_matches_dense_svd_above_the_cutoff(self, sigma, dense_svd_calls):
        rng = np.random.default_rng(len(sigma))
        x = graded(rng, 300, 250, sigma)
        p = point_from_matrix(x, 8)
        assert dense_svd_calls == []  # the leading-triplet iteration ran
        dense = compute_svd(x)
        assert p.rank == dense.numerical_rank == len(sigma)
        assert np.max(np.abs(p.sigma - dense.sigma[: p.rank])) <= 1e-13 * dense.sigma[0]
        assert frobenius(p.matrix() - x) <= 1e-12 * frobenius(x)

    @pytest.mark.parametrize("shape", [(300, 250), (30, 25)])
    def test_rank_just_above_the_bound_is_infeasible(self, shape):
        rng = np.random.default_rng(8)
        with pytest.raises(InfeasiblePointError):
            point_from_matrix(graded(rng, *shape, [1.0, 0.5, 0.2, 1e-8]), 3)
        assert point_from_matrix(graded(rng, *shape, [1.0, 0.5, 0.2]), 3).rank == 3

    def test_random_start_runs_one_dense_svd(self, dense_svd_calls):
        # as the CLI builds an x0 of "random:SEED"
        x0 = truncate_to_rank(np.random.default_rng(7).standard_normal((300, 250)), 6)[0]
        p = point_from_matrix(x0, 6)
        assert dense_svd_calls == [(300, 250)]
        assert p.rank == 6
        assert frobenius(p.matrix() - x0) <= 1e-12 * frobenius(x0)

    def test_tiny_value_below_threshold(self):
        p = point_from_matrix(np.diag([1.0, 1e-18, 0.0]), 2)
        assert p.rank == 1

    def test_infeasible(self):
        with pytest.raises(InfeasiblePointError):
            point_from_matrix(np.diag([3.0, 2.0, 1.0]), 2)

    def test_rank_bound_range(self):
        with pytest.raises(ValueError):
            point_from_matrix(np.zeros((3, 3)), 3)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 6))
        p = point_from_matrix(x, 4)
        assert p.rank == 3
        assert frobenius(p.matrix() - x) <= 1e-12 * frobenius(x)


class TestProjectToVariety:
    def test_truncates(self):
        p = project_to_variety(np.diag([3.0, 2.0, 1.0]), 2)
        assert p.rank == 2
        assert_allclose(p.sigma, [3.0, 2.0])

    def test_keeps_feasible(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        p = project_to_variety(x, 2)
        assert p.rank == 2
        assert frobenius(p.matrix() - x) == pytest.approx(
            distance_to_bounded_rank(x, 2), rel=1e-10
        )

    def test_rank_zero_needs_no_svd(self, monkeypatch, dense_svd_calls):
        no_leading_svd(monkeypatch, "rank bound 0")
        p = project_to_variety(np.arange(12.0).reshape(4, 3), 0)
        assert dense_svd_calls == []
        assert p.rank == 0
        assert p.shape == (4, 3)
        assert_allclose(p.matrix(), np.zeros((4, 3)))


class TestTangentProjection:
    def test_hand_example(self):
        # rank-1 point, diagonal direction: keep the aligned part fully,
        # keep the best rank-1 chunk of the orthogonal rest
        point = point_from_matrix(np.diag([1.0, 0.0, 0.0]), 2)
        _, projected, norm = project_to_tangent_cone(point, np.diag([5.0, 2.0, 1.0]))
        assert_allclose(projected, np.diag([5.0, 2.0, 0.0]), atol=1e-12)
        assert norm == pytest.approx(np.sqrt(29.0), rel=1e-12)

    def test_zero_point_is_truncation(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 4))
        point = point_from_matrix(np.zeros((5, 4)), 2)
        from lowrankopt.linalg import truncate_to_rank

        _, projected, norm = project_to_tangent_cone(point, g)
        expected, _ = truncate_to_rank(g, 2)
        assert_allclose(projected, expected, atol=1e-12)
        assert norm == pytest.approx(frobenius(expected), rel=1e-12)

    def test_full_rank_point_zero_budget(self):
        point = point_from_matrix(np.diag([1.0, 1.0, 0.0]), 2)
        g = np.diag([0.0, 0.0, 7.0])
        _, projected, norm = project_to_tangent_cone(point, g)
        assert_allclose(projected, np.zeros((3, 3)), atol=1e-12)
        assert norm == pytest.approx(0.0, abs=1e-12)
        assert frobenius(g - projected) == pytest.approx(7.0, rel=1e-12)

    @pytest.mark.parametrize("rank", [0, 3, 5])
    def test_peak_memory_within_three_copies(self, rank):
        # D lives in one m-by-n buffer and the SVD's V factor is not copied
        rng = np.random.default_rng(40)
        g = rng.standard_normal((400, 300))
        point = make_point(rng, 400, 300, 5, rank)
        tracemalloc.start()
        try:
            project_to_tangent_cone(point, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * g.nbytes

    def test_shape_mismatch(self):
        point = point_from_matrix(np.zeros((3, 3)), 2)
        with pytest.raises(ValueError, match="shape"):
            project_to_tangent_cone(point, np.zeros((2, 3)))

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m, n = rng.integers(3, 10, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            g = rng.standard_normal((m, n))
            _, projected, norm = project_to_tangent_cone(point, g)
            ref_proj, ref_norm, ref_res = reference_tangent_projection(
                point.u, point.sigma, point.v, r, g
            )
            assert frobenius(projected - ref_proj) <= 1e-9 * (1.0 + frobenius(g))
            assert norm == pytest.approx(ref_norm, rel=1e-9)

    def test_block_norm_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m, n = rng.integers(3, 10, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            decomp, projected, norm = project_to_tangent_cone(
                point, rng.standard_normal((m, n))
            )
            blocks = np.sqrt(
                np.sum(decomp.a**2)
                + np.sum(decomp.b_cols**2)
                + np.sum(decomp.c_rows**2)
                + np.sum(decomp.d_truncated.sigma**2)
            )
            assert frobenius(projected) == pytest.approx(blocks, rel=1e-9)
            assert norm == pytest.approx(blocks, rel=1e-12)
            assert decomp.d_truncated.sigma.size <= r - rank

    def test_matches_reference_extreme_aspect_ratios(self):
        rng = np.random.default_rng(31)
        for m, n in [(20, 3), (3, 20), (30, 2), (2, 30)]:
            r = min(m, n) - 1
            for rank in range(0, r + 1):
                point = make_point(rng, m, n, r, rank)
                g = rng.standard_normal((m, n))
                _, projected, norm = project_to_tangent_cone(point, g)
                ref_proj, ref_norm, _ = reference_tangent_projection(
                    point.u, point.sigma, point.v, r, g
                )
                assert frobenius(projected - ref_proj) <= 1e-9 * (1.0 + frobenius(g))
                assert norm == pytest.approx(ref_norm, rel=1e-9, abs=1e-12)

    def test_projection_optimality(self):
        # no sampled member of the feasible-direction cone comes closer
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, n = rng.integers(3, 10, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            z = rng.standard_normal((m, n))
            _, projected, _ = project_to_tangent_cone(point, z)
            up = complement(point.u, m)
            vp = complement(point.v, n)
            budget = r - rank
            w = np.zeros((m, n))
            if budget:
                w = up @ (
                    rng.standard_normal((m - rank, budget))
                    @ rng.standard_normal((budget, n - rank))
                ) @ vp.T
            if rank:
                w = (
                    w
                    + point.u @ rng.standard_normal((rank, rank)) @ point.v.T
                    + point.u @ rng.standard_normal((rank, n - rank)) @ vp.T
                    + up @ rng.standard_normal((m - rank, rank)) @ point.v.T
                )
            assert frobenius(z - projected) <= frobenius(z - w) + 1e-9


class TestStationarity:
    def test_best_approximation_is_stationary(self):
        rng = np.random.default_rng(6)
        from lowrankopt.linalg import singular_values, truncate_to_rank

        for _ in range(30):
            a = rng.standard_normal((8, 6))
            sv = singular_values(a)
            r = 3
            if sv[r - 1] - sv[r] < 1e-3:
                continue
            x, _ = truncate_to_rank(a, r)
            point = point_from_matrix(x, r)
            report = stationarity_measure(LowRankApproxProblem(a), point)
            assert report.s_value <= 1e-9 * frobenius(a)

    def test_at_zero(self):
        rng = np.random.default_rng(7)
        from lowrankopt.linalg import singular_values

        a = rng.standard_normal((6, 5))
        point = point_from_matrix(np.zeros((6, 5)), 2)
        report = stationarity_measure(LowRankApproxProblem(a), point)
        sv = singular_values(a)
        assert report.s_value == pytest.approx(np.sqrt(np.sum(sv[:2] ** 2)), rel=1e-12)

    def test_zero_gradient(self):
        rng = np.random.default_rng(8)
        point = make_point(rng, 5, 4, 2, 2)
        report = stationarity_measure(LowRankApproxProblem(point.matrix()), point)
        assert report.s_value <= 1e-14
        assert report.gradient_norm <= 1e-14

    def test_report_identity(self):
        # the projection and the residual are orthogonal pieces of the gradient
        rng = np.random.default_rng(9)
        for _ in range(200):
            m, n = rng.integers(3, 11, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            problem = LowRankApproxProblem(rng.standard_normal((m, n)))
            report = stationarity_measure(problem, point)
            g = problem.gradient(point.matrix())
            _, projected, _ = project_to_tangent_cone(point, -g)
            lhs = report.s_value**2 + frobenius(-g - projected) ** 2
            assert lhs == pytest.approx(report.gradient_norm**2, rel=1e-9)

    def test_full_rank_needs_no_variety_projection(self, monkeypatch):
        # At rank r the cone is the tangent space: no D-block is formed or truncated
        rng = np.random.default_rng(11)
        point = make_point(rng, 7, 6, 3, 3)
        problem = LowRankApproxProblem(rng.standard_normal((7, 6)))

        def no_projection(*_):
            raise AssertionError("project_to_variety called with no spare rank budget")

        monkeypatch.setattr(variety, "project_to_variety", no_projection)
        report = stationarity_measure(problem, point)
        assert report.tangent.d_truncated.rank == 0
        assert report.s_value > 0

    def test_report_matches_cone_projection_bitwise(self):
        rng = np.random.default_rng(12)
        for rank in range(4):
            for _ in range(5):
                point = make_point(rng, 9, 7, 3, rank)
                problem = LowRankApproxProblem(rng.standard_normal((9, 7)))
                report = stationarity_measure(problem, point)
                g = problem.gradient(point.matrix())
                # The report is G's own projection, bit for bit, signed zeros included.
                decomp, _, norm = project_to_tangent_cone(point, g)
                assert report.s_value == norm
                for name in ("a", "b_cols", "c_rows"):
                    assert_bitwise_equal(getattr(report.tangent, name), getattr(decomp, name))
                for name in ("u", "sigma", "v"):
                    assert_bitwise_equal(
                        getattr(report.tangent.d_truncated, name), getattr(decomp.d_truncated, name)
                    )
                # -G's projection has the same norm: the cone is closed under negation.
                assert project_to_tangent_cone(point, -g)[2] == norm

    @pytest.mark.parametrize("rank", [0, 2, 3], ids=["zero", "spare-rank", "full-rank"])
    def test_builds_one_point(self, rank, monkeypatch):
        # D's point at spare budget, or VarietyPoint.zero at full rank: no
        # second, negated copy of it.
        rng = np.random.default_rng(14)
        point = make_point(rng, 9, 7, 3, rank)
        problem = LowRankApproxProblem(rng.standard_normal((9, 7)))
        g = problem.gradient(point.matrix())
        built = []
        post_init = VarietyPoint.__post_init__

        def counting_post_init(self):
            built.append(self.rank)
            post_init(self)

        monkeypatch.setattr(VarietyPoint, "__post_init__", counting_post_init)
        report = stationarity_measure(problem, point, g)
        assert built == [report.tangent.d_truncated.rank] == [3 - rank]

    def test_tiny_gap_in_d_matches_dense_measure(self, dense_svd_calls):
        # D's 4th and 5th singular values differ by 5e-4 relative; budget 4 is
        # large enough a shape for the leading-triplet SVD.
        rng = np.random.default_rng(13)
        m, n, rank, budget = 140, 130, 2, 4
        uu = np.linalg.qr(rng.standard_normal((m, 40)))[0]
        vv = np.linalg.qr(rng.standard_normal((n, 40)))[0]
        point = VarietyPoint(uu[:, :rank], np.array([3.0, 1.0]), vv[:, :rank], rank + budget)
        sigma_d = np.concatenate([[10.0, 8.0, 6.0, 5.0, 5.0 / (1 + 5e-4)],
                                  2.0 * 0.8 ** np.arange(33)])
        g = (uu[:, rank:] * sigma_d) @ vv[:, rank:].T
        g += point.u @ rng.standard_normal((rank, n)) + rng.standard_normal((m, rank)) @ point.v.T

        class FixedGradient:
            def gradient(self, x):
                return g

        s_value = stationarity_measure(FixedGradient(), point).s_value
        assert dense_svd_calls == []
        _, dense, _ = reference_tangent_projection(
            point.u, point.sigma, point.v, point.rank_bound, -g
        )
        assert s_value == pytest.approx(dense, rel=1e-9)

    def test_sandwich_property(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            m, n = rng.integers(3, 13, size=2)
            r = int(rng.integers(1, min(4, min(m, n) - 1) + 1))
            rank = int(rng.integers(0, r + 1))
            point = make_point(rng, m, n, r, rank)
            report = stationarity_measure(
                LowRankApproxProblem(rng.standard_normal((m, n))), point
            )
            assert stationarity_sandwich_check(point, report)

    def test_sandwich_lower_bound_at_zero(self):
        # at the zero matrix the measure captures the top-r spectral mass,
        # which is at least an r/min(m,n) share of the gradient's energy
        rng = np.random.default_rng(30)
        for _ in range(50):
            m, n = rng.integers(3, 10, size=2)
            r = int(rng.integers(1, min(m, n)))
            point = point_from_matrix(np.zeros((m, n)), r)
            problem = LowRankApproxProblem(rng.standard_normal((m, n)))
            report = stationarity_measure(problem, point)
            factor = np.sqrt(r / min(m, n))
            assert report.s_value + 1e-9 >= factor * report.gradient_norm

    def test_sandwich_full_rank_reduces_to_upper(self):
        rng = np.random.default_rng(11)
        point = make_point(rng, 5, 5, 3, 3)
        report = stationarity_measure(LowRankApproxProblem(rng.standard_normal((5, 5))), point)
        assert report.gradient_norm + 1e-9 * report.gradient_norm >= report.s_value

    def test_frame_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m, n = rng.integers(3, 9, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(1, r + 1))
            point = make_point(rng, m, n, r, rank)
            problem = LowRankApproxProblem(rng.standard_normal((m, n)))
            signs = rng.choice([-1.0, 1.0], size=rank)
            flipped = VarietyPoint(point.u * signs, point.sigma.copy(), point.v * signs, r)
            s1 = stationarity_measure(problem, point).s_value
            s2 = stationarity_measure(problem, flipped).s_value
            assert s2 == pytest.approx(s1, rel=1e-9)


def assert_bitwise_equal(a, b):
    """Equal values and equal signs, also of zeros."""
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestSuppliedGradient:
    """A gradient handed to ``stationarity_measure`` changes nothing in its report."""

    @pytest.mark.parametrize("rank", [0, 2, 4], ids=["zero", "spare-rank", "full-rank"])
    def test_report_is_bitwise_the_same(self, rank):
        rng = np.random.default_rng(50)
        m, n, bound = 40, 30, 4
        point = make_point(rng, m, n, bound, rank)
        # Every residual is negative, so the unobserved entries of G are +0.0.
        target = point.matrix() + np.abs(rng.standard_normal((m, n))) + 0.1
        problem = MatrixCompletionProblem(target, rng.random((m, n)) < 0.3)
        _, gradient = problem.evaluate(point)
        supplied = stationarity_measure(problem, point, gradient())
        computed = stationarity_measure(problem, point)
        # The deferred gradient itself, which lends its norm.
        normed = stationarity_measure(problem, point, gradient)
        # The dense route: project G, formed as a whole, onto the cone.
        decomp, _, norm = project_to_tangent_cone(point, problem.gradient(point.matrix()))
        assert supplied.s_value == computed.s_value == normed.s_value == norm
        assert supplied.gradient_norm == computed.gradient_norm == normed.gradient_norm
        for name in ("a", "b_cols", "c_rows"):
            assert_bitwise_equal(getattr(supplied.tangent, name), getattr(computed.tangent, name))
            assert_bitwise_equal(getattr(supplied.tangent, name), getattr(normed.tangent, name))
            assert_bitwise_equal(getattr(supplied.tangent, name), getattr(decomp, name))
        for name in ("u", "sigma", "v"):
            d = getattr(supplied.tangent.d_truncated, name)
            assert_bitwise_equal(d, getattr(computed.tangent.d_truncated, name))
            assert_bitwise_equal(d, getattr(normed.tangent.d_truncated, name))
            assert_bitwise_equal(d, getattr(decomp.d_truncated, name))
        assert supplied.tangent.d_truncated.rank == bound - rank

    def test_carried_norm_is_read_in_place_of_g(self):
        rng = np.random.default_rng(54)
        m, n, bound = 40, 30, 4
        point = make_point(rng, m, n, bound, 3)
        problem = MatrixCompletionProblem(rng.standard_normal((m, n)), rng.random((m, n)) < 0.3)
        _, gradient = problem.evaluate(point)
        assert isinstance(gradient, NormedGradient)
        assert gradient.norm == frobenius(gradient())
        # A norm that disagrees with G shows that it is read, and only it.
        wrong = NormedGradient(gradient(), 1.0)
        report = stationarity_measure(problem, point, wrong)
        reference = stationarity_measure(problem, point, gradient())
        assert report.gradient_norm == 1.0
        assert report.s_value == reference.s_value
        # A non-finite carried norm raises as a non-finite G would.
        with pytest.raises(NonFiniteError):
            stationarity_measure(problem, point, NormedGradient(gradient(), np.inf))

    def test_full_rank_allocates_less_than_one_copy(self):
        # At full rank no D-block is formed.
        rng = np.random.default_rng(51)
        m, n, bound = 400, 300, 5
        point = make_point(rng, m, n, bound, bound)
        problem = MatrixCompletionProblem(rng.standard_normal((m, n)), rng.random((m, n)) < 0.3)
        _, gradient = problem.evaluate(point)
        g = gradient()
        tracemalloc.start()
        try:
            stationarity_measure(problem, point, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes

    def test_rank_zero_allocates_less_than_half_a_copy(self):
        # At rank 0 with spare budget, D is G itself: no m-by-n copy is formed.
        # G's spectrum decays, so its leading triplets take subspace sweeps
        # of m-by-(k + 10) blocks, not the dense SVD.
        rng = np.random.default_rng(52)
        m, n, bound = 400, 300, 5
        point = VarietyPoint.zero((m, n), bound)
        g = graded(rng, m, n, 0.7 ** np.arange(n))
        problem = LowRankApproxProblem(np.zeros((m, n)))
        stationarity_measure(problem, point, g)  # numpy's first-call caches
        tracemalloc.start()
        try:
            stationarity_measure(problem, point, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * g.nbytes

    @pytest.mark.parametrize("rank", [0, 2, 4], ids=["zero", "spare-rank", "full-rank"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_nonfinite_gradient_raises_without_warning(self, rank, entry):
        rng = np.random.default_rng(53)
        point = make_point(rng, 8, 6, 4, rank)
        g = rng.standard_normal((8, 6))
        g[3, 2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                stationarity_measure(LowRankApproxProblem(np.zeros((8, 6))), point, g)


class TestTangentCurve:
    def test_starts_at_point(self):
        rng = np.random.default_rng(13)
        point = make_point(rng, 6, 5, 3, 2)
        tangent, _, _ = project_to_tangent_cone(point, rng.standard_normal((6, 5)))
        assert_allclose(tangent_curve(point, tangent, 0.0), point.matrix(), atol=1e-14)

    def test_stays_feasible(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            m, n = rng.integers(3, 9, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(1, r + 1))
            point = make_point(rng, m, n, r, rank)
            tangent, _, _ = project_to_tangent_cone(point, rng.standard_normal((m, n)))
            t = float(rng.uniform(0.0, 2.0))
            gamma = tangent_curve(point, tangent, t)
            assert compute_svd(gamma).numerical_rank <= r

    def test_quadratic_expansion(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m, n = rng.integers(3, 9, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(1, r + 1))
            point = make_point(rng, m, n, r, rank)
            tangent, g_proj, _ = project_to_tangent_cone(point, rng.standard_normal((m, n)))
            t = float(rng.uniform(0.0, 2.0))
            quad = (
                (point.u @ tangent.a + 2.0 * tangent.c_rows) / point.sigma
            ) @ (tangent.a @ point.v.T + 2.0 * tangent.b_cols)
            expected = point.matrix() + t * g_proj + 0.25 * t * t * quad
            assert frobenius(tangent_curve(point, tangent, t) - expected) <= 1e-9 * max(
                frobenius(expected), 1.0
            )

    def test_quadratic_expansion_ill_conditioned(self):
        # spectra spanning seven orders of magnitude keep the identity tight
        rng = np.random.default_rng(32)
        for _ in range(100):
            m, n, r = 8, 7, 4
            rank = int(rng.integers(1, r + 1))
            u, _, v = random_point_factors(rng, m, n, rank)
            sigma = np.sort(10.0 ** rng.uniform(-6, 1, size=rank))[::-1].copy()
            point = VarietyPoint(u, sigma, v, r)
            tangent, g_proj, _ = project_to_tangent_cone(point, rng.standard_normal((m, n)))
            t = float(rng.uniform(0.0, 2.0))
            quad = (
                (point.u @ tangent.a + 2.0 * tangent.c_rows) / point.sigma
            ) @ (tangent.a @ point.v.T + 2.0 * tangent.b_cols)
            expected = point.matrix() + t * g_proj + 0.25 * t * t * quad
            assert frobenius(tangent_curve(point, tangent, t) - expected) <= 1e-9 * max(
                frobenius(expected), 1.0
            )

    def test_curve_witnesses_distance(self):
        # the curve at t=1 is feasible, so it upper-bounds the distance
        rng = np.random.default_rng(16)
        for _ in range(100):
            m, n = rng.integers(3, 9, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(1, r + 1))
            point = make_point(rng, m, n, r, rank)
            tangent, g_proj, _ = project_to_tangent_cone(point, rng.standard_normal((m, n)))
            lhs = distance_to_bounded_rank(point.matrix() + g_proj, r)
            rhs = frobenius(point.matrix() + g_proj - tangent_curve(point, tangent, 1.0))
            assert lhs <= rhs + 1e-10

    def test_undefined_at_zero(self):
        rng = np.random.default_rng(17)
        point = point_from_matrix(np.zeros((4, 4)), 2)
        tangent, _, _ = project_to_tangent_cone(point, rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            tangent_curve(point, tangent, 1.0)


class TestDistanceBound:
    def test_property(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            m, n = rng.integers(3, 10, size=2)
            r = int(rng.integers(1, min(m, n)))
            rank = int(rng.integers(1, r + 1))
            point = make_point(rng, m, n, r, rank)
            _, g_proj, norm = project_to_tangent_cone(point, rng.standard_normal((m, n)))
            dist = distance_to_bounded_rank(point.matrix() + g_proj, r)
            assert dist <= tangent_line_distance_bound(point, norm) + 1e-10

    def test_zero_direction(self):
        rng = np.random.default_rng(19)
        point = make_point(rng, 5, 5, 2, 2)
        assert tangent_line_distance_bound(point, 0.0) == 0.0
        assert distance_to_bounded_rank(point.matrix(), 2) <= 1e-12

    def test_undefined_at_zero_point(self):
        point = point_from_matrix(np.zeros((3, 3)), 2)
        with pytest.raises(ValueError):
            tangent_line_distance_bound(point, 1.0)

    def test_formula(self):
        rng = np.random.default_rng(20)
        point = make_point(rng, 6, 6, 3, 2)
        got = tangent_line_distance_bound(point, 1.7)
        assert got == pytest.approx(np.sqrt(2.0) / (2.0 * point.sigma_min) * 1.7**2, rel=1e-12)


class TestTightnessInstance:
    def test_reference_values(self):
        point, g = tightness_instance(2, 3, 3, 0.25)
        assert point.sigma_min == pytest.approx(1.0, abs=1e-14)
        assert frobenius(g) ** 2 == pytest.approx(2.0, abs=1e-12)
        dist = distance_to_bounded_rank(point.matrix() + g, 2)
        assert dist == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)
        ratio = dist / frobenius(g) ** 2
        assert ratio >= 1.0 / 2.0 - 0.25 - 1e-10

    def test_smallest_instance(self):
        point, g = tightness_instance(1, 2, 2, 0.25)
        assert_allclose(point.matrix(), np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(g, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_sigma_min_scales(self):
        for eps in (0.05, 0.25, 1.0):
            point, _ = tightness_instance(2, 4, 5, eps)
            assert point.sigma_min == pytest.approx(1.0 / (4.0 * eps), rel=1e-12)

    def test_direction_is_feasible(self):
        point, g = tightness_instance(2, 3, 3, 0.25)
        _, projected, _ = project_to_tangent_cone(point, g)
        assert_allclose(projected, g, atol=1e-12)

    def test_shape_too_small(self):
        with pytest.raises(ValueError):
            tightness_instance(2, 2, 3, 0.25)


def test_continuity_of_measure_on_fixed_rank():
    # shrinking same-rank perturbations shrink the measure's oscillation
    rng = np.random.default_rng(21)
    point = make_point(rng, 8, 7, 4, 2)
    problem = LowRankApproxProblem(rng.standard_normal((8, 7)))
    s0 = stationarity_measure(problem, point).s_value
    x = point.matrix()
    deviations = []
    for h in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for _ in range(40):
            e = rng.standard_normal((8, 7))
            y = x + h * e / frobenius(e)
            fact = compute_svd(y).leading(2)
            y_pt = VarietyPoint(fact.u, fact.sigma, fact.v, 4)
            worst = max(worst, abs(stationarity_measure(problem, y_pt).s_value - s0))
        deviations.append(worst)
    assert deviations[0] > deviations[1] > deviations[2]


def test_point_validation():
    rng = np.random.default_rng(22)
    u, sigma, v = random_point_factors(rng, 5, 4, 2)
    with pytest.raises(ValueError, match="orthonormal"):
        VarietyPoint(u * 2.0, sigma, v, 3)
    with pytest.raises(ValueError, match="nonincreasing"):
        VarietyPoint(u, np.array([1.0, 2.0]), v, 3)
    with pytest.raises(InfeasiblePointError):
        VarietyPoint(u, sigma, v, 1)
    with pytest.raises(ValueError):
        VarietyPoint(u, sigma, v, 4)  # bound not below min(m, n)
    # A NaN fails every comparison, so it must fail the checks rather than
    # slip past them, and an Inf is no singular value.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be finite, positive and nonincreasing"):
            VarietyPoint(np.eye(4)[:, :1], np.array([bad]), np.eye(3)[:, :1], 1)
    with pytest.raises(ValueError, match="finite, positive"):
        VarietyPoint(u, np.array([sigma[0], np.nan]), v, 3)
    for name in ("u", "v"):
        factors = {"u": u.copy(), "v": v.copy()}
        factors[name][1, 1] = np.nan
        with pytest.raises(ValueError, match=f"columns of {name} are not orthonormal"):
            VarietyPoint(factors["u"], sigma, factors["v"], 3)


def test_point_arrays_are_read_only():
    rng = np.random.default_rng(33)
    point = make_point(rng, 5, 4, 2, 2)
    with pytest.raises(ValueError):
        point.u[0, 0] = 7.0
    with pytest.raises(ValueError):
        point.sigma[0] = 7.0


def test_truncated_keeps_leading_triplets():
    rng = np.random.default_rng(23)
    point = make_point(rng, 6, 5, 3, 3)
    cut = point.truncated(1)
    assert cut.rank == 1
    assert_allclose(cut.sigma, point.sigma[:1])
    assert frobenius(cut.matrix() - point.matrix()) == pytest.approx(
        np.sqrt(np.sum(point.sigma[1:] ** 2)), rel=1e-12
    )


def assert_close_normwise(a, b, rtol):
    assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


class TestFrameProducts:
    """``U^T G`` and ``G V`` taken over several row blocks of G."""

    M, N, BLOCK_ROWS = 11, 6, 3

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # three whole blocks of three rows and a remainder of two
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", self.BLOCK_ROWS * 8 * self.N)

    @pytest.mark.parametrize("rank", [0, 1, 4])
    def test_blocked_products_match_the_whole_ones(self, rank):
        rng = np.random.default_rng(70 + rank)
        point = make_point(rng, self.M, self.N, 4, rank)
        g = rng.standard_normal((self.M, self.N))
        utg, gv = variety._frame_products(g, point.u, point.v)
        assert utg.shape == (rank, self.N) and gv.shape == (self.M, rank)
        if rank:
            assert_close_normwise(utg, point.u.T @ g, 1e-13)
            assert_close_normwise(gv, g @ point.v, 1e-13)

    def test_one_block_is_the_whole_product(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", self.M * 8 * self.N)
        rng = np.random.default_rng(74)
        point = make_point(rng, self.M, self.N, 4, 3)
        g = rng.standard_normal((self.M, self.N))
        utg, gv = variety._frame_products(g, point.u, point.v)
        assert_bitwise_equal(utg, point.u.T @ g)
        assert_bitwise_equal(gv, g @ point.v)

    def test_two_blocks_are_the_whole_product(self, monkeypatch):
        # six rows a block: an 11-row G spans a block and a remainder of five
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 6 * 8 * self.N)
        rng = np.random.default_rng(78)
        point = make_point(rng, self.M, self.N, 4, 3)
        g = rng.standard_normal((self.M, self.N))
        utg, gv = variety._frame_products(g, point.u, point.v)
        assert_bitwise_equal(utg, point.u.T @ g)
        assert_bitwise_equal(gv, g @ point.v)

    @pytest.mark.parametrize("rank", [0, 2, 4], ids=["zero", "spare-rank", "full-rank"])
    def test_report_agrees_with_the_reference_projection(self, rank):
        rng = np.random.default_rng(75 + rank)
        point = make_point(rng, self.M, self.N, 4, rank)
        # Every residual is negative, so the unobserved ones would be -0.0.
        target = point.matrix() + np.abs(rng.standard_normal((self.M, self.N))) + 0.1
        problem = MatrixCompletionProblem(target, rng.random((self.M, self.N)) < 0.4)
        g = problem.gradient(point.matrix())
        report = stationarity_measure(problem, point)
        projected, reference, _ = reference_tangent_projection(
            point.u, point.sigma, point.v, 4, -g)
        assert report.gradient_norm == frobenius(g)
        assert report.s_value == pytest.approx(reference, rel=1e-12)
        _, dense, norm = project_to_tangent_cone(point, g)
        assert norm == report.s_value
        assert_close_normwise(-dense, projected, 1e-12)



INT_A = graded(np.random.default_rng(90), 6, 5, [3.0, 2.0, 1.0, 0.5, 0.25])
INT_POINT = project_to_variety(INT_A, 3)
# Each entry that reads an integer argument, called with the value 2 for it.
INTEGER_ENTRIES = {
    "leading": ("k", lambda v: compute_svd(INT_A).leading(v)),
    "truncate_to_rank": ("target", lambda v: truncate_to_rank(INT_A, v)),
    "distance_to_bounded_rank": ("target", lambda v: distance_to_bounded_rank(INT_A, v)),
    "point_from_matrix": (
        "rank_bound", lambda v: point_from_matrix(INT_POINT.truncated(2).matrix(), v)),
    "project_to_variety": ("rank_bound", lambda v: project_to_variety(INT_A, v)),
    "truncated": ("new_rank", lambda v: INT_POINT.truncated(v)),
    "VarietyPoint": ("rank_bound", lambda v: VarietyPoint(
        INT_POINT.u[:, :2], INT_POINT.sigma[:2], INT_POINT.v[:, :2], v)),
    "tightness_instance-r": ("r", lambda v: tightness_instance(v, 4, 5, 0.1)),
    "tightness_instance-m": ("m", lambda v: tightness_instance(1, v, 3, 0.1)),
    "tightness_instance-n": ("n", lambda v: tightness_instance(1, 3, v, 0.1)),
}
# The largest rank each rank-taking entry accepts at INT_A's 6x5 shape.
RANK_TOPS = {"leading": 5, "truncate_to_rank": 5, "distance_to_bounded_rank": 5,
             "point_from_matrix": 4, "project_to_variety": 4, "truncated": 3, "VarietyPoint": 4}


def result_parts(result) -> list:
    """``result``'s arrays and numbers, flattened, with a point's bound."""
    if isinstance(result, tuple):
        return [part for item in result for part in result_parts(item)]
    if isinstance(result, VarietyPoint):
        return [result.u, result.sigma, result.v, result.rank_bound]
    if isinstance(result, variety.SvdFactorization):
        return [result.u, result.sigma, result.v]
    return [result]


class TestIntegerArguments:
    """Every rank, size and bound a caller passes is read by ``json_number``:
    a fraction, a bool or a string is named, never truncated or coerced."""

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "string"])
    def test_inexact_value_is_named(self, entry, value):
        name, call = INTEGER_ENTRIES[entry]
        message = f"'{name}' must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    @pytest.mark.parametrize("value", [2.0, np.int64(2)], ids=["float", "numpy"])
    def test_integral_value_is_read_as_int(self, entry, value):
        _, call = INTEGER_ENTRIES[entry]
        exact, read = result_parts(call(2)), result_parts(call(value))
        assert len(exact) == len(read)
        for a, b in zip(exact, read):
            assert type(a) is type(b) and np.array_equal(a, b)

    @pytest.mark.parametrize("k", [-1, 6, 9])
    def test_leading_outside_its_width_is_named(self, k):
        # Slicing would drop the last triplet at -1 and keep all five at 6 and 9.
        message = f"'k' must lie in [0, 5], got {k}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_svd(INT_A).leading(k)

    @pytest.mark.parametrize("entry", RANK_TOPS)
    @pytest.mark.parametrize("case", ["below", "above", "fraction"])
    def test_rank_outside_its_range_is_named(self, entry, case):
        # One rule reads every rank: -1 and top + 1 in one message, 2.5 in json_number's.
        name, call = INTEGER_ENTRIES[entry]
        top = RANK_TOPS[entry]
        value = {"below": -1, "above": top + 1, "fraction": 2.5}[case]
        message = (f"'{name}' must be an integer, got 2.5" if case == "fraction"
                   else f"'{name}' must lie in [0, {top}], got {value}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
