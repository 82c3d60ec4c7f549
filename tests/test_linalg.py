import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import random_point_factors

import lowrankopt
from lowrankopt import linalg
from lowrankopt.linalg import (
    LEADING_RES_TOL,
    SvdFactorization,
    _leading_svd,
    _narrowed_width,
    compute_svd,
    delta_rank,
    distance_to_bounded_rank,
    frobenius,
    singular_values,
    truncate_to_rank,
)
from lowrankopt.variety import project_to_variety


def graded(rng, m, n, sigma):
    """m-by-n matrix with singular values ``sigma`` and seeded singular vectors."""
    u = np.linalg.qr(rng.standard_normal((m, len(sigma))))[0]
    v = np.linalg.qr(rng.standard_normal((n, len(sigma))))[0]
    return (u * np.asarray(sigma)) @ v.T


class TestComputeSvd:
    def test_diagonal(self):
        fact = compute_svd(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(fact.sigma, [3.0, 2.0, 1.0])
        assert fact.numerical_rank == 3

    def test_zero_matrix(self):
        fact = compute_svd(np.zeros((3, 3)))
        assert_allclose(fact.sigma, np.zeros(3))
        assert fact.numerical_rank == 0

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 5))
        fact = compute_svd(x)
        assert frobenius(fact.reconstruct() - x) <= 1e-12 * frobenius(x)
        assert np.abs(fact.u.T @ fact.u - np.eye(5)).max() <= 1e-12
        assert np.abs(fact.v.T @ fact.v - np.eye(5)).max() <= 1e-12
        assert np.all(np.diff(fact.sigma) <= 0)

    def test_rejects_nonfinite(self):
        x = np.ones((2, 2))
        x[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            compute_svd(x)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            compute_svd(np.ones(3))


class TestRowBlocks:
    """The one block rule: rows of about ``PRODUCT_BLOCK_BYTES``, and a
    matrix of at most two blocks taken whole."""

    def test_blocks_cover_the_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 3 * 8 * 6)
        assert linalg._row_blocks(6, 6) == [slice(0, 6)]
        assert linalg._row_blocks(7, 6) == [slice(0, 3), slice(3, 6), slice(6, 9)]
        assert linalg._row_blocks(11, 6) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 12)]
        # a row wider than a block is a block of its own
        assert len(linalg._row_blocks(5, 100)) == 5

    def test_default_blocks_at_the_workload_shapes(self):
        # 1000-by-800 takes 61-row blocks; 300-by-250 is 1.5 blocks, so whole.
        assert len(linalg._row_blocks(1000, 800)) == 17
        assert linalg._row_blocks(300, 250) == [slice(0, 300)]

    @pytest.mark.parametrize("rank", [0, 1, 4])
    def test_reconstruct_over_blocks(self, monkeypatch, rank):
        monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 3 * 8 * 6)
        rng = np.random.default_rng(80 + rank)
        u, sigma, v = random_point_factors(rng, 11, 6, rank)
        fact = SvdFactorization(u, sigma, v)
        seen = []

        def each(block, rows):
            assert block.tobytes() == x[rows].tobytes()
            seen.append(rows)
            block *= 2.0

        x = fact.reconstruct()
        assert_allclose(x, (u * sigma) @ v.T, rtol=0, atol=1e-15)
        doubled = fact.reconstruct(each)
        assert seen == linalg._row_blocks(11, 6)
        assert np.array_equal(doubled, 2.0 * x)

    def test_entry_bound(self):
        rng = np.random.default_rng(84)
        u, sigma, v = random_point_factors(rng, 11, 6, 3)
        bound = SvdFactorization(u, sigma, v).entry_bound()
        assert bound == pytest.approx(np.linalg.norm(sigma) * 3.0, rel=1e-15)  # orthonormal U, V
        assert bound >= np.abs(np.abs(u) * sigma @ np.abs(v).T).max()
        assert SvdFactorization(u[:, :0], sigma[:0], v[:, :0]).entry_bound() == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = np.full(3, np.finfo(np.float64).max)
            assert SvdFactorization(u, top, v).entry_bound() == np.inf
            u = u.copy()
            u[2, 1] = np.nan
            assert math.isnan(SvdFactorization(u, sigma, v).entry_bound())


class TestLeadingSvd:
    # Residuals stop at 1e-12 * sigma_1. A singular value's error is second
    # order in its residual, so they agree to 1e-13 * sigma_1; the rank-k
    # matrices, whose error is the residual over the gap after sigma_k
    # (here >= 0.15 sigma_k), to 1e-9 relative.
    @pytest.mark.parametrize("shape, k, decay", [
        ((200, 160), 1, 0.8), ((200, 160), 4, 0.8), ((160, 200), 10, 0.85), ((300, 250), 6, 0.6),
    ])
    def test_matches_dense_on_graded_spectra(self, shape, k, decay):
        rng = np.random.default_rng(k)
        a = graded(rng, *shape, 3.0 * decay ** np.arange(min(shape)))
        fact = _leading_svd(a, k)
        dense = compute_svd(a).leading(k)
        assert fact is not None
        assert fact.u.shape == (shape[0], k) and fact.v.shape == (shape[1], k)
        assert_allclose(fact.sigma, dense.sigma, rtol=0, atol=1e-13 * dense.sigma[0])
        assert frobenius(fact.reconstruct() - dense.reconstruct()) <= 1e-9 * frobenius(
            dense.reconstruct()
        )
        assert fact.numerical_rank == dense.numerical_rank == k
        assert np.abs(fact.u.T @ fact.u - np.eye(k)).max() <= 1e-12
        assert np.abs(fact.v.T @ fact.v - np.eye(k)).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1e156, 1e-200])
    def test_residuals_far_from_one_are_scaled(self, dense_svd_calls, scale):
        # Squared as they are, the residuals overflow at 1e156 (a math domain
        # error follows) and underflow to 0 at 1e-200 (the first sweep passes).
        a = graded(np.random.default_rng(26), 100, 100, 0.8 ** np.arange(100)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fact = _leading_svd(a, 1)
        assert dense_svd_calls == []
        dense = compute_svd(a).sigma[0]
        assert abs(fact.sigma[0] - dense) <= 1e-13 * dense

    @pytest.mark.parametrize("shape", [(200, 160), (160, 200)])
    def test_sweeps_factor_the_tall_side(self, monkeypatch, dense_svd_calls, shape):
        a = graded(np.random.default_rng(25), *shape, 0.8 ** np.arange(160))
        svd_shapes, qr_calls = [], []
        svd, qr = np.linalg.svd, np.linalg.qr

        def recorded(x, *args, **kwargs):
            svd_shapes.append(np.shape(x))
            return svd(x, *args, **kwargs)

        def counted(*args, **kwargs):
            qr_calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        monkeypatch.setattr(np.linalg, "qr", counted)
        _leading_svd(a, 4)
        assert dense_svd_calls == [] and len(svd_shapes) > 1
        assert all(rows >= cols for rows, cols in svd_shapes), svd_shapes
        # Plain subspace sweeps take 6 and 7 steps here; the filter at least halves that.
        assert len(qr_calls) <= 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_flat_bulk_after_the_kept_values_converges(self, dense_svd_calls, k):
        # The spectrum of an early D-block: sigma_2 / sigma_1 = 0.9 and a bulk
        # from 0.85 down, with sigma_12 / sigma_1 = 0.71. Plain sweeps shrink
        # the residual by about 0.5 each, too slowly to beat the dense SVD.
        sigma = np.concatenate([[1.0, 0.9], 0.85 * 0.98 ** np.arange(248)])
        a = graded(np.random.default_rng(27), 300, 250, sigma)
        fact = _leading_svd(a, k)
        assert dense_svd_calls == []
        u, s, v = fact.u, fact.sigma, fact.v
        assert u.shape == (300, k) and v.shape == (250, k)
        assert_allclose(s, sigma[:k], rtol=1e-13)
        left = np.linalg.norm(a @ v - u * s, axis=0)
        right = np.linalg.norm(a.T @ u - v * s, axis=0)
        assert np.all(left <= LEADING_RES_TOL * s[0]), left / s[0]
        assert np.all(right <= 1e-13 * s[0]), right / s[0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_flat_bulk_narrows_after_the_first_step(self, monkeypatch, dense_svd_calls, k):
        # The spectrum above: past the bulk's edge the filter converges about
        # as fast on a few columns as on k + 10, so only the first step is wide.
        sigma = np.concatenate([[1.0, 0.9], 0.85 * 0.98 ** np.arange(248)])
        a = graded(np.random.default_rng(27), 300, 250, sigma)
        qr_shapes = []
        qr = np.linalg.qr

        def recorded(x, *args, **kwargs):
            qr_shapes.append(np.shape(x))
            return qr(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        fact = _leading_svd(a, k)
        assert dense_svd_calls == []
        assert qr_shapes[0] == (300, k + 10) and len(qr_shapes) > 1
        assert all(cols < k + 10 for _, cols in qr_shapes[1:]), qr_shapes
        u, s, v = fact.u, fact.sigma, fact.v
        left = np.linalg.norm(a @ v - u * s, axis=0)
        right = np.linalg.norm(a.T @ u - v * s, axis=0)
        assert np.all(left <= LEADING_RES_TOL * s[0]), left / s[0]
        assert np.all(right <= 1e-13 * s[0]), right / s[0]

    def test_small_saving_keeps_the_full_width(self, monkeypatch, dense_svd_calls):
        # The spectrum of a zero start's G: the k-th value sits on the edge of
        # a slowly decaying bulk, so every extra column speeds convergence and
        # a narrower block would save under a tenth of the column-products.
        sigma = np.concatenate([[1.0, 0.9, 0.8, 0.7, 0.22, 0.21], 0.2 * 0.99 ** np.arange(244)])
        a = graded(np.random.default_rng(29), 300, 250, sigma)
        qr_shapes = []
        qr = np.linalg.qr

        def recorded(x, *args, **kwargs):
            qr_shapes.append(np.shape(x))
            return qr(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        fact = _leading_svd(a, 6)
        assert dense_svd_calls == [] and len(qr_shapes) > 1
        assert all(shape == (300, 16) for shape in qr_shapes), qr_shapes
        u, s, v = fact.u, fact.sigma, fact.v
        left = np.linalg.norm(a @ v - u * s, axis=0)
        assert np.all(left <= LEADING_RES_TOL * s[0]), left / s[0]

    def test_width_does_not_follow_a_root_of_the_filter(self):
        # Ritz values of a flat bulk past sigma_1. The value after the 4th
        # sits at 0.966 of it, where T_3(2 x^2 - 1) = 0: an estimate that
        # read the filter's value there would predict one sweep for 4 columns.
        root = np.sqrt((1.0 + np.cos(np.pi / 6)) / 2.0)
        kept = []
        for ratio in (0.93, root, 0.99):
            s = np.concatenate([[1.0], 0.9 * 0.98 ** np.arange(10)])
            s[4] = ratio * s[3]
            s[5:] = np.minimum(s[5:], s[4] * 0.98 ** np.arange(1, 7))
            kept.append(_narrowed_width(s, 1, 0.5, 1e-12, 1e-14))
        assert kept[0] == kept[1] == kept[2] != 4, kept

    @pytest.mark.parametrize("k, width", [(1, 11), (2, 12)])
    def test_flat_ritz_values_keep_the_width(self, k, width):
        # rho = (s_{w'+1} / s_k)^2 / T_3(1) = 1 at every width: none is a candidate.
        assert _narrowed_width(np.ones(width), k, 0.5, 1e-12, 1e-14) == width

    def test_next_value_at_the_threshold_is_not_a_candidate(self):
        # Widths 3 and 4 have the next value 1e-20. Below the threshold,
        # width 3 predicts the least work, but not 1.5 times less than width
        # 4's, so 4 stays; at it, 2 is the only candidate and 4 counts as
        # unbounded work.
        s = np.array([4.0, 2.0, 1.0, 1e-20])
        assert _narrowed_width(s, 1, 1e-3, 1e-12, 1e-21) == 4
        assert _narrowed_width(s, 1, 1e-3, 1e-12, 1e-20) == 2

    def test_no_candidate_left_keeps_the_width(self):
        # Every next value at or below the threshold.
        assert _narrowed_width(np.array([4.0, 2.0, 1.0, 1e-20]), 1, 1e-3, 1e-12, 1.0) == 4
        assert _narrowed_width(np.array([1.0, 1e-20, 1e-20]), 1, 0.5, 1e-12, 1e-14) == 3

    def test_residual_that_does_not_shrink_falls_back_to_dense(self, monkeypatch,
                                                               dense_svd_calls):
        # Every sweep factors the first sweep's block again, so the second
        # residual equals the first: a rate of 1 predicts no end, and the
        # dense SVD runs.
        a = graded(np.random.default_rng(30), 200, 160, 0.8 ** np.arange(160))
        qr, results = np.linalg.qr, []

        def first_qr(x, *args, **kwargs):
            results.append(results[0] if results else qr(x, *args, **kwargs))
            return results[0]

        monkeypatch.setattr(np.linalg, "qr", first_qr)
        fact = _leading_svd(a, 4)
        assert len(results) == 2 and dense_svd_calls == [(200, 160)]
        dense = compute_svd(a)
        for name in ("u", "sigma", "v"):
            assert getattr(fact, name).tobytes() == getattr(dense, name).tobytes()

    @pytest.mark.parametrize("k", [2, 5])
    def test_rank_inside_the_block(self, dense_svd_calls, k):
        # Rank 8 with a block of k + 10 columns: the trailing Ritz values sit
        # at roundoff, where the filter's interval [0, theta_w^2] is empty.
        sigma = [4.0, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.25]
        a = graded(np.random.default_rng(28), 200, 170, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fact = _leading_svd(a, k)
        assert dense_svd_calls == []
        assert all(np.all(np.isfinite(x)) for x in (fact.u, fact.sigma, fact.v))
        assert_allclose(fact.sigma, sigma[:k], rtol=1e-13)
        dense = compute_svd(a).leading(k)
        assert frobenius(fact.reconstruct() - dense.reconstruct()) <= 1e-12 * frobenius(a)

    @pytest.mark.parametrize("shape", [(200, 160), (160, 200)])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_triplets_satisfy_both_residuals(self, dense_svd_calls, shape, k):
        a = graded(np.random.default_rng(26 + k), *shape, 2.0 * 0.8 ** np.arange(160))
        fact = _leading_svd(a, k)
        assert dense_svd_calls == []
        u, s, v = fact.u, fact.sigma, fact.v
        assert u.shape == (shape[0], k) and v.shape == (shape[1], k)
        left = np.linalg.norm(a @ v - u * s, axis=0)
        right = np.linalg.norm(a.T @ u - v * s, axis=0)
        assert np.all(left <= LEADING_RES_TOL * s[0]), left / s[0]
        assert np.all(right <= 1e-13 * s[0]), right / s[0]
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12

    def test_rank_below_k(self):
        rng = np.random.default_rng(20)
        a = graded(rng, 200, 170, [5.0, 2.0, 1.0])
        fact = _leading_svd(a, 6)
        assert fact is not None
        assert np.all(np.isfinite(fact.sigma)) and np.all(np.isfinite(fact.u))
        assert fact.numerical_rank == compute_svd(a).numerical_rank == 3
        assert_allclose(fact.sigma[:3], [5.0, 2.0, 1.0], rtol=1e-13)
        assert frobenius(fact.reconstruct() - a) <= 1e-12 * frobenius(a)

    def test_zero_matrix(self):
        fact = _leading_svd(np.zeros((200, 170)), 4)
        assert fact is not None
        assert fact.numerical_rank == 0
        assert np.array_equal(fact.sigma, np.zeros(4))
        assert np.all(np.isfinite(fact.u)) and np.all(np.isfinite(fact.v))

    def test_flat_spectrum_falls_back_to_dense(self, dense_svd_calls):
        # nearly orthonormal columns: sigma_14 / sigma_3 is 0.99, so the residuals
        # decay too slowly (an exactly flat spectrum converges in one sweep,
        # since every vector of the range is then a singular vector)
        a = graded(np.random.default_rng(21), 200, 170, np.linspace(1.0, 0.9, 170))
        point = project_to_variety(a, 3)
        assert dense_svd_calls == [(200, 170)]
        dense = compute_svd(a).leading(3)
        for name in ("u", "sigma", "v"):
            assert getattr(point, name).tobytes() == getattr(dense, name).tobytes()

    def test_failed_sweep_falls_back_to_dense(self, monkeypatch, dense_svd_calls):
        a = graded(np.random.default_rng(24), 200, 170, 0.5 ** np.arange(170))
        qr = np.linalg.qr
        failures = [np.linalg.LinAlgError("QR did not converge")]

        def qr_failing_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", qr_failing_once)
        fact = _leading_svd(a, 5)
        assert failures == [] and dense_svd_calls == [(200, 170)]
        dense = compute_svd(a)
        for name in ("u", "sigma", "v"):
            assert getattr(fact, name).tobytes() == getattr(dense, name).tobytes()

    def test_repeated_calls_are_bitwise_equal(self):
        a = graded(np.random.default_rng(22), 200, 160, 0.7 ** np.arange(160))
        first, second = _leading_svd(a, 5), _leading_svd(a, 5)
        for name in ("u", "sigma", "v"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()

    def test_called_only_from_the_size_cutoff(self, dense_svd_calls):
        # 8 * (k + 10) <= min(m, n): k = 1 needs min(m, n) >= 88
        rng = np.random.default_rng(23)
        small = ((80, 70), (87, 120), (12, 10))
        for shape in small:
            project_to_variety(rng.standard_normal(shape), 1)
        assert dense_svd_calls == list(small)
        a = graded(rng, 88, 95, 0.5 ** np.arange(88))
        point = project_to_variety(a, 1)
        assert dense_svd_calls == list(small)
        assert point.sigma[0] == pytest.approx(1.0, rel=1e-13)


class TestDeltaRank:
    def test_zero_matrix(self):
        assert delta_rank(np.zeros((3, 3)), 0.1) == 0

    def test_strict_inequality(self):
        # sigma_2 equals the threshold exactly and must not count
        assert delta_rank(np.diag([3.0, 1.0, 0.5]), 1.0) == 1

    def test_all_above(self):
        assert delta_rank(np.diag([3.0, 1.0, 0.5]), 0.4) == 3

    def test_all_below_nonzero_matrix(self):
        assert delta_rank(np.diag([0.3, 0.2, 0.1]), 0.5) == 0

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            delta_rank(np.eye(2), 0.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.standard_normal((rng.integers(2, 9), rng.integers(2, 9)))
            d1, d2 = np.sort(rng.uniform(0.05, 3.0, size=2))
            assert delta_rank(x, d1) >= delta_rank(x, d2)

    def test_bounded_by_numerical_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal((6, 5))
            assert delta_rank(x, 0.01) <= compute_svd(x).numerical_rank

    def test_noise_floor_threshold_clamped(self):
        # a threshold below the trailing numerical noise must not count it
        x = np.diag([1.0, 1e-18, 0.0])
        assert delta_rank(x, 1e-19) == 1


class TestTruncation:
    def test_diagonal(self):
        y, dist = truncate_to_rank(np.diag([3.0, 2.0, 1.0]), 2)
        assert_allclose(y, np.diag([3.0, 2.0, 0.0]), atol=1e-15)
        assert dist == pytest.approx(1.0, abs=1e-12)

    def test_rank_within_target_returns_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        y, dist = truncate_to_rank(x, 3)
        assert np.array_equal(y, x)
        assert dist <= 1e-12 * frobenius(x)

    def test_distance_matches_tail(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 7))
        _, dist = truncate_to_rank(x, 3)
        sv = singular_values(x)
        assert dist == pytest.approx(np.sqrt(np.sum(sv[3:] ** 2)), rel=1e-10)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            truncate_to_rank(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncate_to_rank(np.eye(3), -1)

    def test_norm_identity(self):
        # dropping a spectral tail splits the squared norm exactly
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 12)))
            target = int(rng.integers(0, min(x.shape) + 1))
            y, dist = truncate_to_rank(x, target)
            lhs = frobenius(y) ** 2 + dist**2
            assert lhs == pytest.approx(frobenius(x) ** 2, rel=1e-9)

    @pytest.mark.parametrize("peak", [1e308, 1e-300])
    def test_distance_far_from_one(self, peak):
        # Squared as they are, the dropped values overflow to an Inf distance
        # at 1e308 and underflow to a zero one at 1e-300.
        x = np.random.default_rng(8).standard_normal((6, 5))
        x *= peak / np.abs(x).max()
        tail = compute_svd(x).sigma[2:] / peak
        expected = float(np.sqrt(np.dot(tail, tail))) * peak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, dist = truncate_to_rank(x, 2)
            assert dist == pytest.approx(expected, rel=1e-15, abs=0)
            assert distance_to_bounded_rank(x, 2) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_rank_of_a_matrix_near_overflow(self):
        # sigma_1 * max(m, n) passes a double; the rank cutoff stays finite,
        # where an infinite one would zero every triplet.
        x = np.random.default_rng(8).standard_normal((6, 5))
        x *= 1e308 / np.abs(x).max()
        fact = compute_svd(x)
        assert float(fact.sigma[0]) * 6 == float("inf") and fact.numerical_rank == 5
        point = project_to_variety(x, 2)
        assert point.rank == 2 and np.array_equal(point.sigma, fact.sigma[:2])


class TestDistance:
    def test_diagonal(self):
        assert distance_to_bounded_rank(np.diag([3.0, 2.0, 1.0]), 1) == pytest.approx(
            np.sqrt(5.0), rel=1e-12
        )

    def test_full_rank_target(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 6))
        assert distance_to_bounded_rank(x, 4) == 0.0

    def test_matches_truncation_distance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((7, 5))
        for target in range(6):
            _, dist = truncate_to_rank(x, target)
            assert distance_to_bounded_rank(x, target) == pytest.approx(dist, abs=1e-12)


def test_singular_values_lipschitz():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m, n = rng.integers(2, 13, size=2)
        x = rng.standard_normal((m, n))
        y = rng.standard_normal((m, n))
        gap = np.abs(singular_values(x) - singular_values(y))
        assert np.all(gap <= frobenius(x - y) + 1e-10)


def test_local_delta_rank():
    # a small-ball perturbation of an exact-rank matrix cannot raise the
    # delta-rank above that rank, cannot lose numerical rank, and its
    # best same-rank approximation stays within twice the ball radius
    rng = np.random.default_rng(9)
    from oracles import random_point_factors

    for _ in range(200):
        m, n = rng.integers(3, 10, size=2)
        rank = int(rng.integers(1, min(m, n)))
        u, sigma, v = random_point_factors(rng, m, n, rank)
        x = (u * sigma) @ v.T
        delta = float(rng.uniform(0.1, 1.0))
        eps = 0.5 * min(sigma[-1], delta)
        e = rng.standard_normal((m, n))
        y = x + eps * e / frobenius(e)
        assert delta_rank(y, delta) <= rank
        assert compute_svd(y).numerical_rank >= rank
        y_tr, _ = truncate_to_rank(y, rank)
        assert frobenius(y_tr - x) <= 2 * eps + 1e-12


def _lapack_names(path: Path) -> list[tuple[str, str]]:
    """(file, enclosing function) of each place in ``path`` that names
    ``np.linalg.svd`` or ``qr``, imports from ``numpy.linalg`` or looks a
    routine up on it by ``getattr``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names_routine = (
            isinstance(node, ast.Attribute) and node.attr in ("svd", "qr")
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
        ) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and node.args
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "linalg"
        ) or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg")
        if names_routine:
            found.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_lapack_is_called_only_through_one_function():
    # linalg._lapack is the package's one door to np.linalg.svd and qr: one
    # failure rule, and one place a tracer or a prescale hooks.
    package = Path(lowrankopt.__file__).parent
    found = [name for path in sorted(package.glob("*.py")) for name in _lapack_names(path)]
    assert found == [("linalg.py", "_lapack")]
