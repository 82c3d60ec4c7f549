"""Dense projected gradient descent (PGD), a second oracle for the paper's claim.

PGD takes x+ in P_{<=r}(x - alpha grad f(x)), a rank-r truncation of the
whole m-by-n step, with Armijo backtracking. Olikier and Waldspurger
("Projected gradient descent accumulates at Bouligand stationary points",
2024) show that it is apocalypse-free on the bounded-rank set, as P2GDR is.
Each trial pays a dense SVD, which on these small instances costs nothing,
and it shares with the library only ``truncate_to_rank``.
"""

import numpy as np
import pytest

from test_apocalypse import DELTA, PROBLEM

from lowrankopt.linalg import frobenius, truncate_to_rank
from lowrankopt.problems import LowRankApproxProblem, load_problem
from lowrankopt.solver import SolverParams, p2gd_plain, p2gdr

START = np.diag([1.0, 0.5, 0.0])


def pgd(problem, x0, rank, max_iters=100, step_tol=1e-12):
    """Dense PGD from ``x0``: alpha starts at 1 and halves until
    ``f(y) <= f(x) - 1e-4 / alpha * ||y - x||^2``. Stops when a step moves
    by at most ``step_tol`` or after ``max_iters``; returns the last point,
    its cost and the iterations taken."""
    x = truncate_to_rank(x0, rank)[0]
    f = problem.eval(x)
    for iters in range(1, max_iters + 1):
        g = problem.gradient(x)
        alpha = 1.0
        for _ in range(60):
            y = truncate_to_rank(x - alpha * g, rank)[0]
            fy, step = problem.eval(y), frobenius(y - x)
            if fy <= f - 1e-4 / alpha * step**2:
                break
            alpha *= 0.5
        else:
            raise AssertionError(f"no sufficient decrease at iteration {iters}")
        x, f = y, fy
        if step <= step_tol:
            break
    return x, f, iters


@pytest.fixture(scope="module")
def apocalypse():
    return load_problem(PROBLEM)


def test_pgd_and_rank_reduction_reach_the_minimizer_and_plain_descent_does_not(apocalypse):
    x, f, iters = pgd(apocalypse, START, 2)
    assert iters <= 5
    assert f == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(x, np.diag([1.0, 0.0, 1.0]), atol=1e-6)
    reducing = p2gdr(apocalypse, START, SolverParams(rank_bound=2, delta=DELTA, max_iters=2000))
    assert reducing.final_f == pytest.approx(-1.0, abs=1e-9)
    # x22 stays exactly 0 at every rank-2 iterate of plain descent, so f > -1/2 throughout.
    plain = p2gd_plain(apocalypse, START, SolverParams(rank_bound=2, delta=DELTA, max_iters=200))
    assert plain.termination == "max_iters"
    assert all(rec.f_value > -0.5 for rec in plain.records) and plain.final_f > -0.5


def test_pgd_from_the_perturbed_start(apocalypse):
    # The start of tests/test_apocalypse_perturbed.py, where both P2GD and
    # P2GDR crawl: PGD is at the minimum within a few iterations.
    noise = 1e-12 * np.random.default_rng(3).standard_normal((3, 3))
    _, f, iters = pgd(apocalypse, START + noise, 2)
    assert iters <= 5
    assert f == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_pgd_limit_is_the_eckart_young_value(seed):
    # Low-rank approximation: the best value within rank r is half the
    # squared tail of the target's spectrum, from any start.
    rng = np.random.default_rng(seed)
    m, n = rng.integers(4, 9, size=2)
    rank = int(rng.integers(1, min(m, n)))
    target = rng.standard_normal((m, n))
    problem = LowRankApproxProblem(target)
    best = 0.5 * truncate_to_rank(target, rank)[1] ** 2
    _, f, _ = pgd(problem, rng.standard_normal((m, n)), rank)
    assert f == pytest.approx(best, rel=1e-12)
    trace = p2gdr(problem, np.zeros((m, n)), SolverParams(rank_bound=rank, delta=1e-3))
    assert trace.termination == "stationary"
    assert trace.final_f == pytest.approx(best, rel=1e-9)
