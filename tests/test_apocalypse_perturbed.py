"""The apocalypse of ``tests/test_apocalypse.py`` needs the exact zeros of
its start diag(1, 0.5, 0).

From the same start plus 1e-12 Gaussian noise, cut back to rank 2, plain
P2GD no longer follows the apocalypse towards diag(1, 0, 0): the rank-2
iterates pick up off-diagonal entries and reach f near -1 (the minimum).
No iterate then has a singular value at or below delta, so P2GDR never
tries a rank reduction and its trace is plain's.
"""

import numpy as np
import pytest

from test_apocalypse import DELTA, PROBLEM

from lowrankopt.linalg import truncate_to_rank
from lowrankopt.problems import load_problem
from lowrankopt.solver import SolverParams, p2gd_plain, p2gdr


@pytest.fixture(scope="module")
def traces():
    noise = 1e-12 * np.random.default_rng(3).standard_normal((3, 3))
    x0 = truncate_to_rank(np.diag([1.0, 0.5, 0.0]) + noise, 2)[0]
    params = SolverParams(rank_bound=2, delta=DELTA, max_iters=2000)
    problem = load_problem(PROBLEM)
    return p2gd_plain(problem, x0, params), p2gdr(problem, x0, params)


def test_plain_descent_escapes_from_a_perturbed_start(traces):
    plain, _ = traces
    assert plain.final_f < -0.99
    assert all(rec.delta_rank == rec.rank == 2 for rec in plain.records)


def test_rank_reduction_then_changes_nothing(traces):
    plain, reducing = traces
    assert reducing.to_csv() == plain.to_csv()
    assert (reducing.termination, reducing.final_f) == (plain.termination, plain.final_f)
