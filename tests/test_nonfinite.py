"""Seeded property test: problems whose cost or gradient stops being finite.

Each instance breaks a small low-rank approximation or completion problem
in one of two ways: from a random call onward its cost or its gradient
returns NaN, +Inf or -Inf; or both are scaled by up to 1e307, so the cost,
the gradient or their norms overflow. Whatever happens, the solve must end
in a documented termination, with no exception and no numpy warning.
"""

import json

import numpy as np
import pytest

from lowrankopt.problems import CostFunction, LowRankApproxProblem, MatrixCompletionProblem
from lowrankopt.solver import LineSearchParams, SolverParams, p2gd_plain, p2gdr

TERMINATIONS = {"stationary", "max_iters", "line_search_failure", "nonfinite"}
INSTANCES = 150


class Broken(CostFunction):
    """``scale`` times ``base``; from call ``onset`` of ``method`` on, that
    method returns ``bad`` (in the gradient's first entry)."""

    def __init__(self, base, scale, method, onset, bad):
        self.base, self.shape = base, base.shape
        self.scale, self.method, self.onset, self.bad = scale, method, onset, bad
        self.calls = {"eval": 0, "gradient": 0}

    def _broken(self, method) -> bool:
        self.calls[method] += 1
        return method == self.method and self.calls[method] > self.onset

    def eval(self, x):
        broken = self._broken("eval")
        return self.bad if broken else self.scale * self.base.eval(x)

    def gradient(self, x):
        broken = self._broken("gradient")
        # The problem's own overflow is its business; the solver's is under test.
        with np.errstate(over="ignore"):
            g = self.scale * self.base.gradient(x)
        if broken:
            g[0, 0] = self.bad
        return g


def instance(rng):
    m, n = (int(d) for d in rng.integers(3, 9, size=2))
    rank_bound = int(rng.integers(1, min(m, n)))
    target = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2, 2)
    if rng.uniform() < 0.5:
        base = LowRankApproxProblem(target)
    else:
        base = MatrixCompletionProblem(target, rng.uniform(size=(m, n)) < 0.7)
    if rng.uniform() < 0.25:
        problem = Broken(base, 10.0 ** rng.uniform(0, 307), None, 0, np.nan)
    else:
        bad = float(rng.choice([np.nan, np.inf, -np.inf]))
        method = str(rng.choice(["eval", "gradient"]))
        problem = Broken(base, 1.0, method, int(rng.integers(0, 20)), bad)
    x0 = np.outer(rng.standard_normal(m), rng.standard_normal(n)) * (rng.uniform() < 0.5)
    params = SolverParams(
        rank_bound=rank_bound,
        delta=float(10.0 ** rng.uniform(-2, 0)),
        max_iters=30,
        line_search=LineSearchParams(max_backtracks=30),
    )
    return problem, x0, params


@pytest.mark.parametrize("solve", [p2gdr, p2gd_plain])
def test_nonfinite_problems_end_in_a_documented_termination(solve):
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(INSTANCES):
        problem, x0, params = instance(rng)
        trace = solve(problem, x0, params)
        assert trace.termination in TERMINATIONS
        assert trace.final_rank <= params.rank_bound
        json.dumps(trace.summary(), allow_nan=False)
        seen.add(trace.termination)
    assert "nonfinite" in seen
