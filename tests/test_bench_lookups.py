"""The benchmark's tracer finds every library name it wraps.

``perfbench/tracing.py`` looks up public functions and attributes of the
library by name; renaming or deleting one of them breaks the benchmark.
This loads that module read-only and installs and removes its wrappers.
"""

import numpy as np
from conftest import load_module

from lowrankopt import linalg, solver
from lowrankopt.problems import LowRankApproxProblem, MatrixCompletionProblem


def test_tracer_installs_and_restores():
    tracing = load_module("perfbench/tracing.py")
    originals = {name: getattr(home, attr) for name, (home, attr) in tracing.FUNCTIONS.items()}
    a = np.diag([3.0, 2.0, 1.0, 0.5])
    with tracing.Tracer() as tracer:
        for name, (home, attr) in tracing.FUNCTIONS.items():
            assert getattr(home, attr) is not originals[name], name
        with tracer.solve(0):
            solver.p2gdr(LowRankApproxProblem(a), np.zeros((4, 4)),
                         solver.SolverParams(rank_bound=2, delta=0.1))
    names = {span[0] for span in tracer.spans}
    assert {"solver.p2gdr", "linalg.compute_svd", "problems.gradient"} <= names
    for name, (home, attr) in tracing.FUNCTIONS.items():
        assert getattr(home, attr) is originals[name], name


def test_each_evaluate_of_a_blocked_residual_is_a_gradient_span(monkeypatch):
    # A completion point of several row blocks forms X and its residual in
    # the traced ``gradient``, once per ``evaluate``.
    m, n = 40, 30
    monkeypatch.setattr(linalg, "PRODUCT_BLOCK_BYTES", 8 * 8 * n)
    assert len(linalg._row_blocks(m, n)) == 5
    rng = np.random.default_rng(24)
    u = np.linalg.qr(rng.standard_normal((m, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    problem = MatrixCompletionProblem((u * [3.0, 2.0, 1.0]) @ v.T, rng.random((m, n)) < 0.5)
    evaluated = []
    evaluate = problem.evaluate

    def counted_evaluate(point):
        evaluated.append(point)
        return evaluate(point)

    monkeypatch.setattr(problem, "evaluate", counted_evaluate)
    tracing = load_module("perfbench/tracing.py")
    with tracing.Tracer() as tracer:
        with tracer.solve(0):
            trace = solver.p2gdr(problem, np.zeros((m, n)),
                                 solver.SolverParams(rank_bound=3, delta=0.1, max_iters=20))
    spans = [span for span in tracer.spans if span[0] == "problems.gradient"]
    assert len(trace.records) > 1
    assert len(spans) == len(evaluated)
