"""The benchmark's tracer finds every library name it wraps.

``perfbench/tracing.py`` looks up public functions and attributes of the
library by name; renaming or deleting one of them breaks the benchmark.
This loads that module read-only and installs and removes its wrappers.
"""

import numpy as np
from conftest import load_module

from lowrankopt import solver
from lowrankopt.problems import LowRankApproxProblem


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
