"""The source paper's central claim on a 3x3 instance with rank bound 2.

f = x00^2 / 2 - x00 + x11^4 / 4 + x22^2 / 2 - x22, started at diag(1, 0.5, 0).
At rank-2 iterates the x22 direction lies in the orthogonal block of the
tangent cone, which has no spare rank, so plain projected descent cannot see
it: x11 decays like k^(-1/2), the measure s = x11^3 goes to 0, and the
iterates approach diag(1, 0, 0), which is not stationary (s = 1 there). This
is an apocalypse in the sense of Levin, Kileel and Boumal (arXiv 2107.03877).
The rank-reducing method drops the small singular value once and converges to
the minimizer diag(1, 0, 1), where f = -1.
"""

import json

import numpy as np
import pytest

from lowrankopt import cli
from lowrankopt.problems import load_problem
from lowrankopt.serialize import save_matrix
from lowrankopt.variety import stationarity_measure

DELTA = 0.1
PROBLEM = {
    "type": "polynomial",
    "shape": [3, 3],
    "payload": {"terms": [
        {"monomial": [[0, 0, 2]], "coeff": 0.5},
        {"monomial": [[0, 0, 1]], "coeff": -1.0},
        {"monomial": [[1, 1, 4]], "coeff": 0.25},
        {"monomial": [[2, 2, 2]], "coeff": 0.5},
        {"monomial": [[2, 2, 1]], "coeff": -1.0},
    ]},
}
CONFIG = {
    "problem": "problem.json",
    "x0": "x0.json",
    "rank_bound": 2,
    "delta": DELTA,
    "max_iters": 2000,
    "out": "results",
}


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """``lowrankopt compare`` on the instance: exit code, output dir and both traces."""
    tmp = tmp_path_factory.mktemp("apocalypse")
    (tmp / "problem.json").write_text(json.dumps(PROBLEM))
    save_matrix(np.diag([1.0, 0.5, 0.0]), tmp / "x0.json")
    (tmp / "config.json").write_text(json.dumps(CONFIG))
    traces = {}

    def keeping(name):
        inner = getattr(cli, name)

        def solve(*args):
            traces[name] = inner(*args)
            return traces[name]
        return solve

    with pytest.MonkeyPatch.context() as mp:
        for name in ("p2gd_plain", "p2gdr"):
            mp.setattr(cli, name, keeping(name))
        code = cli.main(["compare", str(tmp / "config.json")])
    return code, tmp / "results", traces


def test_plain_descent_follows_the_apocalypse(compared):
    _, _, traces = compared
    trace = traces["p2gd_plain"]
    assert trace.termination == "max_iters"
    assert len(trace.records) == 2000
    assert trace.final_s < 1e-5
    point = trace.final_point
    assert point.rank == 2 and point.delta_rank(DELTA) == 1
    truncated = point.truncated(point.delta_rank(DELTA))
    s_truncated = stationarity_measure(load_problem(PROBLEM), truncated).s_value
    assert s_truncated >= 0.99


def test_rank_reduction_reaches_the_minimizer(compared):
    _, _, traces = compared
    trace = traces["p2gdr"]
    assert trace.termination == "stationary"
    assert trace.final_s <= trace.stop_tol
    assert any(rec.chosen_j > 0 for rec in trace.records)
    np.testing.assert_allclose(trace.final_point.matrix(), np.diag([1.0, 0.0, 1.0]), atol=1e-3)
    assert abs(trace.final_f - -1.0) <= 1e-9


def test_compare_flags_the_apocalypse(compared):
    code, out_dir, _ = compared
    assert code == 2
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["apocalypse_flag"] is True
