"""The ``api sha256=`` line of ``tools/trace_digest.py`` fingerprints the
public routines' results: it repeats, and one ulp in one result moves it.

The tool is loaded by path. Its ``--dense`` switch, which makes every
leading-triplet SVD dense, is checked on one matrix, and the
``evaluations=`` count of its solve lines on one tiny workload solve.
"""

import numpy as np
import pytest
from conftest import load_module

from lowrankopt import linalg, problems, serialize, solver, variety


@pytest.fixture(scope="module")
def digest_tool():
    return load_module("tools/trace_digest.py")


def test_digest_repeats(digest_tool):
    assert digest_tool.api_digest(101) == digest_tool.api_digest(101)


# Each routine whose result is one array or one float.
@pytest.mark.parametrize("module, name", [
    (linalg, "singular_values"),
    (linalg, "distance_to_bounded_rank"),
    (variety, "tangent_curve"),
    (variety, "tangent_line_distance_bound"),
    (solver, "kappa_bound"),
    (problems, "finite_difference_check"),
    (serialize, "load_matrix"),
])
def test_one_ulp_moves_the_digest(digest_tool, monkeypatch, module, name):
    before = digest_tool.api_digest(101)
    routine = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: np.nextafter(routine(*args), np.inf))
    assert digest_tool.api_digest(101) != before


@pytest.mark.parametrize("name", ["eval", "gradient"])
def test_one_ulp_past_two_chunks_moves_the_digest(digest_tool, monkeypatch, name):
    # Only a polynomial whose sums cross two chunk edges is nudged.
    cls = problems.UserPolynomialProblem
    before = digest_tool.api_digest(101)
    routine = getattr(cls, name)

    def nudged(self, x):
        value = routine(self, x)
        return np.nextafter(value, np.inf) if len(self._coeffs) > 2 * cls.CHUNK else value

    monkeypatch.setattr(cls, name, nudged)
    assert digest_tool.api_digest(101) != before


@pytest.mark.parametrize("name", ["eval", "gradient"])
def test_one_ulp_of_two_wide_slots_moves_the_digest(digest_tool, monkeypatch, name):
    # Only the polynomial whose widest monomial has two factors is nudged.
    cls = problems.UserPolynomialProblem
    before = digest_tool.api_digest(101)
    routine = getattr(cls, name)

    def nudged(self, x):
        value = routine(self, x)
        return np.nextafter(value, np.inf) if len(self._slots) == 2 else value

    monkeypatch.setattr(cls, name, nudged)
    assert digest_tool.api_digest(101) != before


@pytest.mark.parametrize("name", ["eval", "gradient"])
def test_one_ulp_at_edge_entries_moves_the_digest(digest_tool, monkeypatch, name):
    # Only the polynomial taken at -0.0, a subnormal and 1e300 is nudged.
    cls = problems.UserPolynomialProblem
    before = digest_tool.api_digest(101)
    routine = getattr(cls, name)

    def nudged(self, x):
        value = routine(self, x)
        return np.nextafter(value, np.inf) if len(self._coeffs) == digest_tool.EDGE_TERMS else value

    monkeypatch.setattr(cls, name, nudged)
    assert digest_tool.api_digest(101) != before


@pytest.mark.parametrize("name", ["target", "mask", "_offset"])
def test_one_entry_of_a_loaded_problem_moves_the_digest(digest_tool, monkeypatch, name):
    # One ulp up in a float array, or one flipped observation in the mask.
    before = digest_tool.api_digest(101)
    load_problem = problems.load_problem

    def nudged(source):
        cost = load_problem(source)
        array = getattr(cost, name)
        first = array.flat[0]
        array.flat[0] = ~first if array.dtype == bool else np.nextafter(first, np.inf)
        return cost

    monkeypatch.setattr(problems, "load_problem", nudged)
    assert digest_tool.api_digest(101) != before


def test_dense_switch_takes_every_triplet(digest_tool):
    # 300x250 at k = 1 is past the size cutoff: the iteration gives one triplet.
    a = np.random.default_rng(0).standard_normal((300, 250))
    ratio = linalg.LEADING_MIN_RATIO
    assert linalg._leading_svd(a, 1).sigma.shape == (1,)
    with digest_tool.dense_svd():
        assert linalg.LEADING_MIN_RATIO == digest_tool.DENSE_MIN_RATIO
        fact = linalg._leading_svd(a, 1)
    assert linalg.LEADING_MIN_RATIO == ratio
    assert fact.sigma.shape == (250,)
    assert np.array_equal(fact.sigma, linalg.compute_svd(a).sigma)


def test_evaluations_count_one_tiny_solve(digest_tool, tmp_path):
    # poly-desk's polynomial takes the generic evaluate: the start and one
    # accepted trial per iteration, with no backtracks at seed 101.
    workload = digest_tool.load_workloads().WORKLOADS["poly-desk"]
    inst = workload.build(101, tmp_path, "tiny")
    evaluate = problems.UserPolynomialProblem.evaluate
    with digest_tool.counted_evaluations() as calls:
        trace = solver.p2gdr(inst.problem, inst.x0, inst.params)
    assert (len(trace.records), calls[0]) == (55, 56)
    assert problems.UserPolynomialProblem.evaluate is evaluate
