"""Seeded inputs and the correctness gate for each benchmark workload.

Every workload is built from the seed alone: the solver only ever sees the
generated problem, start point and parameters. Each workload is one fixed
design drawn from DESIGN_SEED, and the seed permutes it: the rows and
columns of a completion problem, the order of a polynomial's terms. Seeds
thus differ in their inputs but not in the optimum or in the work a solve
takes, so runs with different seeds measure the same thing. Each workload
exists at two sizes: ``full`` is what the benchmark times, ``tiny`` is what
its own tests solve in well under a second.

The library is reached through its modules (``solver.p2gdr``,
``cli.main``) rather than through names bound at import time, so that the
wrappers installed by :mod:`tracing` see every call the benchmark makes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lowrankopt import cli, solver, variety
from lowrankopt.problems import CostFunction, MatrixCompletionProblem, UserPolynomialProblem
from lowrankopt.solver import SolverParams, Trace

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# |final_f - reference| must stay within this share of max(1, |reference|).
POLY_REL_TOL = 1e-6
# Generator of every workload's fixed design.
DESIGN_SEED = 0
# The poly-desk fit weights run from 1 down to POLY_MIN_WEIGHT (about 40
# iterations per solve). Shuffling the terms leaves the optimum as it is,
# so one reference per size covers every seed.
POLY_MIN_WEIGHT = 0.1
# Largest accepted ||X - target|| / ||target|| on the completion workloads.
# The seed code reaches about 3e-4 and 1.4e-6; the rank-drop bound also sits
# well below 1.6e-2, the error of an answer that lost the two weak directions.
MC_DENSE_RECOVERY = 1e-2
RANKDROP_RECOVERY = 2e-3
# A recomputed cost must match the reported one to this share of
# max(1, |f|); a larger gap means the reported final point is not the one
# scored. It leaves room for a cost evaluated in another order.
COST_MATCH_RTOL = 1e-9


NO_REFERENCE = "no reference optimum recorded for this instance"


class GateFailure(RuntimeError):
    """A solve finished but its output is not what the workload requires."""


@dataclass
class Instance:
    """Everything one solve of a workload needs, plus what the gate checks."""

    problem: CostFunction
    x0: np.ndarray
    params: SolverParams
    target: np.ndarray | None = None
    recovery_bound: float | None = None
    reference_f: float | None = None
    config_path: Path | None = None
    out_dir: Path | None = None


def _planted(rng, m: int, n: int, sigma) -> np.ndarray:
    """Matrix with a fixed spectrum ``sigma`` and seeded singular vectors."""
    k = len(sigma)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * np.asarray(sigma, dtype=np.float64)) @ v.T


def _shuffled(seed: int, tag: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays with one seeded permutation of their rows and one of their columns."""
    rng = np.random.default_rng([seed, tag])
    rows, cols = (rng.permutation(d) for d in arrays[0].shape)
    return [a[np.ix_(rows, cols)] for a in arrays]


def _stop_tol(problem: CostFunction, x0: np.ndarray, rel: float) -> float:
    return rel * (1.0 + float(np.linalg.norm(problem.gradient(x0))))


def _matrix_doc(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": a.ravel().tolist()}


def build_mc_dense(seed: int, workdir: Path, size: str = "full") -> Instance:
    m, n, k = {"full": (1000, 800, 10), "tiny": (60, 50, 3)}[size]
    rng = np.random.default_rng([DESIGN_SEED, 1])
    scale = np.sqrt(m * n)
    target = _planted(rng, m, n, scale * np.linspace(1.0, 0.5, k))
    target, mask = _shuffled(seed, 1, target, rng.random((m, n)) < 0.3)
    problem = MatrixCompletionProblem(target, mask)
    x0 = np.zeros((m, n))
    # delta far below every singular value an iterate reaches, so the
    # search never builds a truncated candidate.
    params = SolverParams(
        rank_bound=k, delta=1e-6 * scale, stop_tol=_stop_tol(problem, x0, 1e-4)
    )
    return Instance(problem, x0, params, target=target, recovery_bound=MC_DENSE_RECOVERY)


def build_rankdrop_cli(seed: int, workdir: Path, size: str = "full") -> Instance:
    m, n = {"full": (300, 250), "tiny": (80, 70)}[size]
    rng = np.random.default_rng([DESIGN_SEED, 2])
    scale = np.sqrt(m * n)
    target = _planted(rng, m, n, scale * np.array([1.0, 0.9, 0.8, 0.7, 0.02, 0.02]))
    target, mask = _shuffled(seed, 2, target, rng.random((m, n)) < 0.6)
    problem = MatrixCompletionProblem(target, mask)
    x0 = np.zeros((m, n))
    # With delta at 0.1 * scale, 4 of 10 designs stall for hundreds of
    # iterations behind a spurious component just above delta; at 0.2 the
    # truncated candidates remove it and every design converges in ~26.
    params = SolverParams(
        rank_bound=6, delta=0.2 * scale, stop_tol=_stop_tol(problem, x0, 1e-6)
    )
    workdir.mkdir(parents=True, exist_ok=True)
    problem_doc = {
        "type": "completion",
        "shape": [m, n],
        "payload": {"target": _matrix_doc(target), "mask": _matrix_doc(mask.astype(np.float64))},
    }
    (workdir / "problem.json").write_text(json.dumps(problem_doc), encoding="utf-8")
    (workdir / "x0.json").write_text(json.dumps(_matrix_doc(x0)), encoding="utf-8")
    config = {
        "problem": "problem.json",
        "x0": "x0.json",
        "rank_bound": params.rank_bound,
        "delta": params.delta,
        "stop_tol": params.stop_tol,
        "algorithm": "p2gdr",
        "out": "out",
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return Instance(
        problem, x0, params, target=target, recovery_bound=RANKDROP_RECOVERY,
        config_path=config_path, out_dir=workdir / "out",
    )


def poly_terms(m: int, n: int, k: int, n_cross: int, n_cubic: int) -> list:
    """Degree-4 polynomial that is bounded below.

    Weighted fit terms ``0.5 w (x - t)^2`` pull towards a rank-``k`` target;
    the weights form a geometric ladder from 1 down to POLY_MIN_WEIGHT,
    which sets how many iterations a solve takes. Positive ``x^4`` terms on
    every entry dominate the small cubic cross terms far from the origin,
    and the ``x^2 y^2`` couplings are positive.

    Target, term placement, weights and coefficients are drawn from the
    fixed generator DESIGN_SEED.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    target = _planted(rng, m, n, np.sqrt(m * n) * np.array([0.6, 0.4, 0.2])[:k])
    entries = [(i, j) for i in range(m) for j in range(n)]
    weights = rng.permutation(np.geomspace(1.0, POLY_MIN_WEIGHT, m * n)).reshape(m, n)
    terms = [((), 0.5 * float(np.sum(weights * target * target)))]
    for (i, j) in entries:
        w = float(weights[i, j])
        terms.append((((i, j, 2),), 0.5 * w))
        terms.append((((i, j, 1),), -w * float(target[i, j])))
        terms.append((((i, j, 4),), 0.01 * rng.uniform(0.5, 1.5)))
    for _ in range(n_cross):
        a, b = rng.choice(len(entries), size=2, replace=False)
        (i1, j1), (i2, j2) = entries[a], entries[b]
        terms.append((((i1, j1, 2), (i2, j2, 2)), 0.005 * rng.uniform(0.5, 1.5)))
    for _ in range(n_cubic):
        picks = rng.choice(len(entries), size=3, replace=False)
        monomial = tuple((*entries[p], 1) for p in picks)
        terms.append((monomial, 0.01 * rng.uniform(-1.0, 1.0)))
    return terms


def build_poly_desk(seed: int, workdir: Path, size: str = "full") -> Instance:
    m, n, k, n_cross, n_cubic = {"full": (12, 10, 3, 1500, 540), "tiny": (6, 5, 2, 60, 30)}[size]
    terms = poly_terms(m, n, k, n_cross, n_cubic)
    order = np.random.default_rng([seed, 3]).permutation(len(terms))
    problem = UserPolynomialProblem((m, n), [terms[i] for i in order])
    x0 = np.zeros((m, n))
    params = SolverParams(rank_bound=k, delta=1e-6, stop_tol=_stop_tol(problem, x0, 1e-6))
    return Instance(problem, x0, params, reference_f=poly_reference(size))


def poly_reference(size: str) -> float | None:
    """The recorded poly-desk optimum of one size (see record_reference.py)."""
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["poly-desk"].get(size)


def solve_direct(inst: Instance) -> Trace:
    return solver.p2gdr(inst.problem, inst.x0, inst.params)


def finish_direct(inst: Instance, trace: Trace) -> tuple[Trace, str]:
    return trace, trace.to_csv()


def solve_cli(inst: Instance) -> tuple[int, list]:
    """One ``lowrankopt run`` in-process; also hands back the solver's Trace.

    The CLI only returns an exit code and writes files, so a pass-through
    shim around ``cli.p2gdr`` keeps the returned Trace for the gate.
    """
    captured: list[Trace] = []
    inner = cli.p2gdr

    def capture(*args, **kwargs):
        captured.append(inner(*args, **kwargs))
        return captured[-1]

    cli.p2gdr = capture
    try:
        code = cli.main(["run", str(inst.config_path)])
    finally:
        cli.p2gdr = inner
    return code, captured


def finish_cli(inst: Instance, result: tuple[int, list]) -> tuple[Trace, str]:
    code, captured = result
    if code != 0:
        raise GateFailure(f"lowrankopt run exited with code {code}")
    if len(captured) != 1:
        raise GateFailure(f"expected one p2gdr solve per run, saw {len(captured)}")
    trace = captured[0]
    csv = (inst.out_dir / "trace_p2gdr.csv").read_text(encoding="utf-8")
    if csv != trace.to_csv():
        raise GateFailure("trace_p2gdr.csv differs from the solver's trace")
    summary = json.loads((inst.out_dir / "summary_p2gdr.json").read_text(encoding="utf-8"))
    if summary["termination"] != trace.termination or summary["iters"] != len(trace.records):
        raise GateFailure("summary_p2gdr.json disagrees with the solver's trace")
    return trace, csv


def check(inst: Instance, trace: Trace) -> list[str]:
    """Every way ``trace`` falls short of a correct solve; empty when it passes."""
    problems = []
    r = inst.params.rank_bound
    if trace.termination != "stationary":
        problems.append(f"termination {trace.termination!r}, expected 'stationary'")
    if trace.stop_tol != inst.params.stop_tol:
        problems.append(f"stop_tol {trace.stop_tol!r} is not the requested {inst.params.stop_tol!r}")
    if not trace.final_s <= inst.params.stop_tol:
        problems.append(f"final_s {trace.final_s:.3e} above stop_tol {inst.params.stop_tol:.3e}")
    costs = [rec.f_value for rec in trace.records] + [trace.final_f]
    if any(not b < a for a, b in zip(costs, costs[1:])):
        problems.append("cost does not strictly decrease across records")
    ranks = [rec.rank for rec in trace.records] + [trace.final_point.rank]
    if max(ranks) > r:
        problems.append(f"rank {max(ranks)} exceeds the bound {r}")

    x = trace.final_point.matrix()
    f = float(inst.problem.eval(x))
    if abs(f - trace.final_f) > COST_MATCH_RTOL * max(1.0, abs(f)):
        problems.append(f"reported final_f {trace.final_f!r} but the final point scores {f!r}")
    s = variety.stationarity_measure(inst.problem, trace.final_point).s_value
    if not s <= inst.params.stop_tol:
        problems.append(f"final point has s {s:.3e} above stop_tol {inst.params.stop_tol:.3e}")
    if inst.target is not None:
        err = float(np.linalg.norm(x - inst.target) / np.linalg.norm(inst.target))
        if not err <= inst.recovery_bound:
            problems.append(f"recovery error {err:.3e} above {inst.recovery_bound:.0e}")
    if isinstance(inst.problem, UserPolynomialProblem):
        if inst.reference_f is None:
            problems.append(NO_REFERENCE)
        elif abs(f - inst.reference_f) > POLY_REL_TOL * max(1.0, abs(inst.reference_f)):
            problems.append(f"final_f {f!r} is not the reference {inst.reference_f!r}")
    return problems


@dataclass(frozen=True)
class Probe:
    """Work of the same kind as a workload's dominant work, written in the
    benchmark and calling nothing in the library (see run.HostProbe)."""

    what: str
    # Seconds the work takes on a 2-vCPU x86_64 host at its usual speed.
    nominal_s: float
    # Builds the inputs once and returns the work to time.
    make: Callable[[], Callable[[], object]]


def dense_svds(m: int, n: int, repeats: int):
    """Probe work: ``repeats`` SVDs of a fixed dense m x n matrix."""

    def make():
        a = np.random.default_rng(DESIGN_SEED).standard_normal((m, n))

        def work():
            for _ in range(repeats):
                np.linalg.svd(a, full_matrices=False)
        return work

    return make


def entry_loops(repeats: int):
    """Probe work: Python loops reading every entry of a fixed array, as
    ``UserPolynomialProblem`` reads the entries its terms name."""

    def make():
        a = np.random.default_rng(DESIGN_SEED).standard_normal((100, 100))

        def work():
            total = 0.0
            for _ in range(repeats):
                for row in range(100):
                    for col in range(100):
                        total += a[row, col] ** 2
            return total
        return work

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., Instance]
    solve: Callable[[Instance], object]
    finish: Callable[[Instance, object], tuple[Trace, str]]
    # layer metric -> the end-to-end metric it should move here, and how.
    predictions: dict
    probe: Probe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-dense",
            "Reference shape: completion 1000x800, rank 10, 30% observed; the dense SVD in "
            "project_to_variety dominates, no candidate search, tangent-cone SVD only at x0 = 0",
            build_mc_dense, solve_direct, finish_direct,
            {
                "linalg.np_svd / linalg.compute_svd / linalg.svd_elems": "solve_s, iter_ms_p50 (most of the time)",
                "variety.project_to_variety": "solve_s",
                "variety.project_to_tangent_cone": "SVD only at x0 = 0; spare budget 0 afterwards",
                "problems.eval / problems.gradient": "about 7% of solve_s; peak_mem_mb only with operator-form gradients",
                "solver.candidates": "equals the iteration count (search bypassed)",
            },
            Probe("one SVD of a 1000x800 matrix", 0.38, dense_svds(1000, 800, 1)),
        ),
        Workload(
            "rankdrop-cli",
            "Completion 300x250 with 4 strong and 2 weak directions via cli.main: exercises "
            "the rank-reduction search, tangent-cone SVD, CLI loading and trace writing",
            build_rankdrop_cli, solve_cli, finish_cli,
            {
                "variety.project_to_tangent_cone / stationarity_measure / point_from_matrix": "iter_ms_p90, solve_s",
                "solver.candidates / reduced_win_ratio / spare_rank_share / backtracks": "iter_ms_p90, iters",
                "problems.load_problem / serialize.load_matrix / cli.config_load / solver.trace_to_csv": "solve_s (about 2%)",
            },
            Probe("three SVDs of a 300x250 matrix", 0.045, dense_svds(300, 250, 3)),
        ),
        Workload(
            "poly-desk",
            "Degree-4 polynomial 12x10, rank 3, ~2400 terms: cost and gradient are ~95% of the "
            "time and SVDs are tiny, so projection work should predict no change here",
            build_poly_desk, solve_direct, finish_direct,
            {
                "problems.eval / problems.gradient": "solve_s (about 95% of it)",
                "linalg.* / variety.project_to_variety": "no change expected",
            },
            Probe("ten Python passes over the entries of a 100x100 array", 0.033, entry_loops(10)),
        ),
    )
}
