"""Print a digest of the seeded benchmark solves, for comparing two checkouts.

Solves each perfbench workload at both sizes (tiny, full) with both
algorithms (p2gdr, p2gd_plain) directly on the workload's instance, and
prints one line per solve: workload, size, algorithm, iterations,
termination, the sha256 of the trace CSV, and the final report
(``final_f`` and ``final_s`` to 17 significant digits, ``final_rank``),
which the CSV does not hold. A workload that runs through ``lowrankopt
run`` (rankdrop-cli) is also solved at both sizes by its own ``solve``
and ``finish``, that is through ``cli.main`` from its config file; that
line's algorithm reads ``cli`` and its digest is of the
``trace_p2gdr.csv`` the run wrote. The same run is repeated from a copy of
that config with ``"x0": "random:7"`` (algorithm ``cli-random7``), since
every workload itself starts from zero and so never factors a nonzero
start. Two checkouts whose outputs are identical produce byte-identical
traces on all sixteen solves. A last line, ``api sha256=<digest>``,
fingerprints what the public routines that the tests check return on small
seeded instances (:func:`api_digest`), which covers the library paths that
the sixteen solves do not reach, the reader of problem and matrix
documents included.

    PYTHONPATH=src python3 tools/trace_digest.py [--seed 101] [--save DIR] [--dense] > digest.txt

Point PYTHONPATH at another checkout's ``src`` to digest that library with
the same workloads, then ``diff`` the two outputs. ``--save DIR`` also
writes each trace CSV to ``DIR/<workload>-<size>-<algorithm>.csv``, for
``tools/trace_diff.py`` to compare two such directories by tolerance.
``--dense`` solves with every leading-triplet SVD routed to the dense
``linalg.compute_svd`` (:func:`dense_svd`): the oracle that a change to
the SVD paths measures each line's distance to, as well as its parent's.
``perfbench/workloads.py`` is loaded read-only from this checkout. BLAS
runs on one thread, as in the benchmark, so the low bits of every product
are reproducible.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from lowrankopt import linalg, problems, serialize, solver, variety  # noqa: E402

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SIZES = ("tiny", "full")
ALGORITHMS = ("p2gdr", "p2gd_plain")
RANDOM_START = "random:7"
# More than twice UserPolynomialProblem.CHUNK (384), and fixed, so that two
# checkouts with different chunks digest the same polynomial.
POLY_TERMS = 1000
# Terms of at most two factors, each of power 1 or 2.
NARROW_TERMS = 60
# Terms of the polynomial taken at a point whose first row starts with
# EDGE_ENTRIES: six fixed terms read those entries, and the rest are drawn.
EDGE_TERMS = 36
EDGE_ENTRIES = (-0.0, 5e-324, 1e300)
# JSON numbers that a float64 array could read otherwise than a list of
# them: ints, a negative zero, an int of 301 digits, exponents and a subnormal.
EDGE_VALUES = ["3", "-7", "0", "-0.0", str(10**300), "1.5e-7", "2E+10", "-4.25e300", "1e-320"]
# A size cutoff that no matrix's smaller side reaches.
DENSE_MIN_RATIO = 10**9


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def dense_svd():
    """Within the block, ``linalg._leading_svd`` is the dense SVD of every
    matrix: its size cutoff is raised past any shape, then restored."""
    ratio = linalg.LEADING_MIN_RATIO
    linalg.LEADING_MIN_RATIO = DENSE_MIN_RATIO
    try:
        yield
    finally:
        linalg.LEADING_MIN_RATIO = ratio


def random_start(inst):
    """The CLI instance with its config copied to start from ``RANDOM_START``."""
    config = json.loads(inst.config_path.read_text(encoding="utf-8"))
    config.update(x0=RANDOM_START, out="out-random")
    path = inst.config_path.with_name("config-random.json")
    path.write_text(json.dumps(config), encoding="utf-8")
    return dataclasses.replace(inst, config_path=path, out_dir=path.parent / "out-random")


def _feed(hasher, value) -> None:
    """Add the bytes of a routine's result: arrays and floats bit for bit,
    dataclasses field by field, anything else by its repr."""
    if isinstance(value, np.ndarray):
        hasher.update(f"{value.dtype.str}{value.shape}".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        hasher.update(struct.pack("<d", value))
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(hasher, getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            _feed(hasher, item)
    else:
        hasher.update(repr(value).encode())


def api_digest(seed: int) -> str:
    """sha256 of what the public routines return on small seeded instances.

    A 7x5 target with rank bound 3 is paired with a point of each rank 0
    to 3: spare budget below the bound, none at it. Each point has one
    small singular value, so the delta-rank and the rank-reduction search
    see a drop. A completion problem's ``gradient`` is then taken where
    its residual holds signed zeros, and its ``evaluate`` at the point of
    rank 3, whose X it forms from the factors. A polynomial of
    POLY_TERMS terms has its ``eval`` and ``gradient`` taken, as does one
    of NARROW_TERMS terms whose widest monomial has two factors, whose
    ``eval`` is also taken where a squared entry overflows, and one of
    EDGE_TERMS terms at a point holding EDGE_ENTRIES, where a power that
    is not ``pow``'s own would show. Last, a
    completion document and a matrix document whose values start with
    EDGE_VALUES are written to a temporary directory and read back by
    ``load_problem`` (its target, mask and offset) and ``load_matrix``.
    Routines are looked up on their modules at each call."""
    rng = np.random.default_rng(seed)
    hasher = hashlib.sha256()
    m, n, bound, delta = 7, 5, 3, 0.1
    target = rng.standard_normal((m, n))
    problem = problems.LowRankApproxProblem(target)
    params = solver.SolverParams(rank_bound=bound, delta=delta)
    for k in range(min(m, n) + 1):
        _feed(hasher, linalg.truncate_to_rank(target, k))
        _feed(hasher, linalg.distance_to_bounded_rank(target, k))
    for rank in range(bound + 1):
        u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
        v = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        x = (u * [2.0, 1.0, 0.05][:rank]) @ v.T
        _feed(hasher, linalg.singular_values(x))
        _feed(hasher, linalg.delta_rank(x, delta))
        point = variety.point_from_matrix(x, bound)
        _feed(hasher, point)
        tangent, projected, norm = variety.project_to_tangent_cone(
            point, rng.standard_normal((m, n)))
        _feed(hasher, (projected, norm))
        _feed(hasher, variety.stationarity_measure(problem, point))
        if rank:  # both are undefined at the zero matrix
            _feed(hasher, variety.tangent_curve(point, tangent, 0.7))
            _feed(hasher, variety.tangent_line_distance_bound(point, norm))
        _feed(hasher, solver.kappa_bound(problem, point, 1.0, 1.0))
        _feed(hasher, solver.p2gd_step(problem, point, params.line_search))
        _feed(hasher, solver.p2gdr_search(problem, point, params).record)
    mask = rng.random((m, n)) < 0.5
    terms = [([(0, 0, 2), (1, 1, 2)], 0.7), ([(2, 3, 4)], -0.3),
             ([(4, 0, 1), (0, 3, 1), (1, 2, 1)], 1.1), ([(3, 3, 1)], 2.0)]
    for cost in (problem, problems.MatrixCompletionProblem(target, mask),
                 problems.UserPolynomialProblem((m, n), terms)):
        _feed(hasher, problems.finite_difference_check(cost, rng.standard_normal((m, n)), 1e-5))
    # The completion residual where its signed zeros are decided: x below
    # the target, so every unobserved residual is negative, then +0.0 and
    # -0.0 entries in both, observed and not. ``evaluate`` reads a point's
    # factors, so it is taken at the last point above.
    t = target.copy()
    x = t - np.abs(rng.standard_normal((m, n)))
    for a in (x, t):
        a[rng.random((m, n)) < 0.2] = 0.0
        a[rng.random((m, n)) < 0.2] = -0.0
    completion = problems.MatrixCompletionProblem(t, mask)
    _feed(hasher, completion.gradient(x))
    _feed(hasher, completion.evaluate(point))
    # A polynomial of more terms than two of its chunks, so that the cost's
    # running total and the gradient's sums cross chunk edges.
    rows, cols = rng.integers(0, m, (POLY_TERMS, 4)), rng.integers(0, n, (POLY_TERMS, 4))
    degrees, coeffs = rng.integers(1, 5, POLY_TERMS), rng.standard_normal(POLY_TERMS)
    terms = [([(i, j, 1) for i, j in zip(rows[k, :d], cols[k, :d])], coeff)
             for k, (d, coeff) in enumerate(zip(degrees, coeffs))]
    polynomial = problems.UserPolynomialProblem((m, n), terms)
    x = rng.standard_normal((m, n))
    _feed(hasher, polynomial.eval(x))
    _feed(hasher, polynomial.gradient(x))
    # A polynomial whose widest monomial has two factors, so its slot rows
    # are two wide. Its first term squares the last entry, which no other
    # term reads, so that entry at 1e200 overflows that term alone.
    rows, cols = rng.integers(0, m - 1, (NARROW_TERMS, 2)), rng.integers(0, n, (NARROW_TERMS, 2))
    powers, counts = rng.integers(1, 3, (NARROW_TERMS, 2)), rng.integers(1, 3, NARROW_TERMS)
    coeffs = rng.standard_normal(NARROW_TERMS)
    terms = [([(m - 1, n - 1, 2)], coeffs[0])] + [
        (list(zip(rows[k], cols[k], powers[k]))[: counts[k]], coeffs[k])
        for k in range(1, NARROW_TERMS)]
    narrow = problems.UserPolynomialProblem((m, n), terms)
    x = rng.standard_normal((m, n))
    _feed(hasher, narrow.eval(x))
    _feed(hasher, narrow.gradient(x))
    x[m - 1, n - 1] = 1e200
    _feed(hasher, narrow.eval(x))
    # -0.0 and a subnormal to powers 1 to 3, and 1e300 to power 1 only,
    # each times an entry of row 1 that no other term reads, so that the
    # gradient there is the coefficient times that power. The drawn terms
    # read rows 2 on, to powers 1 and 2.
    edge = [([(0, 0, 1), (1, 0, 1)], 1.5), ([(0, 0, 3)], -0.5),
            ([(0, 1, 1), (1, 1, 1)], -2.5), ([(0, 1, 2), (1, 2, 2)], 0.25),
            ([(0, 2, 1), (1, 3, 1)], 1.25), ([(0, 2, 1), (1, 4, 3)], -0.75)]
    drawn = EDGE_TERMS - len(edge)
    rows, cols = rng.integers(2, m, (drawn, 2)), rng.integers(0, n, (drawn, 2))
    powers, counts = rng.integers(1, 3, (drawn, 2)), rng.integers(1, 3, drawn)
    coeffs = rng.standard_normal(drawn)
    terms = edge + [(list(zip(rows[k], cols[k], powers[k]))[: counts[k]], coeffs[k])
                    for k in range(drawn)]
    edges = problems.UserPolynomialProblem((m, n), terms)
    x = rng.standard_normal((m, n))
    x[0, : len(EDGE_ENTRIES)] = EDGE_ENTRIES
    _feed(hasher, edges.eval(x))
    _feed(hasher, edges.gradient(x))

    def document(rows, cols, values):
        """A matrix document's text, its values written as the JSON numbers given."""
        return f'{{"rows": {rows}, "cols": {cols}, "entries": [{", ".join(values)}]}}'

    draws = rng.standard_normal(m * n - len(EDGE_VALUES)).tolist()
    values = EDGE_VALUES + [repr(v) for v in draws]
    mask = rng.choice(["0", "1", "0.0", "1.0"], m * n).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        problem_path, matrix_path = Path(tmp) / "problem.json", Path(tmp) / "matrix.json"
        problem_path.write_text(
            f'{{"type": "completion", "shape": [{m}, {n}], "payload": '
            f'{{"target": {document(m, n, values)}, "mask": {document(m, n, mask)}}}}}',
            encoding="utf-8")
        matrix_path.write_text(document(n, m, values), encoding="utf-8")
        cost = problems.load_problem(problem_path)
        _feed(hasher, (cost.target, cost.mask, cost._offset))
        _feed(hasher, serialize.load_matrix(matrix_path))
    return hasher.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--save", type=Path, help="directory that receives each trace CSV")
    parser.add_argument("--dense", action="store_true",
                        help="take every leading-triplet SVD densely (the oracle)")
    args = parser.parse_args(argv)
    with dense_svd() if args.dense else contextlib.nullcontext():
        return digest_all(args)


def digest_all(args) -> int:
    """Solve, print and save as ``main``'s parsed ``args`` say."""
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    workloads = load_workloads()

    def report(name, size, algorithm, trace, csv):
        digest = hashlib.sha256(csv.encode("utf-8")).hexdigest()
        print(f"{name} {size} {algorithm} iters={len(trace.records)} "
              f"termination={trace.termination} sha256={digest} final_f={trace.final_f:.17g} "
              f"final_s={trace.final_s:.17g} final_rank={trace.final_rank}", flush=True)
        if args.save is not None:
            (args.save / f"{name}-{size}-{algorithm}.csv").write_text(csv, encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for size in SIZES:
                inst = workload.build(args.seed, Path(tmp) / f"{name}-{size}", size)
                for algorithm in ALGORITHMS:
                    trace = getattr(solver, algorithm)(inst.problem, inst.x0, inst.params)
                    report(name, size, algorithm, trace, trace.to_csv())
                if inst.config_path is not None:
                    report(name, size, "cli", *workload.finish(inst, workload.solve(inst)))
                    random = random_start(inst)
                    report(name, size, "cli-" + RANDOM_START.replace(":", ""),
                           *workload.finish(random, workload.solve(random)))
    print(f"api sha256={api_digest(args.seed)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
