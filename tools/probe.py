"""Probe one benchmark workload outside the benchmark: ``point``, ``faults`` or ``svd``.

Builds one perfbench workload at one seed, solves it directly with
``solver.p2gdr`` in this process and measures what ``perfbench/run.py
--trace 1`` cannot, best of (or over) ``--repeats``:

- ``point`` (mc-dense, 50): at the final point, the milliseconds of
  ``point.matrix()``; for a residual cost, of ``problem.gradient(point)``,
  the residual formed from the point's factors; of
  ``problem.evaluate(point)``, as every line-search trial takes it (for a
  residual cost that gradient and its dot, for a polynomial ``eval`` at
  ``point.matrix()``); of its deferred gradient plus ``stationarity_measure``,
  handed over as the solver hands over an accepted point's
  (``solver._evaluate``); and of ``variety.step_frame`` of the report's
  tangent then ``variety.project_step_factored`` at ``-alpha_hi``, the
  step's two tall QRs plus its first trial as ``solver.p2gd_step`` takes
  them. One line for the solve, then one per timing.
- ``faults`` (mc-dense, 5): per solve, its wall seconds and minor page
  faults (the change in ``resource.getrusage(RUSAGE_SELF).ru_minflt``),
  and the ``tracemalloc`` peak of a repeat; then a line of medians. A
  buffer mapped fresh from the kernel costs a fault per 4 KB page each
  time it is made: wall time that no traced span holds.
- ``svd`` (rankdrop-cli, 3): records each ``linalg._leading_svd`` call of
  the solve (the start's SVD and every D-block with spare rank), replays
  each alone and prints its shape, k, the path that gave its result
  (``dense``, ``lanczos`` or ``block``), the completed steps of its
  Lanczos runs (the first run, then the certificate's; 0+0 where none
  ran), its sweeps, kept width, column-products and best wall time; then
  a line of totals. A sweep is one Rayleigh-Ritz step of the block
  iteration (one ``np.linalg.qr``) with the Chebyshev filter that follows
  it if it has not converged. The kept width is the last sweep's block
  width (0 where no sweep runs). A column-product is one column times
  ``a`` or ``a^T``: two per Lanczos step, the start block's columns,
  twice a sweep's width and twice the filter degree times a filter's
  width.

    PYTHONPATH=src python3 tools/probe.py point|faults|svd [--workload W] [--seed 101] [--size full] [--repeats N]

Point PYTHONPATH at another checkout's ``src`` to probe that library on
the same instance (``svd`` needs one with ``linalg._golub_kahan``).
``perfbench/workloads.py`` is loaded read-only from this checkout, as
``tools/trace_digest.py`` loads it. BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest.mock import patch  # noqa: E402

import numpy as np  # noqa: E402

from lowrankopt import linalg, problems, solver, variety  # noqa: E402
from trace_digest import load_workloads  # noqa: E402


def best_s(work, repeats: int) -> float:
    """Fewest seconds that ``work()`` took over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def point(inst, args) -> None:
    """Solve once, then time the final point's evaluation layer by layer."""
    problem = inst.problem
    trace = solver.p2gdr(problem, inst.x0, inst.params)
    final = trace.final_point
    m, n = final.shape
    print(f"solve workload={args.workload} size={args.size} seed={args.seed} shape={m}x{n} "
          f"rank={final.rank} iters={len(trace.records)} termination={trace.termination}")

    evaluation = problem.evaluate(final)
    tangent = solver._evaluate(problem, final)[0].tangent
    alpha = inst.params.line_search.alpha_hi
    timings = {"matrix": final.matrix}
    if isinstance(problem, problems.ResidualCost):
        timings["gradient"] = lambda: problem.gradient(final)
    timings |= {
        "evaluate": lambda: problem.evaluate(final),
        "gradient+measure": lambda: solver._evaluate(problem, final, evaluation),
        "step": lambda: variety.project_step_factored(
            final, variety.step_frame(final, tangent), -alpha),
    }
    for name, work in timings.items():
        print(f"{name} best_ms={best_s(work, args.repeats) * 1e3:.4f}", flush=True)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(problem, x0, params) -> tuple[float, int, int]:
    """Wall seconds and minor faults of one solve, and the traced peak bytes of a repeat."""
    minflt = minor_faults()
    start = time.perf_counter()
    solver.p2gdr(problem, x0, params)
    seconds = time.perf_counter() - start
    minflt = minor_faults() - minflt
    tracemalloc.start()
    try:
        solver.p2gdr(problem, x0, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, minflt, peak


def faults(inst, args) -> None:
    """Time solves, and count their minor page faults and traced peaks."""
    rows = []
    for i in range(args.repeats):
        seconds, minflt, peak = measure(inst.problem, inst.x0, inst.params)
        rows.append((seconds, minflt, peak))
        print(f"{i} wall_s={seconds:.6f} minflt={minflt} peak_mb={peak / 1e6:.3f}", flush=True)
    seconds, minflt, peak = (statistics.median(column) for column in zip(*rows))
    print(f"median wall_s={seconds:.6f} minflt={minflt:g} peak_mb={peak / 1e6:.3f}")


def record(problem, x0, params) -> list[tuple[np.ndarray, int]]:
    """The ``(a, k)`` of every ``_leading_svd`` call of one ``solver.p2gdr`` solve."""
    calls = []
    leading = linalg._leading_svd

    def recorded(a, k):
        calls.append((a.copy(), k))
        return leading(a, k)

    # variety calls the routine through the name it imported.
    with patch.object(variety, "_leading_svd", recorded):
        solver.p2gdr(problem, x0, params)
    return calls


def count(a: np.ndarray, k: int) -> tuple[str, list[int], int, int, int]:
    """The path that gave the result (dense, lanczos or block), the
    completed steps of each Lanczos run, the sweeps (Rayleigh-Ritz steps,
    one QR each), the kept width and the column-products of one
    ``_leading_svd(a, k)``."""
    qr_widths, filter_columns, dense_calls, runs, found = [], [], [], [], []
    qr, chebyshev_filter, dense = np.linalg.qr, linalg._chebyshev_filter, linalg.compute_svd
    golub_kahan, lanczos = linalg._golub_kahan, linalg._leading_lanczos

    def counted_qr(x, *args, **kwargs):
        qr_widths.append(np.shape(x)[1])
        return qr(x, *args, **kwargs)

    def counted_filter(a, v, av, theta, degree):
        filter_columns.append(2 * degree * v.shape[1])
        return chebyshev_filter(a, v, av, theta, degree)

    def counted_dense(x):
        dense_calls.append(1)
        return dense(x)

    def counted_golub_kahan(a, start, steps, stop, deflate=None):
        runs.append(0)

        def counted_stop(b, beta):
            runs[-1] += 1
            return stop(b, beta)

        return golub_kahan(a, start, steps, counted_stop, deflate)

    def recorded_lanczos(a, k):
        fact = lanczos(a, k)
        found.append(fact is not None)
        return fact

    with (patch.object(np.linalg, "qr", counted_qr),
          patch.object(linalg, "_chebyshev_filter", counted_filter),
          patch.object(linalg, "compute_svd", counted_dense),
          patch.object(linalg, "_golub_kahan", counted_golub_kahan),
          patch.object(linalg, "_leading_lanczos", recorded_lanczos)):
        linalg._leading_svd(a, k)
    path = "dense" if dense_calls else "lanczos" if any(found) else "block"
    col_products = 2 * sum(runs)
    if qr_widths:
        col_products += qr_widths[0] + 2 * sum(qr_widths) + sum(filter_columns)
    width = qr_widths[-1] if qr_widths else 0
    return path, (runs + [0, 0])[:2], len(qr_widths), width, col_products


def replay(calls: list[tuple[np.ndarray, int]], repeats: int) -> None:
    """Print one line per recorded call, then the totals."""
    paths = dict.fromkeys(("dense", "lanczos", "block"), 0)
    steps_total, sweeps_total, widths, col_products_total, seconds_total = [0, 0], 0, 0, 0, 0.0
    for i, (a, k) in enumerate(calls):
        path, steps, sweeps, width, col_products = count(a, k)
        seconds = best_s(lambda: linalg._leading_svd(a, k), repeats)
        paths[path] += 1
        steps_total = [total + run for total, run in zip(steps_total, steps)]
        sweeps_total += sweeps
        widths += width
        col_products_total += col_products
        seconds_total += seconds
        print(f"{i} shape={a.shape[0]}x{a.shape[1]} k={k} path={path} "
              f"lanczos_steps={steps[0]}+{steps[1]} sweeps={sweeps} width={width} "
              f"col_products={col_products} best_s={seconds:.6f}")
    print(f"total calls={len(calls)} " + " ".join(f"{path}={n}" for path, n in paths.items())
          + f" lanczos_steps={steps_total[0]}+{steps_total[1]} sweeps={sweeps_total} "
          f"width={widths} col_products={col_products_total} best_s={seconds_total:.6f}")


def svd(inst, args) -> None:
    """Record the solve's leading-triplet SVDs, then replay each alone."""
    replay(record(inst.problem, inst.x0, inst.params), args.repeats)


# Each probe with its default workload and repeats.
PROBES = {"point": (point, "mc-dense", 50),
          "faults": (faults, "mc-dense", 5),
          "svd": (svd, "rankdrop-cli", 3)}


def main(argv=None) -> int:
    workloads = load_workloads().WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (probe, workload, repeats) in PROBES.items():
        sub = subparsers.add_parser(name, help=probe.__doc__)
        sub.add_argument("--workload", choices=sorted(workloads), default=workload)
        sub.add_argument("--seed", type=int, default=101)
        sub.add_argument("--size", choices=("tiny", "full"), default="full")
        sub.add_argument("--repeats", type=int, default=repeats)
        sub.set_defaults(probe=probe)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        inst = workloads[args.workload].build(args.seed, Path(tmp) / args.workload, args.size)
    args.probe(inst, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
