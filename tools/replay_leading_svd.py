"""Record every leading-triplet SVD of one benchmark solve and replay it alone.

Solves one perfbench workload at one seed directly with ``solver.p2gdr``
and records each call of ``linalg._leading_svd`` it makes: the SVD of the
start (of G at a zero start) and the D-block of every tangent-cone
projection with spare rank. It then replays each recorded call on its own
and prints one line per call: its shape, k, the subspace sweeps it ran,
the block width it kept, its column-products, whether it ran the dense
SVD (below the size cutoff, or as a fallback), and the best of three wall
times. A last line gives the totals. A sweep is one Rayleigh-Ritz step,
counted by its one ``np.linalg.qr`` call, together with the Chebyshev
filter that follows it when the step has not converged. The kept width
is the block width of the last sweep (0 below the size cutoff, where no
sweep runs). A column-product is one column multiplied by ``a`` or
``a^T``: the start block's columns, twice a sweep's width (``Q^T a`` and
``a V``) and twice the filter degree times a filter's width. The width
rule in ``_leading_svd`` minimises them.

    PYTHONPATH=src python3 tools/replay_leading_svd.py [--workload rankdrop-cli] [--seed 101]

A change to the SVD routine can be sized on the recorded blocks without a
benchmark run: replay before and after, and compare the totals.
``perfbench/workloads.py`` is loaded read-only from this checkout, as
``tools/trace_digest.py`` loads it. BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from lowrankopt import linalg, solver, variety  # noqa: E402
from trace_digest import load_workloads  # noqa: E402

REPEATS = 3


@contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def record(problem, x0, params) -> list[tuple[np.ndarray, int]]:
    """The ``(a, k)`` of every ``_leading_svd`` call of one ``solver.p2gdr`` solve."""
    calls = []
    leading = linalg._leading_svd

    def recorded(a, k):
        calls.append((a.copy(), k))
        return leading(a, k)

    # variety calls the routine through the name it imported.
    with patched(variety, "_leading_svd", recorded):
        solver.p2gdr(problem, x0, params)
    return calls


def count(a: np.ndarray, k: int) -> tuple[int, int, int, bool]:
    """Sweeps (Rayleigh-Ritz steps, one QR each), the kept width, the
    column-products and whether the dense SVD ran, for one ``_leading_svd(a, k)``."""
    qr_widths, filter_columns, dense_calls = [], [], []
    qr, chebyshev_filter, dense = np.linalg.qr, linalg._chebyshev_filter, linalg.compute_svd

    def counted_qr(x, *args, **kwargs):
        qr_widths.append(np.shape(x)[1])
        return qr(x, *args, **kwargs)

    def counted_filter(a, v, av, theta, degree):
        filter_columns.append(2 * degree * v.shape[1])
        return chebyshev_filter(a, v, av, theta, degree)

    def counted_dense(x):
        dense_calls.append(1)
        return dense(x)

    with (patched(np.linalg, "qr", counted_qr),
          patched(linalg, "_chebyshev_filter", counted_filter),
          patched(linalg, "compute_svd", counted_dense)):
        linalg._leading_svd(a, k)
    if not qr_widths:
        return 0, 0, 0, bool(dense_calls)
    col_products = qr_widths[0] + 2 * sum(qr_widths) + sum(filter_columns)
    return len(qr_widths), qr_widths[-1], col_products, bool(dense_calls)


def best_time(a: np.ndarray, k: int) -> float:
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        linalg._leading_svd(a, k)
        best = min(best, time.perf_counter() - start)
    return best


def replay(calls: list[tuple[np.ndarray, int]]) -> None:
    """Print one line per recorded call, then the totals."""
    sweeps_total = widths = col_products_total = fallbacks = 0
    seconds_total = 0.0
    for i, (a, k) in enumerate(calls):
        sweeps, width, col_products, fallback = count(a, k)
        seconds = best_time(a, k)
        sweeps_total += sweeps
        widths += width
        col_products_total += col_products
        fallbacks += fallback
        seconds_total += seconds
        print(f"{i} shape={a.shape[0]}x{a.shape[1]} k={k} sweeps={sweeps} width={width} "
              f"col_products={col_products} fallback={'yes' if fallback else 'no'} "
              f"best_s={seconds:.6f}")
    print(f"total calls={len(calls)} sweeps={sweeps_total} width={widths} "
          f"col_products={col_products_total} fallbacks={fallbacks} best_s={seconds_total:.6f}")


def main(argv=None) -> int:
    workloads = load_workloads().WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads), default="rankdrop-cli")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    args = parser.parse_args(argv)
    workload = workloads[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        inst = workload.build(args.seed, Path(tmp) / args.workload, args.size)
    replay(record(inst.problem, inst.x0, inst.params))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
