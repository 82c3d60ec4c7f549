"""Record every leading-triplet SVD of one benchmark solve and replay it alone.

Solves one perfbench workload at one seed directly with ``solver.p2gdr``
and records each call of ``linalg._leading_svd`` it makes: the SVD of the
start (of G at a zero start) and the D-block of every tangent-cone
projection with spare rank. It then replays each recorded call on its own
and prints one line per call: its shape, k, the subspace sweeps it ran,
whether it ran the dense SVD (below the size cutoff, or as a fallback),
and the best of three wall times. A last line gives the totals. A sweep
is one Rayleigh-Ritz step, counted by its one ``np.linalg.qr`` call,
together with the Chebyshev filter that follows it when the step has not
converged.

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


def count(a: np.ndarray, k: int) -> tuple[int, bool]:
    """Sweeps (Rayleigh-Ritz steps, one QR each) and whether the dense SVD ran,
    for one ``_leading_svd(a, k)``."""
    qr_calls, dense_calls = [], []
    qr, dense = np.linalg.qr, linalg.compute_svd

    def counted_qr(*args, **kwargs):
        qr_calls.append(1)
        return qr(*args, **kwargs)

    def counted_dense(x):
        dense_calls.append(1)
        return dense(x)

    with patched(np.linalg, "qr", counted_qr), patched(linalg, "compute_svd", counted_dense):
        linalg._leading_svd(a, k)
    return len(qr_calls), bool(dense_calls)


def best_time(a: np.ndarray, k: int) -> float:
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        linalg._leading_svd(a, k)
        best = min(best, time.perf_counter() - start)
    return best


def replay(calls: list[tuple[np.ndarray, int]]) -> None:
    """Print one line per recorded call, then the totals."""
    sweeps_total = fallbacks = 0
    seconds_total = 0.0
    for i, (a, k) in enumerate(calls):
        sweeps, fallback = count(a, k)
        seconds = best_time(a, k)
        sweeps_total += sweeps
        fallbacks += fallback
        seconds_total += seconds
        print(f"{i} shape={a.shape[0]}x{a.shape[1]} k={k} sweeps={sweeps} "
              f"fallback={'yes' if fallback else 'no'} best_s={seconds:.6f}")
    print(f"total calls={len(calls)} sweeps={sweeps_total} fallbacks={fallbacks} "
          f"best_s={seconds_total:.6f}")


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
