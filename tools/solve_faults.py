"""Time direct solves of one benchmark workload and count their page faults.

Builds one perfbench workload at one seed and solves it ``--solves`` times
with ``solver.p2gdr`` in this process. Each solve is run twice: once
plain, for its wall time and the minor page faults it took (the change in
``resource.getrusage(RUSAGE_SELF).ru_minflt``), then again under
``tracemalloc`` for its peak of traced memory. One line per solve, then a
line of medians.

    PYTHONPATH=src python3 tools/solve_faults.py [--workload mc-dense] [--size full] [--solves 5]

A temporary that the allocator maps fresh from the kernel and unmaps on
free costs a page fault per 4 KB page each time it is made. That cost is
inside the wall time but charged to no traced span (``perfbench/run.py
--trace 1`` times functions, not the kernel), so a change that makes or
removes such buffers shows here: in the faults, and in the wall time of
the first solves of a fresh process. ``perfbench/workloads.py`` is loaded
read-only from this checkout, as ``tools/trace_digest.py`` loads it. BLAS
runs on one thread, as in the benchmark.
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

from lowrankopt import solver  # noqa: E402
from trace_digest import load_workloads  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(problem, x0, params) -> tuple[float, int, int]:
    """Wall seconds and minor faults of one solve, and the traced peak bytes of a repeat."""
    faults = minor_faults()
    start = time.perf_counter()
    solver.p2gdr(problem, x0, params)
    seconds = time.perf_counter() - start
    faults = minor_faults() - faults
    tracemalloc.start()
    try:
        solver.p2gdr(problem, x0, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, faults, peak


def main(argv=None) -> int:
    workloads = load_workloads().WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads), default="mc-dense")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    parser.add_argument("--solves", type=int, default=5)
    args = parser.parse_args(argv)
    if args.solves < 1:
        parser.error("--solves must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        inst = workloads[args.workload].build(args.seed, Path(tmp) / args.workload, args.size)
    rows = []
    for i in range(args.solves):
        seconds, faults, peak = measure(inst.problem, inst.x0, inst.params)
        rows.append((seconds, faults, peak))
        print(f"{i} wall_s={seconds:.6f} minflt={faults} peak_mb={peak / 1e6:.3f}", flush=True)
    seconds, faults, peak = (statistics.median(column) for column in zip(*rows))
    print(f"median wall_s={seconds:.6f} minflt={faults:g} peak_mb={peak / 1e6:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
