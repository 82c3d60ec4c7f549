"""Time the evaluation of one point of a benchmark workload, layer by layer.

Builds one perfbench workload at one seed, solves it once with
``solver.p2gdr`` in this process, and at the final point times, best of
``--repeats`` calls each:

- ``matrix``: ``point.matrix()``, the dense reconstruction;
- ``evaluate``: ``problem.evaluate(point)``, the cost and its deferred
  gradient, as every line-search trial takes them;
- ``gradient+measure``: the deferred gradient of one such evaluation and
  ``stationarity_measure`` of it, handed over as the solver hands over an
  accepted point's (``solver._evaluate``);
- ``step``: ``variety.step_frame`` of that report's direction, then
  ``variety.project_step_factored`` in that frame at the line search's
  first step size: the step's frame (its two tall QRs, taken once per
  line search) plus one trial's core SVD and factors.

One line describes the solve, then one line per timing, in milliseconds.

    PYTHONPATH=src python3 tools/point_eval_timing.py [--workload mc-dense] [--size full] [--repeats 50]

``perfbench/run.py --trace 1`` has no span around ``problems.evaluate`` or
``variety.project_step_factored``, so this is where a change to the
evaluation pass or to the step's projection shows on its own. Point
PYTHONPATH at another checkout's ``src`` to time that library at the same
point. ``perfbench/workloads.py`` is loaded read-only from this checkout,
as ``tools/trace_digest.py`` loads it. BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from lowrankopt import solver, variety  # noqa: E402
from trace_digest import load_workloads  # noqa: E402


def best_ms(work, repeats: int) -> float:
    """Fewest milliseconds that ``work()`` took over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    workloads = load_workloads().WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads), default="mc-dense")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        inst = workloads[args.workload].build(args.seed, Path(tmp) / args.workload, args.size)
    problem = inst.problem
    trace = solver.p2gdr(problem, inst.x0, inst.params)
    point = trace.final_point
    m, n = point.shape
    print(f"solve workload={args.workload} size={args.size} seed={args.seed} shape={m}x{n} "
          f"rank={point.rank} iters={len(trace.records)} termination={trace.termination}")

    evaluation = problem.evaluate(point)
    tangent = solver._evaluate(problem, point)[0].tangent
    alpha = inst.params.line_search.alpha_hi
    timings = {
        "matrix": point.matrix,
        "evaluate": lambda: problem.evaluate(point),
        "gradient+measure": lambda: solver._evaluate(problem, point, evaluation),
        "step": lambda: variety.project_step_factored(
            point, variety.step_frame(point, tangent), alpha),
    }
    for name, work in timings.items():
        print(f"{name} best_ms={best_ms(work, args.repeats):.4f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
