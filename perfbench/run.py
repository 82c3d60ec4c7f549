"""Seeded, closed-loop solve benchmark for lowrankopt.

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs one solve at a time. Each run builds its workload from the
seed SETUP_REPEATS times, makes one untimed warm-up solve under
``tracemalloc`` (``peak_mem_mb``), then solves repeatedly for ``--seconds``
and at least MIN_ITERATIONS outer iterations, building the workload again
SETUP_EACH_SOLVE times after every timed solve. ``setup_s`` is the median
of all builds, so that it samples the same stretch of time as the solves.
Every solve passes through the correctness gate in ``workloads.check`` and
must reproduce the warm-up solve's trace CSV byte for byte.

Reported times are scaled to a host at its usual speed by the workload's
probe, timed between solves (see HostProbe); the raw seconds are kept in
the run's result file under ``perfbench/out``.

``--trace 0`` reports the end-to-end metrics; only ``solver.p2gdr_search``
is wrapped, to time iterations. ``--trace 1`` alternates untraced and
traced solves, at least MIN_OVERHEAD_PAIRS pairs, and reports per-layer
metrics from spans recorded around the library's public functions (see
tracing.py); the spans are written to ``perfbench/out`` when the run ends.
``--workload all`` runs every workload both ways. The last line of
standard output is one JSON object.

The package is imported from ``src/`` of the checkout holding this file,
with BLAS pinned to one thread: the single-threaded baseline.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_EACH_SOLVE = 2
MIN_ITERATIONS = 100
MIN_TIMED_SOLVES = 2
MIN_OVERHEAD_PAIRS = 3
# A run starts no round of solves that would likely end after this many
# seconds of measuring, whatever it has gathered, so that it ends well
# inside three minutes.
MEASURE_LIMIT_S = 120.0


def _import_library() -> None:
    """Import lowrankopt from this checkout's src/, and from nowhere else."""
    if not (SRC / "lowrankopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lowrankopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lowrankopt

    if Path(lowrankopt.__file__).resolve().parent != SRC / "lowrankopt":
        sys.exit(f"perfbench: imported lowrankopt from {lowrankopt.__file__}, not {SRC}")


_import_library()
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


class HostProbe:
    """Times a workload's probe, next to each of its solves.

    A shared host's speed drifts by tens of percent over seconds to
    minutes. The probe is work of the same kind as the workload's dominant
    work, written in the benchmark, so it drifts with the solves while no
    change to the library moves it. A call returns the host factor, probe
    seconds / the probe's nominal seconds; a time divided by the factor
    measured around it reads as seconds on a host at its usual speed. A
    change to the library moves scaled times as it moves raw ones, and the
    host's drift largely cancels.
    """

    def __init__(self, probe: workloads.Probe):
        self.nominal_s = probe.nominal_s
        self._work = probe.make()
        self.seconds: list[float] = []

    def __call__(self) -> float:
        with Stopwatch() as sw:
            self._work()
        self.seconds.append(sw.seconds)
        return sw.seconds / self.nominal_s


class PeakMemory:
    """Peak bytes allocated through Python and numpy while the block runs."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


class Gate:
    """Counts attempted and failed solves of one workload instance.

    A solve fails when it raises, when ``workloads.check`` finds a problem,
    or when its trace CSV differs from the first passing solve's.
    """

    def __init__(self, workload, instance):
        self.workload = workload
        self.instance = instance
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.csv: str | None = None

    def solve(self, scope):
        """Run one solve inside ``scope``; return its Trace, or None if it failed."""
        self.attempted += 1
        trace = csv = None
        try:
            with scope:
                raw = self.workload.solve(self.instance)
            trace, csv = self.workload.finish(self.instance, raw)
            problems = workloads.check(self.instance, trace)
        except Exception as exc:  # any exception is a failed solve, not a crash of the run
            problems = [f"{type(exc).__name__}: {exc}"]
        if csv is not None:
            if self.csv is None and not problems:
                self.csv = csv
            elif self.csv is not None and csv != self.csv:
                problems.append("trace CSV differs from the first solve's")
        if problems:
            self.failed += 1
            self.notes.append(f"solve {self.attempted}: " + "; ".join(problems))
            return None
        return trace


def setup(workload, seed: int, workdir: Path, count: int):
    """Build the instance ``count`` times; return the last and each build's seconds."""
    times = []
    for _ in range(count):
        with Stopwatch() as sw:
            instance = workload.build(seed, workdir)
        times.append(sw.seconds)
    return instance, times


class Budget:
    """When a measuring loop stops: once ``seconds`` have passed and it is
    ready, or when another round as long as the last would pass
    MEASURE_LIMIT_S."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.mark = time.perf_counter()

    def spent(self, ready: bool) -> bool:
        now = time.perf_counter()
        last_round, self.mark = now - self.mark, now
        elapsed = now - self.start
        return (elapsed >= self.seconds and ready) or elapsed + last_round > MEASURE_LIMIT_S


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    """Every time is scaled by the HostProbe factor measured next to it:
    a solve by the mean of the probes just before and after it, a build
    by the probe just before it."""
    probe = HostProbe(workload.probe)
    instance, build_s = setup(workload, seed, workdir, SETUP_REPEATS)
    factor = probe()
    setup_s = [t / factor for t in build_s]
    gate = Gate(workload, instance)
    memory = PeakMemory()
    gate.solve(memory)

    solve_s, raw_solve_s, iters = [], [], []
    iteration_s = []  # one list per solve
    timer = tracing.IterationTimer()
    budget = Budget(seconds)
    factor = probe()
    with timer:
        while gate.failed < 3 and not budget.spent(
            len(solve_s) >= MIN_TIMED_SOLVES and sum(map(len, iteration_s)) >= MIN_ITERATIONS
        ):
            mark = len(timer.seconds)
            sw = Stopwatch()
            trace = gate.solve(sw)
            after = probe()
            if trace is not None:
                scale = (factor + after) / 2
                raw_solve_s.append(sw.seconds)
                solve_s.append(sw.seconds / scale)
                iters.append(len(trace.records))
                iteration_s.append([t / scale for t in timer.seconds[mark:]])
            factor = after
            builds = setup(workload, seed, workdir, SETUP_EACH_SOLVE)[1]
            build_s += builds
            setup_s += [t / factor for t in builds]

    metrics = {"setup_s": (statistics.median(setup_s), "s"), "peak_mem_mb": (memory.peak / 1e6, "MB")}
    if solve_s:
        # Passing solves repeat the same iterations (their trace CSVs are
        # identical), so each iteration's time is the median over the
        # solves, and the percentiles run over iterations. Pooling every
        # timed iteration instead lets the median jump between iterations
        # of different cost as the host's speed drifts.
        iteration_ms = [1e3 * statistics.median(t) for t in zip(*iteration_s)]
        metrics.update({
            "solve_s": (statistics.median(solve_s), "s"),
            "iter_ms_p50": (statistics.median(iteration_ms), "ms"),
            "iter_ms_p90": (statistics.quantiles(iteration_ms, n=10)[-1], "ms"),
            "iters": (statistics.median(iters), "count"),
        })
    info = {
        "timed_solves": len(solve_s), "iterations": sum(map(len, iteration_s)),
        "raw_solve_s": raw_solve_s, "raw_build_s": build_s, "probe_s": probe.seconds,
    }
    return gate, metrics, info


def run_traced(workload, seed: int, seconds: float, workdir: Path, spans_path: Path):
    instance = workload.build(seed, workdir)
    gate = Gate(workload, instance)
    gate.solve(Stopwatch())  # untraced warm-up; its CSV is what traced solves must match

    tracer = tracing.Tracer()
    traces, kept, ratios = [], set(), []
    budget = Budget(seconds)
    solve_id = 0
    while gate.failed < 3 and not budget.spent(len(ratios) >= MIN_OVERHEAD_PAIRS):
        plain = Stopwatch()
        plain_passed = gate.solve(plain) is not None
        traced = Stopwatch()
        with tracer:
            trace = gate.solve(_traced(traced, tracer, solve_id))
        if trace is not None:
            traces.append(trace)
            kept.add(solve_id)
            if plain_passed:
                ratios.append(traced.seconds / plain.seconds)
        solve_id += 1
    # Spans of failed solves stay in the list, so that parent indices hold;
    # only the kept solves are counted.
    tracer.write(spans_path, budget.start, kept)

    metrics = tracing.layer_metrics(tracer.spans, traces, kept)
    if ratios:
        metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    info = {"traced_solves": len(traces), "overhead_pairs": len(ratios), "spans": str(spans_path)}
    return gate, metrics, info


@contextmanager
def _traced(stopwatch: Stopwatch, tracer, solve_id: int):
    """Time one solve around its root span."""
    with stopwatch, tracer.solve(solve_id):
        yield


END_TO_END = ("solve_s", "iter_ms_p50", "iter_ms_p90", "iters", "setup_s", "peak_mem_mb")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    return list(tracing.layer_metrics([], [])) + ["trace.overhead_frac"]


def run_one(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """One workload, one mode: print its table and return its result object."""
    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        if trace:
            gate, metrics, info = run_traced(workload, seed, seconds, workdir, OUT / f"spans-{tag}.csv")
        else:
            gate, metrics, info = run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = per_layer_names() if trace else END_TO_END
    missing = [m for m in expected if m not in metrics]
    result = {
        "correct": gate.failed == 0 and not missing,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in expected if m in metrics},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": workload.why, "predictions": workload.predictions, "environment": env,
        "probe": {"work": workload.probe.what, "nominal_s": workload.probe.nominal_s},
        "info": info, "failures": gate.notes, "missing_metrics": missing, **result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {name} seed={seed} trace={int(trace)}: {workload.why}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not trace:
        print(f"# times scaled by the probe: {workload.probe.what}, nominal {workload.probe.nominal_s} s")
    for layer, effect in workload.predictions.items():
        print(f"#   predicts {layer} -> {effect}")
    for m, entry in result["metrics"].items():
        print(f"{m:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'failed_frac':<40} {gate.failed / max(1, gate.attempted):>16.6g} ratio"
          f"  ({gate.failed} of {gate.attempted} solves)")
    for note in gate.notes + [f"metric missing: {m}" for m in missing]:
        print(f"# FAILED {note}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    env = environment()

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), env)
    else:
        parts = {
            (name, trace): run_one(name, args.seed, args.seconds, trace, env)
            for name in workloads.WORKLOADS for trace in (False, True)
        }
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {
                f"{name}/{m}": entry
                for (name, _), p in parts.items() for m, entry in p["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
