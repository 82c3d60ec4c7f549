"""Outside-in spans around the library's public functions.

Everything here is installed from the benchmark's side: each traced
function is replaced, in every ``lowrankopt`` module that holds it, by a
wrapper that records a span while a solve is open. The library's sources
are not touched, and :meth:`Patches.restore` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from lowrankopt import cli, linalg, problems, serialize, solver, variety

# Public functions traced where they are called: span name -> (home module, attribute).
FUNCTIONS = {
    "linalg.compute_svd": (linalg, "compute_svd"),
    "variety.project_to_variety": (variety, "project_to_variety"),
    "variety.project_to_tangent_cone": (variety, "project_to_tangent_cone"),
    "variety.stationarity_measure": (variety, "stationarity_measure"),
    "variety.point_from_matrix": (variety, "point_from_matrix"),
    "problems.load_problem": (problems, "load_problem"),
    "serialize.load_matrix": (serialize, "load_matrix"),
    "solver.p2gdr": (solver, "p2gdr"),
    "solver.p2gdr_search": (solver, "p2gdr_search"),
    "solver.p2gd_step": (solver, "p2gd_step"),
}
# Attributes looked up at call time on one owner: span name -> (owner, attribute).
ATTRIBUTES = {
    "linalg.np_svd": (np.linalg, "svd"),
    "linalg.np_qr": (np.linalg, "qr"),
    "cli.config_load": (cli.RunConfig, "load"),
    "solver.trace_to_csv": (solver.Trace, "to_csv"),
}
# Cost-function methods, traced on every concrete problem class.
METHODS = {"problems.eval": "eval", "problems.gradient": "gradient"}
# Counts read at a boundary and kept on its span: input elements of each
# dense SVD, backtracks of each accepted line search.
_INFO = {
    "linalg.np_svd": lambda args, result: int(np.prod(np.shape(args[0])[-2:])),
    "solver.p2gd_step": lambda args, result: result.backtrack_count,
}

SPAN_NAMES = tuple(sorted([*FUNCTIONS, *ATTRIBUTES, *METHODS]))
ROOT = "bench.solve"


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "lowrankopt" or name.startswith("lowrankopt.")]


def _problem_classes() -> list:
    return [
        cls for cls in vars(problems).values()
        if isinstance(cls, type) and issubclass(cls, problems.CostFunction)
        and cls is not problems.CostFunction
    ]


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class IterationTimer:
    """Times every outer iteration by wrapping ``solver.p2gdr_search``.

    The untraced run installs this and nothing else, so its per-iteration
    times carry one wrapper call of overhead per iteration.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self._patches = Patches()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - start)
        return timed

    def __enter__(self):
        self._patches.replace(solver, "p2gdr_search", self._wrap)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class Tracer:
    """Keeps spans in memory while installed; records only inside a solve.

    A span is ``[name, start, end, parent, solve, info]``: ``parent`` is the
    index of the enclosing span (None for a solve's root), ``solve`` the id
    shared by every span of one solve, and ``info`` a count the boundary
    reports (input elements for ``linalg.np_svd``, backtracks for
    ``solver.p2gd_step``).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._solve: int | None = None
        self._patches = Patches()

    def _wrap(self, name: str, info=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self._solve is None:
                    return fn(*args, **kwargs)
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._close(index, None)
                    raise
                self._close(index, info(args, result) if info else None)
                return result
            return traced
        return make

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._solve, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int, info) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = info
        self._stack.pop()

    @contextmanager
    def solve(self, solve_id: int):
        """Open the root span of one solve; library calls inside it are recorded."""
        self._solve = solve_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index, None)
            self._solve = None

    def __enter__(self):
        modules = _package_modules()
        for name, (home, attr) in FUNCTIONS.items():
            fn = getattr(home, attr)
            for module in modules:
                if vars(module).get(attr) is fn:
                    self._patches.replace(module, attr, self._wrap(name, _INFO.get(name)))
        for name, (owner, attr) in ATTRIBUTES.items():
            self._patches.replace(owner, attr, self._wrap(name, _INFO.get(name)))
        for name, attr in METHODS.items():
            for cls in _problem_classes():
                if attr in vars(cls):
                    self._patches.replace(cls, attr, self._wrap(name))
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def write(self, path: Path, t0: float, kept: set) -> None:
        """Write every span as CSV, times in seconds since ``t0``.

        ``kept`` holds the ids of the solves that passed the gate; the
        ``kept`` column is 0 for spans of the others.
        """
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "solve", "kept", "parent", "name", "start_s", "end_s", "info"])
            for i, (name, start, end, parent, solve_id, info) in enumerate(self.spans):
                out.writerow([
                    i, solve_id, int(solve_id in kept), "" if parent is None else parent, name,
                    f"{start - t0:.9f}", f"{end - t0:.9f}", "" if info is None else info,
                ])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], traces: list, kept=None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced solves, each as (value, unit).

    ``traces`` are the kept solves' traces and ``kept`` their solve ids
    (every solve in ``spans`` when None); spans of other solves are
    skipped. Span counts and times are means per kept solve; the ratios
    come from the spans' reported counts and the traces' iteration records.
    """
    n = max(1, len(traces))
    counted = [(s, t) for s, t in zip(spans, self_times(spans)) if kept is None or s[4] in kept]
    spans = [s for s, _ in counted]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in counted:
        calls[span[0]] += 1
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / n, "count/solve")
        metrics[f"{name}.self_s"] = (own[name] / n, "s/solve")
        metrics[f"{name}.total_s"] = (total[name] / n, "s/solve")

    svd_elems = [s[5] for s in spans if s[0] == "linalg.np_svd"]
    backtracks = [s[5] for s in spans if s[0] == "solver.p2gd_step" and s[5] is not None]
    records = [r for t in traces for r in t.records]
    iters = max(1, len(records))
    truncated = sum(r.candidates_evaluated - 1 for r in records)
    metrics["linalg.svd_elems"] = (sum(svd_elems) / n, "elems/solve")
    metrics["linalg.svd_max_elems"] = (float(max(svd_elems, default=0)), "elems")
    metrics["variety.tangent_cone_per_iter"] = (calls["variety.project_to_tangent_cone"] / iters, "count/iter")
    metrics["problems.eval_per_iter"] = (calls["problems.eval"] / iters, "count/iter")
    metrics["problems.gradient_per_iter"] = (calls["problems.gradient"] / iters, "count/iter")
    metrics["solver.backtracks"] = (sum(backtracks) / n, "count/solve")
    metrics["solver.accept_ratio"] = (
        len(backtracks) / max(1, sum(b + 1 for b in backtracks)), "ratio")
    metrics["solver.candidates"] = (sum(r.candidates_evaluated for r in records) / n, "count/solve")
    metrics["solver.reduced_win_ratio"] = (
        sum(r.chosen_j > 0 for r in records) / truncated if truncated else 0.0, "ratio")
    metrics["solver.spare_rank_share"] = (sum(r.delta_rank < r.rank for r in records) / iters, "ratio")
    return metrics
