"""Projected steepest descent on the bounded-rank set, with rank reduction.

One step projects the negative gradient onto the cone of feasible
directions, walks along it with a backtracking (sufficient-decrease) line
search, and projects each trial point back to the feasible set. The
rank-reducing outer loop additionally tries the same step from copies of
the iterate truncated down to its delta-rank and keeps whichever candidate
decreases the cost most; this is what prevents convergence to spurious
limits at rank drops. With the reduction disabled the loop is the plain
projected-descent baseline.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .linalg import NonFiniteError, json_number
from .variety import (
    StationarityReport,
    VarietyPoint,
    point_from_matrix,
    project_step_factored,
    stationarity_measure,
    step_frame,
)


class LineSearchFailure(RuntimeError):
    """Backtracking exhausted its budget without sufficient decrease.

    Under the theory this cannot happen for a correct gradient and a sane
    budget, so it almost always signals a defective gradient.
    """

    def __init__(self, message: str, last_alpha: float, reduction_depth: int | None = None):
        super().__init__(message)
        self.last_alpha = last_alpha
        self.reduction_depth = reduction_depth


@dataclass(frozen=True)
class LineSearchParams:
    """Backtracking constants.

    The search starts at ``alpha_hi`` and multiplies by ``beta`` until the
    sufficient-decrease test with margin ``c`` passes. ``alpha_lo`` enters
    the theoretical step-size floor ``min(alpha_lo, beta * (1 - c) / kappa)``.
    It is an absolute constant, unitless for the residual costs (whose step
    multiplies a gradient in the data's units) but not for a polynomial.
    Each field is read as a run config's key is (:func:`_read_numbers`).
    """

    alpha_lo: float = 1e-8
    alpha_hi: float = 1.0
    beta: float = 0.5
    c: float = 1e-4
    max_backtracks: int = 60

    def __post_init__(self):
        _read_numbers(self)
        if not 0 < self.alpha_lo < self.alpha_hi < np.inf:
            raise ValueError("need 0 < alpha_lo < alpha_hi < inf")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.c < 1:
            raise ValueError("c must lie in (0, 1)")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be positive")


@dataclass(frozen=True)
class SolverParams:
    """Outer-loop configuration.

    ``delta`` is the singular-value cutoff that triggers rank-reduction
    candidates; it carries the data's units. ``stop_tol`` of None resolves
    at solve start to ``1e-8 * ||grad f(x0)||``, with the gradient taken at
    the factored start point; an exact zero is unattainable in floating
    point. That default has no absolute floor, so scaling a residual
    cost's data and ``delta`` by a power of two scales the whole solve by
    it exactly. A zero gradient at the start still stops at once, as
    ``s = 0 <= 0``. Each numeric field is read as a run config's key is
    (:func:`_read_numbers`).
    """

    rank_bound: int
    delta: float
    line_search: LineSearchParams = field(default_factory=LineSearchParams)
    stop_tol: float | None = None
    max_iters: int = 1000

    def __post_init__(self):
        _read_numbers(self)
        if not isinstance(self.line_search, LineSearchParams):
            raise ValueError(
                f"'line_search' must be a LineSearchParams, got {self.line_search!r:.40}")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.rank_bound < 0:
            raise ValueError("rank_bound must be nonnegative")
        if self.stop_tol is not None and not 0 <= self.stop_tol < np.inf:
            raise ValueError("stop_tol must be nonnegative and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


def _read_numbers(params) -> None:
    """Read each ``int`` and ``float`` field (a ``float | None`` one may be None)
    of a frozen parameter class by :func:`~lowrankopt.linalg.json_number`, the
    rule for every number a caller or a document gives, naming the field.
    The annotations are strings (``from __future__``)."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type in ("int", "float") or (f.type == "float | None" and value is not None):
            object.__setattr__(params, f.name, json_number(f.name, value, integer=f.type == "int"))


@dataclass(frozen=True)
class StepOutcome:
    """Result of one accepted line-search step.

    ``gradient`` gives the gradient at ``next_point``: the zero-argument
    callable that the trial's ``problem.evaluate`` returned.
    """

    next_point: VarietyPoint
    accepted_alpha: float
    backtrack_count: int
    f_before: float
    f_after: float
    s_before: float
    gradient: Callable[[], np.ndarray]


@dataclass(frozen=True)
class SearchResult:
    """The winning candidate of :func:`p2gdr_search`, its record and cost.

    ``gradient`` is the winning step's :attr:`StepOutcome.gradient`, or
    None when the winner is a truncated copy that took no step.
    """

    point: VarietyPoint
    record: IterationRecord
    f_value: float
    gradient: Callable[[], np.ndarray] | None


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """Per-iteration trace row. A trace keeps one per iteration, so it has
    slots rather than a ``__dict__``.

    ``accepted_alpha`` is 0 in the rare case where the winning candidate
    was an already-stationary truncated copy that took no step.
    """

    index: int
    f_value: float
    s_value: float
    rank: int
    delta_rank: int
    chosen_j: int
    accepted_alpha: float
    candidates_evaluated: int


@dataclass
class Trace:
    """Full run history plus the final iterate and termination reason.

    ``termination`` is ``stationary``, ``max_iters``, ``line_search_failure``
    or ``nonfinite`` (a NaN or Inf gradient or cost at an iterate or a
    truncated candidate). A ``nonfinite`` trace keeps the records of the
    iterations completed before it, ``final_s`` is NaN, and so is
    ``stop_tol`` if it was to be resolved from a gradient that was not finite.
    """

    records: list[IterationRecord]
    final_point: VarietyPoint
    termination: str
    stop_tol: float
    final_f: float
    final_s: float
    wall_time_ms: float

    @property
    def final_rank(self) -> int:
        return self.final_point.rank

    def to_csv(self) -> str:
        lines = ["iter,f,s,rank,delta_rank,chosen_j,alpha,candidates"]
        for r in self.records:
            lines.append(
                f"{r.index},{r.f_value:.17g},{r.s_value:.17g},{r.rank},"
                f"{r.delta_rank},{r.chosen_j},{r.accepted_alpha:.17g},{r.candidates_evaluated}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        """JSON-ready run summary; a non-finite ``final_f`` or ``final_s`` is None."""
        return {
            "termination": self.termination,
            "iters": len(self.records),
            "final_f": _finite_or_none(self.final_f),
            "final_s": _finite_or_none(self.final_s),
            "final_rank": self.final_rank,
            "wall_time_ms": self.wall_time_ms,
        }


def _finite_or_none(x: float) -> float | None:
    return x if np.isfinite(x) else None


def _evaluate(problem, point: VarietyPoint, evaluation=None) -> tuple[StationarityReport, float]:
    """Report and cost at a point the solver stands on; a NaN or Inf
    gradient, measure or cost raises NonFiniteError.

    ``evaluation`` is the ``(f, gradient)`` pair of one
    ``problem.evaluate(point)``, taken here when None. The gradient
    callable goes to ``stationarity_measure`` as it is, so a norm it
    carries (see :class:`~lowrankopt.variety.NormedGradient`) is used.
    """
    f_value, gradient = problem.evaluate(point) if evaluation is None else evaluation
    report = stationarity_measure(problem, point, gradient)
    if not np.isfinite(f_value):
        raise NonFiniteError(f"cost is {f_value} at a rank-{point.rank} point")
    return report, f_value


def p2gd_step(
    problem,
    point: VarietyPoint,
    params: LineSearchParams,
    report: StationarityReport | None = None,
    f_value: float | None = None,
) -> StepOutcome:
    """One projected steepest-descent step with backtracking line search.

    Walks along -P, the steepest feasible descent: P is the report's
    projection of the gradient onto the cone of feasible directions at
    ``point``. Shrinks the step size geometrically until
    ``f(Y) <= f(X) - c * alpha * s**2``, where Y is the projection of
    ``X - alpha P`` back to the feasible set and s the norm of P. P's
    :func:`~lowrankopt.variety.step_frame` (the QRs of its tall factors)
    is taken once per step; each trial projects through
    :func:`project_step_factored` in that frame at ``-alpha``, so only
    the small core SVD is recomputed per trial alpha. Each trial is
    evaluated by ``problem.evaluate``, and the accepted one's gradient
    rides along in the outcome.

    ``report`` (the stationarity report at ``point``) and ``f_value``
    (the cost there) are both computed here unless both are supplied; a
    caller that holds them passes them in to save an evaluation.

    A NaN or Inf cost at a trial point fails the decrease test, so the
    search backtracks past it.

    Raises
    ------
    LineSearchFailure
        If ``max_backtracks`` reductions never reach sufficient decrease.
    NonFiniteError
        If the gradient or cost at ``point`` (when checked here) is not
        finite, or if a trial step's factors overflow (see
        :func:`~lowrankopt.variety.project_step_factored`).
    NumericalFailure
        If the QR of the step's frame or the SVD that projects a trial
        step does not converge.
    ValueError
        If the point is already stationary (zero direction norm).
    """
    if report is None or f_value is None:
        report, f_value = _evaluate(problem, point)
    s = report.s_value
    if s == 0.0:
        raise ValueError("point is stationary: the projected direction vanishes")

    frame = step_frame(point, report.tangent)
    alpha = params.alpha_hi
    for backtracks in range(params.max_backtracks + 1):
        y = project_step_factored(point, frame, -alpha)
        fy, gradient = problem.evaluate(y)
        if fy <= f_value - params.c * alpha * s * s:
            return StepOutcome(y, alpha, backtracks, f_value, fy, s, gradient)
        del gradient  # a rejected trial's gradient is not held through the next trial
        alpha *= params.beta
    raise LineSearchFailure(
        f"no sufficient decrease after {params.max_backtracks} backtracks "
        f"(last alpha {alpha / params.beta:.3e}); the gradient is likely wrong",
        last_alpha=alpha / params.beta,
    )


def kappa_bound(problem, point: VarietyPoint, alpha_hi: float, lipschitz: float) -> float:
    """Curvature constant controlling the guaranteed line-search step size.

    For a gradient with Lipschitz constant ``lipschitz`` on a ball large
    enough to contain every projected trial point, any step size up to
    ``(1 - c) / kappa`` passes the sufficient-decrease test, so backtracking
    accepts at least ``min(alpha_lo, beta * (1 - c) / kappa)``.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    if point.rank == 0:
        return 0.5 * lipschitz
    report = stationarity_measure(problem, point)
    t = np.sqrt(point.rank) / (2.0 * point.sigma_min)
    return float(
        t * report.gradient_norm
        + 0.5 * lipschitz * (t * alpha_hi * report.s_value + 1.0) ** 2
    )


def p2gdr_search(
    problem,
    point: VarietyPoint,
    params: SolverParams,
    *,
    reduce: bool = True,
    report: StationarityReport | None = None,
    f_value: float | None = None,
    index: int = 0,
) -> SearchResult:
    """One outer iteration: candidate steps from rank-truncated copies.

    Runs the descent step from the iterate itself (depth 0) and, when the
    delta-rank sits below the rank, from each truncation of the iterate
    down to the delta-rank. Returns the candidate with the smallest cost,
    its record and that cost, with the candidate's gradient attached (see
    :class:`SearchResult`); ties go to the smallest truncation depth. A
    truncated copy that is already stationary within ``params.stop_tol``
    stands as its own candidate without stepping. ``report`` and
    ``f_value`` at ``point`` are computed unless both are supplied. A NaN or Inf
    gradient or cost at ``point`` or at a truncated copy raises
    :class:`~lowrankopt.linalg.NonFiniteError`.

    A :class:`LineSearchFailure` at any candidate, a truncated one too,
    aborts the iteration with the candidate's depth j in
    ``reduction_depth``, even when a shallower step succeeded: with a
    correct gradient the search cannot fail, so dropping the candidate
    would hide a wrong gradient.
    """
    if report is None or f_value is None:
        report, f_value = _evaluate(problem, point)
    stop_tol = params.stop_tol if params.stop_tol is not None else 0.0
    if not report.s_value > stop_tol:
        raise ValueError("search requires a non-stationary point")

    rank = point.rank
    rdelta = point.delta_rank(params.delta)
    depth = rank - rdelta if reduce else 0

    best_point = None
    best_f = np.inf
    best_j = 0
    best_alpha = 0.0
    best_gradient = None
    for j in range(depth + 1):
        hat = point if j == 0 else point.truncated(rank - j)
        rep, f_hat = (report, f_value) if j == 0 else _evaluate(problem, hat)
        if rep.s_value <= stop_tol:
            cand_point, cand_f, cand_alpha, cand_gradient = hat, f_hat, 0.0, None
        else:
            try:
                out = p2gd_step(problem, hat, params.line_search, rep, f_hat)
            except LineSearchFailure as exc:
                exc.reduction_depth = j
                raise
            cand_point, cand_f, cand_alpha = out.next_point, out.f_after, out.accepted_alpha
            cand_gradient = out.gradient
        if cand_f < best_f:
            best_point, best_f, best_j, best_alpha = cand_point, cand_f, j, cand_alpha
            best_gradient = cand_gradient

    record = IterationRecord(
        index=index,
        f_value=f_value,
        s_value=report.s_value,
        rank=rank,
        delta_rank=rdelta,
        chosen_j=best_j,
        accepted_alpha=best_alpha,
        candidates_evaluated=depth + 1,
    )
    return SearchResult(best_point, record, best_f, best_gradient)


def _solve(problem, x0, params: SolverParams, reduce: bool) -> Trace:
    if np.shape(x0) != problem.shape:
        raise ValueError(f"x0 shape {np.shape(x0)} does not match problem shape {problem.shape}")
    start = time.perf_counter()
    point = point_from_matrix(x0, params.rank_bound)
    records: list[IterationRecord] = []
    f_value = np.nan
    try:
        report, f_value = _evaluate(problem, point)
        if params.stop_tol is None:
            params = replace(params, stop_tol=1e-8 * report.gradient_norm)
        while True:
            if report.s_value <= params.stop_tol:
                termination = "stationary"
                break
            if len(records) >= params.max_iters:
                termination = "max_iters"
                break
            try:
                found = p2gdr_search(
                    problem, point, params, reduce=reduce, report=report, f_value=f_value,
                    index=len(records),
                )
            except LineSearchFailure:
                termination = "line_search_failure"
                break
            point, f_value = found.point, found.f_value
            records.append(found.record)
            # A truncated winner that took no step has no gradient to hand over.
            report, f_value = _evaluate(
                problem, point, None if found.gradient is None else (f_value, found.gradient)
            )
            # The gradient is spent: do not hold it through the next iteration.
            del found
        final_s = report.s_value
    except NonFiniteError:
        termination = "nonfinite"
        final_s = np.nan

    return Trace(
        records=records,
        final_point=point,
        termination=termination,
        stop_tol=np.nan if params.stop_tol is None else params.stop_tol,
        final_f=f_value,
        final_s=final_s,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
    )


def p2gdr(problem, x0, params: SolverParams) -> Trace:
    """Projected steepest descent with rank reduction.

    Iterates :func:`p2gdr_search` until the stationarity measure falls to
    ``stop_tol`` or the iteration budget runs out. The cost is strictly
    decreasing along the produced sequence (up to floating-point
    resolution: in the last iterations before a very tight tolerance the
    guaranteed decrement can fall below one ulp of the cost), every
    iterate satisfies the rank bound, and (unlike the plain method)
    accumulation points of the sequence are stationary.
    """
    return _solve(problem, x0, params, reduce=True)


def p2gd_plain(problem, x0, params: SolverParams) -> Trace:
    """Plain projected steepest descent: the depth-0 candidate only.

    Baseline for comparison runs; on sequences where the delta-rank always
    equals the rank it produces exactly the same iterates as :func:`p2gdr`.
    """
    return _solve(problem, x0, params, reduce=False)
