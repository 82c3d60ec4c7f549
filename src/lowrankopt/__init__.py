"""First-order optimization over matrices of bounded rank.

The solver walks the set of m-by-n matrices of rank at most r by projected
steepest descent with a backtracking line search, and escapes the spurious
limits caused by rank drops by also trying steps from rank-truncated
copies of each iterate.
"""

from .linalg import (
    NonFiniteError,
    NumericalFailure,
    SvdFactorization,
    compute_svd,
    delta_rank,
    distance_to_bounded_rank,
    frobenius,
    singular_values,
    truncate_to_rank,
)
from .problems import (
    CostFunction,
    LowRankApproxProblem,
    MatrixCompletionProblem,
    UserPolynomialProblem,
    finite_difference_check,
    load_problem,
)
from .solver import (
    IterationRecord,
    LineSearchFailure,
    LineSearchParams,
    SolverParams,
    StepOutcome,
    Trace,
    kappa_bound,
    p2gd_plain,
    p2gd_step,
    p2gdr,
    p2gdr_search,
)
from .variety import (
    InfeasiblePointError,
    StationarityReport,
    StepFrame,
    TangentDecomposition,
    VarietyPoint,
    point_from_matrix,
    project_step_factored,
    project_to_tangent_cone,
    project_to_variety,
    stationarity_measure,
    stationarity_sandwich_check,
    step_frame,
    tangent_curve,
    tangent_line_distance_bound,
    tightness_instance,
)

__all__ = [
    "CostFunction",
    "InfeasiblePointError",
    "IterationRecord",
    "LineSearchFailure",
    "LineSearchParams",
    "LowRankApproxProblem",
    "MatrixCompletionProblem",
    "NonFiniteError",
    "NumericalFailure",
    "SolverParams",
    "StationarityReport",
    "StepFrame",
    "StepOutcome",
    "SvdFactorization",
    "TangentDecomposition",
    "Trace",
    "UserPolynomialProblem",
    "VarietyPoint",
    "compute_svd",
    "delta_rank",
    "distance_to_bounded_rank",
    "finite_difference_check",
    "frobenius",
    "kappa_bound",
    "load_problem",
    "p2gd_plain",
    "p2gd_step",
    "p2gdr",
    "p2gdr_search",
    "point_from_matrix",
    "project_step_factored",
    "project_to_tangent_cone",
    "project_to_variety",
    "singular_values",
    "stationarity_measure",
    "stationarity_sandwich_check",
    "step_frame",
    "tangent_curve",
    "tangent_line_distance_bound",
    "tightness_instance",
    "truncate_to_rank",
]

__version__ = "0.1.0"
