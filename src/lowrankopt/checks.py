"""Self-contained property suite exercising the library's invariants.

Each check draws its own seeded random instances, verifies one documented
inequality or identity against an independently computed quantity, and
reports a one-line detail. The CLI ``check`` subcommand runs all of them.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    compute_svd,
    delta_rank,
    distance_to_bounded_rank,
    frobenius,
    singular_values,
    truncate_to_rank,
)
from .problems import (
    LowRankApproxProblem,
    MatrixCompletionProblem,
    UserPolynomialProblem,
    finite_difference_check,
)
from .solver import (
    LineSearchParams,
    SolverParams,
    kappa_bound,
    p2gd_step,
    p2gdr,
    p2gdr_search,
)
from .variety import (
    VarietyPoint,
    point_from_matrix,
    project_to_tangent_cone,
    stationarity_measure,
    stationarity_sandwich_check,
    tangent_curve,
    tangent_line_distance_bound,
    tightness_instance,
)


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def random_point(rng, m: int, n: int, rank_bound: int, rank: int) -> VarietyPoint:
    """Random feasible point of exact rank ``rank`` with spectrum in [0.5, 2]."""
    if rank == 0:
        return VarietyPoint.zero((m, n), rank_bound)
    u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    sigma = np.sort(rng.uniform(0.5, 2.0, size=rank))[::-1].copy()
    return VarietyPoint(u, sigma, v, rank_bound)


def orthonormal_complement(q: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns of ``q``."""
    proj = np.eye(dim) - q @ q.T if q.shape[1] else np.eye(dim)
    full, _, _ = np.linalg.svd(proj)
    return full[:, : dim - q.shape[1]]


def check_singular_value_lipschitz() -> str:
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(200):
        m, n = rng.integers(2, 13, size=2)
        x = rng.standard_normal((m, n))
        y = rng.standard_normal((m, n))
        gap = np.abs(singular_values(x) - singular_values(y))
        worst = max(worst, float(gap.max() - frobenius(x - y)))
        _require(
            bool(np.all(gap <= frobenius(x - y) + 1e-10)),
            "singular values moved farther than the perturbation",
        )
    return f"200 pairs, max violation margin {worst:.2e}"


def check_truncation_norm_identity() -> str:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        m, n = rng.integers(2, 13, size=2)
        x = rng.standard_normal((m, n))
        target = int(rng.integers(0, min(m, n) + 1))
        y, dist = truncate_to_rank(x, target)
        lhs = frobenius(y) ** 2 + dist**2
        rel = abs(lhs - frobenius(x) ** 2) / frobenius(x) ** 2
        worst = max(worst, rel)
        _require(rel <= 1e-9, f"norm identity off by {rel:.2e}")
    return f"300 truncations, worst relative error {worst:.2e}"


def check_delta_rank_monotonic() -> str:
    rng = np.random.default_rng(12)
    for _ in range(200):
        m, n = rng.integers(2, 10, size=2)
        x = rng.standard_normal((m, n))
        d1, d2 = np.sort(rng.uniform(0.05, 3.0, size=2))
        _require(
            delta_rank(x, d1) >= delta_rank(x, d2),
            "delta-rank increased with a larger threshold",
        )
    return "200 threshold pairs, monotone"


def check_local_delta_rank() -> str:
    rng = np.random.default_rng(13)
    for _ in range(200):
        m, n = rng.integers(3, 10, size=2)
        rank = int(rng.integers(1, min(m, n)))
        x_pt = random_point(rng, m, n, min(m, n) - 1, rank)
        x = x_pt.matrix()
        delta = float(rng.uniform(0.1, 1.0))
        eps = 0.5 * min(x_pt.sigma_min, delta)
        e = rng.standard_normal((m, n))
        y = x + eps * e / frobenius(e)
        _require(delta_rank(y, delta) <= rank, "delta-rank of the perturbation too large")
        _require(
            compute_svd(y).numerical_rank >= rank,
            "perturbation lost numerical rank",
        )
        y_tr, _ = truncate_to_rank(y, rank)
        _require(
            frobenius(y_tr - x) <= 2 * eps + 1e-12,
            "rank-truncated perturbation left the doubled ball",
        )
    return "200 perturbed points, all within bounds"


def check_sandwich() -> str:
    rng = np.random.default_rng(14)
    for _ in range(1000):
        m, n = rng.integers(3, 13, size=2)
        r = int(rng.integers(1, min(4, min(m, n) - 1) + 1))
        rank = int(rng.integers(0, r + 1))
        point = random_point(rng, m, n, r, rank)
        problem = LowRankApproxProblem(rng.standard_normal((m, n)))
        report = stationarity_measure(problem, point)
        _require(
            stationarity_sandwich_check(point, report),
            f"sandwich bound failed at rank {rank}, bound {r}",
        )
    return "1000 random points, both inequalities hold"


def check_projection_optimality() -> str:
    rng = np.random.default_rng(15)
    for _ in range(300):
        m, n = rng.integers(3, 10, size=2)
        r = int(rng.integers(1, min(m, n)))
        rank = int(rng.integers(0, r + 1))
        point = random_point(rng, m, n, r, rank)
        z = rng.standard_normal((m, n))
        _, projected, _ = project_to_tangent_cone(point, z)
        u_perp = orthonormal_complement(point.u, m)
        v_perp = orthonormal_complement(point.v, n)
        budget = r - rank
        d_rand = np.zeros((m - rank, n - rank))
        if budget:
            d_rand = rng.standard_normal((m - rank, budget)) @ rng.standard_normal(
                (budget, n - rank)
            )
        w = u_perp @ d_rand @ v_perp.T
        if rank:
            w = (
                w
                + point.u @ rng.standard_normal((rank, rank)) @ point.v.T
                + point.u @ rng.standard_normal((rank, n - rank)) @ v_perp.T
                + u_perp @ rng.standard_normal((m - rank, rank)) @ point.v.T
            )
        _require(
            frobenius(z - projected) <= frobenius(z - w) + 1e-9,
            "a sampled feasible direction beat the projection",
        )
    return "300 sampled cone members, projection never beaten"


def check_frame_invariance() -> str:
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(100):
        m, n = rng.integers(3, 10, size=2)
        r = int(rng.integers(1, min(m, n)))
        rank = int(rng.integers(1, r + 1))
        point = random_point(rng, m, n, r, rank)
        problem = LowRankApproxProblem(rng.standard_normal((m, n)))
        signs = rng.choice([-1.0, 1.0], size=rank)
        flipped = VarietyPoint(point.u * signs, point.sigma.copy(), point.v * signs, r)
        s1 = stationarity_measure(problem, point).s_value
        s2 = stationarity_measure(problem, flipped).s_value
        rel = abs(s1 - s2) / max(s1, 1e-300)
        worst = max(worst, rel)
        _require(rel <= 1e-9, f"sign-flipped factors changed the measure by {rel:.2e}")
    return f"100 sign flips, worst relative change {worst:.2e}"


def check_curve_identity() -> str:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(300):
        m, n = rng.integers(3, 10, size=2)
        r = int(rng.integers(1, min(m, n)))
        rank = int(rng.integers(1, r + 1))
        point = random_point(rng, m, n, r, rank)
        tangent, g_proj, _ = project_to_tangent_cone(point, rng.standard_normal((m, n)))
        t = float(rng.uniform(0.0, 2.0))
        gamma = tangent_curve(point, tangent, t)
        quad = (
            (point.u @ tangent.a + 2.0 * tangent.c_rows)
            / point.sigma
        ) @ (tangent.a @ point.v.T + 2.0 * tangent.b_cols)
        expected = point.matrix() + t * g_proj + 0.25 * t * t * quad
        scale = max(frobenius(expected), 1e-300)
        rel = frobenius(gamma - expected) / scale
        worst = max(worst, rel)
        _require(rel <= 1e-9, f"curve deviates from its expansion by {rel:.2e}")
        _require(
            compute_svd(gamma).numerical_rank <= r,
            "curve left the bounded-rank set",
        )
    return f"300 curve points, worst relative deviation {worst:.2e}"


def check_tangent_line_bound() -> str:
    rng = np.random.default_rng(18)
    for _ in range(1000):
        m, n = rng.integers(3, 10, size=2)
        r = int(rng.integers(1, min(m, n)))
        rank = int(rng.integers(1, r + 1))
        point = random_point(rng, m, n, r, rank)
        _, g_proj, norm = project_to_tangent_cone(point, rng.standard_normal((m, n)))
        dist = distance_to_bounded_rank(point.matrix() + g_proj, r)
        bound = tangent_line_distance_bound(point, norm)
        _require(dist <= bound + 1e-10, f"distance {dist:.3e} above bound {bound:.3e}")
    return "1000 tangent displacements, bound holds"


def check_continuity_sample() -> str:
    rng = np.random.default_rng(19)
    m, n, r, rank = 8, 7, 4, 2
    point = random_point(rng, m, n, r, rank)
    problem = LowRankApproxProblem(rng.standard_normal((m, n)))
    s0 = stationarity_measure(problem, point).s_value
    x = point.matrix()
    deviations = []
    for h in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for _ in range(40):
            e = rng.standard_normal((m, n))
            y = x + h * e / frobenius(e)
            fact = compute_svd(y).leading(rank)
            y_pt = VarietyPoint(fact.u, fact.sigma, fact.v, r)
            worst = max(worst, abs(stationarity_measure(problem, y_pt).s_value - s0))
        deviations.append(worst)
    _require(
        deviations[0] > deviations[1] > deviations[2],
        f"oscillation {deviations} not shrinking with the perturbation scale",
    )
    return f"oscillations {deviations[0]:.2e} > {deviations[1]:.2e} > {deviations[2]:.2e}"


def check_tightness_fixture() -> str:
    point, g = tightness_instance(r=2, m=3, n=3, epsilon=0.25)
    dist = distance_to_bounded_rank(point.matrix() + g, 2)
    expected = (np.sqrt(5.0) - 1.0) / 2.0
    _require(abs(dist - expected) <= 1e-10, f"distance {dist} != {expected}")
    gnorm2 = frobenius(g) ** 2
    _require(abs(gnorm2 - 2.0) <= 1e-12, f"||G||^2 = {gnorm2} != 2")
    ratio = dist / gnorm2
    _require(ratio >= 0.5 - 0.25 - 1e-10, f"ratio {ratio} below the tightness floor")
    return f"distance {dist:.12f}, ratio {ratio:.6f} >= 0.25"


def check_armijo_and_descent() -> str:
    rng = np.random.default_rng(20)
    a = rng.standard_normal((10, 8))
    problem = LowRankApproxProblem(a)
    params = SolverParams(
        rank_bound=3,
        delta=0.1 * singular_values(a)[0],
        line_search=LineSearchParams(),
        max_iters=500,
    )
    trace = p2gdr(problem, np.zeros((10, 8)), params)
    _require(trace.termination == "stationary", f"run ended with {trace.termination}")
    f_values = [rec.f_value for rec in trace.records] + [trace.final_f]
    _require(
        all(b < a_ for a_, b in zip(f_values, f_values[1:])),
        "cost was not strictly decreasing",
    )
    _require(
        all(rec.rank <= params.rank_bound for rec in trace.records)
        and trace.final_rank <= params.rank_bound,
        "an iterate violated the rank bound",
    )
    return f"{len(trace.records)} iterations, strictly decreasing, feasible"


def check_step_floor() -> str:
    rng = np.random.default_rng(21)
    ls = LineSearchParams()
    violations = 0
    for _ in range(200):
        m, n = rng.integers(4, 11, size=2)
        r = int(rng.integers(1, min(m, n)))
        rank = int(rng.integers(0, r + 1))
        point = random_point(rng, m, n, r, rank)
        problem = LowRankApproxProblem(rng.standard_normal((m, n)))
        if stationarity_measure(problem, point).s_value == 0.0:
            continue
        out = p2gd_step(problem, point, ls)
        kappa = kappa_bound(problem, point, ls.alpha_hi, 1.0)
        floor = min(ls.alpha_lo, ls.beta * (1.0 - ls.c) / kappa)
        if out.accepted_alpha < floor:
            violations += 1
    _require(violations == 0, f"{violations} steps fell below the guaranteed floor")
    return "200 steps, no step-size floor violations"


def check_candidate_dominance() -> str:
    rng = np.random.default_rng(22)
    count = 0
    for _ in range(50):
        m, n = 6, 5
        r = 3
        rank = int(rng.integers(1, r + 1))
        point = random_point(rng, m, n, r, rank)
        problem = LowRankApproxProblem(rng.standard_normal((m, n)))
        params = SolverParams(rank_bound=r, delta=float(rng.uniform(0.4, 2.5)), stop_tol=1e-12)
        if stationarity_measure(problem, point).s_value <= params.stop_tol:
            continue
        plain = p2gd_step(problem, point, params.line_search)
        best = p2gdr_search(problem, point, params).point
        _require(
            float(problem.eval(best.matrix())) <= plain.f_after + 1e-12,
            "rank reduction lost to the plain step",
        )
        count += 1
    return f"{count} searches, reduction never lost to depth 0"


def check_determinism() -> str:
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 6))
    mask = rng.uniform(size=(8, 6)) < 0.7
    problem = MatrixCompletionProblem(a, mask)
    params = SolverParams(rank_bound=2, delta=0.3, max_iters=60, stop_tol=1e-10)
    x0 = rng.standard_normal((8, 6))
    x0, _ = truncate_to_rank(x0, 2)
    t1 = p2gdr(problem, x0, params)
    t2 = p2gdr(problem, x0, params)
    _require(t1.to_csv() == t2.to_csv(), "repeated runs produced different traces")
    return f"two runs of {len(t1.records)} iterations, byte-identical traces"


def check_gradients() -> str:
    rng = np.random.default_rng(24)
    a = rng.standard_normal((5, 4))
    problems = [
        LowRankApproxProblem(a),
        MatrixCompletionProblem(a, rng.uniform(size=(5, 4)) < 0.5),
        UserPolynomialProblem(
            (5, 4),
            [
                ([(0, 0, 2), (1, 1, 2)], 0.7),
                ([(2, 3, 4)], -0.3),
                ([(4, 0, 1), (0, 3, 1), (1, 2, 1)], 1.1),
                ([(3, 3, 1)], 2.0),
            ],
        ),
    ]
    worst = 0.0
    for problem in problems:
        for _ in range(100):
            x = rng.standard_normal(problem.shape)
            worst = max(worst, finite_difference_check(problem, x, 1e-5))
    _require(worst <= 1e-6, f"finite differences disagree with gradients by {worst:.2e}")
    return f"3 problems x 100 points, worst discrepancy {worst:.2e}"


def check_truncated_target_stationary() -> str:
    rng = np.random.default_rng(25)
    for _ in range(50):
        m, n = rng.integers(4, 10, size=2)
        r = int(rng.integers(1, min(m, n) - 1))
        a = rng.standard_normal((m, n))
        sv = singular_values(a)
        if sv[r - 1] - sv[r] < 1e-3:
            continue
        problem = LowRankApproxProblem(a)
        x, _ = truncate_to_rank(a, r)
        point = point_from_matrix(x, r)
        s = stationarity_measure(problem, point).s_value
        _require(
            s <= 1e-8 * (1.0 + frobenius(a)),
            f"best approximation not stationary: s = {s:.2e}",
        )
    return "50 targets, best bounded-rank approximation is stationary"


def check_completion_full_mask() -> str:
    rng = np.random.default_rng(26)
    a = rng.standard_normal((6, 7))
    full = MatrixCompletionProblem(a, np.ones((6, 7), dtype=bool))
    plain = LowRankApproxProblem(a)
    for _ in range(50):
        x = rng.standard_normal((6, 7))
        _require(full.eval(x) == plain.eval(x), "full-mask eval differs")
        _require(
            bool(np.all(full.gradient(x) == plain.gradient(x))),
            "full-mask gradient differs",
        )
    return "50 points, full-mask completion matches plain approximation bitwise"


ALL_CHECKS = [
    ("singular_value_lipschitz", check_singular_value_lipschitz),
    ("truncation_norm_identity", check_truncation_norm_identity),
    ("delta_rank_monotonic", check_delta_rank_monotonic),
    ("local_delta_rank", check_local_delta_rank),
    ("stationarity_sandwich", check_sandwich),
    ("projection_optimality", check_projection_optimality),
    ("frame_invariance", check_frame_invariance),
    ("curve_identity", check_curve_identity),
    ("tangent_line_bound", check_tangent_line_bound),
    ("continuity_sample", check_continuity_sample),
    ("tightness_fixture", check_tightness_fixture),
    ("armijo_and_descent", check_armijo_and_descent),
    ("step_size_floor", check_step_floor),
    ("candidate_dominance", check_candidate_dominance),
    ("determinism", check_determinism),
    ("gradient_checks", check_gradients),
    ("truncated_target_stationary", check_truncated_target_stationary),
    ("completion_full_mask", check_completion_full_mask),
]


def run_all_checks() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) rows."""
    results = []
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
            results.append((name, True, detail))
        except Exception as exc:  # noqa: BLE001 - any failure is a suite failure
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
