"""Geometry of the bounded-rank matrix set.

A feasible point is kept in thin-SVD factored form together with the rank
bound. The factored form is the source of truth for the point's rank: the
cone of first-order feasible directions changes discontinuously when the
rank drops, so re-thresholding a dense matrix mid-algorithm would silently
change the geometry. Orthogonal complements of the factors are never
materialized; all block computations use projector identities on the thin
factors instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    NonFiniteError,
    SvdFactorization,
    _lapack,
    _leading_svd,
    _rank_argument,
    _real_argument,
    _row_blocks,
    as_matrix,
    compute_svd,  # noqa: F401  not called here; perfbench's tracer test reads variety.compute_svd
    frobenius,
    json_number,
    numerical_rank,
)

ORTHONORMALITY_TOL = 1e-10


class InfeasiblePointError(ValueError):
    """A matrix violates the rank bound it was declared to satisfy."""


@dataclass(frozen=True)
class VarietyPoint(SvdFactorization):
    """A matrix of rank at most ``rank_bound``: a thin SVD plus the bound.

    ``u`` (m-by-k) and ``v`` (n-by-k) have orthonormal columns, ``sigma``
    holds k finite, strictly positive, nonincreasing values, and k is the
    exact rank of the represented matrix ``u @ diag(sigma) @ v.T``. The
    zero matrix is represented with k = 0.

    ``rank_bound`` is an integer in ``[0, min(m, n) - 1]``, read by
    the rank rule of :mod:`~lowrankopt.linalg`. Construction checks all of
    this and raises ``ValueError`` otherwise
    (:class:`InfeasiblePointError` for k above the bound): a NaN or Inf in
    ``sigma`` fails the sigma check, and a NaN or Inf in ``u`` or ``v``
    fails the orthonormality check, whose error is the largest entry of
    ``|Q^T Q - I|`` and must be at most ``ORTHONORMALITY_TOL``.
    """

    rank_bound: int

    def __post_init__(self):
        m, ku = self.u.shape
        n, kv = self.v.shape
        object.__setattr__(self, "rank_bound",
                           _rank_argument("rank_bound", self.rank_bound, min(m, n) - 1))
        k = self.sigma.shape[0]
        if not (ku == kv == k):
            raise ValueError(f"factor ranks disagree: u has {ku}, v has {kv}, sigma has {k}")
        if k > self.rank_bound:
            raise InfeasiblePointError(f"factored rank {k} exceeds rank bound {self.rank_bound}")
        if k > 0:
            # Every comparison with a NaN is false, so a NaN anywhere fails
            # one of these; a first value below Inf bounds all the rest.
            values = self.sigma.tolist()
            if not (values[0] < math.inf and values[-1] > 0
                    and all(map(operator.ge, values, values[1:]))):
                raise ValueError("sigma must be finite, positive and nonincreasing")
            for name, q in (("u", self.u), ("v", self.v)):
                gram = q.T @ q
                gram.flat[:: k + 1] -= 1.0
                err = np.abs(gram, out=gram).max()
                if not err <= ORTHONORMALITY_TOL:
                    raise ValueError(f"columns of {name} are not orthonormal (error {err:.2e})")
        super().__post_init__()

    @classmethod
    def zero(cls, shape: tuple[int, int], rank_bound: int) -> "VarietyPoint":
        """The zero matrix of ``shape``: factors of width 0."""
        m, n = shape
        return cls(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)), rank_bound)

    @classmethod
    def from_svd(cls, fact: SvdFactorization, rank_bound: int) -> "VarietyPoint":
        """The leading ``min(rank_bound, fact.numerical_rank)`` triplets of ``fact``."""
        lead = fact.leading(min(rank_bound, fact.numerical_rank))
        return cls(lead.u, lead.sigma, lead.v, rank_bound)

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    @property
    def sigma_min(self) -> float:
        """Smallest (nonzero) singular value; undefined at the zero matrix."""
        if self.rank == 0:
            raise ValueError("the zero matrix has no smallest nonzero singular value")
        return float(self.sigma[-1])

    matrix = SvdFactorization.reconstruct

    def delta_rank(self, delta: float) -> int:
        """Number of singular values strictly greater than ``delta``."""
        delta = _real_argument("delta", delta, finite=False)
        return int(np.count_nonzero(self.sigma > delta))

    def truncated(self, new_rank: int) -> "VarietyPoint":
        """Closest point of rank ``new_rank``, by dropping trailing triplets."""
        new_rank = _rank_argument("new_rank", new_rank, self.rank)
        if new_rank == self.rank:
            return self
        lead = self.leading(new_rank)
        return VarietyPoint(lead.u, lead.sigma, lead.v, self.rank_bound)


@dataclass(frozen=True)
class TangentDecomposition:
    """Blocks of an ambient matrix in the frame of a :class:`VarietyPoint`.

    For a point with factors (U, V) of rank k, a gradient-like matrix G
    splits into the k-by-k core ``a = U^T G V``, the row-space part
    ``b_cols = U^T G (I - V V^T)`` (k-by-n), the column-space part
    ``c_rows = (I - U U^T) G V`` (m-by-k), and the fully orthogonal part
    D = (I - U U^T) G (I - V V^T). Only the best approximation of D within
    the remaining rank budget is kept, as the point ``d_truncated``.
    """

    a: np.ndarray
    b_cols: np.ndarray
    c_rows: np.ndarray
    d_truncated: VarietyPoint


@dataclass(frozen=True)
class NormedGradient:
    """A gradient G with its Frobenius norm, known without a pass over G.

    Calling it returns G, so it serves as the deferred gradient of a cost's
    ``evaluate``. ``norm`` is ``||G||``, bit for bit ``frobenius(G)``;
    a cost whose value is half G's squared norm has it from that value.
    """

    g: np.ndarray
    norm: float

    def __call__(self) -> np.ndarray:
        return self.g


@dataclass(frozen=True)
class StationarityReport:
    """Norms attached to one first-order stationarity evaluation.

    ``s_value`` is the norm of the projection of the gradient G onto the
    cone of feasible directions, at most ``gradient_norm``. ``tangent``
    holds the blocks of G's projection behind it, so a descent step from
    the same point, which walks along their negation, can reuse them.
    """

    s_value: float
    gradient_norm: float
    tangent: TangentDecomposition


def point_from_matrix(x, rank_bound: int) -> VarietyPoint:
    """Factor a feasible matrix into a :class:`VarietyPoint`.

    Feasibility needs only the leading ``rank_bound + 1`` triplets, taken
    from ``linalg._leading_svd``: :class:`InfeasiblePointError` is raised
    when the last of them is above the numerical-rank threshold. A matrix
    with no nonzero entry is the zero point and needs no SVD.
    """
    a = as_matrix(x)
    rank_bound = _rank_argument("rank_bound", rank_bound, min(a.shape) - 1)
    if not a.any():
        return VarietyPoint.zero(a.shape, rank_bound)
    fact = _leading_svd(a, rank_bound + 1)
    if fact.numerical_rank > rank_bound:
        raise InfeasiblePointError(f"matrix has numerical rank above bound {rank_bound}")
    return VarietyPoint.from_svd(fact, rank_bound)


def project_to_variety(x, rank_bound: int) -> VarietyPoint:
    """Closest point of rank at most ``rank_bound``, in factored form.

    At ``rank_bound`` 0 the zero matrix is the only candidate, so no SVD
    runs. Otherwise the triplets come from ``linalg._leading_svd``, which
    agrees with the dense SVD to its residual tolerance.
    """
    a = as_matrix(x)
    rank_bound = _rank_argument("rank_bound", rank_bound, min(a.shape) - 1)
    if rank_bound == 0:
        return VarietyPoint.zero(a.shape, 0)
    return VarietyPoint.from_svd(_leading_svd(a, rank_bound), rank_bound)


@dataclass(frozen=True)
class StepFrame:
    """The factored form of a tangent direction, shared by every step size.

    For a point with factors (U, V) of rank k and a direction with blocks
    A, B, C and D = D_u diag(sigma_d) D_v^T (a :class:`TangentDecomposition`),
    ``left`` has orthonormal columns orthogonal to U whose span holds C and
    D_u: k plus D's rank of them, or m - k if that is fewer. ``right`` is
    the same for V, B^T and D_v. The direction is
    ``[U left] @ core @ [V right]^T``. ``peak`` is the largest entry of C
    and D_u diag(sigma_d), so ``alpha * peak`` overflows exactly when the
    step's tall factor ``alpha [C, D_u diag(sigma_d)]`` does.
    """

    left: np.ndarray
    right: np.ndarray
    core: np.ndarray
    peak: float


def _complement_qr(u: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``q, r`` with ``block = q r`` up to its share in span(``u``), which
    is roundoff here, and the columns of ``q`` orthonormal and orthogonal
    to ``u``.

    Householder QR of a rank-deficient ``block`` fills the columns beyond
    its rank with unit vectors that may lie in span(``u``); when an entry
    of ``u^T q`` is above ``ORTHONORMALITY_TOL``, the QR of ``[u, q]``
    takes them out.
    """
    q, r = _lapack("qr", block)
    k = u.shape[1]
    if k and q.size and np.abs(u.T @ q).max() > ORTHONORMALITY_TOL:
        q_both, r_both = _lapack("qr", np.hstack([u, q]))
        q, r = q_both[:, k:], r_both[k:, k:] @ r
    return q, r


def step_frame(point: VarietyPoint, tangent: TangentDecomposition) -> StepFrame:
    """The :class:`StepFrame` of ``tangent`` at ``point``: two tall QRs,
    of ``[C, D_u diag(sigma_d)]`` and ``[B^T, D_v]``.

    Raises
    ------
    NumericalFailure
        If a QR does not converge.
    """
    d = tangent.d_truncated
    k = point.rank
    tall = np.concatenate((tangent.c_rows, d.u * d.sigma), axis=1)
    left, r_left = _complement_qr(point.u, tall)
    right, r_right = _complement_qr(point.v, np.concatenate((tangent.b_cols.T, d.v), axis=1))
    core = np.empty((k + r_left.shape[0], k + r_right.shape[0]))
    core[:k, :k] = tangent.a
    core[:k, k:] = r_right[:, :k].T
    core[k:, :k] = r_left[:, :k]
    core[k:, k:] = r_left[:, k:] @ r_right[:, k:].T
    return StepFrame(left, right, core, float(np.abs(tall).max(initial=0.0)))


def project_step_factored(point: VarietyPoint, frame: StepFrame, alpha: float) -> VarietyPoint:
    """Project ``X + alpha G`` to the feasible set without forming it densely.

    In the ``frame`` of the direction G (its :func:`step_frame`),
    ``X + alpha G`` is ``[U left] K [V right]^T`` with the small core
    ``K = diag(sigma, 0) + alpha * frame.core``, so each step size costs
    one SVD of K and the products that rotate the kept columns into
    m-by-r and n-by-r factors; a line search computes the frame once for
    all its trials. Agrees with the dense projection
    :func:`project_to_variety` to tight tolerance.

    Raises
    ------
    NonFiniteError
        If an ``alpha``-scaled factor of the step, the core or the core's
        singular values overflow (a large ``alpha`` times a large
        direction).
    NumericalFailure
        If the core's SVD does not converge.
    """
    k = point.rank
    # An overflow is reported by the checks below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(alpha * frame.peak):
            raise NonFiniteError(f"the step's factors at alpha {alpha:.3e} are not finite")
        core = alpha * frame.core
        core[:k, :k] += np.diag(point.sigma)
    if not np.all(np.isfinite(core)):
        raise NonFiniteError(f"the step's core at alpha {alpha:.3e} is not finite")
    # At rank 0 with a zero direction the core is 0-by-0: the zero point.
    uu, ss, vvh = _lapack("svd", core)
    # A finite core's norm can pass a double, and the rank cutoff with it.
    if ss.size and not ss[0] < math.inf:
        raise NonFiniteError(f"the step's singular values at alpha {alpha:.3e} are not finite")
    keep = min(point.rank_bound, numerical_rank(ss, point.shape))
    u = point.u @ uu[:k, :keep] + frame.left @ uu[k:, :keep]
    v = point.v @ vvh[:keep, :k].T + frame.right @ vvh[:keep, k:].T
    return VarietyPoint(u, ss[:keep], v, point.rank_bound)


def _frame_products(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U^T g`` and ``g V``, in one pass over the row blocks of ``g`` that
    ``linalg._row_blocks`` gives.

    A ``g`` of one block is multiplied whole, bit for bit the two products;
    over more, ``U^T g`` is summed block by block and may differ from the
    whole product in the last bits.
    """
    m, n = g.shape
    blocks = _row_blocks(m, n)
    if len(blocks) == 1:
        return u.T @ g, g @ v
    utg = np.zeros((u.shape[1], n))
    gv = np.empty((m, v.shape[1]))
    for rows in blocks:
        np.matmul(g[rows], v, out=gv[rows])
        utg += u[rows].T @ g[rows]
    return utg, gv


def _cone_blocks(point: VarietyPoint, g: np.ndarray) -> tuple[TangentDecomposition, float]:
    """Blocks of the projection of ``g`` onto the tangent cone, and its norm.

    D = G - S, with S = U U^T G + c_rows V^T, is formed (in one m-by-n
    buffer) and truncated only when the point has spare rank budget; at
    full rank the cone is the tangent space and D's share is the zero
    point. At rank 0, D is ``g`` itself: neither SVD path writes into it.
    """
    m, n = point.shape
    if g.shape != (m, n):
        raise ValueError(f"direction shape {g.shape} does not match point shape {(m, n)}")
    u, v = point.u, point.v
    utg, gv = _frame_products(g, u, v)
    core = utg @ v
    b_cols = utg - core @ v.T
    c_rows = gv - u @ core
    budget = point.rank_bound - point.rank
    if budget > 0:
        if point.rank == 0:
            d_full = g
        else:
            d_full = u @ utg
            d_full += c_rows @ v.T
            np.subtract(g, d_full, out=d_full)
        d_tr = project_to_variety(d_full, budget)
    else:
        d_tr = VarietyPoint.zero((m, n), 0)
    norm = float(
        np.sqrt(
            np.sum(core * core)
            + np.sum(b_cols * b_cols)
            + np.sum(c_rows * c_rows)
            + np.dot(d_tr.sigma, d_tr.sigma)
        )
    )
    return TangentDecomposition(core, b_cols, c_rows, d_tr), norm


def project_to_tangent_cone(
    point: VarietyPoint, g
) -> tuple[TangentDecomposition, np.ndarray, float]:
    """Project ``g`` onto the cone of feasible directions at ``point``.

    The cone at a point of rank k keeps the ``a``, ``b_cols`` and
    ``c_rows`` blocks unrestricted and bounds the fully orthogonal block D
    by the leftover budget ``rank_bound - k``, so the projection replaces D
    by :func:`project_to_variety` of D within that budget and leaves the
    rest untouched. At the zero matrix D is ``g`` itself and the projection
    is the best rank-r approximation of ``g``.

    Returns
    -------
    (TangentDecomposition, ndarray, float)
        The block decomposition, the projected matrix
        ``U (a V^T + b_cols) + c_rows V^T + D_r``, and its norm. At ties in
        the orthogonal block's spectrum the projection is set-valued; the
        member kept is the deterministic first-triplets choice of the SVD
        routine.
    """
    decomp, norm = _cone_blocks(point, as_matrix(g))
    u, v = point.u, point.v
    projected = u @ (decomp.a @ v.T + decomp.b_cols)
    projected += decomp.c_rows @ v.T
    projected += decomp.d_truncated.matrix()
    return decomp, projected, norm


def stationarity_measure(problem, point: VarietyPoint, gradient=None) -> StationarityReport:
    """First-order stationarity of ``problem`` at ``point``.

    Projects ``gradient``, the gradient G at the point, onto the cone of
    feasible directions: the report's blocks are those that
    :func:`project_to_tangent_cone` returns, bit for bit. The cone is
    closed under negation, so -G's projection is their negation, of the
    same norm. ``gradient`` is an array, or a zero-argument callable that
    returns it (the deferred gradient of ``problem.evaluate(point)``);
    when None it is evaluated at the materialized point. A
    :class:`NormedGradient` lends its norm. The measure is computed at the
    point's declared factored rank, never by re-thresholding the dense
    matrix. A NaN or Inf gradient entry, or a norm that overflows to Inf,
    raises :class:`~lowrankopt.linalg.NonFiniteError`.
    """
    if gradient is None:
        gradient = problem.gradient(point.matrix())
    g = np.asarray(gradient() if callable(gradient) else gradient, dtype=np.float64)
    # A NaN or Inf entry, or a sum of squares that overflows, makes the norm
    # non-finite; that raises here, with no warning and no pass of its own.
    with np.errstate(over="ignore", invalid="ignore"):
        gradient_norm = gradient.norm if isinstance(gradient, NormedGradient) else frobenius(g)
        if not np.isfinite(gradient_norm):
            raise NonFiniteError(f"gradient norm {gradient_norm} is not finite")
        decomp, s = _cone_blocks(point, g)
    if not np.isfinite(s):
        raise NonFiniteError(f"measure {s} is not finite")
    return StationarityReport(s_value=s, gradient_norm=gradient_norm, tangent=decomp)


def stationarity_sandwich_check(point: VarietyPoint, report: StationarityReport) -> bool:
    """Verify the two-sided bound tying the measure to the gradient norm.

    The measure never exceeds the gradient norm, and is at least
    ``sqrt((r - k) / (min(m, n) - k))`` times it, where k is the point's
    rank and r the bound. Both inequalities are checked with an additive
    slack of ``1e-9 * gradient_norm``.
    """
    m, n = point.shape
    k = point.rank
    factor = np.sqrt((point.rank_bound - k) / (min(m, n) - k))
    slack = 1e-9 * report.gradient_norm
    upper_ok = report.gradient_norm + slack >= report.s_value
    lower_ok = report.s_value + slack >= factor * report.gradient_norm
    return bool(upper_ok and lower_ok)


def tangent_curve(point: VarietyPoint, tangent: TangentDecomposition, t: float) -> np.ndarray:
    """Feasible curve through ``point`` with initial velocity ``tangent``.

    The curve stays inside the bounded-rank set for all t >= 0, starts at
    the point, and deviates from the straight line only at second order:
    ``curve(t) = X + t G + (t^2/4) (U a + 2 c_rows) S^{-1} (a V^T + 2 b_cols)``
    where (U, S, V) are the point's factors and G the tangent matrix. It
    is undefined at the zero matrix, where S is not invertible.
    """
    if point.rank == 0:
        raise ValueError("the curve is undefined at the zero matrix")
    t = _real_argument("t", t, positive=False)
    u, s, v = point.u, point.sigma, point.v
    left = u + t * ((tangent.c_rows + 0.5 * u @ tangent.a) / s)
    right = v + t * ((tangent.b_cols.T + 0.5 * v @ tangent.a.T) / s)
    return (left * s) @ right.T + t * tangent.d_truncated.matrix()


def tangent_line_distance_bound(point: VarietyPoint, tangent_norm: float) -> float:
    """Upper bound on the distance from ``point + G`` back to the feasible set.

    For any feasible direction G at the point, the distance is at most
    ``sqrt(k) / (2 sigma_min) * ||G||^2`` with k the point's rank. The
    quadratic scaling is what makes line-search steps projectable without
    losing the descent they gained.
    """
    if point.rank == 0:
        raise ValueError("the bound is undefined at the zero matrix")
    tangent_norm = _real_argument("tangent_norm", tangent_norm, positive=False)
    return float(np.sqrt(point.rank) / (2.0 * point.sigma_min) * tangent_norm**2)


def tightness_instance(
    r: int, m: int, n: int, epsilon: float
) -> tuple[VarietyPoint, np.ndarray]:
    """Point/direction pair showing the distance bound's curvature factor is sharp.

    Builds a rank-r point X with smallest singular value ``1/(4*epsilon)``
    and a feasible direction G of norm ``sqrt(2)/(4*epsilon)`` such that
    the distance from X + G to the feasible set is at least
    ``(1/(2*sigma_min) - epsilon) * ||G||^2``: shrinking the smallest
    singular value makes the quadratic bound's constant blow up, so no
    bound of this form can drop the ``1/sigma_min`` factor. An ``epsilon``
    so small that an entry of X passes the largest double raises ValueError.
    """
    r, m, n = (json_number(key, value, integer=True) for key, value in zip("rmn", (r, m, n)))
    if r < 1:
        raise ValueError("r must be at least 1")
    if m < r + 1 or n < r + 1:
        raise ValueError(f"shape {(m, n)} too small: need m, n >= r + 1 = {r + 1}")
    epsilon = _real_argument("epsilon", epsilon)
    scale = 1.0 / (4.0 * epsilon)
    if (2.0 if r > 1 else 1.0) * scale == math.inf:
        raise ValueError(f"'epsilon' must be large enough that the largest entry, "
                         f"{2 if r > 1 else 1}/(4*epsilon), fits a double, got {epsilon}")
    x = np.zeros((m, n))
    for i in range(r - 1):
        x[i, i] = 2.0 * scale
    x[r - 1, r - 1] = scale
    g = np.zeros((m, n))
    g[r - 1, r] = scale
    g[r, r - 1] = scale
    return point_from_matrix(x, r), g
