"""Dense SVD utilities: numerical rank, singular-value thresholds, and
best approximations by matrices of bounded rank, plus an iterative SVD of
the leading triplets for matrices much larger than the rank kept.

All norms and distances are Frobenius. Matrices are plain 2-D float64
numpy arrays; every function validates finiteness of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# The leading-triplet SVD starts from a block of k + LEADING_OVERSAMPLE
# columns; the oversampling sizes only its first Rayleigh-Ritz step, after
# which the block may narrow to the width with the least predicted work, and
# the size cutoff: it pays against LAPACK only on matrices whose smaller side
# is at least LEADING_MIN_RATIO starting widths; below that, the dense SVD
# runs.
LEADING_OVERSAMPLE = 10
LEADING_MIN_RATIO = 8
# It stops when every residual is within LEADING_RES_TOL * sigma_1. Between
# Rayleigh-Ritz steps a Chebyshev filter of degree LEADING_FILTER_DEGREE damps
# the spectrum below the block. It gives up when the residuals' decay predicts
# more than LEADING_PRODUCT_BUDGET * min(m, n) column-products (one column
# multiplied by the matrix or its transpose) in all: at that point the dense
# SVD is cheaper.
LEADING_RES_TOL = 1e-12
LEADING_FILTER_DEGREE = 3
LEADING_PRODUCT_BUDGET = 6
# After the first step the block narrows only where that divides the predicted
# column-products by at least LEADING_NARROW_GAIN: a narrowed block converges
# more slowly, so its last step overshoots the tolerance less and its triplets
# land nearer it.
LEADING_NARROW_GAIN = 1.5
# A product that forms or reads an m-by-n matrix goes over row blocks of it of
# about this many bytes (:func:`_row_blocks`), so that each block is still in
# cache when the next step reads it; a matrix of at most two blocks is taken
# whole. On a host with 2 MiB of L2 cache per core, U^T G and G V of a
# 1000-by-800 G were fastest with blocks of 256 KiB to 512 KiB, ~38% faster
# than whole (BENCH_15.json), while a 300-by-250 G (1.5 blocks) was fastest
# whole (BENCH_16.json).
PRODUCT_BLOCK_BYTES = 384 * 1024


class NumericalFailure(np.linalg.LinAlgError):
    """The underlying factorization routine did not converge."""


class NonFiniteError(ValueError):
    """A matrix holds NaN or Inf entries."""


def _lapack(name: str, a: np.ndarray, *, compute_uv: bool = True):
    """The one call of a LAPACK routine in the package: the thin SVD of
    ``a`` ("svd"; its singular values alone unless ``compute_uv``) or its
    reduced QR ("qr"). A routine that does not converge raises
    :class:`NumericalFailure` naming it and the shape of ``a``.

    The routine is looked up on ``np.linalg`` at each call, so code that
    replaces it (a tracer, a test) sees every call. Options go by name:
    forwarded as ``**options``, numpy's dispatcher held memory between
    calls, and poly-desk's tracemalloc peak rose 22%.
    """
    routine = getattr(np.linalg, name)
    try:
        if name == "qr":
            return routine(a)
        return routine(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{name.upper()} did not converge for shape {a.shape}") from exc


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array; reject empty input (ValueError) and
    NaN or Inf entries (:class:`NonFiniteError`)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return a


def json_number(key: str, value, *, integer: bool = False) -> int | float:
    """The number ``value`` given for ``key``: an int if ``integer``, else a float.

    Every number a caller or a JSON document gives is read by this rule
    (ranks, shapes, the solver's parameters, matrix and problem documents,
    run configs): ``null``, a bool, a string or any other value raises
    ValueError naming ``key``, as do a fraction where ``integer`` asks for
    an int and a number past a double. An integral float, or a numpy
    integer or float, is read as the int or float it equals. A run config
    drops its null keys beforehand."""
    if type(value) is (int if integer else float):  # the common case, before the slower checks
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) or (
        integer and not isinstance(value, (int, np.integer)) and not float(value).is_integer()
    ):
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{key!r} must be {kind}, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError:
        raise ValueError(f"{key!r} must be a number that fits a double") from None


def _rank_argument(key: str, value, top: int) -> int:
    """The rank ``value`` given for ``key``: an integer read by
    :func:`json_number` that lies in ``[0, top]``, else ValueError naming it."""
    value = json_number(key, value, integer=True)
    if not 0 <= value <= top:
        raise ValueError(f"{key!r} must lie in [0, {top}], got {value}")
    return value


def rank_threshold(sigma_max: float, shape: tuple[int, int]) -> float:
    """Numerical-rank cutoff: singular values at or below it count as zero.

    Scale-invariant rule ``sigma_max * max(m, n) * eps``, the standard
    surrogate for exact rank in floating point. The exact ``max(m, n) * eps``
    is taken first, so that no finite ``sigma_max`` gives an infinite cutoff.
    """
    return max(shape) * EPS * sigma_max


def numerical_rank(sigma: np.ndarray, shape: tuple[int, int]) -> int:
    """Number of the nonincreasing ``sigma`` of an m-by-n matrix above
    :func:`rank_threshold` of the first."""
    first = float(sigma[0]) if sigma.size else 0.0
    return int(np.count_nonzero(sigma > rank_threshold(first, shape)))


@dataclass(frozen=True)
class SvdFactorization:
    """Thin SVD ``X = U diag(sigma) V^T`` of an m-by-n matrix X.

    ``u`` is m-by-k and ``v`` is n-by-k with orthonormal columns, and
    ``sigma`` is nonincreasing and nonnegative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u.setflags(write=False)
        self.sigma.setflags(write=False)
        self.v.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def numerical_rank(self) -> int:
        return numerical_rank(self.sigma, self.shape)

    def reconstruct(self, each=None) -> np.ndarray:
        """The matrix ``U diag(sigma) V^T``, a fresh array formed over the
        row blocks of :func:`_row_blocks`.

        ``each(block, rows)``, when given, is called on each block, the view
        of rows ``rows``, as soon as it is formed, and may overwrite it. A
        matrix of one block is the whole product ``(u * sigma) @ v.T``,
        formed without a buffer to write into, whose views cost more than
        a small product; over more blocks, entries may differ from the
        whole product in the last bits.
        """
        scaled, vt = self.u * self.sigma, self.v.T
        blocks = _row_blocks(*self.shape)
        if len(blocks) == 1:
            x = scaled @ vt
            if each is not None:
                each(x, blocks[0])
            return x
        x = np.empty(self.shape)
        for rows in blocks:
            block = np.matmul(scaled[rows], vt, out=x[rows])
            if each is not None:
                each(block, rows)
        return x

    def entry_bound(self) -> float:
        """``||sigma|| ||U||_F ||V||_F``, a bound on the magnitude of every
        entry of X and of every term and partial sum of its product.

        It is taken from the three sums of squares, so it is Inf or NaN
        when a factor holds Inf or NaN or its squares overflow; squares
        that underflow can make it read low, but only for entries far below
        the largest double.
        """
        return math.sqrt(float(np.vdot(self.sigma, self.sigma)) * float(np.vdot(self.u, self.u))
                         * float(np.vdot(self.v, self.v)))

    def leading(self, k: int) -> "SvdFactorization":
        """The first ``k`` singular triplets, for k in ``[0, len(sigma)]``."""
        k = _rank_argument("k", k, len(self.sigma))
        return SvdFactorization(self.u[:, :k].copy(), self.sigma[:k].copy(), self.v[:, :k].copy())


def _row_blocks(m: int, n: int) -> list[slice]:
    """Row blocks of an m-by-n float64 matrix of about ``PRODUCT_BLOCK_BYTES``
    each, the last one shorter; a matrix of at most two blocks is one block."""
    step = max(1, PRODUCT_BLOCK_BYTES // (8 * n))
    if m <= 2 * step:
        return [slice(0, m)]
    return [slice(start, start + step) for start in range(0, m, step)]


def compute_svd(x) -> SvdFactorization:
    """Thin SVD of ``x`` with numerical-rank detection.

    Parameters
    ----------
    x : array_like, shape (m, n)
        Finite real matrix. Its numerical rank counts the singular values
        above :func:`rank_threshold`.

    Returns
    -------
    SvdFactorization
        Factors with k = min(m, n) triplets. ``v`` is a read-only
        transposed view of the routine's ``vh``; :meth:`SvdFactorization.leading`
        copies what it keeps.

    Raises
    ------
    NumericalFailure
        If the SVD iteration does not converge.
    """
    u, s, vh = _lapack("svd", as_matrix(x))
    return SvdFactorization(u, s, vh.T)


def _chebyshev_filter(a: np.ndarray, v: np.ndarray, av: np.ndarray, theta: float,
                      degree: int) -> None:
    """Overwrite ``av = a @ v`` with ``a @ T_degree(L) v``, up to a positive factor.

    ``L = 2 a^T a / theta^2 - I`` maps the squared singular values in
    ``[0, theta^2]`` to ``[-1, 1]``, where the Chebyshev polynomial stays
    within 1, and those above ``theta`` past 1, where it grows faster than
    any other polynomial of its degree. The three-term recurrence
    ``T_{j+1} = 2 L T_j - T_{j-1}`` runs in place on ``av`` and three
    n-by-w blocks, ``v`` (overwritten) among them. Each degree divides the
    two newest blocks by the newest one's largest entry, so no entry
    grows, and takes two products, one with ``a^T`` and one with ``a``.
    """
    prev, cur, spare = None, v, None
    for _ in range(degree):
        av *= 1.0 / theta
        nxt = np.matmul(a.T, av, out=spare)
        if prev is None:
            nxt *= 2.0 / theta
        else:
            nxt *= 4.0 / theta
            nxt -= cur
            nxt -= prev
        nxt -= cur
        scale = 1.0 / max(nxt.max(), -nxt.min())
        nxt *= scale
        cur *= scale
        spare, prev, cur = prev, cur, nxt
        np.matmul(a, cur, out=av)


def _narrowed_width(s: np.ndarray, k: int, residual: float, tol: float,
                    threshold: float) -> int:
    """The block width after a first step: w, or the one in ``[k + 1, w]``
    with the least predicted work.

    ``s`` holds the w Ritz values of a first Rayleigh-Ritz step whose
    largest residual is ``residual > tol``. A block of w' columns, filtered
    with ``theta = s_w'``, shrinks the k-th residual per sweep by at most
    ``rho = (s_{w'+1} / s_k)^2 / T_d(2 s_k^2 / s_w'^2 - 1)`` (1-based,
    ``s_{w+1} := s_w``, ``d = LEADING_FILTER_DEGREE``): the filter keeps
    every singular value outside the block, all at most the next Ritz
    value ``s_{w'+1}``, within ``|T_d| <= 1``. The predicted work is w'
    times the sweeps ``ceil(log(tol / residual) / log rho)``. A width
    whose next value is at most ``threshold``, or whose ``rho`` is not in
    (0, 1), is not a candidate; with none left, the width stays w.

    The width also stays w unless that least work is at most ``1 /
    LEADING_NARROW_GAIN`` of w's own; a w that is not a candidate counts
    as unbounded work.
    """
    width = len(s)
    sk = float(s[k - 1])
    works = {}
    for cols in range(k + 1, width + 1):
        theta, outside = float(s[cols - 1]), float(s[min(cols, width - 1)])
        if not outside > threshold:
            continue
        growth = math.cosh(LEADING_FILTER_DEGREE * math.acosh(2.0 * (sk / theta) ** 2 - 1.0))
        rho = (outside / sk) ** 2 / growth
        if not 0 < rho < 1:
            continue
        works[cols] = cols * math.ceil(math.log(tol / residual) / math.log(rho))
    if not works:
        return width
    kept = min(works, key=works.get)
    return kept if LEADING_NARROW_GAIN * works[kept] <= works.get(width, math.inf) else width


def _leading_svd(a: np.ndarray, k: int) -> SvdFactorization:
    """SVD of ``a`` whose leading ``k`` triplets are exact to a residual tolerance.

    When ``min(m, n)`` is at least ``LEADING_MIN_RATIO * (k +
    LEADING_OVERSAMPLE)``, the k triplets come from Chebyshev-filtered
    block subspace iteration. It starts from a Gaussian block of width
    ``w = k + LEADING_OVERSAMPLE`` drawn with a fixed seed, so repeated
    calls return identical bytes. Each Rayleigh-Ritz step orthonormalizes
    the last ``a Y`` into ``Q``, forms ``B = Q^T a`` and takes the SVD of
    its transpose ``B^T``: the n-by-w side is the tall one, on which
    LAPACK's SVD is cheaper than on the wide B. Then ``a V`` gives the
    residuals ``||a v_i - sigma_i u_i||``; ``a^T u_i = sigma_i v_i`` holds
    exactly by construction. The iteration stops when every one of the k
    residuals is at most ``LEADING_RES_TOL * sigma_1``, never on the
    singular values alone, so the factors agree with the dense SVD's to
    about that share. Otherwise :func:`_chebyshev_filter` turns ``V`` into
    ``Y = T_d(2 a^T a / theta_w^2 - I) V`` with ``d =
    LEADING_FILTER_DEGREE``, reusing ``a V``, where ``theta_w`` is the
    step's smallest Ritz value: every singular value below the block is
    damped against those in it, and each step advances the subspace by a
    polynomial of degree d + 1 in ``a^T a`` instead of ``a^T a`` alone.
    When ``theta_w`` is at the numerical-rank threshold, the block already
    holds the numerical range and the step runs unfiltered.

    The oversampling sizes only the first step. Before the first filter,
    :func:`_narrowed_width` reads that step's Ritz values and cuts ``V``,
    ``a V`` and the Ritz values to the width in ``[k + 1, w]`` with the
    least predicted column-products, where that divides w's own by at
    least ``LEADING_NARROW_GAIN``; past a flat bulk, a block of two or
    three columns converges in about as many filtered sweeps as one of
    k + 10, at a fraction of the cost per product.

    On smaller matrices, when the decay of the largest residual predicts
    that reaching the tolerance takes more than ``LEADING_PRODUCT_BUDGET *
    min(m, n)`` column-products (one column multiplied by ``a`` or ``a^T``;
    about what the dense SVD costs; a flat spectrum past the k-th value
    decays slowly), or when a factorization fails, the result is the dense
    :func:`compute_svd` of ``a`` with all min(m, n) triplets.
    """
    m, n = a.shape
    if LEADING_MIN_RATIO * (k + LEADING_OVERSAMPLE) > min(m, n):
        return compute_svd(a)
    width = min(k + LEADING_OVERSAMPLE, m, n)
    budget = LEADING_PRODUCT_BUDGET * min(m, n)
    omega = np.random.default_rng(0).standard_normal((n, width))
    av = a @ omega
    products, previous, previous_products = width, None, 0
    # Every step adds products and the prediction exceeds them, so the budget ends the loop.
    while True:
        try:
            q = _lapack("qr", av)[0]
            vb, s, ubh = _lapack("svd", (q.T @ a).T)
        except NumericalFailure:
            break
        av = a @ vb
        products += 2 * width
        u = q @ ubh[:k].T
        residual = float(np.max(_root_sum_of_squares(av[:, :k] - u * s[:k])))
        tol = LEADING_RES_TOL * float(s[0])
        if residual <= tol:
            return SvdFactorization(u, s[:k].copy(), vb[:, :k])
        threshold = rank_threshold(float(s[0]), a.shape)
        if previous is None:
            kept = _narrowed_width(s, k, residual, tol, threshold)
            if kept < width:
                width, s = kept, s[:kept]
                vb, av = np.ascontiguousarray(vb[:, :kept]), np.ascontiguousarray(av[:, :kept])
        else:
            rate = residual / previous
            if not (0 < rate < 1 and tol > 0):
                break
            per_step = products - previous_products
            if products + per_step * math.log(tol / residual) / math.log(rate) > budget:
                break
        previous, previous_products = residual, products
        del q, u
        theta = float(s[-1])
        if theta > threshold:
            _chebyshev_filter(a, vb, av, theta, LEADING_FILTER_DEGREE)
            products += 2 * LEADING_FILTER_DEGREE * width
    return compute_svd(a)


def singular_values(x) -> np.ndarray:
    """Singular values of ``x``, nonincreasing, length min(m, n)."""
    return _lapack("svd", as_matrix(x), compute_uv=False)


def delta_rank(x, delta: float) -> int:
    """Number of singular values strictly greater than ``delta``.

    Returns 0 for the zero matrix and for any matrix whose largest
    singular value does not exceed ``delta``. Only values within the
    numerical rank count: a ``delta`` below the noise floor cannot inflate
    the result past the rank itself.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    fact = compute_svd(x)
    return int(np.count_nonzero(fact.sigma[: fact.numerical_rank] > delta))


def _root_sum_of_squares(x: np.ndarray):
    """Root sum of squares of the vector ``x``, or of each column of the matrix ``x``.

    When the largest magnitude of ``x`` lies outside ``[2**-400, 2**400]``,
    its squares could overflow or underflow: ``x`` is then scaled by the
    power of two that brings that magnitude into [0.5, 1), and the result
    scaled back, both exactly. Inside that range the result is the
    unscaled one, bit for bit.
    """
    peak = max(x.max(initial=0.0), -x.min(initial=0.0))
    exponent = math.frexp(peak)[1] if peak and not 2.0**-400 <= peak <= 2.0**400 else 0
    if exponent:
        x = np.ldexp(x, -exponent)
    squares = np.dot(x, x) if x.ndim == 1 else np.sum(x * x, axis=0)
    return np.ldexp(np.sqrt(squares), exponent)


def tail_norm(sigma: np.ndarray, keep: int) -> float:
    """Root sum of squares of ``sigma[keep:]``, free of overflow and underflow."""
    return float(_root_sum_of_squares(np.asarray(sigma)[keep:]))


def truncate_to_rank(x, target: int) -> tuple[np.ndarray, float]:
    """Closest matrix of rank at most ``target`` and its distance.

    The closest point is obtained by zeroing the trailing singular values;
    the distance is the root sum of squares of the dropped ones. At ties of
    the target-th singular value the first triplets returned by the SVD are
    kept, which makes the choice deterministic. If the numerical rank of
    ``x`` is already within ``target`` the input is returned unchanged.

    Returns
    -------
    (ndarray, float)
        The truncated matrix and the Frobenius distance to it.
    """
    a = as_matrix(x)
    target = _rank_argument("target", target, min(a.shape))
    fact = compute_svd(a)
    distance = tail_norm(fact.sigma, target)
    if fact.numerical_rank <= target:
        return a.copy(), distance
    return fact.leading(target).reconstruct(), distance


def distance_to_bounded_rank(x, target: int) -> float:
    """Frobenius distance from ``x`` to the matrices of rank at most ``target``."""
    a = as_matrix(x)
    target = _rank_argument("target", target, min(a.shape))
    return tail_norm(singular_values(a), target)


def frobenius(x) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64)))
