"""Cost functions with analytic gradients, plus a finite-difference checker.

Solvers only ever see analytic gradients; the finite-difference routine
exists to validate them, never to replace them.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from itertools import chain

import numpy as np

from .linalg import SvdFactorization, _real_argument, as_matrix, json_number
from .serialize import json_array, json_object, matrix_from_json, matrix_to_json, read_json
from .variety import NormedGradient


class CostFunction(ABC):
    """A differentiable function of an m-by-n matrix.

    Solvers evaluate a factored point through :meth:`evaluate`, once per
    point. A subclass that redefines ``eval`` or ``gradient`` but not
    ``evaluate`` gets the generic :meth:`evaluate` back, so a parent's
    specialised ``evaluate`` never bypasses the redefined methods.

    Attributes
    ----------
    shape : (int, int)
        Ambient matrix shape.
    """

    shape: tuple[int, int]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "evaluate" not in own and ("eval" in own or "gradient" in own):
            cls.evaluate = CostFunction.evaluate

    @abstractmethod
    def eval(self, x) -> float:
        ...

    @abstractmethod
    def gradient(self, x) -> np.ndarray:
        ...

    def evaluate(self, point) -> tuple[float, Callable[[], np.ndarray]]:
        """Cost at a factored point and its gradient, deferred.

        Forms ``point.matrix()`` once; the returned zero-argument callable
        gives :meth:`gradient` at that matrix when called. A cost may return
        a :class:`~lowrankopt.variety.NormedGradient` as that callable: it
        gives the same G and carries ``||G||`` (bit for bit
        ``frobenius(G)``), which
        :func:`~lowrankopt.variety.stationarity_measure` reads instead of
        passing over G for it.
        """
        # An X that overflows shows as Inf in X and the cost, not as a numpy
        # warning.
        with np.errstate(over="ignore", invalid="ignore"):
            x = point.matrix()
        return float(self.eval(x)), lambda: self.gradient(x)

    def _check_shape(self, x) -> np.ndarray:
        a = as_matrix(x)
        if a.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {a.shape}")
        return a


# A thin SVD whose entry bound is below this forms a finite X: rounding in
# its product cannot take an entry past the largest double.
_FINITE_ENTRY_BOUND = 2.0**1000


def _half_squared_norm(d: np.ndarray) -> float:
    """Half the squared Frobenius norm, as one dot of the flattened entries."""
    flat = d.ravel()
    return 0.5 * float(flat @ flat)


class ResidualCost(CostFunction):
    """Half the squared Frobenius norm of a residual of ``x``, whose
    gradient is that residual. A subclass forms it in ``_residual``.

    ``eval(x)`` and ``gradient(x)`` check ``x``, an array or the matrix of
    a thin SVD, like every public entry.
    """

    @abstractmethod
    def _residual(self, x: np.ndarray, out=None, rows=slice(None)) -> np.ndarray:
        """The residual at ``x``, the rows ``rows`` of a matrix of the cost's
        shape, written into ``out`` when it is given. ``x`` is not checked."""

    def eval(self, x) -> float:
        return _half_squared_norm(self._residual(self._check_shape(x)))

    def gradient(self, x) -> np.ndarray:
        """The residual at ``x``, an m-by-n array or a thin SVD of one (a
        :class:`~lowrankopt.linalg.SvdFactorization`, which a
        :class:`~lowrankopt.variety.VarietyPoint` is).

        A thin SVD's residual is bit for bit the residual at its matrix
        ``x.reconstruct()``, and a NaN or Inf in X raises
        :class:`~lowrankopt.linalg.NonFiniteError` as it does for that
        array. When the factors' entry bound shows X finite, each row block
        of X is formed by
        :meth:`~lowrankopt.linalg.SvdFactorization.reconstruct` and turned
        into the residual while it is in cache; otherwise X is formed whole
        and checked first.
        """
        if not isinstance(x, SvdFactorization):
            return self._residual(self._check_shape(x))
        if x.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {x.shape}")
        if x.entry_bound() < _FINITE_ENTRY_BOUND:
            return x.reconstruct(lambda block, rows: self._residual(block, block, rows))
        # An X that overflows is named by the check, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = x.reconstruct()
        return self._residual(as_matrix(matrix), matrix)

    def evaluate(self, point) -> tuple[float, NormedGradient]:
        """:meth:`CostFunction.evaluate` in one dense matrix, the residual
        that :meth:`gradient` forms from the point's factors, which also
        checks X.

        The cost is ``eval``'s single dot of the residual at
        ``point.matrix()``, bit for bit, and ``||G||`` the root of that dot;
        a finite X whose residual or squares overflow gives a cost of Inf.
        """
        # Overflow shows in the cost, not as numpy warnings.
        with np.errstate(over="ignore"):
            g = self.gradient(point)
            flat = g.ravel()
            squares = float(flat @ flat)
        return 0.5 * squares, NormedGradient(g, math.sqrt(squares))


class LowRankApproxProblem(ResidualCost):
    """Half squared Frobenius distance to a fixed target matrix.

    The target is held as given (a float64 array is not copied), so a
    later change to the caller's array changes the cost.
    """

    def __init__(self, target):
        self.target = as_matrix(target)
        self.shape = self.target.shape

    def _residual(self, x, out=None, rows=slice(None)) -> np.ndarray:
        """``x - target``."""
        return np.subtract(x, self.target[rows], out=out)


class MatrixCompletionProblem(ResidualCost):
    """Half squared misfit on the observed entries of a target matrix.

    The mask is a bool array, or one whose entries are 1 (observed) or 0;
    any other entry (0.5, 2, NaN) raises ``ValueError`` naming it and its
    place. The cost reads two arrays built at construction: the mask as
    bools, one byte an entry, and ``offset = 0.0 - target * mask``, which is
    ``-target`` on the observed entries (+0.0 for a zero target) and
    +0.0 elsewhere. So a later change to the caller's mask or target
    leaves the cost as it was built. ``target`` is the caller's array as
    given (a float64 array is not copied); the cost does not read it.
    """

    def __init__(self, target, mask):
        self.target = as_matrix(target)
        self.mask = _observed(mask)
        if self.mask.shape != self.target.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match target {self.target.shape}"
            )
        self.shape = self.target.shape
        self._offset = np.multiply(self.target, self.mask)
        np.subtract(0.0, self._offset, out=self._offset)

    def _residual(self, x, out=None, rows=slice(None)) -> np.ndarray:
        """``x - target`` on the observed entries and +0.0 elsewhere.

        ``x * mask + offset``, with the mask read as 0/1 weights: an
        observed entry is ``x + (-target)``, which is ``x - target`` (a zero
        comes out +0.0, as no offset entry is -0.0), and an unobserved one
        is ``±0.0 + 0.0``, which is +0.0. So for a finite ``x`` the
        residual is bit for bit ``(x - target) * mask + 0.0``.
        """
        d = np.multiply(x, self.mask[rows], out=out)
        d += self._offset[rows]
        return d


class UserPolynomialProblem(CostFunction):
    """Polynomial of total degree at most 4 in the matrix entries.

    Terms are (monomial, coefficient) pairs where a monomial is a sequence
    of (row, col, power) factors. Repeated entries within one monomial are
    merged at construction. The gradient is the analytic derivative of each
    monomial.

    Construction compiles the terms to index arrays. A call gathers the
    base ``x_e`` of each (entry, power) pair that some term uses with one
    index and tabulates ``x_e ** p`` from them: 1.0 for power 0, the base
    itself for power 1 and ``math.pow`` for the rest, each exactly
    ``pow``'s value. Every monomial is a row of slots into that table, as
    many as the widest monomial has factors (at least one); a monomial with
    fewer factors is padded with a slot holding ``x_e ** 0 = 1.0``. The
    gradient has one such row per (term, factor): the factor's derivative
    slot, then the term's other slots. The arithmetic is that of the
    term-by-term evaluation: products in factor order, the cost summed in
    term order, each gradient entry accumulated in term order, so results
    agree with it bit for bit; a padding slot only ever multiplies by
    exactly 1.0. Rows are taken CHUNK at a time into one buffer per call,
    so a call's temporaries do not grow with the number of terms. Each
    chunk's coefficients, slot rows and (for the gradient) entries are
    views cut once at construction, so a call slices no index array.

    The shape must be a list or tuple of two entries, the terms a list or
    tuple of (monomial, coefficient) pairs, each monomial a list or tuple
    and each factor a list or tuple of three entries. Shape entries, rows,
    columns and powers are read as integers and coefficients as numbers by
    :func:`~lowrankopt.linalg.json_number` (an integral float or a numpy
    integer is an integer, a bool is neither), and coefficients must be
    finite; anything else raises ``ValueError`` naming the value. A problem
    document's shape and terms are read by these same checks.
    """

    MAX_DEGREE = 4
    CHUNK = 384

    def __init__(self, shape, terms):
        m, n = _integers("shape", shape, 2)
        if not (m >= 1 and n >= 1 and m * n <= np.iinfo(np.intp).max):
            raise ValueError(
                f"shape must be positive and fit an array, got ({_shown(m)}, {_shown(n)})")
        self.shape = (m, n)
        coeffs, monomials = [], []
        for term in json_array("terms", terms):
            if not (isinstance(term, (list, tuple)) and len(term) == 2):
                raise ValueError(f"'polynomial term' must be a (monomial, coeff) pair, "
                                 f"got {term!r:.40}")
            monomial, coeff = term
            coeff = json_number("coeff", coeff)
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            merged: dict[int, int] = {}
            for factor in json_array("monomial", monomial):
                if not (isinstance(factor, (list, tuple)) and len(factor) == 3):
                    raise ValueError(f"'monomial factor' must hold 3 integers, got {factor!r:.40}")
                row, col, power = factor
                row = json_number("row", row, integer=True)
                col = json_number("col", col, integer=True)
                power = json_number("power", power, integer=True)
                if not (0 <= row < m and 0 <= col < n):
                    raise ValueError(f"entry index ({_shown(row)}, {_shown(col)}) "
                                     f"outside shape {(m, n)}")
                if power < 1:
                    raise ValueError("powers must be positive integers")
                entry = row * n + col
                merged[entry] = merged.get(entry, 0) + power
            degree = sum(merged.values())
            if degree > self.MAX_DEGREE:
                raise ValueError(f"monomial degree {_shown(degree)} exceeds {self.MAX_DEGREE}")
            coeffs.append(coeff)
            monomials.append(sorted(merged.items()))
        self._compile(coeffs, monomials)

    def _compile(self, coeffs: list[float], monomials: list[list[tuple[int, int]]]) -> None:
        """Index arrays for the terms, each a coefficient and its monomial's
        (flat entry, power) factors in entry order."""
        lengths = np.fromiter(map(len, monomials), np.intp, len(monomials))
        width = max(1, int(lengths.max(initial=0)))
        base = self.MAX_DEGREE + 1
        entry, power = np.fromiter(
            chain.from_iterable(chain.from_iterable(monomials)), np.intp, 2 * int(lengths.sum())
        ).reshape(-1, 2).T.copy()
        # One row per (term, factor), term-major with factors in order.
        term = np.repeat(np.arange(len(lengths)), lengths)
        factor = np.arange(len(term)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        # The pair (e, p) as the integer e * base + p, with base above every
        # power whatever the width. Padding is the pair (0, 0), as is every
        # derivative factor x_e ** 0: both are 1.
        keys = np.zeros((len(lengths), width), np.intp)
        keys[term, factor] = entry * base + power
        derivative = np.where(power > 1, keys[term, factor] - 1, 0)
        pair_keys, inverse = np.unique(np.concatenate((keys.ravel(), derivative)), return_inverse=True)
        # The table holds the pairs of power 0, then of power 1, then the
        # rest, each in key order; slots index it in that order.
        pair_power = pair_keys % base
        order = np.argsort(np.minimum(pair_power, 2), kind="stable")
        inverse = np.argsort(order)[inverse]
        slots = inverse[: keys.size].reshape(keys.shape)
        # At width 1 each row is empty, and must still index as integers.
        others = np.array([[j for j in range(width) if j != i] for i in range(width)], np.intp)
        pair_power = pair_power[order]
        self._pair_entry = pair_keys[order] // base
        self._ones = int(np.count_nonzero(pair_power == 0))
        self._raised = int(np.count_nonzero(pair_power <= 1))
        self._raised_power = pair_power[self._raised :].astype(float).tolist()
        self._coeffs = np.array(coeffs, dtype=float)
        self._slots = slots.T.copy()
        self._grad_coeffs = self._coeffs[term] * power
        self._grad_entry = entry
        self._grad_slots = np.vstack((inverse[keys.size :], slots[term[:, None], others[factor]].T))
        self._cost_chunks = _chunk_views(self.CHUNK, self._coeffs, self._slots)
        self._grad_chunks = _chunk_views(self.CHUNK, self._grad_coeffs, self._grad_slots, entry)

    def _power_table(self, a: np.ndarray) -> np.ndarray:
        """``x_e ** p`` for every pair the terms use.

        The bases are gathered with one index into the table itself. A
        pair of power 0 then holds 1.0 and one of power 1 its base, both
        exactly what ``pow`` gives (``pow(x, 0)`` is 1.0 for every x, NaN
        included, and ``pow(x, 1)`` is x). Only the pairs of power 2 and
        more are handed to ``math.pow``, through a memoryview that yields
        their bases as Python floats without a list of them. ``math.pow``
        is the libm ``pow`` that a numpy scalar's ``**`` calls; numpy's
        array ``**`` can differ from it in the last bit, as ``x * x`` could
        from ``pow(x, 2)``. Where the power overflows, ``math.pow`` raises
        and the table holds the signed infinity that ``**`` gives.
        """
        table = a.ravel()[self._pair_entry]
        table[: self._ones] = 1.0
        raised = table[self._raised :]
        bases, count = memoryview(raised), len(self._raised_power)
        try:
            raised[:] = np.fromiter(map(math.pow, bases, self._raised_power), float, count)
        except OverflowError:
            raised[:] = np.fromiter(map(_pow_or_inf, bases, self._raised_power), float, count)
        return table

    def eval(self, x) -> float:
        table = self._power_table(self._check_shape(x))
        # Slot 0 holds the running total and a chunk's products follow it,
        # so one in-place accumulate adds them to it in term order.
        run = np.zeros(self.CHUNK + 1)
        for coeffs, first, rest in self._cost_chunks:
            chunk = run[: 1 + len(coeffs)]
            prod = np.multiply(coeffs, table[first], out=chunk[1:])
            for column in rest:
                prod *= table[column]
            np.add.accumulate(chunk, out=chunk)
            run[0] = chunk[-1]
        return float(run[0])

    def gradient(self, x) -> np.ndarray:
        table = self._power_table(self._check_shape(x))
        g = np.zeros(self.shape)
        flat = g.reshape(-1)
        buffer = np.empty(self.CHUNK)
        for coeffs, first, rest, entry in self._grad_chunks:
            prod = np.multiply(coeffs, table[first], out=buffer[: len(coeffs)])
            for column in rest:
                prod *= table[column]
            np.add.at(flat, entry, prod)
        return g


def _observed(mask) -> np.ndarray:
    """A fresh bool array of ``mask``: a copy of a bool array, else True where
    an entry is 1 and False where it is 0; any other entry raises."""
    weights = np.asarray(mask)
    if weights.dtype == bool:
        return weights.copy()
    observed = weights == 1.0
    bad = ~observed & (weights != 0.0)
    if bad.any():
        place = tuple(map(int, np.argwhere(bad)[0]))
        raise ValueError(f"'mask' entries must be 0 or 1, got {weights.item(*place)!r} "
                         f"at {place}")
    return observed


def _chunk_views(chunk: int, coeffs: np.ndarray, slots: np.ndarray, entry=None) -> list[tuple]:
    """Views of each ``chunk`` rows of a compiled polynomial: the rows'
    coefficients, their first slot, a list of their further slots and, when
    ``entry`` is given, the rows' entries."""
    views = []
    for start in range(0, len(coeffs), chunk):
        rows = slice(start, start + chunk)
        view = (coeffs[rows], slots[0, rows], list(slots[1:, rows]))
        views.append(view if entry is None else (*view, entry[rows]))
    return views


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an int too long for Python to
    print, so that a message can name any integer given."""
    try:
        return repr(value)
    except ValueError:  # past the interpreter's limit on int-to-str digits
        return f"<int of {value.bit_length()} bits>"


def _pow_or_inf(x: float, p: float) -> float:
    """``math.pow``, with the signed infinity in place of an overflow error."""
    try:
        return math.pow(x, p)
    except OverflowError:
        return math.pow(math.copysign(math.inf, x), p)


def finite_difference_check(problem: CostFunction, x, h: float) -> float:
    """Largest discrepancy between analytic and central-difference derivatives.

    Uses a fixed set of directions: canonical entry directions in row-major
    order (at most 12) topped up with seeded unit-norm random matrices so
    that at least 20 directions are probed.

    Returns
    -------
    float
        ``max_d |(f(x + h d) - f(x - h d)) / (2h) - <grad f(x), d>|``.
    """
    h = _real_argument("h", h)
    a = as_matrix(x)
    m, n = problem.shape
    if a.shape != (m, n):
        raise ValueError(f"x shape {a.shape} does not match problem shape {(m, n)}")

    directions = []
    for flat in range(min(12, m * n)):
        d = np.zeros((m, n))
        d[flat // n, flat % n] = 1.0
        directions.append(d)
    rng = np.random.default_rng(0)
    while len(directions) < 20:
        d = rng.standard_normal((m, n))
        directions.append(d / np.linalg.norm(d))

    grad = as_matrix(problem.gradient(a))
    worst = 0.0
    for d in directions:
        fd = (problem.eval(a + h * d) - problem.eval(a - h * d)) / (2.0 * h)
        worst = max(worst, abs(fd - float(np.sum(grad * d))))
    return worst


def load_problem(source) -> CostFunction:
    """Build a problem from a JSON document, given as a file path or a dict.

    The document is ``{"type": ..., "shape": [m, n], "payload": {...}}``
    with type one of :data:`PROBLEM_TYPES`, whose skeleton payload holds
    the keys that type reads. Each JSON object in it (the document, the
    payload, each polynomial term, each matrix document) is read by
    :func:`~lowrankopt.serialize.json_object`. A file that is not JSON, an
    object that lacks a key or holds a key it does not read (a ``mask`` in
    a ``lowrank_approx`` payload too), a wrongly typed field (``null``
    included, and a ``type`` that is not a string), a matrix document whose
    ``rows`` or ``cols`` is not positive, or a completion ``mask`` entry
    other than 0 or 1 raises ``ValueError``; a wrongly typed field is named.
    """
    return _problem_from_doc(source if isinstance(source, dict) else read_json(source))


def _integers(key: str, values, count: int) -> tuple[int, ...]:
    """A JSON array of exactly ``count`` integers, each read with :func:`json_number`.
    A wrong count is named with the tuple of integers read, each by :func:`_shown`."""
    ints = tuple(json_number(key, v, integer=True) for v in json_array(key, values))
    if len(ints) != count:
        shown = ", ".join(map(_shown, ints)) + ("," if len(ints) == 1 else "")
        raise ValueError(f"{key!r} must hold {count} integers, got ({shown})")
    return ints


# Each problem type's skeleton payload, whose keys are the keys that type reads.
PROBLEM_TYPES = {
    "lowrank_approx": {"target": matrix_to_json(np.zeros((3, 3)))},
    "completion": {"target": matrix_to_json(np.zeros((3, 3))),
                   "mask": matrix_to_json(np.ones((3, 3)))},
    "polynomial": {"terms": [{"monomial": [[0, 0, 2]], "coeff": 1.0}]},
}


def _problem_from_doc(doc) -> CostFunction:
    json_object("problem document", doc, ("type", "shape", "payload"), ("type", "shape"))
    kind = doc["type"]
    if not isinstance(kind, str):
        raise ValueError(f"'type' must be a string, got {kind!r:.40}")
    if kind not in PROBLEM_TYPES:
        raise ValueError(f"unknown problem type {kind!r}")
    shape = _integers("shape", doc["shape"], 2)
    keys = PROBLEM_TYPES[kind].keys()
    payload = json_object(f"{kind} payload", doc.get("payload", {}), keys, keys)
    if kind == "polynomial":
        term_keys = ("monomial", "coeff")
        terms = [json_object("polynomial term", term, term_keys, term_keys)
                 for term in json_array("terms", payload["terms"])]
        return UserPolynomialProblem(shape, [(term["monomial"], term["coeff"]) for term in terms])
    target = matrix_from_json(payload["target"])
    if target.shape != shape:
        raise ValueError(f"target shape {target.shape} does not match {shape}")
    if kind == "lowrank_approx":
        return LowRankApproxProblem(target)
    return MatrixCompletionProblem(target, matrix_from_json(payload["mask"]))


def problem_skeleton(kind: str) -> dict:
    """Template JSON document for a problem of the given type."""
    if kind not in PROBLEM_TYPES:
        raise ValueError(f"unknown problem type {kind!r}")
    return {"type": kind, "shape": [3, 3], "payload": copy.deepcopy(PROBLEM_TYPES[kind])}
