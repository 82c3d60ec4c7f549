"""Cost functions with analytic gradients, plus a finite-difference checker.

Solvers only ever see analytic gradients; the finite-difference routine
exists to validate them, never to replace them.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod

import numpy as np

from .linalg import as_matrix
from .serialize import json_number, matrix_from_json, matrix_to_json


class CostFunction(ABC):
    """A differentiable function of an m-by-n matrix.

    Attributes
    ----------
    shape : (int, int)
        Ambient matrix shape.
    """

    shape: tuple[int, int]

    @abstractmethod
    def eval(self, x) -> float:
        ...

    @abstractmethod
    def gradient(self, x) -> np.ndarray:
        ...

    def _check_shape(self, x) -> np.ndarray:
        a = as_matrix(x)
        if a.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {a.shape}")
        return a


class LowRankApproxProblem(CostFunction):
    """Half squared Frobenius distance to a fixed target matrix."""

    def __init__(self, target):
        self.target = as_matrix(target)
        self.shape = self.target.shape

    def eval(self, x) -> float:
        d = self._check_shape(x) - self.target
        return 0.5 * float(np.sum(d * d))

    def gradient(self, x) -> np.ndarray:
        return self._check_shape(x) - self.target


class MatrixCompletionProblem(CostFunction):
    """Half squared misfit on the observed entries of a target matrix."""

    def __init__(self, target, mask):
        self.target = as_matrix(target)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != self.target.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match target {self.target.shape}"
            )
        self.shape = self.target.shape
        self._weights = self.mask.astype(np.float64)

    def _residual(self, x) -> np.ndarray:
        """``x - target`` on the observed entries and +0.0 elsewhere, in one buffer.

        Multiplying by the 0/1 weights leaves -0.0 where a negative residual
        is unobserved; adding 0.0 turns that into +0.0 and changes no other
        entry's value.
        """
        d = self._check_shape(x) - self.target
        d *= self._weights
        d += 0.0
        return d

    def eval(self, x) -> float:
        d = self._residual(x)
        np.square(d, out=d)
        return 0.5 * float(np.sum(d))

    def gradient(self, x) -> np.ndarray:
        return self._residual(x)


class UserPolynomialProblem(CostFunction):
    """Polynomial of total degree at most 4 in the matrix entries.

    Terms are (monomial, coefficient) pairs where a monomial is a sequence
    of (row, col, power) factors. Repeated entries within one monomial are
    merged at construction. The gradient is evaluated term by term from the
    analytic derivative of each monomial.
    """

    MAX_DEGREE = 4

    def __init__(self, shape, terms):
        m, n = int(shape[0]), int(shape[1])
        if m < 1 or n < 1:
            raise ValueError(f"shape must be positive, got {(m, n)}")
        self.shape = (m, n)
        self.terms: list[tuple[tuple[tuple[int, int, int], ...], float]] = []
        for monomial, coeff in terms:
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            merged: dict[tuple[int, int], int] = {}
            for row, col, power in monomial:
                row, col, power = int(row), int(col), int(power)
                if not (0 <= row < m and 0 <= col < n):
                    raise ValueError(f"entry index ({row}, {col}) outside shape {(m, n)}")
                if power < 1:
                    raise ValueError("powers must be positive integers")
                merged[(row, col)] = merged.get((row, col), 0) + power
            degree = sum(merged.values())
            if degree > self.MAX_DEGREE:
                raise ValueError(f"monomial degree {degree} exceeds {self.MAX_DEGREE}")
            factors = tuple((rc[0], rc[1], p) for rc, p in sorted(merged.items()))
            self.terms.append((factors, coeff))

    def eval(self, x) -> float:
        a = self._check_shape(x)
        total = 0.0
        for factors, coeff in self.terms:
            prod = coeff
            for row, col, power in factors:
                prod *= a[row, col] ** power
            total += prod
        return float(total)

    def gradient(self, x) -> np.ndarray:
        a = self._check_shape(x)
        g = np.zeros(self.shape)
        for factors, coeff in self.terms:
            for i, (row, col, power) in enumerate(factors):
                partial = coeff * power * a[row, col] ** (power - 1)
                for j, (r2, c2, p2) in enumerate(factors):
                    if j != i:
                        partial *= a[r2, c2] ** p2
                g[row, col] += partial
        return g


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
    if not h > 0:
        raise ValueError("h must be positive")
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
    with type one of ``lowrank_approx``, ``completion``, ``polynomial``.
    A document that is not an object or has wrongly typed fields raises
    ``ValueError``.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    try:
        return _problem_from_doc(doc)
    except TypeError as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc


def _integers(key: str, values, count: int) -> tuple[int, ...]:
    """A JSON array of exactly ``count`` integers, each read with :func:`json_number`."""
    ints = tuple(json_number(key, v, integer=True) for v in values)
    if len(ints) != count:
        raise ValueError(f"{key!r} must hold {count} integers, got {values!r}")
    return ints


def _problem_from_doc(doc: dict) -> CostFunction:
    kind = doc.get("type")
    shape = _integers("shape", doc["shape"], 2)
    payload = doc.get("payload", {})
    if kind in ("lowrank_approx", "completion"):
        target = matrix_from_json(payload["target"])
        if target.shape != shape:
            raise ValueError(f"target shape {target.shape} does not match {shape}")
        if kind == "lowrank_approx":
            return LowRankApproxProblem(target)
        return MatrixCompletionProblem(target, matrix_from_json(payload["mask"]) != 0.0)
    if kind == "polynomial":
        terms = [
            ([_integers("monomial factor", f, 3) for f in term["monomial"]],
             json_number("coeff", term["coeff"]))
            for term in payload["terms"]
        ]
        return UserPolynomialProblem(shape, terms)
    raise ValueError(f"unknown problem type {kind!r}")


def problem_skeleton(kind: str) -> dict:
    """Template JSON document for a problem of the given type."""
    if kind == "lowrank_approx":
        return {
            "type": "lowrank_approx",
            "shape": [3, 3],
            "payload": {"target": matrix_to_json(np.zeros((3, 3)))},
        }
    if kind == "completion":
        return {
            "type": "completion",
            "shape": [3, 3],
            "payload": {
                "target": matrix_to_json(np.zeros((3, 3))),
                "mask": matrix_to_json(np.ones((3, 3))),
            },
        }
    if kind == "polynomial":
        return {
            "type": "polynomial",
            "shape": [3, 3],
            "payload": {"terms": [{"monomial": [[0, 0, 2]], "coeff": 1.0}]},
        }
    raise ValueError(f"unknown problem type {kind!r}")
