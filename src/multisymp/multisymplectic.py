"""Tautological p-form and its differential on the dual-fiber total space.

The chart puts coordinates (x^1..x^n, p_I) on the total space, with the dual
coordinates p_I running over increasing multi-indices in lexicographic order.
The tautological form pairs each dual coordinate with the matching wedge of
base differentials; its exterior derivative is the constant-coefficient
(p+1)-form whose nondegeneracy and closedness the checks below establish.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroSectionError
from .exterior import KVector, det, minors, multi_indices
from .lagrangian import HomogeneousLagrangian, areolar_form

__all__ = [
    "TotalSpaceChart",
    "TotalVector",
    "FormField",
    "theta",
    "omega",
    "constant_x_form",
    "weighted_x_form",
    "nondegeneracy_check",
    "closedness_residual",
    "pullback_residual",
]

# tangent vectors to the total space are plain component arrays in chart layout
TotalVector = np.ndarray


@dataclass(frozen=True)
class TotalSpaceChart:
    """Coordinate chart (x^1..x^n, p_I) with a fixed total ordering of labels."""

    n: int
    p: int

    @property
    def fiber_dim(self) -> int:
        return math.comb(self.n, self.p)

    @property
    def dim_total(self) -> int:
        return self.n + self.fiber_dim

    @property
    def labels(self) -> tuple[str, ...]:
        xs = tuple(f"x{k}" for k in range(1, self.n + 1))
        ps = tuple("p" + "".join(map(str, axes)) for axes in multi_indices(self.n, self.p))
        return xs + ps

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown coordinate label {label!r}") from None

    def basis_vector(self, label: str) -> TotalVector:
        out = np.zeros(self.dim_total)
        out[self.index(label)] = 1.0
        return out

    def point(self, x: Sequence[float], p_coords: Sequence[float]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p_coords = np.asarray(p_coords, dtype=float)
        if x.shape != (self.n,) or p_coords.shape != (self.fiber_dim,):
            raise ValueError("point components do not match the chart layout")
        return np.concatenate([x, p_coords])

    def lift(self, v: Sequence[float]) -> TotalVector:
        """Horizontal lift of a base vector (dual components zero)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"base vector must have shape ({self.n},)")
        return np.concatenate([v, np.zeros(self.fiber_dim)])


@dataclass(frozen=True)
class FormField:
    """Differential k-form given by a multilinear alternating evaluator."""

    degree: int
    dim: int
    evaluator: Callable[[np.ndarray, Sequence[TotalVector]], float]
    name: str = "form"

    def __call__(self, point: np.ndarray, vectors: Sequence[TotalVector]) -> float:
        if len(vectors) != self.degree:
            raise ValueError(f"{self.name} takes {self.degree} arguments, got {len(vectors)}")
        point = np.asarray(point, dtype=float)
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        if point.shape != (self.dim,) or any(v.shape != (self.dim,) for v in vecs):
            raise ValueError(f"{self.name} lives on a {self.dim}-dimensional chart")
        return float(self.evaluator(point, vecs))


def theta(chart: TotalSpaceChart) -> FormField:
    """Tautological p-form: sum over I of p_I times the wedge of base differentials dx^I."""
    n, p = chart.n, chart.p

    def evaluate(point, vectors):
        return point[n:] @ minors(np.column_stack([v[:n] for v in vectors]))

    return FormField(degree=p, dim=chart.dim_total, evaluator=evaluate, name="theta")


def omega(chart: TotalSpaceChart) -> FormField:
    """Differential of the tautological form: sum over I of dp_I wedged with dx^I."""
    n, p = chart.n, chart.p
    # row k: the chart positions of p_I, then of x^{a_1} .. x^{a_p}, for the k-th index I
    rows = np.array([(n + k, *(a - 1 for a in axes)) for k, axes in enumerate(multi_indices(n, p))])

    def evaluate(point, vectors):
        # cumsum adds in index order; np.sum regroups 8+ terms and moves the last bits
        return np.cumsum(det(np.column_stack(vectors)[rows, :]))[-1]

    return FormField(degree=p + 1, dim=chart.dim_total, evaluator=evaluate, name="omega")


def constant_x_form(chart: TotalSpaceChart, axes: Sequence[int]) -> FormField:
    """The constant form dx^{a_1} ^ ... ^ dx^{a_k}; degenerate on the total space."""
    rows = tuple(int(a) - 1 for a in axes)
    if any(r < 0 or r >= chart.n for r in rows):
        raise ValueError("axes out of range")

    def evaluate(point, vectors):
        return det(np.column_stack([v[list(rows)] for v in vectors]))

    return FormField(degree=len(rows), dim=chart.dim_total,
                     evaluator=evaluate, name="dx^" + "".join(map(str, axes)))


def weighted_x_form(chart: TotalSpaceChart, weight_label: str, axes: Sequence[int]) -> FormField:
    """A base-differential wedge scaled by one chart coordinate; not closed in general."""
    weight_index = chart.index(weight_label)
    inner = constant_x_form(chart, axes)

    def evaluate(point, vectors):
        return point[weight_index] * inner.evaluator(point, vectors)

    return FormField(degree=inner.degree, dim=chart.dim_total,
                     evaluator=evaluate, name=f"{weight_label}*{inner.name}")


def nondegeneracy_check(form: FormField, point: np.ndarray) -> tuple[bool, int]:
    """Rank of the contraction map over all coordinate-basis argument tuples.

    The map sends a tangent vector to the values of its contraction into the
    form on every increasing (k-1)-tuple of coordinate basis vectors; the
    form is nondegenerate at the point exactly when the map has full rank.
    """
    point = np.asarray(point, dtype=float)
    dim = form.dim
    basis = np.eye(dim)
    tuples = list(itertools.combinations(range(dim), form.degree - 1))
    matrix = np.empty((len(tuples), dim))
    for row, rest in enumerate(tuples):
        rest_vectors = [basis[r] for r in rest]
        for col in range(dim):
            matrix[row, col] = form(point, [basis[col], *rest_vectors])
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-10 * max(1.0, float(np.abs(matrix).max()))))
    return rank == dim, rank


def closedness_residual(
    form: FormField, point: np.ndarray, vectors: Sequence[TotalVector], h: float = 1e-4
) -> float:
    """|d(form)| at the point on k+1 constant vectors, by central differences.

    Uses the coordinate formula for the exterior derivative on constant
    vector fields, so the bracket terms vanish and only directional
    derivatives of the evaluations remain.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=float)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if len(vecs) != form.degree + 1:
        raise ValueError(f"d({form.name}) takes {form.degree + 1} arguments, got {len(vecs)}")
    total = 0.0
    for i, vi in enumerate(vecs):
        rest = vecs[:i] + vecs[i + 1:]
        plus = form(point + h * vi, rest)
        minus = form(point - h * vi, rest)
        total += (-1.0) ** i * (plus - minus) / (2.0 * h)
    return abs(total)


def pullback_residual(
    L: HomogeneousLagrangian,
    x: np.ndarray,
    y: KVector,
    tuples: Sequence[Sequence[np.ndarray]],
) -> float:
    """Mismatch between the pulled-back tautological form and the areolar form.

    Evaluates the tautological form at the gradient image of (x, y) on
    horizontally lifted base tuples and compares with the areolar-form value
    on the same tuples; the two agree for any Lagrangian, which is what makes
    the dual-side action integrand equal the Lagrangian one.
    """
    if y.is_zero():
        raise ZeroSectionError("pullback is undefined on the zero section")
    x = np.asarray(x, dtype=float)
    chart = TotalSpaceChart(L.n, L.p)
    form = theta(chart)
    grad = L.gradient(x, y)
    point = chart.point(x, grad.coords)
    ell = areolar_form(L)
    worst = 0.0
    for vectors in tuples:
        lifted = [chart.lift(v) for v in vectors]
        lhs = form(point, lifted)
        rhs = ell.coefficients_at(x, y)(list(vectors))
        worst = max(worst, abs(lhs - rhs))
    return worst
