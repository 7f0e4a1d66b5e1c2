"""Tautological p-form and its differential on the dual-fiber total space.

The chart puts coordinates (x^1..x^n, p_I) on the total space, with the dual
coordinates p_I running over increasing multi-indices in lexicographic order.
The tautological form pairs each dual coordinate with the matching wedge of
base differentials; its exterior derivative is the constant-coefficient
(p+1)-form whose nondegeneracy and closedness the checks below establish.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exterior import det, minors, multi_indices
from .lagrangian import HomogeneousLagrangian

__all__ = [
    "TotalSpaceChart",
    "FormField",
    "theta",
    "omega",
    "constant_x_form",
    "weighted_x_form",
    "nondegeneracy_check",
    "closedness_residual",
    "pullback_residual",
]

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

    def basis_vector(self, label: str) -> np.ndarray:
        out = np.zeros(self.dim_total)
        out[self.index(label)] = 1.0
        return out

    def point(self, x: Sequence[float], p_coords: Sequence[float]) -> np.ndarray:
        """Chart point(s) from base and dual coordinates, shapes (..., n) and (..., C(n,p))."""
        x = np.asarray(x, dtype=float)
        p_coords = np.asarray(p_coords, dtype=float)
        if x.shape[-1:] != (self.n,) or p_coords.shape != x.shape[:-1] + (self.fiber_dim,):
            raise ValueError("point components do not match the chart layout")
        return np.concatenate([x, p_coords], axis=-1)

    def lift(self, v: Sequence[float]) -> np.ndarray:
        """Horizontal lift of base vector(s) of shape (..., n): dual components zero."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.n,):
            raise ValueError(f"base vector must have shape ({self.n},)")
        return np.concatenate([v, np.zeros(v.shape[:-1] + (self.fiber_dim,))], axis=-1)


@dataclass(frozen=True)
class FormField:
    """Differential k-form given by a batched multilinear alternating evaluator.

    The evaluator takes points of shape (N, dim) and argument vectors of shape
    (N, dim, k), one column per argument, and returns the N values; each row
    must depend on its own inputs only.  Calling the form on one point and a
    sequence of k vectors validates them and runs a batch of one.
    """

    degree: int
    dim: int
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "form"

    # bench/spans.py counts calls here (COUNTED); ROADMAP item 1 drops that hook, and this method with it
    def __call__(self, point: np.ndarray, vectors: Sequence[np.ndarray]) -> float:
        if len(vectors) != self.degree:
            raise ValueError(f"{self.name} takes {self.degree} arguments, got {len(vectors)}")
        point = np.asarray(point, dtype=float)
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        if point.shape != (self.dim,) or any(v.shape != (self.dim,) for v in vecs):
            raise ValueError(f"{self.name} lives on a {self.dim}-dimensional chart")
        return float(self.evaluator(point[None], np.stack(vecs, axis=-1)[None])[0])


def theta(chart: TotalSpaceChart) -> FormField:
    """Tautological p-form: sum over I of p_I times the wedge of base differentials dx^I."""
    n, p = chart.n, chart.p

    def evaluate(points, vectors):
        # vecdot is the BLAS dot of the duality pairing, row by row
        return np.vecdot(points[:, n:], minors(vectors[:, :n, :]))

    return FormField(degree=p, dim=chart.dim_total, evaluator=evaluate, name="theta")


def omega(chart: TotalSpaceChart) -> FormField:
    """Differential of the tautological form: sum over I of dp_I wedged with dx^I."""
    n, p = chart.n, chart.p
    # row k: the chart positions of p_I, then of x^{a_1} .. x^{a_p}, for the k-th index I
    rows = np.array([(n + k, *(a - 1 for a in axes)) for k, axes in enumerate(multi_indices(n, p))])

    def evaluate(points, vectors):
        # cumsum adds in index order; np.sum regroups 8+ terms and moves the last bits
        return np.cumsum(det(np.take(vectors, rows, axis=1)), axis=-1)[:, -1]

    return FormField(degree=p + 1, dim=chart.dim_total, evaluator=evaluate, name="omega")


def constant_x_form(chart: TotalSpaceChart, axes: Sequence[int]) -> FormField:
    """The constant form dx^{a_1} ^ ... ^ dx^{a_k}; degenerate on the total space."""
    rows = [int(a) - 1 for a in axes]
    if any(r < 0 or r >= chart.n for r in rows):
        raise ValueError("axes out of range")

    def evaluate(points, vectors):
        return det(np.take(vectors, rows, axis=1))

    return FormField(degree=len(rows), dim=chart.dim_total,
                     evaluator=evaluate, name="dx^" + "".join(map(str, axes)))


def weighted_x_form(chart: TotalSpaceChart, weight_label: str, axes: Sequence[int]) -> FormField:
    """A base-differential wedge scaled by one chart coordinate; not closed in general."""
    weight_index = chart.index(weight_label)
    inner = constant_x_form(chart, axes)

    def evaluate(points, vectors):
        return points[:, weight_index] * inner.evaluator(points, vectors)

    return FormField(degree=inner.degree, dim=chart.dim_total,
                     evaluator=evaluate, name=f"{weight_label}*{inner.name}")


# Basis subsets per evaluator call in nondegeneracy_check: bounds its working set.
SUBSET_BLOCK = 128


@functools.cache
def _contraction_layout(dim: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The increasing basis k-subsets; per contraction entry (t, col), the subset it reads and its sign.

    Moving basis vector col past the j members of the (k-1)-tuple t below it
    sorts the arguments, so the entry is (-1)^j times the value on t + {col}.
    When col is in t the entry reads index C(dim, k), a slot that holds 0.
    """
    subsets = list(itertools.combinations(range(dim), k))
    position = {subset: i for i, subset in enumerate(subsets)}
    tuples = list(itertools.combinations(range(dim), k - 1))
    source, sign = np.full((len(tuples), dim), len(subsets)), np.ones((len(tuples), dim))
    for row, t in enumerate(tuples):
        for col in (c for c in range(dim) if c not in t):
            j = bisect.bisect(t, col)
            source[row, col], sign[row, col] = position[t[:j] + (col,) + t[j:]], (-1.0) ** j
    layout = (np.array(subsets, dtype=int).reshape(-1, k), source, sign)
    for array in layout:  # shared by every call through the cache
        array.flags.writeable = False
    return layout


def nondegeneracy_check(form: FormField, point: np.ndarray) -> tuple[bool, int]:
    """Rank of the contraction map over all coordinate-basis argument tuples.

    The map sends a tangent vector to the values of its contraction into the
    form on every increasing (k-1)-tuple of coordinate basis vectors; the
    form is nondegenerate at the point exactly when the map has full rank.
    The form is alternating, so it is evaluated once on each increasing
    basis k-subset, SUBSET_BLOCK subsets per evaluator call, and the matrix
    is gathered from those values with the signs of _contraction_layout.
    """
    point = np.asarray(point, dtype=float)
    dim, k = form.dim, form.degree
    subsets, source, sign = _contraction_layout(dim, k)
    basis = np.eye(dim)
    values = np.zeros(len(subsets) + 1)  # the last slot is the 0 of a repeated argument
    for start in range(0, len(subsets), SUBSET_BLOCK):
        block = subsets[start:start + SUBSET_BLOCK]
        values[start:start + len(block)] = form.evaluator(np.broadcast_to(point, (len(block), dim)),
                                                          np.swapaxes(basis[block], 1, 2))
    matrix = sign * values[source]
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-10 * max(1.0, float(np.abs(matrix).max()))))
    return rank == dim, rank


def closedness_residual(
    form: FormField, points: np.ndarray, vectors: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """|d(form)| at points (N, dim) on k+1 constant vectors (N, k+1, dim) each, by central differences.

    Uses the coordinate formula for the exterior derivative on constant
    vector fields, so the bracket terms vanish and only directional
    derivatives of the evaluations remain.  Returns the N residuals, from one
    evaluator call.
    """
    if not h > 0.0:  # a NaN step fails too
        raise ValueError("step must be positive")
    points, vecs = np.asarray(points, dtype=float), np.asarray(vectors, dtype=float)
    m = form.degree + 1
    if points.ndim != 2 or points.shape[1] != form.dim or vecs.shape != (len(points), m, form.dim):
        raise ValueError(f"d({form.name}) takes points (N, {form.dim}) with {m} vectors each, (N, {m}, {form.dim}), "
                         f"got {points.shape} and {vecs.shape}")
    # for each i: the form at point +- h v_i on the other vectors, in their order
    others = [[j for j in range(m) if j != i] for i in range(m)]
    rest = np.swapaxes(vecs[:, others, :], -1, -2)
    shifted = points[:, None, None, :] + np.array([1.0, -1.0])[:, None] * (h * vecs)[:, :, None, :]
    values = form.evaluator(shifted.reshape(-1, form.dim),
                            np.repeat(rest, 2, axis=1).reshape(-1, form.dim, m - 1)).reshape(-1, m, 2)
    total = np.zeros(len(points))
    for i in range(m):
        total += (-1.0) ** i * (values[:, i, 0] - values[:, i, 1]) / (2.0 * h)
    return np.abs(total)


def pullback_residual(
    L: HomogeneousLagrangian,
    x: np.ndarray,
    y: np.ndarray,
    tuples: np.ndarray,
) -> float:
    """Mismatch between the pulled-back tautological form and the areolar form.

    Evaluates the tautological form at the gradient image of (x, y) on
    horizontally lifted base tuples and compares with the areolar-form value
    dL/dy on the same tuples; the two agree for any Lagrangian, which is what
    makes the dual-side action integrand equal the Lagrangian one.  ``tuples``
    has shape (T, p, n) and ``y`` holds fiber rows (T, C(n,p)), one per
    tuple; the worst mismatch is returned.
    """
    vectors = np.asarray(tuples, dtype=float).reshape(-1, L.p, L.n)
    xs, cs = L._rows(x, y)
    if len(cs) != len(vectors):
        raise ValueError(f"pullback_residual takes one fiber row per tuple, got {len(cs)} rows and "
                         f"{len(vectors)} tuples")
    grads = L._jet(xs, cs, 1)[1]
    chart = TotalSpaceChart(L.n, L.p)
    lhs = theta(chart).evaluator(chart.point(xs, grads), np.swapaxes(chart.lift(vectors), 1, 2))
    rhs = np.vecdot(grads, minors(np.swapaxes(vectors, 1, 2)))  # the areolar form dL/dy on the tuples
    return float(np.max(np.abs(lhs - rhs)))
