"""Degree-1 positively homogeneous Lagrangians on the fibers of p-vectors.

A Lagrangian here is a scalar function L(x, y) of a base point x in R^n and a
nonzero p-vector y, positively homogeneous of degree 1 in y.  The module
provides the built-in families used throughout (Euclidean norm, weighted
norm, lifts of graph densities, plus two degenerate probes), gradient and
Hessian access with finite-difference fallbacks, the induced fiberwise
p-covector field, and residual checks for the homogeneity identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OrientationError, ZeroSectionError
from .exterior import KCovector, KVector, index_position

__all__ = [
    "HomogeneousLagrangian",
    "AreolarForm",
    "GraphDensity",
    "area_lagrangian",
    "ellipsoid_lagrangian",
    "projected_volume_lagrangian",
    "geometric_mean_lagrangian",
    "constant_density",
    "minimal_surface_density",
    "graph_area_density",
    "graph_lift",
    "fiber_rows",
    "euler_residual",
    "homogeneity_residual",
    "areolar_form",
    "is_nondegenerate",
]

GRAD_STEP_SCALE = 1e-5
HESS_STEP_SCALE = 1e-4


@dataclass(frozen=True)
class HomogeneousLagrangian:
    """Evaluatable L(x, y) with gradient and Hessian access.

    The stored callables are batched: they take base points ``xs`` of shape
    (N, n) and fiber coordinates ``cs`` of shape (N, C(n,p)), and return
    values (N,), gradients (N, C(n,p)) and Hessians (N, C(n,p), C(n,p)).
    Each row must depend on its own inputs only.  The ``*_many`` methods
    call them on raw arrays; ``value``, ``gradient`` and ``hessian`` take a
    KVector fiber and run a batch of one.  Both guard the zero section.
    Analytic derivative callables are optional; central finite differences
    fill in.
    """

    n: int
    p: int
    name: str
    value_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    smoothness: str = "C2 off the zero section"

    @property
    def fiber_dim(self) -> int:
        return math.comb(self.n, self.p)

    def _one(self, x: np.ndarray, y: KVector) -> tuple[np.ndarray, np.ndarray]:
        """A fiber point as a batch of one: arrays of shape (1, n) and (1, C(n,p))."""
        if (y.n, y.p) != (self.n, self.p):
            raise ValueError(f"fiber mismatch: Lagrangian (n={self.n}, p={self.p}) vs y (n={y.n}, p={y.p})")
        if y.is_zero():
            raise ZeroSectionError(f"{self.name} is undefined on the zero section")
        return np.asarray(x, dtype=float)[None], y.coords[None]

    def _rows(self, xs: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if np.any(np.all(cs == 0.0, axis=-1)):
            raise ZeroSectionError(f"{self.name} is undefined on the zero section")
        return xs, cs

    def value(self, x: np.ndarray, y: KVector) -> float:
        return float(self._values(*self._one(x, y))[0])

    def value_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Values on raw coordinates, shape (N,); rows with zero fiber are rejected."""
        return self._values(*self._rows(xs, cs))

    def gradient(self, x: np.ndarray, y: KVector) -> KCovector:
        return KCovector(self.n, self.p, self._gradients(*self._one(x, y))[0])

    def gradient_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Fiber gradients on raw coordinates, shape (N, C(n,p))."""
        return self._gradients(*self._rows(xs, cs))

    def hessian(self, x: np.ndarray, y: KVector) -> np.ndarray:
        return self._hessians(*self._one(x, y))[0]

    def hessian_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Fiber Hessians on raw coordinates, shape (N, C(n,p), C(n,p))."""
        return self._hessians(*self._rows(xs, cs))

    def square_hessian(self, x: np.ndarray, y: KVector) -> np.ndarray:
        """Hessian of L^2 in the fiber, a batch of one of _square_hessians."""
        return self._square_hessians(*self._one(x, y))[0][0]

    def _values(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(xs, cs), dtype=float)

    def _gradients(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(xs, cs), dtype=float)
        return self._central_differences(self._values, xs, cs, GRAD_STEP_SCALE)

    def _hessians(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        if self.hess_fn is not None:
            return np.asarray(self.hess_fn(xs, cs), dtype=float)
        H = self._central_differences(self._gradients, xs, cs, HESS_STEP_SCALE)
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    def _square_hessians(self, xs: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hess(L^2) = 2 (g g^T + L H) and Hess L per row, exact given exact g and H."""
        g, H = self._gradients(xs, cs), self._hessians(xs, cs)
        return 2.0 * (g[:, :, None] * g[:, None, :] + self._values(xs, cs)[:, None, None] * H), H

    @staticmethod
    def _central_differences(fn, xs: np.ndarray, cs: np.ndarray, scale: float) -> np.ndarray:
        """Central differences of a batched fn along each fiber coordinate, stacked last.

        The step of each row is scale * |c_row|; one pair of fn calls per coordinate.
        """
        h = scale * np.linalg.norm(cs, axis=-1)
        columns = []
        for k in range(cs.shape[-1]):
            plus = cs.copy()
            plus[:, k] += h
            minus = cs.copy()
            minus[:, k] -= h
            diff = fn(xs, plus) - fn(xs, minus)
            columns.append(diff / (2.0 * h).reshape((-1,) + (1,) * (diff.ndim - 1)))
        return np.stack(columns, axis=-1)


@dataclass(frozen=True)
class AreolarForm:
    """Fiberwise p-covector field with coefficients homogeneous of degree 0.

    The coefficients at (x, [y]) are the fiber gradient of the generating
    Lagrangian at any representative; degree-0 homogeneity makes the choice
    immaterial, so the field lives on oriented classes.
    """

    L: HomogeneousLagrangian

    def coefficients_at(self, x: np.ndarray, y) -> KCovector:
        rep = y.representative if hasattr(y, "representative") else y
        return self.L.gradient(x, rep)

    def evaluate(self, x: np.ndarray, y, vectors: Sequence[np.ndarray]) -> float:
        """Value of the form on p base vectors."""
        return self.coefficients_at(x, y)(vectors)


@dataclass(frozen=True)
class GraphDensity:
    """First-order density F(base, values, slopes) of a graph variational problem.

    ``fn_many`` takes base points (N, p), values (N, n-p) and slopes
    (N, p, n-p), where slopes[k, i, j] is the derivative of the j-th value
    component along the i-th base direction, and returns shape (N,).
    """

    n: int
    p: int
    fn_many: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    name: str = "density"


def area_lagrangian(n: int, p: int) -> HomogeneousLagrangian:
    """Euclidean norm of the fiber coordinates: the p-area of the spanned element."""
    if not 0 < p < n:
        raise ValueError(f"need 0 < p < n, got p={p}, n={n}")
    eye = np.eye(math.comb(n, p))

    def value(xs, cs):
        return np.linalg.norm(cs, axis=-1)

    def grad(xs, cs):
        return cs / value(xs, cs)[:, None]

    def hess(xs, cs):
        norm = value(xs, cs)[:, None, None]
        unit = cs / norm[:, 0]
        return (eye - unit[:, :, None] * unit[:, None, :]) / norm

    return HomogeneousLagrangian(
        n, p, "area", value, grad, hess, smoothness="smooth off the zero section",
    )


def ellipsoid_lagrangian(n: int, p: int, weights: Sequence[float]) -> HomogeneousLagrangian:
    """Weighted norm sqrt(sum_I w_I y_I^2), weights in lexicographic index order."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (math.comb(n, p),):
        raise ValueError(f"expected {math.comb(n, p)} weights, got shape {w.shape}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    diag = np.diag(w)

    # a sum over the last axis, not a matmul: a row's value must not depend on the batch
    def value(xs, cs):
        return np.sqrt(np.sum(w * (cs * cs), axis=-1))

    def grad(xs, cs):
        return w * cs / value(xs, cs)[:, None]

    def hess(xs, cs):
        L = value(xs, cs)[:, None, None]
        wc = w * cs
        return diag / L - wc[:, :, None] * wc[:, None, :] / L**3

    return HomogeneousLagrangian(
        n, p, "ellipsoid", value, grad, hess, smoothness="smooth off the zero section",
    )


def projected_volume_lagrangian(n: int, p: int) -> HomogeneousLagrangian:
    """Linear Lagrangian reading the top coordinate: signed volume projected to the 1..p plane.

    Degenerate on purpose (zero Hessian); exercises the rank identity.
    """
    dim = math.comb(n, p)

    return HomogeneousLagrangian(
        n, p, "projected_volume",
        value_fn=lambda xs, cs: cs[:, 0].copy(),
        grad_fn=lambda xs, cs: np.tile(np.eye(dim)[0], (len(cs), 1)),
        hess_fn=lambda xs, cs: np.zeros((len(cs), dim, dim)),
        smoothness="linear",
    )


def geometric_mean_lagrangian(n: int = 3, p: int = 2) -> HomogeneousLagrangian:
    """Geometric mean of the absolute fiber coordinates.

    Degree-1 homogeneous but not nondegenerate (its square is not convex);
    serves as the detector-sensitivity probe for the convexity certificate.
    Smooth only where every coordinate is nonzero.
    """
    dim = math.comb(n, p)
    diagonal = np.diag_indices(dim)

    def value(xs, cs):
        return np.abs(np.prod(cs, axis=-1)) ** (1.0 / dim)

    def grad(xs, cs):
        return value(xs, cs)[:, None] / (dim * cs)

    def hess(xs, cs):
        L = value(xs, cs)[:, None]
        inv = 1.0 / cs
        H = inv[:, :, None] * inv[:, None, :] * (L / dim**2)[:, :, None]
        H[(slice(None),) + diagonal] = -L * (dim - 1) / (dim**2 * cs * cs)
        return H

    return HomogeneousLagrangian(
        n, p, "geometric_mean", value, grad, hess, smoothness="smooth off the coordinate hyperplanes",
    )


def constant_density(n: int, p: int, value: float = 1.0) -> GraphDensity:
    return GraphDensity(
        n, p,
        name="constant",
        fn_many=lambda bases, values, slopes: np.full(len(bases), value),
    )


def minimal_surface_density(n: int, p: int) -> GraphDensity:
    """sqrt(1 + sum of squared slopes): the area element of a codimension-1 graph."""

    return GraphDensity(
        n, p,
        name="minimal_surface",
        fn_many=lambda bases, values, slopes: np.sqrt(1.0 + np.sum(slopes * slopes, axis=(1, 2))),
    )


def graph_area_density(n: int, p: int) -> GraphDensity:
    """sqrt(det(I + q q^T)): the area element of a graph in any codimension."""

    def fn_many(bases, values, slopes):
        eye = np.eye(p)
        return np.sqrt(np.linalg.det(eye + slopes @ np.transpose(slopes, (0, 2, 1))))

    return GraphDensity(n, p, name="graph_area", fn_many=fn_many)


def _graph_chart_layout(n: int, p: int):
    """Top-coordinate position, slope coordinate positions and their signs.

    The wedge of graph tangents has coordinate (-1)^(p-i) * df_j/dx_i on the
    index (1..p with i removed, p+j); the signs fold that back to the slope.
    """
    pos = index_position(n, p)
    top = pos[tuple(range(1, p + 1))]
    slope_pos = np.empty((p, n - p), dtype=int)
    slope_sign = np.empty((p, n - p))
    for i in range(1, p + 1):
        kept = tuple(k for k in range(1, p + 1) if k != i)
        for j in range(1, n - p + 1):
            slope_pos[i - 1, j - 1] = pos[kept + (p + j,)]
            slope_sign[i - 1, j - 1] = (-1.0) ** (p - i)
    return top, slope_pos, slope_sign


def graph_lift(F: GraphDensity) -> HomogeneousLagrangian:
    """Homogeneous Lagrangian whose restriction to graph tangents integrates F.

    L(x, y) = y_top * F(x_1..x_p, x_{p+1}..x_n, q) with the slopes q recovered
    from the fiber coordinate ratios; requires y_top > 0 (the graph chart).
    """
    n, p = F.n, F.p
    top, slope_pos, slope_sign = _graph_chart_layout(n, p)

    def value(xs, cs):
        tops = cs[:, top]
        if np.any(tops <= 0.0):
            bad = int(np.argmax(tops <= 0.0))
            raise OrientationError(
                f"graph chart needs a positive top coordinate, got {tops[bad]:g} in row {bad}"
            )
        q = slope_sign * cs[:, slope_pos] / tops[:, None, None]
        return tops * F.fn_many(xs[:, :p], xs[:, p:], q)

    return HomogeneousLagrangian(
        n, p, f"graph_lift({F.name})", value,
        smoothness="as smooth as the density, on the positive-top chart",
    )


def fiber_rows(L: HomogeneousLagrangian, x: np.ndarray, y: KVector | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base points (N, n) and fiber coordinates (N, C(n,p)) at the base point x.

    ``y`` is one KVector, checked as ``L.value`` checks it (a batch of one),
    or an array of N fiber rows, checked as the batched methods check them.
    """
    if isinstance(y, KVector):
        return L._one(x, y)
    cs = np.asarray(y, dtype=float)
    return L._rows(np.broadcast_to(np.asarray(x, dtype=float), (len(cs), L.n)), cs)


def euler_residual(L: HomogeneousLagrangian, x: np.ndarray, y: KVector | np.ndarray) -> float | np.ndarray:
    """|L(x,y) - <dL/dy, y>|; zero for degree-1 homogeneous L.

    A KVector y gives a float; fiber rows (N, C(n,p)) give one residual per row.
    """
    xs, cs = fiber_rows(L, x, y)
    # vecdot is the BLAS dot of pair(), row by row
    residual = np.abs(L.value_many(xs, cs) - np.vecdot(L.gradient_many(xs, cs), cs))
    return float(residual[0]) if isinstance(y, KVector) else residual


def homogeneity_residual(
    L: HomogeneousLagrangian, x: np.ndarray, y: KVector | np.ndarray, lambdas: Sequence[float]
) -> float | np.ndarray:
    """max over lambda of |L(x, lambda y) - lambda L(x, y)| / (lambda |y|).

    A KVector y gives a float; fiber rows (N, C(n,p)) give one residual per
    row, from one value_many call per factor.
    """
    lams = [float(lam) for lam in lambdas]
    if any(lam <= 0.0 for lam in lams):
        raise ValueError("scaling factors must be positive")
    xs, cs = fiber_rows(L, x, y)
    base = L.value_many(xs, cs)
    norm = np.sqrt(np.vecdot(cs, cs))
    residual = np.max([np.abs(L.value_many(xs, lam * cs) - lam * base) / (lam * norm) for lam in lams], axis=0)
    return float(residual[0]) if isinstance(y, KVector) else residual


def areolar_form(L: HomogeneousLagrangian) -> AreolarForm:
    """The p-covector field with coefficients dL/dy, defined on oriented classes."""
    return AreolarForm(L)


def is_nondegenerate(
    L: HomogeneousLagrangian, x: np.ndarray, y: KVector | np.ndarray, tol: float = 1e-8
) -> bool | np.ndarray:
    """Whether the fiber Hessian of L^2 is positive definite beyond tol.

    A KVector y gives a bool; fiber rows (N, C(n,p)) give one per row.
    """
    definite = np.linalg.eigvalsh(L._square_hessians(*fiber_rows(L, x, y))[0])[:, 0] > tol
    return bool(definite[0]) if isinstance(y, KVector) else definite
