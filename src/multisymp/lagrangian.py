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
from .exterior import KCovector, KVector, index_position, pair

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

    The stored callables operate on raw coordinate arrays (base point of
    shape (n,), fiber coordinates of shape (C(n,p),)); the public methods
    accept KVector fibers and guard the zero section.  Analytic derivative
    callables are optional; central finite differences fill in.
    """

    n: int
    p: int
    name: str
    value_fn: Callable[[np.ndarray, np.ndarray], float]
    grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    value_many_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    smoothness: str = "C2 off the zero section"

    @property
    def fiber_dim(self) -> int:
        return math.comb(self.n, self.p)

    def _coords(self, y: KVector) -> np.ndarray:
        if (y.n, y.p) != (self.n, self.p):
            raise ValueError(f"fiber mismatch: Lagrangian (n={self.n}, p={self.p}) vs y (n={y.n}, p={y.p})")
        if y.is_zero():
            raise ZeroSectionError(f"{self.name} is undefined on the zero section")
        return y.coords

    def value(self, x: np.ndarray, y: KVector) -> float:
        return float(self.value_fn(np.asarray(x, dtype=float), self._coords(y)))

    def value_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Batch evaluation on raw coordinates; rows with zero fiber are rejected."""
        xs = np.asarray(xs, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if np.any(np.all(cs == 0.0, axis=1)):
            raise ZeroSectionError(f"{self.name} is undefined on the zero section")
        if self.value_many_fn is not None:
            return np.asarray(self.value_many_fn(xs, cs), dtype=float)
        return np.array([self.value_fn(x, c) for x, c in zip(xs, cs)])

    def gradient(self, x: np.ndarray, y: KVector) -> KCovector:
        x = np.asarray(x, dtype=float)
        c = self._coords(y)
        if self.grad_fn is not None:
            g = np.asarray(self.grad_fn(x, c), dtype=float)
        else:
            g = self._fd_gradient(x, c)
        return KCovector(self.n, self.p, g)

    def gradient_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if self.grad_fn is not None:
            return np.array([self.grad_fn(x, c) for x, c in zip(xs, cs)])
        h = GRAD_STEP_SCALE * np.linalg.norm(cs, axis=1)
        out = np.empty_like(cs)
        for k in range(cs.shape[1]):
            plus = cs.copy()
            plus[:, k] += h
            minus = cs.copy()
            minus[:, k] -= h
            out[:, k] = (self.value_many(xs, plus) - self.value_many(xs, minus)) / (2.0 * h)
        return out

    def hessian(self, x: np.ndarray, y: KVector) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c = self._coords(y)
        if self.hess_fn is not None:
            return np.asarray(self.hess_fn(x, c), dtype=float)
        return self._fd_hessian(x, c)

    def square_hessian(self, x: np.ndarray, y: KVector) -> np.ndarray:
        """Hessian of L^2 in the fiber: 2(g g^T + L H), exact given exact g and H."""
        g = self.gradient(x, y).coords
        H = self.hessian(x, y)
        return 2.0 * (np.outer(g, g) + self.value(x, y) * H)

    def _fd_gradient(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        h = GRAD_STEP_SCALE * float(np.linalg.norm(c))
        g = np.empty_like(c)
        for k in range(c.size):
            plus = c.copy()
            plus[k] += h
            minus = c.copy()
            minus[k] -= h
            g[k] = (self.value_fn(x, plus) - self.value_fn(x, minus)) / (2.0 * h)
        return g

    def _fd_hessian(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        grad = self.grad_fn if self.grad_fn is not None else self._fd_gradient
        h = HESS_STEP_SCALE * float(np.linalg.norm(c))
        H = np.empty((c.size, c.size))
        for k in range(c.size):
            plus = c.copy()
            plus[k] += h
            minus = c.copy()
            minus[k] -= h
            H[:, k] = (np.asarray(grad(x, plus)) - np.asarray(grad(x, minus))) / (2.0 * h)
        return 0.5 * (H + H.T)


@dataclass(frozen=True)
class AreolarForm:
    """Fiberwise p-covector field with coefficients homogeneous of degree 0.

    The coefficients at (x, [y]) are the fiber gradient of the generating
    Lagrangian at any representative; degree-0 homogeneity makes the choice
    immaterial, so the field lives on oriented classes.
    """

    n: int
    p: int
    coefficient_fn: Callable[[np.ndarray, KVector], KCovector]

    def coefficients_at(self, x: np.ndarray, y) -> KCovector:
        rep = y.representative if hasattr(y, "representative") else y
        return self.coefficient_fn(np.asarray(x, dtype=float), rep)

    def evaluate(self, x: np.ndarray, y, vectors: Sequence[np.ndarray]) -> float:
        """Value of the form on p base vectors."""
        return self.coefficients_at(x, y)(vectors)


@dataclass(frozen=True)
class GraphDensity:
    """First-order density F(base, values, slopes) of a graph variational problem.

    ``slopes`` has shape (p, n-p) with entry [i, j] the derivative of the
    j-th value component along the i-th base direction.  ``fn_many`` takes
    the same arguments with a leading batch axis and returns shape (N,).
    """

    n: int
    p: int
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    fn_many: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    name: str = "density"

    def __call__(self, base: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> float:
        return float(self.fn(np.asarray(base, float), np.asarray(values, float), np.asarray(slopes, float)))


def area_lagrangian(n: int, p: int) -> HomogeneousLagrangian:
    """Euclidean norm of the fiber coordinates: the p-area of the spanned element."""
    if not 0 < p < n:
        raise ValueError(f"need 0 < p < n, got p={p}, n={n}")

    def value(x, c):
        return np.linalg.norm(c)

    def grad(x, c):
        return c / np.linalg.norm(c)

    def hess(x, c):
        norm = np.linalg.norm(c)
        unit = c / norm
        return (np.eye(c.size) - np.outer(unit, unit)) / norm

    return HomogeneousLagrangian(
        n, p, "area", value, grad, hess,
        value_many_fn=lambda xs, cs: np.linalg.norm(cs, axis=1),
        smoothness="smooth off the zero section",
    )


def ellipsoid_lagrangian(n: int, p: int, weights: Sequence[float]) -> HomogeneousLagrangian:
    """Weighted norm sqrt(sum_I w_I y_I^2), weights in lexicographic index order."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (math.comb(n, p),):
        raise ValueError(f"expected {math.comb(n, p)} weights, got shape {w.shape}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")

    def value(x, c):
        return np.sqrt(w @ (c * c))

    def grad(x, c):
        return w * c / value(x, c)

    def hess(x, c):
        L = value(x, c)
        wc = w * c
        return np.diag(w) / L - np.outer(wc, wc) / L**3

    return HomogeneousLagrangian(
        n, p, "ellipsoid", value, grad, hess,
        value_many_fn=lambda xs, cs: np.sqrt(cs * cs @ w),
        smoothness="smooth off the zero section",
    )


def projected_volume_lagrangian(n: int, p: int) -> HomogeneousLagrangian:
    """Linear Lagrangian reading the top coordinate: signed volume projected to the 1..p plane.

    Degenerate on purpose (zero Hessian); exercises the rank identity.
    """
    dim = math.comb(n, p)

    return HomogeneousLagrangian(
        n, p, "projected_volume",
        value_fn=lambda x, c: c[0],
        grad_fn=lambda x, c: np.eye(dim)[0],
        hess_fn=lambda x, c: np.zeros((dim, dim)),
        value_many_fn=lambda xs, cs: cs[:, 0],
        smoothness="linear",
    )


def geometric_mean_lagrangian(n: int = 3, p: int = 2) -> HomogeneousLagrangian:
    """Geometric mean of the absolute fiber coordinates.

    Degree-1 homogeneous but not nondegenerate (its square is not convex);
    serves as the detector-sensitivity probe for the convexity certificate.
    Smooth only where every coordinate is nonzero.
    """
    dim = math.comb(n, p)

    def value(x, c):
        return np.abs(np.prod(c)) ** (1.0 / dim)

    def grad(x, c):
        return value(x, c) / (dim * c)

    def hess(x, c):
        L = value(x, c)
        H = np.outer(1.0 / c, 1.0 / c) * (L / dim**2)
        H[np.diag_indices(dim)] = -L * (dim - 1) / (dim**2 * c * c)
        return H

    return HomogeneousLagrangian(
        n, p, "geometric_mean", value, grad, hess,
        value_many_fn=lambda xs, cs: np.abs(np.prod(cs, axis=1)) ** (1.0 / dim),
        smoothness="smooth off the coordinate hyperplanes",
    )


def constant_density(n: int, p: int, value: float = 1.0) -> GraphDensity:
    return GraphDensity(
        n, p,
        fn=lambda base, values, slopes: value,
        name="constant",
        fn_many=lambda bases, values, slopes: np.full(len(bases), value),
    )


def minimal_surface_density(n: int, p: int) -> GraphDensity:
    """sqrt(1 + sum of squared slopes): the area element of a codimension-1 graph."""

    return GraphDensity(
        n, p,
        fn=lambda base, values, slopes: np.sqrt(1.0 + np.sum(slopes * slopes)),
        name="minimal_surface",
        fn_many=lambda bases, values, slopes: np.sqrt(1.0 + np.sum(slopes * slopes, axis=(1, 2))),
    )


def graph_area_density(n: int, p: int) -> GraphDensity:
    """sqrt(det(I + q q^T)): the area element of a graph in any codimension."""

    def fn(base, values, slopes):
        return np.sqrt(np.linalg.det(np.eye(p) + slopes @ slopes.T))

    def fn_many(bases, values, slopes):
        eye = np.eye(p)
        return np.sqrt(np.linalg.det(eye + slopes @ np.transpose(slopes, (0, 2, 1))))

    return GraphDensity(n, p, fn=fn, name="graph_area", fn_many=fn_many)


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

    def value(x, c):
        if c[top] <= 0.0:
            raise OrientationError(f"graph chart needs a positive top coordinate, got {c[top]:g}")
        q = slope_sign * c[slope_pos] / c[top]
        return c[top] * F.fn(x[:p], x[p:], q)

    def value_many(xs, cs):
        tops = cs[:, top]
        if np.any(tops <= 0.0):
            bad = int(np.argmax(tops <= 0.0))
            raise OrientationError(f"graph chart needs positive top coordinates (first offender row {bad})")
        q = slope_sign[None, :, :] * cs[:, slope_pos] / tops[:, None, None]
        return tops * F.fn_many(xs[:, :p], xs[:, p:], q)

    return HomogeneousLagrangian(
        n, p, f"graph_lift({F.name})", value,
        value_many_fn=value_many,
        smoothness="as smooth as the density, on the positive-top chart",
    )


def euler_residual(L: HomogeneousLagrangian, x: np.ndarray, y: KVector) -> float:
    """|L(x,y) - <dL/dy, y>|; zero for degree-1 homogeneous L."""
    return abs(L.value(x, y) - pair(L.gradient(x, y), y))


def homogeneity_residual(
    L: HomogeneousLagrangian, x: np.ndarray, y: KVector, lambdas: Sequence[float]
) -> float:
    """max over lambda of |L(x, lambda y) - lambda L(x, y)| / (lambda |y|)."""
    lams = [float(lam) for lam in lambdas]
    if any(lam <= 0.0 for lam in lams):
        raise ValueError("scaling factors must be positive")
    base = L.value(x, y)
    norm = y.norm()
    return max(abs(L.value(x, y.scaled(lam)) - lam * base) / (lam * norm) for lam in lams)


def areolar_form(L: HomogeneousLagrangian) -> AreolarForm:
    """The p-covector field with coefficients dL/dy, defined on oriented classes."""
    return AreolarForm(L.n, L.p, lambda x, y: L.gradient(x, y))


def is_nondegenerate(L: HomogeneousLagrangian, x: np.ndarray, y: KVector, tol: float = 1e-8) -> bool:
    """Whether the fiber Hessian of L^2 is positive definite beyond tol at (x, y)."""
    eigs = np.linalg.eigvalsh(L.square_hessian(x, y))
    return bool(eigs[0] > tol)
