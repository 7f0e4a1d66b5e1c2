"""Degree-1 positively homogeneous Lagrangians on the fibers of p-vectors.

A Lagrangian here is a scalar function L(x, y) of a base point x in R^n and a
nonzero p-vector y, positively homogeneous of degree 1 in y.  The module
provides the built-in families used throughout (Euclidean norm, weighted
norm, lifts of graph densities, plus two degenerate probes), access to their
exact gradients and Hessians (the gradient dL/dy is the induced fiberwise
p-covector), and residual checks for the homogeneity identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OrientationError, ZeroSectionError
from .exterior import _reduce, index_position

__all__ = [
    "HomogeneousLagrangian",
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
]

@dataclass(frozen=True)
class HomogeneousLagrangian:
    """Evaluatable L(x, y) with gradient and Hessian access.

    The stored callables are batched: they take base points ``xs`` of shape
    (N, n) and fiber coordinates ``cs`` of shape (N, C(n,p)), and return
    values (N,), gradients (N, C(n,p)) and Hessians (N, C(n,p), C(n,p)).
    Each row must depend on its own inputs only.  The ``*_many`` methods
    call them on fiber rows at one base point (n,) or one per row; they
    check shapes through ``_rows`` and reject the zero section and rows
    off ``chart``.  The gradient and Hessian callables are required and
    exact, as a GraphDensity's slope derivatives are.

    The built-in constructors also declare what the Lagrangian can do:
    ``chart`` is the index of the fiber coordinate that must be positive
    where L is defined (a lift's top coordinate), None for everywhere;
    ``image_quadric`` is (Q, tol) when the Legendre image lies on
    {Q = 1} for Q on gradient rows, with tol None for the configured
    tolerance; ``density`` is the graph density whose action L integrates on
    graphs; ``sampling_floor`` is the least |y_I| / |y| of a sampled fiber.
    """

    n: int
    p: int
    name: str
    value_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    chart: int | None = None
    image_quadric: tuple[Callable[[np.ndarray], np.ndarray], float | None] | None = None
    density: GraphDensity | None = None
    sampling_floor: float = 0.0

    @property
    def fiber_dim(self) -> int:
        return math.comb(self.n, self.p)

    def _rows(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Base points (N, n) and fiber rows (N, C(n,p)) of one evaluation, shapes and rows checked.

        ``y`` is fiber rows (N, C(n,p)); ``x`` is one base point (n,) or one per row.
        """
        xs, cs = np.asarray(x), np.asarray(y)  # any other object is a 0-d array here, and fails the check
        if cs.ndim != 2 or cs.shape[1] != self.fiber_dim or xs.shape not in {(self.n,), (len(cs), self.n)}:
            raise ValueError(f"{self.name} takes base points ({self.n},) or (N, {self.n}) with fiber rows "
                             f"(N, {self.fiber_dim}), got {xs.shape} and {cs.shape}")
        xs, cs = xs.astype(float, copy=False), cs.astype(float, copy=False)
        if np.any(_reduce(np.logical_and, cs == 0.0, axis=-1)):
            raise ZeroSectionError(f"{self.name} is undefined on the zero section")
        if self.chart is not None:
            off = ~self._on_chart(cs)
            if np.any(off):
                raise self._off_chart(f"row {int(np.argmax(off))}")
        return np.broadcast_to(xs, (len(cs), self.n)), cs

    def _off_chart(self, where: str) -> OrientationError:
        return OrientationError(f"{where} is off the chart of {self.name}: "
                                f"fiber coordinate {self.chart} must be positive")

    def _on_chart(self, cs: np.ndarray) -> np.ndarray:
        """Whether each fiber row lies in the chart; all rows without one."""
        return np.ones(len(cs), dtype=bool) if self.chart is None else cs[:, self.chart] > 0.0

    def value_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Values on fiber rows (N, C(n,p)) at one base point or one per row, shape (N,)."""
        return self._values(*self._rows(xs, cs))

    def gradient_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Fiber gradients on raw coordinates, shape (N, C(n,p))."""
        return self._gradients(*self._rows(xs, cs))

    def hessian_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Fiber Hessians on raw coordinates, shape (N, C(n,p), C(n,p))."""
        return self._hessians(*self._rows(xs, cs))

    def _values(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(xs, cs), dtype=float)

    def _gradients(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(xs, cs), dtype=float)

    def _hessians(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        return np.asarray(self.hess_fn(xs, cs), dtype=float)

    def _square_hessians(self, xs: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hess(L^2) = 2 (g g^T + L H) and Hess L per row, exact given exact g and H."""
        g, H = self._gradients(xs, cs), self._hessians(xs, cs)
        return 2.0 * (g[:, :, None] * g[:, None, :] + self._values(xs, cs)[:, None, None] * H), H


@dataclass(frozen=True)
class GraphDensity:
    """First-order density F(base, values, slopes) of a graph variational problem.

    ``fn_many`` takes base points (N, p), values (N, n-p) and slopes
    (N, p, n-p), where slopes[k, i, j] is the derivative of the j-th value
    component along the i-th base direction, and returns shape (N,).
    ``d_slopes`` and ``d2_slopes`` take the same arguments and return the
    exact first and second derivatives in the slopes, shapes (N, p, n-p) and
    (N, p, n-p, p, n-p); graph_lift builds its fiber gradient and Hessian
    from them.
    """

    n: int
    p: int
    fn_many: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    d_slopes: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    d2_slopes: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
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
        n, p, "area", value, grad, hess, density=graph_area_density(n, p),
        image_quadric=(lambda grads: np.sqrt(np.vecdot(grads, grads)), 1e-10),
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
        n, p, "ellipsoid", value, grad, hess, image_quadric=(lambda grads: np.sum(grads**2 / w, axis=-1), None),
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

    return HomogeneousLagrangian(n, p, "geometric_mean", value, grad, hess, sampling_floor=0.05)


def constant_density(n: int, p: int, value: float = 1.0) -> GraphDensity:
    return GraphDensity(
        n, p,
        name="constant",
        fn_many=lambda bases, values, slopes: np.full(len(bases), value),
        d_slopes=lambda bases, values, slopes: np.zeros_like(slopes),
        d2_slopes=lambda bases, values, slopes: np.zeros(slopes.shape + slopes.shape[1:]),
    )


def minimal_surface_density(n: int, p: int) -> GraphDensity:
    """sqrt(1 + sum of squared slopes): the area element of a codimension-1 graph.

    Its slope derivatives are q / F and (I - q q^T / F^2) / F.
    """
    eye = np.eye(p * (n - p)).reshape(p, n - p, p, n - p)

    def fn_many(bases, values, slopes):
        # numpy sums contiguous slopes over both axes as one flattened axis
        return np.sqrt(1.0 + _reduce(np.add, (slopes * slopes).reshape(len(slopes), p * (n - p)), axis=1))

    def d_slopes(bases, values, slopes):
        return slopes / fn_many(bases, values, slopes)[:, None, None]

    def d2_slopes(bases, values, slopes):
        F = fn_many(bases, values, slopes)[:, None, None, None, None]
        return (eye - slopes[:, :, :, None, None] * slopes[:, None, None, :, :] / F**2) / F

    return GraphDensity(n, p, fn_many, d_slopes, d2_slopes, name="minimal_surface")


def graph_area_density(n: int, p: int) -> GraphDensity:
    """sqrt(det(I + q q^T)): the area element of a graph in any codimension.

    With G = I + q q^T and K = G^-1 q, its slope derivatives are F K and
    F (K_ij K_kl + (G^-1)_ik P_jl - K_il K_kj), where P = I - q^T K.
    """
    eye = np.eye(p)

    def fn_many(bases, values, slopes):
        return np.sqrt(np.linalg.det(eye + slopes @ np.transpose(slopes, (0, 2, 1))))

    def parts(slopes):
        """F, K and G^-1 per row, with sums in place of matmuls for row independence."""
        G = eye + np.sum(slopes[:, :, None, :] * slopes[:, None, :, :], axis=-1)
        inv = np.linalg.inv(G)
        return np.sqrt(np.linalg.det(G)), np.sum(inv[:, :, :, None] * slopes[:, None, :, :], axis=2), inv

    def d_slopes(bases, values, slopes):
        F, K, _ = parts(slopes)
        return F[:, None, None] * K

    def d2_slopes(bases, values, slopes):
        F, K, inv = parts(slopes)
        P = np.eye(n - p) - np.sum(slopes[:, :, :, None] * K[:, :, None, :], axis=1)
        Kt = np.swapaxes(K, 1, 2)
        D2 = (K[:, :, :, None, None] * K[:, None, None, :, :] + inv[:, :, None, :, None] * P[:, None, :, None, :]
              - K[:, :, None, None, :] * Kt[:, None, :, :, None])
        return F[:, None, None, None, None] * D2

    return GraphDensity(n, p, fn_many, d_slopes, d2_slopes, name="graph_area")


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
    The fiber gradient and Hessian are exact, through the chart map
    y -> (y_top, q): with M = y_top dq/dy, dL/dy = F e_top + M^T dF/dq and
    the Hessian is M^T (d2F/dq2) M / y_top.  Coordinates that are no
    slope (from (n, p) = (4, 2) on) do not enter L.
    """
    n, p = F.n, F.p
    top, slope_pos, slope_sign = _graph_chart_layout(n, p)
    slopes, dim = p * (n - p), math.comb(n, p)

    def density_args(xs, cs):
        """y_top and the density's arguments (bases, values, slopes q), per row."""
        tops = cs[:, top]
        return tops, (xs[:, :p], xs[:, p:], slope_sign * cs[:, slope_pos] / tops[:, None, None])

    def jacobian(q):
        """M = y_top dq/dy per row: -q on the top coordinate, the slope sign on the slope's own."""
        M = np.zeros((len(q), slopes, dim))
        M[:, :, top] = -q.reshape(-1, slopes)
        M[:, np.arange(slopes), slope_pos.ravel()] = slope_sign.ravel()
        return M

    def value(xs, cs):
        tops, args = density_args(xs, cs)
        return tops * F.fn_many(*args)

    def grad(xs, cs):
        _, args = density_args(xs, cs)
        g = _reduce(np.add, F.d_slopes(*args).reshape(-1, slopes, 1) * jacobian(args[2]), axis=1)
        g[:, top] += F.fn_many(*args)
        return g

    def hess(xs, cs):
        tops, args = density_args(xs, cs)
        M = jacobian(args[2])
        D2M = _reduce(np.add, F.d2_slopes(*args).reshape(-1, slopes, slopes, 1) * M[:, None, :, :], axis=2)
        return _reduce(np.add, M[:, :, :, None] * D2M[:, :, None, :], axis=1) / tops[:, None, None]

    return HomogeneousLagrangian(n, p, f"graph_lift({F.name})", value, grad, hess,
                                 chart=top, density=F)


def euler_residual(L: HomogeneousLagrangian, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|L(x,y) - <dL/dy, y>| per fiber row of y (N, C(n,p)); zero for degree-1 homogeneous L."""
    xs, cs = L._rows(x, y)
    # vecdot dots row by row, so each row equals a @ b bit for bit, as the per-fiber references read it
    return np.abs(L.value_many(xs, cs) - np.vecdot(L.gradient_many(xs, cs), cs))


def homogeneity_residual(
    L: HomogeneousLagrangian, x: np.ndarray, y: np.ndarray, lambdas: Sequence[float]
) -> np.ndarray:
    """max over lambda of |L(x, lambda y) - lambda L(x, y)| / (lambda |y|) per fiber row of y (N, C(n,p)).

    One value_many call per factor.
    """
    lams = [float(lam) for lam in lambdas]
    if any(lam <= 0.0 for lam in lams):
        raise ValueError("scaling factors must be positive")
    xs, cs = L._rows(x, y)
    base = L.value_many(xs, cs)
    norm = np.sqrt(np.vecdot(cs, cs))
    return np.max([np.abs(L.value_many(xs, lam * cs) - lam * base) / (lam * norm) for lam in lams], axis=0)

