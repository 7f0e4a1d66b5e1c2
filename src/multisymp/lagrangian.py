"""Degree-1 positively homogeneous Lagrangians on the fibers of p-vectors.

A Lagrangian here is a scalar function L(x, y) of a base point x in R^n and a
nonzero p-vector y, positively homogeneous of degree 1 in y.  The module
provides the built-in families used throughout (Euclidean norm, weighted
norm, lifts of graph densities, plus two degenerate probes), each as one
fiber 2-jet: the value, the exact gradient (dL/dy, the induced fiberwise
p-covector) and the exact Hessian from one callable.  It also provides
residual checks for the homogeneity identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import OrientationError, ZeroSectionError
from .exterior import _reduce, det, index_position

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
    """Evaluatable L(x, y) with its fiber 2-jet: value, gradient and Hessian from one callable.

    ``jet_fn(xs, cs, order)`` is batched: it takes base points ``xs`` of
    shape (N, n), fiber coordinates ``cs`` of shape (N, C(n,p)) and an order
    0, 1 or 2, and returns (L,), (L, dL) or (L, dL, d2L): values (N,),
    exact gradients (N, C(n,p)) and exact Hessians (N, C(n,p), C(n,p)).
    Each row must depend on its own inputs only, and a lower order must give
    the leading parts of a higher one bit for bit.  The ``*_many`` methods
    call it on fiber rows at one base point (n,) or one per row; they check
    shapes through ``_rows`` and reject the zero section and rows off
    ``chart``.

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
    jet_fn: Callable[[np.ndarray, np.ndarray, int], tuple[np.ndarray, ...]]
    chart: int | None = None
    image_quadric: tuple[Callable[[np.ndarray], np.ndarray], float | None] | None = None
    density: GraphDensity | None = None
    sampling_floor: float = 0.0

    def __post_init__(self):
        if not 0 < self.p < self.n:
            raise ValueError(f"need 0 < p < n, got p={self.p}, n={self.n}")

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
        return self._jet(*self._rows(xs, cs), 0)[0]

    def gradient_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Fiber gradients on raw coordinates, shape (N, C(n,p))."""
        return self._jet(*self._rows(xs, cs), 1)[1]

    def hessian_many(self, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """Fiber Hessians on raw coordinates, shape (N, C(n,p), C(n,p))."""
        return self._jet(*self._rows(xs, cs), 2)[2]

    def _jet(self, xs: np.ndarray, cs: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """The jet up to ``order`` on rows that _rows checked, as float arrays."""
        return tuple([np.asarray(part, dtype=float) for part in self.jet_fn(xs, cs, order)])

    def _square_hessians(self, xs: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hess(L^2) = 2 (g g^T + L H) and Hess L per row, exact given exact g and H."""
        value, g, H = self._jet(xs, cs, 2)
        return 2.0 * (g[:, :, None] * g[:, None, :] + value[:, None, None] * H), H


@dataclass(frozen=True)
class GraphDensity:
    """First-order density F(base, values, slopes) of a graph variational problem, with its slope 2-jet.

    ``jet(bases, values, slopes, order)`` takes base points (N, p), values
    (N, n-p), slopes (N, p, n-p), where slopes[k, i, j] is the derivative of
    the j-th value component along the i-th base direction, and an order 0,
    1 or 2.  It returns (F,), (F, dF) or (F, dF, d2F): F of shape (N,) and
    its exact first and second derivatives in the slopes, shapes (N, p, n-p)
    and (N, p, n-p, p, n-p), a lower order giving the leading parts of a
    higher one bit for bit; graph_lift builds its fiber jet from them.
    """

    n: int
    p: int
    jet: Callable[[np.ndarray, np.ndarray, np.ndarray, int], tuple[np.ndarray, ...]]
    name: str = "density"


def area_lagrangian(n: int, p: int) -> HomogeneousLagrangian:
    """Euclidean norm of the fiber coordinates: the p-area of the spanned element."""
    eye = np.eye(math.comb(n, p))

    def jet(xs, cs, order):
        norm = np.sqrt(_reduce(np.add, cs * cs, axis=-1))  # np.linalg.norm's sum, bit for bit
        if order == 0:
            return (norm,)
        unit = cs / norm[:, None]
        if order == 1:
            return norm, unit
        return norm, unit, (eye - unit[:, :, None] * unit[:, None, :]) / norm[:, None, None]

    return HomogeneousLagrangian(
        n, p, "area", jet, density=graph_area_density(n, p),
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

    def jet(xs, cs, order):
        # a sum over the last axis, not a matmul: a row's value must not depend on the batch
        value = np.sqrt(_reduce(np.add, w * (cs * cs), axis=-1))
        if order == 0:
            return (value,)
        wc = w * cs
        grad = wc / value[:, None]
        if order == 1:
            return value, grad
        L = value[:, None, None]
        return value, grad, diag / L - wc[:, :, None] * wc[:, None, :] / L**3

    return HomogeneousLagrangian(
        n, p, "ellipsoid", jet, image_quadric=(lambda grads: _reduce(np.add, grads**2 / w, axis=-1), None),
    )


def projected_volume_lagrangian(n: int, p: int) -> HomogeneousLagrangian:
    """Linear Lagrangian reading the top coordinate: signed volume projected to the 1..p plane.

    Degenerate on purpose (zero Hessian); exercises the rank identity.
    """
    dim = math.comb(n, p)

    def jet(xs, cs, order):
        value = cs[:, 0].copy()
        if order == 0:
            return (value,)
        grad = np.tile(np.eye(dim)[0], (len(cs), 1))
        return (value, grad) if order == 1 else (value, grad, np.zeros((len(cs), dim, dim)))

    return HomogeneousLagrangian(n, p, "projected_volume", jet)


def geometric_mean_lagrangian(n: int = 3, p: int = 2) -> HomogeneousLagrangian:
    """Geometric mean of the absolute fiber coordinates.

    Degree-1 homogeneous but not nondegenerate (its square is not convex);
    serves as the detector-sensitivity probe for the convexity certificate.
    Smooth only where every coordinate is nonzero.
    """
    dim = math.comb(n, p)
    diagonal = np.diag_indices(dim)

    def jet(xs, cs, order):
        value = np.abs(_reduce(np.multiply, cs, axis=-1)) ** (1.0 / dim)
        if order == 0:
            return (value,)
        L = value[:, None]
        grad = L / (dim * cs)
        if order == 1:
            return value, grad
        inv = 1.0 / cs
        H = inv[:, :, None] * inv[:, None, :] * (L / dim**2)[:, :, None]
        H[(slice(None),) + diagonal] = -L * (dim - 1) / (dim**2 * cs * cs)
        return value, grad, H

    return HomogeneousLagrangian(n, p, "geometric_mean", jet, sampling_floor=0.05)


def constant_density(n: int, p: int, value: float = 1.0) -> GraphDensity:
    def jet(bases, values, slopes, order):
        F = np.full(len(bases), value)
        if order == 0:
            return (F,)
        dF = np.zeros_like(slopes)
        return (F, dF) if order == 1 else (F, dF, np.zeros(slopes.shape + slopes.shape[1:]))

    return GraphDensity(n, p, jet, name="constant")


def minimal_surface_density(n: int, p: int) -> GraphDensity:
    """sqrt(1 + sum of squared slopes): the area element of a codimension-1 graph.

    Its slope derivatives are q / F and (I - q q^T / F^2) / F.
    """
    eye = np.eye(p * (n - p)).reshape(p, n - p, p, n - p)

    def jet(bases, values, slopes, order):
        # numpy sums contiguous slopes over both axes as one flattened axis
        F = np.sqrt(1.0 + _reduce(np.add, (slopes * slopes).reshape(len(slopes), p * (n - p)), axis=1))
        if order == 0:
            return (F,)
        dF = slopes / F[:, None, None]
        if order == 1:
            return F, dF
        F5 = F[:, None, None, None, None]
        return F, dF, (eye - slopes[:, :, :, None, None] * slopes[:, None, None, :, :] / F5**2) / F5

    return GraphDensity(n, p, jet, name="minimal_surface")


def graph_area_density(n: int, p: int) -> GraphDensity:
    """sqrt(det(I + q q^T)): the area element of a graph in any codimension.

    With G = I + q q^T and K = G^-1 q, its slope derivatives are F K and
    F (K_ij K_kl + (G^-1)_ik P_jl - K_il K_kj), where P = I - q^T K.  G, K
    and G^-1 come from sums in place of matmuls, for row independence, and
    F from ``exterior.det`` of that one G.
    """
    eye = np.eye(p)

    def jet(bases, values, slopes, order):
        # q q^T as one outer product per slope column, numpy's sum order below 8 columns, no (N, p, p, n-p) array
        G = np.zeros((len(slopes), p, p))
        for j in range(n - p):
            G += slopes[:, :, None, j] * slopes[:, None, :, j]
        G += eye
        F = np.sqrt(det(G))
        if order == 0:
            return (F,)
        inv = np.linalg.inv(G)
        K = _reduce(np.add, inv[:, :, :, None] * slopes[:, None, :, :], axis=2)
        dF = F[:, None, None] * K
        if order == 1:
            return F, dF
        P = np.eye(n - p) - _reduce(np.add, slopes[:, :, :, None] * K[:, :, None, :], axis=1)
        Kt = np.swapaxes(K, 1, 2)
        D2 = (K[:, :, :, None, None] * K[:, None, None, :, :] + inv[:, :, None, :, None] * P[:, None, :, None, :]
              - K[:, :, None, None, :] * Kt[:, None, :, :, None])
        return F, dF, F[:, None, None, None, None] * D2

    return GraphDensity(n, p, jet, name="graph_area")


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

    def jet(xs, cs, order):
        tops = cs[:, top]
        q = slope_sign * cs[:, slope_pos] / tops[:, None, None]
        density = F.jet(xs[:, :p], xs[:, p:], q, order)
        value = tops * density[0]
        if order == 0:
            return (value,)
        # g = M^T dF + F e_top with M = y_top dq/dy per row: -q on the top coordinate, the slope sign on the
        # slope's own.  Each column adds its terms in slope order from +0.0, as a sum over M's rows would,
        # so a slope column is 0.0 + sign dF and the top column the running sum of -q dF
        dF, qs = density[1].reshape(-1, slopes), q.reshape(-1, slopes)
        g = np.zeros((len(q), dim))
        g[:, slope_pos.ravel()] += dF * slope_sign.ravel()
        for k in range(slopes):
            g[:, top] += dF[:, k] * -qs[:, k]
        g[:, top] += density[0]
        if order == 1:
            return value, g
        M = np.zeros((len(q), slopes, dim))
        M[:, :, top] = -qs
        M[:, np.arange(slopes), slope_pos.ravel()] = slope_sign.ravel()
        D2M = _reduce(np.add, density[2].reshape(-1, slopes, slopes, 1) * M[:, None, :, :], axis=2)
        return value, g, _reduce(np.add, M[:, :, :, None] * D2M[:, :, None, :], axis=1) / tops[:, None, None]

    return HomogeneousLagrangian(n, p, f"graph_lift({F.name})", jet, chart=top, density=F)


def euler_residual(L: HomogeneousLagrangian, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|L(x,y) - <dL/dy, y>| per fiber row of y (N, C(n,p)); zero for degree-1 homogeneous L."""
    xs, cs = L._rows(x, y)
    values, grads = L._jet(xs, cs, 1)
    # vecdot dots row by row, so each row equals a @ b bit for bit, as the per-fiber references read it
    return np.abs(values - np.vecdot(grads, cs))


def homogeneity_residual(
    L: HomogeneousLagrangian, x: np.ndarray, y: np.ndarray, lambdas: Sequence[float]
) -> np.ndarray:
    """max over lambda of |L(x, lambda y) - lambda L(x, y)| / (lambda |y|) per fiber row of y (N, C(n,p)).

    One value call on y and one value_many call per factor.
    """
    lams = [float(lam) for lam in lambdas]
    if any(lam <= 0.0 for lam in lams):
        raise ValueError("scaling factors must be positive")
    xs, cs = L._rows(x, y)
    base = L._jet(xs, cs, 0)[0]
    norm = np.sqrt(np.vecdot(cs, cs))
    return np.max([np.abs(L.value_many(xs, lam * cs) - lam * base) / (lam * norm) for lam in lams], axis=0)

