"""Discretized parametric p-surfaces in R^n and the three action integrals.

Surfaces are single-chart grids over an axis-aligned parameter rectangle.
Tangent frames live at cell centers and come from averaged corner
differences, which is second-order accurate and needs no boundary cases.
The three actions integrate, respectively, the Lagrangian on the tangent
p-vector, a graph density on the slopes, and the tautological form at the
gradient image; cell contributions are accumulated in a fixed order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateCellError
from .exterior import _reduce, minors
from .lagrangian import GraphDensity, HomogeneousLagrangian

__all__ = [
    "ParametricGrid",
    "GraphSurface",
    "ConvergenceRow",
    "paired_actions",
    "graph_action",
    "convergence_rows",
]


# Cell rules for the parameter-domain integrals.  ``midpoint`` evaluates at
# cell centers with frames from corner averages.  ``gauss2`` uses the tensor
# two-point Gauss rule; it needs a callable surface map for off-node frames,
# differenced with step = cell size.
QUADRATURE_RULES = ("midpoint", "gauss2")


def _normalize_domain(domain, p: int) -> tuple[tuple[float, float], ...]:
    dom = tuple((float(lo), float(hi)) for lo, hi in domain)
    if len(dom) != p:
        raise ValueError(f"domain needs {p} axis intervals")
    if any(hi <= lo for lo, hi in dom):
        raise ValueError("domain intervals must have positive length")
    return dom


def _normalize_resolution(resolution, p: int) -> tuple[int, ...]:
    if isinstance(resolution, int):
        res = (resolution,) * p
    else:
        res = tuple(int(r) for r in resolution)
    if len(res) != p or any(r < 2 for r in res):
        raise ValueError("resolution must give at least 2 cells per axis")
    return res


@dataclass(frozen=True)
class ParametricGrid:
    """Node values of a map from a parameter rectangle into R^n.

    ``values`` has shape (res_1+1, ..., res_p+1, n).  When the grid was built
    from a callable, the callable is kept so Gauss quadrature can re-sample.
    """

    p: int
    n: int
    domain: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    values: np.ndarray
    mapping: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "domain", _normalize_domain(self.domain, self.p))
        object.__setattr__(self, "resolution", _normalize_resolution(self.resolution, self.p))
        values = np.asarray(self.values, dtype=float)
        expected = tuple(r + 1 for r in self.resolution) + (self.n,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match nodes {expected}")
        if not np.all(np.isfinite(values)):
            raise ValueError("node values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_map(cls, fn, domain, resolution, p: int, n: int) -> "ParametricGrid":
        """Sample ``fn``, batched from points of shape (N, p) to (N, n), at every node in one call."""
        dom = _normalize_domain(domain, p)
        res = _normalize_resolution(resolution, p)
        axes = [np.linspace(lo, hi, r + 1) for (lo, hi), r in zip(dom, res)]
        mesh = np.meshgrid(*axes, indexing="ij")
        params = np.stack([m.ravel() for m in mesh], axis=-1)
        values = _call_batched(fn, params, n, "surface map")
        values = values.reshape(tuple(r + 1 for r in res) + (n,))
        return cls(p=p, n=n, domain=dom, resolution=res, values=values, mapping=fn)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(hi - lo) / r for (lo, hi), r in zip(self.domain, self.resolution)])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.resolution))

    def cell_index(self, flat: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.unravel_index(flat, self.resolution))


@dataclass(frozen=True)
class GraphSurface:
    """Graph of f: R^p -> R^(n-p) over a parameter rectangle.

    ``f`` is batched: parameter points of shape (N, p) to values of shape (N, n-p).
    """

    f: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...] | int
    p: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "domain", _normalize_domain(self.domain, self.p))
        object.__setattr__(self, "resolution", _normalize_resolution(self.resolution, self.p))

    def graph_values(self, s: np.ndarray) -> np.ndarray:
        """Values of f at points of shape (N, p), checked to be (N, n-p)."""
        return _call_batched(self.f, s, self.n - self.p, "graph map")

    def map(self, s: np.ndarray) -> np.ndarray:
        """Graph points (s, f(s)) of shape (N, n) for parameters of shape (N, p)."""
        s = np.asarray(s, dtype=float)
        return np.concatenate([s, self.graph_values(s)], axis=-1)

    def to_grid(self) -> ParametricGrid:
        return ParametricGrid.from_map(self.map, self.domain, self.resolution, self.p, self.n)


def _call_batched(fn, points: np.ndarray, width: int, what: str) -> np.ndarray:
    """``fn`` on a block of points of shape (N, p), checked to return (N, width)."""
    out = np.asarray(fn(points), dtype=float)
    if out.shape != (len(points), width):
        raise ValueError(f"{what} must map points of shape (N, p) to (N, {width}); "
                         f"got {out.shape} for N={len(points)}")
    return out


_GAUSS2_OFFSETS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _sample_blocks(domain, resolution, rule: str) -> tuple[list[np.ndarray], np.ndarray, float]:
    """Parameter points of each quadrature offset (one block per offset, rows
    in row-major cell order), the cell size per axis and the weight per sample.
    Raises ValueError on a rule outside QUADRATURE_RULES."""
    if rule not in QUADRATURE_RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    p = len(resolution)
    h = np.array([(hi - lo) / r for (lo, hi), r in zip(domain, resolution)])
    lows = np.array([lo for lo, _ in domain])
    cells = np.indices(resolution).reshape(p, -1).T
    offsets = [(0.5,) * p] if rule == "midpoint" else list(itertools.product(_GAUSS2_OFFSETS, repeat=p))
    blocks = [lows[None, :] + (cells + np.array(o)[None, :]) * h[None, :] for o in offsets]
    return blocks, h, float(np.prod(h)) / len(offsets)


def _central_differences(fn, params: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Derivatives of a batched map along each parameter axis, by central
    differences with step h; shape (N, p, width)."""
    steps = np.diag(0.5 * h)
    return np.stack([(fn(params + steps[k]) - fn(params - steps[k])) / h[k] for k in range(len(h))], axis=1)


def _cell_frames(grid: ParametricGrid) -> tuple[np.ndarray, np.ndarray]:
    """Tangent frames and base points at every cell center.

    Returns (frames, bases) with frames of shape (num_cells, n, p) holding the
    averaged corner differences per axis, and bases of shape (num_cells, n).
    Cells are enumerated in row-major order of the cell multi-index.  Each
    axis sums its corner blocks, added or subtracted as views in row-major
    corner order, into one contiguous (p, *res, n) array, and frames is a
    view of it.
    """
    p, n, values, res = grid.p, grid.n, grid.values, grid.resolution
    sums = np.zeros((p, *res, n))
    bases = np.zeros((*res, n))
    for offset in itertools.product((0, 1), repeat=p):
        block = values[tuple(slice(o, o + r) for o, r in zip(offset, res))]
        bases += block
        for axis, o in enumerate(offset):
            (np.add if o else np.subtract)(sums[axis], block, out=sums[axis])
    bases /= 2**p
    sums /= (2.0 ** (p - 1) * grid.spacing).reshape((p,) + (1,) * (p + 1))
    return np.moveaxis(sums.reshape(p, grid.num_cells, n), 0, -1), bases.reshape(grid.num_cells, n)


def _quadrature_samples(grid: ParametricGrid, rule: str):
    """Yield (frames, bases, weight-per-sample) blocks for the chosen rule."""
    if rule == "midpoint":
        frames, bases = _cell_frames(grid)
        return [(frames, bases, grid.cell_volume)]
    params_blocks, h, weight = _sample_blocks(grid.domain, grid.resolution, rule)
    if grid.mapping is None:
        raise ValueError("gauss2 quadrature needs a grid built from a callable map")
    # tensor two-point Gauss rule; frames by central differences of the map
    # with step equal to the cell size
    def mapping(s: np.ndarray) -> np.ndarray:
        return _call_batched(grid.mapping, s, grid.n, "surface map")

    return [(np.swapaxes(_central_differences(mapping, params, h), 1, 2), mapping(params), weight)
            for params in params_blocks]


def _check_cells(coords: np.ndarray, grid: ParametricGrid, L: HomogeneousLagrangian) -> None:
    """Name the first cell whose tangent p-vector vanishes, or else lies off the chart of L."""
    dead = ~_reduce(np.logical_or, coords != 0.0, axis=1)
    if np.any(dead):
        raise DegenerateCellError(grid.cell_index(int(np.argmax(dead))))
    off = ~L._on_chart(coords)
    if np.any(off):
        raise L._off_chart(f"cell {grid.cell_index(int(np.argmax(off)))}")


def _checked_samples(L: HomogeneousLagrangian, grid: ParametricGrid, rule: str):
    """Yield (frames, minors, bases, weight-per-sample) blocks whose cells _check_cells passed for L."""
    if (grid.n, grid.p) != (L.n, L.p):
        raise ValueError("grid and Lagrangian dimensions do not match")
    for frames, bases, weight in _quadrature_samples(grid, rule):
        coords = minors(frames)
        _check_cells(coords, grid, L)
        yield frames, coords, bases, weight


def paired_actions(
    L: HomogeneousLagrangian, grid: ParametricGrid, rule: str = "midpoint"
) -> tuple[float, float]:
    """The Lagrangian and multisymplectic actions from one pass of frames, minors and cell checks.

    The first integrates L on the tangent p-vectors, by homogeneity for any affine parametrization;
    the second integrates the tautological form over the gradient image of the tangent lift, which
    pairs the fiber gradient at each tangent p-vector with the frame minors.
    """
    # pairings first: gradient_many needs the most scratch, and so it runs
    # before this block's weighted values exist
    blocks = [(weight * np.einsum("ij,ij->i", L.gradient_many(bases, coords), coords),
               weight * L.value_many(bases, coords))
              for _, coords, bases, weight in _checked_samples(L, grid, rule)]
    # the frames are gone by now, and one list of Python floats is alive at a time
    multisymplectic, lagrangian = (math.fsum(np.concatenate(side).tolist()) for side in zip(*blocks))
    return lagrangian, multisymplectic


def graph_action(
    F: GraphDensity, surf: GraphSurface, rule: str = "midpoint"
) -> float:
    """Quadrature of F(base, values, slopes) over the parameter rectangle.

    Slopes come from central differences of the graph map with step equal to
    the cell size, matching the tangent-frame discretization.
    """
    if (surf.n, surf.p) != (F.n, F.p):
        raise ValueError("surface and density dimensions do not match")
    params_blocks, h, weight = _sample_blocks(surf.domain, surf.resolution, rule)
    contributions = []
    for params in params_blocks:
        values = surf.graph_values(params)
        slopes = _central_differences(surf.graph_values, params, h)
        contributions.extend((weight * F.fn_many(params, values, slopes)).tolist())
    return math.fsum(contributions)


@dataclass(frozen=True)
class ConvergenceRow:
    resolution: int
    h: float
    value: float
    error: float | None
    observed_order: float | None


def convergence_rows(values: dict[int, float], domain, reference: float | None = None) -> list[ConvergenceRow]:
    """Errors and observed orders of action values keyed by resolution.

    Errors are taken against the reference when given, else against the next
    finer value, ``|v_k - v_(k+1)|``, and the finest row carries no error.
    Orders are ratios of successive errors; rows at machine level are
    reported without an order.
    """
    res_sorted = sorted(values)
    ref = reference if reference is not None else values[res_sorted[-1]]
    scale = max(1.0, abs(ref))
    rows: list[ConvergenceRow] = []
    prev_error: float | None = None
    prev_h: float | None = None
    for k, res in enumerate(res_sorted):
        h = max((hi - lo) / res for (lo, hi) in domain)
        if reference is not None:
            error = abs(values[res] - reference)
        elif k + 1 < len(res_sorted):
            error = abs(values[res] - values[res_sorted[k + 1]])
        else:
            error = None
        order = None
        if error is not None and prev_error is not None:
            if error > 1e-13 * scale and prev_error > 1e-13 * scale:
                order = math.log(prev_error / error) / math.log(prev_h / h)
        rows.append(ConvergenceRow(resolution=res, h=h, value=values[res],
                                   error=error, observed_order=order))
        if error is not None:
            prev_error, prev_h = error, h
    return rows
