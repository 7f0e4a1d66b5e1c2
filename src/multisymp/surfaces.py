"""Discretized parametric p-surfaces in R^n and the three action integrals.

Surfaces are single-chart grids over an axis-aligned parameter rectangle.
Tangent frames live at cell centers and come from averaged corner
differences, which is second-order accurate and needs no boundary cases.
The three actions integrate, respectively, the Lagrangian on the tangent
p-vector, a graph density on the slopes, and the tautological form at the
gradient image; each action is the correctly rounded exact sum of its cells,
so order and blocking cannot move it.  Grid sampling and the action kernels
run over slabs of at most CELL_BLOCK nodes or cells, rows along the first
axis, so beyond the node values only the per-cell contributions span the grid.
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
        """Sample ``fn``, batched from points of shape (N, p) to (N, n), at every node, one call per slab of
        node rows along the first axis (at most CELL_BLOCK nodes, at least one row)."""
        dom = _normalize_domain(domain, p)
        res = _normalize_resolution(resolution, p)
        axes = [np.linspace(lo, hi, r + 1) for (lo, hi), r in zip(dom, res)]
        nodes = tuple(r + 1 for r in res)
        values = np.empty(nodes + (n,))
        for a, b in _row_slabs(nodes):
            values[a:b] = _call_batched(fn, _tensor_points(axes, a, b), n, "surface map").reshape(
                (b - a,) + nodes[1:] + (n,))
        return cls(p=p, n=n, domain=dom, resolution=res, values=values, mapping=fn)

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(hi - lo) / r for (lo, hi), r in zip(self.domain, self.resolution)])

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

# Cells per slab of the action kernels, and nodes per slab of grid sampling.  A slab is a range of rows
# along the first axis, at least one row, so frames, minors and cell values exist for one slab at a time;
# every kernel is row-independent and each action is an exact sum, so the slab size moves no bit.
CELL_BLOCK = 4096


def _row_slabs(shape: tuple[int, ...]) -> list[tuple[int, int]]:
    """Ranges [a, b) of rows along the first axis of ``shape``, each of at most CELL_BLOCK entries and at
    least one row, in order."""
    step = max(1, CELL_BLOCK // math.prod(shape[1:]))
    return [(a, min(a + step, shape[0])) for a in range(0, shape[0], step)]


def _quadrature_rule(domain, resolution, rule: str) -> tuple[list[list[np.ndarray]], np.ndarray, float]:
    """Per sample offset of the rule, the coordinates per axis of that sample in each cell along the axis;
    the cell size per axis and the weight per sample.  Raises ValueError on a rule outside QUADRATURE_RULES."""
    if rule not in QUADRATURE_RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    p = len(resolution)
    h = np.array([(hi - lo) / r for (lo, hi), r in zip(domain, resolution)])
    offsets = [(0.5,) * p] if rule == "midpoint" else list(itertools.product(_GAUSS2_OFFSETS, repeat=p))
    samples = [[lo + (np.arange(r) + o) * hk for (lo, _), r, o, hk in zip(domain, resolution, np.array(offset), h)]
               for offset in offsets]
    return samples, h, float(np.prod(h)) / len(offsets)


def _tensor_points(axes: list[np.ndarray], a: int, b: int) -> np.ndarray:
    """The points (N, p) of the tensor grid of per-axis coordinates ``axes``, in the rows [a, b) of the first
    axis, in row-major order.  The points are the transpose of a (p, N) array, so each coordinate column
    ``s[..., k]`` that a map reads is contiguous, not strided as in C-ordered points."""
    p = len(axes)
    points = np.empty((p, b - a, *(len(x) for x in axes[1:])))
    for k, x in enumerate([axes[0][a:b], *axes[1:]]):
        points[k] = x.reshape((-1,) + (1,) * (p - 1 - k))
    return points.reshape(p, -1).T


def _central_differences(fn, params: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Derivatives of a batched map along each parameter axis, by central
    differences with step h; shape (N, p, width)."""
    steps = np.diag(0.5 * h)
    return np.stack([(fn(params + steps[k]) - fn(params - steps[k])) / h[k] for k in range(len(h))], axis=1)


def _cell_frames(values: np.ndarray, spacing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangent frames and base points at the cell centers of a block of node values.

    ``values`` has shape (r_1+1, ..., r_p+1, n), a whole grid's or a slab of its node rows, and
    ``spacing`` is the grid's cell size per axis.  Returns (frames, bases) with frames of shape
    (r_1 ... r_p, n, p) holding the averaged corner differences per axis, and bases of shape
    (r_1 ... r_p, n).  Cells are enumerated in row-major order of the cell multi-index.  Each axis sums
    its corner blocks, added or subtracted as views in row-major corner order, into one contiguous
    (p, *res, n) array, and frames is a view of it.
    """
    *nodes, n = values.shape
    res = tuple(k - 1 for k in nodes)
    p, cells = len(res), math.prod(res)
    sums = np.zeros((p, *res, n))
    bases = np.zeros((*res, n))
    for offset in itertools.product((0, 1), repeat=p):
        block = values[tuple(slice(o, o + r) for o, r in zip(offset, res))]
        bases += block
        for axis, o in enumerate(offset):
            (np.add if o else np.subtract)(sums[axis], block, out=sums[axis])
    bases /= 2**p
    sums /= (2.0 ** (p - 1) * spacing).reshape((p,) + (1,) * (p + 1))
    return np.moveaxis(sums.reshape(p, cells, n), 0, -1), bases.reshape(cells, n)


def _quadrature_samples(grid: ParametricGrid, rule: str):
    """(weight-per-sample, slabs) for each sample offset of the rule, in order; slabs yields
    (first cell, frames, bases) for the cells of one _row_slabs range at a time."""
    samples, h, weight = _quadrature_rule(grid.domain, grid.resolution, rule)
    slabs, row = _row_slabs(grid.resolution), math.prod(grid.resolution[1:])
    if rule == "midpoint":
        spacing = grid.spacing
        return [(weight, ((a * row, *_cell_frames(grid.values[a:b + 1], spacing)) for a, b in slabs))]
    if grid.mapping is None:
        raise ValueError("gauss2 quadrature needs a grid built from a callable map")
    # tensor two-point Gauss rule; frames by central differences of the map
    # with step equal to the cell size
    def mapping(s: np.ndarray) -> np.ndarray:
        return _call_batched(grid.mapping, s, grid.n, "surface map")

    def gauss(axes):
        for a, b in slabs:
            params = _tensor_points(axes, a, b)
            yield a * row, np.swapaxes(_central_differences(mapping, params, h), 1, 2), mapping(params)

    return [(weight, gauss(axes)) for axes in samples]


def _check_cells(coords: np.ndarray, grid: ParametricGrid, L: HomogeneousLagrangian, first: int = 0) -> int | None:
    """Raise DegenerateCellError naming the first cell whose tangent p-vector vanishes; else return the flat
    index of the first cell off the chart of L, or None.  ``coords`` holds the cells from flat index ``first``."""
    dead = ~_reduce(np.logical_or, coords != 0.0, axis=1)
    if np.any(dead):
        raise DegenerateCellError(grid.cell_index(first + int(np.argmax(dead))))
    off = ~L._on_chart(coords)
    return first + int(np.argmax(off)) if np.any(off) else None


def _checked_samples(L: HomogeneousLagrangian, grid: ParametricGrid, rule: str):
    """Yield (frames, minors, bases, weight-per-sample) slabs whose cells _check_cells passed for L.

    Errors are those of one check per sample offset: the first dead cell of an offset wins over its
    first off-chart cell.  So after an off-chart cell nothing more is yielded, but the later slabs of
    that offset are still searched for a dead cell before the off-chart error is raised.
    """
    if (grid.n, grid.p) != (L.n, L.p):
        raise ValueError("grid and Lagrangian dimensions do not match")
    for weight, slabs in _quadrature_samples(grid, rule):
        off = None
        for first, frames, bases in slabs:
            coords = minors(frames)
            found = _check_cells(coords, grid, L, first)
            off = found if off is None else off
            if off is None:
                yield frames, coords, bases, weight
        if off is not None:
            raise L._off_chart(f"cell {grid.cell_index(off)}")


def _exact_sum(values: np.ndarray, action: str) -> float:
    """The correctly rounded exact sum of the cell contributions ``values`` (1-d float64), which is
    ``math.fsum(values.tolist())`` bit for bit.

    Error-free slicing: N integers below 2**w, w = 53 - N.bit_length(), add exactly in any order.  So
    the values are scaled by a power of two below 2**w, and each slice is cut off by ``np.trunc``,
    added by numpy and joined to one Python int; the exact remainders, scaled by 2**w, give the next
    slice, until none is left.  The int is rounded to a float once.  Raises ArithmeticError naming the
    action on a non-finite entry, and OverflowError, as fsum does, when the sum is beyond the float
    range; unlike fsum, a sum that overflows only on the way, as 1e308 + 1e308 - 1e308, is returned.
    """
    if len(values) == 0:
        return 0.0
    hi, lo = float(values.max()), float(values.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ArithmeticError(f"non-finite cell contribution in the {action} action")
    top = max(hi, -lo)
    if top == 0.0:
        return 0.0
    w = 53 - len(values).bit_length()
    c = w - math.frexp(top)[1]  # every |value| * 2**c is below 2**w
    total = 0  # the slices so far, in units of 2**-c
    rest = values
    # values of 2**w and more: cut the slice on a scaled-down copy, but keep the remainders unscaled,
    # since scaling down would drop the bits of the smallest values
    while c < 0:
        whole = np.trunc(rest * 2.0**c)
        total = (total << w) + int(np.add.reduce(whole))
        rest = rest - whole * 2.0**-c
        c += w
    # scaling up is exact; a factor beyond 2**1023, for the tiniest values, is applied in two steps
    scaled = rest * 2.0 ** min(c, 1023)
    if c > 1023:
        scaled *= 2.0 ** (c - 1023)
    whole = np.empty_like(scaled)
    while True:
        np.trunc(scaled, out=whole)
        total = (total << w) + int(np.add.reduce(whole))
        scaled -= whole
        if not scaled.any():
            return total / (1 << c)  # correctly rounded; OverflowError beyond the float range
        scaled *= 2.0**w
        c += w


def paired_actions(
    L: HomogeneousLagrangian, grid: ParametricGrid, rule: str = "midpoint"
) -> tuple[float, float]:
    """The Lagrangian and multisymplectic actions from one pass of frames, minors and cell checks.

    The first integrates L on the tangent p-vectors, by homogeneity for any affine parametrization;
    the second integrates the tautological form over the gradient image of the tangent lift, which
    pairs the fiber gradient at each tangent p-vector with the frame minors.
    """
    pairings, values = [], []
    for _, coords, bases, weight in _checked_samples(L, grid, rule):
        value, grad = L._jet(*L._rows(bases, coords), 1)
        pairings.append(weight * np.einsum("ij,ij->i", grad, coords))
        values.append(weight * value)
        del value, grad  # a slab's jet must not outlive it: the next jet, and the exact sums, need the room
    multisymplectic = _exact_sum(np.concatenate(pairings), "multisymplectic")
    return _exact_sum(np.concatenate(values), "Lagrangian"), multisymplectic


def graph_action(
    F: GraphDensity, surf: GraphSurface, rule: str = "midpoint"
) -> float:
    """Quadrature of F(base, values, slopes) over the parameter rectangle.

    Slopes come from central differences of the graph map with step equal to
    the cell size, matching the tangent-frame discretization.
    """
    if (surf.n, surf.p) != (F.n, F.p):
        raise ValueError("surface and density dimensions do not match")
    samples, h, weight = _quadrature_rule(surf.domain, surf.resolution, rule)
    contributions = []
    for axes in samples:
        for a, b in _row_slabs(surf.resolution):
            params = _tensor_points(axes, a, b)
            values = surf.graph_values(params)
            slopes = _central_differences(surf.graph_values, params, h)
            contributions.append(weight * F.jet(params, values, slopes, 0)[0])
    return _exact_sum(np.concatenate(contributions), "graph")


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
