"""Exterior algebra over R^n in coordinates.

p-vectors and p-covectors are rows of coordinates on the basis of strictly
increasing multi-indices, enumerated lexicographically; N of them make an
array (N, C(n, p)).  The coordinates of the wedge of p vectors are the p x p
minors of the n x p frame they span, so a decomposable p-vector, an oriented
tangent p-plane up to scale, is the minors row of any frame of that plane.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import ZeroSectionError

__all__ = [
    "multi_indices",
    "index_position",
    "minors",
    "plane_from_bivector",
    "decomposable_rows",
]


@lru_cache(maxsize=None)
def multi_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All increasing index tuples for (n, p), in lexicographic order."""
    if not 0 < p <= n:
        raise ValueError(f"need 0 < p <= n, got p={p}, n={n}")
    return tuple(itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=None)
def index_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    """Map from increasing index tuple to its position in the coordinate array."""
    return {axes: k for k, axes in enumerate(multi_indices(n, p))}


@lru_cache(maxsize=None)
def _minor_rows(n: int, p: int) -> np.ndarray:
    """Zero-based row sets of the increasing multi-indices, shape (C(n, p), p)."""
    rows = np.array(multi_indices(n, p)) - 1
    rows.setflags(write=False)
    return rows


def _cofactor_det(entry, k: int) -> np.ndarray:
    """The determinant of order k <= 4 whose (i, j) entries are the arrays ``entry(i, j)``, by exact cofactor
    formulas: order four is the Laplace expansion along rows 0 and 1 over their 2 x 2 minors."""
    if k == 1:
        return entry(0, 0)
    if k == 2:
        return entry(0, 0) * entry(1, 1) - entry(0, 1) * entry(1, 0)
    if k == 3:
        return (
            entry(0, 0) * (entry(1, 1) * entry(2, 2) - entry(1, 2) * entry(2, 1))
            - entry(0, 1) * (entry(1, 0) * entry(2, 2) - entry(1, 2) * entry(2, 0))
            + entry(0, 2) * (entry(1, 0) * entry(2, 1) - entry(1, 1) * entry(2, 0))
        )

    def minor(r, i, j):  # rows r, r + 1 and columns i, j
        return entry(r, i) * entry(r + 1, j) - entry(r, j) * entry(r + 1, i)

    return (minor(0, 0, 1) * minor(2, 2, 3) - minor(0, 0, 2) * minor(2, 1, 3)
            + minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3)
            - minor(0, 1, 3) * minor(2, 0, 2) + minor(0, 2, 3) * minor(2, 0, 1))


def det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices, shape (..., k, k) to (...).

    Orders up to four are exact cofactor formulas; orders five and up use LAPACK.
    """
    k = m.shape[-1]
    return _cofactor_det(lambda i, j: m[..., i, j], k) if k <= 4 else np.linalg.det(m)


def minors(frames: np.ndarray) -> np.ndarray:
    """Increasing-index p x p minors of frames of shape (..., n, p); shape (..., C(n, p)).

    Up to order four each minor is det's formula on views of the frame entries, so no p x p blocks are
    gathered.  The result is C-ordered whatever the frames' strides, since row sums of the minors round by it.
    """
    frames = np.asarray(frames, dtype=float)
    n, p = frames.shape[-2:]
    rows = _minor_rows(n, p)
    out = np.empty(frames.shape[:-2] + (len(rows),))
    for k, axes in enumerate(rows):
        out[..., k] = (_cofactor_det(lambda i, j: frames[..., axes[i], j], p) if p <= 4
                       else np.linalg.det(frames[..., axes, :]))
    return out


def _reduce(op: np.ufunc, a: np.ndarray, axis: int) -> np.ndarray:
    """``op.reduce(a, axis)`` for np.add, np.multiply, np.logical_and or np.logical_or.

    On an axis of a few entries numpy's per-row loop costs more than the
    arithmetic.  Below 8 entries this applies ``op`` to whole slices
    instead, from op's identity and entry by entry, which is numpy's own
    order there, so values and signed zeros are numpy's bit for bit.  From 8
    entries numpy's sum on an innermost axis is pairwise, so those axes, and
    empty ones, go to numpy.
    """
    a = np.asarray(a)
    axis %= a.ndim
    if not 0 < a.shape[axis] < 8:
        return op.reduce(a, axis=axis)
    head = (slice(None),) * axis
    out = op(op.identity, a[head + (slice(0, 1),)])
    for i in range(1, a.shape[axis]):
        op(out, a[head + (slice(i, i + 1),)], out=out)
    return out[head + (0,)]


def plane_from_bivector(rows: np.ndarray) -> np.ndarray:
    """Orthonormal frames (N, 3, 2) of the planes that nonzero bivector rows (N, 3) in R^3 represent.

    The minors of each frame are its row over the row's norm, a positive
    multiple of it.  Raises ValueError on a non-finite row and
    ZeroSectionError on a zero row.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"plane extraction takes bivector rows (N, 3) in R^3, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("bivector rows must be finite")
    norms = np.linalg.norm(rows, axis=-1)
    if np.any(norms == 0.0):
        raise ZeroSectionError(f"row {int(np.argmin(norms))} is a zero bivector, which represents no plane")
    # contraction of y into dx1^dx2^dx3 is the 1-form (y23, -y13, y12); the plane is its kernel
    normal = rows[:, ::-1] * np.array([1.0, -1.0, 1.0]) / norms[:, None]
    seed_axis = np.eye(3)[np.argmin(np.abs(normal), axis=-1)]
    v1 = seed_axis - np.vecdot(seed_axis, normal)[:, None] * normal
    v1 /= np.linalg.norm(v1, axis=-1, keepdims=True)
    # v1 x (normal x v1) = normal, so the minors (12, 13, 23) of (v1, v2) are the row over its norm
    return np.stack([v1, np.cross(normal, v1)], axis=-1)


class _FiberElement:
    # kept only for the COUNTED hook of bench/spans.py, which patches this __init__ by name; ROADMAP item 1 drops both
    def __init__(self, n: int, p: int, coords):
        self.n, self.p, self.coords = n, p, np.asarray(coords, dtype=float)


def _rejection_rows(draw, count: int, width: int, why: str) -> np.ndarray:
    """``count`` accepted rows of width ``width``, drawn in blocks.

    ``draw(k)`` makes k draws from its stream and returns the accepted ones
    in order; each rejected draw is replaced by the next draws of the stream,
    so the rows and the generator state after are those of a draw-by-draw
    loop.  Raises ValueError for a negative count, and RuntimeError, with
    ``why`` appended, once the rejected draws exceed a hundred per row plus a
    thousand.
    """
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    accepted, need, rejected = [], count, 0
    while need > 0:
        accepted.append(draw(need))
        rejected += need - len(accepted[-1])
        need -= len(accepted[-1])
        if rejected > 100 * count + 1000:
            raise RuntimeError(f"rejected {rejected} draws for {count} rows: {why}")
    return np.concatenate(accepted) if accepted else np.empty((0, width))


def decomposable_rows(rng: np.random.Generator, n: int, p: int, count: int,
                      chart: int | None = None, margin: float = 0.0, floor: float = 0.0) -> np.ndarray:
    """Coordinates (count, C(n,p)) of wedges of p standard-normal vectors of norm at least 1e-9.

    With ``chart`` set, a row's coordinate there is at least ``margin`` of its
    norm and is oriented positive; every |y_I| is at least ``floor`` of the
    norm.  Raises RuntimeError as _rejection_rows does.
    """
    def draw(need):
        rows = minors(np.swapaxes(rng.standard_normal((need, p, n)), 1, 2))
        # each norm is np.linalg.norm of its row bit for bit, so the draws kept are those of a draw-by-draw loop
        norms = np.sqrt(np.vecdot(rows, rows))
        keep = norms >= 1e-9
        if chart is not None:
            coord = rows[:, chart]
            keep &= np.abs(coord) >= margin * norms
            rows = np.where(coord[:, None] > 0, rows, -rows)
        keep &= np.min(np.abs(rows), axis=-1) >= floor * norms
        return rows[keep]

    return _rejection_rows(draw, count, math.comb(n, p), f"nearly every draw fails the norm, "
                           f"chart {chart} margin {margin} or floor {floor} test")
