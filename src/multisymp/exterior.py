"""Exterior algebra over R^n in coordinates.

p-vectors and p-covectors are stored on the basis of strictly increasing
multi-indices, enumerated lexicographically.  A coordinate read on a permuted
index tuple carries the permutation sign, so the antisymmetry relations
hold by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import UnsupportedDegreeError, ZeroSectionError

__all__ = [
    "KVector",
    "KCovector",
    "GrassmannPoint",
    "multi_indices",
    "index_position",
    "canonicalize_index",
    "minors",
    "wedge_vectors",
    "pair",
    "plane_from_bivector",
    "is_decomposable",
    "grassmann_eq",
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


def det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices, shape (..., k, k) to (...).

    Orders up to four are exact cofactor formulas: order four is the Laplace
    expansion along rows 0 and 1 over their 2 x 2 minors.  Orders five and
    up use LAPACK.
    """
    k = m.shape[-1]
    if k == 1:
        return m[..., 0, 0]
    if k == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if k == 3:
        return (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
    if k == 4:
        def minor(r, i, j):  # rows r, r + 1 and columns i, j
            return m[..., r, i] * m[..., r + 1, j] - m[..., r, j] * m[..., r + 1, i]

        return (minor(0, 0, 1) * minor(2, 2, 3) - minor(0, 0, 2) * minor(2, 1, 3)
                + minor(0, 0, 3) * minor(2, 1, 2) + minor(0, 1, 2) * minor(2, 0, 3)
                - minor(0, 1, 3) * minor(2, 0, 2) + minor(0, 2, 3) * minor(2, 0, 1))
    return np.linalg.det(m)


def minors(frames: np.ndarray) -> np.ndarray:
    """Increasing-index p x p minors of frames of shape (..., n, p); shape (..., C(n, p))."""
    frames = np.asarray(frames, dtype=float)
    n, p = frames.shape[-2:]
    # np.take keeps the gathered stack in C order, so the minors come out C-contiguous
    return det(np.take(frames, _minor_rows(n, p), axis=-2))


def canonicalize_index(seq: Sequence[int], n: int) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple and return it with the permutation sign.

    Returns (None, 0) when an axis repeats (the basis element vanishes).
    """
    axes = tuple(int(a) for a in seq)
    if any(a < 1 or a > n for a in axes):
        raise ValueError(f"axis labels {axes} out of range 1..{n}")
    if len(set(axes)) != len(axes):
        return None, 0
    # the sign is the parity of the pairs out of order
    inversions = sum(a > b for a, b in itertools.combinations(axes, 2))
    return tuple(sorted(axes)), -1 if inversions % 2 else 1


class _FiberElement:
    """Shared implementation of coordinate arrays over the increasing-index basis."""

    __slots__ = ("n", "p", "coords")

    def __init__(self, n: int, p: int, coords):
        arr = np.asarray(coords, dtype=float).copy()
        expected = math.comb(n, p)
        if arr.shape != (expected,):
            raise ValueError(f"expected {expected} coordinates for (n={n}, p={p}), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "coords", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def component(self, seq: Sequence[int]) -> float:
        """Signed coordinate on an arbitrary (possibly permuted) index tuple."""
        idx, sign = canonicalize_index(seq, self.n)
        if sign == 0:
            return 0.0
        return sign * float(self.coords[index_position(self.n, self.p)[idx]])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def is_zero(self) -> bool:
        return bool(np.all(self.coords == 0.0))

    def scaled(self, factor: float):
        return type(self)(self.n, self.p, factor * self.coords)

    def __neg__(self):
        return self.scaled(-1.0)

    # display helper for the classic ordered triple on (n, p) = (3, 2):
    # (12, 23, 31), where the 31-coordinate is minus the canonical 13-coordinate.
    def as_cyclic_triple(self) -> tuple[float, float, float]:
        if (self.n, self.p) != (3, 2):
            raise ValueError("cyclic triple display only defined for n=3, p=2")
        c = self.coords
        return float(c[0]), float(c[2]), float(-c[1])


class KVector(_FiberElement):
    """Element of degree p of the exterior power of R^n (a p-vector)."""


class KCovector(_FiberElement):
    """Element of degree p of the exterior power of the dual of R^n (a p-covector)."""


def wedge_vectors(vectors: Sequence[np.ndarray], n: int | None = None) -> KVector:
    """Wedge of p vectors of R^n: coordinates are the p x p minors by row set."""
    cols = [np.asarray(v, dtype=float) for v in vectors]
    if not cols:
        raise ValueError("need at least one vector")
    dim = cols[0].shape[0] if n is None else n
    if any(v.shape != (dim,) for v in cols):
        raise ValueError(f"all vectors must have shape ({dim},)")
    p = len(cols)
    if p > dim:
        raise ValueError(f"cannot wedge {p} vectors in dimension {dim}")
    return KVector(dim, p, minors(np.column_stack(cols)))


def pair(alpha: KCovector, u: KVector) -> float:
    """Duality pairing in the canonical bases: sum over increasing indices."""
    if (alpha.n, alpha.p) != (u.n, u.p):
        raise ValueError(f"shape mismatch: covector (n={alpha.n}, p={alpha.p}) vs vector (n={u.n}, p={u.p})")
    return float(alpha.coords @ u.coords)


def plane_from_bivector(u: KVector) -> tuple[np.ndarray, np.ndarray]:
    """Spanning pair of the plane a nonzero bivector in R^3 represents.

    The plane is the kernel of the contraction of u into any nonzero volume
    form; the returned basis is oriented so its wedge is a positive multiple of u.
    """
    if (u.n, u.p) != (3, 2):
        raise ValueError("plane extraction is defined for bivectors in R^3")
    if u.is_zero():
        raise ZeroSectionError("zero bivector does not represent a plane")
    # contraction of u into c*dx1^dx2^dx3 is the 1-form with components
    # c*(y23, y31, y12); its kernel does not depend on c
    y12, y23, y31 = u.as_cyclic_triple()
    normal = np.array([y23, y31, y12])
    normal /= np.linalg.norm(normal)
    seed_axis = np.zeros(3)
    seed_axis[int(np.argmin(np.abs(normal)))] = 1.0
    v1 = seed_axis - (seed_axis @ normal) * normal
    v1 /= np.linalg.norm(v1)
    v2 = np.cross(normal, v1)
    if pair(KCovector(3, 2, wedge_vectors([v1, v2]).coords), u) < 0.0:
        v1, v2 = v2, v1
    return v1, v2


def is_decomposable(u: KVector, tol: float = 1e-9) -> bool:
    """Whether u is (within tol, relative) the wedge of p vectors.

    Degrees 1, n-1 and n are always decomposable; degree 2 is tested through
    the vanishing of u ^ u, whose coordinate on axes i < j < k < l is twice
    the Pluecker relation u_ij u_kl - u_ik u_jl + u_il u_jk.  Other degrees
    are not implemented.
    """
    if u.is_zero():
        raise ZeroSectionError("decomposability is undefined at the zero section")
    if u.p in (1, u.n - 1, u.n):
        return True
    if u.p == 2:
        y = dict(zip(multi_indices(u.n, 2), u.coords.tolist()))
        relations = [y[i, j] * y[k, l] - y[i, k] * y[j, l] + y[i, l] * y[j, k]
                     for i, j, k, l in itertools.combinations(range(1, u.n + 1), 4)]
        return 2.0 * float(np.linalg.norm(relations)) <= tol * u.norm() ** 2
    raise UnsupportedDegreeError(f"decomposability test not implemented for p={u.p}, n={u.n}")


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """Oriented projective class [y] of a nonzero p-vector.

    Classes of decomposable p-vectors are oriented p-planes; ``check`` controls
    whether decomposability is validated at construction.
    """

    representative: KVector

    def __init__(self, representative: KVector, tol: float = 1e-9, check: bool = True):
        if representative.is_zero():
            raise ZeroSectionError("a Grassmann class needs a nonzero representative")
        if check:
            if not is_decomposable(representative, tol=tol):
                raise ValueError("representative is not decomposable within tolerance")
        object.__setattr__(self, "representative", representative)

    @classmethod
    def from_vectors(cls, vectors: Sequence[np.ndarray], n: int | None = None) -> "GrassmannPoint":
        w = wedge_vectors(vectors, n=n)
        if w.is_zero():
            raise ZeroSectionError("vectors are linearly dependent")
        return cls(w, check=False)

    def unit_representative(self) -> KVector:
        return self.representative.scaled(1.0 / self.representative.norm())


def grassmann_eq(a: GrassmannPoint, b: GrassmannPoint, tol: float = 1e-9) -> bool:
    """Whether two oriented classes agree: representatives positively proportional."""
    ua = a.unit_representative().coords
    ub = b.unit_representative().coords
    if ua.shape != ub.shape:
        return False
    return bool(np.linalg.norm(ua - ub) <= tol)


def _rejection_rows(draw, count: int, width: int, why: str) -> np.ndarray:
    """``count`` accepted rows of width ``width``, drawn in blocks.

    ``draw(k)`` makes k draws from its stream and returns the accepted ones
    in order; each rejected draw is replaced by the next draws of the stream,
    so the rows and the generator state after are those of a draw-by-draw
    loop.  Raises RuntimeError, with ``why`` appended, once the rejected
    draws exceed a hundred per row plus a thousand.
    """
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
        norms = np.sqrt(np.vecdot(rows, rows))  # KVector.norm, row by row
        keep = norms >= 1e-9
        if chart is not None:
            coord = rows[:, chart]
            keep &= np.abs(coord) >= margin * norms
            rows = np.where(coord[:, None] > 0, rows, -rows)
        keep &= np.min(np.abs(rows), axis=-1) >= floor * norms
        return rows[keep]

    return _rejection_rows(draw, count, math.comb(n, p), f"nearly every draw fails the norm, "
                           f"chart {chart} margin {margin} or floor {floor} test")
