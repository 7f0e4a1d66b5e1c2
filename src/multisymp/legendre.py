"""Fiberwise Legendre transform, its image hypersurface, and convexity checks.

For a degree-1 homogeneous Lagrangian the gradient map y -> dL/dy is
homogeneous of degree 0, so it factors through oriented classes and its image
is a codimension-1 set in the dual fiber.  The map is ``L.gradient_many`` on
fiber rows; this module inverts it on the unit level set {L = 1}, samples the
image, checks the rank splitting between the Hessians of L^2 and L, and
certifies (by sampling) that segments between image points stay inside the
image of the unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import NotInImageError, ZeroSectionError
from .exterior import _reduce, _rejection_rows
from .lagrangian import HomogeneousLagrangian
from .multisymplectic import TotalSpaceChart

__all__ = [
    "RankReport",
    "ConvexityCertificate",
    "hamiltonian",
    "inverse_legendre",
    "image_coordinates",
    "rank_lemma_check",
    "convexity_certificate",
    "write_image_csv",
]


def hamiltonian(L: HomogeneousLagrangian, x: np.ndarray, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<p, y> - L(x, y) per row of dual rows p and fiber rows y, both (N, C(n,p)).

    It vanishes where p is the gradient image of y.
    """
    xs, cs = L._rows(x, y)
    dual = np.asarray(p)
    if dual.shape != cs.shape:
        raise ValueError(f"{L.name} takes dual rows of the fiber rows' shape {cs.shape}, got {dual.shape}")
    # vecdot dots row by row, so each row equals a @ b bit for bit, as the per-fiber references read it
    return np.vecdot(dual.astype(float, copy=False), cs) - L._jet(xs, cs, 0)[0]


def _check_tolerance(value: float, name: str) -> None:
    """A tolerance bounds a residual, which is never negative; 0 asks for an exact result."""
    if not value >= 0.0:  # a NaN fails too
        raise ValueError(f"{name} must be at least 0, got {value}")


def inverse_legendre(L: HomogeneousLagrangian, x: np.ndarray, p: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Solve dL/dy(x, y) = p for each dual row of p (N, C(n,p)); the solutions as fiber rows on {L = 1}.

    The certificate's radial solve, blocks and confirmation included: it
    solves L(y*) dL/dy(y*) = p and normalizes y = y* / L(y*).  A target is a
    dual row, so the chart of L does not apply to it; only the solve's
    seeding does.  Raises ValueError for a NaN or negative tol or naming the
    first non-finite row, ZeroSectionError on a zero row, and
    NotInImageError naming the first row whose solve fails or whose
    |dL/dy(y) - p| exceeds tol, which is the no-solution signal for targets
    off the image.
    """
    _check_tolerance(tol, "tol")
    targets = np.asarray(p)
    if targets.ndim != 2 or targets.shape[1] != L.fiber_dim:
        raise ValueError(f"{L.name} takes dual rows (N, {L.fiber_dim}), got {targets.shape}")
    targets, x = targets.astype(float, copy=False), np.asarray(x, dtype=float)
    bad = ~np.isfinite(targets).all(axis=-1)
    if np.any(bad):
        raise ValueError(f"target row {int(np.argmax(bad))} is not finite")
    zero = np.all(targets == 0.0, axis=-1)
    if np.any(zero):
        raise ZeroSectionError(f"target row {int(np.argmax(zero))} is zero")
    blocks = list(_radial_solve(L, x, targets)) or [(np.empty(0), targets)]  # no rows make no block
    radius, rows = (np.concatenate(part) for part in zip(*blocks))
    failed = np.isnan(radius)
    if np.any(failed):
        raise NotInImageError(f"no preimage for row {int(np.argmax(failed))}: the radial solve failed")
    residual = np.linalg.norm(L.gradient_many(x, rows) - targets, axis=-1)
    missed = ~(residual <= tol)
    if np.any(missed):
        k = int(np.argmax(missed))
        raise NotInImageError(f"no preimage for row {k} within tolerance: residual {residual[k]:.3e} > {tol:.1e}")
    return rows


def _level_rows(L: HomogeneousLagrangian, x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows (count, C(n,p)) on the unit level set {L = 1} in uniformly random directions.

    Directions are drawn in blocks through _rejection_rows, so the rows and
    the generator state after are those of a direction-by-direction loop.
    A direction is rejected off the chart or where L is below 1e-9 |y|.
    """
    def draw(need):
        directions = rng.standard_normal((need, L.fiber_dim))
        norms = np.linalg.norm(directions, axis=-1)
        keep = (norms >= 1e-12) & L._on_chart(directions)
        levels = np.zeros(need)
        levels[keep] = L.value_many(x, directions[keep])
        keep &= levels > 1e-9 * norms
        return directions[keep] / levels[keep, None]

    return _rejection_rows(draw, count, L.fiber_dim, "L is below 1e-9 |y| in nearly every direction")


def image_coordinates(
    L: HomogeneousLagrangian, x: np.ndarray, count: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-level fiber rows of uniformly random directions and their gradient images.

    Both have shape (count, C(n,p)); deterministic per seed.
    """
    x = np.asarray(x, dtype=float)
    rows = _level_rows(L, x, count, np.random.default_rng(seed))
    return rows, L.gradient_many(x, rows)


@dataclass(frozen=True)
class RankReport:
    """Numerical ranks (N,) and singular values (N, C(n,p)) of the fiber Hessians of L^2 and L, per fiber row."""

    rank_L2: np.ndarray
    rank_L: np.ndarray
    singular_values_L2: np.ndarray
    singular_values_L: np.ndarray
    threshold: float


def rank_lemma_check(
    L: HomogeneousLagrangian, x: np.ndarray, y: np.ndarray, threshold: float = 1e-8
) -> RankReport:
    """Rank of Hess(L^2) versus 1 + rank(Hess L), by singular values above threshold*sigma_max.

    Per fiber row of y (N, C(n,p)), from one _square_hessians call and one stacked SVD.  Raises ValueError for a
    NaN or negative threshold.
    """
    _check_tolerance(threshold, "threshold")
    H2, H = L._square_hessians(*L._rows(x, y))
    svals = np.linalg.svd(np.stack([H2, H]), compute_uv=False)
    top = svals[..., :1]
    ranks = np.where(top[..., 0] > 0.0, np.sum(svals > threshold * top, axis=-1), 0)
    return RankReport(ranks[0], ranks[1], svals[0], svals[1], threshold)


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampled evidence that segments between image points stay inside the image body.

    ``worst_violation`` is the largest radial excess of a segment point over
    the image surface along its own ray, in units of the surface radius.
    ``num_failures`` counts the segment points whose radial solve failed, a
    preimage that misses the 1e-6 check included; each counts as a violation
    of 1.0.  A radial solve fails, among other causes, when it stalls:
    STALL_WINDOW Newton iterations pass without its |F|^2 falling to half of
    its value at the last halving.  The 100-iteration cap stays as a backstop.
    """

    passed: bool
    num_segment_checks: int
    worst_violation: float
    sample_seed: int
    tolerance: float
    num_failures: int = 0


# Target entries (rows times C(n,p)) solved together: bounds the working set of the batched radial solve.
RADIAL_BLOCK = 2560
# Line-search steps after the full one: 2^-1 .. 2^-39, every step above 1e-12.
HALVINGS = np.ldexp(1.0, -np.arange(1, 40))
# Newton iterations without |F|^2 halving after which a radial solve gives up as stalled.
STALL_WINDOW = 10


def _level_gradient(L: HomogeneousLagrangian, xs: np.ndarray, cs: np.ndarray):
    """L and dL/dy at each row of cs, NaN in the rows that are non-finite, zero or off the chart of L.

    Rows with a non-finite gradient are NaN too.  This is the solver's one
    zero-section and chart check: the valid rows are masked up front and take
    one order-1 jet call, on cs itself when every row is valid.
    ``xs`` has at least len(cs) base points.
    """
    levels = np.full(len(cs), np.nan)
    grads = np.full(cs.shape, np.nan)
    rows = np.flatnonzero(np.isfinite(cs).all(axis=-1) & (cs != 0.0).any(axis=-1) & L._on_chart(cs))
    rows = slice(None) if rows.size == len(cs) else rows
    block = cs[rows]
    levels[rows], grads[rows] = L._jet(xs[: len(block)], block, 1)
    bad = ~np.isfinite(grads).all(axis=-1)
    levels[bad] = np.nan
    grads[bad] = np.nan
    return levels, grads


def _solve_stack(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J delta = rhs per row; also returns which rows LAPACK could solve.

    solve raises for the whole stack when one row is singular.  slogdet's
    sign is 0 exactly where LAPACK's LU meets a zero pivot, which is where
    solve gives up, so one stacked solve on the other rows follows.
    """
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:
        solved = np.linalg.slogdet(J)[0] != 0
        delta = np.zeros_like(rhs)
        delta[solved] = np.linalg.solve(J[solved], rhs[solved, :, None])[..., 0]
        return delta, solved


def _line_search(L: HomogeneousLagrangian, xs: np.ndarray, targets: np.ndarray, c: np.ndarray,
                 delta: np.ndarray, f0: np.ndarray):
    """Per row, the first step of 1, 1/2, ..., 2^-39 along delta that lowers |F|^2 below f0.

    The full step is tried for every row at once, then all the halvings of
    the rows that rejected it.  Returns (moved, c, level, gradient), the
    last three for the rows that moved only.
    """

    def trial(cand, tgt):
        level, g = _level_gradient(L, xs, cand)
        F = level[:, None] * g - tgt
        return level, g, _reduce(np.add, F * F, axis=-1)

    c_new = c + delta
    level, g, f = trial(c_new, targets)
    moved = f < f0
    if moved.all():
        return moved, c_new, level, g
    rest = np.flatnonzero(~moved)
    steps = (c[rest, None, :] + HALVINGS[:, None] * delta[rest, None, :]).reshape(-1, c.shape[1])
    level_h, g_h, f_h = trial(steps, np.repeat(targets[rest], HALVINGS.size, axis=0))
    passing = f_h.reshape(rest.size, HALVINGS.size) < f0[rest, None]
    found = passing.any(axis=1)
    pick = (np.arange(rest.size) * HALVINGS.size + passing.argmax(axis=1))[found]
    rest = rest[found]
    c_new[rest], level[rest], g[rest] = steps[pick], level_h[pick], g_h[pick]
    moved[rest] = True
    return moved, c_new[moved], level[moved], g[moved]


def _radial_solve(L: HomogeneousLagrangian, x: np.ndarray, targets: np.ndarray):
    """Yield _radial_block's (radius, solution) for each block of RADIAL_BLOCK // C(n,p) rows, in order.

    A block's Newton arrays go with its call, and a caller keeps only the
    parts it reads.
    """
    rows = max(1, RADIAL_BLOCK // L.fiber_dim)
    for start in range(0, len(targets), rows):
        yield _radial_block(L, x, targets[start:start + rows])


def _radial_block(L: HomogeneousLagrangian, x: np.ndarray, targets: np.ndarray):
    """Solve grad(L^2/2)(y) = target for every row by damped Newton; return (L(y*), y* / L(y*)).

    L(y*) is the radial coordinate of the target relative to the image
    surface: below 1 means inside the image of the unit ball.  Both are NaN
    in a row whose solve failed: it could not be seeded from the target
    direction (a target off the chart of L cannot), its Jacobian was
    singular, its line search stalled, it stalled, it did not converge
    within 100 iterations, or y* / L(y*) missed the confirmation, a gradient
    within 1e-6 of target / L(y*).  A row stalls when STALL_WINDOW
    consecutive iterations pass without its |F|^2 falling to half of its
    mark, the value at its last halving (the first value to begin with);
    rows that converge are harvested before stalled rows are dropped.
    """
    radius = np.full(len(targets), np.nan)
    solution = np.full(targets.shape, np.nan)
    # one view of the base point serves every batch, the halvings of all rows included
    xs = np.broadcast_to(x, (len(targets) * HALVINGS.size, x.size))
    norm_t = np.linalg.norm(targets, axis=-1)
    seeded = L._on_chart(targets)
    seed_level = np.zeros(len(targets))
    seed_level[seeded] = np.abs(L.value_many(x, targets[seeded]))
    rows = np.flatnonzero(seed_level > 1e-12 * np.maximum(1.0, norm_t))
    c = targets[rows] / seed_level[rows, None]  # start on the unit level of |L|
    level, g = _level_gradient(L, xs, c)
    mark = np.full(len(targets), np.inf)  # |F|^2 of each row at its last halving
    stalled = np.zeros(len(targets), dtype=int)  # iterations since then
    for _ in range(100):
        F = level[:, None] * g - targets[rows]
        f = _reduce(np.add, F * F, axis=-1)  # np.linalg.norm squares and sums in the same order
        done = np.sqrt(f) <= 1e-11 * np.maximum(1.0, norm_t[rows])
        if done.any():
            radius[rows[done]], solution[rows[done]] = level[done], c[done]
        halved = f <= 0.5 * mark[rows]
        mark[rows[halved]] = f[halved]
        stalled[rows] = np.where(halved, 0, stalled[rows] + 1)
        live = ~done & (stalled[rows] < STALL_WINDOW)
        if not live.all():
            rows, c, level, g, F, f = rows[live], c[live], level[live], g[live], F[live], f[live]
        if rows.size == 0:
            break
        # rows that reach here have a finite level, so they are off the zero section
        J = g[:, :, None] * g[:, None, :] + level[:, None, None] * L._jet(xs[: rows.size], c, 2)[2]
        delta, solved = _solve_stack(J, -F)
        if not solved.all():
            rows, c, delta, f = rows[solved], c[solved], delta[solved], f[solved]
        moved, c, level, g = _line_search(L, xs, targets[rows], c, delta, f)
        rows = rows[moved]
    # the confirmation takes the level at each solution as its radius, so it evaluates no further value
    ok = radius > 1e-12 * np.maximum(1.0, np.linalg.norm(solution, axis=-1))
    solution[ok] /= radius[ok, None]
    residual = L.gradient_many(x, solution[ok]) - targets[ok] / radius[ok, None]
    ok[ok] = np.sqrt(_reduce(np.add, residual * residual, axis=-1)) <= 1e-6
    radius[~ok], solution[~ok] = np.nan, np.nan
    return radius, solution


def convexity_certificate(
    L: HomogeneousLagrangian,
    x: np.ndarray,
    num_pairs: int = 100,
    t_steps: int = 5,
    seed: int = 0,
    tol: float = 1e-7,
) -> ConvexityCertificate:
    """Sample image-point pairs and check their segments against the image body.

    For each pair and each t on a uniform grid, one radial solve of every
    segment point rescales it onto the image surface along its ray and
    confirms the preimage of the rescaled point, and the radial excess is
    recorded; a nondegenerate Lagrangian keeps every excess at numerical
    zero or below.  Raises ValueError for fewer than one pair or three
    steps, which would check no point inside a segment, and for a NaN or
    negative tol.
    """
    _check_tolerance(tol, "tol")
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be at least 1, got {num_pairs}")
    if t_steps < 3:
        raise ValueError(f"t_steps must be at least 3, got {t_steps}")
    x = np.asarray(x, dtype=float)
    grads = image_coordinates(L, x, 2 * num_pairs, seed)[1]
    ts = np.linspace(0.0, 1.0, t_steps)[None, :, None]
    targets = (ts * grads[0::2, None, :] + (1.0 - ts) * grads[1::2, None, :]).reshape(-1, L.fiber_dim)
    targets = targets[np.linalg.norm(targets, axis=-1) >= 1e-12]  # the origin is interior
    radius = np.concatenate([r for r, _ in _radial_solve(L, x, targets)])
    confirmed = radius[~np.isnan(radius)]
    failures = len(radius) - confirmed.size
    worst = float(np.max(confirmed)) - 1.0 if confirmed.size else 0.0
    if failures:
        worst = max(worst, 1.0)
    return ConvexityCertificate(
        passed=bool(worst <= tol),
        num_segment_checks=num_pairs * t_steps,
        worst_violation=float(worst),
        sample_seed=seed,
        tolerance=tol,
        num_failures=failures,
    )


def write_image_csv(x: np.ndarray, grads: np.ndarray, p: int, stream: IO[str]) -> None:
    """One row per image point: the base point x (n,), then its row of grads (count, C(n,p)).

    The header is the labels of TotalSpaceChart(n, p); count = 0 writes it
    alone.  Each field is the repr of a float, which needs no CSV quoting,
    and lines end in "\\r\\n" as in the csv module's default dialect.
    """
    x, grads = np.asarray(x, dtype=float), np.asarray(grads, dtype=float)
    n = x.size
    if grads.ndim != 2 or grads.shape[1] != math.comb(n, p):
        raise ValueError(f"expected gradient rows of shape (count, {math.comb(n, p)}), got {grads.shape}")
    stream.write(",".join(TotalSpaceChart(n, p).labels) + "\r\n")
    base = "".join(f"{v!r}," for v in x.tolist())
    stream.writelines(base + ",".join(map(repr, row)) + "\r\n" for row in grads.tolist())
