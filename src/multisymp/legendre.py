"""Fiberwise Legendre transform, its image hypersurface, and convexity checks.

For a degree-1 homogeneous Lagrangian the gradient map y -> dL/dy is
homogeneous of degree 0, so it factors through oriented classes and its image
is a codimension-1 set in the dual fiber.  This module maps to the image,
inverts on the unit level set {L = 1}, samples the image, checks the rank
splitting between the Hessians of L^2 and L, and certifies (by sampling)
that segments between image points stay inside the image of the unit ball.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import InversionError, NotInImageError, ZeroSectionError
from .exterior import GrassmannPoint, KCovector, KVector, multi_indices
from .lagrangian import HomogeneousLagrangian, fiber_rows

__all__ = [
    "LegendreImagePoint",
    "LevelSetSampler",
    "RankReport",
    "ConvexityCertificate",
    "legendre_map",
    "hamiltonian",
    "inverse_legendre",
    "image_coordinates",
    "sample_image",
    "rank_lemma_check",
    "convexity_certificate",
    "write_image_csv",
]


@dataclass(frozen=True)
class LegendreImagePoint:
    """Dual-fiber point (x, dL/dy(x, y)) together with the oriented source class."""

    x: np.ndarray
    p: KCovector
    source_class: GrassmannPoint


def legendre_map(L: HomogeneousLagrangian, x: np.ndarray, y: KVector) -> LegendreImagePoint:
    """Map (x, y) to (x, dL/dy(x, y)); invariant under positive rescaling of y."""
    x = np.asarray(x, dtype=float)
    grad = L.gradient(x, y)
    return LegendreImagePoint(x=x, p=grad, source_class=GrassmannPoint(y, check=False))


def hamiltonian(
    L: HomogeneousLagrangian, x: np.ndarray, p: KCovector | np.ndarray, y: KVector | np.ndarray
) -> float | np.ndarray:
    """<p, y> - L(x, y); vanishes when p is the gradient image of y.

    A KCovector p and KVector y give a float; dual rows p and fiber rows y,
    both (N, C(n,p)), give one value per row.
    """
    xs, cs = fiber_rows(L, x, y)
    dual = p.coords if isinstance(p, KCovector) else np.asarray(p, dtype=float)
    # vecdot is the BLAS dot of pair(), row by row
    value = np.vecdot(dual, cs) - L.value_many(xs, cs)
    return float(value[0]) if isinstance(y, KVector) else value


def _normalize_to_level(L: HomogeneousLagrangian, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rescale coordinates onto {L = 1}; the level value must be positive."""
    level = float(L.value_fn(x[None], c[None])[0])
    if not level > 1e-12 * max(1.0, float(np.linalg.norm(c))):
        raise InversionError("iterate collapsed toward the zero section")
    return c / level


def inverse_legendre(
    L: HomogeneousLagrangian,
    x: np.ndarray,
    p: KCovector,
    tol: float = 1e-8,
    max_iter: int = 200,
    initial: KVector | None = None,
) -> GrassmannPoint:
    """Solve dL/dy(x, y) = p for the oriented class [y], normalized to L = 1.

    Projected descent on |dL/dy - p|^2 over the level set {L = 1},
    renormalizing after every step.  Each iteration first tries the
    Gauss-Newton direction of the gradient equation and falls back to the
    steepest-descent direction with a backtracking line search; plain
    gradient steps alone stall well above desk tolerances for anisotropic
    fibers.  Raises NotInImageError when the residual cannot be brought
    below tol, which is the no-solution signal for targets off the image.
    """
    x = np.asarray(x, dtype=float)
    if (p.n, p.p) != (L.n, L.p):
        raise ValueError("covector shape does not match the Lagrangian fiber")
    if initial is not None:
        c = _normalize_to_level(L, x, initial.coords.copy())
    else:
        guess = p.coords.copy()
        if not np.any(guess):
            raise ZeroSectionError("target covector is zero")
        c = _normalize_to_level(L, x, guess)

    def residual(cc: np.ndarray) -> np.ndarray:
        return np.asarray(L.gradient(x, KVector(L.n, L.p, cc)).coords) - p.coords

    def advance(cc: np.ndarray, direction: np.ndarray, f_now: float, required_drop: float):
        step = 1.0
        while step > 1e-14:
            try:
                candidate = _normalize_to_level(L, x, cc + step * direction)
                r_new = residual(candidate)
            except (InversionError, ValueError):
                step *= 0.5
                continue
            f_new = float(r_new @ r_new)
            if f_new <= f_now - step * required_drop:
                return candidate, r_new, f_new
            step *= 0.5
        return None

    r = residual(c)
    f = float(r @ r)
    for _ in range(max_iter):
        if np.sqrt(f) <= tol:
            return GrassmannPoint(KVector(L.n, L.p, c), check=False)
        H = L.hessian(x, KVector(L.n, L.p, c))
        moved = None
        # Gauss-Newton direction; H is singular along the ray, so least squares
        gn = np.linalg.lstsq(H, -r, rcond=1e-12)[0]
        if np.all(np.isfinite(gn)) and gn @ (H @ r) < 0.0:
            moved = advance(c, gn, f, 0.0)
        if moved is None:
            grad_f = 2.0 * (H @ r)  # orthogonal to c since H c = 0
            slope = float(grad_f @ grad_f)
            if slope == 0.0:
                break  # stationary away from the solution: target off the image
            moved = advance(c, -grad_f, f, 1e-4 * slope)
            if moved is None:
                break
        c, r, f = moved
    if np.sqrt(f) <= tol:
        return GrassmannPoint(KVector(L.n, L.p, c), check=False)
    raise NotInImageError(
        f"no preimage within tolerance: residual {np.sqrt(f):.3e} > {tol:.1e}"
    )


@dataclass(frozen=True)
class LevelSetSampler:
    """Draws fiber points on the unit level set {L = 1} or in the ball {L <= 1}."""

    L: HomogeneousLagrangian
    x: np.ndarray
    mode: str = "sphere"

    def __post_init__(self):
        if self.mode not in ("sphere", "ball"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))

    def sample(self, count: int, seed: int | np.random.Generator = 0) -> list[KVector]:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return [KVector(self.L.n, self.L.p, c) for c in self._draw(count, rng)]

    def _draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Fiber coordinates of shape (count, C(n,p)), one row per sample.

        Directions are drawn in blocks; a rejected direction is replaced by
        the next draws of the stream, so sphere-mode rows are the ones a
        direction-by-direction loop would accept.  Ball-mode radial factors
        are drawn after all the directions.
        """
        dim = self.L.fiber_dim
        accepted = []
        need = count
        while need > 0:
            directions = rng.standard_normal((need, dim))
            norms = np.linalg.norm(directions, axis=-1)
            keep = norms >= 1e-12
            levels = np.zeros(need)
            xs = np.broadcast_to(self.x, (int(keep.sum()), self.x.size))
            levels[keep] = self.L.value_many(xs, directions[keep])
            keep &= levels > 1e-9 * norms
            accepted.append(directions[keep] / levels[keep, None])
            need -= int(keep.sum())
        rows = np.concatenate(accepted) if accepted else np.empty((0, dim))
        if self.mode == "ball":
            rows *= (rng.uniform(size=count) ** (1.0 / dim))[:, None]
        return rows


def image_coordinates(
    L: HomogeneousLagrangian, x: np.ndarray, count: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-level fiber rows of uniformly random directions and their gradient images.

    Both have shape (count, C(n,p)); deterministic per seed.
    """
    x = np.asarray(x, dtype=float)
    rows = LevelSetSampler(L, x, mode="sphere")._draw(count, np.random.default_rng(seed))
    return rows, L.gradient_many(np.broadcast_to(x, (count, x.size)), rows)


def sample_image(
    L: HomogeneousLagrangian, x: np.ndarray, count: int, seed: int = 0
) -> list[LegendreImagePoint]:
    """Image points of uniformly random unit-level directions; deterministic per seed."""
    x = np.asarray(x, dtype=float)
    rows, grads = image_coordinates(L, x, count, seed)
    return [
        LegendreImagePoint(x, KCovector(L.n, L.p, g), GrassmannPoint(KVector(L.n, L.p, c), check=False))
        for c, g in zip(rows, grads)
    ]


@dataclass(frozen=True)
class RankReport:
    """Numerical ranks of the fiber Hessians of L^2 and L at one fiber point, or per fiber row."""

    rank_L2: int
    rank_L: int
    singular_values_L2: tuple[float, ...]
    singular_values_L: tuple[float, ...]
    threshold: float

    @property
    def splitting_holds(self) -> bool:
        return self.rank_L2 == 1 + self.rank_L


def rank_lemma_check(
    L: HomogeneousLagrangian, x: np.ndarray, y: KVector | np.ndarray, threshold: float = 1e-8
) -> RankReport:
    """Rank of Hess(L^2) versus 1 + rank(Hess L), by singular values above threshold*sigma_max.

    A KVector y gives integer ranks and tuples of singular values.  Fiber rows
    (N, C(n,p)) give rank arrays (N,) and singular values (N, C(n,p)), from
    one hessian_many call and one stacked SVD.
    """
    xs, cs = fiber_rows(L, x, y)
    g = L.gradient_many(xs, cs)
    H = L.hessian_many(xs, cs)
    # Hess(L^2) = 2 (g g^T + L H), exact given exact g and H
    H2 = 2.0 * (g[:, :, None] * g[:, None, :] + L.value_many(xs, cs)[:, None, None] * H)
    svals = np.linalg.svd(np.stack([H2, H]), compute_uv=False)
    top = svals[..., :1]
    ranks = np.where(top[..., 0] > 0.0, np.sum(svals > threshold * top, axis=-1), 0)
    if isinstance(y, KVector):
        return RankReport(int(ranks[0, 0]), int(ranks[1, 0]), tuple(svals[0, 0].tolist()),
                          tuple(svals[1, 0].tolist()), threshold)
    return RankReport(ranks[0], ranks[1], svals[0], svals[1], threshold)


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampled evidence that segments between image points stay inside the image body.

    ``worst_violation`` is the largest radial excess of a segment point over
    the image surface along its own ray, in units of the surface radius;
    failed inversions are recorded separately and count as violations.
    """

    passed: bool
    num_segment_checks: int
    worst_violation: float
    sample_seed: int
    tolerance: float
    num_failures: int = 0


# Target rows solved together: bounds the working set of the batched radial solve.
RADIAL_BLOCK = 256
# Line-search steps after the full one: 2^-1 .. 2^-39, every step above 1e-12.
HALVINGS = np.ldexp(1.0, -np.arange(1, 40))


def _level_gradient(L: HomogeneousLagrangian, x: np.ndarray, cs: np.ndarray):
    """L and dL/dy at each row of cs, NaN in the rows a KVector or KCovector would reject.

    Those are rows that are non-finite or zero, rows with a non-finite
    gradient, and rows where L raises ValueError (a chart violation raises
    for the whole batch, so the batch is then retried row by row).
    """
    levels = np.full(len(cs), np.nan)
    grads = np.full(cs.shape, np.nan)

    def fill(rows):
        xs = np.broadcast_to(x, (rows.size, x.size))
        g = L.gradient_many(xs, cs[rows])
        levels[rows], grads[rows] = L.value_many(xs, cs[rows]), g

    rows = np.flatnonzero(np.all(np.isfinite(cs), axis=-1) & np.any(cs != 0.0, axis=-1))
    try:
        fill(rows)
    except ValueError:
        for row in rows:
            try:
                fill(np.array([row]))
            except ValueError:
                pass
    bad = ~np.all(np.isfinite(grads), axis=-1)
    levels[bad] = np.nan
    grads[bad] = np.nan
    return levels, grads


def _solve_stack(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J delta = rhs per row; also returns which rows LAPACK could solve."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:  # raised for the whole stack: find the singular rows
        delta = np.zeros_like(rhs)
        solved = np.ones(len(J), dtype=bool)
        for k in range(len(J)):
            try:
                delta[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return delta, solved


def _line_search(L: HomogeneousLagrangian, x: np.ndarray, targets: np.ndarray, c: np.ndarray,
                 delta: np.ndarray, f0: np.ndarray):
    """Per row, the first step of 1, 1/2, ..., 2^-39 along delta that lowers |F|^2 below f0.

    The full step is tried for every row at once, then all the halvings of
    the rows that rejected it.  Returns (moved, c, level, gradient), the
    last three for the rows that moved only.
    """

    def trial(cand, tgt):
        level, g = _level_gradient(L, x, cand)
        F = level[:, None] * g - tgt
        return level, g, np.sum(F * F, axis=-1)

    c_new = c + delta
    level, g, f = trial(c_new, targets)
    moved = f < f0
    rest = np.flatnonzero(~moved)
    if rest.size:
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
    """Solve grad(L^2/2)(y) = target for every row by damped Newton; return (L(y*), y*).

    L(y*) is the radial coordinate of the target relative to the image
    surface: below 1 means inside the image of the unit ball.  Both are NaN
    in a row whose solve failed: it could not be seeded from the target
    direction, its Jacobian was singular, its line search stalled, or it did
    not converge within 100 iterations.
    """
    radius = np.full(len(targets), np.nan)
    solution = np.full(targets.shape, np.nan)
    xs = np.broadcast_to(x, (len(targets), x.size))
    norm_t = np.linalg.norm(targets, axis=-1)
    seed_level = np.abs(L.value_many(xs, targets))
    rows = np.flatnonzero(seed_level > 1e-12 * np.maximum(1.0, norm_t))
    c = targets[rows] / seed_level[rows, None]  # start on the unit level of |L|
    level, g = _level_gradient(L, x, c)
    for _ in range(100):
        F = level[:, None] * g - targets[rows]
        done = np.linalg.norm(F, axis=-1) <= 1e-11 * np.maximum(1.0, norm_t[rows])
        radius[rows[done]], solution[rows[done]] = level[done], c[done]
        live = ~done
        rows, c, level, g, F = rows[live], c[live], level[live], g[live], F[live]
        if rows.size == 0:
            break
        J = g[:, :, None] * g[:, None, :] + level[:, None, None] * L.hessian_many(xs[: rows.size], c)
        delta, solved = _solve_stack(J, -F)
        rows, c, delta, F = rows[solved], c[solved], delta[solved], F[solved]
        moved, c, level, g = _line_search(L, x, targets[rows], c, delta, np.sum(F * F, axis=-1))
        rows = rows[moved]
    return radius, solution


def _confirmed(L: HomogeneousLagrangian, x: np.ndarray, targets: np.ndarray, radius: np.ndarray,
               solution: np.ndarray) -> np.ndarray:
    """Whether each target, rescaled onto the image surface by its radius, has a preimage within 1e-6.

    One batched step normalizes every solution onto {L = 1} and measures its
    gradient residual against the rescaled target; only the rows left above
    1e-6 go through the inverse_legendre descent.
    """
    surface = targets / radius[:, None]
    xs = np.broadcast_to(x, (len(targets), x.size))
    level = L.value_many(xs, solution)
    ok = level > 1e-12 * np.maximum(1.0, np.linalg.norm(solution, axis=-1))
    residual = L.gradient_many(xs[: int(ok.sum())], solution[ok] / level[ok, None]) - surface[ok]
    confirmed = np.zeros(len(targets), dtype=bool)
    confirmed[ok] = np.sqrt(np.sum(residual * residual, axis=-1)) <= 1e-6
    for k in np.flatnonzero(~confirmed):
        try:
            inverse_legendre(L, x, KCovector(L.n, L.p, surface[k]), tol=1e-6,
                             initial=KVector(L.n, L.p, solution[k]))
        except InversionError:
            continue
        confirmed[k] = True
    return confirmed


def convexity_certificate(
    L: HomogeneousLagrangian,
    x: np.ndarray,
    num_pairs: int = 100,
    t_steps: int = 5,
    seed: int = 0,
    tol: float = 1e-7,
) -> ConvexityCertificate:
    """Sample image-point pairs and check their segments against the image body.

    For each pair and each t on a uniform grid, the segment point is rescaled
    onto the image surface along its ray (confirmed through inverse_legendre)
    and the radial excess is recorded; a nondegenerate Lagrangian keeps every
    excess at numerical zero or below.  All segment points are solved
    together, RADIAL_BLOCK rows at a time.
    """
    x = np.asarray(x, dtype=float)
    ends = LevelSetSampler(L, x, mode="sphere")._draw(2 * num_pairs, np.random.default_rng(seed))
    grads = L.gradient_many(np.broadcast_to(x, (len(ends), x.size)), ends)
    ts = np.linspace(0.0, 1.0, t_steps)[None, :, None]
    targets = (ts * grads[0::2, None, :] + (1.0 - ts) * grads[1::2, None, :]).reshape(-1, L.fiber_dim)
    targets = targets[np.linalg.norm(targets, axis=-1) >= 1e-12]  # the origin is interior
    worst = -np.inf
    failures = 0
    for start in range(0, len(targets), RADIAL_BLOCK):
        block = targets[start:start + RADIAL_BLOCK]
        radius, solution = _radial_solve(L, x, block)
        solved = np.flatnonzero(np.isfinite(radius))
        confirmed = solved[_confirmed(L, x, block[solved], radius[solved], solution[solved])]
        failures += len(block) - confirmed.size
        if confirmed.size:
            worst = max(worst, float(np.max(radius[confirmed])) - 1.0)
    if failures:
        worst = max(worst, 1.0)
    if not np.isfinite(worst):
        worst = 0.0
    return ConvexityCertificate(
        passed=bool(worst <= tol),
        num_segment_checks=num_pairs * t_steps,
        worst_violation=float(worst),
        sample_seed=seed,
        tolerance=tol,
        num_failures=failures,
    )


def write_image_csv(
    points: Sequence[LegendreImagePoint], stream: IO[str], n: int | None = None, p: int | None = None
) -> None:
    """One row per image point: base coordinates, then dual coordinates in index order.

    Dimensions are inferred from the points; pass them explicitly to write a
    header-only file for an empty cloud.
    """
    if points:
        n, p = points[0].p.n, points[0].p.p
    elif n is None or p is None:
        raise ValueError("an empty cloud needs explicit dimensions for the header")
    writer = csv.writer(stream)
    header = [f"x{k}" for k in range(1, n + 1)]
    header += ["p" + "".join(map(str, axes)) for axes in multi_indices(n, p)]
    writer.writerow(header)
    for pt in points:
        writer.writerow([repr(float(v)) for v in pt.x] + [repr(float(v)) for v in pt.p.coords])
