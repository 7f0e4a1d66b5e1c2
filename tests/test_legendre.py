"""Legendre transform, image sampling, rank splitting, convexity certification."""

import csv
import io
import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from multisymp import (
    HomogeneousLagrangian,
    InversionError,
    NotInImageError,
    OrientationError,
    ZeroSectionError,
    area_lagrangian,
    convexity_certificate,
    decomposable_rows,
    ellipsoid_lagrangian,
    geometric_mean_lagrangian,
    graph_lift,
    hamiltonian,
    inverse_legendre,
    minimal_surface_density,
    multi_indices,
    projected_volume_lagrangian,
    rank_lemma_check,
    write_image_csv,
)
from multisymp.cli import build_lagrangian, main
from multisymp.legendre import (STALL_WINDOW, _level_gradient, _level_rows, _radial_block, _solve_stack,
                                image_coordinates)

from helpers import conformal_area, cyclic_row
from oracles import lagrangian_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_sample(L, x, count, rng):
    """Direction-by-direction level-set sampling, rows (count, C(n,p)): the stream the block sampler must keep."""
    out = []
    while len(out) < count:
        direction = rng.standard_normal(L.fiber_dim)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        level = L.value_many(x, direction[None])[0]
        if not level > 1e-9 * norm:
            continue
        out.append(direction / level)
    return np.array(out).reshape(count, L.fiber_dim)


def reference_sample_image(L, x, count, seed):
    """Sampled unit-level rows and their gradient images, one sampled direction at a time."""
    rows = reference_sample(L, x, count, np.random.default_rng(seed))
    return rows, np.array([L.gradient_many(x, y[None])[0] for y in rows]).reshape(rows.shape)


def same_classes(a, b):
    """Largest distance between the unit rows of a and b: zero where the rows are positively proportional."""
    def unit(rows):
        return rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    return float(np.max(np.linalg.norm(unit(a) - unit(b), axis=-1)))


def _normalize_to_level(L, x, c):
    """Rescale coordinates onto {L = 1}; the level value must be positive."""
    level = float(L.jet_fn(x[None], c[None], 0)[0][0])
    if not level > 1e-12 * max(1.0, float(np.linalg.norm(c))):
        raise InversionError("iterate collapsed toward the zero section")
    return c / level


def reference_inverse_legendre(L, x, p, tol=1e-8, max_iter=200, initial=None):
    """Projected descent on |dL/dy - p|^2 over the level set {L = 1}, renormalizing after every step.

    ``p`` is one dual row (C(n,p),), ``initial`` one fiber row or None, and
    the result is one fiber row on {L = 1}.  Each iteration first tries the
    Gauss-Newton direction of the gradient equation and falls back to the
    steepest-descent direction with a backtracking line search.  Raises
    NotInImageError when the residual cannot be brought below tol.
    """
    x = np.asarray(x, dtype=float)
    if initial is not None:
        c = _normalize_to_level(L, x, initial.copy())
    else:
        if not np.any(p):
            raise ZeroSectionError("target covector is zero")
        c = _normalize_to_level(L, x, p.copy())

    def residual(cc):
        return L.gradient_many(x, cc[None])[0] - p

    def advance(cc, direction, f_now, required_drop):
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
            return c
        H = L.hessian_many(x, c[None])[0]
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
        return c
    raise NotInImageError(f"no preimage within tolerance: residual {np.sqrt(f):.3e} > {tol:.1e}")


def reference_radial_excess(L, x, target):
    """Per-target damped Newton on grad(L^2/2)(y) = target; returns (L(y*), y*).

    It gives up once STALL_WINDOW consecutive iterations pass without |F|^2
    falling to half of its value at the last halving (the first value to
    begin with), as the batched solve does.  A step to a non-finite row
    reads a non-finite |F|^2, so its line search halves it.
    """
    norm_t = float(np.linalg.norm(target))
    c = target.copy()
    level = float(L.value_many(x[None], c[None])[0])
    if not abs(level) > 1e-12 * max(1.0, norm_t):
        raise InversionError("cannot seed the radial solve from the target direction")
    c = c / abs(level)
    mark, stalled = np.inf, 0
    for _ in range(100):
        g = L.gradient_many(x, c[None])[0]
        level = L.value_many(x, c[None])[0]
        F = level * g - target
        if np.linalg.norm(F) <= 1e-11 * max(1.0, norm_t):
            return level, c
        f = float(F @ F)
        if f <= 0.5 * mark:
            mark, stalled = f, 0
        else:
            stalled += 1
        if stalled >= STALL_WINDOW:
            raise InversionError(f"radial solve stalled: |F|^2 did not halve in {STALL_WINDOW} iterations")
        J = np.outer(g, g) + level * L.hessian_many(x, c[None])[0]
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise InversionError("singular Jacobian in the radial solve") from exc
        t = 1.0
        f0 = float(F @ F)
        while t > 1e-12:
            c_new = c + t * delta
            try:
                g_new = L.gradient_many(x, c_new[None])[0]
                level_new = L.value_many(x, c_new[None])[0]
            except ValueError:  # the zero section or a row off the chart
                t *= 0.5
                continue
            F_new = level_new * g_new - target
            if float(F_new @ F_new) < f0:
                c = c_new
                break
            t *= 0.5
        else:
            raise InversionError("radial solve stalled")
    raise InversionError("radial solve did not converge")


def reference_certificate(L, x, num_pairs, t_steps, seed, tol=1e-7):
    """One target at a time: radial solve, then the reference descent on the rescaled target."""
    rng = np.random.default_rng(seed)
    worst, failures = -np.inf, 0
    for _ in range(num_pairs):
        y0, y1 = reference_sample(L, x, 2, rng)
        p0, p1 = L.gradient_many(x, y0[None])[0], L.gradient_many(x, y1[None])[0]
        for t in np.linspace(0.0, 1.0, t_steps):
            target = t * p0 + (1.0 - t) * p1
            if np.linalg.norm(target) < 1e-12:
                continue
            try:
                radius, c_star = reference_radial_excess(L, x, target)
                reference_inverse_legendre(L, x, target / radius, tol=1e-6, initial=c_star)
            except InversionError:
                failures += 1
                worst = max(worst, 1.0)
                continue
            worst = max(worst, radius - 1.0)
    worst = worst if np.isfinite(worst) else 0.0
    return worst <= tol, num_pairs * t_steps, failures, worst


def certificate_cases():
    """(shape, name, t_steps, seed, num_pairs) of the per-target reference comparison."""
    for seed, t_steps, name, (n, p) in itertools.product(
            [0, 1, 2], [3, 5], ["area", "ellipsoid", "geometric_mean"], [(3, 2), (4, 2), (5, 3)]):
        yield pytest.param((n, p), name, t_steps, seed, 4, id=f"{seed}-{t_steps}-{name}-{n}{p}")
    # rows that the stall rule gives up on: 16 failures, and 15 without the rule
    yield pytest.param((3, 2), "geometric_mean", 5, 1, 20, id="1-5-geometric_mean-32-20pairs")


def reference_level_gradient(L, x, cs):
    """Masked evaluation with the public guards: the valid rows in one gathered batch, then row by row."""
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


def reference_write_image_csv(x, grads, p, stream):
    """The csv module's writer, one row per image point: the byte reference."""
    writer = csv.writer(stream)
    header = [f"x{k}" for k in range(1, len(x) + 1)]
    header += ["p" + "".join(map(str, axes)) for axes in multi_indices(len(x), p)]
    writer.writerow(header)
    for g in grads:
        writer.writerow([repr(float(v)) for v in x] + [repr(float(v)) for v in g])


class TestLegendreMap:
    """The Legendre map y -> dL/dy(x, y) of fiber rows, which gradient_many computes."""

    def test_area_example(self, x3, area3):
        p = area3.gradient_many(x3, cyclic_row(3.0, 4.0, 0.0))
        assert p == pytest.approx(cyclic_row(0.6, 0.8, 0.0), abs=1e-15)

    def test_degree_zero(self, x3, area3):
        y = cyclic_row(3.0, 4.0, 0.0)
        assert np.array_equal(area3.gradient_many(x3, y), area3.gradient_many(x3, 7.0 * y))

    def test_ellipsoid_basis_direction(self, x3, ellipsoid3):
        assert ellipsoid3.gradient_many(x3, np.array([[1.0, 0.0, 0.0]])).tolist() == [[1.0, 0.0, 0.0]]

    def test_degree_zero_tight(self, x3, rng):
        lifts = [
            area_lagrangian(3, 2),
            ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0]),
            graph_lift(minimal_surface_density(3, 2)),
        ]
        for L in lifts:
            ys = decomposable_rows(rng, 3, 2, 20, 0, 0.3)
            base = L.gradient_many(x3, ys)
            for lam in (0.5, 2.0, 100.0):
                assert np.max(np.abs(L.gradient_many(x3, lam * ys) - base)) <= 1e-10

    def test_zero_section(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            area3.gradient_many(x3, np.zeros((1, 3)))


class TestHamiltonian:
    def test_vanishes_on_image(self, x3, area3):
        y = cyclic_row(3.0, 4.0, 0.0)
        assert hamiltonian(area3, x3, area3.gradient_many(x3, y), y)[0] == pytest.approx(0.0, abs=1e-12)

    def test_direct_arithmetic(self, x3, area3):
        value = hamiltonian(area3, x3, cyclic_row(1.0, 0.0, 0.0), cyclic_row(3.0, 4.0, 0.0))
        assert value[0] == pytest.approx(-2.0, abs=1e-14)

    def test_vanishes_for_rescaled_preimage(self, x3, ellipsoid3, rng):
        ys = decomposable_rows(rng, 3, 2, 20)
        scale = np.maximum(1.0, np.abs(ellipsoid3.value_many(x3, ys)))
        for lam in (0.5, 3.0):
            p = ellipsoid3.gradient_many(x3, lam * ys)
            assert np.all(np.abs(hamiltonian(ellipsoid3, x3, p, ys)) <= 1e-9 * scale)

    def test_vanishing_invariant_all_builtins(self, x3, rng):
        lifts = [
            area_lagrangian(3, 2),
            ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0]),
            graph_lift(minimal_surface_density(3, 2)),
        ]
        for L in lifts:
            ys = decomposable_rows(rng, 3, 2, 100, 0, 0.3)
            p = L.gradient_many(x3, ys)
            assert np.all(np.abs(hamiltonian(L, x3, p, ys)) <= 1e-9 * np.maximum(1.0, np.abs(L.value_many(x3, ys))))

    def test_shapes_are_checked(self, x3, area3):
        rows = np.ones((2, 3))
        with pytest.raises(ValueError, match=r"fiber rows \(N, 3\), got \(3,\) and \(\)"):
            hamiltonian(area3, x3, rows[:1], object())  # a fiber object that is no array reads as 0-d
        with pytest.raises(ValueError, match=r"dual rows of the fiber rows' shape \(2, 3\), got \(\)"):
            hamiltonian(area3, x3, object(), rows)
        with pytest.raises(ValueError, match=r"dual rows of the fiber rows' shape \(2, 3\), got \(3,\)"):
            hamiltonian(area3, x3, np.ones(3), rows)  # one dual row for two fiber rows is not broadcast


class TestInverseLegendre:
    def test_area_example(self, x3, area3):
        got = inverse_legendre(area3, x3, cyclic_row(0.6, 0.8, 0.0))
        assert got.shape == (1, 3)
        assert same_classes(got, cyclic_row(3.0, 4.0, 0.0)) <= 1e-7
        # normalized onto the unit level set
        assert area3.value_many(x3, got)[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("weights", [None, [1.0, 4.0, 9.0]])
    def test_roundtrip(self, x3, rng, weights):
        L = area_lagrangian(3, 2) if weights is None else ellipsoid_lagrangian(3, 2, weights)
        ys = decomposable_rows(rng, 3, 2, 50)
        recovered = inverse_legendre(L, x3, L.gradient_many(x3, ys))
        assert recovered.shape == ys.shape
        assert same_classes(recovered, ys) <= 1e-7

    def test_off_image_no_solution(self, x3, area3):
        with pytest.raises(NotInImageError, match="row 0"):
            inverse_legendre(area3, x3, cyclic_row(2.0, 0.0, 0.0))

    def test_off_image_row_is_named(self, x3, area3):
        targets = np.concatenate([cyclic_row(0.6, 0.8, 0.0), cyclic_row(0.0, 1.0, 0.0), cyclic_row(2.0, 0.0, 0.0)])
        with pytest.raises(NotInImageError, match="no preimage for row 2"):
            inverse_legendre(area3, x3, targets)

    def test_empty(self, x3, area3):
        # no block is solved, and the result keeps the fiber width
        assert inverse_legendre(area3, x3, np.empty((0, 3))).shape == (0, 3)

    def test_zero_target(self, x3, area3):
        with pytest.raises(ZeroSectionError, match="target row 1 is zero"):
            inverse_legendre(area3, x3, np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_is_bad_input(self, x3, area3, bad):
        # not a failed solve: the row is named before any solve runs
        targets = np.array([[0.6, 0.8, 0.0], [0.0, 1.0, 0.0], [bad, 1.0, 0.0], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="target row 2 is not finite") as raised:
            inverse_legendre(area3, x3, targets)
        assert not isinstance(raised.value, NotInImageError)

    def test_shapes_are_checked(self, x3, area3):
        for p, shape in ((object(), "()"), (0.6, "()"),
                         (np.array([0.6, 0.8, 0.0]), r"\(3,\)"), (np.ones((1, 6)), r"\(1, 6\)")):
            with pytest.raises(ValueError, match=rf"area takes dual rows \(N, 3\), got {shape}"):
                inverse_legendre(area3, x3, p)

    @pytest.mark.parametrize("shape", [(4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("name", ["area", "ellipsoid"])
    def test_roundtrip_matches_reference_descent(self, shape, name):
        n, p = shape
        L = lagrangian_at(name, n, p)
        x = np.random.default_rng(n * p).standard_normal(n)
        ys = decomposable_rows(np.random.default_rng(10 * n + p), n, p, 20)
        targets = L.gradient_many(x, ys)
        got = inverse_legendre(L, x, targets)
        assert same_classes(got, ys) <= 1e-7
        assert np.max(np.abs(L.value_many(x, got) - 1.0)) <= 1e-10
        for row, target in zip(got, targets):
            assert np.max(np.abs(row - reference_inverse_legendre(L, x, target))) <= 1e-7

    def test_off_image_no_solution_53(self):
        L = area_lagrangian(5, 3)
        with pytest.raises(NotInImageError):
            inverse_legendre(L, np.zeros(5), 2.0 * np.eye(10)[:1])

    def test_failed_solve_is_not_in_image(self, x3):
        # the geometric mean is 0 on a coordinate hyperplane, so the solve cannot be seeded there
        with pytest.raises(NotInImageError, match="row 0: the radial solve failed"):
            inverse_legendre(geometric_mean_lagrangian(), x3, np.array([[0.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("name, n, p", [("area", 3, 2), ("ellipsoid", 4, 2), ("area", 5, 3), ("ellipsoid", 5, 3)])
    def test_blocks_match_one_solve(self, name, n, p, monkeypatch):
        # 60 targets in blocks of 7 rows of C(n,p) entries: the split must not change a bit
        import multisymp.legendre as legendre

        L, x = lagrangian_at(name, n, p), np.random.default_rng(n * p).standard_normal(n)
        targets = image_coordinates(L, x, 60, seed=5)[1]
        whole = inverse_legendre(L, x, targets)
        sizes = []

        def counting(L, x, targets):
            sizes.append(len(targets))
            return _radial_block(L, x, targets)

        monkeypatch.setattr(legendre, "_radial_block", counting)
        monkeypatch.setattr(legendre, "RADIAL_BLOCK", 7 * L.fiber_dim)
        assert inverse_legendre(L, x, targets).tobytes() == whole.tobytes()
        assert sizes == [7] * 8 + [4]

    def test_working_set_is_bounded_per_block(self):
        # numpy registers its buffers with tracemalloc, so the peak counts bytes whatever the machine.  Solved in
        # blocks, 20,000 targets hold about 270 bytes a row at once, the full-length output and its check; one
        # Newton solve of every row at once held about 3,800
        count = 20_000
        L = lagrangian_at("ellipsoid", 5, 3)
        x = np.zeros(5)
        targets = image_coordinates(L, x, count, seed=1)[1]
        inverse_legendre(L, x, targets[:10])  # first calls fill the caches of the index layouts
        tracemalloc.start()
        try:
            rows = inverse_legendre(L, x, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == targets.shape
        assert peak < 1024 * count


class TestLevelSetSampler:
    """The private level-set row sampler behind image_coordinates and the certificate."""

    def test_sphere_mode_levels(self, x3, ellipsoid3):
        rows = _level_rows(ellipsoid3, x3, 200, np.random.default_rng(5))
        assert rows.shape == (200, 3)
        assert np.max(np.abs(ellipsoid3.value_many(np.zeros((200, 3)), rows) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("L", [
        projected_volume_lagrangian(3, 2),  # rejects about half of all directions
        projected_volume_lagrangian(4, 2),
        ellipsoid_lagrangian(5, 3, np.linspace(0.5, 3.0, 10)),
    ], ids=lambda L: f"{L.name}_{L.n}{L.p}")
    @pytest.mark.parametrize("seed", [0, 7, 20260811])
    def test_sphere_blocks_keep_the_stream(self, L, seed):
        x = np.zeros(L.n)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_sample(L, x, 40, ref_rng)
        got = _level_rows(L, x, 40, rng)
        assert np.array_equal(got, expected)
        assert rng.standard_normal() == ref_rng.standard_normal()  # no draw left over or missing

    @pytest.mark.time_limit(10)
    @pytest.mark.parametrize("count", [0, 1, 30])
    def test_rejecting_every_direction_raises(self, count):
        # L = 1e-10 |y| is below the 1e-9 |y| level floor in every direction
        L = ellipsoid_lagrangian(3, 2, [1e-20] * 3)
        if count == 0:
            assert _level_rows(L, np.zeros(3), 0, np.random.default_rng(0)).shape == (0, 3)
            return
        with pytest.raises(RuntimeError, match="rejected"):
            _level_rows(L, np.zeros(3), count, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="rejected"):
            convexity_certificate(L, np.zeros(3), num_pairs=count, t_steps=3)

    def test_negative_count_raises_naming_it(self, x3, area3):
        with pytest.raises(ValueError, match="count must be at least 0, got -3"):
            image_coordinates(area3, x3, -3)


class TestSampleImage:
    def test_area_image_is_unit_sphere(self, x3, area3):
        grads = image_coordinates(area3, x3, 500, seed=11)[1]
        assert grads.shape == (500, 3)
        assert np.max(np.abs(np.linalg.norm(grads, axis=-1) - 1.0)) <= 1e-10

    def test_ellipsoid_image_quadric(self, x3, ellipsoid3):
        w = np.array([1.0, 4.0, 9.0])
        grads = image_coordinates(ellipsoid3, x3, 500, seed=11)[1]
        assert np.max(np.abs(np.sum(grads**2 / w, axis=-1) - 1.0)) <= 1e-9

    def test_empty(self, x3, area3):
        rows, grads = image_coordinates(area3, x3, 0, seed=1)
        assert rows.shape == grads.shape == (0, 3)

    def test_bit_for_bit_reproducible(self, x3, ellipsoid3):
        a = image_coordinates(ellipsoid3, x3, 50, seed=123)
        b = image_coordinates(ellipsoid3, x3, 50, seed=123)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_conformal_image_scales_with_the_base_point(self):
        # L = phi(x) |y| puts the unit level on the sphere of radius 1 / phi(x) and the image on radius phi(x)
        a = np.array([0.25, -0.5, 0.375, 0.125])
        L = conformal_area(4, 2, a)
        for x in (np.array([0.5, -1.0, 0.75, 0.25]), np.array([-0.75, 0.5, -1.0, 1.25])):
            phi = math.exp(a @ x)
            rows, grads = image_coordinates(L, x, 50, seed=3)
            assert np.max(np.abs(np.linalg.norm(rows, axis=-1) * phi - 1.0)) <= 1e-12
            assert np.max(np.abs(np.linalg.norm(grads, axis=-1) / phi - 1.0)) <= 1e-12

    @pytest.mark.parametrize("name", ["area", "ellipsoid"])
    def test_rows_match_the_object_path(self, x3, name):
        # the blocked sampler and its one gradient call equal a direction-by-direction loop, bit for bit
        L = lagrangian_at(name, 3, 2)
        rows, grads = image_coordinates(L, x3, 50, seed=3)
        ref_rows, ref_grads = reference_sample_image(L, x3, 50, seed=3)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(grads, ref_grads)


class TestRankLemma:
    def test_area_n3(self, x3, area3, rng):
        report = rank_lemma_check(area3, x3, rng.standard_normal((1, 3)))
        assert (report.rank_L2.tolist(), report.rank_L.tolist()) == ([3], [2])
        assert (report.rank_L2 == 1 + report.rank_L).tolist() == [True]
        assert report.singular_values_L2[0] == pytest.approx((2.0, 2.0, 2.0))

    def test_linear_probe(self, x3):
        L = projected_volume_lagrangian(3, 2)
        report = rank_lemma_check(L, x3, cyclic_row(1.0, 2.0, 3.0))
        assert (report.rank_L2.tolist(), report.rank_L.tolist()) == ([1], [0])
        assert (report.rank_L2 == 1 + report.rank_L).tolist() == [True]

    def test_ellipsoid_random(self, x3, ellipsoid3, rng):
        ys = rng.standard_normal((50, 3))
        report = rank_lemma_check(ellipsoid3, x3, ys[np.linalg.norm(ys, axis=-1) >= 1e-3])
        assert np.all(report.rank_L2 == 3) and np.all(report.rank_L == 2)
        assert (report.rank_L2 == 1 + report.rank_L).all()

    def test_sympy_oracle_ranks_agree(self, x3, ellipsoid3, rng):
        # same ranks from the sympy oracle's value, gradient and Hessian
        oracle = lagrangian_oracle("ellipsoid", 3, 2, (1.0, 4.0, 9.0))
        ref = HomogeneousLagrangian(3, 2, "oracle-ellipsoid", lambda xs, cs, order: oracle(xs, cs)[:order + 1])
        y = rng.standard_normal((1, 3))
        ana = rank_lemma_check(ellipsoid3, x3, y)
        num = rank_lemma_check(ref, x3, y)
        assert (num.rank_L2.tolist(), num.rank_L.tolist()) == (ana.rank_L2.tolist(), ana.rank_L.tolist())

    def test_area_n4(self, rng):
        L = area_lagrangian(4, 2)
        report = rank_lemma_check(L, np.zeros(4), rng.standard_normal((1, 6)))
        assert (report.rank_L2.tolist(), report.rank_L.tolist()) == ([6], [5])
        assert (report.rank_L2 == 1 + report.rank_L).all()

    def test_kvector_is_rejected(self, x3, area3):
        # a fiber object that is no array reads as a 0-d array, which is no (N, C(n,p)) rows
        with pytest.raises(ValueError, match=r"fiber rows \(N, 3\), got \(3,\) and \(\)"):
            rank_lemma_check(area3, x3, object())



class TestConvexityCertificate:
    def test_area_passes(self, x3, area3):
        cert = convexity_certificate(area3, x3, num_pairs=100, t_steps=5, seed=2)
        assert cert.passed
        assert cert.num_segment_checks == 500
        assert cert.worst_violation <= 1e-9
        assert cert.num_failures == 0

    def test_ellipsoid_passes(self, x3, ellipsoid3):
        cert = convexity_certificate(ellipsoid3, x3, num_pairs=100, t_steps=5, seed=2)
        assert cert.passed
        assert cert.worst_violation <= 1e-9

    def test_geometric_mean_probe_fails(self, x3):
        cert = convexity_certificate(geometric_mean_lagrangian(), x3, num_pairs=40, t_steps=5, seed=2)
        assert not cert.passed
        assert cert.worst_violation > 1e-3

    def test_conformal_area_passes_at_a_nonzero_base_point(self):
        # the image of exp(a.x) |y| is the sphere of radius phi(x) = exp(0.90625): a radial solve and its
        # confirmation at x = 0 read a worst violation of phi(x) - 1 = 1.48, the solve alone 250 failures
        L, x = conformal_area(3, 2, [0.25, -0.5, 0.375]), np.array([0.5, -1.0, 0.75])
        cert = convexity_certificate(L, x, num_pairs=50, t_steps=5, seed=2)
        assert cert.passed
        assert cert.num_failures == 0
        assert cert.worst_violation <= 1e-9

    @pytest.mark.parametrize("argument, value", [("num_pairs", 0), ("num_pairs", -1), ("t_steps", 2), ("t_steps", 0)])
    def test_no_evidence_raises_naming_the_argument(self, x3, area3, argument, value):
        with pytest.raises(ValueError, match=f"{argument} must be at least"):
            convexity_certificate(area3, x3, **{"num_pairs": 5, "t_steps": 5, argument: value})

    def test_reproducible(self, x3, ellipsoid3):
        a = convexity_certificate(ellipsoid3, x3, num_pairs=20, t_steps=5, seed=9)
        b = convexity_certificate(ellipsoid3, x3, num_pairs=20, t_steps=5, seed=9)
        assert a == b

    @pytest.mark.parametrize("shape, name, t_steps, seed, num_pairs", list(certificate_cases()))
    def test_matches_per_target_reference(self, shape, name, t_steps, seed, num_pairs):
        n, p = shape
        L = {
            "area": lambda: area_lagrangian(n, p),
            "ellipsoid": lambda: ellipsoid_lagrangian(n, p, np.linspace(0.5, 3.0, math.comb(n, p))),
            "geometric_mean": lambda: geometric_mean_lagrangian(n, p),
        }[name]()
        x = np.zeros(n)
        cert = convexity_certificate(L, x, num_pairs=num_pairs, t_steps=t_steps, seed=seed)
        passed, checks, failures, worst = reference_certificate(L, x, num_pairs, t_steps, seed)
        assert (cert.passed, cert.num_segment_checks, cert.num_failures) == (passed, checks, failures)
        assert abs(cert.worst_violation - worst) <= 1e-12

    def test_probe_gives_up_on_stalled_rows(self, x3, monkeypatch):
        # the image_probe_32 certificate of the benchmark: without the stall rule
        # its 9 failing rows ran to the 100-iteration cap
        import multisymp.legendre as legendre

        calls = []

        def counting(J, rhs):
            calls.append(len(J))
            return _solve_stack(J, rhs)

        monkeypatch.setattr(legendre, "_solve_stack", counting)
        cert = convexity_certificate(geometric_mean_lagrangian(3, 2), x3, num_pairs=20, t_steps=5, seed=3)
        assert 0 < len(calls) <= 30
        assert cert.num_failures == 9
        assert not cert.passed

    def test_blocks_match_one_solve(self, x3, monkeypatch):
        # more targets than one block: the split must not change the result
        import multisymp.legendre as legendre

        L = geometric_mean_lagrangian()
        whole = convexity_certificate(L, x3, num_pairs=30, t_steps=5, seed=4)
        monkeypatch.setattr(legendre, "RADIAL_BLOCK", 7)
        assert convexity_certificate(L, x3, num_pairs=30, t_steps=5, seed=4) == whole
        monkeypatch.undo()
        # wider fibers: 7 rows of C(n,p) entries per block
        for L in (ellipsoid_lagrangian(4, 2, np.linspace(0.5, 3.0, 6)), area_lagrangian(5, 3)):
            x = np.zeros(L.n)
            whole = convexity_certificate(L, x, num_pairs=30, t_steps=5, seed=4)
            monkeypatch.setattr(legendre, "RADIAL_BLOCK", 7 * L.fiber_dim)
            assert convexity_certificate(L, x, num_pairs=30, t_steps=5, seed=4) == whole
            monkeypatch.undo()

    @pytest.mark.parametrize("n, p, num_pairs, blocks", [(3, 2, 300, 2), (5, 3, 200, 4)])
    def test_block_rows_scale_with_fiber_dimension(self, n, p, num_pairs, blocks, monkeypatch):
        # RADIAL_BLOCK // C(n,p) rows per block: 853 at (3,2), 256 at (5,3), for 5 points per pair
        import multisymp.legendre as legendre

        sizes = []

        def counting(L, x, targets):
            sizes.append(len(targets))
            return _radial_block(L, x, targets)

        monkeypatch.setattr(legendre, "_radial_block", counting)
        cert = convexity_certificate(area_lagrangian(n, p), np.zeros(n), num_pairs=num_pairs, t_steps=5, seed=2)
        assert len(sizes) == blocks
        assert sum(sizes) == cert.num_segment_checks == 5 * num_pairs
        assert max(sizes) == legendre.RADIAL_BLOCK // math.comb(n, p)


class TestSolveStack:
    def test_singular_rows_masked_match_row_by_row_solves(self):
        rng = np.random.default_rng(5)
        J = rng.standard_normal((40, 6, 6))
        rhs = rng.standard_normal((40, 6))
        J[3] = 0.0
        J[11, 4] = 0.0  # a zero row stays zero under elimination
        g = rng.standard_normal(6)
        J[17] = np.outer(g, g)  # g g^T, the radial Jacobian at level 0, here with a zero column
        J[17, :, 2] = 0.0
        J[29, :, 5] = 0.0  # a zero column
        delta, solved = _solve_stack(J, rhs)
        expected = np.zeros_like(rhs)
        expected_solved = np.ones(len(J), dtype=bool)
        for k in range(len(J)):
            try:
                expected[k] = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                expected_solved[k] = False
        assert np.flatnonzero(~expected_solved).tolist() == [3, 11, 17, 29]
        assert np.array_equal(solved, expected_solved)
        assert delta.tobytes() == expected.tobytes()

    def test_regular_stack_is_one_solve(self):
        rng = np.random.default_rng(6)
        J, rhs = rng.standard_normal((8, 4, 4)), rng.standard_normal((8, 4))
        delta, solved = _solve_stack(J, rhs)
        assert solved.all()
        assert delta.tobytes() == np.linalg.solve(J, rhs[..., None])[..., 0].tobytes()


class TestCsvExport:
    def test_rows_and_header(self, x3, area3):
        grads = image_coordinates(area3, x3, 3, seed=0)[1]
        buf = io.StringIO()
        write_image_csv(x3, grads, 2, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "x1,x2,x3,p12,p13,p23"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first[:3] == [0.0, 0.0, 0.0]
        assert np.linalg.norm(first[3:]) == pytest.approx(1.0, abs=1e-10)

    def test_empty_needs_dimensions(self, x3):
        buf = io.StringIO()
        write_image_csv(x3, np.empty((0, 3)), 2, buf)
        assert buf.getvalue().strip() == "x1,x2,x3,p12,p13,p23"
        with pytest.raises(ValueError):  # rows of C(3,2) = 3 coordinates, not 4
            write_image_csv(x3, np.empty((0, 4)), 2, io.StringIO())


class TestCsvMatchesObjectPath:
    """The array writer against the csv module writing one sampled image point at a time."""

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("name", ["area", "ellipsoid"])
    def test_array_writer_bytes(self, shape, name):
        n, p = shape
        L = area_lagrangian(n, p) if name == "area" else ellipsoid_lagrangian(
            n, p, np.linspace(0.5, 3.0, math.comb(n, p)))
        x = np.random.default_rng(n * p).standard_normal(n)
        expected, got = io.StringIO(newline=""), io.StringIO(newline="")
        reference_write_image_csv(x, reference_sample_image(L, x, 300, seed=17)[1], p, expected)
        write_image_csv(x, image_coordinates(L, x, 300, seed=17)[1], p, got)
        assert got.getvalue() == expected.getvalue()

    def test_empty_cloud_bytes(self):
        expected, got = io.StringIO(newline=""), io.StringIO(newline="")
        reference_write_image_csv(np.zeros(5), np.empty((0, 10)), 3, expected)
        write_image_csv(np.zeros(5), np.empty((0, 10)), 3, got)
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("config", ["image_area.json", "image_ellipsoid.json"])
    def test_cmd_image_writes_reference_bytes(self, config, tmp_path):
        cfg = json.loads((CONFIGS / config).read_text())
        assert main(["image", "--config", str(CONFIGS / config), "--out", str(tmp_path / "report.json")]) == 0
        L = build_lagrangian(cfg["lagrangian"])
        x = np.asarray(cfg.get("x", [0.0] * L.n), dtype=float)
        with open(tmp_path / "expected.csv", "w", newline="") as stream:
            reference_write_image_csv(x, reference_sample_image(L, x, cfg["count"], cfg["seed"])[1], L.p, stream)
        assert (tmp_path / cfg["csv"]).read_bytes() == (tmp_path / "expected.csv").read_bytes()


def lagrangian_at(name, n, p):
    return {
        "area": lambda: area_lagrangian(n, p),
        "ellipsoid": lambda: ellipsoid_lagrangian(n, p, np.linspace(0.5, 3.0, math.comb(n, p))),
        "geometric_mean": lambda: geometric_mean_lagrangian(n, p),
        "graph_lift": lambda: graph_lift(minimal_surface_density(n, p)),
    }[name]()


def counted_jet(L, calls):
    """L with a jet that logs (order, rows) of each call into calls."""
    def jet(xs, cs, order):
        calls.append((order, len(cs)))
        return L.jet_fn(xs, cs, order)

    return replace(L, jet_fn=jet)


def assert_bitwise_equal(got, expected):
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # values, signed zeros and NaN positions


class TestLevelGradient:
    """The one-call fast path and the masked fallback against the masked reference."""

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("name", ["area", "ellipsoid", "geometric_mean", "graph_lift"])
    @pytest.mark.parametrize("defect", [None, "zero", "nan", "hyperplane"])
    def test_matches_masked_reference(self, shape, name, defect):
        n, p = shape
        L = lagrangian_at(name, n, p)
        rng = np.random.default_rng(n + 10 * p)
        cs = rng.standard_normal((12, L.fiber_dim))
        cs[:, 0] = np.abs(cs[:, 0]) + 0.5  # inside the graph chart
        x = rng.standard_normal(n)
        if defect == "zero":
            cs[3] = 0.0
        elif defect == "nan":
            cs[5, 1] = np.nan
        elif defect == "hyperplane":
            cs[7, 1] = 0.0  # the geometric mean is 0 there and its gradient infinite
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = reference_level_gradient(L, x, cs)
            got = _level_gradient(L, np.broadcast_to(x, (3 * len(cs), n)), cs)
        assert_bitwise_equal(got, expected)
        rejected = {None: [], "zero": [3], "nan": [5], "hyperplane": [7] if name == "geometric_mean" else []}
        assert np.flatnonzero(np.isnan(got[0])).tolist() == rejected[defect]
        assert np.array_equal(np.isnan(got[1]).any(axis=1), np.isnan(got[0]))

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    def test_chart_violation_is_masked_up_front(self, shape):
        n, p = shape
        calls = []
        L = counted_jet(lagrangian_at("graph_lift", n, p), calls)
        rng = np.random.default_rng(n + 10 * p)
        cs = rng.standard_normal((10, L.fiber_dim))
        cs[:, 0] = np.abs(cs[:, 0]) + 0.5
        cs[4, 0] = -1.0  # a negative top coordinate: the batch raises as a whole
        x = np.zeros(n)
        with pytest.raises(OrientationError):
            L.value_many(np.broadcast_to(x, (len(cs), n)), cs)
        calls.clear()
        got = _level_gradient(L, np.broadcast_to(x, (len(cs), n)), cs)
        assert calls == [(1, 9)]  # one order-1 jet call; the off-chart row never reaches L
        assert_bitwise_equal(got, reference_level_gradient(L, x, cs))
        assert np.flatnonzero(np.isnan(got[0])).tolist() == [4]

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    def test_off_chart_rows_are_nan_and_raise(self, shape):
        n, p = shape
        L = lagrangian_at("graph_lift", n, p)
        cs = np.random.default_rng(n + 10 * p).standard_normal((6, L.fiber_dim))
        cs[:, 0] = np.abs(cs[:, 0]) + 0.5
        cs[1, 0], cs[3, 0] = -0.5, 0.0  # below the chart, and on its boundary
        xs = np.zeros((6, n))
        levels, grads = _level_gradient(L, xs, cs)
        assert np.flatnonzero(np.isnan(levels)).tolist() == [1, 3]
        assert np.isnan(grads[[1, 3]]).all() and np.isfinite(np.delete(grads, [1, 3], axis=0)).all()
        for row in (1, 3):
            with pytest.raises(OrientationError):
                L.value_many(xs[:2], cs[[0, row]])
            with pytest.raises(OrientationError):
                L.value_many(xs[0], cs[row][None])

    def test_valid_block_is_one_call_each(self, x3, area3):
        calls = []
        L = counted_jet(area3, calls)
        cs = np.random.default_rng(1).standard_normal((20, 3))
        _level_gradient(L, np.broadcast_to(x3, (20, 3)), cs)
        assert calls == [(1, 20)]  # one order-1 jet call on every row
