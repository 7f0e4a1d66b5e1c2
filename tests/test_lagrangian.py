"""Homogeneous Lagrangians: built-ins, residual checks, areolar forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    GraphDensity,
    HomogeneousLagrangian,
    KVector,
    OrientationError,
    ZeroSectionError,
    area_lagrangian,
    areolar_form,
    constant_density,
    ellipsoid_lagrangian,
    euler_residual,
    geometric_mean_lagrangian,
    graph_area_density,
    graph_lift,
    homogeneity_residual,
    is_nondegenerate,
    minimal_surface_density,
    projected_volume_lagrangian,
    random_decomposable,
    wedge_vectors,
)


def fd_gradient(L, x, y, h_scale=1e-5):
    """Independent central-difference oracle, bypassing the Lagrangian's own fallback."""
    c = y.coords.copy()
    h = h_scale * np.linalg.norm(c)
    g = np.empty_like(c)
    for k in range(c.size):
        cp, cm = c.copy(), c.copy()
        cp[k] += h
        cm[k] -= h
        g[k] = (L.value(x, KVector(L.n, L.p, cp)) - L.value(x, KVector(L.n, L.p, cm))) / (2 * h)
    return g


def builtins_3_2():
    return [
        area_lagrangian(3, 2),
        ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0]),
        graph_lift(minimal_surface_density(3, 2)),
        graph_lift(graph_area_density(3, 2)),
    ]


class TestAreaLagrangian:
    def test_value_is_norm(self, x3):
        y = KVector.from_cyclic_triple(3.0, 4.0, 0.0)
        assert area_lagrangian(3, 2).value(x3, y) == 5.0

    def test_gradient(self, x3, area3):
        y = KVector.from_cyclic_triple(3.0, 4.0, 0.0)
        g = area3.gradient(x3, y)
        assert g.as_cyclic_triple() == pytest.approx((0.6, 0.8, 0.0), abs=1e-15)
        assert np.allclose(g.coords, fd_gradient(area3, x3, y), atol=1e-9)

    def test_homogeneity_forced(self, x3, area3):
        y = KVector.from_cyclic_triple(3.0, 4.0, 0.0)
        assert area3.value(x3, y.scaled(2.0)) == 10.0
        assert np.allclose(area3.gradient(x3, y.scaled(2.0)).coords, area3.gradient(x3, y).coords)

    def test_hessian_matches_fd(self, x3, area3, rng):
        y = KVector(3, 2, rng.standard_normal(3))
        fd = HomogeneousLagrangian(3, 2, "fd-area", area3.value_fn)
        assert np.allclose(area3.hessian(x3, y), fd.hessian(x3, y), atol=1e-6)

    def test_zero_section_rejected(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            area3.value(x3, KVector.zero(3, 2))
        with pytest.raises(ZeroSectionError):
            area3.gradient(x3, KVector.zero(3, 2))


class TestEllipsoidLagrangian:
    def test_unit_weights_reduce_to_area(self, x3, rng):
        unit = ellipsoid_lagrangian(3, 2, [1.0, 1.0, 1.0])
        area = area_lagrangian(3, 2)
        for _ in range(100):
            y = KVector(3, 2, rng.standard_normal(3))
            assert unit.value(x3, y) == pytest.approx(area.value(x3, y), rel=1e-14)

    def test_direct_value(self, x3):
        L = ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0])
        assert L.value(x3, KVector(3, 2, [1.0, 1.0, 1.0])) == pytest.approx(math.sqrt(14.0))

    def test_gradient_matches_fd(self, x3, ellipsoid3, rng):
        for _ in range(100):
            y = KVector(3, 2, rng.standard_normal(3))
            ana = ellipsoid3.gradient(x3, y).coords
            assert np.linalg.norm(ana - fd_gradient(ellipsoid3, x3, y)) <= 1e-6 * np.linalg.norm(ana)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            ellipsoid_lagrangian(3, 2, [1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            ellipsoid_lagrangian(3, 2, [1.0, -1.0, 2.0])


class TestGraphLift:
    def test_minimal_surface_example(self, x3, minimal_lift3, area3):
        y = KVector.from_cyclic_triple(1.0, -2.0, -3.0)  # slopes (2, 3)
        assert minimal_lift3.value(x3, y) == pytest.approx(math.sqrt(14.0), abs=1e-14)
        assert minimal_lift3.value(x3, y) == pytest.approx(area3.value(x3, y), abs=1e-12)

    def test_constant_density_reads_top_coordinate(self, x3):
        L = graph_lift(constant_density(3, 2))
        y = KVector.from_cyclic_triple(2.5, -1.0, 4.0)
        assert L.value(x3, y) == 2.5

    def test_gram_density_matches_gram_area_in_r4(self):
        # oracle: sqrt(det(J^T J)) for the tangent frame of f(x) = (2x1+x2, x1)
        u1 = np.array([1.0, 0.0, 2.0, 1.0])
        u2 = np.array([0.0, 1.0, 1.0, 0.0])
        gram = math.sqrt(np.linalg.det(np.column_stack([u1, u2]).T @ np.column_stack([u1, u2])))
        L = graph_lift(graph_area_density(4, 2))
        value = L.value(np.zeros(4), wedge_vectors([u1, u2]))
        assert value == pytest.approx(gram, abs=1e-12)
        assert value == pytest.approx(area_lagrangian(4, 2).value(np.zeros(4), wedge_vectors([u1, u2])), abs=1e-12)

    def test_gram_density_matches_area_random(self, rng):
        L = graph_lift(graph_area_density(4, 2))
        area = area_lagrangian(4, 2)
        x4 = np.zeros(4)
        for _ in range(100):
            y = random_decomposable(rng, 4, 2, min_top_fraction=0.2)
            assert L.value(x4, y) == pytest.approx(area.value(x4, y), abs=1e-10)

    def test_density_needs_batched_callable(self):
        with pytest.raises(TypeError):
            GraphDensity(3, 2, name="no fn_many")

    def test_batch_lift_uses_batched_density(self):
        F = GraphDensity(3, 2, fn_many=lambda bases, values, slopes: np.full(len(bases), 2.0),
                         d_slopes=lambda bases, values, slopes: np.zeros_like(slopes),
                         d2_slopes=lambda bases, values, slopes: np.zeros(slopes.shape + slopes.shape[1:]))
        tops = np.array([[1.0, 0.5, 0.0], [3.0, -1.0, 2.0]])
        assert graph_lift(F).value_many(np.zeros((2, 3)), tops).tolist() == [2.0, 6.0]

    def test_orientation_error_outside_chart(self, x3, minimal_lift3):
        y = KVector.from_cyclic_triple(-1.0, 2.0, 3.0)
        with pytest.raises(OrientationError):
            minimal_lift3.value(x3, y)
        with pytest.raises(OrientationError):
            minimal_lift3.value(x3, KVector.from_cyclic_triple(0.0, 1.0, 0.0))


def central_differences(L, xs, cs, h_grad=1e-5, h_hess=1e-4):
    """Gradient and Hessian of value_fn by central differences, per-row steps h * |c|."""
    dim = cs.shape[1]
    eye = np.eye(dim)
    norm = np.linalg.norm(cs, axis=-1)[:, None]

    def at(step):
        return L.value_fn(xs, cs + step)

    h = h_grad * norm
    grad = np.stack([(at(h * eye[k]) - at(-h * eye[k])) / (2 * h[:, 0]) for k in range(dim)], axis=-1)
    h = h_hess * norm
    hess = np.empty(cs.shape + (dim,))
    for i in range(dim):
        for j in range(dim):
            hess[:, i, j] = (at(h * (eye[i] + eye[j])) - at(h * (eye[i] - eye[j]))
                             - at(h * (eye[j] - eye[i])) + at(-h * (eye[i] + eye[j]))) / (4 * h[:, 0] ** 2)
    return grad, hess


class TestGraphLiftDerivatives:
    """The exact lift gradient and Hessian against central differences of value_fn.

    Rows have a top coordinate in [0.5, 2] and the others in [-2, 2], so the
    slopes stay within 4.  With steps 1e-5 |c| (gradient) and 1e-4 |c|
    (Hessian, second differences of values), truncation and rounding keep the
    differences below 1e-5 max(1, |g|) for the gradient and below
    1e-4 max(1, |c| |H|) for |c| times the Hessian, which is degree -1; the
    worst seen over 1200 rows per case was 30 times smaller.
    """

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([constant_density, minimal_surface_density, graph_area_density]),
           st.sampled_from([(3, 2), (4, 2), (5, 3)]), st.integers(0, 2**32 - 1))
    def test_exact_derivatives_match_central_differences(self, density, shape, seed):
        n, p = shape
        L = graph_lift(density(n, p))
        rng = np.random.default_rng(seed)
        cs = rng.uniform(-2.0, 2.0, (4, math.comb(n, p)))
        cs[:, 0] = rng.uniform(0.5, 2.0, 4)  # coordinate 0 is the top of the graph chart
        xs = rng.standard_normal((4, n))
        grad, hess = central_differences(L, xs, cs)
        exact_grad = L.gradient_many(xs, cs)
        assert np.max(np.abs(exact_grad - grad)) <= 1e-5 * max(1.0, np.max(np.abs(exact_grad)))
        norm = np.linalg.norm(cs, axis=-1)[:, None, None]
        exact_hess = L.hessian_many(xs, cs) * norm
        assert np.max(np.abs(exact_hess - hess * norm)) <= 1e-4 * max(1.0, np.max(np.abs(exact_hess)))


class TestEulerResidual:
    def test_area_exact(self, x3, area3):
        y = KVector.from_cyclic_triple(3.0, 4.0, 0.0)
        assert euler_residual(area3, x3, y) <= 1e-12

    def test_graph_lift_random(self, x3, minimal_lift3, rng):
        for _ in range(100):
            y = random_decomposable(rng, 3, 2, min_top_fraction=0.3)
            L = minimal_lift3.value(x3, y)
            assert euler_residual(minimal_lift3, x3, y) <= 1e-9 * max(1.0, abs(L))

    def test_detector_fires_on_quadratic_probe(self, x3):
        probe = HomogeneousLagrangian(3, 2, "norm-squared", lambda xs, cs: np.sum(cs * cs, axis=-1))
        y = KVector.from_cyclic_triple(1.0, 2.0, -1.5)
        # pairing of the gradient 2y with y gives 2|y|^2, so the residual is |y|^2
        assert euler_residual(probe, x3, y) == pytest.approx(y.norm() ** 2, rel=1e-8)

    def test_zero_section(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            euler_residual(area3, x3, KVector.zero(3, 2))


class TestHomogeneityResidual:
    def test_area_exact(self, x3, area3):
        y = KVector.from_cyclic_triple(3.0, 4.0, 0.0)
        assert homogeneity_residual(area3, x3, y, (0.5, 2.0, 10.0)) == 0.0

    def test_graph_lift_scale_invariant(self, x3, minimal_lift3, rng):
        for _ in range(20):
            y = random_decomposable(rng, 3, 2, min_top_fraction=0.3)
            assert homogeneity_residual(minimal_lift3, x3, y, (0.5, 2.0, 10.0)) <= 1e-12

    def test_detector_fires_on_quadratic_probe(self, x3):
        probe = HomogeneousLagrangian(3, 2, "norm-squared", lambda xs, cs: np.sum(cs * cs, axis=-1))
        y = KVector.from_cyclic_triple(1.0, 2.0, -1.5)
        # |L(2y) - 2L(y)| / (2|y|) = |4-2| |y|^2 / (2|y|) = |y|
        assert homogeneity_residual(probe, x3, y, (2.0,)) == pytest.approx(y.norm(), rel=1e-12)

    def test_nonpositive_lambda_rejected(self, x3, area3):
        y = KVector.from_cyclic_triple(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            homogeneity_residual(area3, x3, y, (1.0, -2.0))

    @settings(max_examples=30)
    @given(st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
    def test_builtin_homogeneity_property(self, lam, seed):
        rng = np.random.default_rng(seed)
        x = np.zeros(3)
        y = KVector(3, 2, rng.standard_normal(3))
        if y.norm() < 1e-3:
            return
        for L in (area_lagrangian(3, 2), ellipsoid_lagrangian(3, 2, [2.0, 1.0, 5.0])):
            assert abs(L.value(x, y.scaled(lam)) - lam * L.value(x, y)) <= 1e-9 * lam * y.norm()


class TestAreolarForm:
    def test_area_coefficients(self, x3, area3):
        ell = areolar_form(area3)
        coeffs = ell.coefficients_at(x3, KVector.from_cyclic_triple(3.0, 4.0, 0.0))
        assert coeffs.as_cyclic_triple() == pytest.approx((0.6, 0.8, 0.0), abs=1e-15)

    def test_representative_independence(self, x3, area3):
        ell = areolar_form(area3)
        a = ell.coefficients_at(x3, KVector.from_cyclic_triple(3.0, 4.0, 0.0))
        b = ell.coefficients_at(x3, KVector.from_cyclic_triple(6.0, 8.0, 0.0))
        assert np.allclose(a.coords, b.coords, atol=1e-12)

    def test_graph_lift_top_coefficient(self, x3, minimal_lift3):
        # d(y_top F)/d y_top = F - sum q dF/dq = 1/F for the minimal-surface density
        y = KVector.from_cyclic_triple(1.0, -2.0, -3.0)
        coeffs = areolar_form(minimal_lift3).coefficients_at(x3, y)
        q_sq = 2.0**2 + 3.0**2
        expected = (1.0 + q_sq - q_sq) / math.sqrt(1.0 + q_sq)
        assert coeffs.as_cyclic_triple()[0] == pytest.approx(expected, rel=1e-9)

    def test_evaluate_on_vectors(self, x3, area3):
        ell = areolar_form(area3)
        y = KVector.from_cyclic_triple(3.0, 4.0, 0.0)
        value = ell.evaluate(x3, y, [np.eye(3)[0], np.eye(3)[1]])
        assert value == pytest.approx(0.6, abs=1e-15)


class TestNondegeneracy:
    def test_area_everywhere(self, x3, area3, rng):
        y = KVector(3, 2, rng.standard_normal(3))
        assert np.allclose(area3.square_hessian(x3, y), 2.0 * np.eye(3), atol=1e-12)
        assert is_nondegenerate(area3, x3, y)

    def test_linear_probe_degenerate(self, x3):
        L = projected_volume_lagrangian(3, 2)
        y = KVector.from_cyclic_triple(2.0, 1.0, 1.0)
        assert np.allclose(L.square_hessian(x3, y), 2.0 * np.outer(np.eye(3)[0], np.eye(3)[0]))
        assert not is_nondegenerate(L, x3, y)

    def test_ellipsoid_everywhere(self, x3, ellipsoid3, rng):
        for _ in range(20):
            y = KVector(3, 2, rng.standard_normal(3))
            if y.norm() < 1e-3:
                continue
            assert np.allclose(ellipsoid3.square_hessian(x3, y), 2.0 * np.diag([1.0, 4.0, 9.0]), atol=1e-9)
            assert is_nondegenerate(ellipsoid3, x3, y)

    def test_geometric_mean_probe_not_nondegenerate(self, x3):
        L = geometric_mean_lagrangian()
        y = KVector(3, 2, [1.0, 1.0, 1.0])
        assert not is_nondegenerate(L, x3, y)

    @pytest.mark.parametrize("L", [
        area_lagrangian(4, 2),
        ellipsoid_lagrangian(4, 2, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
        projected_volume_lagrangian(4, 2),
        geometric_mean_lagrangian(4, 2),
    ], ids=lambda L: L.name)
    def test_rows_equal_fibers(self, L):
        # one formula for Hess(L^2): the row form and the KVector batch of one agree exactly
        rng = np.random.default_rng(3)
        x, rows = rng.standard_normal(4), rng.standard_normal((12, 6))
        got = is_nondegenerate(L, x, rows)
        assert got.dtype == bool and got.shape == (12,)
        assert got.tolist() == [is_nondegenerate(L, x, KVector(4, 2, c)) for c in rows]
        square = L._square_hessians(np.broadcast_to(x, (12, 4)), rows)[0]
        assert all(np.array_equal(square[k], L.square_hessian(x, KVector(4, 2, c))) for k, c in enumerate(rows))

    def test_rows_reject_zero_section(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            is_nondegenerate(area3, x3, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestBuiltinInvariants:
    @pytest.mark.parametrize("L", builtins_3_2(), ids=lambda L: L.name)
    def test_euler_and_homogeneity(self, L, x3, rng):
        for _ in range(100):
            y = random_decomposable(rng, 3, 2, min_top_fraction=0.3)
            scale = max(1.0, abs(L.value(x3, y)))
            assert euler_residual(L, x3, y) <= 1e-9 * scale
            assert homogeneity_residual(L, x3, y, (0.5, 2.0, 10.0)) <= 1e-9

    @pytest.mark.parametrize("L", builtins_3_2(), ids=lambda L: L.name)
    def test_gradient_degree_zero(self, L, x3, rng):
        for _ in range(20):
            y = random_decomposable(rng, 3, 2, min_top_fraction=0.3)
            base = L.gradient(x3, y).coords
            for lam in (0.5, 2.0, 1000.0):
                assert np.max(np.abs(L.gradient(x3, y.scaled(lam)).coords - base)) <= 1e-9

    @pytest.mark.parametrize("L", builtins_3_2(), ids=lambda L: L.name)
    def test_analytic_or_fallback_gradient_matches_fd(self, L, x3, rng):
        for _ in range(100):
            y = random_decomposable(rng, 3, 2, min_top_fraction=0.3)
            g = L.gradient(x3, y).coords
            assert np.linalg.norm(g - fd_gradient(L, x3, y)) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_hessian_annihilates_fiber_direction(self, x3, rng):
        for L in (area_lagrangian(3, 2), ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0])):
            for _ in range(20):
                y = KVector(3, 2, rng.standard_normal(3))
                if y.norm() < 1e-3:
                    continue
                H = L.hessian(x3, y)
                bound = 1e-8 * np.linalg.norm(H, 2) * y.norm()
                assert np.linalg.norm(H @ y.coords) <= bound

    def test_graph_lift_hessian_annihilates_fiber_direction(self, x3, minimal_lift3, rng):
        # finite-difference Hessian of a finite-difference gradient: looser gate
        for _ in range(10):
            y = random_decomposable(rng, 3, 2, min_top_fraction=0.3)
            H = minimal_lift3.hessian(x3, y)
            assert np.linalg.norm(H @ y.coords) <= 1e-5 * np.linalg.norm(H, 2) * y.norm()

    def test_minimal_lift_equals_area_on_graph_tangents(self, x3, minimal_lift3, area3, rng):
        for _ in range(100):
            u1 = np.array([1.0, 0.0, rng.standard_normal()])
            u2 = np.array([0.0, 1.0, rng.standard_normal()])
            y = wedge_vectors([u1, u2])
            assert abs(minimal_lift3.value(x3, y) - area3.value(x3, y)) <= 1e-10


def builtins_at(n, p):
    dim = math.comb(n, p)
    return [
        area_lagrangian(n, p),
        ellipsoid_lagrangian(n, p, np.linspace(0.5, 3.0, dim)),
        projected_volume_lagrangian(n, p),
        geometric_mean_lagrangian(n, p),
        graph_lift(minimal_surface_density(n, p)),
    ]


class TestBatchedConvention:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 2), (5, 3)]), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_scalar_calls_are_a_batch_of_one(self, shape, rows, seed):
        n, p = shape
        dim = math.comb(n, p)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((rows, n))
        cs = rng.standard_normal((rows, dim))
        cs[:, 0] = np.abs(cs[:, 0]) + 0.5  # coordinate 0 is the top of the graph chart
        for L in builtins_at(n, p):
            values, grads, hessians = L.value_many(xs, cs), L.gradient_many(xs, cs), L.hessian_many(xs, cs)
            assert (values.shape, grads.shape, hessians.shape) == ((rows,), (rows, dim), (rows, dim, dim))
            y = KVector(n, p, cs[0])
            assert L.value(xs[0], y) == values[0]
            assert np.array_equal(L.gradient(xs[0], y).coords, grads[0])
            assert np.array_equal(L.hessian(xs[0], y), hessians[0])
            singles = [(xs[k:k + 1], cs[k:k + 1]) for k in range(rows)]
            assert np.array_equal(np.concatenate([L.value_many(*one) for one in singles]), values)
            assert np.array_equal(np.concatenate([L.gradient_many(*one) for one in singles]), grads)
            assert np.array_equal(np.concatenate([L.hessian_many(*one) for one in singles]), hessians)

    def test_batched_methods_reject_zero_rows(self, area3):
        cs = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        for method in (area3.value_many, area3.gradient_many, area3.hessian_many):
            with pytest.raises(ZeroSectionError):
                method(np.zeros((2, 3)), cs)

    def test_graph_chart_message_names_the_chart(self, minimal_lift3):
        cs = np.array([[1.0, 0.5, 0.0], [-2.0, 1.0, 1.0]])
        with pytest.raises(OrientationError, match="graph chart needs a positive top coordinate"):
            minimal_lift3.value_many(np.zeros((2, 3)), cs)
        with pytest.raises(OrientationError, match="graph chart needs a positive top coordinate"):
            minimal_lift3.value(np.zeros(3), KVector(3, 2, cs[1]))

    def test_fd_fallbacks_use_per_row_steps(self, ellipsoid3, rng):
        # rows of very different scale: a shared step would spoil the small row
        fd = HomogeneousLagrangian(3, 2, "fd-ellipsoid", ellipsoid3.value_fn)
        cs = rng.standard_normal((4, 3)) * np.array([[1e-6], [1.0], [1e3], [1e6]])
        xs = np.zeros((4, 3))
        assert np.allclose(fd.gradient_many(xs, cs), ellipsoid3.gradient_many(xs, cs), rtol=1e-8, atol=0.0)
        scale = np.linalg.norm(cs, axis=1)[:, None, None]
        assert np.allclose(fd.hessian_many(xs, cs) * scale, ellipsoid3.hessian_many(xs, cs) * scale,
                           rtol=0.0, atol=1e-5)
