"""Homogeneous Lagrangians: built-ins, residual checks, fiber gradients."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    GraphDensity,
    HomogeneousLagrangian,
    OrientationError,
    ZeroSectionError,
    area_lagrangian,
    constant_density,
    decomposable_rows,
    ellipsoid_lagrangian,
    euler_residual,
    geometric_mean_lagrangian,
    graph_area_density,
    graph_lift,
    homogeneity_residual,
    minimal_surface_density,
    minors,
    projected_volume_lagrangian,
)

from helpers import conformal_area, cyclic_row, weighted_minimal_surface
from oracles import assert_rows_close, density_oracle, lagrangian_oracle


def fd_gradient(L, x, c, h_scale=1e-5):
    """Independent central-difference reference on the Lagrangian's values at one fiber row c (C(n,p),)."""
    h = h_scale * np.linalg.norm(c)
    g = np.empty_like(c)
    for k in range(c.size):
        cp, cm = c.copy(), c.copy()
        cp[k] += h
        cm[k] -= h
        g[k] = (L.value_many(x, cp[None])[0] - L.value_many(x, cm[None])[0]) / (2 * h)
    return g


def builtins_3_2():
    return [
        area_lagrangian(3, 2),
        ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0]),
        graph_lift(minimal_surface_density(3, 2)),
        graph_lift(graph_area_density(3, 2)),
    ]


def chart_rows(rng, count, n=3, p=2, margin=0.3):
    """Decomposable fiber rows with a positive top coordinate of at least margin |y|: inside the graph chart."""
    return decomposable_rows(rng, n, p, count, 0, margin)


class TestAreaLagrangian:
    def test_value_is_norm(self, x3):
        assert area_lagrangian(3, 2).value_many(x3, cyclic_row(3.0, 4.0, 0.0)).tolist() == [5.0]

    def test_gradient(self, x3, area3):
        y = cyclic_row(3.0, 4.0, 0.0)
        g = area3.gradient_many(x3, y)
        assert g == pytest.approx(cyclic_row(0.6, 0.8, 0.0), abs=1e-15)
        assert np.allclose(g[0], fd_gradient(area3, x3, y[0]), atol=1e-9)

    def test_homogeneity_forced(self, x3, area3):
        y = cyclic_row(3.0, 4.0, 0.0)
        assert area3.value_many(x3, 2.0 * y).tolist() == [10.0]
        assert np.allclose(area3.gradient_many(x3, 2.0 * y), area3.gradient_many(x3, y))

    def test_hessian_matches_oracle(self, x3, area3, rng):
        y = rng.standard_normal((1, 3))
        assert_rows_close(area3.hessian_many(x3, y), lagrangian_oracle("area", 3, 2)(x3[None], y)[2])

    @pytest.mark.parametrize("n, p", [(3, 0), (3, 3), (2, 3)])
    def test_needs_p_between_0_and_n(self, n, p):
        with pytest.raises(ValueError, match=f"need 0 < p < n, got p={p}, n={n}"):
            area_lagrangian(n, p)

    def test_zero_section_rejected(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            area3.value_many(x3, np.zeros((1, 3)))
        with pytest.raises(ZeroSectionError):
            area3.gradient_many(x3, np.zeros((1, 3)))


class TestEllipsoidLagrangian:
    def test_unit_weights_reduce_to_area(self, x3, rng):
        unit = ellipsoid_lagrangian(3, 2, [1.0, 1.0, 1.0])
        area = area_lagrangian(3, 2)
        ys = rng.standard_normal((100, 3))
        assert unit.value_many(x3, ys) == pytest.approx(area.value_many(x3, ys), rel=1e-14)

    def test_direct_value(self, x3):
        L = ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0])
        assert L.value_many(x3, np.ones((1, 3)))[0] == pytest.approx(math.sqrt(14.0))

    def test_gradient_matches_fd(self, x3, ellipsoid3, rng):
        ys = rng.standard_normal((100, 3))
        for ana, c in zip(ellipsoid3.gradient_many(x3, ys), ys):
            assert np.linalg.norm(ana - fd_gradient(ellipsoid3, x3, c)) <= 1e-6 * np.linalg.norm(ana)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            ellipsoid_lagrangian(3, 2, [1.0, 0.0, 2.0])
        with pytest.raises(ValueError):
            ellipsoid_lagrangian(3, 2, [1.0, -1.0, 2.0])

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0])
    def test_one_weight_per_fiber_coordinate(self, weights):
        with pytest.raises(ValueError, match=re.escape(f"expected 3 weights, got shape {np.shape(weights)}")):
            ellipsoid_lagrangian(3, 2, weights)


class TestGraphLift:
    def test_minimal_surface_example(self, x3, minimal_lift3, area3):
        y = cyclic_row(1.0, -2.0, -3.0)  # slopes (2, 3)
        assert minimal_lift3.value_many(x3, y)[0] == pytest.approx(math.sqrt(14.0), abs=1e-14)
        assert minimal_lift3.value_many(x3, y)[0] == pytest.approx(area3.value_many(x3, y)[0], abs=1e-12)

    def test_constant_density_reads_top_coordinate(self, x3):
        L = graph_lift(constant_density(3, 2))
        assert L.value_many(x3, cyclic_row(2.5, -1.0, 4.0)).tolist() == [2.5]

    def test_gram_density_matches_gram_area_in_r4(self):
        # oracle: sqrt(det(J^T J)) for the tangent frame of f(x) = (2x1+x2, x1)
        u1 = np.array([1.0, 0.0, 2.0, 1.0])
        u2 = np.array([0.0, 1.0, 1.0, 0.0])
        gram = math.sqrt(np.linalg.det(np.column_stack([u1, u2]).T @ np.column_stack([u1, u2])))
        L = graph_lift(graph_area_density(4, 2))
        y = minors(np.column_stack([u1, u2]))[None]
        value = L.value_many(np.zeros(4), y)[0]
        assert value == pytest.approx(gram, abs=1e-12)
        assert value == pytest.approx(area_lagrangian(4, 2).value_many(np.zeros(4), y)[0], abs=1e-12)

    def test_gram_density_matches_area_random(self, rng):
        L = graph_lift(graph_area_density(4, 2))
        area = area_lagrangian(4, 2)
        x4 = np.zeros(4)
        ys = chart_rows(rng, 100, 4, 2, 0.2)
        assert np.max(np.abs(L.value_many(x4, ys) - area.value_many(x4, ys))) <= 1e-10

    def test_density_needs_batched_callable(self):
        with pytest.raises(TypeError):
            GraphDensity(3, 2, name="no jet")

    def test_batch_lift_uses_batched_density(self):
        F = GraphDensity(3, 2, jet=lambda bases, values, slopes, order: (np.full(len(bases), 2.0),))
        tops = np.array([[1.0, 0.5, 0.0], [3.0, -1.0, 2.0]])
        assert graph_lift(F).value_many(np.zeros((2, 3)), tops).tolist() == [2.0, 6.0]

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3), (6, 2), (6, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    def test_minimal_surface_sums_the_slopes_as_numpy_does(self, shape):
        # bit for bit against the sum over both slope axes, on both sides of 8 slopes and on no rows
        n, p = shape
        jet = minimal_surface_density(n, p).jet
        rng = np.random.default_rng(n + 10 * p)
        for rows in (0, 200):
            slopes = rng.standard_normal((rows, p, n - p)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, p, n - p))
            got = jet(np.zeros((rows, p)), np.zeros((rows, n - p)), slopes, 0)[0]
            assert got.tobytes() == np.sqrt(1.0 + np.sum(slopes * slopes, axis=(1, 2))).tobytes()

    def test_orientation_error_outside_chart(self, x3, minimal_lift3):
        with pytest.raises(OrientationError):
            minimal_lift3.value_many(x3, cyclic_row(-1.0, 2.0, 3.0))
        with pytest.raises(OrientationError):
            minimal_lift3.value_many(x3, cyclic_row(0.0, 1.0, 0.0))


class TestGraphLiftDerivatives:
    """The exact lift value, gradient and Hessian against the sympy oracle of y_top F(q(y)).

    Rows have a top coordinate in [0.5, 2] and the others in [-2, 2], so the
    slopes stay within 4.
    """

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([constant_density, minimal_surface_density, graph_area_density]),
           st.sampled_from([(3, 2), (4, 2), (5, 3)]), st.integers(0, 2**32 - 1))
    def test_exact_derivatives_match_oracle(self, density, shape, seed):
        n, p = shape
        L = graph_lift(density(n, p))
        rng = np.random.default_rng(seed)
        cs = rng.uniform(-2.0, 2.0, (4, math.comb(n, p)))
        cs[:, 0] = rng.uniform(0.5, 2.0, 4)  # coordinate 0 is the top of the graph chart
        xs = rng.standard_normal((4, n))
        value, grad, hess = lagrangian_oracle(L.name, n, p)(xs, cs)
        assert_rows_close(L.value_many(xs, cs), value)
        assert_rows_close(L.gradient_many(xs, cs), grad)
        assert_rows_close(L.hessian_many(xs, cs), hess)


def norm_squared_probe():
    """|y|^2 with its exact gradient 2c and Hessian 2I: homogeneous of degree 2, not 1."""
    def jet(xs, cs, order):
        return (np.sum(cs * cs, axis=-1), 2.0 * cs, np.broadcast_to(2.0 * np.eye(3), (len(cs), 3, 3)))[:order + 1]

    return HomogeneousLagrangian(3, 2, "norm-squared", jet)


class TestEulerResidual:
    def test_area_exact(self, x3, area3):
        assert euler_residual(area3, x3, cyclic_row(3.0, 4.0, 0.0))[0] <= 1e-12

    def test_graph_lift_random(self, x3, minimal_lift3, rng):
        ys = chart_rows(rng, 100)
        L = minimal_lift3.value_many(x3, ys)
        assert np.all(euler_residual(minimal_lift3, x3, ys) <= 1e-9 * np.maximum(1.0, np.abs(L)))

    def test_detector_fires_on_quadratic_probe(self, x3):
        probe = norm_squared_probe()
        y = cyclic_row(1.0, 2.0, -1.5)
        # pairing of the gradient 2y with y gives 2|y|^2, so the residual is |y|^2
        assert euler_residual(probe, x3, y)[0] == pytest.approx(np.sum(y * y), rel=1e-8)

    def test_zero_section(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            euler_residual(area3, x3, np.zeros((1, 3)))

    def test_kvector_is_rejected(self, x3, area3):
        # a fiber object that is no array reads as a 0-d array, which is no (N, C(n,p)) rows
        with pytest.raises(ValueError, match=r"with fiber rows \(N, 3\), got \(3,\) and \(\)"):
            euler_residual(area3, x3, object())


class TestHomogeneityResidual:
    def test_area_exact(self, x3, area3):
        assert homogeneity_residual(area3, x3, cyclic_row(3.0, 4.0, 0.0), (0.5, 2.0, 10.0)).tolist() == [0.0]

    def test_graph_lift_scale_invariant(self, x3, minimal_lift3, rng):
        assert np.max(homogeneity_residual(minimal_lift3, x3, chart_rows(rng, 20), (0.5, 2.0, 10.0))) <= 1e-12

    def test_detector_fires_on_quadratic_probe(self, x3):
        probe = norm_squared_probe()
        y = cyclic_row(1.0, 2.0, -1.5)
        # |L(2y) - 2L(y)| / (2|y|) = |4-2| |y|^2 / (2|y|) = |y|
        assert homogeneity_residual(probe, x3, y, (2.0,))[0] == pytest.approx(np.linalg.norm(y), rel=1e-12)

    def test_nonpositive_lambda_rejected(self, x3, area3):
        with pytest.raises(ValueError):
            homogeneity_residual(area3, x3, cyclic_row(1.0, 0.0, 0.0), (1.0, -2.0))

    @settings(max_examples=30)
    @given(st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
    def test_builtin_homogeneity_property(self, lam, seed):
        rng = np.random.default_rng(seed)
        x = np.zeros(3)
        y = rng.standard_normal((1, 3))
        norm = np.linalg.norm(y)
        if norm < 1e-3:
            return
        for L in (area_lagrangian(3, 2), ellipsoid_lagrangian(3, 2, [2.0, 1.0, 5.0])):
            assert abs(L.value_many(x, lam * y)[0] - lam * L.value_many(x, y)[0]) <= 1e-9 * lam * norm


class TestAreolarForm:
    """The areolar form of L: the p-covector field with coefficients dL/dy."""

    def test_area_coefficients(self, x3, area3):
        coeffs = area3.gradient_many(x3, cyclic_row(3.0, 4.0, 0.0))
        assert coeffs == pytest.approx(cyclic_row(0.6, 0.8, 0.0), abs=1e-15)

    def test_representative_independence(self, x3, area3):
        a = area3.gradient_many(x3, cyclic_row(3.0, 4.0, 0.0))
        b = area3.gradient_many(x3, cyclic_row(6.0, 8.0, 0.0))
        assert np.allclose(a, b, atol=1e-12)

    def test_graph_lift_top_coefficient(self, x3, minimal_lift3):
        # d(y_top F)/d y_top = F - sum q dF/dq = 1/F for the minimal-surface density
        coeffs = minimal_lift3.gradient_many(x3, cyclic_row(1.0, -2.0, -3.0))
        q_sq = 2.0**2 + 3.0**2
        expected = (1.0 + q_sq - q_sq) / math.sqrt(1.0 + q_sq)
        assert coeffs[0, 0] == pytest.approx(expected, rel=1e-9)  # coordinate 12

    def test_evaluate_on_vectors(self, x3, area3):
        coeffs = area3.gradient_many(x3, cyclic_row(3.0, 4.0, 0.0))
        value = np.vecdot(coeffs, minors(np.eye(3)[:, :2])[None])[0]
        assert value == pytest.approx(0.6, abs=1e-15)


class TestNondegeneracy:
    def test_area_everywhere(self, x3, area3, rng):
        square = area3._square_hessians(*area3._rows(x3, rng.standard_normal((1, 3))))[0][0]
        assert np.allclose(square, 2.0 * np.eye(3), atol=1e-12)

    def test_linear_probe_degenerate(self, x3):
        L = projected_volume_lagrangian(3, 2)
        square = L._square_hessians(*L._rows(x3, cyclic_row(2.0, 1.0, 1.0)))[0][0]
        assert np.allclose(square, 2.0 * np.outer(np.eye(3)[0], np.eye(3)[0]))

    def test_ellipsoid_everywhere(self, x3, ellipsoid3, rng):
        ys = rng.standard_normal((20, 3))
        ys = ys[np.linalg.norm(ys, axis=-1) >= 1e-3]
        for square in ellipsoid3._square_hessians(*ellipsoid3._rows(x3, ys))[0]:
            assert np.allclose(square, 2.0 * np.diag([1.0, 4.0, 9.0]), atol=1e-9)

    def test_geometric_mean_probe_not_nondegenerate(self, x3):
        L = geometric_mean_lagrangian()
        square = L._square_hessians(*L._rows(x3, np.ones((1, 3))))[0][0]
        assert np.linalg.eigvalsh(square)[0] <= 1e-8

    @pytest.mark.parametrize("L", [
        area_lagrangian(4, 2),
        ellipsoid_lagrangian(4, 2, [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
        projected_volume_lagrangian(4, 2),
        geometric_mean_lagrangian(4, 2),
    ], ids=lambda L: L.name)
    def test_rows_equal_fibers(self, L):
        # one formula for Hess(L^2): the rows together and each row alone agree exactly
        rng = np.random.default_rng(3)
        x, rows = rng.standard_normal(4), rng.standard_normal((12, 6))
        square = L._square_hessians(np.broadcast_to(x, (12, 4)), rows)[0]
        fibers = [L._square_hessians(*L._rows(x, c[None]))[0][0] for c in rows]
        assert all(np.array_equal(square[k], fiber) for k, fiber in enumerate(fibers))

    def test_rows_reject_zero_section(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            area3._rows(x3, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestBuiltinInvariants:
    @pytest.mark.parametrize("make, n, p", [
        (lambda n, p: ellipsoid_lagrangian(n, p, [1.0]), 3, 3),
        (projected_volume_lagrangian, 3, 3),
        (projected_volume_lagrangian, 3, 0),
        (geometric_mean_lagrangian, 3, 3),
        (geometric_mean_lagrangian, 2, 0),
        (lambda n, p: graph_lift(constant_density(n, p)), 3, 3),
    ], ids=["ellipsoid-3-3", "projected_volume-3-3", "projected_volume-3-0", "geometric_mean-3-3",
            "geometric_mean-2-0", "graph_lift-3-3"])
    def test_needs_p_between_0_and_n(self, make, n, p):
        # HomogeneousLagrangian checks the rule itself, so no constructor builds a Lagrangian without a fiber
        # of proper p-planes; each of these has C(n, p) = 1 coordinate and constructed before
        with pytest.raises(ValueError, match=f"need 0 < p < n, got p={p}, n={n}"):
            make(n, p)

    @pytest.mark.parametrize("L", builtins_3_2(), ids=lambda L: L.name)
    def test_euler_and_homogeneity(self, L, x3, rng):
        ys = chart_rows(rng, 100)
        scale = np.maximum(1.0, np.abs(L.value_many(x3, ys)))
        assert np.all(euler_residual(L, x3, ys) <= 1e-9 * scale)
        assert np.all(homogeneity_residual(L, x3, ys, (0.5, 2.0, 10.0)) <= 1e-9)

    @pytest.mark.parametrize("L", builtins_3_2(), ids=lambda L: L.name)
    def test_gradient_degree_zero(self, L, x3, rng):
        ys = chart_rows(rng, 20)
        base = L.gradient_many(x3, ys)
        for lam in (0.5, 2.0, 1000.0):
            assert np.max(np.abs(L.gradient_many(x3, lam * ys) - base)) <= 1e-9

    @pytest.mark.parametrize("L", builtins_3_2(), ids=lambda L: L.name)
    def test_gradient_matches_fd(self, L, x3, rng):
        ys = chart_rows(rng, 100)
        for g, c in zip(L.gradient_many(x3, ys), ys):
            assert np.linalg.norm(g - fd_gradient(L, x3, c)) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_hessian_annihilates_fiber_direction(self, x3, rng):
        for L in (area_lagrangian(3, 2), ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0])):
            ys = rng.standard_normal((20, 3))
            ys = ys[np.linalg.norm(ys, axis=-1) >= 1e-3]
            for H, c in zip(L.hessian_many(x3, ys), ys):
                bound = 1e-8 * np.linalg.norm(H, 2) * np.linalg.norm(c)
                assert np.linalg.norm(H @ c) <= bound

    def test_graph_lift_hessian_annihilates_fiber_direction(self, x3, minimal_lift3, rng):
        # the lift's Hessian is exact, so it takes the 1e-8 gate of the other built-ins
        ys = chart_rows(rng, 10)
        for H, c in zip(minimal_lift3.hessian_many(x3, ys), ys):
            assert np.linalg.norm(H @ c) <= 1e-8 * np.linalg.norm(H, 2) * np.linalg.norm(c)

    def test_minimal_lift_equals_area_on_graph_tangents(self, x3, minimal_lift3, area3, rng):
        ys = np.array([minors(np.column_stack([np.array([1.0, 0.0, rng.standard_normal()]),
                                               np.array([0.0, 1.0, rng.standard_normal()])])) for _ in range(100)])
        assert np.max(np.abs(minimal_lift3.value_many(x3, ys) - area3.value_many(x3, ys))) <= 1e-10


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
        # a call on one row gives that row of a call on all of them, bit for bit
        n, p = shape
        dim = math.comb(n, p)
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((rows, n))
        cs = rng.standard_normal((rows, dim))
        cs[:, 0] = np.abs(cs[:, 0]) + 0.5  # coordinate 0 is the top of the graph chart
        for L in builtins_at(n, p):
            values, grads, hessians = L.value_many(xs, cs), L.gradient_many(xs, cs), L.hessian_many(xs, cs)
            assert (values.shape, grads.shape, hessians.shape) == ((rows,), (rows, dim), (rows, dim, dim))
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
        with pytest.raises(OrientationError, match="row 1 is off the chart .*: fiber coordinate 0 must be positive"):
            minimal_lift3.value_many(np.zeros((2, 3)), cs)
        with pytest.raises(OrientationError, match="row 0 is off the chart .*: fiber coordinate 0 must be positive"):
            minimal_lift3.value_many(np.zeros(3), cs[1:])

    def test_derivative_callables_are_required(self):
        # the jet callable is the only source of values and derivatives
        with pytest.raises(TypeError):
            HomogeneousLagrangian(3, 2, "no jet")

    def test_chart_on_a_later_coordinate(self):
        # the chart index is read as given, not as the first coordinate
        L = replace(area_lagrangian(4, 2), chart=3)
        cs = np.array([[-1.0, 0.0, 0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, -2.0, 0.0, 0.0]])
        assert L._on_chart(cs).tolist() == [True, False]
        assert L.value_many(np.zeros((1, 4)), cs[:1]).tolist() == [math.sqrt(5.0)]
        with pytest.raises(OrientationError, match="row 1 is off the chart"):
            L.value_many(np.zeros((2, 4)), cs)

    def test_off_chart_names_row_and_chart_coordinate(self):
        L = replace(area_lagrangian(4, 2), chart=3)
        cs = np.array([[-1.0, 0.0, 0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, -2.0, 0.0, 0.0]])
        with pytest.raises(OrientationError, match="row 1 is off the chart of area: fiber coordinate 3 must be"):
            L.value_many(np.zeros(4), cs)

    @pytest.mark.parametrize("method", ["value_many", "gradient_many", "hessian_many"])
    def test_shapes_are_checked(self, method):
        L, rows = area_lagrangian(3, 2), np.ones((2, 3))
        cases = [(np.zeros((1, 3)), np.ones((1, 4))),  # rows of width C(n,p) + 1
                 (np.zeros(3), np.ones((2, 4))),
                 (np.zeros(3), np.ones(3)),  # one fiber as a 1-d array, not a row
                 (np.zeros(5), rows),  # a base point of width n + 2, as one point and as one per row
                 (np.zeros((2, 5)), rows),
                 (np.zeros((5, 3)), rows)]  # 5 per-row base points for 2 rows
        for x, cs in cases:
            with pytest.raises(ValueError) as excinfo:
                getattr(L, method)(x, cs)
            assert excinfo.type is ValueError
            assert f"got {x.shape} and {cs.shape}" in str(excinfo.value)

    @pytest.mark.parametrize("method", ["value", "gradient", "hessian"])
    def test_kvector_of_another_fiber_is_rejected(self, area3, method):
        # fibers are rows only: a fiber object or a scalar reads as a 0-d array, which is no (N, C(n,p)) rows
        for y in (object(), 1.0):
            with pytest.raises(ValueError, match=r"with fiber rows \(N, 3\), got \(3,\) and \(\)"):
                getattr(area3, f"{method}_many")(np.zeros(3), y)

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    def test_one_base_point_equals_one_per_row(self, shape):
        # bit for bit, on every built-in and on the two fixtures that read x
        n, p = shape
        dim = math.comb(n, p)
        rng = np.random.default_rng(n + 10 * p)
        x = rng.standard_normal(n)
        cs = rng.uniform(0.25, 2.0, (6, dim)) * rng.choice([-1.0, 1.0], (6, dim))
        cs[:, 0] = np.abs(cs[:, 0])  # coordinate 0 is the top of the graph chart
        a = CONFORMAL_EXPONENT
        lagrangians = [oracle_case(name, n, p)[0] for name in ORACLE_LAGRANGIANS] + [
            conformal_area(n, p, a[:n]), graph_lift(weighted_minimal_surface(n, p, a[:p], a[p:n]))]
        for L in lagrangians:
            for many in (L.value_many, L.gradient_many, L.hessian_many):
                got = many(x, cs)
                assert np.array_equal(got, many(np.broadcast_to(x, (len(cs), n)), cs)), L.name
                assert np.array_equal(many(x, cs[:1])[0], got[0]), L.name


ORACLE_SHAPES = [(3, 2), (4, 2), (5, 3)]
DENSITY_BUILDERS = {"constant": constant_density, "minimal_surface": minimal_surface_density,
                    "graph_area": graph_area_density}
ORACLE_LAGRANGIANS = ["area", "ellipsoid", "projected_volume", "geometric_mean",
                      *(f"graph_lift({name})" for name in DENSITY_BUILDERS)]
CONFORMAL_EXPONENT = (0.3, -0.4, 0.5, 0.2, -0.1)  # a of exp(a.x), its first n entries


def oracle_case(name, n, p):
    """The named built-in (or the conformal fixture) at (n, p), with the parameters its oracle takes."""
    if name == "ellipsoid":
        weights = tuple(np.linspace(0.5, 3.0, math.comb(n, p)).tolist())
        return ellipsoid_lagrangian(n, p, weights), weights
    if name == "conformal_area":
        return conformal_area(n, p, CONFORMAL_EXPONENT[:n]), CONFORMAL_EXPONENT[:n]
    if name.startswith("graph_lift("):
        return graph_lift(DENSITY_BUILDERS[name[len("graph_lift("):-1]](n, p)), ()
    return {"area": area_lagrangian, "projected_volume": projected_volume_lagrangian,
            "geometric_mean": geometric_mean_lagrangian}[name](n, p), ()


def assert_jet_close(jet, want):
    """jet(order) for orders 0, 1 and 2 against the oracle's (value, first, second derivative), every part."""
    for order in range(3):
        parts = jet(order)
        assert len(parts) == order + 1
        for got, reference in zip(parts, want):
            assert_rows_close(np.asarray(got), reference)


def assert_lagrangian_close(L, xs, cs, want):
    """L's jet at each order, and its value_many, gradient_many and hessian_many, against the oracle's."""
    assert_jet_close(lambda order: L.jet_fn(xs, cs, order), want)
    for many, reference in zip((L.value_many, L.gradient_many, L.hessian_many), want):
        assert_rows_close(many(xs, cs), reference)


class TestSympyOracle:
    """Every built-in Lagrangian and density, at each jet order, against its lambdified sympy derivatives,
    within 1e-12 per row.

    Fiber rows have entries of magnitude in [0.25, 2] with random signs, a
    positive coordinate 0 (the top of the graph chart) and an overall scale
    between 1e-3 and 1e3, so that the degree of each derivative is checked.
    The conformal fixture is checked at the shapes its tests use.
    """

    @pytest.mark.parametrize("name, shape", [(name, shape) for name in ORACLE_LAGRANGIANS for shape in ORACLE_SHAPES]
                             + [("conformal_area", (3, 2)), ("conformal_area", (4, 2))],
                             ids=lambda v: f"{v[0]}{v[1]}" if isinstance(v, tuple) else v)
    def test_lagrangian_matches_oracle(self, name, shape):
        n, p = shape
        L, params = oracle_case(name, n, p)
        rng = np.random.default_rng(n + 10 * p)
        cs = rng.uniform(0.25, 2.0, (8, L.fiber_dim)) * rng.choice([-1.0, 1.0], (8, L.fiber_dim))
        cs[:, 0] = np.abs(cs[:, 0])
        cs *= 10.0 ** rng.uniform(-3.0, 3.0, (8, 1))
        xs = rng.standard_normal((8, n))
        assert_lagrangian_close(L, xs, cs, lagrangian_oracle(name, n, p, params)(xs, cs))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("name", list(DENSITY_BUILDERS))
    def test_density_matches_oracle(self, name, shape):
        n, p = shape
        F = DENSITY_BUILDERS[name](n, p)
        rng = np.random.default_rng(n + 10 * p)
        bases, values = rng.standard_normal((8, p)), rng.standard_normal((8, n - p))
        slopes = rng.uniform(-2.0, 2.0, (8, p, n - p))
        assert_jet_close(lambda order: F.jet(bases, values, slopes, order),
                         density_oracle(name, n, p)(bases, values, slopes))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}{s[1]}")
    def test_density_reading_bases_and_values_matches_oracle(self, shape):
        # the weight exp(a.bases + c.values) enters F and, through x, its graph lift
        n, p = shape
        a, c = CONFORMAL_EXPONENT[:p], CONFORMAL_EXPONENT[p:n]
        F = weighted_minimal_surface(n, p, a, c)
        rng = np.random.default_rng(n + 10 * p)
        bases, values = rng.standard_normal((8, p)), rng.standard_normal((8, n - p))
        slopes = rng.uniform(-2.0, 2.0, (8, p, n - p))
        assert_jet_close(lambda order: F.jet(bases, values, slopes, order),
                         density_oracle(F.name, n, p, a + c)(bases, values, slopes))
        L = graph_lift(F)
        cs = rng.uniform(0.25, 2.0, (8, L.fiber_dim)) * rng.choice([-1.0, 1.0], (8, L.fiber_dim))
        cs[:, 0] = np.abs(cs[:, 0])
        xs = np.concatenate([bases, values], axis=1)
        assert_lagrangian_close(L, xs, cs, lagrangian_oracle(L.name, n, p, a + c)(xs, cs))


def assert_prefix(jet):
    """jet(0) and jet(1) are the leading parts of jet(2), bit for bit."""
    full = [np.asarray(part) for part in jet(2)]
    assert len(full) == 3
    for order in (0, 1):
        parts = jet(order)
        assert len(parts) == order + 1
        for got, want in zip(parts, full):
            assert np.asarray(got).shape == want.shape and np.asarray(got).tobytes() == want.tobytes()


class TestJetPrefix:
    """A lower order of every built-in jet repeats the leading parts of order 2 bit for bit, so a caller
    that needs several orders on the same rows can take them from one call."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("name", ORACLE_LAGRANGIANS)
    def test_lagrangian_orders_agree(self, name, shape):
        n, p = shape
        L = oracle_case(name, n, p)[0]
        rng = np.random.default_rng(n + 10 * p)
        cs = rng.uniform(0.25, 2.0, (8, L.fiber_dim)) * rng.choice([-1.0, 1.0], (8, L.fiber_dim))
        cs[:, 0] = np.abs(cs[:, 0])  # coordinate 0 is the top of the graph chart
        xs = rng.standard_normal((8, n))
        assert_prefix(lambda order: L.jet_fn(xs, cs, order))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("name", list(DENSITY_BUILDERS))
    def test_density_orders_agree(self, name, shape):
        n, p = shape
        F = DENSITY_BUILDERS[name](n, p)
        rng = np.random.default_rng(n + 10 * p)
        bases, values = rng.standard_normal((8, p)), rng.standard_normal((8, n - p))
        slopes = rng.uniform(-2.0, 2.0, (8, p, n - p))
        assert_prefix(lambda order: F.jet(bases, values, slopes, order))
