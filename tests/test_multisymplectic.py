"""Tautological form, its differential, nondegeneracy, closedness, pullback."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import multisymplectic
from multisymp.exterior import det
from multisymp import (
    FormField,
    TotalSpaceChart,
    ZeroSectionError,
    area_lagrangian,
    closedness_residual,
    constant_x_form,
    decomposable_rows,
    ellipsoid_lagrangian,
    graph_lift,
    minimal_surface_density,
    minors,
    multi_indices,
    nondegeneracy_check,
    omega,
    pullback_residual,
    theta,
    weighted_x_form,
)

from helpers import cyclic_row


@pytest.fixture
def chart32():
    return TotalSpaceChart(3, 2)


class TestChart:
    def test_layout(self, chart32):
        assert chart32.dim_total == 6
        assert chart32.labels == ("x1", "x2", "x3", "p12", "p13", "p23")
        assert chart32.index("p13") == 4
        with pytest.raises(KeyError):
            chart32.index("p31")

    def test_point_and_lift(self, chart32):
        pt = chart32.point([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert pt.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        lifted = chart32.lift([7.0, 8.0, 9.0])
        assert lifted.tolist() == [7.0, 8.0, 9.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            chart32.point([1.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"base vector must have shape \(3,\)"):
            chart32.lift([7.0, 8.0])


class TestTheta:
    def test_dual_pairing(self, chart32):
        form = theta(chart32)
        pt = chart32.point([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        e = chart32.basis_vector
        assert form(pt, [e("x1"), e("x2")]) == 1.0
        assert form(pt, [e("x2"), e("x1")]) == -1.0

    def test_vertical_argument_vanishes(self, chart32):
        form = theta(chart32)
        pt = chart32.point([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        e = chart32.basis_vector
        assert form(pt, [e("p12"), e("x2")]) == 0.0

    def test_arity(self, chart32):
        form = theta(chart32)
        pt = np.zeros(6)
        with pytest.raises(ValueError):
            form(pt, [chart32.basis_vector("x1")])

    def test_point_and_vectors_live_on_the_chart(self, chart32):
        form, e = theta(chart32), chart32.basis_vector
        for point, vectors in ((np.zeros(5), [e("x1"), e("x2")]), (np.zeros(6), [e("x1"), np.zeros(5)]),
                               (np.zeros((1, 6)), [e("x1"), e("x2")])):
            with pytest.raises(ValueError, match="theta lives on a 6-dimensional chart"):
                form(point, vectors)

    def test_alternating_and_linear(self, chart32, rng):
        form = theta(chart32)
        for _ in range(20):
            pt = rng.standard_normal(6)
            v, w, u = (rng.standard_normal(6) for _ in range(3))
            assert form(pt, [v, w]) == pytest.approx(-form(pt, [w, v]), abs=1e-12)
            s = float(rng.standard_normal())
            assert form(pt, [v + s * u, w]) == pytest.approx(
                form(pt, [v, w]) + s * form(pt, [u, w]), abs=1e-12
            )

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3)])
    def test_horizontal_lifts_pair_with_wedge(self, n, p, rng):
        chart = TotalSpaceChart(n, p)
        form = theta(chart)
        for _ in range(20):
            pvals = rng.standard_normal(chart.fiber_dim)
            point = chart.point(rng.standard_normal(n), pvals)
            vectors = [rng.standard_normal(n) for _ in range(p)]
            expected = float(pvals @ minors(np.column_stack(vectors)))  # the pairing of rows
            assert form(point, [chart.lift(v) for v in vectors]) == expected


class TestOmega:
    def test_mixed_term(self, chart32):
        form = omega(chart32)
        pt = np.zeros(6)
        e = chart32.basis_vector
        assert form(pt, [e("p12"), e("x1"), e("x2")]) == 1.0

    def test_pure_base_arguments_vanish(self, chart32):
        form = omega(chart32)
        e = chart32.basis_vector
        assert form(np.zeros(6), [e("x1"), e("x2"), e("x3")]) == 0.0

    def test_cyclic_invariance(self, chart32, rng):
        form = omega(chart32)
        pt = rng.standard_normal(6)
        v0, v1, v2 = (rng.standard_normal(6) for _ in range(3))
        a = form(pt, [v0, v1, v2])
        assert form(pt, [v1, v2, v0]) == pytest.approx(a, abs=1e-12)
        assert form(pt, [v2, v0, v1]) == pytest.approx(a, abs=1e-12)
        assert form(pt, [v1, v0, v2]) == pytest.approx(-a, abs=1e-12)

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3)])
    def test_matches_per_index_determinants(self, n, p, rng):
        chart = TotalSpaceChart(n, p)
        form = omega(chart)
        for _ in range(20):
            point = rng.standard_normal(chart.dim_total)
            vectors = [rng.standard_normal(chart.dim_total) for _ in range(p + 1)]
            expected = 0.0
            for k, axes in enumerate(multi_indices(n, p)):
                # the dp_I row above the dx^I rows, one column per argument
                m = np.empty((p + 1, p + 1))
                for j, v in enumerate(vectors):
                    m[0, j] = v[n + k]
                    for r, axis in enumerate(axes):
                        m[r + 1, j] = v[axis - 1]
                expected += np.linalg.det(m)
            assert form(point, vectors) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestNondegeneracy:
    @pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (4, 3)])
    def test_omega_nondegenerate(self, n, p, rng):
        chart = TotalSpaceChart(n, p)
        ok, rank = nondegeneracy_check(omega(chart), rng.standard_normal(chart.dim_total))
        assert ok
        assert rank == chart.dim_total

    def test_omega_rank_at_53_matches_lapack_det(self, rng, monkeypatch):
        # omega at (5,3) sums 4 x 4 determinants: the cofactor expansion and LU give the same rank
        chart = TotalSpaceChart(5, 3)
        for _ in range(3):
            point = rng.standard_normal(chart.dim_total)
            cofactor = nondegeneracy_check(omega(chart), point)
            monkeypatch.setattr(multisymplectic, "det", np.linalg.det)
            assert nondegeneracy_check(omega(chart), point) == cofactor == (True, chart.dim_total)
            monkeypatch.undo()

    def test_planted_degenerate_form(self, chart32):
        probe = constant_x_form(chart32, (1, 2, 3))
        ok, rank = nondegeneracy_check(probe, np.zeros(6))
        assert not ok
        assert rank == 3  # every vertical direction is in the kernel

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3)])
    def test_planted_kernel_reads_dim_minus_1(self, n, p, rng):
        # omega without its dp_I ^ dx^I term has d/dp_I in its kernel, and no other direction
        chart = TotalSpaceChart(n, p)
        point = rng.standard_normal(chart.dim_total)
        for k in range(chart.fiber_dim):
            assert nondegeneracy_check(omega_without(chart, k), point) == (False, chart.dim_total - 1)

    @pytest.mark.parametrize("axes", [(0, 1), (1, 4), (-1, 2)])
    def test_constant_form_axes_in_range(self, chart32, axes):
        with pytest.raises(ValueError, match="axes out of range"):
            constant_x_form(chart32, axes)


class TestClosedness:
    def test_omega_closed(self, chart32, rng):
        form = omega(chart32)
        draws = rng.standard_normal((20, 5, 6))  # per sample: the point, then the 4 vectors
        assert np.max(closedness_residual(form, draws[:, 0], draws[:, 1:], h=1e-4)) <= 1e-6

    def test_dtheta_reproduces_omega(self, chart32, rng):
        th, om = theta(chart32), omega(chart32)
        draws = rng.standard_normal((20, 4, 6))
        residuals = closedness_residual(th, draws[:, 0], draws[:, 1:], h=1e-4)
        assert residuals == pytest.approx(np.abs(om.evaluator(draws[:, 0], np.swapaxes(draws[:, 1:], 1, 2))),
                                          abs=1e-6)

    def test_non_closed_probe_detected(self, chart32):
        probe = weighted_x_form(chart32, "p23", (1, 2))
        e = chart32.basis_vector
        residual = closedness_residual(probe, np.zeros((1, 6)), [[e("p23"), e("x1"), e("x2")]], h=1e-4)
        assert residual[0] == pytest.approx(1.0, abs=1e-8)  # analytic d is dp23^dx1^dx2

    def test_bad_step(self, chart32):
        for h in (0.0, -1e-4, float("nan")):
            with pytest.raises(ValueError, match="step must be positive"):
                closedness_residual(theta(chart32), np.zeros((1, 6)), np.zeros((1, 3, 6)), h=h)

    def test_shapes_are_checked(self, chart32):
        form = theta(chart32)
        for points, vectors in ((np.zeros(6), np.zeros((3, 6))),  # one point, not a row of points
                                (np.zeros((2, 6)), np.zeros((2, 2, 6))),  # 2 vectors for d(theta), not 3
                                (np.zeros((2, 5)), np.zeros((2, 3, 5))),
                                (np.zeros((2, 6)), np.zeros((1, 3, 6)))):
            message = f"d(theta) takes points (N, 6) with 3 vectors each, (N, 3, 6), got {points.shape} and"
            with pytest.raises(ValueError, match=re.escape(message)):
                closedness_residual(form, points, vectors)


class TestPullback:
    def test_area_example(self, x3, area3):
        # both sides evaluate to the first gradient coefficient on (e1, e2)
        residual = pullback_residual(area3, x3, cyclic_row(3.0, 4.0, 0.0), [[np.eye(3)[0], np.eye(3)[1]]])
        assert residual <= 1e-12

    def test_scale_invariance(self, x3, area3, rng):
        y = np.repeat(rng.standard_normal((1, 3)), 5, axis=0)
        tuples = rng.standard_normal((5, 2, 3))
        assert pullback_residual(area3, x3, y, tuples) == pytest.approx(
            pullback_residual(area3, x3, 2.0 * y, tuples), abs=1e-12
        )

    def test_graph_lift_random_tuples(self, x3, rng):
        L = graph_lift(minimal_surface_density(3, 2))
        ys = decomposable_rows(rng, 3, 2, 20, 0, 0.3)
        assert pullback_residual(L, x3, ys, rng.standard_normal((20, 2, 3))) <= 1e-9

    def test_builtin_invariant(self, x3, rng):
        lagrangians = [
            area_lagrangian(3, 2),
            ellipsoid_lagrangian(3, 2, [1.0, 4.0, 9.0]),
            graph_lift(minimal_surface_density(3, 2)),
        ]
        for L in lagrangians:
            ys = decomposable_rows(rng, 3, 2, 100, 0, 0.3)
            assert pullback_residual(L, x3, ys, rng.standard_normal((100, 2, 3))) <= 1e-9

    def test_zero_section(self, x3, area3):
        with pytest.raises(ZeroSectionError):
            pullback_residual(area3, x3, np.zeros((1, 3)), [[np.eye(3)[0], np.eye(3)[1]]])

    def test_rows_and_tuples_are_checked(self, x3, area3):
        with pytest.raises(ValueError, match=r"fiber rows \(N, 3\), got \(3,\) and \(\)"):
            pullback_residual(area3, x3, object(), [[np.eye(3)[0], np.eye(3)[1]]])
        with pytest.raises(ValueError, match="one fiber row per tuple, got 1 rows and 2 tuples"):
            pullback_residual(area3, x3, np.ones((1, 3)), np.ones((2, 2, 3)))


def forms_at(chart):
    """theta, omega and the two constant-coefficient probes on one chart."""
    return [
        theta(chart),
        omega(chart),
        constant_x_form(chart, range(1, chart.p + 2)),
        weighted_x_form(chart, chart.labels[-1], range(1, chart.p + 1)),
    ]


class TestBatchedForms:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 2), (5, 3)]), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_batch_equals_stacked_batches_of_one(self, shape, rows, seed):
        chart = TotalSpaceChart(*shape)
        dim = chart.dim_total
        rng = np.random.default_rng(seed)
        for form in forms_at(chart):
            points = rng.standard_normal((rows, dim))
            vectors = rng.standard_normal((rows, dim, form.degree))
            values = form.evaluator(points, vectors)
            assert values.shape == (rows,)
            singles = [form.evaluator(points[k:k + 1], vectors[k:k + 1]) for k in range(rows)]
            assert np.array_equal(np.concatenate(singles), values)
            # the validated call on one point is row 0 of the batch
            assert form(points[0], list(vectors[0].T)) == values[0]

    def test_contraction_matrix_matches_scalar_calls(self, rng, monkeypatch):
        # each entry of the ranked matrix is the scalar call on the arguments the evaluator got for it, and the
        # rank is that of the exhaustive contraction matrix over every basis (k-1)-tuple
        captured, calls = [], []
        matrix_rank = np.linalg.matrix_rank

        def capture(matrix, tol):
            captured.append(matrix.copy())
            return matrix_rank(matrix, tol=tol)

        monkeypatch.setattr(np.linalg, "matrix_rank", capture)
        count = 0
        for n, p in RANK_SHAPES:
            chart = TotalSpaceChart(n, p)
            dim = chart.dim_total
            point = rng.standard_normal(dim)
            basis = np.eye(dim)
            for form in rank_forms(chart):
                captured.clear()
                calls.clear()
                ok, rank = nondegeneracy_check(recording(form, calls), point)
                (points, vectors), = calls
                matrix = captured[0]
                assert matrix.shape == (dim, dim) and len(points) == dim * dim
                assert np.array_equal(points, np.broadcast_to(point, points.shape))
                assert np.array_equal(matrix.ravel(), [form(pt, list(vs.T)) for pt, vs in zip(points, vectors)])
                # the exhaustive matrix, row by basis (k-1)-tuple and column by e_col, from one evaluator call: each
                # row of a batch equals its scalar call (test_batch_equals_stacked_batches_of_one)
                rests = itertools.combinations(range(dim), form.degree - 1)
                indices = np.array([[(col, *rest) for col in range(dim)] for rest in rests])
                tuples = np.swapaxes(basis[indices], -1, -2).reshape(-1, dim, form.degree)
                expected = form.evaluator(np.broadcast_to(point, (len(tuples), dim)), tuples).reshape(-1, dim)
                reference = matrix_rank(expected, tol=1e-10 * max(1.0, float(np.abs(expected).max())))
                assert (ok, rank) == (reference == dim, reference), (chart, form.name)
                count += 1
        assert count == 81

    @pytest.mark.parametrize("n, p", [(3, 2), (5, 3)])
    def test_closedness_batch_equals_single_points(self, n, p, rng):
        chart = TotalSpaceChart(n, p)
        for form in forms_at(chart):
            points = rng.standard_normal((6, chart.dim_total))
            vectors = rng.standard_normal((6, form.degree + 1, chart.dim_total))
            batch = closedness_residual(form, points, vectors, h=1e-4)
            assert batch.shape == (6,)
            assert batch.tolist() == [closedness_residual(form, pt[None], vs[None], h=1e-4)[0]
                                      for pt, vs in zip(points, vectors)]

    def test_pullback_fiber_rows_equal_one_fiber_per_tuple(self, rng):
        L = ellipsoid_lagrangian(4, 2, [1.0, 2.0, 0.5, 3.0, 1.5, 0.7])
        x = rng.standard_normal(4)
        rows = decomposable_rows(rng, 4, 2, 8)
        tuples = rng.standard_normal((8, 2, 4))
        per_fiber = max(pullback_residual(L, x, y[None], [t]) for y, t in zip(rows, tuples))
        assert pullback_residual(L, x, rows, tuples) == per_fiber


# the charts of the exhaustive rank comparison
RANK_SHAPES = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]


def omega_without(chart, dropped):
    """omega with its dropped-th term dp_I ^ dx^I left out: degenerate, with d/dp_I in its kernel."""
    n, p = chart.n, chart.p
    rows = np.array([(n + k, *(a - 1 for a in axes)) for k, axes in enumerate(multi_indices(n, p)) if k != dropped])
    return FormField(p + 1, chart.dim_total, lambda points, vectors: det(np.take(vectors, rows, axis=1)).sum(axis=-1),
                     f"omega without term {dropped}")


def recording(form, calls):
    """form, with the arguments of each evaluator call appended to calls."""
    def evaluate(points, vectors):
        calls.append((points.copy(), vectors.copy()))
        return form.evaluator(points, vectors)

    return FormField(form.degree, form.dim, evaluate, form.name)


def rank_forms(chart):
    """theta, omega, constant_x_form and weighted_x_form of degrees 1-4 (up to n), and each omega_without."""
    degrees = range(1, min(4, chart.n) + 1)
    return ([theta(chart), omega(chart)]
            + [constant_x_form(chart, range(1, k + 1)) for k in degrees]
            + [weighted_x_form(chart, chart.labels[-1], range(1, k + 1)) for k in degrees]
            + [omega_without(chart, k) for k in range(chart.fiber_dim)])
