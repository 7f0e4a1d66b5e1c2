"""Exterior algebra on rows: index tuples, minors, pairing, planes, decomposability, oriented classes."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    ZeroSectionError,
    decomposable_rows,
    index_position,
    minors,
    multi_indices,
    plane_from_bivector,
)
from multisymp.exterior import _minor_rows, _reduce, det

from helpers import cyclic_row, draw_decomposable


def inversion_sign(seq):
    """Independent parity oracle: count pairwise inversions."""
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def brute_minors(vectors, n, p):
    """Independent minor oracle: dets of all row selections, via permutation expansion."""
    matrix = np.column_stack(vectors)
    out = {}
    for axes in itertools.combinations(range(1, n + 1), p):
        rows = [a - 1 for a in axes]
        det = 0.0
        for perm in itertools.permutations(range(p)):
            term = inversion_sign(perm)
            for r, c in zip(rows, perm):
                term *= matrix[r, c]
            det += term
        out[axes] = det
    return out


def wedge(*vectors):
    """The wedge of vectors of R^n as a row: the minors of the frame they span."""
    return minors(np.column_stack(vectors))


def same_class(u, v, tol=1e-9):
    """Whether rows u and v are positively proportional: their unit rows lie within tol of each other."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    gap = u / np.linalg.norm(u, axis=-1, keepdims=True) - v / np.linalg.norm(v, axis=-1, keepdims=True)
    return bool(np.all(np.linalg.norm(gap, axis=-1) <= tol))


def pluecker(row, n):
    """The Pluecker relations y_ij y_kl - y_ik y_jl + y_il y_jk of a bivector row, one per i < j < k < l."""
    y = dict(zip(multi_indices(n, 2), np.asarray(row, dtype=float).tolist()))
    return np.array([y[i, j] * y[k, l] - y[i, k] * y[j, l] + y[i, l] * y[j, k]
                     for i, j, k, l in itertools.combinations(range(1, n + 1), 4)])


class TestCanonicalize:
    """Only increasing tuples have a coordinate; a minor on a permuted row set carries the permutation sign."""

    def test_single_transposition(self):
        frame = np.random.default_rng(1).standard_normal((3, 2))
        assert det(frame[[1, 0]]) == -minors(frame)[index_position(3, 2)[1, 2]]
        assert (2, 1) not in index_position(3, 2)

    def test_repeated_index_vanishes(self):
        frame = np.random.default_rng(2).standard_normal((3, 3))
        assert det(frame[[0, 1, 1]]) == 0.0
        assert (1, 2, 2) not in index_position(3, 3)

    def test_three_cycle(self):
        assert inversion_sign((3, 1, 2)) == 1
        frame = np.random.default_rng(3).standard_normal((3, 3))
        assert det(frame[[2, 0, 1]]) == pytest.approx(minors(frame)[index_position(3, 3)[1, 2, 3]], abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(KeyError):
            index_position(3, 2)[0, 1]
        with pytest.raises(KeyError):
            index_position(3, 2)[1, 4]

    @given(st.permutations(list(range(1, 6))))
    def test_sign_matches_inversion_count(self, perm):
        # order five runs the LAPACK branch, which is exact on permutation matrices
        assert det(np.eye(5)[[a - 1 for a in perm]]) == inversion_sign(perm)


class TestMultiIndex:
    def test_enumeration_is_lexicographic(self):
        assert multi_indices(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class TestWedgeVectors:
    def test_plane_graph_triple(self):
        # tangents of the graph of f with slopes (2, 3)
        w = wedge(np.array([1.0, 0.0, 2.0]), np.array([0.0, 1.0, 3.0]))
        assert w.tolist() == cyclic_row(1.0, -2.0, -3.0)[0].tolist()

    def test_coordinate_basis(self):
        assert wedge(np.eye(3)[0], np.eye(3)[1]).tolist() == [1.0, 0.0, 0.0]

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_minors_against_oracle_n4(self, vals):
        a, c, b, d = vals
        u1 = np.array([1.0, 0.0, a, c])
        u2 = np.array([0.0, 1.0, b, d])
        w = wedge(u1, u2)
        oracle = brute_minors([u1, u2], 4, 2)
        for axes, expected in oracle.items():
            assert w[index_position(4, 2)[axes]] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n, p", [(3, 1), (4, 2), (5, 3), (6, 4), (7, 5)])
    def test_batched_minors_against_oracle(self, n, p):
        # p = 5 runs the LAPACK branch of the kernel, p <= 4 the cofactor formulas
        frames = np.random.default_rng(10 * n + p).standard_normal((7, n, p))
        coords = minors(frames)
        assert coords.shape == (7, math.comb(n, p))
        for frame, row in zip(frames, coords):
            oracle = brute_minors(list(frame.T), n, p)
            assert row == pytest.approx([oracle[axes] for axes in multi_indices(n, p)], abs=1e-12)

    @pytest.mark.parametrize("n, p", [(3, 1), (3, 2), (4, 2), (5, 3), (6, 4)])
    def test_batch_equals_stacked_single_frames(self, n, p):
        rng = np.random.default_rng(10 * n + p)
        # a plain C array; the (p, N, n) layout of the action kernels' slab frames; decomposable_rows' swapped draws
        for frames in (rng.standard_normal((3, 5, n, p)), np.moveaxis(rng.standard_normal((p, 15, n)), 0, -1),
                       np.swapaxes(rng.standard_normal((15, p, n)), 1, 2)):
            singles = [wedge(*frame.T) for frame in frames.reshape(-1, n, p)]
            batched = minors(frames)
            assert np.array_equal(batched.reshape(-1, math.comb(n, p)), np.array(singles))
            # the determinants of the gathered p x p blocks, bit for bit
            gathered = det(np.take(frames, _minor_rows(n, p), axis=-2))
            assert batched.tobytes() == np.ascontiguousarray(gathered).tobytes()
            # downstream row reductions round by memory layout, so the layout is fixed too
            assert batched.flags.c_contiguous

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        u1, u2 = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(wedge(u1, u2), -wedge(u2, u1), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="need 0 < p <= n"):
            minors(np.ones((2, 3)))  # three vectors in dimension two


# Entries of magnitude 0 or 1e-6 .. 1e3: no product of four row norms underflows.
det_entries = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


class TestDetOrderFour:
    @settings(max_examples=300)
    @given(st.lists(det_entries, min_size=16, max_size=16))
    def test_matches_lapack_within_hadamard_bound(self, entries):
        # |det| is at most the product of the row norms; both routines round well inside it
        m = np.array(entries).reshape(4, 4)
        hadamard = float(np.prod(np.linalg.norm(m, axis=-1)))
        assert abs(det(m) - np.linalg.det(m)) <= 1e-13 * hadamard

    def test_exact_on_integer_matrices(self):
        # small integers keep every product and sum of the expansion exact in floating point
        matrices = np.random.default_rng(4).integers(-9, 10, (500, 4, 4))
        exact = [
            sum(inversion_sign(perm) * math.prod(int(row[c]) for row, c in zip(m, perm))
                for perm in itertools.permutations(range(4)))
            for m in matrices
        ]
        assert det(matrices.astype(float)).tolist() == [float(v) for v in exact]

    def test_permutation_and_singular_matrices(self):
        for perm in itertools.permutations(range(4)):
            assert det(np.eye(4)[list(perm)]) == inversion_sign(perm)
        singular = np.arange(16.0).reshape(4, 4)  # rows in arithmetic progression
        assert det(singular) == 0.0

    def test_batch_shape(self):
        stack = np.random.default_rng(5).standard_normal((3, 2, 4, 4))
        values = det(stack)
        assert values.shape == (3, 2)
        assert np.array_equal(values[1, 0], det(stack[1, 0]))


class TestPair:
    """The pairing of a dual row a with a fiber row u is a @ u."""

    def test_dual_basis(self):
        # the wedge of the coordinate vectors e_J is the J-th basis row, so the dual basis pairs to the identity
        for n, p in ((3, 2), (4, 2), (5, 3)):
            basis = np.array([minors(np.eye(n)[:, [a - 1 for a in axes]]) for axes in multi_indices(n, p)])
            assert np.array_equal(np.eye(math.comb(n, p)) @ basis.T, np.eye(math.comb(n, p)))

    def test_antisymmetry_of_arguments(self):
        assert np.array([1.0, 0.0, 0.0]) @ wedge(np.eye(3)[1], np.eye(3)[0]) == -1.0  # dx1^dx2 on e2 ^ e1

    def test_wedge_pairing_definition(self):
        # alpha(u1) beta(u2) - alpha(u2) beta(u1) for alpha=dx1, beta=dx3
        u1 = np.array([1.0, 0.0, 2.0])
        u2 = np.array([0.0, 1.0, 3.0])
        direct = u1[0] * u2[2] - u2[0] * u1[2]
        assert direct == 3.0
        assert np.array([0.0, 1.0, 0.0]) @ wedge(u1, u2) == pytest.approx(3.0)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_wedge_pairing_definition_random(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        u1, u2 = rng.standard_normal(4), rng.standard_normal(4)
        direct = (a @ u1) * (b @ u2) - (a @ u2) * (b @ u1)
        assert wedge(a, b) @ wedge(u1, u2) == pytest.approx(direct, abs=1e-9, rel=1e-9)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_bilinearity(self, seed):
        # the wedge is linear in each vector, so its pairing with a dual row is too
        rng = np.random.default_rng(seed)
        alpha, u, v, w = (rng.standard_normal(3) for _ in range(4))
        s = float(rng.standard_normal())
        assert alpha @ wedge(u + s * v, w) == pytest.approx(alpha @ wedge(u, w) + s * (alpha @ wedge(v, w)), abs=1e-10)


class TestPlaneFromBivector:
    def test_coordinate_plane(self):
        e12 = np.array([[1.0, 0.0, 0.0]])
        frames = plane_from_bivector(e12)
        assert frames.shape == (1, 3, 2)
        assert np.linalg.matrix_rank(np.column_stack([frames[0], np.eye(3)[:, :2]])) == 2
        assert minors(frames)[0] @ e12[0] > 0

    def test_roundtrip_example(self):
        u = cyclic_row(1.0, -2.0, -3.0)
        assert same_class(minors(plane_from_bivector(u)), u, tol=1e-9)

    def test_roundtrip_random_planes(self, rng):
        u = minors(rng.standard_normal((100, 3, 2)))
        u = u[np.linalg.norm(u, axis=-1) >= 1e-6]
        frames = plane_from_bivector(u)
        assert np.allclose(np.swapaxes(frames, 1, 2) @ frames, np.eye(2), atol=1e-12)  # orthonormal frames
        assert same_class(minors(frames), u, tol=1e-9)

    def test_zero_input(self):
        with pytest.raises(ZeroSectionError, match="row 1 is a zero bivector"):
            plane_from_bivector(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("rows", [np.ones(3), np.ones((1, 6))], ids=["one-row", "r4"])
    def test_takes_bivector_rows_in_r3(self, rows):
        with pytest.raises(ValueError, match=re.escape(f"rows (N, 3) in R^3, got {rows.shape}")):
            plane_from_bivector(rows)


class TestDecomposability:
    """A row is decomposable when it is the wedge of p vectors; at p = 2 the Pluecker relations test it."""

    def test_bivectors_in_r3(self, rng):
        # every nonzero bivector in R^3 is the wedge of its plane's frame
        u = rng.standard_normal((20, 3))
        assert same_class(minors(plane_from_bivector(u)), u)

    def test_nondecomposable_in_r4(self):
        assert pluecker([1.0, 0.0, 0.0, 0.0, 0.0, 1.0], 4).tolist() == [1.0]  # e12 + e34

    @pytest.mark.parametrize("axes, decomposable", [
        (((1, 2), (3, 5)), False),  # e12 + e35: its one nonzero relation is on axes (1, 2, 3, 5)
        (((1, 2), (1, 3)), True),  # e12 + e13 = e1 ^ (e2 + e3)
    ])
    def test_relations_off_the_first_four_axes_in_r5(self, axes, decomposable):
        pos = index_position(5, 2)
        coords = np.zeros(10)
        coords[[pos[a] for a in axes]] = 1.0
        assert (not np.any(pluecker(coords, 5))) is decomposable

    def test_wedges_in_r4_are_decomposable(self, rng):
        for u in decomposable_rows(rng, 4, 2, 50):
            assert 2.0 * np.linalg.norm(pluecker(u, 4)) <= 1e-9 * np.linalg.norm(u) ** 2

    def test_pluecker_relation_on_wedges(self, rng):
        position = index_position(4, 2)
        for u in minors(rng.standard_normal((50, 4, 2))):
            def c(axes):
                return u[position[axes]]

            rel = c((1, 2)) * c((3, 4)) - c((1, 3)) * c((2, 4)) + c((1, 4)) * c((2, 3))
            assert abs(rel) <= 1e-12 * max(1.0, float(u @ u))


class TestGrassmannPoint:
    """An oriented p-plane is the class of its rows under positive scaling: rows compare as unit rows."""

    def test_positive_scaling_is_same_class(self):
        frame = np.random.default_rng(6).standard_normal((3, 2))
        y = minors(frame)
        assert same_class(y, 2.0 * y)
        assert same_class(y, minors(frame @ np.array([[2.0, 1.0], [0.0, 3.0]])))  # a change of basis with det > 0

    def test_orientation_distinguishes(self):
        frame = np.random.default_rng(7).standard_normal((3, 2))
        y = minors(frame)
        assert not same_class(y, -y)
        assert not same_class(y, minors(frame[:, ::-1]))  # the same plane with the other orientation

    def test_distinct_directions(self):
        assert not same_class([1.0, 0.0, 0.0], [1.0, 1e-3, 0.0], tol=1e-6)

    def test_zero_rejected(self):
        # linearly dependent vectors wedge to the zero row, which represents no plane
        u = np.array([1.0, 2.0, 3.0])
        zero = wedge(u, 2.0 * u)
        assert zero.tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ZeroSectionError):
            plane_from_bivector(zero[None])


class TestFiberElements:
    """A fiber element is a row on the increasing-index basis."""

    def test_component_folds_signs(self):
        frame = np.column_stack([np.eye(3)[0], 3.0 * np.eye(3)[2]])  # e1 ^ 3 e3
        u = minors(frame)
        assert u.tolist() == [0.0, 3.0, 0.0]
        assert u[index_position(3, 2)[1, 3]] == 3.0
        assert det(frame[[2, 0]]) == -3.0  # the minor on the permuted axes (3, 1)
        assert det(frame[[0, 0]]) == 0.0  # and on a repeated axis

    def test_cyclic_triple_roundtrip(self):
        u = cyclic_row(1.0, -2.0, -3.0)[0]
        assert u.tolist() == [1.0, 3.0, -2.0]
        assert (u[0], u[2], -u[1]) == (1.0, -2.0, -3.0)

    def test_immutability(self):
        # the index tables are cached and shared by every caller, so none can be written through
        rows = _minor_rows(4, 2)
        with pytest.raises(ValueError):
            rows[0, 0] = 5
        assert isinstance(multi_indices(4, 2), tuple)

    def test_nonfinite_rejected(self):
        # a NaN or infinite coordinate would give a NaN frame, not a plane
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                plane_from_bivector(np.array([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]]))


class TestRandomDecomposable:
    """The blocked sampler asked for one row at a time against a draw-by-draw loop."""

    @pytest.mark.parametrize("n, p", [(3, 2), (4, 2), (5, 3)])
    @pytest.mark.parametrize("fraction", [None, 0.25, 0.3])
    def test_equals_the_draw_by_draw_loop(self, n, p, fraction):
        rng, reference_rng = np.random.default_rng(n + p), np.random.default_rng(n + p)
        for _ in range(40):
            chart = None if fraction is None else 0
            y = decomposable_rows(rng, n, p, 1, chart, fraction or 0.0)
            expected = None
            while expected is None:
                expected = draw_decomposable(reference_rng, n, p, chart, fraction or 0.0)
            assert y.tobytes() == expected[None].tobytes()
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.time_limit(10)
    def test_unreachable_fraction_raises_at_the_shared_bound(self):
        # no coordinate exceeds the norm: every draw is rejected, and 1101 > 100 * 1 + 1000 ends the loop
        with pytest.raises(RuntimeError, match="rejected 1101 draws for 1 rows"):
            decomposable_rows(np.random.default_rng(0), 3, 2, 1, 0, 1.5)

    def test_negative_count_raises_naming_it(self):
        with pytest.raises(ValueError, match="count must be at least 0, got -2"):
            decomposable_rows(np.random.default_rng(0), 3, 2, -2)


def short_axis_rows(rng, shape):
    """Entries of magnitude 1e-8 .. 1e8 and either sign, about a third of them +-0.0, +-inf or NaN;
    the first five rows are all -0.0."""
    a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    special = rng.random(shape) < 0.3
    a[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
    a[:5] = -0.0
    return a


def assert_same_bits(got, want):
    assert (np.shape(got), np.result_type(got)) == (np.shape(want), np.result_type(want))
    assert np.array_equal(got, want, equal_nan=True)
    # IEEE 754 leaves the sign of a NaN result open, and numpy's own loops differ in it between layouts
    signed = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[signed], np.signbit(want)[signed])


# the reduced axis last, or in the middle with a trailing axis of 3, as the action kernels reduce
LAYOUTS = {"last": ((), -1), "middle": ((3,), 1)}


class TestShortAxisReduce:
    """_reduce against op.reduce: bit for bit, signed zeros included, below 8 entries and through numpy above."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("op", [np.add, np.multiply], ids=lambda op: op.__name__)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf and 0 * inf make NaN on purpose
    def test_arithmetic_matches_numpy(self, op, layout, length):
        trailing, axis = LAYOUTS[layout]
        rng = np.random.default_rng(length)
        for rows in (0, 400):
            a = short_axis_rows(rng, (rows, length, *trailing))
            assert_same_bits(_reduce(op, a, axis), op.reduce(a, axis=axis))
        if layout == "last":  # one point (length,), as a graph map takes it
            assert_same_bits(_reduce(op, a[5], -1), op.reduce(a[5], axis=-1))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("op", [np.logical_and, np.logical_or], ids=lambda op: op.__name__)
    def test_logical_matches_numpy(self, op, layout, length):
        trailing, axis = LAYOUTS[layout]
        rng = np.random.default_rng(length)
        for rows in (0, 400):
            a = rng.random((rows, length, *trailing)) < 0.8
            a[:5], a[5:10] = True, False
            assert_same_bits(_reduce(op, a, axis), op.reduce(a, axis=axis))
