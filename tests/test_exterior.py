"""Exterior algebra: canonicalization, wedges, pairing, planes, decomposability."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    GrassmannPoint,
    KCovector,
    KVector,
    UnsupportedDegreeError,
    ZeroSectionError,
    canonicalize_index,
    grassmann_eq,
    is_decomposable,
    multi_indices,
    pair,
    plane_from_bivector,
    wedge_product,
    wedge_vectors,
)
from multisymp.exterior import det, minors

from helpers import cyclic


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


class TestCanonicalize:
    def test_single_transposition(self):
        idx, sign = canonicalize_index((2, 1), 3)
        assert idx == (1, 2)
        assert sign == -1

    def test_repeated_index_vanishes(self):
        idx, sign = canonicalize_index((1, 2, 2), 3)
        assert idx is None
        assert sign == 0

    def test_three_cycle(self):
        assert inversion_sign((3, 1, 2)) == 1
        idx, sign = canonicalize_index((3, 1, 2), 3)
        assert idx == (1, 2, 3)
        assert sign == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_index((0, 1), 3)
        with pytest.raises(ValueError):
            canonicalize_index((1, 4), 3)

    @given(st.permutations(list(range(1, 6))))
    def test_sign_matches_inversion_count(self, perm):
        idx, sign = canonicalize_index(tuple(perm), 5)
        assert idx == tuple(sorted(perm))
        assert sign == inversion_sign(perm)


class TestMultiIndex:
    def test_enumeration_is_lexicographic(self):
        assert multi_indices(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class TestWedgeVectors:
    def test_plane_graph_triple(self):
        # tangents of the graph of f with slopes (2, 3)
        w = wedge_vectors([np.array([1.0, 0.0, 2.0]), np.array([0.0, 1.0, 3.0])])
        assert w.as_cyclic_triple() == (1.0, -2.0, -3.0)

    def test_coordinate_basis(self):
        w = wedge_vectors([np.eye(3)[0], np.eye(3)[1]])
        assert w.coords.tolist() == [1.0, 0.0, 0.0]

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_minors_against_oracle_n4(self, vals):
        a, c, b, d = vals
        u1 = np.array([1.0, 0.0, a, c])
        u2 = np.array([0.0, 1.0, b, d])
        w = wedge_vectors([u1, u2])
        oracle = brute_minors([u1, u2], 4, 2)
        for axes, expected in oracle.items():
            assert w.component(axes) == pytest.approx(expected, abs=1e-12)

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
        frames = np.random.default_rng(10 * n + p).standard_normal((3, 5, n, p))
        singles = [[wedge_vectors(list(frame.T)).coords for frame in block] for block in frames]
        batched = minors(frames)
        assert np.array_equal(batched, np.array(singles))
        # downstream row reductions round by memory layout, so the layout is fixed too
        assert batched.flags.c_contiguous

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        u1, u2 = rng.standard_normal(3), rng.standard_normal(3)
        w12 = wedge_vectors([u1, u2])
        w21 = wedge_vectors([u2, u1])
        assert np.allclose(w12.coords, -w21.coords, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge_vectors([np.ones(3), np.ones(4)])
        with pytest.raises(ValueError):
            wedge_vectors([np.ones(2)] * 3)


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
    def test_dual_basis(self):
        alpha = KCovector(3, 2, [1.0, 0.0, 0.0])
        assert pair(alpha, KVector(3, 2, [1.0, 0.0, 0.0])) == 1.0

    def test_antisymmetry_of_arguments(self):
        alpha = KCovector(3, 2, [1.0, 0.0, 0.0])
        u = wedge_vectors([np.eye(3)[1], np.eye(3)[0]])  # e2 ^ e1
        assert pair(alpha, u) == -1.0

    def test_wedge_pairing_definition(self):
        # alpha(u1) beta(u2) - alpha(u2) beta(u1) for alpha=dx1, beta=dx3
        u1 = np.array([1.0, 0.0, 2.0])
        u2 = np.array([0.0, 1.0, 3.0])
        direct = u1[0] * u2[2] - u2[0] * u1[2]
        assert direct == 3.0
        assert pair(KCovector(3, 2, [0.0, 1.0, 0.0]), wedge_vectors([u1, u2])) == pytest.approx(3.0)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_wedge_pairing_definition_random(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        u1, u2 = rng.standard_normal(4), rng.standard_normal(4)
        direct = (a @ u1) * (b @ u2) - (a @ u2) * (b @ u1)
        alpha = KCovector(4, 2, wedge_vectors([a, b]).coords)
        assert pair(alpha, wedge_vectors([u1, u2])) == pytest.approx(direct, abs=1e-9, rel=1e-9)

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        alpha = KCovector(3, 2, rng.standard_normal(3))
        u = KVector(3, 2, rng.standard_normal(3))
        v = KVector(3, 2, rng.standard_normal(3))
        s = float(rng.standard_normal())
        combination = KVector(3, 2, u.coords + s * v.coords)
        assert pair(alpha, combination) == pytest.approx(pair(alpha, u) + s * pair(alpha, v), abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pair(KCovector(4, 2, np.zeros(6)), KVector(3, 2, [1.0, 0.0, 0.0]))


class TestPlaneFromBivector:
    def test_coordinate_plane(self):
        e12 = KVector(3, 2, [1.0, 0.0, 0.0])
        v1, v2 = plane_from_bivector(e12)
        span = np.column_stack([v1, v2])
        assert np.linalg.matrix_rank(np.column_stack([span, np.eye(3)[:, :2]])) == 2
        assert pair(KCovector(3, 2, wedge_vectors([v1, v2]).coords), e12) > 0

    def test_roundtrip_example(self):
        u = cyclic(1.0, -2.0, -3.0)
        v1, v2 = plane_from_bivector(u)
        recovered = GrassmannPoint.from_vectors([v1, v2])
        assert grassmann_eq(recovered, GrassmannPoint(u), tol=1e-9)

    def test_roundtrip_random_planes(self, rng):
        for _ in range(100):
            basis = [rng.standard_normal(3), rng.standard_normal(3)]
            u = wedge_vectors(basis)
            if u.norm() < 1e-6:
                continue
            v1, v2 = plane_from_bivector(u)
            assert grassmann_eq(GrassmannPoint.from_vectors([v1, v2]), GrassmannPoint(u), tol=1e-9)

    def test_zero_input(self):
        with pytest.raises(ZeroSectionError):
            plane_from_bivector(KVector(3, 2, np.zeros(3)))


class TestDecomposability:
    def test_bivectors_in_r3(self, rng):
        for _ in range(20):
            u = KVector(3, 2, rng.standard_normal(3))
            assert is_decomposable(u)

    def test_nondecomposable_in_r4(self):
        u = KVector(4, 2, [1.0, 0.0, 0.0, 0.0, 0.0, 1.0])  # e12 + e34
        # direct wedge oracle: u ^ u = 2 on the top basis element
        square = wedge_product(u, u)
        assert square.coords.tolist() == [2.0]
        assert not is_decomposable(u)

    def test_wedges_in_r4_are_decomposable(self, rng):
        for _ in range(50):
            u = wedge_vectors([rng.standard_normal(4), rng.standard_normal(4)])
            if u.norm() < 1e-9:
                continue
            assert is_decomposable(u)

    def test_pluecker_relation_on_wedges(self, rng):
        for _ in range(50):
            u = wedge_vectors([rng.standard_normal(4), rng.standard_normal(4)])
            c = u.component
            rel = c((1, 2)) * c((3, 4)) - c((1, 3)) * c((2, 4)) + c((1, 4)) * c((2, 3))
            assert abs(rel) <= 1e-12 * max(1.0, u.norm() ** 2)

    def test_unsupported_degree(self):
        u = KVector(6, 3, np.eye(20)[0])  # e123
        with pytest.raises(UnsupportedDegreeError):
            is_decomposable(u)

    def test_zero_rejected(self):
        with pytest.raises(ZeroSectionError):
            is_decomposable(KVector(3, 2, np.zeros(3)))


class TestGrassmannPoint:
    def test_positive_scaling_is_same_class(self):
        y = cyclic(1.0, 2.0, 3.0)
        assert grassmann_eq(GrassmannPoint(y), GrassmannPoint(y.scaled(2.0)))

    def test_orientation_distinguishes(self):
        y = cyclic(1.0, 2.0, 3.0)
        assert not grassmann_eq(GrassmannPoint(y), GrassmannPoint(-y))

    def test_distinct_directions(self):
        a = GrassmannPoint(KVector(3, 2, [1.0, 0.0, 0.0]))
        b = GrassmannPoint(KVector(3, 2, [1.0, 1e-3, 0.0]))
        assert not grassmann_eq(a, b, tol=1e-6)

    def test_zero_rejected(self):
        with pytest.raises(ZeroSectionError):
            GrassmannPoint(KVector(3, 2, np.zeros(3)))

    def test_nondecomposable_rejected_when_checked(self):
        u = KVector(4, 2, [1.0, 0.0, 0.0, 0.0, 0.0, 1.0])  # e12 + e34
        with pytest.raises(ValueError):
            GrassmannPoint(u)
        GrassmannPoint(u, check=False)  # oriented ray still representable


class TestFiberElements:
    def test_component_folds_signs(self):
        u = KVector(3, 2, [0.0, 3.0, 0.0])
        assert u.component((1, 3)) == 3.0
        assert u.component((3, 1)) == -3.0
        assert u.component((1, 1)) == 0.0

    def test_cyclic_triple_roundtrip(self):
        u = cyclic(1.0, -2.0, -3.0)
        assert u.as_cyclic_triple() == (1.0, -2.0, -3.0)
        assert u.coords.tolist() == [1.0, 3.0, -2.0]

    def test_immutability(self):
        u = KVector(3, 2, [1.0, 0.0, 0.0])
        with pytest.raises((AttributeError, ValueError)):
            u.coords[0] = 5.0
        with pytest.raises(AttributeError):
            u.n = 4

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            KVector(3, 2, [np.nan, 0.0, 0.0])
