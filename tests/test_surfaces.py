"""Discretized surfaces: tangent frames, the three actions, convergence."""

import gc
import math
import re
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    DegenerateCellError,
    GraphSurface,
    HomogeneousLagrangian,
    OrientationError,
    ParametricGrid,
    TotalSpaceChart,
    ZeroSectionError,
    area_lagrangian,
    convergence_rows,
    graph_action,
    graph_area_density,
    graph_lift,
    index_position,
    minimal_surface_density,
    theta,
)
from multisymp import surfaces
from multisymp.exterior import minors
from multisymp.surfaces import _cell_frames, _check_cells, _checked_samples, _ExactSum, paired_actions

from helpers import BILINEAR_AREA_ORACLE, conformal_area, cyclic_row, graph_map, weighted_minimal_surface

# CELL_BLOCK values for the cell error tests on 4 x 4 grids: the whole grid, one row of cells per slab, and
# two rows (the first dead cells open the second slab)
SLAB_SIZES = (surfaces.CELL_BLOCK, 1, 3, 8)

SQRT14 = math.sqrt(14.0)
SQRT17 = math.sqrt(17.0)  # Gram area of the graph of (2x1+x2, x1-x2) over the unit square


def plane_surface(res):
    return GraphSurface(f=lambda s: np.stack([2.0 * s[..., 0] + 3.0 * s[..., 1]], axis=-1),
                        domain=[(0, 1), (0, 1)], resolution=res, p=2, n=3)


def bilinear_surface(res):
    return GraphSurface(f=lambda s: np.stack([s[..., 0] * s[..., 1]], axis=-1),
                        domain=[(0, 1), (0, 1)], resolution=res, p=2, n=3)


def flat_surface(res):
    return GraphSurface(f=lambda s: np.zeros((len(s), 1)), domain=[(0, 1), (0, 1)], resolution=res, p=2, n=3)


def cell_pvector(grid, cell):
    """The tangent p-vector row (C(n,p),) and the base point at one cell's center, from the frames of every cell."""
    frames, bases = _cell_frames(grid.values, grid.spacing)
    flat = np.ravel_multi_index(cell, grid.resolution)
    return minors(frames)[flat], bases[flat]


class TestTangentPVector:
    def test_plane_graph_everywhere(self):
        grid = plane_surface(8).to_grid()
        for cell in ((0, 0), (3, 5), (7, 7)):
            y, base = cell_pvector(grid, cell)
            assert y == pytest.approx(cyclic_row(1.0, -2.0, -3.0)[0], abs=1e-12)

    def test_flat_graph(self):
        y, base = cell_pvector(flat_surface(4).to_grid(), (1, 2))
        assert y == pytest.approx(cyclic_row(1.0, 0.0, 0.0)[0], abs=1e-15)

    def test_bilinear_center(self):
        # cell (2, 2) of a 5-cell grid is centered at (0.5, 0.5); the corner
        # scheme is exact for bilinear maps
        y, base = cell_pvector(bilinear_surface(5).to_grid(), (2, 2))
        assert y == pytest.approx(cyclic_row(1.0, -0.5, -0.5)[0], abs=1e-12)
        assert base == pytest.approx([0.5, 0.5, 0.25], abs=1e-12)

    def test_degenerate_cell(self, area3):
        grid = ParametricGrid(
            p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4,
            mapping=lambda s: np.stack([s[..., 0], np.zeros(len(s)), np.zeros(len(s))], axis=-1))
        assert not np.any(cell_pvector(grid, (0, 0))[0])
        with pytest.raises(DegenerateCellError) as excinfo:
            paired_actions(area3, grid)
        assert excinfo.value.cell == (0, 0)


def zero_row_case(case, width):
    """A fiber or cell row of the named case: +0.0 except where the case says."""
    row = np.zeros(width)
    if case == "all -0.0":
        row[:] = -0.0
    elif case == "+0.0 and -0.0":
        row[::2] = -0.0
    else:
        row[width // 2] = {"only 5e-324": 5e-324, "a NaN": np.nan, "an inf": np.inf, "a -inf": -np.inf}[case]
    return row


class TestZeroRowVerdicts:
    """_rows and _check_cells call a row zero exactly when every entry == 0.0, on both sides of 8 entries."""

    CASES = {"all -0.0": True, "+0.0 and -0.0": True, "only 5e-324": False, "a NaN": False, "an inf": False,
             "a -inf": False}

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)], ids=lambda s: f"{s[0]}{s[1]}")
    @pytest.mark.parametrize("case", list(CASES))
    def test_zero_row_verdicts(self, case, shape):
        n, p = shape
        L = area_lagrangian(n, p)
        rows = np.ones((2**p, L.fiber_dim))
        rows[2] = zero_row_case(case, L.fiber_dim)
        assert bool(np.all(rows[2] == 0.0)) == self.CASES[case]
        if self.CASES[case]:
            with pytest.raises(ZeroSectionError):
                L._rows(np.zeros(n), rows)
        else:
            L._rows(np.zeros(n), rows)
        grid = ParametricGrid(p=p, n=n, domain=[(0, 1)] * p, resolution=2, mapping=lambda s: np.zeros((len(s), n)))
        if self.CASES[case]:
            with pytest.raises(DegenerateCellError) as excinfo:
                _check_cells(rows, grid, L)
            assert excinfo.value.cell == grid.cell_index(2)
        else:
            _check_cells(rows, grid, L)


def exact_sum(values, action, chunks=()):
    """The _ExactSum of a 1-d array, added in one piece or split before each index of ``chunks``."""
    total = _ExactSum(action)
    for part in np.split(values, list(chunks)):
        total.add(part)
    return total.value()


def exact_sum_hex(values):
    """The exact sum of the values as float.hex, checking that the input array is left as it was."""
    arr = np.array(values, dtype=float)
    before = arr.copy()
    try:
        return exact_sum(arr, "test").hex()
    finally:
        assert np.array_equal(arr, before) and np.array_equal(np.signbit(arr), np.signbit(before))


def correctly_rounded_hex(values):
    """The exact rational sum, rounded once (int / int is correctly rounded); OverflowError beyond the range."""
    return float(sum(map(Fraction, values), Fraction(0))).hex()


# a mantissa of 1 to 53 bits times a power of two, from the smallest subnormal to near the largest float
SCALED_FLOATS = st.builds(math.ldexp, st.integers(-(2**53 - 1), 2**53 - 1), st.integers(-1074, 971))


def with_cancellation(draw_values):
    """Some of the values again, negated, and all in a drawn order."""
    return draw_values.flatmap(lambda v: st.permutations(v + [-x for x in v[::2]]))


class TestExactSum:
    """surfaces._ExactSum equals math.fsum bit for bit, compared by float.hex."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
        st.lists(SCALED_FLOATS, max_size=40),
        with_cancellation(st.lists(SCALED_FLOATS, max_size=30)),
        with_cancellation(st.lists(st.floats(-1e3, 1e3), max_size=30)),
    ))
    def test_matches_fsum(self, values):
        try:
            want = math.fsum(values).hex()
        except OverflowError:  # fsum's overflow, intermediate or final: the exact sum rounded once decides
            try:
                want = correctly_rounded_hex(values)
            except OverflowError:
                with pytest.raises(OverflowError):
                    exact_sum_hex(values)
                return
        assert exact_sum_hex(values) == want == correctly_rounded_hex(values)

    @pytest.mark.parametrize("values", [
        [1.0, 2.0**-53],  # a tie, to even: 1.0
        [1.0 + 2.0**-52, 2.0**-53],  # a tie, to even: up
        [1.0, 2.0**-53, 2.0**-106],  # just above the tie
        [1.0, 2.0**-53, -(2.0**-106)],  # just below it
        [2.0**-53, 1.0, -(2.0**-106), 2.0**-53],
        [1e100, 1.0, -1e100],
        [0.1] * 10 + [-1.0],
        [1e16, 1.0, -1e16, 1.0, 3e-300],
        [5e-324] * 7,
        [5e-324, -1e-323, 2.2250738585072014e-308, -2.225073858507201e-308],
        [1.7e308, -1.6e308, 1e292, 5e-324],
        [1.7976931348623157e308, -1.7976931348623157e308, 1e-300],
        [2.0**1000, 2.0**-1000, -(2.0**1000)],  # a spread over 2**2000
        [2.0**1000, 3.0, 2.0**-1000, 5e-324],
        [-0.0, -0.0, -0.0],  # fsum gives +0.0
        [-0.0],
        [1.0, -1.0],
        [],
    ])
    def test_fixed_cases(self, values):
        assert exact_sum_hex(values) == math.fsum(values).hex() == correctly_rounded_hex(values)

    @pytest.mark.parametrize("size", [1, 2, 3, 4095, 4096, 4097, 2**16 + 1])
    def test_sizes_across_the_slice_widths(self, size):
        # w = 53 - size.bit_length() changes between 2 and 3, at 4096 and at 2**16: all entries
        # at the largest mantissa below the top power of two fill each slice to its bound
        rng = np.random.default_rng(size)
        for values in (np.full(size, 1.0 - 2.0**-53), np.full(size, -(2.0**100 - 2.0**47)),
                       rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size),
                       rng.standard_normal(size) * 1e-5 * rng.random(size)):
            assert exact_sum_hex(values) == math.fsum(values.tolist()).hex()

    @pytest.mark.parametrize("size", [3 * 16384 + 5, 2 * 16384])
    def test_any_split_into_adds_gives_the_same_bits(self, size):
        # adds of one entry, of four slabs and of more, at any offset: the total is exact until value rounds
        # it once
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-200, 200, size)
        values[::7] *= -1e-300
        want = math.fsum(values.tolist()).hex()
        for chunks in ([], [1, 2, 16384, 16385], [16381, 2 * 16384 + 4], [5, size - 1],
                       np.sort(rng.choice(size, 40, replace=False))):
            assert exact_sum(values, "test", chunks).hex() == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises_naming_the_action(self, bad):
        values = np.array([1.0, bad, -2.0])
        with pytest.raises(ArithmeticError, match="non-finite cell contribution in the graph action") as exc:
            exact_sum(values, "graph")
        assert exc.type is ArithmeticError
        # found in any add, and raised only by value
        with pytest.raises(ArithmeticError, match="graph action"):
            exact_sum(np.concatenate([values, np.ones(2 * 16384)]), "graph", [1, 2, 16385])

    def test_sum_beyond_the_float_range_raises_overflow(self):
        values = [1.7e308, 1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(values)
        with pytest.raises(OverflowError):
            exact_sum(np.array(values), "test")
        with pytest.raises(OverflowError):
            exact_sum(np.array([-1.7e308, -1.0e308]), "test")

    def test_intermediate_overflow_returns_the_finite_sum(self):
        # fsum reports an "intermediate overflow" here although the exact sum is finite
        values = [1e308, 1e308, -1e308]
        with pytest.raises(OverflowError, match="intermediate overflow"):
            math.fsum(values)
        assert exact_sum_hex(values) == (1e308).hex()


class TestLagrangianAction:
    def test_flat_unit_square(self, area3):
        assert paired_actions(area3, flat_surface(8).to_grid())[0] == pytest.approx(1.0, abs=1e-14)

    def test_plane_sqrt14(self, area3):
        action = paired_actions(area3, plane_surface(64).to_grid())[0]
        assert abs(action - SQRT14) <= 1e-8

    def test_bilinear_against_midpoint_oracle(self, area3):
        action = paired_actions(area3, bilinear_surface(256).to_grid())[0]
        assert abs(action - BILINEAR_AREA_ORACLE) <= 1e-6

    def test_reparametrization_invariance(self, area3):
        def phi(s):
            return np.stack([s[..., 0], s[..., 1], np.sin(s[..., 0]) * s[..., 1]], axis=-1)

        def phi_stretched(t):
            return phi(np.stack([(t[..., 0] - 1.0) / 2.0, (t[..., 1] + 3.0) * 2.0], axis=-1))

        g1 = ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=32, mapping=phi)
        g2 = ParametricGrid(p=2, n=3, domain=[(1, 3), (-3, -2.5)], resolution=32, mapping=phi_stretched)
        a1, a2 = paired_actions(area3, g1)[0], paired_actions(area3, g2)[0]
        assert abs(a1 - a2) <= 1e-9

    def test_orientation_error_reports_cell(self, minimal_lift3):
        grid = ParametricGrid(
            p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4,
            mapping=lambda s: np.stack([-s[..., 0], s[..., 1], np.zeros(len(s))], axis=-1))
        with pytest.raises(OrientationError) as excinfo:
            paired_actions(minimal_lift3, grid)[0]
        assert "cell" in str(excinfo.value)

    def test_off_chart_cell_names_the_chart_coordinate(self, minimal_lift3, monkeypatch):
        grid = ParametricGrid(
            p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4,
            mapping=lambda s: np.stack([-s[..., 0], s[..., 1], np.zeros(len(s))], axis=-1))
        for block in SLAB_SIZES:
            monkeypatch.setattr(surfaces, "CELL_BLOCK", block)
            with pytest.raises(OrientationError,
                               match=r"cell \(0, 0\) is off the chart of .*: fiber coordinate 0 must be"):
                paired_actions(minimal_lift3, grid)[0]

    @pytest.mark.parametrize("side", [0, 1], ids=["lagrangian_action", "multisymplectic_action"])
    def test_degenerate_cell_error_names_first_dead_cell(self, area3, side, monkeypatch):
        # x clamped at 0.5: the cells with x >= 0.5 have no extent along x
        grid = ParametricGrid(
            p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4,
            mapping=lambda s: np.stack([np.minimum(s[..., 0], 0.5), s[..., 1], np.zeros(len(s))], axis=-1))
        for block in SLAB_SIZES:
            monkeypatch.setattr(surfaces, "CELL_BLOCK", block)
            with pytest.raises(DegenerateCellError) as excinfo:
                paired_actions(area3, grid)[side]
            assert excinfo.value.cell == (2, 0)

    @pytest.mark.parametrize("cap, rule, error, cell", [
        (0.25, "midpoint", DegenerateCellError, (2, 0)),
        (0.25, "gauss2", DegenerateCellError, (3, 0)),
        (0.5, "midpoint", DegenerateCellError, (3, 0)),
        (0.5, "gauss2", OrientationError, (0, 0)),
    ])
    def test_dead_cell_wins_over_off_chart_cell_of_an_earlier_slab(self, minimal_lift3, monkeypatch, cap, rule,
                                                                  error, cell):
        # x -> min(|x - 1/4|, cap) falls over the first column of cells, which is off the chart of the lift,
        # then rises, and is flat from x = 1/4 + cap on, where cells are dead.  One check per sample offset
        # names the first dead cell of the offset, else its first off-chart cell.  With cap 1/2 the first
        # gauss2 offset, at 0.21 of a cell, still sees the map rise in column 3, so its off-chart cell wins
        # over the dead cells of the later offsets.
        grid = ParametricGrid(
            p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4,
            mapping=lambda s: np.stack([np.minimum(np.abs(s[..., 0] - 0.25), cap), s[..., 1], np.zeros(len(s))], axis=-1))
        for block in SLAB_SIZES:
            monkeypatch.setattr(surfaces, "CELL_BLOCK", block)
            with pytest.raises(error, match=re.escape(f"cell {cell}")):
                paired_actions(minimal_lift3, grid, rule)

    def test_cell_errors_win_over_a_non_finite_contribution(self, monkeypatch):
        # L and its gradient are infinite on the first row of cells, so both actions are.  With the map flat
        # along x from x = 1/2 on, the cells from (2, 0) on are dead, and the first of them is named however
        # the cells fall into slabs; without dead cells, the multisymplectic action's error comes first
        def jet(xs, cs, order):
            norm, factor = np.linalg.norm(cs, axis=-1), np.where(xs[:, 0] < 0.25, np.inf, 1.0)
            return norm * factor, cs / norm[:, None] * factor[:, None]

        L = HomogeneousLagrangian(3, 2, "infinite_near_x0", jet)

        def grid(cap):
            def fn(s):
                x = np.minimum(s[:, 0], cap)
                return np.stack([x, s[:, 1], x + 2.0 * s[:, 1]], axis=-1)  # every minor nonzero where x moves

            return ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4, mapping=fn)

        for block in SLAB_SIZES:
            monkeypatch.setattr(surfaces, "CELL_BLOCK", block)  # at 1 and 3 slabs are summed before the dead cells
            with pytest.raises(DegenerateCellError) as excinfo:
                paired_actions(L, grid(0.5))
            assert excinfo.value.cell == (2, 0)
            with pytest.raises(ArithmeticError, match="non-finite cell contribution in the multisymplectic action"):
                paired_actions(L, grid(1.0))

    def test_axis_reversal_flips_tangents_but_area_unchanged(self, area3, minimal_lift3):
        fwd = bilinear_surface(8).to_grid()
        rev = ParametricGrid(
            p=2, n=3, domain=[(0, 1), (0, 1)], resolution=8,
            mapping=lambda s: np.stack([1.0 - s[..., 0], s[..., 1], (1.0 - s[..., 0]) * s[..., 1]], axis=-1))
        yf, _ = cell_pvector(fwd, (0, 0))
        yr, _ = cell_pvector(rev, (7, 0))
        assert np.allclose(yr, -yf, atol=1e-12)
        assert paired_actions(area3, rev)[0] == pytest.approx(paired_actions(area3, fwd)[0], abs=1e-12)
        with pytest.raises(OrientationError):
            paired_actions(minimal_lift3, rev)[0]


class TestBasePointAction:
    """paired_actions of the conformal area exp(a.x) |y| on a plane away from the origin, and
    graph_action of a density that reads the base point against its lift.

    On the plane z = c0 + c1 s1 + c2 s2, a.x = k0 + k1 s1 + k2 s2, and the
    action is sqrt(1 + c1^2 + c2^2) exp(k0) times the product over the axes
    of (exp(k b) - exp(k a)) / k for the interval [a, b].
    """

    # the midpoint rule's error is about (h1^2 k1^2 + h2^2 k2^2) / 24 = 4.4e-5 at 32 cells; gauss2's is 3.3e-9 at 16
    @pytest.mark.parametrize("rule, res, rel", [("midpoint", 32, 1e-4), ("gauss2", 16, 1e-8)])
    def test_actions_integrate_the_conformal_factor(self, rule, res, rel):
        a, (c0, c1, c2) = np.array([0.25, -0.5, 0.375]), (0.5, 0.25, -0.75)
        domain = [(0.5, 1.5), (-1.0, 0.25)]
        k = (a[0] + a[2] * c1, a[1] + a[2] * c2)
        exact = math.sqrt(1.0 + c1**2 + c2**2) * math.exp(a[2] * c0) * math.prod(
            (math.exp(kj * hi) - math.exp(kj * lo)) / kj for kj, (lo, hi) in zip(k, domain))
        surf = GraphSurface(f=lambda s: c0 + c1 * s[:, :1] + c2 * s[:, 1:2], domain=domain, resolution=res, p=2, n=3)
        lagrangian, multisymplectic = paired_actions(conformal_area(3, 2, a), surf.to_grid(), rule)
        assert lagrangian == pytest.approx(exact, rel=rel)
        assert multisymplectic == pytest.approx(exact, rel=rel)

    @pytest.mark.parametrize("rule", ["midpoint", "gauss2"])
    def test_graph_action_reads_the_bases_and_values(self, rule):
        # F = exp(a.s + c.f(s)) sqrt(1 + |q|^2) on an affine graph: the lift of F at the same nodes
        F = weighted_minimal_surface(3, 2, [0.25, -0.5], [0.375])
        surf = GraphSurface(f=lambda s: 0.5 + 0.25 * s[:, :1] - 0.75 * s[:, 1:2],
                            domain=[(0.5, 1.5), (-1.0, 0.25)], resolution=12, p=2, n=3)
        lagrangian, multisymplectic = paired_actions(graph_lift(F), surf.to_grid(), rule)
        assert graph_action(F, surf, rule) == pytest.approx(lagrangian, rel=1e-10)
        assert multisymplectic == pytest.approx(lagrangian, rel=1e-10)


class TestGraphAction:
    def test_constant_density(self):
        from multisymp import constant_density
        assert graph_action(constant_density(3, 2), flat_surface(8)) == pytest.approx(1.0, abs=1e-14)

    def test_plane_sqrt14(self):
        action = graph_action(minimal_surface_density(3, 2), plane_surface(64))
        assert abs(action - SQRT14) <= 1e-8

    def test_bilinear_matches_lifted_lagrangian(self, minimal_lift3):
        surf = bilinear_surface(256)
        ga = graph_action(minimal_surface_density(3, 2), surf)
        la = paired_actions(minimal_lift3, surf.to_grid())[0]
        assert abs(ga - la) <= 1e-6


def theta_cell_values(L, grid):
    """Per-cell tautological-form values on the midpoint frames (before weighting).

    Routed through the chart form evaluator, one batched call for all cells:
    the reference the batched action path is checked against.
    """
    chart = TotalSpaceChart(grid.n, grid.p)
    ((frames, coords, bases, _),) = _checked_samples(L, grid, "midpoint")
    points = chart.point(bases, L.gradient_many(bases, coords))
    lifted = np.swapaxes(chart.lift(np.swapaxes(frames, 1, 2)), 1, 2)
    return theta(chart).evaluator(points, lifted)


class TestMultisymplecticAction:
    def test_flat_unit_square(self, area3):
        assert paired_actions(area3, flat_surface(8).to_grid())[1] == pytest.approx(1.0, abs=1e-14)

    def test_plane_sqrt14(self, area3):
        action = paired_actions(area3, plane_surface(64).to_grid())[1]
        assert abs(action - SQRT14) <= 1e-8

    def test_cellwise_equality_with_lagrangian(self, minimal_lift3):
        # the dual-side integrand equals the Lagrangian one cell by cell
        grid = bilinear_surface(256).to_grid()
        frames, bases = _cell_frames(grid.values, grid.spacing)
        coords = minors(frames)
        lvals = minimal_lift3.value_many(bases, coords)
        tvals = np.einsum("ij,ij->i", minimal_lift3.gradient_many(bases, coords), coords)
        assert np.max(np.abs(tvals - lvals)) <= 1e-10
        la = paired_actions(minimal_lift3, grid)[0]
        ma = paired_actions(minimal_lift3, grid)[1]
        assert abs(ma - la) <= 1e-10 * abs(la)

    def test_batched_path_matches_form_evaluator(self, area3):
        grid = bilinear_surface(8).to_grid()
        via_form = theta_cell_values(area3, grid)
        frames, bases = _cell_frames(grid.values, grid.spacing)
        coords = minors(frames)
        batched = np.einsum("ij,ij->i", area3.gradient_many(bases, coords), coords)
        assert np.allclose(via_form, batched, atol=1e-13)


class TestGeneralP:
    def test_slope_coordinate_law_p2_n4(self):
        A = np.array([[2.0, 1.0], [1.0, -1.0]])  # A[i, j] = slope of f_j along x_i
        surf = GraphSurface(f=lambda s: np.stack([2 * s[..., 0] + s[..., 1], s[..., 0] - s[..., 1]], axis=-1),
                            domain=[(0, 1), (0, 1)], resolution=4, p=2, n=4)
        grid = surf.to_grid()
        y, _ = cell_pvector(grid, (1, 2))
        p, position = 2, index_position(4, 2)
        for i in range(1, p + 1):
            kept = tuple(k for k in range(1, p + 1) if k != i)
            for j in range(1, 3):
                expected = (-1.0) ** (p - i) * A[i - 1, j - 1]
                assert y[position[kept + (p + j,)]] == pytest.approx(expected, abs=1e-8)
        # cross-check every coordinate against wedged analytic tangents
        u1 = np.array([1.0, 0.0, A[0, 0], A[0, 1]])
        u2 = np.array([0.0, 1.0, A[1, 0], A[1, 1]])
        assert np.allclose(y, minors(np.column_stack([u1, u2])), atol=1e-8)

    def test_slope_coordinate_law_p3_n4(self):
        a = np.array([0.7, -1.3, 0.4])
        surf = GraphSurface(f=lambda s: np.stack([s @ a], axis=-1),
                            domain=[(0, 1)] * 3, resolution=3, p=3, n=4)
        y, _ = cell_pvector(surf.to_grid(), (1, 0, 2))
        p, position = 3, index_position(4, 3)
        assert y[position[1, 2, 3]] == pytest.approx(1.0, abs=1e-12)
        for i in range(1, p + 1):
            kept = tuple(k for k in range(1, p + 1) if k != i)
            expected = (-1.0) ** (p - i) * a[i - 1]
            assert y[position[kept + (4,)]] == pytest.approx(expected, abs=1e-8)
        frame = [np.concatenate([row, [a[k]]]) for k, row in enumerate(np.eye(3))]
        assert np.allclose(y, minors(np.column_stack(frame)), atol=1e-8)

    def test_plane_graph_action_equals_gram_area(self):
        # constant integrand: exact at every resolution
        L = area_lagrangian(4, 2)
        for res in (8, 16, 32):
            surf = GraphSurface(f=lambda s: np.stack([2 * s[..., 0] + s[..., 1], s[..., 0] - s[..., 1]], axis=-1),
                                domain=[(0, 1), (0, 1)], resolution=res, p=2, n=4)
            for action in (paired_actions(L, surf.to_grid())[0],
                           paired_actions(L, surf.to_grid())[1],
                           graph_action(graph_area_density(4, 2), surf)):
                assert abs(action - SQRT17) <= 1e-8

    def test_p1_curve_length(self):
        # degree-1 machinery is not hardwired to surfaces: quarter circle of
        # radius 2 has length pi
        L = area_lagrangian(3, 1)
        grid = ParametricGrid(
            p=1, n=3, domain=[(0.0, math.pi / 2)], resolution=200,
            mapping=lambda s: np.stack([2 * np.cos(s[..., 0]), 2 * np.sin(s[..., 0]), np.zeros(len(s))], axis=-1))
        assert paired_actions(L, grid)[0] == pytest.approx(math.pi, abs=1e-4)
        assert paired_actions(L, grid)[1] == pytest.approx(paired_actions(L, grid)[0], abs=1e-12)

    def test_p3_n4_triple(self):
        L = area_lagrangian(4, 3)
        F = minimal_surface_density(4, 3)
        surf = GraphSurface(f=lambda s: np.stack([0.3 * s[..., 0] - 0.7 * s[..., 1] + 0.2 * s[..., 2]], axis=-1),
                            domain=[(0, 1)] * 3, resolution=6, p=3, n=4)
        exact = math.sqrt(1.0 + 0.09 + 0.49 + 0.04)
        assert paired_actions(L, surf.to_grid())[0] == pytest.approx(exact, abs=1e-10)
        assert graph_action(F, surf) == pytest.approx(exact, abs=1e-10)
        assert paired_actions(L, surf.to_grid())[1] == pytest.approx(exact, abs=1e-10)


class TestConvergenceStudy:
    """convergence_rows on action values, one per resolution."""

    def test_plane_constant_integrand(self, area3):
        values = {res: paired_actions(area3, plane_surface(res).to_grid())[0] for res in (8, 16, 32)}
        rows = convergence_rows(values, plane_surface(4).domain, reference=SQRT14)
        for row in rows:
            assert row.error <= 1e-12
            assert row.observed_order is None  # machine level, not rated

    def test_bilinear_second_order(self, area3):
        values = {res: paired_actions(area3, bilinear_surface(res).to_grid())[0] for res in (16, 32, 64, 128)}
        rows = convergence_rows(values, bilinear_surface(4).domain, reference=BILINEAR_AREA_ORACLE)
        orders = [row.observed_order for row in rows if row.observed_order is not None]
        assert len(orders) == 3
        assert all(abs(o - 2.0) <= 0.3 for o in orders)

    def test_graph_kind(self):
        F = minimal_surface_density(3, 2)
        values = {res: graph_action(F, bilinear_surface(res)) for res in (16, 32, 64)}
        rows = convergence_rows(values, bilinear_surface(4).domain, reference=BILINEAR_AREA_ORACLE)
        orders = [row.observed_order for row in rows if row.observed_order is not None]
        assert all(abs(o - 2.0) <= 0.3 for o in orders)

    def test_without_reference_uses_finest(self, area3):
        values = {res: paired_actions(area3, bilinear_surface(res).to_grid())[0] for res in (16, 32, 64)}
        rows = convergence_rows(values, bilinear_surface(4).domain)
        assert rows[-1].error is None
        assert rows[1].error is not None

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_without_reference_rates_successive_differences(self, area3, scale):
        # each error is the distance to the next finer value, so the order is
        # not biased by treating the finest value as exact
        surf = GraphSurface(f=graph_map({"f": "bilinear", "params": {"scale": scale}}, 3, 2),
                            domain=[(0, 1), (0, 1)], resolution=4, p=2, n=3)
        values = {res: paired_actions(area3, replace(surf, resolution=res).to_grid())[0] for res in (16, 32, 64)}
        rows = convergence_rows(values, surf.domain)
        assert rows[0].error == abs(rows[0].value - rows[1].value)
        assert rows[-1].error is None
        orders = [row.observed_order for row in rows if row.observed_order is not None]
        assert orders and all(abs(o - 2.0) <= 0.3 for o in orders)


class TestQuadrature:
    def test_gauss2_close_to_oracle(self, area3):
        action = paired_actions(area3, bilinear_surface(16).to_grid(), "gauss2")[0]
        assert abs(action - BILINEAR_AREA_ORACLE) <= 5e-7

    def test_unknown_rule(self, area3):
        surf = bilinear_surface(4)
        with pytest.raises(ValueError, match="unknown quadrature rule 'simpson'"):
            paired_actions(area3, surf.to_grid(), "simpson")[0]
        with pytest.raises(ValueError, match="unknown quadrature rule 'simpson'"):
            graph_action(minimal_surface_density(3, 2), surf, "simpson")

    def test_weights_sum_to_cell_volume(self):
        # tensor-Gauss weights per cell add up to the cell volume
        surf = bilinear_surface(4)
        from multisymp.surfaces import _quadrature_rule
        samples, weight = _quadrature_rule(surf, "gauss2")
        assert len(samples) * weight * math.prod(surf.resolution) == pytest.approx(1.0)


class TestGridValidation:
    def test_graph_surface_is_its_own_grid(self):
        surf = bilinear_surface(4)
        assert isinstance(surf, ParametricGrid) and surf.to_grid() is surf
        assert surf.mapping(np.array([[0.5, 0.25]])).tolist() == [[0.5, 0.25, 0.125]]
        # the derived map is no field: equality and hashing go by f, and replace samples the same graph
        other = replace(surf, resolution=4)
        assert other == surf and hash(other) == hash(surf) and other.mapping != surf.mapping
        assert np.array_equal(other.values, surf.values)
        assert "mapping" not in repr(surf)

    def test_graph_surface_is_freed_without_the_cycle_collector(self):
        surf = bilinear_surface(4)
        paired_actions(area_lagrangian(3, 2), surf)
        alive = weakref.ref(surf)
        gc.disable()
        try:
            del surf
            assert alive() is None
        finally:
            gc.enable()

    def test_dimensions_must_match(self, area3):
        surf = bilinear_surface(4)
        with pytest.raises(ValueError, match="grid and Lagrangian dimensions do not match"):
            paired_actions(area_lagrangian(4, 2), surf)
        with pytest.raises(ValueError, match="surface and density dimensions do not match"):
            graph_action(minimal_surface_density(4, 2), surf)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            GraphSurface(f=lambda s: np.zeros((len(s), 1)), domain=[(0, 1), (0, 1)], resolution=1, p=2, n=3)

    def test_domain_length(self):
        with pytest.raises(ValueError):
            GraphSurface(f=lambda s: np.zeros((len(s), 1)), domain=[(0, 1)], resolution=4, p=2, n=3)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            GraphSurface(f=lambda s: np.zeros((len(s), 1)), domain=[(0, 1), (1, 1)], resolution=4, p=2, n=3)

    @pytest.mark.parametrize("interval", [(0, np.nan), (0, np.inf), (-np.inf, 0)], ids=["nan", "inf", "-inf"])
    def test_nonfinite_bound(self, interval):
        with pytest.raises(ValueError, match="domain"):
            ParametricGrid(p=2, n=3, domain=[interval, (0, 1)], resolution=4, mapping=lambda s: s)

    def test_nonintegral_resolution(self):
        # rejected, not truncated to (4, 2)
        with pytest.raises(ValueError, match="resolution"):
            ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=(4, 2.7), mapping=lambda s: s)

    @pytest.mark.parametrize("count", [np.int64(4), np.int32(4), 4.0])
    def test_integral_scalar_resolution(self, count):
        grid = ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=count, mapping=lambda s: s)
        assert grid.resolution == (4, 4) and all(type(r) is int for r in grid.resolution)

    # the node values are sampled where they are read: by values, and slab by slab in the action pass

    def test_values_shape(self, area3):
        grid = ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4, mapping=lambda s: np.zeros((len(s), 2)))
        for read in (lambda: grid.values, lambda: paired_actions(area3, grid)):
            with pytest.raises(ValueError, match=re.escape("surface map must map points of shape (N, p) to (N, 3)")):
                read()

    def test_nonfinite_values(self, area3, monkeypatch):
        # one bad node, in the last row of nodes: the pass finds it in its last slab
        for bad in (np.inf, np.nan):
            def fn(s):
                return np.stack([s[:, 0], s[:, 1], np.where((s[:, 0] == 1.0) & (s[:, 1] == 0.5), bad, 0.0)], axis=-1)

            grid = ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4, mapping=fn)
            with pytest.raises(ValueError, match="node values must be finite"):
                grid.values
            for block in SLAB_SIZES:
                monkeypatch.setattr(surfaces, "CELL_BLOCK", block)
                with pytest.raises(ValueError, match="node values must be finite"):
                    paired_actions(area3, grid)


class TestGraphFunctionRegistry:
    def test_flat_plane_bilinear(self):
        flat = graph_map({"f": "flat"}, 3, 2)
        assert flat(np.array([0.3, 0.4])).tolist() == [0.0]
        plane = graph_map({"f": "plane", "params": {"coefficients": [2.0, 3.0]}}, 3, 2)
        assert plane(np.array([1.0, 1.0])).tolist() == [5.0]
        bil = graph_map({"f": "bilinear"}, 3, 2)
        assert bil(np.array([0.5, 0.4]))[0] == pytest.approx(0.2)

    def test_polynomial(self):
        fn = graph_map({"f": "polynomial", "params": {"terms": [
            {"coeff": 2.0, "powers": [1, 1], "component": 1},
            {"coeff": -1.0, "powers": [2, 0], "component": 2},
        ]}}, 4, 2)
        out = fn(np.array([2.0, 3.0]))
        assert out.tolist() == [12.0, -4.0]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            graph_map({"f": "sphere"}, 3, 2)
