"""Batched graph maps and sampling against per-point reference loops.

The references below evaluate every map one point at a time (as a batch of
one) and every density through its scalar ``fn``; the batched code must
agree with them to 1e-14 relative.  The cell frames and the paired actions
are held to their references bit for bit.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    GraphSurface,
    ParametricGrid,
    area_lagrangian,
    constant_density,
    graph_action,
    graph_area_density,
    graph_lift,
    minimal_surface_density,
    paired_actions,
)
from multisymp import surfaces
from multisymp.cli import _graph_map, cmd_action
from multisymp.surfaces import _cell_frames, _checked_samples

REL = 1e-14
DIMS = [(3, 2), (4, 2), (5, 3)]
RULES = ["midpoint", "gauss2"]
DENSITIES = [constant_density, minimal_surface_density, graph_area_density]


def builtin_maps(p, n):
    """Every built-in graph map that applies at (n, p), with fixed parameters."""
    codim = n - p
    rng = np.random.default_rng(1000 * n + p)
    maps = {
        "flat": _graph_map({"f": "flat"}, n, p),
        "plane": _graph_map({"f": "plane", "params": {"coefficients": rng.uniform(-1, 1, (p, codim)).tolist()}}, n, p),
        "polynomial": _graph_map({"f": "polynomial", "params": {"terms": [
            {"coeff": 0.7, "powers": [1] * p, "component": 1},
            {"coeff": -0.4, "powers": [2] + [0] * (p - 1), "component": codim},
            {"coeff": 0.3, "powers": [0] * (p - 1) + [3], "component": 1},
        ]}}, n, p),
    }
    if codim == 1:
        maps["bilinear"] = _graph_map({"f": "bilinear", "params": {"scale": 1.3}}, n, p)
    return maps


def pointwise(fn):
    """A batched map evaluated one point at a time, as batches of one."""
    return lambda s: np.array([np.asarray(fn(row[None, :]), dtype=float)[0] for row in s])


def pointwise_grid(fn, domain, resolution, p, n):
    """The node values from one call per node, in itertools.product order, and a grid of the per-point map."""
    axes = [np.linspace(lo, hi, resolution + 1) for lo, hi in domain]
    values = pointwise(fn)(np.array(list(itertools.product(*axes))))
    values = values.reshape((resolution + 1,) * p + (n,))
    return values, ParametricGrid(p=p, n=n, domain=domain, resolution=resolution, mapping=pointwise(fn))


def tabulated(values, domain):
    """A grid whose map returns the given node values (r_1+1, ..., r_p+1, n) at the nodes."""
    *nodes, n = values.shape
    res = tuple(k - 1 for k in nodes)
    lows = np.array([lo for lo, _ in domain])
    h = np.array([(hi - lo) / r for (lo, hi), r in zip(domain, res)])
    return ParametricGrid(p=len(res), n=n, domain=domain, resolution=res,
                          mapping=lambda s: values[tuple(np.rint((s - lows) / h).astype(int).T)])


def graph_action_reference(F, surf, rule):
    """graph_action with 1 + 2p map calls per sample and the density on a batch of one."""
    p, codim = surf.p, surf.n - surf.p
    h = np.array([(hi - lo) / r for (lo, hi), r in zip(surf.domain, surf.resolution)])
    lows = np.array([lo for lo, _ in surf.domain])
    f = pointwise(surf.f)
    if rule == "midpoint":
        offsets, weight = [np.full(p, 0.5)], float(np.prod(h))
    else:
        gauss = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
        offsets = [np.array(c) for c in itertools.product(gauss, repeat=p)]
        weight = float(np.prod(h)) / 2.0**p
    contributions = []
    for offset in offsets:
        for cell in itertools.product(*[range(r) for r in surf.resolution]):
            s = lows + (np.array(cell) + offset) * h
            slopes = np.empty((p, codim))
            for axis in range(p):
                step = np.zeros(p)
                step[axis] = 0.5 * h[axis]
                slopes[axis] = (f(np.array([s + step]))[0] - f(np.array([s - step]))[0]) / h[axis]
            contributions.append(weight * F.jet(s[None], f(np.array([s])), slopes[None], 0)[0][0])
    return math.fsum(contributions)


def cell_frames_reference(grid, cell=None):
    """_cell_frames as a corner loop adding sign * corner into (num_cells, n, p) frames, axis by axis."""
    p, n = grid.p, grid.n
    values = grid.values if cell is None else grid.values[tuple(slice(c, c + 2) for c in cell)]
    res = tuple(k - 1 for k in values.shape[:-1])
    corners = np.indices((2,) * p).reshape(p, -1).T
    num_cells = math.prod(res)
    frames = np.zeros((num_cells, n, p))
    bases = np.zeros((num_cells, n))
    for offset in corners:
        block = values[tuple(slice(o, o + r) for o, r in zip(offset, res))]
        flat = block.reshape(num_cells, n)
        bases += flat
        for axis in range(p):
            sign = 1.0 if offset[axis] == 1 else -1.0
            frames[:, :, axis] += sign * flat
    bases /= len(corners)
    frames /= (len(corners) / 2.0) * grid.spacing[None, None, :]
    return frames, bases


def per_side_actions_reference(L, grid, rule):
    """The Lagrangian and multisymplectic actions as two passes, each summing its own contributions."""
    lagrangian, multisymplectic = [], []
    for _, coords, bases, weight in _checked_samples(L, grid, rule):
        lagrangian.extend((weight * L.value_many(bases, coords)).tolist())
    for _, coords, bases, weight in _checked_samples(L, grid, rule):
        vals = np.einsum("ij,ij->i", L.gradient_many(bases, coords), coords)
        multisymplectic.extend((weight * vals).tolist())
    return math.fsum(lagrangian), math.fsum(multisymplectic)


def same_bits(a, b):
    """Equal shapes and equal bytes, so a sign of zero counts."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def close(batched, reference):
    return abs(batched - reference) <= REL * abs(reference)


def cases():
    for n_p, rule in itertools.product(DIMS, RULES):
        n, p = n_p
        for name in builtin_maps(p, n):
            yield pytest.param(n, p, name, rule, id=f"{n}{p}-{name}-{rule}")


@pytest.mark.parametrize("n, p, name, rule", list(cases()))
def test_batched_paths_match_pointwise_references(n, p, name, rule, monkeypatch):
    fn = builtin_maps(p, n)[name]
    res = 6 if p == 2 else 3
    domain = tuple((0.1 * k, 1.0 + 0.2 * k) for k in range(p))
    surf = GraphSurface(f=fn, domain=domain, resolution=res, p=p, n=n)
    ref_values, ref_grid = pointwise_grid(surf.map, domain, res, p, n)
    scale = np.max(np.abs(ref_values))
    lagrangians = (area_lagrangian(n, p), graph_lift(minimal_surface_density(n, p)))
    ref_pairs = [paired_actions(L, ref_grid, rule) for L in lagrangians]
    ref_graphs = [graph_action_reference(density(n, p), surf, rule) for density in DENSITIES]

    # the whole grid in one slab, then one row of cells per slab
    for block in (surfaces.CELL_BLOCK, 3):
        monkeypatch.setattr(surfaces, "CELL_BLOCK", block)
        grid = surf.to_grid()
        assert np.max(np.abs(grid.values - ref_values)) <= REL * scale
        for L, ref_pair in zip(lagrangians, ref_pairs):
            pair = paired_actions(L, grid, rule)
            assert all(close(a, b) for a, b in zip(pair, ref_pair))
            # one pass serves both sums, bit for bit those of two separate passes
            assert tuple(v.hex() for v in pair) == tuple(v.hex() for v in per_side_actions_reference(L, grid, rule))
        for density, ref_graph in zip(DENSITIES, ref_graphs):
            assert close(graph_action(density(n, p), surf, rule), ref_graph)


@pytest.mark.parametrize("n, p", DIMS)
def test_cell_slabs_change_no_bit(n, p, monkeypatch):
    # more cells than one slab: the split into row slabs, two rows at CELL_BLOCK = 7 for (3,2) and (4,2),
    # must not move a bit of the node values or of any action
    res = (5, 3) if p == 2 else (3, 2, 2)
    domain = tuple((0.1 * k, 1.0 + 0.2 * k) for k in range(p))
    surf = GraphSurface(f=builtin_maps(p, n)["polynomial"], domain=domain, resolution=res, p=p, n=n)
    lagrangians = (area_lagrangian(n, p), graph_lift(minimal_surface_density(n, p)))

    def outputs():
        grid = surf.to_grid()
        actions = [paired_actions(L, grid, rule) for L in lagrangians for rule in RULES]
        graphs = [graph_action(density(n, p), surf, rule) for density in DENSITIES for rule in RULES]
        return grid.values.tobytes(), np.array(actions).tobytes(), np.array(graphs).tobytes()

    whole = outputs()
    for block in (1, 7):
        monkeypatch.setattr(surfaces, "CELL_BLOCK", block)
        assert len(surfaces._row_slabs(res)) > 1
        assert outputs() == whole


def test_action_working_set_is_bounded():
    # numpy registers its buffers with tracemalloc, so the peak counts bytes whatever the machine.  The bound
    # sits between whole-grid batches, about 224 bytes per cell, and the slabs of the pass, about 5 here
    res = 512
    F = minimal_surface_density(3, 2)
    surf = GraphSurface(f=_graph_map({"f": "bilinear"}, 3, 2), domain=[(0.0, 1.0), (0.0, 2.0)], resolution=res,
                        p=2, n=3)
    L, grid = graph_lift(F), surf.to_grid()
    tracemalloc.start()
    try:
        paired_actions(L, grid)
        graph_action(F, surf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * res**2


def test_action_working_set_does_not_grow_with_resolution():
    # node rows, frames, minors, jets and contributions exist for one slab at a time, and each exact sum
    # takes a slab as it comes, so the peak of one action, its grid included, is about the same at 128 and at
    # 512; whole-grid node values and contributions held 16 MiB at 512
    F = minimal_surface_density(3, 2)
    L = graph_lift(F)

    def peak(res):
        surf = GraphSurface(f=_graph_map({"f": "bilinear"}, 3, 2), domain=[(0.0, 1.0), (0.0, 2.0)], resolution=res,
                            p=2, n=3)
        tracemalloc.start()
        try:
            paired_actions(L, surf.to_grid())
            graph_action(F, surf)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first calls fill the caches of the index layouts
    assert peak(512) <= 1.5 * peak(128)


def test_minors_gather_no_blocks_at_53():
    # the bound sits between a (cells, C(5, 3), 3, 3) gather of the minor blocks per slab, about 185 bytes per
    # cell here, and minors taken from views of the frame entries, about 71
    res = 32
    surf = GraphSurface(f=lambda s: np.stack([s[:, 0] * s[:, 1], s[:, 1] * s[:, 2]], axis=-1),
                        domain=[(0.0, 1.0)] * 3, resolution=res, p=3, n=5)
    L = area_lagrangian(5, 3)
    paired_actions(L, replace(surf, resolution=4).to_grid())  # first calls fill the caches of the index layouts
    tracemalloc.start()
    try:
        paired_actions(L, surf.to_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * res**3


def frame_grids(n, p, res):
    """A random grid with exact zeros of both signs and a constant coordinate, and a graph grid."""
    rng = np.random.default_rng(100 * n + 10 * p + sum(res))
    domain = tuple((0.1 * k, 0.8 + 0.3 * k) for k in range(p))
    values = rng.uniform(-2.0, 2.0, tuple(r + 1 for r in res) + (n,))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    values[..., -1] = 1.5  # every difference along this coordinate is an exact zero
    yield tabulated(values, domain)
    yield GraphSurface(f=builtin_maps(p, n)["polynomial"], domain=domain, resolution=res, p=p, n=n).to_grid()


FRAME_CASES = [(3, 2, (2, 2)), (3, 2, (5, 3)), (3, 2, (16, 16)), (4, 2, (3, 7)), (4, 2, (6, 6)),
               (5, 3, (2, 2, 2)), (5, 3, (2, 4, 3)), (5, 3, (5, 5, 5))]


@pytest.mark.parametrize("n, p, res", FRAME_CASES, ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_cell_frames_match_corner_loop_bit_for_bit(n, p, res):
    for grid in frame_grids(n, p, res):
        frames, bases = _cell_frames(grid.values, grid.spacing)
        ref_frames, ref_bases = cell_frames_reference(grid)
        assert frames.shape == (math.prod(res), n, p)
        assert same_bits(frames, ref_frames) and same_bits(bases, ref_bases)
        for flat in (0, len(frames) // 2, len(frames) - 1):
            cell = tuple(int(k) for k in np.unravel_index(flat, res))
            one_frames, one_base = cell_frames_reference(grid, cell)
            # one cell's corners give that cell of the whole grid, bit for bit
            assert same_bits(one_frames, frames[flat:flat + 1]) and same_bits(one_base, bases[flat:flat + 1])


@pytest.mark.parametrize("rule", RULES)
def test_action_command_makes_one_cell_pass_per_resolution(rule, monkeypatch):
    calls = []

    def counting(L, grid, rule):
        calls.append(grid.resolution)
        return _checked_samples(L, grid, rule)

    monkeypatch.setattr(surfaces, "_checked_samples", counting)
    config = {"lagrangian": {"name": "area", "n": 3, "p": 2}, "density": {"name": "minimal_surface"},
              "surface": {"f": "bilinear", "domain": [[0.0, 1.0], [0.0, 2.0]]},
              "resolutions": [8, 4, 16], "quadrature": rule}
    report, _ = cmd_action(config)
    assert calls == [(4, 4), (8, 8), (16, 16)]
    monkeypatch.undo()
    L = area_lagrangian(3, 2)
    surface = GraphSurface(f=_graph_map({"f": "bilinear"}, 3, 2), domain=[(0.0, 1.0), (0.0, 2.0)], resolution=4,
                           p=2, n=3)
    for row in report["actions"]:
        grid = replace(surface, resolution=row["resolution"]).to_grid()
        lagrangian, multisymplectic = per_side_actions_reference(L, grid, rule)
        assert (row["lagrangian"].hex(), row["multisymplectic"].hex()) == (lagrangian.hex(), multisymplectic.hex())


@pytest.mark.parametrize("n, p", DIMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_graph_maps_batch_equals_stacked_batches_of_one(n, p, data):
    rows = data.draw(st.integers(min_value=1, max_value=7))
    coords = data.draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=rows * p, max_size=rows * p))
    s = np.array(coords).reshape(rows, p)
    for name, fn in builtin_maps(p, n).items():
        batch = fn(s)
        assert batch.shape == (rows, n - p), name
        stacked = np.concatenate([fn(s[k:k + 1]) for k in range(rows)])
        scale = max(1.0, float(np.max(np.abs(stacked))))
        assert np.max(np.abs(batch - stacked)) <= REL * scale, name


class TestPointwiseMapsRejected:
    """A map written for one point must raise, not be sampled on the wrong axis."""

    # a grid samples its map where its values are read, and in the action pass

    def test_graph_surface_grid(self):
        surf = GraphSurface(f=lambda s: np.array([s[0] * s[1]]), domain=[(0, 1), (0, 1)],
                            resolution=4, p=2, n=3)
        with pytest.raises(ValueError, match="graph map"):
            surf.to_grid().values
        with pytest.raises(ValueError, match="graph map"):
            paired_actions(area_lagrangian(3, 2), surf.to_grid())

    def test_graph_action(self):
        surf = GraphSurface(f=lambda s: np.array([s[0] * s[1]]), domain=[(0, 1), (0, 1)],
                            resolution=4, p=2, n=3)
        with pytest.raises(ValueError, match="graph map"):
            graph_action(minimal_surface_density(3, 2), surf)

    def test_from_map(self):
        grid = ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4,
                              mapping=lambda s: np.array([s[0] * s[1]]))
        with pytest.raises(ValueError, match="surface map"):
            grid.values
        with pytest.raises(ValueError, match="surface map"):
            paired_actions(area_lagrangian(3, 2), grid)

    def test_gauss2_resampling(self):
        bad = ParametricGrid(p=2, n=3, domain=[(0, 1), (0, 1)], resolution=4, mapping=lambda s: s)
        with pytest.raises(ValueError, match="surface map"):
            paired_actions(area_lagrangian(3, 2), bad, "gauss2")[0]
