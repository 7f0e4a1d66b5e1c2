"""Batched graph maps and sampling against per-point reference loops.

The references below evaluate every map one point at a time (as a batch of
one) and every density through its scalar ``fn``; the batched code must
agree with them to 1e-14 relative.  The cell frames and the paired actions
are held to their references bit for bit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisymp import (
    GraphSurface,
    ParametricGrid,
    QuadratureConfig,
    area_lagrangian,
    constant_density,
    graph_action,
    graph_area_density,
    graph_lift,
    lagrangian_action,
    minimal_surface_density,
    multisymplectic_action,
    paired_actions,
    tangent_pvector,
)
from multisymp import surfaces
from multisymp.cli import _graph_map, cmd_action
from multisymp.exterior import minors
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


def from_map_reference(fn, domain, resolution, p, n):
    """ParametricGrid.from_map with one call per node, and a per-point mapping."""
    axes = [np.linspace(lo, hi, resolution + 1) for lo, hi in domain]
    values = pointwise(fn)(np.array(list(itertools.product(*axes))))
    values = values.reshape((resolution + 1,) * p + (n,))
    return ParametricGrid(p=p, n=n, domain=domain, resolution=resolution, values=values,
                          mapping=pointwise(fn))


def graph_action_reference(F, surf, quad):
    """graph_action with 1 + 2p map calls per sample and the density on a batch of one."""
    p, codim = surf.p, surf.n - surf.p
    h = np.array([(hi - lo) / r for (lo, hi), r in zip(surf.domain, surf.resolution)])
    lows = np.array([lo for lo, _ in surf.domain])
    f = pointwise(surf.f)
    if quad.rule == "midpoint":
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
            contributions.append(weight * F.fn_many(s[None], f(np.array([s])), slopes[None])[0])
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


def per_side_actions_reference(L, grid, quad):
    """The Lagrangian and multisymplectic actions as two passes, each summing its own contributions."""
    lagrangian, multisymplectic = [], []
    for _, coords, bases, weight in _checked_samples(L, grid, quad):
        lagrangian.extend((weight * L.value_many(bases, coords)).tolist())
    for _, coords, bases, weight in _checked_samples(L, grid, quad):
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
def test_batched_paths_match_pointwise_references(n, p, name, rule):
    fn = builtin_maps(p, n)[name]
    res = 6 if p == 2 else 3
    domain = tuple((0.1 * k, 1.0 + 0.2 * k) for k in range(p))
    surf = GraphSurface(f=fn, domain=domain, resolution=res, p=p, n=n)
    quad = QuadratureConfig(rule)

    grid = surf.to_grid()
    ref_grid = from_map_reference(surf.map, domain, res, p, n)
    scale = np.max(np.abs(ref_grid.values))
    assert np.max(np.abs(grid.values - ref_grid.values)) <= REL * scale

    for L in (area_lagrangian(n, p), graph_lift(minimal_surface_density(n, p))):
        assert close(lagrangian_action(L, grid, quad), lagrangian_action(L, ref_grid, quad))
        assert close(multisymplectic_action(L, grid, quad), multisymplectic_action(L, ref_grid, quad))
        # one pass serves both sums, bit for bit those of the wrappers and of two separate passes
        pair = tuple(v.hex() for v in paired_actions(L, grid, quad))
        assert pair == (lagrangian_action(L, grid, quad).hex(), multisymplectic_action(L, grid, quad).hex())
        assert pair == tuple(v.hex() for v in per_side_actions_reference(L, grid, quad))
    for density in DENSITIES:
        F = density(n, p)
        assert close(graph_action(F, surf, quad), graph_action_reference(F, surf, quad))


def frame_grids(n, p, res):
    """A random grid with exact zeros of both signs and a constant coordinate, and a graph grid."""
    rng = np.random.default_rng(100 * n + 10 * p + sum(res))
    domain = tuple((0.1 * k, 0.8 + 0.3 * k) for k in range(p))
    values = rng.uniform(-2.0, 2.0, tuple(r + 1 for r in res) + (n,))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    values[..., -1] = 1.5  # every difference along this coordinate is an exact zero
    yield ParametricGrid(p=p, n=n, domain=domain, resolution=res, values=values)
    yield GraphSurface(f=builtin_maps(p, n)["polynomial"], domain=domain, resolution=res, p=p, n=n).to_grid()


FRAME_CASES = [(3, 2, (2, 2)), (3, 2, (5, 3)), (3, 2, (16, 16)), (4, 2, (3, 7)), (4, 2, (6, 6)),
               (5, 3, (2, 2, 2)), (5, 3, (2, 4, 3)), (5, 3, (5, 5, 5))]


@pytest.mark.parametrize("n, p, res", FRAME_CASES, ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_cell_frames_match_corner_loop_bit_for_bit(n, p, res):
    for grid in frame_grids(n, p, res):
        frames, bases = _cell_frames(grid)
        ref_frames, ref_bases = cell_frames_reference(grid)
        assert frames.shape == (math.prod(res), n, p)
        assert same_bits(frames, ref_frames) and same_bits(bases, ref_bases)
        for flat in (0, len(frames) // 2, len(frames) - 1):
            cell = tuple(int(k) for k in np.unravel_index(flat, res))
            one_frames, one_base = cell_frames_reference(grid, cell)
            assert same_bits(one_frames, frames[flat:flat + 1])  # the single-cell path is the same arithmetic
            got = _cell_frames(grid, cell)
            assert same_bits(got[0], one_frames) and same_bits(got[1], one_base)
            y, base = tangent_pvector(grid, cell)
            assert same_bits(y.coords, minors(one_frames)[0]) and same_bits(base, one_base[0])


@pytest.mark.parametrize("rule", RULES)
def test_action_command_makes_one_cell_pass_per_resolution(rule, monkeypatch):
    calls = []

    def counting(L, grid, quad):
        calls.append(grid.resolution)
        return _checked_samples(L, grid, quad)

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
        lagrangian, multisymplectic = per_side_actions_reference(L, grid, QuadratureConfig(rule))
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

    def test_graph_surface_grid(self):
        surf = GraphSurface(f=lambda s: np.array([s[0] * s[1]]), domain=[(0, 1), (0, 1)],
                            resolution=4, p=2, n=3)
        with pytest.raises(ValueError, match="graph map"):
            surf.to_grid()

    def test_graph_action(self):
        surf = GraphSurface(f=lambda s: np.array([s[0] * s[1]]), domain=[(0, 1), (0, 1)],
                            resolution=4, p=2, n=3)
        with pytest.raises(ValueError, match="graph map"):
            graph_action(minimal_surface_density(3, 2), surf)

    def test_from_map(self):
        with pytest.raises(ValueError, match="surface map"):
            ParametricGrid.from_map(lambda s: np.array([s[0] * s[1]]), [(0, 1), (0, 1)], 4, p=2, n=3)

    def test_gauss2_resampling(self):
        good = ParametricGrid.from_map(lambda s: np.stack([s[:, 0], s[:, 1], s[:, 0] * s[:, 1]], axis=-1),
                                       [(0, 1), (0, 1)], 4, p=2, n=3)
        bad = ParametricGrid(p=2, n=3, domain=good.domain, resolution=good.resolution, values=good.values,
                             mapping=lambda s: s)
        with pytest.raises(ValueError, match="surface map"):
            lagrangian_action(area_lagrangian(3, 2), bad, QuadratureConfig("gauss2"))
