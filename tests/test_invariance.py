"""The problem's invariances as metamorphic relations of the action pass.

L is homogeneous of degree 1 in the tangent p-vector, so the action does not
depend on the parametrization; ``area`` is invariant under isometries of the
ambient space, ``ellipsoid`` under axis permutations that permute its
weights to match, and a graph density that reads only the sum of squared
slopes under a swap of the parameter axes.  Each test maps one surface, or one set of fiber rows, by
such a transformation and compares the two results.
"""

import math

import numpy as np
import pytest

from multisymp import (
    GraphSurface,
    ParametricGrid,
    ellipsoid_lagrangian,
    graph_action,
    minimal_surface_density,
    multi_indices,
    projected_volume_lagrangian,
)
from multisymp.surfaces import paired_actions

EPS = np.finfo(float).eps
UNIT_SQUARE = [(0.0, 1.0), (0.0, 1.0)]


def warped(s):
    """A curved surface in R^4 over the unit square; its first three coordinates are a surface in R^3."""
    u, v = s[:, 0], s[:, 1]
    return np.stack([u, v, np.sin(u) * v + u**3, u * v * v], axis=-1)


def signed_permutation(n, p, sigma):
    """The matrix that carries fiber rows of a surface to those of the surface with ambient axis i moved to
    sigma[i]: coordinate I goes to the sorted image of I, with the sign of the sort."""
    position = {axes: k for k, axes in enumerate(multi_indices(n, p))}
    P = np.zeros((len(position), len(position)))
    for k, axes in enumerate(multi_indices(n, p)):
        image = [sigma[i - 1] + 1 for i in axes]
        inversions = sum(a > b for i, a in enumerate(image) for b in image[i + 1:])
        P[position[tuple(sorted(image))], k] = (-1.0) ** inversions
    return P


@pytest.mark.parametrize("name", ["area", "ellipsoid", "minimal_lift"])
def test_nonlinear_reparametrization_converges_to_the_graph_action_at_order_two(name, request):
    # the bilinear graph z = s1 s2, and the same surface through u -> (phi(u1), phi(u2)^2), a monotone map of
    # the unit square onto itself; both actions of both parametrizations tend to one limit, at order 2
    L = request.getfixturevalue({"area": "area3", "ellipsoid": "ellipsoid3", "minimal_lift": "minimal_lift3"}[name])

    def phi(u):
        return u + 0.1 * np.sin(np.pi * u)

    def reparametrized(u):
        a, b = phi(u[:, 0]), phi(u[:, 1]) ** 2
        return np.stack([a, b, a * b], axis=-1)

    differences = []
    for resolution in (16, 32, 64):
        graph = GraphSurface(p=2, n=3, domain=UNIT_SQUARE, resolution=resolution, f=lambda s: s[:, :1] * s[:, 1:])
        grid = ParametricGrid(p=2, n=3, domain=UNIT_SQUARE, resolution=resolution, mapping=reparametrized)
        differences.append(np.subtract(paired_actions(L, grid), paired_actions(L, graph)))
    differences = np.array(differences)  # rows per resolution: the Lagrangian and multisymplectic differences
    assert np.all(differences != 0.0)  # the two parametrizations are sampled at different points
    orders = np.log2(differences[:-1] / differences[1:])
    assert orders == pytest.approx(np.full((2, 2), 2.0), abs=0.1)


def rotation(a, b, angle):
    R = np.eye(3)
    R[a, a] = R[b, b] = math.cos(angle)
    R[a, b], R[b, a] = -math.sin(angle), math.sin(angle)
    return R


@pytest.mark.parametrize("rule", ["midpoint", "gauss2"])
@pytest.mark.parametrize("resolution", [16, 64])
@pytest.mark.parametrize("R", [rotation(0, 1, 0.7) @ rotation(1, 2, 0.3),
                               np.diag([1.0, -1.0, 1.0]) @ rotation(0, 2, 1.1)], ids=["rotation", "reflection"])
def test_area_actions_are_invariant_under_ambient_isometries(area3, R, rule, resolution):
    grid = ParametricGrid(p=2, n=3, domain=UNIT_SQUARE, resolution=resolution, mapping=lambda s: warped(s)[:, :3])
    moved = ParametricGrid(p=2, n=3, domain=UNIT_SQUARE, resolution=resolution,
                           mapping=lambda s: warped(s)[:, :3] @ R.T)
    actions = np.array(paired_actions(area3, grid, rule))
    # the bound is not bitwise: another numpy build may round the rotated coordinates differently
    assert np.all(np.abs(np.array(paired_actions(area3, moved, rule)) - actions) <= 4 * EPS * np.abs(actions))


@pytest.mark.parametrize("rule", ["midpoint", "gauss2"])
@pytest.mark.parametrize("name", ["area3", "ellipsoid3"])
def test_actions_are_invariant_under_orientation_reversal(name, rule, request):
    # s1 -> 1 - s1 negates every tangent p-vector; both Lagrangians are even in it, and the multisymplectic
    # action pairs the negated gradient with the negated minors
    L, probe = request.getfixturevalue(name), projected_volume_lagrangian(3, 2)
    for resolution in (16, 64):
        grid = ParametricGrid(p=2, n=3, domain=UNIT_SQUARE, resolution=resolution, mapping=lambda s: warped(s)[:, :3])
        reversed_grid = ParametricGrid(p=2, n=3, domain=UNIT_SQUARE, resolution=resolution,
                                       mapping=lambda s: warped(np.column_stack([1.0 - s[:, 0], s[:, 1]]))[:, :3])
        actions = np.array(paired_actions(L, grid, rule))
        assert np.all(np.abs(np.array(paired_actions(L, reversed_grid, rule)) - actions)
                      <= 4 * EPS * np.abs(actions))
        # not vacuous: the linear probe reads the top coordinate, which the reversal negates
        assert paired_actions(probe, reversed_grid, rule)[0] == pytest.approx(-paired_actions(probe, grid, rule)[0])


# permutations of the ambient axes, as sigma[i] = where axis i goes: a swap in R^3, a swap, a 4-cycle and the
# reversal in R^4
PERMUTATIONS = [pytest.param(sigma, id=name) for name, sigma in
                (("swap3", (1, 0, 2)), ("swap4", (1, 0, 2, 3)), ("cycle4", (1, 2, 3, 0)), ("reversal4", (3, 2, 1, 0)))]
WEIGHTS = {3: [1.0, 4.0, 9.0], 4: [1.0, 4.0, 9.0, 2.0, 3.0, 5.0]}


@pytest.mark.parametrize("rule", ["midpoint", "gauss2"])
@pytest.mark.parametrize("sigma", PERMUTATIONS)
def test_ellipsoid_actions_are_invariant_under_axis_permutations_with_the_weights(sigma, rule):
    n, p = len(sigma), 2
    weights = np.array(WEIGHTS[n])
    permuted_weights = np.abs(signed_permutation(n, p, sigma)) @ weights
    L, permuted_L = ellipsoid_lagrangian(n, p, weights), ellipsoid_lagrangian(n, p, permuted_weights)
    inverse = np.argsort(sigma)  # coordinate j of the permuted surface is coordinate inverse[j] of the original
    for resolution in (16, 64):
        grid = ParametricGrid(p=p, n=n, domain=UNIT_SQUARE, resolution=resolution, mapping=lambda s: warped(s)[:, :n])
        permuted = ParametricGrid(p=p, n=n, domain=UNIT_SQUARE, resolution=resolution,
                                  mapping=lambda s: warped(s)[:, inverse])
        actions = np.array(paired_actions(L, grid, rule))
        assert np.all(np.abs(np.array(paired_actions(permuted_L, permuted, rule)) - actions)
                      <= 4 * EPS * np.abs(actions))
        # not vacuous: with the weights left in place the permuted surface reads another action
        assert abs(paired_actions(L, permuted, rule)[0] - actions[0]) > 1e-3 * actions[0]


@pytest.mark.parametrize("sigma", PERMUTATIONS)
def test_ellipsoid_jets_carry_the_signed_permutation(sigma, rng):
    # L_W'(P y) = L_W(y); the gradient and Hessian are carried by P: grad' = P grad and Hess' = P Hess P^T
    n, p = len(sigma), 2
    weights = np.array(WEIGHTS[n])
    P = signed_permutation(n, p, sigma)
    L, permuted_L = ellipsoid_lagrangian(n, p, weights), ellipsoid_lagrangian(n, p, np.abs(P) @ weights)
    rows = rng.standard_normal((50, math.comb(n, p)))
    base = rng.standard_normal(n)
    value, grad, hess = L._jet(*L._rows(base, rows), 2)
    permuted = permuted_L._jet(*permuted_L._rows(base[np.argsort(sigma)], rows @ P.T), 2)
    np.testing.assert_allclose(permuted[0], value, rtol=4 * EPS, atol=0)
    np.testing.assert_allclose(permuted[1], grad @ P.T, rtol=4 * EPS, atol=4 * EPS * np.max(np.abs(grad)))
    np.testing.assert_allclose(permuted[2], P @ hess @ P.T, rtol=8 * EPS, atol=8 * EPS * np.max(np.abs(hess)))
    # the permutation moves the rows themselves: without it the permuted Lagrangian reads other values
    assert not np.allclose(permuted_L.value_many(base, rows), value, rtol=1e-6)


@pytest.mark.parametrize("rule", ["midpoint", "gauss2"])
def test_minimal_surface_graph_action_is_invariant_under_a_swap_of_the_parameter_axes(rule):
    # the graph of f over [0, 1] x [-1, 2] and the graph of f with its arguments swapped over [-1, 2] x [0, 1]
    def f(s):
        return (np.sin(s[:, 0]) * s[:, 1] + s[:, 0] ** 3)[:, None]

    F = minimal_surface_density(3, 2)
    for resolution in ((16, 24), (64, 48)):
        graph = GraphSurface(p=2, n=3, domain=[(0.0, 1.0), (-1.0, 2.0)], resolution=resolution, f=f)
        swapped = GraphSurface(p=2, n=3, domain=[(-1.0, 2.0), (0.0, 1.0)], resolution=resolution[::-1],
                               f=lambda t: f(t[:, ::-1]))
        action = graph_action(F, graph, rule)
        assert abs(graph_action(F, swapped, rule) - action) <= 4 * EPS * action
