"""Shared test helpers: the exact bilinear area, (3, 2) fiber rows as cyclic triples, a draw-by-draw fiber sampler,
a Lagrangian and a density that read the base point, and the CLI's graph maps."""

import functools

import numpy as np

from multisymp import (
    GraphDensity,
    HomogeneousLagrangian,
    area_lagrangian,
    minimal_surface_density,
    minors,
)
from multisymp.cli import _graph_terms, _graph_values

# the area of the graph of x1*x2 over the unit square, the integral of sqrt(1 + x1^2 + x2^2): mpmath.quad at 30
# digits, correctly rounded (test_cli recomputes it)
BILINEAR_AREA_ORACLE = 1.280789275273404


def graph_map(spec, n, p):
    """The built-in graph map of a surface spec, as the CLI builds it: the one kernel on the spec's monomial terms."""
    return functools.partial(_graph_values, _graph_terms(spec, n, p))


def cyclic_row(c12, c23, c31):
    """The row (1, 3) with coordinates (12, 23, 31); the 31-coordinate is minus the canonical 13-coordinate."""
    return np.array([[c12, -c31, c23]], dtype=float)


def _weighted(weight, parts):
    """Each part of a jet times the per-row weight (N,), broadcast over the part's trailing axes."""
    return tuple(weight.reshape(-1, *(1,) * (part.ndim - 1)) * part for part in parts)


def conformal_area(n, p, a):
    """The conformal area phi(x) |y| with phi(x) = exp(a.x): phi times the jet of area."""
    area, a = area_lagrangian(n, p), np.asarray(a, dtype=float)

    def phi(xs):
        return np.exp(np.sum(a * xs, axis=-1))  # a sum over the last axis keeps each row independent

    return HomogeneousLagrangian(n, p, "conformal_area",
                                 lambda xs, cs, order: _weighted(phi(xs), area.jet_fn(xs, cs, order)))


def weighted_minimal_surface(n, p, a, c):
    """F = exp(a.bases + c.values) sqrt(1 + |q|^2): the weight times the jet of minimal_surface_density."""
    base, a, c = minimal_surface_density(n, p), np.asarray(a, dtype=float), np.asarray(c, dtype=float)

    def weight(bases, values):
        return np.exp(np.sum(a * bases, axis=-1) + np.sum(c * values, axis=-1))

    return GraphDensity(n, p, lambda b, v, q, order: _weighted(weight(b, v), base.jet(b, v, q, order)),
                        name="weighted_minimal_surface")


def draw_decomposable(rng, n, p, chart=None, margin=0.0, floor=0.0):
    """One draw of a sampling loop: the minors row of p standard-normal vectors drawn one by one, or None if rejected.

    A draw is rejected below norm 1e-9, where |y_chart| is below margin |y|, or
    where some |y_I| is below floor |y|; an accepted draw is oriented with a
    positive chart coordinate.
    """
    y = minors(np.column_stack([rng.standard_normal(n) for _ in range(p)]))
    norm = float(np.linalg.norm(y))
    if norm < 1e-9:
        return None
    if chart is not None:
        if abs(y[chart]) < margin * norm:
            return None
        y = y if y[chart] > 0 else -y
    return y if np.min(np.abs(y)) >= floor * norm else None
