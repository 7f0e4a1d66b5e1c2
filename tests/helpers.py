"""Shared test helpers: (3, 2) fiber rows as cyclic triples, a draw-by-draw fiber sampler, and a Lagrangian and a
density that read the base point."""

import numpy as np

from multisymp import (
    GraphDensity,
    HomogeneousLagrangian,
    area_lagrangian,
    minimal_surface_density,
    minors,
)


def cyclic_row(c12, c23, c31):
    """The row (1, 3) with coordinates (12, 23, 31); the 31-coordinate is minus the canonical 13-coordinate."""
    return np.array([[c12, -c31, c23]], dtype=float)


def conformal_area(n, p, a):
    """The conformal area phi(x) |y| with phi(x) = exp(a.x): phi times the value, gradient and Hessian of area."""
    area, a = area_lagrangian(n, p), np.asarray(a, dtype=float)

    def phi(xs):
        return np.exp(np.sum(a * xs, axis=-1))  # a sum over the last axis keeps each row independent

    return HomogeneousLagrangian(
        n, p, "conformal_area",
        lambda xs, cs: phi(xs) * area.value_fn(xs, cs),
        lambda xs, cs: phi(xs)[:, None] * area.grad_fn(xs, cs),
        lambda xs, cs: phi(xs)[:, None, None] * area.hess_fn(xs, cs),
    )


def weighted_minimal_surface(n, p, a, c):
    """F = exp(a.bases + c.values) sqrt(1 + |q|^2): the weight times minimal_surface_density and its derivatives."""
    base, a, c = minimal_surface_density(n, p), np.asarray(a, dtype=float), np.asarray(c, dtype=float)

    def weight(bases, values):
        return np.exp(np.sum(a * bases, axis=-1) + np.sum(c * values, axis=-1))

    return GraphDensity(
        n, p,
        lambda b, v, q: weight(b, v) * base.fn_many(b, v, q),
        lambda b, v, q: weight(b, v)[:, None, None] * base.d_slopes(b, v, q),
        lambda b, v, q: weight(b, v)[:, None, None, None, None] * base.d2_slopes(b, v, q),
        name="weighted_minimal_surface",
    )


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
