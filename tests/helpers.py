"""Shared test helpers: (3, 2) fiber elements as cyclic triples, and a Lagrangian that reads the base point."""

import numpy as np

from multisymp import HomogeneousLagrangian, KVector, area_lagrangian


def cyclic(c12, c23, c31, cls=KVector):
    """The element with coordinates (12, 23, 31); the 31-coordinate is minus the canonical 13-coordinate."""
    return cls(3, 2, [c12, -c31, c23])


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
