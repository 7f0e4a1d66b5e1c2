"""Shared test helper: fiber elements on (n, p) = (3, 2) written as cyclic triples."""

from multisymp import KVector


def cyclic(c12, c23, c31, cls=KVector):
    """The element with coordinates (12, 23, 31); the 31-coordinate is minus the canonical 13-coordinate."""
    return cls(3, 2, [c12, -c31, c23])
