#!/usr/bin/env python3
"""Print convergence tables for the sample surfaces.

Usage:
    python scripts/convergence_report.py [--resolutions 16 32 64 128]

Three studies: a plane graph (constant integrand, machine-level errors), the
bilinear saddle x1*x2 (second-order decay against a frozen high-resolution
reference), and a plane graph in R^4 whose area is a Gram determinant.
"""

import argparse
import math
from dataclasses import replace

import numpy as np

from multisymp import GraphSurface, area_lagrangian, convergence_rows, lagrangian_action

BILINEAR_AREA_REFERENCE = 1.2807892621906034  # midpoint rule at 2048^2


def study(L, surface, resolutions, reference):
    """Convergence rows of the Lagrangian action of the surface at each resolution."""
    values = {res: lagrangian_action(L, replace(surface, resolution=res).to_grid()) for res in resolutions}
    return convergence_rows(values, surface.domain, reference)


def show(title, rows):
    print(f"\n{title}")
    print(f"{'res':>5s} {'h':>10s} {'value':>18s} {'error':>12s} {'order':>7s}")
    for row in rows:
        err = f"{row.error:.3e}" if row.error is not None else "-"
        order = f"{row.observed_order:.3f}" if row.observed_order is not None else "-"
        print(f"{row.resolution:5d} {row.h:10.5f} {row.value:18.12f} {err:>12s} {order:>7s}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolutions", type=int, nargs="+", default=[16, 32, 64, 128])
    args = parser.parse_args(argv)

    plane = GraphSurface(f=lambda s: np.stack([2.0 * s[..., 0] + 3.0 * s[..., 1]], axis=-1),
                         domain=[(0, 1), (0, 1)], resolution=16, p=2, n=3)
    rows = study(area_lagrangian(3, 2), plane, args.resolutions, math.sqrt(14.0))
    show("plane graph, slope (2, 3): area sqrt(14)", rows)

    saddle = GraphSurface(f=lambda s: np.stack([s[..., 0] * s[..., 1]], axis=-1),
                          domain=[(0, 1), (0, 1)], resolution=16, p=2, n=3)
    rows = study(area_lagrangian(3, 2), saddle, args.resolutions, BILINEAR_AREA_REFERENCE)
    show("bilinear saddle x1*x2: area vs midpoint-2048 reference", rows)

    plane4 = GraphSurface(f=lambda s: np.stack([2 * s[..., 0] + s[..., 1], s[..., 0] - s[..., 1]], axis=-1),
                          domain=[(0, 1), (0, 1)], resolution=16, p=2, n=4)
    rows = study(area_lagrangian(4, 2), plane4, args.resolutions, math.sqrt(17.0))
    show("plane graph in R^4: area sqrt(17) (Gram determinant)", rows)


if __name__ == "__main__":
    main()
