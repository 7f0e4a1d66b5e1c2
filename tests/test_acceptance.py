"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the module contracts.
"""

import json
import math

import numpy as np

from multisymp import (
    GraphSurface,
    TotalSpaceChart,
    area_lagrangian,
    closedness_residual,
    constant_x_form,
    convexity_certificate,
    decomposable_rows,
    ellipsoid_lagrangian,
    euler_residual,
    geometric_mean_lagrangian,
    graph_action,
    graph_lift,
    hamiltonian,
    index_position,
    inverse_legendre,
    minimal_surface_density,
    minors,
    nondegeneracy_check,
    omega,
    paired_actions,
    plane_from_bivector,
    projected_volume_lagrangian,
    pullback_residual,
    rank_lemma_check,
    weighted_x_form,
)
from multisymp.cli import cmd_verify
from multisymp.legendre import image_coordinates
from multisymp.surfaces import _cell_frames

from helpers import BILINEAR_AREA_ORACLE

SEED = 20260810
DIMS = [(3, 2), (4, 2), (4, 3)]
ELLIPSOID_WEIGHTS = {
    (3, 2): [1.0, 4.0, 9.0],
    (4, 2): [1.0, 4.0, 9.0, 2.0, 5.0, 7.0],
    (4, 3): [1.0, 4.0, 9.0, 2.0],
}


def gate(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {description} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def builtin_triple(n, p):
    return [
        area_lagrangian(n, p),
        ellipsoid_lagrangian(n, p, ELLIPSOID_WEIGHTS[(n, p)]),
        graph_lift(minimal_surface_density(n, p)),
    ]


def fiber_samples(L, n, p, count, seed):
    """Fiber rows (count, C(n,p)) of wedges of standard-normal vectors, inside the chart of L if it has one."""
    return decomposable_rows(np.random.default_rng(seed), n, p, count, L.chart, 0.25)


def per_unit_value(L, x, ys, residuals):
    """The largest residual relative to max(1, |L|) on its fiber row."""
    return float(np.max(residuals / np.maximum(1.0, np.abs(L.value_many(x, ys)))))


def test_criterion_1_euler_formula():
    worst = 0.0
    for n, p in DIMS:
        x = np.zeros(n)
        for L in builtin_triple(n, p):
            ys = fiber_samples(L, n, p, 100, SEED)
            worst = max(worst, per_unit_value(L, x, ys, euler_residual(L, x, ys)))
    gate(1, "degree-1 identity between L and its fiber gradient",
         worst <= 1e-9, f"(worst residual {worst:.2e}, gate 1e-09)")


def test_criterion_2_vanishing_hamiltonian():
    worst = 0.0
    for n, p in DIMS:
        x = np.zeros(n)
        for L in builtin_triple(n, p):
            ys = fiber_samples(L, n, p, 100, SEED)
            residuals = np.abs(hamiltonian(L, x, L.gradient_many(x, ys), ys))
            worst = max(worst, per_unit_value(L, x, ys, residuals))
    gate(2, "dual pairing minus L vanishes on the gradient image",
         worst <= 1e-9, f"(worst residual {worst:.2e}, gate 1e-09)")


def test_criterion_3_rank_splitting():
    ok = True
    detail = []
    for n, p in [(3, 2), (4, 2)]:
        x = np.zeros(n)
        dim = len(ELLIPSOID_WEIGHTS[(n, p)])
        for L in (area_lagrangian(n, p), ellipsoid_lagrangian(n, p, ELLIPSOID_WEIGHTS[(n, p)])):
            ys = np.random.default_rng(SEED + 1).standard_normal((50, dim))
            report = rank_lemma_check(L, x, ys[np.linalg.norm(ys, axis=-1) >= 1e-3], threshold=1e-8)
            for rank_L2, rank_L in zip(report.rank_L2.tolist(), report.rank_L.tolist()):
                if rank_L2 != 1 + rank_L or rank_L2 != dim:
                    ok = False
                    detail.append(f"{L.name}({n},{p}): {rank_L2} vs 1+{rank_L}")
    probe = rank_lemma_check(projected_volume_lagrangian(3, 2), np.zeros(3),
                             np.array([[2.0, 1.0, 1.0]]), threshold=1e-8)
    if (probe.rank_L2.tolist(), probe.rank_L.tolist()) != ([1], [0]):
        ok = False
        detail.append(f"linear probe ranks {(probe.rank_L2.tolist(), probe.rank_L.tolist())}")
    gate(3, "rank(Hess L^2) = 1 + rank(Hess L) incl. the linear probe",
         ok, "; ".join(detail) or "(50 samples per Lagrangian and dimension)")


def test_criterion_4_convexity_certificates():
    x = np.zeros(3)
    certs = {}
    for L in (area_lagrangian(3, 2), ellipsoid_lagrangian(3, 2, ELLIPSOID_WEIGHTS[(3, 2)])):
        certs[L.name] = convexity_certificate(L, x, num_pairs=100, t_steps=5, seed=SEED, tol=1e-7)
    probe_cert = convexity_certificate(geometric_mean_lagrangian(), x,
                                       num_pairs=100, t_steps=5, seed=SEED, tol=1e-7)
    ok = (
        all(c.passed and c.num_segment_checks == 500 and c.worst_violation <= 1e-7
            for c in certs.values())
        and not probe_cert.passed
    )
    gate(4, "convex image certified for area/ellipsoid, refuted for the probe", ok,
         f"(worst {max(c.worst_violation for c in certs.values()):.2e}; "
         f"probe violation {probe_cert.worst_violation:.2e})")


def test_criterion_5_image_quadrics():
    x = np.zeros(3)
    sphere = image_coordinates(area_lagrangian(3, 2), x, 500, seed=SEED)[1]
    sphere_res = max(abs(float(np.linalg.norm(g)) - 1.0) for g in sphere)
    weights = np.array(ELLIPSOID_WEIGHTS[(3, 2)])
    ell = image_coordinates(ellipsoid_lagrangian(3, 2, weights), x, 500, seed=SEED)[1]
    ell_res = max(abs(float(np.sum(g**2 / weights)) - 1.0) for g in ell)
    gate(5, "sampled image closes on its quadric (sphere and ellipsoid)",
         sphere_res <= 1e-10 and ell_res <= 1e-9,
         f"(sphere {sphere_res:.2e} gate 1e-10; ellipsoid {ell_res:.2e} gate 1e-09)")


def test_criterion_6_pullback_identity():
    worst = 0.0
    x = np.zeros(3)
    rng = np.random.default_rng(SEED + 2)
    for L in builtin_triple(3, 2):
        # one tuple per fiber row
        worst = max(worst, pullback_residual(L, x, fiber_samples(L, 3, 2, 100, SEED + 3),
                                             rng.standard_normal((100, 2, 3))))
    gate(6, "pulled-back tautological form equals the areolar form",
         worst <= 1e-9, f"(worst residual {worst:.2e}, gate 1e-09)")


def test_criterion_7_action_triple_equality():
    L = area_lagrangian(3, 2)
    F = minimal_surface_density(3, 2)
    plane = GraphSurface(f=lambda s: np.stack([2.0 * s[..., 0] + 3.0 * s[..., 1]], axis=-1),
                         domain=[(0, 1), (0, 1)], resolution=64, p=2, n=3)
    lagrangian64, multisymplectic64 = paired_actions(L, plane.to_grid())
    actions64 = (lagrangian64, graph_action(F, plane), multisymplectic64)
    plane_ok = all(abs(a - math.sqrt(14.0)) <= 1e-8 for a in actions64)

    bilinear = lambda res: GraphSurface(f=lambda s: np.stack([s[..., 0] * s[..., 1]], axis=-1),
                                        domain=[(0, 1), (0, 1)], resolution=res, p=2, n=3)
    resolutions = [16, 32, 64, 128, 256]
    lagr, ms = {}, {}
    for res in resolutions:
        lagr[res], ms[res] = paired_actions(L, bilinear(res).to_grid())
    graph256 = graph_action(F, bilinear(256))
    graph_ok = abs(graph256 - lagr[256]) <= 1e-6
    ms_ok = all(abs(ms[res] - lagr[res]) <= 1e-10 * abs(lagr[res]) for res in resolutions)

    errors = [abs(lagr[res] - BILINEAR_AREA_ORACLE) for res in (16, 32, 64, 128)]
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(3)]
    order_ok = all(abs(o - 2.0) <= 0.3 for o in orders)

    gate(7, "three actions agree and converge at second order",
         plane_ok and graph_ok and ms_ok and order_ok,
         f"(plane gap {max(abs(a - math.sqrt(14.0)) for a in actions64):.2e}; "
         f"graph gap {abs(graph256 - lagr[256]):.2e}; orders {[round(o, 2) for o in orders]})")


def cell_pvector(grid, cell):
    """The tangent p-vector row at one cell's center: the minors of its frame, as the actions read it."""
    frames, _ = _cell_frames(grid.values, grid.spacing)
    return minors(frames)[np.ravel_multi_index(cell, grid.resolution)]


def test_criterion_8_general_p_graph_law():
    # p=2, n=4 linear graph
    A = np.array([[2.0, 1.0], [1.0, -1.0]])
    surf24 = GraphSurface(f=lambda s: np.stack([2 * s[..., 0] + s[..., 1], s[..., 0] - s[..., 1]], axis=-1),
                          domain=[(0, 1), (0, 1)], resolution=8, p=2, n=4)
    y24 = cell_pvector(surf24.to_grid(), (3, 4))
    # every index tuple read below is increasing, so index_position finds its coordinate
    law24 = all(
        abs(y24[index_position(4, 2)[tuple(k for k in (1, 2) if k != i) + (2 + j,)]]
            - (-1.0) ** (2 - i) * A[i - 1, j - 1]) <= 1e-8
        for i in (1, 2) for j in (1, 2)
    )
    brute24 = np.allclose(
        y24,
        minors(np.column_stack([np.array([1.0, 0.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0, -1.0])])),
        atol=1e-8,
    )

    # p=3, n=4 linear graph
    a = np.array([0.7, -1.3, 0.4])
    surf34 = GraphSurface(f=lambda s: np.stack([s @ a], axis=-1),
                          domain=[(0, 1)] * 3, resolution=4, p=3, n=4)
    y34 = cell_pvector(surf34.to_grid(), (1, 2, 3))
    law34 = all(
        abs(y34[index_position(4, 3)[tuple(k for k in (1, 2, 3) if k != i) + (4,)]]
            - (-1.0) ** (3 - i) * a[i - 1]) <= 1e-8
        for i in (1, 2, 3)
    )
    frame34 = [np.concatenate([row, [a[k]]]) for k, row in enumerate(np.eye(3))]
    brute34 = np.allclose(y34, minors(np.column_stack(frame34)), atol=1e-8)

    # Gram-determinant area of the p=2, n=4 plane graph
    J = np.column_stack([np.array([1.0, 0.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0, -1.0])])
    gram = math.sqrt(np.linalg.det(J.T @ J))
    action = paired_actions(area_lagrangian(4, 2), surf24.to_grid())[0]
    gram_ok = abs(action - gram) <= 1e-8

    gate(8, "signed slope law and Gram-determinant area in higher dimension",
         law24 and brute24 and law34 and brute34 and gram_ok,
         f"(action {action:.10f} vs sqrt(det J'J) {gram:.10f})")


def test_criterion_9_multisymplectic_structure():
    rank_ok = True
    details = []
    for n, p in DIMS:
        chart = TotalSpaceChart(n, p)
        point = np.random.default_rng(SEED).standard_normal(chart.dim_total)
        ok, rank = nondegeneracy_check(omega(chart), point)
        details.append(f"({n},{p}) rank {rank}/{chart.dim_total}")
        rank_ok = rank_ok and ok

    chart32 = TotalSpaceChart(3, 2)
    rng = np.random.default_rng(SEED + 4)
    form = omega(chart32)
    draws = rng.standard_normal((20, 5, 6))  # per sample: the point, then the 4 vectors
    closed_res = float(np.max(closedness_residual(form, draws[:, 0], draws[:, 1:], h=1e-4)))
    degenerate_flagged = not nondegeneracy_check(constant_x_form(chart32, (1, 2, 3)), np.zeros(6))[0]
    e = chart32.basis_vector
    non_closed_flagged = closedness_residual(
        weighted_x_form(chart32, "p23", (1, 2)), np.zeros((1, 6)),
        [[e("p23"), e("x1"), e("x2")]], h=1e-4,
    )[0] > 1e-3
    gate(9, "canonical form nondegenerate and closed; planted probes flagged",
         rank_ok and closed_res <= 1e-6 and degenerate_flagged and non_closed_flagged,
         f"({'; '.join(details)}; dOmega {closed_res:.2e})")


def same_oriented_class(u, v, tol):
    """Per row, whether u and v are positively proportional: |u/|u| - v/|v|| is at most tol.

    At (3, 2), p = n - 1, so every nonzero row is decomposable and its class is an oriented plane.
    """
    gap = u / np.linalg.norm(u, axis=-1, keepdims=True) - v / np.linalg.norm(v, axis=-1, keepdims=True)
    return np.linalg.norm(gap, axis=-1) <= tol


def test_criterion_10_round_trips():
    x = np.zeros(3)
    rng = np.random.default_rng(SEED + 5)
    inv_ok = True
    for L in (area_lagrangian(3, 2), ellipsoid_lagrangian(3, 2, ELLIPSOID_WEIGHTS[(3, 2)])):
        ys = decomposable_rows(rng, 3, 2, 50)
        recovered = inverse_legendre(L, x, L.gradient_many(x, ys))
        inv_ok = inv_ok and bool(np.all(same_oriented_class(recovered, ys, 1e-7)))
    rows = decomposable_rows(rng, 3, 2, 100)
    plane_ok = bool(np.all(same_oriented_class(minors(plane_from_bivector(rows)), rows, 1e-9)))
    gate(10, "gradient-map and plane-extraction round trips preserve classes",
         inv_ok and plane_ok, "(50 inverse samples per Lagrangian; 100 planes)")


def test_criterion_11_report_determinism():
    config = {
        "lagrangian": {"name": "ellipsoid", "n": 3, "p": 2,
                       "params": {"weights": ELLIPSOID_WEIGHTS[(3, 2)]}},
        "seed": SEED,
        "samples": 25,
        "rank_samples": 10,
        "certificate": {"num_pairs": 20, "t_steps": 5},
    }
    reports = []
    for _ in range(2):
        report, passed = cmd_verify(json.loads(json.dumps(config)))
        assert passed
        for check in report["checks"]:
            check.pop("runtime_ms", None)
        reports.append(json.dumps(report, sort_keys=True))
    gate(11, "identical configs give byte-identical reports modulo timings",
         reports[0] == reports[1], f"({len(reports[0])} bytes each)")
