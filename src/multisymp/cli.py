"""Batch driver: verification suites, action computations, image sampling.

Commands read a JSON config and write a JSON report (plus a CSV point cloud
for ``image``).  Reports are deterministic for a fixed config apart from the
per-check timing fields.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or config error, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .exterior import random_decomposable
from .lagrangian import (
    GraphDensity,
    HomogeneousLagrangian,
    area_lagrangian,
    constant_density,
    ellipsoid_lagrangian,
    euler_residual,
    geometric_mean_lagrangian,
    graph_area_density,
    graph_lift,
    homogeneity_residual,
    minimal_surface_density,
    projected_volume_lagrangian,
)
from .legendre import (
    convexity_certificate,
    hamiltonian,
    image_coordinates,
    rank_lemma_check,
    write_image_csv,
)
from .multisymplectic import TotalSpaceChart, closedness_residual, omega, nondegeneracy_check, pullback_residual
from .surfaces import (
    GraphSurface,
    QuadratureConfig,
    convergence_rows,
    graph_action,
    graph_function,
    lagrangian_action,
    multisymplectic_action,
)

OUT_DIR_ENV = "MULTISYMP_OUT_DIR"


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")


def _finite(value: Any, key: str) -> np.ndarray:
    """The config value as a float array; JSON admits NaN and Infinity, configs do not."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be numeric, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return arr


def _count(value: Any, key: str, least: int) -> int:
    """The config value as an int; a boolean or a non-integral number is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    count = int(value)
    if count < least:
        raise ConfigError(f"{key} must be at least {least}, got {count}")
    return count


def _base_point(config: dict, n: int) -> np.ndarray:
    x = _finite(config.get("x", [0.0] * n), "x")
    if x.shape != (n,):
        raise ConfigError(f"x must have {n} components")
    return x


def _merge_tolerances(defaults: dict[str, float], overrides: Any) -> dict[str, float]:
    merged = dict(defaults)
    if overrides is None:
        return merged
    _check_keys(overrides, set(defaults), set(), "tolerances")
    for key, value in overrides.items():
        merged[key] = float(_finite(value, f"tolerances.{key}"))
    return merged


def build_density(spec: Any, n: int, p: int) -> GraphDensity:
    _check_keys(spec, {"name", "params"}, {"name"}, "density")
    name = spec["name"]
    params = dict(spec.get("params") or {})
    if name == "constant":
        return constant_density(n, p, value=float(params.pop("value", 1.0)))
    if params:
        raise ConfigError(f"density {name!r} takes no parameters, got {sorted(params)}")
    if name == "minimal_surface":
        return minimal_surface_density(n, p)
    if name == "graph_area":
        return graph_area_density(n, p)
    raise ConfigError(f"unknown density {name!r}")


def build_lagrangian(spec: Any) -> HomogeneousLagrangian:
    _check_keys(spec, {"name", "n", "p", "params"}, {"name", "n", "p"}, "lagrangian")
    name = spec["name"]
    n, p = _count(spec["n"], "lagrangian.n", 1), _count(spec["p"], "lagrangian.p", 1)
    params = dict(spec.get("params") or {})
    if name == "area":
        lagrangian = area_lagrangian(n, p)
    elif name == "ellipsoid":
        weights = params.pop("weights", None)
        if weights is None:
            raise ConfigError("ellipsoid lagrangian needs params.weights")
        lagrangian = ellipsoid_lagrangian(n, p, _finite(weights, "lagrangian.params.weights"))
    elif name == "graph_lift":
        density = params.pop("density", None)
        if density is None:
            raise ConfigError("graph_lift lagrangian needs params.density")
        lagrangian = graph_lift(build_density(density, n, p))
    elif name == "projected_volume":
        lagrangian = projected_volume_lagrangian(n, p)
    elif name == "geometric_mean":
        lagrangian = geometric_mean_lagrangian(n, p)
    else:
        raise ConfigError(f"unknown lagrangian {name!r}")
    if params:
        raise ConfigError(f"unused lagrangian params: {sorted(params)}")
    return lagrangian


def build_surface(spec: Any, n: int, p: int) -> GraphSurface:
    _check_keys(spec, {"f", "params", "domain", "resolution"}, {"f", "domain"}, "surface")
    domain = spec["domain"]
    if not isinstance(domain, list) or len(domain) != p or not all(isinstance(a, list) and len(a) == 2 for a in domain):
        raise ConfigError(f"surface.domain must be a list of {p} [low, high] pairs, got {domain!r}")
    _finite(domain, "surface.domain")
    fn = graph_function(spec["f"], spec.get("params"), p, n)
    resolution = spec.get("resolution", 64)
    return GraphSurface(f=fn, domain=domain, resolution=resolution, p=p, n=n)


def _sample_fibers(L: HomogeneousLagrangian, count: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded decomposable fiber samples in the Lagrangian's chart and above its sampling floor, one row each."""
    out: list[np.ndarray] = []
    while len(out) < count:
        y = random_decomposable(rng, L.n, L.p, min_top_fraction=None if L.chart is None else 0.25)
        if np.min(np.abs(y.coords)) < L.sampling_floor * y.norm():
            continue
        out.append(y.coords)
    return np.array(out)


def _image_quadric(L: HomogeneousLagrangian, tol: float):
    """Tolerance and residual of the Lagrangian's image quadric, or None without one.

    The residual maps gradient rows (N, C(n,p)) to the worst |Q(p) - 1|, 0.0
    for no rows; the quadric's own tolerance, if it has one, overrides tol.
    """
    if L.image_quadric is None:
        return None
    quadric, fixed = L.image_quadric
    return (tol if fixed is None else fixed), lambda grads: float(np.max(np.abs(quadric(grads) - 1.0), initial=0.0))


class _CheckRecorder:
    def __init__(self):
        self.checks: list[dict[str, Any]] = []

    def run(self, name: str, claim: str, tolerance: float, fn: Callable[[], float]) -> None:
        start = time.perf_counter()
        measured = float(fn())
        elapsed = (time.perf_counter() - start) * 1000.0
        self.checks.append({
            "name": name,
            "claim": claim,
            "status": "pass" if measured <= tolerance else "fail",
            "measured": measured,
            "tolerance": float(tolerance),
            "runtime_ms": round(elapsed, 3),
        })

    @property
    def all_passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)


VERIFY_TOLERANCES = {
    "homogeneity": 1e-9,
    "euler": 1e-9,
    "gradient_scale": 1e-9,
    "hamiltonian": 1e-9,
    "rank_threshold": 1e-8,
    "convexity": 1e-7,
    "quadric": 1e-9,
    "pullback": 1e-9,
    "closedness": 1e-6,
}

VERIFY_CHECKS = (
    "degree-1-homogeneity",
    "euler-identity",
    "gradient-degree-0",
    "vanishing-hamiltonian",
    "hessian-rank-split",
    "legendre-image-convexity",
    "legendre-image-quadric",
    "tautological-pullback",
    "multisymplectic-nondegenerate",
    "multisymplectic-closed",
)


def cmd_verify(config: dict) -> tuple[dict, bool]:
    """Run the identity and structure suites for one configured Lagrangian."""
    _check_keys(
        config,
        {"lagrangian", "x", "seed", "samples", "rank_samples", "certificate", "tolerances", "checks"},
        {"lagrangian"},
        "config",
    )
    L = build_lagrangian(config["lagrangian"])
    x = _base_point(config, L.n)
    seed = _count(config.get("seed", 0), "seed", 0)
    samples = _count(config.get("samples", 100), "samples", 1)
    rank_samples = _count(config.get("rank_samples", 50), "rank_samples", 1)
    cert_cfg = config.get("certificate") or {}
    _check_keys(cert_cfg, {"num_pairs", "t_steps"}, set(), "certificate")
    num_pairs = _count(cert_cfg.get("num_pairs", 100), "certificate.num_pairs", 1)
    t_steps = _count(cert_cfg.get("t_steps", 5), "certificate.t_steps", 3)
    tol = _merge_tolerances(VERIFY_TOLERANCES, config.get("tolerances"))

    quadric = _image_quadric(L, tol["quadric"])
    selected = config.get("checks", VERIFY_CHECKS)
    if not isinstance(selected, (list, tuple)) or not all(isinstance(c, str) for c in selected):
        raise ConfigError(f"checks must be a list of check names, got {selected!r}")
    unknown = sorted(set(selected) - set(VERIFY_CHECKS))
    if unknown:
        raise ConfigError(f"unknown checks: {unknown}")

    fibers = _sample_fibers(L, samples, np.random.default_rng(seed))
    xs = np.broadcast_to(x, (samples, L.n))
    chart = TotalSpaceChart(L.n, L.p)

    def per_unit_value(residuals: np.ndarray) -> float:
        return float(np.max(residuals / np.maximum(1.0, np.abs(L.value_many(xs, fibers)))))

    def grad_scale() -> float:
        base = L.gradient_many(xs, fibers)
        return max(float(np.max(np.abs(L.gradient_many(xs, lam * fibers) - base)))
                   for lam in (0.5, 2.0, 1000.0))

    def rank_split() -> float:
        report = rank_lemma_check(L, x, fibers[:rank_samples], threshold=tol["rank_threshold"])
        return float(np.max(np.abs(report.rank_L2 - 1 - report.rank_L)))

    def convexity() -> float:
        return convexity_certificate(L, x, num_pairs=num_pairs, t_steps=t_steps,
                                     seed=seed + 1, tol=tol["convexity"]).worst_violation

    def nondegenerate() -> float:
        point = np.random.default_rng(seed + 4).standard_normal(chart.dim_total)
        return float(chart.dim_total - nondegeneracy_check(omega(chart), point)[1])

    def closed() -> float:
        form = omega(chart)
        # per sample: the point, then the k+1 vectors, in the order of a sample-by-sample loop
        draws = np.random.default_rng(seed + 5).standard_normal((20, form.degree + 2, chart.dim_total))
        return float(np.max(closedness_residual(form, draws[:, 0], draws[:, 1:], h=1e-4)))

    checks = {
        "degree-1-homogeneity": (
            "L(x, s*y) = s*L(x, y) for s > 0", tol["homogeneity"],
            lambda: float(np.max(homogeneity_residual(L, x, fibers, (0.5, 2.0, 10.0)))),
        ),
        "euler-identity": (
            "L equals the pairing of its fiber gradient with y", tol["euler"],
            lambda: per_unit_value(euler_residual(L, x, fibers)),
        ),
        "gradient-degree-0": (
            "fiber gradient is invariant under positive rescaling", tol["gradient_scale"], grad_scale,
        ),
        "vanishing-hamiltonian": (
            "dual pairing minus L vanishes on the gradient image", tol["hamiltonian"],
            lambda: per_unit_value(np.abs(hamiltonian(L, x, L.gradient_many(xs, fibers), fibers))),
        ),
        "hessian-rank-split": ("rank of Hess(L^2) exceeds rank of Hess(L) by one", 0.0, rank_split),
        "legendre-image-convexity": (
            "segments between image points stay inside the image of the unit ball", tol["convexity"],
            convexity,
        ),
        "tautological-pullback": (
            "the pulled-back tautological form equals the areolar form", tol["pullback"],
            lambda: pullback_residual(L, x, fibers,
                                      np.random.default_rng(seed + 3).standard_normal((samples, L.p, L.n))),
        ),
        "multisymplectic-nondegenerate": (
            "contraction into the canonical (p+1)-form has trivial kernel", 0.0, nondegenerate,
        ),
        "multisymplectic-closed": (
            "the canonical (p+1)-form has vanishing exterior derivative", tol["closedness"], closed,
        ),
    }
    if quadric is not None:
        quadric_tol, residual = quadric
        checks["legendre-image-quadric"] = (
            "sampled image points close on the unit quadric", quadric_tol,
            lambda: residual(image_coordinates(L, x, 500, seed=seed + 2)[1]),
        )

    recorder = _CheckRecorder()
    for name in VERIFY_CHECKS:
        if name in selected and name in checks:
            recorder.run(name, *checks[name])

    report = _base_report("verify", config)
    report["checks"] = recorder.checks
    report["overall"] = "pass" if recorder.all_passed else "fail"
    return report, recorder.all_passed


ACTION_TOLERANCES = {
    "graph_vs_lagrangian": 1e-6,
    "multisymplectic_vs_lagrangian": 1e-10,
    "order_target": 2.0,
    "order_window": 0.3,
}


def cmd_action(config: dict) -> tuple[dict, bool]:
    """Compute the applicable actions, their differences, and a convergence table."""
    _check_keys(
        config,
        {"lagrangian", "density", "surface", "resolutions", "quadrature", "tolerances", "reference"},
        {"lagrangian", "surface", "resolutions"},
        "config",
    )
    L = build_lagrangian(config["lagrangian"])
    n, p = L.n, L.p
    density = L.density if config.get("density") is None else build_density(config["density"], n, p)
    surface = build_surface(config["surface"], n, p)
    resolutions = config["resolutions"]
    if not isinstance(resolutions, list) or not resolutions:
        raise ConfigError(f"resolutions must be a nonempty list of integers, got {resolutions!r}")
    resolutions = [_count(r, "resolutions", 2) for r in resolutions]
    quad = QuadratureConfig(rule=config.get("quadrature", "midpoint"))
    tol = _merge_tolerances(ACTION_TOLERANCES, config.get("tolerances"))
    reference = config.get("reference")
    if reference is not None:
        reference = float(_finite(reference, "reference"))

    rows = []
    for res in sorted(resolutions):
        surf = replace(surface, resolution=res)
        grid = surf.to_grid()
        entry: dict[str, Any] = {"resolution": res}
        entry["lagrangian"] = lagrangian_action(L, grid, quad)
        entry["multisymplectic"] = multisymplectic_action(L, grid, quad)
        if density is not None:
            entry["graph"] = graph_action(density, surf, quad)
        rows.append(entry)

    finest = rows[-1]
    scale = max(1.0, abs(finest["lagrangian"]))
    recorder = _CheckRecorder()
    recorder.run(
        "action-multisymplectic-vs-lagrangian",
        "dual-side and Lagrangian actions agree cellwise",
        tol["multisymplectic_vs_lagrangian"],
        lambda: max(abs(r["multisymplectic"] - r["lagrangian"]) for r in rows) / scale,
    )
    if density is not None:
        recorder.run(
            "action-graph-vs-lagrangian",
            "density and Lagrangian actions agree on graphs",
            tol["graph_vs_lagrangian"],
            lambda: abs(finest["graph"] - finest["lagrangian"]),
        )
    convergence = None
    if len(resolutions) >= 3:
        study = convergence_rows({r["resolution"]: r["lagrangian"] for r in rows},
                                 surface.domain, reference)
        convergence = [asdict(r) for r in study]
        orders = [r.observed_order for r in study if r.observed_order is not None]

        def order_gap() -> float:
            if not orders:
                return 0.0  # errors at machine level: nothing to rate
            return max(abs(o - tol["order_target"]) for o in orders)
        recorder.run("action-convergence-order", "discretization error decays at the stencil order",
                     tol["order_window"], order_gap)

    report = _base_report("action", config)
    report["actions"] = rows
    if convergence is not None:
        report["convergence"] = convergence
    report["checks"] = recorder.checks
    report["overall"] = "pass" if recorder.all_passed else "fail"
    return report, recorder.all_passed


def cmd_image(config: dict, out_dir: Path) -> tuple[dict, bool]:
    """Sample the Legendre image, write the CSV cloud, and certify convexity."""
    _check_keys(
        config,
        {"lagrangian", "x", "count", "seed", "certificate", "csv", "tolerances"},
        {"lagrangian", "count"},
        "config",
    )
    L = build_lagrangian(config["lagrangian"])
    x = _base_point(config, L.n)
    count = _count(config["count"], "count", 0)
    seed = _count(config.get("seed", 0), "seed", 0)
    cert_cfg = config.get("certificate") or {}
    _check_keys(cert_cfg, {"num_pairs", "t_steps", "seed", "tolerance"}, set(), "certificate")
    num_pairs = _count(cert_cfg.get("num_pairs", 100), "certificate.num_pairs", 1)
    t_steps = _count(cert_cfg.get("t_steps", 5), "certificate.t_steps", 3)
    cert_seed = _count(cert_cfg.get("seed", seed + 1), "certificate.seed", 0)
    cert_tol = float(_finite(cert_cfg.get("tolerance", 1e-7), "certificate.tolerance"))
    tol = _merge_tolerances({"quadric": 1e-9}, config.get("tolerances"))

    grads = image_coordinates(L, x, count, seed=seed)[1]
    csv_path = out_dir / config.get("csv", "image_points.csv")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as stream:
        write_image_csv(x, grads, L.p, stream)

    recorder = _CheckRecorder()
    quadric = _image_quadric(L, tol["quadric"])
    if quadric is not None:
        quadric_tol, residual = quadric
        recorder.run("legendre-image-quadric", "sampled image points close on the unit quadric",
                     quadric_tol, lambda: residual(grads))
    cert = None

    def convexity() -> float:
        nonlocal cert
        cert = convexity_certificate(L, x, num_pairs=num_pairs, t_steps=t_steps,
                                     seed=cert_seed, tol=cert_tol)
        return cert.worst_violation
    recorder.run("legendre-image-convexity",
                 "segments between image points stay inside the image of the unit ball",
                 cert_tol, convexity)

    report = _base_report("image", config)
    report["csv"] = str(csv_path)
    report["num_points"] = count
    report["certificate"] = asdict(cert)
    report["checks"] = recorder.checks
    report["overall"] = "pass" if recorder.all_passed else "fail"
    return report, recorder.all_passed


def _base_report(command: str, config: dict) -> dict:
    return {"version": __version__, "command": command, "config": config}


def _write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multisymp",
        description="verification suites, action integrals and Legendre-image sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "run the identity and structure checks for a Lagrangian"),
        ("action", "compute the action integrals on a configured surface"),
        ("image", "sample the Legendre image to CSV and certify convexity"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", required=True, help="path of the JSON report")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out_path = Path(args.out)
    env_dir = os.environ.get(OUT_DIR_ENV)
    if env_dir:
        out_path = Path(env_dir) / out_path.name

    try:
        with open(args.config) as stream:
            config = json.load(stream)
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        if args.command == "verify":
            report, passed = cmd_verify(config)
        elif args.command == "action":
            report, passed = cmd_action(config)
        else:
            report, passed = cmd_image(config, out_path.parent if env_dir is None else Path(env_dir))
    except (json.JSONDecodeError, ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    try:
        _write_report(report, out_path)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"{args.command}: {report['overall']} ({len(report.get('checks', []))} checks) -> {out_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
