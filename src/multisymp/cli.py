"""Batch driver: verification suites, action computations, image sampling.

Commands read a JSON config and write a JSON report (plus a CSV point cloud
for ``image``).  Every config value is read and checked before any work or
output.  Reports are deterministic for a fixed config apart from the
per-check timing fields.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or config error, 3 I/O error, 4 internal or numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .exterior import _reduce, decomposable_rows
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
    QUADRATURE_RULES,
    GraphSurface,
    convergence_rows,
    graph_action,
    paired_actions,
)


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


def _finite(value: Any, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The config value as a float array of the given shape; JSON admits NaN and Infinity, configs do not."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be numeric, got {value!r}") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{key} must be {'a number' if shape == () else f'of shape {shape}'}, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return arr


def _number(value: Any, key: str) -> float:
    return float(_finite(value, key, ()))


def _tolerance(value: Any, key: str) -> float:
    """A tolerance bounds a residual, which is never negative; 0 asks for an exact result."""
    tol = _number(value, key)
    if tol < 0.0:
        raise ConfigError(f"{key} must be at least 0, got {value!r}")
    return tol


def _positive(value: Any, key: str) -> float:
    number = _number(value, key)
    if number <= 0.0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return number


def _count(value: Any, key: str, least: int) -> int:
    """The config value as an int; a boolean or a non-integral number is rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _choice(value: Any, options, key: str) -> str:
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"{key} must be one of {sorted(options)}, got {value!r}")
    return value


def _base_point(config: dict, n: int) -> np.ndarray:
    return _finite(config.get("x", [0.0] * n), "x", (n,))


def _section(obj: dict, key: str) -> Any:
    """obj[key], or {} when it is missing or null; _check_keys rejects any other value that is no object."""
    value = obj.get(key)
    return {} if value is None else value


def _merge_tolerances(defaults: dict[str, float], overrides: Any) -> dict[str, float]:
    merged = dict(defaults)
    if overrides is None:
        return merged
    _check_keys(overrides, set(defaults), set(), "tolerances")
    for key, value in overrides.items():
        merged[key] = _tolerance(value, f"tolerances.{key}")
    return merged


def _certificate(config: dict, keys: set[str], seed: int, tol: float) -> dict:
    """The convexity_certificate arguments under config["certificate"], where only the given keys may be set."""
    spec = _section(config, "certificate")
    _check_keys(spec, keys, set(), "certificate")
    return {
        "num_pairs": _count(spec.get("num_pairs", 100), "certificate.num_pairs", 1),
        "t_steps": _count(spec.get("t_steps", 5), "certificate.t_steps", 3),
        "seed": _count(spec.get("seed", seed), "certificate.seed", 0),
        "tol": _tolerance(spec.get("tolerance", tol), "certificate.tolerance"),
    }


# name -> (constructor, its numeric parameters with their defaults); each must be positive
DENSITIES = {
    "constant": (constant_density, {"value": 1.0}),
    "minimal_surface": (minimal_surface_density, {}),
    "graph_area": (graph_area_density, {}),
}


def build_density(spec: Any, n: int, p: int, where: str = "density") -> GraphDensity:
    _check_keys(spec, {"name", "params"}, {"name"}, where)
    make, defaults = DENSITIES[_choice(spec["name"], DENSITIES, f"{where}.name")]
    params = _section(spec, "params")
    _check_keys(params, set(defaults), set(), f"{where}.params")
    return make(n, p, **{k: _positive(params.get(k, v), f"{where}.params.{k}") for k, v in defaults.items()})


def _weights(value: Any, n: int, p: int) -> np.ndarray:
    weights = _finite(value, "lagrangian.params.weights", (math.comb(n, p),))
    if np.any(weights <= 0.0):
        raise ConfigError(f"lagrangian.params.weights must be positive, got {value!r}")
    return weights


# name -> (its params keys, all required, and the constructor from n, p and the params)
LAGRANGIANS: dict[str, tuple[set[str], Callable[[int, int, dict], HomogeneousLagrangian]]] = {
    "area": (set(), lambda n, p, params: area_lagrangian(n, p)),
    "ellipsoid": ({"weights"}, lambda n, p, params: ellipsoid_lagrangian(n, p, _weights(params["weights"], n, p))),
    "graph_lift": ({"density"}, lambda n, p, params: graph_lift(
        build_density(params["density"], n, p, "lagrangian.params.density"))),
    "projected_volume": (set(), lambda n, p, params: projected_volume_lagrangian(n, p)),
    "geometric_mean": (set(), lambda n, p, params: geometric_mean_lagrangian(n, p)),
}


def build_lagrangian(spec: Any) -> HomogeneousLagrangian:
    _check_keys(spec, {"name", "n", "p", "params"}, {"name", "n", "p"}, "lagrangian")
    keys, make = LAGRANGIANS[_choice(spec["name"], LAGRANGIANS, "lagrangian.name")]
    n, p = _count(spec["n"], "lagrangian.n", 1), _count(spec["p"], "lagrangian.p", 1)
    if p >= n:
        raise ConfigError(f"lagrangian.p must be below lagrangian.n = {n}, got {p}")
    params = _section(spec, "params")
    _check_keys(params, keys, keys, "lagrangian.params")
    return make(n, p, params)


# map name -> its params keys, each required except bilinear's scale (default 1)
GRAPH_PARAMS = {"flat": set(), "plane": {"coefficients"}, "bilinear": {"scale"}, "polynomial": {"terms"}}


def _graph_map(spec: dict, n: int, p: int) -> Callable[[np.ndarray], np.ndarray]:
    """The configured graph map, each parameter checked under its key; the map takes parameter
    points of shape (N, p) to graph values of shape (N, n-p), and one point (p,) to (n-p,)."""
    name = _choice(spec["f"], GRAPH_PARAMS, "surface.f")
    params, codim = _section(spec, "params"), n - p
    _check_keys(params, GRAPH_PARAMS[name], GRAPH_PARAMS[name] - {"scale"}, "surface.params")
    if name == "flat":
        return lambda s: np.zeros(np.shape(s)[:-1] + (codim,))
    if name == "plane":  # one column may be given as a flat list
        coeffs = _finite(params["coefficients"], "surface.params.coefficients")
        if coeffs.shape != (p, codim) and (codim, coeffs.shape) != (1, (p,)):
            raise ConfigError(f"surface.params.coefficients must be of shape {(p, codim)}, "
                              f"got {params['coefficients']!r}")
        coeffs = coeffs.reshape(p, codim)
        # elementwise, not a matmul, so a row's value does not depend on the batch size
        return lambda s: sum(s[..., k, None] * coeffs[k] for k in range(p))
    if name == "bilinear":
        if codim != 1:
            raise ConfigError(f"surface.f must name a map with {codim} components, got 'bilinear' (one component)")
        scale = _number(params.get("scale", 1.0), "surface.params.scale")
        return lambda s: scale * _reduce(np.multiply, s, axis=-1, keepdims=True)
    terms = params["terms"]
    if not isinstance(terms, list) or not terms:
        raise ConfigError(f"surface.params.terms must be a nonempty list of terms, got {terms!r}")
    parsed = []
    for i, term in enumerate(terms):
        key = f"surface.params.terms[{i}]"
        _check_keys(term, {"coeff", "powers", "component"}, {"coeff", "powers"}, key)
        coeff = _number(term["coeff"], f"{key}.coeff")
        powers = _finite(term["powers"], f"{key}.powers", (p,))
        component = _count(term.get("component", 1), f"{key}.component", 1)
        if component > codim:
            raise ConfigError(f"{key}.component must be at most {codim}, got {term['component']!r}")
        parsed.append((coeff, powers, component - 1))

    def poly(s: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(s)[:-1] + (codim,))
        for coeff, powers, component in parsed:
            # keep one (N, p) ** (p,) power: numpy turns a scalar exponent of 2 into x * x, which differs
            # from pow in the last bit for some x, so the recorded values would move
            out[..., component] += coeff * _reduce(np.multiply, s**powers, axis=-1)
        return out

    return poly


def build_surface(spec: Any, n: int, p: int, resolution: int) -> GraphSurface:
    _check_keys(spec, {"f", "params", "domain"}, {"f", "domain"}, "surface")
    domain = _finite(spec["domain"], "surface.domain", (p, 2))
    if np.any(domain[:, 1] <= domain[:, 0]):
        raise ConfigError(f"surface.domain must have intervals of positive length, got {spec['domain']!r}")
    return GraphSurface(f=_graph_map(spec, n, p), domain=domain, resolution=resolution, p=p, n=n)


CLAIMS = {
    "degree-1-homogeneity": "L(x, s*y) = s*L(x, y) for s > 0",
    "euler-identity": "L equals the pairing of its fiber gradient with y",
    "gradient-degree-0": "fiber gradient is invariant under positive rescaling",
    "vanishing-hamiltonian": "dual pairing minus L vanishes on the gradient image",
    "hessian-rank-split": "rank of Hess(L^2) exceeds rank of Hess(L) by one",
    "legendre-image-convexity": "segments between image points stay inside the image of the unit ball",
    "legendre-image-quadric": "sampled image points close on the unit quadric",
    "tautological-pullback": "the pulled-back tautological form equals the areolar form",
    "multisymplectic-nondegenerate": "contraction into the canonical (p+1)-form has trivial kernel",
    "multisymplectic-closed": "the canonical (p+1)-form has vanishing exterior derivative",
    "action-multisymplectic-vs-lagrangian": "dual-side and Lagrangian actions agree cellwise",
    "action-graph-vs-lagrangian": "density and Lagrangian actions agree on graphs",
    "action-convergence-order": "discretization error decays at the stencil order",
}
VERIFY_CHECKS = tuple(name for name in CLAIMS if not name.startswith("action-"))

# a check: its tolerance and the measurement that is held to it
Checks = dict[str, tuple[float, Callable[[], float]]]


def _report(command: str, config: dict, checks: Checks, **fields: Any) -> tuple[dict, bool]:
    """Run and time the checks in order; the report with the fields, and whether every check passed.

    An exception a measurement raises carries the check's name as ``failed_check``.
    """
    records = []
    for name, (tolerance, measure) in checks.items():
        start = time.perf_counter()
        try:
            measured = float(measure())
        except Exception as exc:
            exc.failed_check = name
            raise
        elapsed = (time.perf_counter() - start) * 1000.0
        records.append({
            "name": name,
            "claim": CLAIMS[name],
            "status": "pass" if measured <= tolerance else "fail",
            "measured": measured,
            "tolerance": float(tolerance),
            "runtime_ms": round(elapsed, 3),
        })
    passed = all(c["status"] == "pass" for c in records)
    report = {"version": __version__, "command": command, "config": config, **fields,
              "checks": records, "overall": "pass" if passed else "fail"}
    return report, passed


def _image_checks(L: HomogeneousLagrangian, x: np.ndarray, grads: Callable[[], np.ndarray], quadric_tol: float,
                  cert: dict) -> tuple[Checks, Callable]:
    """The legendre-image-quadric check on the gradient rows grads(), if L has an image quadric, then
    the legendre-image-convexity check on convexity_certificate(L, x, **cert); and that certificate,
    computed once.  The quadric's own tolerance, if it has one, overrides quadric_tol.
    """
    certificate = functools.cache(lambda: convexity_certificate(L, x, **cert))
    checks: Checks = {}
    if L.image_quadric is not None:
        quadric, fixed = L.image_quadric
        checks["legendre-image-quadric"] = (quadric_tol if fixed is None else fixed,
                                            lambda: float(np.max(np.abs(quadric(grads()) - 1.0), initial=0.0)))
    checks["legendre-image-convexity"] = (cert["tol"], lambda: certificate().worst_violation)
    return checks, certificate


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
    rank_samples = _count(config.get("rank_samples", min(50, samples)), "rank_samples", 1)
    if rank_samples > samples:
        raise ConfigError(f"rank_samples must be at most samples = {samples}, got {rank_samples}")
    tol = _merge_tolerances(VERIFY_TOLERANCES, config.get("tolerances"))
    cert = _certificate(config, {"num_pairs", "t_steps"}, seed + 1, tol["convexity"])
    # the quadric check needs an image quadric, which lifts and the probes do not declare
    runnable = [name for name in VERIFY_CHECKS if name != "legendre-image-quadric" or L.image_quadric is not None]
    selected = config.get("checks", runnable)
    if not isinstance(selected, list) or not selected:
        raise ConfigError(f"checks must be a nonempty list of check names, got {selected!r}")
    for name in selected:
        if _choice(name, VERIFY_CHECKS, "checks") not in runnable:
            raise ConfigError(f"checks must leave out {name!r}: {L.name} declares no image quadric")
    if len(set(selected)) < len(selected):
        raise ConfigError(f"checks must be distinct, got {selected!r}")

    fibers = decomposable_rows(np.random.default_rng(seed), L.n, L.p, samples, L.chart, 0.25, L.sampling_floor)
    chart = TotalSpaceChart(L.n, L.p)

    def per_unit_value(residuals: np.ndarray) -> float:
        return float(np.max(residuals / np.maximum(1.0, np.abs(L.value_many(x, fibers)))))

    def grad_scale() -> float:
        base = L.gradient_many(x, fibers)
        return max(float(np.max(np.abs(L.gradient_many(x, lam * fibers) - base)))
                   for lam in (0.5, 2.0, 1000.0))

    def rank_split() -> float:
        report = rank_lemma_check(L, x, fibers[:rank_samples], threshold=tol["rank_threshold"])
        return float(np.max(np.abs(report.rank_L2 - 1 - report.rank_L)))

    def nondegenerate() -> float:
        point = np.random.default_rng(seed + 4).standard_normal(chart.dim_total)
        return float(chart.dim_total - nondegeneracy_check(omega(chart), point)[1])

    def closed() -> float:
        form = omega(chart)
        # per sample: the point, then the k+1 vectors, in the order of a sample-by-sample loop
        draws = np.random.default_rng(seed + 5).standard_normal((20, form.degree + 2, chart.dim_total))
        return float(np.max(closedness_residual(form, draws[:, 0], draws[:, 1:], h=1e-4)))

    checks: Checks = {
        "degree-1-homogeneity": (
            tol["homogeneity"], lambda: float(np.max(homogeneity_residual(L, x, fibers, (0.5, 2.0, 10.0)))),
        ),
        "euler-identity": (tol["euler"], lambda: per_unit_value(euler_residual(L, x, fibers))),
        "gradient-degree-0": (tol["gradient_scale"], grad_scale),
        "vanishing-hamiltonian": (
            tol["hamiltonian"],
            lambda: per_unit_value(np.abs(hamiltonian(L, x, L.gradient_many(x, fibers), fibers))),
        ),
        "hessian-rank-split": (0.0, rank_split),
        "tautological-pullback": (
            tol["pullback"],
            lambda: pullback_residual(L, x, fibers,
                                      np.random.default_rng(seed + 3).standard_normal((samples, L.p, L.n))),
        ),
        "multisymplectic-nondegenerate": (0.0, nondegenerate),
        "multisymplectic-closed": (tol["closedness"], closed),
    }
    checks.update(_image_checks(L, x, lambda: image_coordinates(L, x, 500, seed=seed + 2)[1],
                                tol["quadric"], cert)[0])
    return _report("verify", config, {name: checks[name] for name in VERIFY_CHECKS if name in selected})


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
    resolutions = config["resolutions"]
    if not isinstance(resolutions, list) or not resolutions:
        raise ConfigError(f"resolutions must be a nonempty list of integers, got {resolutions!r}")
    resolutions = sorted(_count(r, "resolutions", 2) for r in resolutions)
    if len(set(resolutions)) < len(resolutions):
        raise ConfigError(f"resolutions must be distinct, got {config['resolutions']!r}")
    surface = build_surface(config["surface"], n, p, resolutions[0])
    rule = _choice(config.get("quadrature", "midpoint"), QUADRATURE_RULES, "quadrature")
    tol = _merge_tolerances(ACTION_TOLERANCES, config.get("tolerances"))
    reference = config.get("reference")
    if reference is not None:
        reference = _number(reference, "reference")

    rows = []
    for res in resolutions:
        surf = replace(surface, resolution=res)
        grid = surf.to_grid()
        entry: dict[str, Any] = {"resolution": res}
        entry["lagrangian"], entry["multisymplectic"] = paired_actions(L, grid, rule)
        if density is not None:
            entry["graph"] = graph_action(density, surf, rule)
        rows.append(entry)

    finest = rows[-1]
    scale = max(1.0, abs(finest["lagrangian"]))
    checks: Checks = {"action-multisymplectic-vs-lagrangian": (
        tol["multisymplectic_vs_lagrangian"],
        lambda: max(abs(r["multisymplectic"] - r["lagrangian"]) for r in rows) / scale,
    )}
    if density is not None:
        checks["action-graph-vs-lagrangian"] = (tol["graph_vs_lagrangian"],
                                                lambda: abs(finest["graph"] - finest["lagrangian"]))
    fields: dict[str, Any] = {"actions": rows}
    if len(resolutions) >= 3:
        study = convergence_rows({r["resolution"]: r["lagrangian"] for r in rows}, surface.domain, reference)
        fields["convergence"] = [asdict(r) for r in study]
        orders = [r.observed_order for r in study if r.observed_order is not None]
        # without orders the errors are at machine level: nothing to rate
        checks["action-convergence-order"] = (
            tol["order_window"], lambda: max((abs(o - tol["order_target"]) for o in orders), default=0.0),
        )
    return _report("action", config, checks, **fields)


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
    cert = _certificate(config, {"num_pairs", "t_steps", "seed", "tolerance"}, seed + 1, 1e-7)
    tol = _merge_tolerances({"quadric": 1e-9}, config.get("tolerances"))
    csv_name = config.get("csv", "image_points.csv")
    if not isinstance(csv_name, str) or csv_name in ("", "..") or Path(csv_name).name != csv_name:
        raise ConfigError(f"csv must be a bare file name, got {csv_name!r}")

    grads = image_coordinates(L, x, count, seed=seed)[1]
    csv_path = out_dir / csv_name
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as stream:
        write_image_csv(x, grads, L.p, stream)

    checks, certificate = _image_checks(L, x, lambda: grads, tol["quadric"], cert)
    report, passed = _report("image", config, checks, csv=str(csv_path), num_points=count)
    report["certificate"] = asdict(certificate())
    return report, passed


def _read_config(path: str) -> dict:
    with open(path) as stream:
        try:
            config = json.load(stream)
        except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
            raise ConfigError(exc) from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out_path = Path(args.out)

    try:
        config = _read_config(args.config)
        if args.command == "verify":
            report, passed = cmd_verify(config)
        elif args.command == "action":
            report, passed = cmd_action(config)
        else:
            report, passed = cmd_image(config, out_path.parent)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect or a numerical failure: never reported as a config error
        where = f" (in check {exc.failed_check})" if hasattr(exc, "failed_check") else ""
        print(f"internal or numerical failure: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return 4
    print(f"{args.command}: {report['overall']} ({len(report.get('checks', []))} checks) -> {out_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
