"""Batch driver: verification suites, action computations, image sampling.

Commands read a JSON config and write a JSON report (plus a CSV point cloud
for ``image``).  Every config value is read and checked before any work or
output.  Reports are deterministic for a fixed config apart from the
per-check timing fields.  Exit codes: 0 all checks pass, 1 a check failed,
2 usage or config error, 3 I/O error, 4 internal or numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .exterior import decomposable_rows
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
    _sampled_box,
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


def _shown(value: Any) -> str:
    """repr(value) for a message, unless value nests a list or object three deep, which no key reads (its
    shape is at most 2-D): such a repr would recurse as deep as the JSON does."""
    inner = [value]
    for _ in range(2):
        inner = [w for v in inner if isinstance(v, (list, dict)) for w in (v.values() if isinstance(v, dict) else v)]
    return "lists or objects nested more than 2 deep" if any(isinstance(v, (list, dict)) for v in inner) else repr(value)


def _numeric(value: Any) -> bool:
    """Whether value is a JSON number, a list of numbers or a list of such lists, the shapes a numeric key reads
    (2-D at most).  A bool or a string is none, though numpy reads true as 1.0 and "1e-6" as 1e-6."""
    rows = value if isinstance(value, list) else [value]
    return all(isinstance(w, (int, float)) and not isinstance(w, bool)
               for v in rows for w in (v if isinstance(v, list) else [v]))


def _finite(value: Any, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The config value as a float array of the given shape; JSON admits NaN and Infinity, configs do not."""
    try:
        arr = np.asarray(value, dtype=float) if _numeric(value) else None
    except (ValueError, OverflowError):  # a ragged list, or an int beyond any float
        arr = None
    if arr is None:
        raise ConfigError(f"{key} must be numeric, got {_shown(value)}")
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{key} must be {'a number' if shape == () else f'of shape {shape}'}, got {value!r}")
    if not np.isfinite(arr).all():
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


def _positive(value: Any, key: str, shape: tuple[int, ...] = ()) -> float | np.ndarray:
    """A positive number, or with a shape an array of positive numbers."""
    arr = _finite(value, key, shape)
    if np.any(arr <= 0.0):
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return arr if shape else float(arr)


def _count(value: Any, key: str, least: int) -> int:
    """The config value as an int; a boolean or a non-integral number is rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {_shown(value)}")
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _choice(value: Any, options, key: str) -> str:
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"{key} must be one of {sorted(options)}, got {_shown(value)}")
    return value


def _section(obj: dict, key: str, allowed: set[str], required: set[str], where: str) -> dict:
    """obj[key] checked by _check_keys, or {} when it is missing or null; no other value is read as {}."""
    value = {} if obj.get(key) is None else obj[key]
    _check_keys(value, allowed, required, where)
    return value


def _merge_tolerances(defaults: dict[str, float], config: dict) -> dict[str, float]:
    """The defaults, each overridden by its entry under config["tolerances"]."""
    overrides = _section(config, "tolerances", set(defaults), set(), "tolerances")
    return defaults | {key: _tolerance(value, f"tolerances.{key}") for key, value in overrides.items()}


def _certificate(config: dict, keys: set[str], seed: int, tol: float) -> dict:
    """The convexity_certificate arguments under config["certificate"], where only the given keys may be set."""
    spec = _section(config, "certificate", keys, set(), "certificate")
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
    params = _section(spec, "params", set(defaults), set(), f"{where}.params")
    return make(n, p, **{k: _positive(params.get(k, v), f"{where}.params.{k}") for k, v in defaults.items()})


# name -> (its params keys, all required, and the constructor from n, p and the params)
LAGRANGIANS: dict[str, tuple[set[str], Callable[[int, int, dict], HomogeneousLagrangian]]] = {
    "area": (set(), lambda n, p, params: area_lagrangian(n, p)),
    "ellipsoid": ({"weights"}, lambda n, p, params: ellipsoid_lagrangian(
        n, p, _positive(params["weights"], "lagrangian.params.weights", (math.comb(n, p),)))),
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
    params = _section(spec, "params", keys, keys, "lagrangian.params")
    return make(n, p, params)


# map name -> its params keys, each required except bilinear's scale (default 1).  Each map is read as monomial
# terms per component: a plane's c_kj s_k in axis order, bilinear's scale s_1...s_p, flat's none, a polynomial's own
GRAPH_PARAMS = {"flat": set(), "plane": {"coefficients"}, "bilinear": {"scale"}, "polynomial": {"terms"}}
Term = tuple[str, float, list[tuple[int, int | float]]]  # (the config key of coeff, coeff, [(axis, power)])


def _graph_terms(spec: dict, n: int, p: int) -> list[list[Term]]:
    """The configured graph map as its monomial terms per component, each parameter checked under its key."""
    name = _choice(spec["f"], GRAPH_PARAMS, "surface.f")
    params = _section(spec, "params", GRAPH_PARAMS[name], GRAPH_PARAMS[name] - {"scale"}, "surface.params")
    codim = n - p
    components: list[list[Term]] = [[] for _ in range(codim)]
    if name == "plane":  # one column may be given as a flat list
        key = "surface.params.coefficients"
        coeffs = _finite(params["coefficients"], key)
        if coeffs.shape != (p, codim) and (codim, coeffs.shape) != (1, (p,)):
            raise ConfigError(f"{key} must be of shape {(p, codim)}, got {params['coefficients']!r}")
        components = [[(key, c, [(k, 1)]) for k, c in enumerate(col)] for col in coeffs.reshape(p, codim).T.tolist()]
    elif name == "bilinear":
        if codim != 1:
            raise ConfigError(f"surface.f must name a map with {codim} components, got 'bilinear' (one component)")
        scale = _number(params.get("scale", 1.0), "surface.params.scale")
        components[0].append(("surface.params.scale", scale, [(k, 1) for k in range(p)]))
    elif name == "polynomial":
        terms = params["terms"]
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"surface.params.terms must be a nonempty list of terms, got {_shown(terms)}")
        for i, term in enumerate(terms):
            key = f"surface.params.terms[{i}]"
            _check_keys(term, {"coeff", "powers", "component"}, {"coeff", "powers"}, key)
            coeff = _number(term["coeff"], f"{key}.coeff")
            powers = _finite(term["powers"], f"{key}.powers", (p,))
            component = _count(term.get("component", 1), f"{key}.component", 1)
            if component > codim:
                raise ConfigError(f"{key}.component must be at most {codim}, got {term['component']!r}")
            # zero powers are left out, since a factor of 1 is exact; positive integral powers become ints
            factors = [(k, int(e) if e.is_integer() and e > 0 else float(e))
                       for k, e in enumerate(powers.tolist()) if e != 0]
            components[component - 1].append((f"{key}.coeff", coeff, factors))
    return components


def _graph_values(components: list[list[Term]], s: np.ndarray) -> np.ndarray:
    """The one graph-map kernel: the sums of monomial terms per component at parameter points of shape (N, p), as
    (N, n-p), or at one point (p,), as (n-p,).  A term is ((f_1 f_2) ...) coeff over its factors f = s_k**e,
    started from f_1, since 1 f_1 is exact; a component's first term is written in place and each later one
    added in order, and a component without terms stays 0.  Each factor reads one coordinate column, so a row's
    value depends on its own point alone, whatever the batch it comes in."""
    s = np.asarray(s, dtype=float)
    out = np.zeros((len(components),) + s.shape[:-1])
    term, power = np.empty(s.shape[:-1]), np.empty(s.shape[:-1])
    for c, terms in enumerate(components):
        row = out[c, ...]  # a view also at one point, where out[c] would be a copy
        for j, (_, coeff, factors) in enumerate(terms):
            target, value = term if j else row, 1.0
            for i, (k, e) in enumerate(factors):
                factor = s[..., k] if e == 1 else _column_power(s[..., k], e, power if i else target)
                value = np.multiply(value, factor, out=target) if i else factor
            np.multiply(value, coeff, out=target)
            if j:
                row += term
    return out.T


def _column_power(x: np.ndarray, e: int | float, out: np.ndarray) -> np.ndarray:
    """x**e, in out unless e is 1.  An int e >= 1 is computed by exact repeated products, square and multiply
    from the leading bit ((x * x) * x for 3), so each entry depends on its own x alone.  Any other e is
    numpy's power of the column with a scalar exponent, one elementwise loop whose entries do not depend on
    the batch either (vector pow with masked tails where numpy has it, libm pow elsewhere)."""
    if isinstance(e, float):
        return np.power(x, e, out=out)
    result = x
    for bit in bin(e)[3:]:
        result = np.multiply(result, result, out=out)
        if bit == "1":
            np.multiply(out, x, out=out)
    return result


def build_surface(spec: Any, n: int, p: int, resolution: int, rule: str) -> GraphSurface:
    """The configured graph surface at resolution, its map parsed once into the monomial terms of one kernel.  The
    map must be finite on _sampled_box, where the actions at rule sample it at this resolution or any finer one.
    Each factor s_k**e, so each term, is largest in magnitude at a point whose coordinates are interval ends, or 0
    where an interval holds 0; the kernel runs at those points.  A ConfigError names the first term whose factors
    are not finite there by its powers (a bilinear map's by the domain), else the first term that is not by its
    coefficient's key, else the first component whose sum overflows by its terms' key."""
    _check_keys(spec, {"f", "params", "domain"}, {"f", "domain"}, "surface")
    domain = _finite(spec["domain"], "surface.domain", (p, 2))
    if np.any(domain[:, 1] <= domain[:, 0]):
        raise ConfigError(f"surface.domain must have intervals of positive length, got {spec['domain']!r}")
    components = _graph_terms(spec, n, p)
    surface = GraphSurface(f=functools.partial(_graph_values, components), domain=domain, resolution=resolution,
                           p=p, n=n)
    box = _sampled_box(surface, rule)
    points = np.array(list(itertools.product(*(sorted({lo, hi} | ({0.0} if lo <= 0.0 <= hi else set()))
                                               for lo, hi in box))))
    with np.errstate(all="ignore"):
        finite = np.isfinite(_graph_values(components, points)).all()
    if not finite:  # one column per term's factors, per term and per component, each with the key it names
        terms = [term for part in components for term in part]
        parts = [[(key, 1.0, factors)] for key, _, factors in terms] + [[term] for term in terms] + components
        keys = ([key[:-5] + "powers" if key.endswith("coeff") else "surface.domain" for key, _, _ in terms]
                + [key for key, _, _ in terms] + [terms[0][0].partition("[")[0]] * len(components))
        with np.errstate(all="ignore"):
            values = _graph_values(parts, points)
        col, row = np.argwhere(~np.isfinite(values.T))[0]
        raise ConfigError(f"{keys[col]} must keep the map finite where the actions sample it, but it reads "
                          f"{values[row, col]} at s = {points[row].tolist()} in the sampled box "
                          f"{np.array(box).tolist()}")
    return surface


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


@contextlib.contextmanager
def _phase(name: str):
    """Tag an exception raised inside with ``phase = name``, unless an inner phase tagged it first; ``main``
    names the phase on exit 4."""
    try:
        yield
    except Exception as exc:
        if not hasattr(exc, "phase"):
            exc.phase = name
        raise


def _report(command: str, config: dict, checks: Checks, **fields: Any) -> tuple[dict, bool]:
    """Run and time the checks in order, each in the phase ``check <name>``; the report with the
    fields, and whether every check passed.
    """
    records = []
    for name, (tolerance, measure) in checks.items():
        start = time.perf_counter()
        with _phase(f"check {name}"):
            measured = float(measure())
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


def _image_checks(L: HomogeneousLagrangian, x: np.ndarray, count: int, seed: int, quadric_tol: float,
                  cert: dict) -> tuple[Checks, Callable[[], np.ndarray], Callable]:
    """The legendre-image-quadric check on a cloud of count gradient rows at seed, if L declares an image quadric
    and the cloud is nonempty (an empty cloud is no evidence), then the legendre-image-convexity check on
    convexity_certificate(L, x, **cert); and the cloud and that certificate, each computed once when first called.
    The quadric's own tolerance, if it has one, overrides quadric_tol."""
    cloud = functools.cache(lambda: image_coordinates(L, x, count, seed=seed)[1])
    certificate = functools.cache(lambda: convexity_certificate(L, x, **cert))
    checks: Checks = {}
    if L.image_quadric is not None and count > 0:
        quadric, fixed = L.image_quadric
        checks["legendre-image-quadric"] = (quadric_tol if fixed is None else fixed,
                                            lambda: float(np.max(np.abs(quadric(cloud()) - 1.0))))
    checks["legendre-image-convexity"] = (cert["tol"], lambda: certificate().worst_violation)
    return checks, cloud, certificate


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


def _prologue(config: dict, keys: set[str], required: set[str]) -> tuple[HomogeneousLagrangian, np.ndarray, int]:
    """Check the config's keys, which are lagrangian (required), x, seed and the given ones; then read, in this
    order, the Lagrangian, the base point x (default 0) and the seed (default 0)."""
    _check_keys(config, {"lagrangian", "x", "seed"} | keys, {"lagrangian"} | required, "config")
    L = build_lagrangian(config["lagrangian"])
    return L, _finite(config.get("x", [0.0] * L.n), "x", (L.n,)), _count(config.get("seed", 0), "seed", 0)


def cmd_verify(config: dict) -> tuple[dict, bool]:
    """Run the identity and structure suites for one configured Lagrangian."""
    L, x, seed = _prologue(config, {"samples", "rank_samples", "certificate", "tolerances", "checks"}, set())
    samples = _count(config.get("samples", 100), "samples", 1)
    rank_samples = _count(config.get("rank_samples", min(50, samples)), "rank_samples", 1)
    if rank_samples > samples:
        raise ConfigError(f"rank_samples must be at most samples = {samples}, got {rank_samples}")
    tol = _merge_tolerances(VERIFY_TOLERANCES, config)
    cert = _certificate(config, {"num_pairs", "t_steps"}, seed + 1, tol["convexity"])
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
    checks.update(_image_checks(L, x, 500, seed + 2, tol["quadric"], cert)[0])
    # the quadric check needs an image quadric, which lifts and the probes do not declare
    selected = config.get("checks", list(checks))
    if not isinstance(selected, list) or not selected:
        raise ConfigError(f"checks must be a nonempty list of check names, got {_shown(selected)}")
    for name in selected:
        if _choice(name, VERIFY_CHECKS, "checks") not in checks:
            raise ConfigError(f"checks must leave out {name!r}: {L.name} declares no image quadric")
    if len(set(selected)) < len(selected):
        raise ConfigError(f"checks must be distinct, got {selected!r}")

    with _phase("verify sampling"):  # the fibers that the checks read, once the config's checks are known good
        fibers = decomposable_rows(np.random.default_rng(seed), L.n, L.p, samples, L.chart, 0.25, L.sampling_floor)
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
        raise ConfigError(f"resolutions must be a nonempty list of integers, got {_shown(resolutions)}")
    resolutions = sorted(_count(r, "resolutions", 2) for r in resolutions)
    if len(set(resolutions)) < len(resolutions):
        raise ConfigError(f"resolutions must be distinct, got {config['resolutions']!r}")
    rule = _choice(config.get("quadrature", "midpoint"), QUADRATURE_RULES, "quadrature")
    surface = build_surface(config["surface"], n, p, resolutions[0], rule)
    tol = _merge_tolerances(ACTION_TOLERANCES, config)
    reference = config.get("reference")
    if reference is not None:
        reference = _number(reference, "reference")
        if len(resolutions) < 3:  # only the convergence table reads it
            raise ConfigError(f"reference must come with at least three resolutions, got {len(resolutions)}")

    rows = []
    for res in resolutions:
        where = f"action resolution {res}"
        surf = replace(surface, resolution=res)
        grid = surf.to_grid()  # samples nothing: the paired actions sample the nodes slab by slab
        entry: dict[str, Any] = {"resolution": res}
        with _phase(f"{where}: paired actions"):
            entry["lagrangian"], entry["multisymplectic"] = paired_actions(L, grid, rule)
        if density is not None:
            with _phase(f"{where}: graph action"):
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


def cmd_image(config: dict, report_path: Path) -> tuple[dict, bool]:
    """Sample the Legendre image, certify convexity, then write the CSV cloud beside the report at report_path."""
    L, x, seed = _prologue(config, {"count", "certificate", "csv", "tolerances"}, {"count"})
    count = _count(config["count"], "count", 0)
    cert = _certificate(config, {"num_pairs", "t_steps", "seed", "tolerance"}, seed + 1, VERIFY_TOLERANCES["convexity"])
    tol = _merge_tolerances({"quadric": VERIFY_TOLERANCES["quadric"]}, config)
    csv_name = config.get("csv", "image_points.csv")
    if not isinstance(csv_name, str) or csv_name in ("", "..") or Path(csv_name).name != csv_name:
        raise ConfigError(f"csv must be a bare file name, got {_shown(csv_name)}")
    if csv_name == report_path.name:  # the report would be written over the cloud
        raise ConfigError(f"csv must name another file than the report, got {csv_name!r}")

    checks, cloud, certificate = _image_checks(L, x, count, seed, tol["quadric"], cert)
    with _phase("image sampling"):
        grads = cloud()
    csv_path = report_path.parent / csv_name
    report, passed = _report("image", config, checks, csv=str(csv_path), num_points=count)
    report["certificate"] = asdict(certificate())
    # written once every check has run, so that a check that raises leaves no cloud behind
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as stream:
        write_image_csv(x, grads, L.p, stream)
    return report, passed


def _read_config(path: str) -> dict:
    with open(path) as stream:
        try:
            config = json.load(stream)
        except (ValueError, RecursionError) as exc:  # malformed JSON, bytes that are not UTF-8, or nesting too deep
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
            report, passed = cmd_image(config, out_path)
        # encoded before the file is opened, so a serialization error leaves no file, and written
        # in one call instead of json.dump's thousands of small writes
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(out_path, "w") as stream:
                stream.write(text)
        except OSError:  # an image cloud is not left behind without its report
            if args.command == "image":
                Path(report["csv"]).unlink(missing_ok=True)
            raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect or a numerical failure: never reported as a config error
        where = f" (in {exc.phase})" if hasattr(exc, "phase") else ""
        print(f"internal or numerical failure: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return 4
    print(f"{args.command}: {report['overall']} ({len(report.get('checks', []))} checks) -> {out_path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
