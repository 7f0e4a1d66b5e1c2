"""Seeded job lists for the two benchmark workloads, with expected verdicts.

A job is one ``multisymp`` CLI invocation: a subcommand and the JSON config it
reads.  Each job carries the exit code the README documents for it (0 for a
valid config, 1 for the geometric-mean probe, whose convexity check must
fail).  Two jobs miss that verdict at the commit the record was taken; they
carry a ``defect`` entry naming the exit code they give instead.

Inputs depend only on ``(workload, seed % VARIANTS)``, so every seed maps to
one of the variants whose reports are recorded under ``record/``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

VARIANTS = 16
WORKLOADS = ("actions", "certificates")

# Copies of configs/action_plane.json and configs/action_bilinear.json, frozen
# here so that an edit to the bundled configs does not change the benchmark.
BUNDLED_ACTIONS = {
    "bundled_plane": {
        "lagrangian": {"name": "area", "n": 3, "p": 2},
        "density": {"name": "minimal_surface"},
        "surface": {"f": "plane", "params": {"coefficients": [2.0, 3.0]},
                    "domain": [[0.0, 1.0], [0.0, 1.0]]},
        "resolutions": [64],
        "tolerances": {"graph_vs_lagrangian": 1e-8},
    },
    "bundled_bilinear": {
        "lagrangian": {"name": "area", "n": 3, "p": 2},
        "density": {"name": "minimal_surface"},
        "surface": {"f": "bilinear", "domain": [[0.0, 1.0], [0.0, 1.0]]},
        "resolutions": [16, 32, 64, 128],
        "reference": 1.2807892621906034,
    },
}

# With three or more resolutions and no reference, convergence_study takes the
# finest value as exact, which biases the last observed order to log2(5) = 2.32,
# outside the window 2 +- 0.3.
CONVERGENCE_DEFECT = {"exit": 1, "message": None}
# LevelSetSampler samples the whole fiber sphere instead of the positive-top
# chart, so the convexity check raises OrientationError, reported as a config error.
CHART_DEFECT = {"exit": 2, "message": "graph chart needs a positive top coordinate"}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: dict
    expect_exit: int = 0
    defect: dict | None = None


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding is stable across Python versions and platforms
    return random.Random(f"{workload}:{seed % VARIANTS}")


def _polynomial(rng: random.Random, p: int, codim: int) -> dict:
    """Graph map whose central and corner-averaged slopes agree exactly.

    Terms are multilinear monomials or powers of a single coordinate; for
    those, the graph density and Lagrangian quadratures see the same slopes,
    so the graph-vs-Lagrangian check holds to rounding at any resolution.
    """
    terms = []
    for component in range(1, codim + 1):
        for _ in range(3):
            if rng.random() < 0.5:
                powers = [rng.randint(0, 1) for _ in range(p)]
            else:
                powers = [0] * p
                powers[rng.randrange(p)] = rng.randint(2, 3)
            terms.append({"coeff": round(rng.uniform(-1.0, 1.0), 6), "powers": powers,
                          "component": component})
    return {"f": "polynomial", "params": {"terms": terms}, "domain": [[0.0, 1.0]] * p}


def _weights(rng: random.Random, n: int, p: int) -> list[float]:
    return [round(2.0 ** rng.uniform(-1.5, 1.5), 6) for _ in range(comb(n, p))]


def actions_jobs(seed: int) -> list[Job]:
    rng = _rng("actions", seed)
    jobs = [Job(name, "action", cfg) for name, cfg in BUNDLED_ACTIONS.items()]
    jobs.append(Job("bilinear_no_reference", "action", {
        "lagrangian": {"name": "area", "n": 3, "p": 2},
        "density": {"name": "minimal_surface"},
        "surface": {"f": "bilinear", "params": {"scale": round(rng.uniform(0.5, 2.0), 6)},
                    "domain": [[0.0, 1.0], [0.0, 1.0]]},
        "resolutions": [16, 32, 64],
    }, defect=CONVERGENCE_DEFECT))
    lift = {"name": "minimal_surface"}
    for n, p, res in ((3, 2, [48]), (4, 2, [24, 32]), (5, 3, [8])):
        surface = _polynomial(rng, p, n - p)
        jobs.append(Job(f"poly_area_{n}{p}", "action", {
            "lagrangian": {"name": "area", "n": n, "p": p},
            "surface": surface, "resolutions": res,
        }))
        jobs.append(Job(f"poly_lift_{n}{p}", "action", {
            "lagrangian": {"name": "graph_lift", "n": n, "p": p, "params": {"density": lift}},
            "surface": surface, "resolutions": res,
        }))
    jobs.append(Job("bilinear_lift_32", "action", {
        "lagrangian": {"name": "graph_lift", "n": 3, "p": 2, "params": {"density": lift}},
        "surface": {"f": "bilinear", "params": {"scale": round(rng.uniform(0.5, 2.0), 6)},
                    "domain": [[0.0, 1.0], [0.0, 1.0]]},
        "resolutions": [192],
    }))
    jobs.append(Job("poly_area_32_gauss2", "action", {
        "lagrangian": {"name": "area", "n": 3, "p": 2},
        "surface": _polynomial(rng, 2, 1), "resolutions": [12],
        "quadrature": "gauss2",
    }))
    return jobs


def certificates_jobs(seed: int) -> list[Job]:
    """The image jobs, then the verify jobs, which each run a small certificate too."""
    rng = _rng("certificates", seed)
    jobs = []
    for n, p, pairs in ((3, 2, 300), (4, 2, 250), (5, 3, 200)):
        for name in ("area", "ellipsoid"):
            lagrangian = {"name": name, "n": n, "p": p}
            if name == "ellipsoid":
                lagrangian["params"] = {"weights": _weights(rng, n, p)}
            jobs.append(Job(f"image_{name}_{n}{p}", "image", {
                "lagrangian": lagrangian,
                "count": 300,
                "seed": rng.randrange(10**6),
                "certificate": {"num_pairs": pairs, "t_steps": 5, "seed": rng.randrange(10**6)},
                "csv": f"image_{name}_{n}{p}.csv",
            }))
    # The probe's cost is dominated by its failed solves, whose number depends
    # on the sample; its seeds are fixed so that every variant does equal work.
    jobs.append(Job("image_probe_32", "image", {
        "lagrangian": {"name": "geometric_mean", "n": 3, "p": 2},
        "count": 100,
        "seed": 11,
        "certificate": {"num_pairs": 20, "t_steps": 5, "seed": 3},
        "csv": "image_probe_32.csv",
    }, expect_exit=1))
    specs = [("area", 3, 2), ("area", 4, 2), ("ellipsoid", 3, 2), ("ellipsoid", 4, 2),
             ("projected_volume", 3, 2), ("projected_volume", 4, 2), ("ellipsoid", 5, 3)]
    for name, n, p in specs:
        lagrangian = {"name": name, "n": n, "p": p}
        if name == "ellipsoid":
            lagrangian["params"] = {"weights": _weights(rng, n, p)}
        jobs.append(Job(f"verify_{name}_{n}{p}", "verify", {
            "lagrangian": lagrangian, "seed": rng.randrange(10**6),
            "samples": 60, "rank_samples": 30, "certificate": {"num_pairs": 10, "t_steps": 5},
        }))
    jobs.append(Job("verify_lift_32", "verify", {
        "lagrangian": {"name": "graph_lift", "n": 3, "p": 2,
                       "params": {"density": {"name": "minimal_surface"}}},
        "seed": rng.randrange(10**6), "samples": 60, "rank_samples": 30,
        "certificate": {"num_pairs": 10, "t_steps": 5},
    }, defect=CHART_DEFECT))
    jobs.append(Job("verify_probe_32", "verify", {  # fixed seed, as for image_probe_32
        "lagrangian": {"name": "geometric_mean", "n": 3, "p": 2}, "seed": 20260810,
        "samples": 60, "rank_samples": 30, "certificate": {"num_pairs": 10, "t_steps": 5},
    }, expect_exit=1))
    return jobs


GENERATORS = {"actions": actions_jobs, "certificates": certificates_jobs}


def write_configs(workload: str, seed: int, work_dir: Path) -> list[tuple[Job, Path]]:
    """Generate the workload's jobs and write one config file per job."""
    config_dir = work_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for job in GENERATORS[workload](seed):
        path = config_dir / f"{job.name}.json"
        path.write_text(json.dumps(job.config, indent=1, sort_keys=True))
        out.append((job, path))
    return out
