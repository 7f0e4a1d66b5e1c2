#!/usr/bin/env python3
"""In-process A/B of whole benchmark passes: a revision's package against the working tree's, in one interpreter.

Usage, from the repository root:

    python scripts/pass_ab.py WORKLOAD --rev REV [--passes 200] [--seed 1]

Imports the package of REV (``git archive``, as in ``scripts/report_trees.py``)
as ``multisymp_base`` and this checkout's src/ as ``multisymp_head``; the
package imports itself only relatively, so the two copies do not mix.  After
one untimed pass per side, it runs PASSES timed passes per side over the jobs
of WORKLOAD at seed SEED (the configs of ``bench/jobs.py``, each job a
``cli.main`` call as in ``bench/run.py``), in the order base, head, head,
base, ..., so a drift of the machine falls on both sides alike.  Prints per
side the median and quartiles of the pass wall time and the sum of the
per-job minima, then the head's change on both and in how many jobs the
head's minimum is the lower, then one JSON line with every job's minimum
per side.  Both sides share one process, so the spread is much narrower
than between ``bench/run.py`` processes; the script measures and records
nothing, and a claimed gain still needs a ``BENCH_<pr>.json`` from
``scripts/bench_pairs.py``.
BLAS runs on one thread.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from report_trees import ROOT, load, package_src

SIDES = ("base", "head")


def import_cli(name: str, src: Path):
    """The cli module of the package under src, imported as the package ``name``."""
    package = src / "multisymp"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pass(main, job_list, out: Path) -> list[float]:
    """One pass over the jobs; the seconds of each job, in order."""
    seconds = []
    for job, config in job_list:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main([job.command, "--config", str(config), "--out", str(out / f"{job.name}.report.json")])
        seconds.append(time.perf_counter() - start)
    return seconds


def pass_ab(workload: str, sources: dict[str, Path], passes: int, seed: int) -> dict:
    """Per side: the wall time of each timed pass, and per job its seconds in each timed pass."""
    mains = {side: import_cli(f"multisymp_{side}", sources[side]).main for side in SIDES}
    jobs = load("jobs", ROOT / "bench")
    times = {side: {"passes": [], "jobs": {}} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="pass-ab-") as work:
        job_list = jobs.write_configs(workload, seed, Path(work) / "configs")
        for side in SIDES:
            run_pass(mains[side], job_list, Path(work))
        for k in range(passes):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                seconds = run_pass(mains[side], job_list, Path(work))
                times[side]["passes"].append(sum(seconds))
                for (job, _), s in zip(job_list, seconds):
                    times[side]["jobs"].setdefault(job.name, []).append(s)
    return times


def summary(times: dict) -> dict:
    """Per side: the pass median and quartiles and the sum of the per-job minima, in seconds."""
    out = {}
    for side, t in times.items():
        q1, _, q3 = statistics.quantiles(t["passes"], n=4, method="inclusive")
        out[side] = {"median": statistics.median(t["passes"]), "quartiles": [q1, q3],
                     "sum_of_job_minima": sum(min(s) for s in t["jobs"].values())}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=load("jobs", ROOT / "bench").WORKLOADS)
    parser.add_argument("--rev", required=True, help="the base revision, e.g. HEAD or a commit")
    parser.add_argument("--passes", type=int, default=200, help="timed passes per side, default 200")
    parser.add_argument("--seed", type=int, default=1, help="the jobs' seed, default 1")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    with package_src(args.rev) as base:
        times = pass_ab(args.workload, {"base": base, "head": ROOT / "src"}, args.passes, args.seed)
    stats = summary(times)
    for side, s in stats.items():
        print(f"{side}: pass median {s['median'] * 1e3:.2f} ms, quartiles "
              f"{s['quartiles'][0] * 1e3:.2f}-{s['quartiles'][1] * 1e3:.2f} ms, "
              f"sum of per-job minima {s['sum_of_job_minima'] * 1e3:.2f} ms")
    base, head = stats["base"], stats["head"]
    minima = {side: {job: min(s) for job, s in t["jobs"].items()} for side, t in times.items()}
    lower = sum(minima["head"][job] < m for job, m in minima["base"].items())
    print(f"head against base: pass median {head['median'] / base['median'] - 1.0:+.1%}, "
          f"sum of per-job minima {head['sum_of_job_minima'] / base['sum_of_job_minima'] - 1.0:+.1%}, "
          f"head minimum lower in {lower} of {len(minima['base'])} jobs")
    print(json.dumps(minima))
    return 0


if __name__ == "__main__":
    sys.exit(main())
