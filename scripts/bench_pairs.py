#!/usr/bin/env python3
"""Before/after benchmark record: a base revision against the working tree, in interleaved passes and memory peaks.

Usage, from the repository root:

    python scripts/bench_pairs.py --base REV --pr N certificates actions [--seconds 60] [--seed 1]

Writes BENCH_<N>.json at the repository root, with two parts for each
WORKLOAD of ``bench/jobs.py``.  Exits 1 naming every job whose report
misses the record.  BLAS runs on one thread.

Both sides' packages come from exports made the same way, ``git archive``
into a temporary directory: the base from the committed files of REV, the
head from a tree of the working tree's files as they are, tracked or not
but not ignored, written through a temporary index.  So the two sides
differ by their files alone, not by where they lie or what a run left
beside them.  They are imported as ``multisymp_base`` and
``multisymp_head`` in this interpreter; the package imports itself only
relatively, so the two copies do not mix.

``passes``: whole passes over the workload's jobs at seed SEED (the configs
of ``bench/jobs.py``, each a ``cli.main`` call as in ``bench/run.py``) run
in the order base, head, head, base, ..., so a drift of the machine falls on
both sides alike, for SECONDS seconds and until each side has run first once
after its untimed first pass.  Per side the entry holds the pass median and
quartiles, the sum of the per-job minima and every job's minimum; then the
head's change on both and the median over pass pairs of head / base, and in
how many jobs the head's minimum is the lower.  That median pass ratio is
the claim statistic (CLAIM): in A/A records it read -0.3% to +0.4%, the pass
median and the sum of minima up to +3.1% and +2.8%.

``peaks``: then each job runs once per side under its own ``tracemalloc``
trace, and the entry holds each side's peak in MiB per job and the head's
change.  numpy registers its buffers with tracemalloc, so a peak counts the
bytes a job holds at once, whatever the machine, and the packages are warm,
so no peak counts first-call imports or caches.  Each of these runs is
judged as ``bench/run.py`` judges one, by ``bench/outcome.py`` against
``bench/record/WORKLOAD/<SEED % 16>.json``.  Each job's two minima and two
peaks are printed on one line, and ``src_lines`` records the line count of
``src/multisymp/*.py`` in each export.  Start-up time and resident memory
need a process of their own: ``setup_s`` and ``peak_rss_mb`` come from
``bench/run.py`` run in each tree.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from importlib.metadata import version
from pathlib import Path

from report_trees import ROOT, git_stdout, import_package, load, package_src, run_job

SIDES = ("base", "head")
CLAIM = "median_pass_ratio"


def git(*args: str, env: dict | None = None) -> str:
    """The stdout of ``git args`` in the checkout, stripped; a failing command ends the run naming it."""
    return git_stdout(list(args), ROOT, env).decode().strip()


def worktree_tree() -> str:
    """The id of a git tree of the working tree's files as they are now, tracked or untracked but not ignored,
    written through a temporary index, so the repository's own index is left as it is."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def interleaved_passes(mains: dict, job_list, reports: Path, seconds: float) -> dict[str, list[list[float]]]:
    """Per side, each timed pass's seconds per job.  Passes run in the order base, head, head, base, ... until
    seconds have passed and at least three per side have run; the first of each side is untimed."""
    times = {side: [] for side in SIDES}
    deadline = time.perf_counter() + seconds
    while len(times["base"]) < 3 or time.perf_counter() < deadline:
        for side in SIDES if len(times["base"]) % 2 == 0 else SIDES[::-1]:
            times[side].append([])
            for job, config in job_list:
                start = time.perf_counter()
                run_job(mains[side], job.command, config, reports / f"{job.name}.report.json")
                times[side][-1].append(time.perf_counter() - start)
    return {side: passes[1:] for side, passes in times.items()}


def job_peaks(main, job_list, reports: Path, outcome, recorded: dict) -> tuple[dict[str, float], list[str]]:
    """Each job's tracemalloc peak in MiB, from one run of each under its own trace; and the jobs whose run
    bench/run.py would count as failed, judged by outcome against the recorded reports."""
    peaks, misses = {}, []
    for job, config in job_list:
        report = reports / f"{job.name}.report.json"
        report.unlink(missing_ok=True)  # a run that writes no report is judged as one
        tracemalloc.start()  # cli.main returns an exit code for any exception, so the trace always stops
        code, err = run_job(main, job.command, config, report)
        peaks[job.name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
        tracemalloc.stop()
        values = outcome.numbers(json.loads(report.read_text()) if report.exists() else None)
        if not outcome.judge(job, code, err, values, recorded[job.name])[1]:
            misses.append(job.name)
    return peaks, misses


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles of at least two values: interleaved_passes times two passes per side or more."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def pass_summary(times: dict[str, list[list[float]]], names: list[str]) -> dict:
    """Per side: the pass median and quartiles, the sum of the per-job minima and each job's minimum; then the
    head's change on both and on the median pass ratio, and in how many jobs the head's minimum is the lower.
    Pass k of each side ran next to the other's, so their ratio is free of the machine's slower drift."""
    walls = {side: [sum(seconds) for seconds in times[side]] for side in SIDES}
    out = {"passes": len(times["base"])}
    for side in SIDES:
        minima = [min(job) for job in zip(*times[side])]
        out[side] = {"pass_median": statistics.median(walls[side]), "pass_quartiles": quartiles(walls[side]),
                     "sum_of_job_minima": sum(minima), "job_minima": dict(zip(names, minima))}
    base, head = out["base"], out["head"]
    out["change"] = {stat: head[stat] / base[stat] - 1.0 for stat in ("pass_median", "sum_of_job_minima")}
    out["change"]["median_pass_ratio"] = statistics.median(h / b for h, b in zip(walls["head"], walls["base"])) - 1.0
    out["head_lower_jobs"] = sum(head["job_minima"][name] < base["job_minima"][name] for name in names)
    return out


def record(workloads: list[str], base: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """The record of each workload's passes and peaks, and each side's job whose report misses the record, as
    ``workload side job``."""
    base_sha, head_tree = git("rev-parse", base), worktree_tree()
    out = {
        "base": base_sha,
        "head": {"commit": git("rev-parse", "HEAD"), "tree": head_tree,
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "platform": platform.platform(),
        "cpu_count": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "claim": CLAIM,
        "workloads": {},
    }
    misses = []
    jobs, outcome = load("jobs", ROOT / "bench"), load("outcome", ROOT / "bench")
    with package_src(base_sha) as base_src, package_src(head_tree) as head_src:
        # the size of each side's package, as `wc -l src/multisymp/*.py` counts it
        out["src_lines"] = {side: sum(path.read_bytes().count(b"\n") for path in (src / "multisymp").glob("*.py"))
                            for side, src in (("base", base_src), ("head", head_src))}
        print(f"src/multisymp lines: base {out['src_lines']['base']} head {out['src_lines']['head']}", flush=True)
        mains = {"base": import_package("multisymp_base", base_src).cli.main,
                 "head": import_package("multisymp_head", head_src).cli.main}
        for workload in workloads:
            recorded = json.loads((ROOT / "bench" / "record" / workload / f"{seed % jobs.VARIANTS}.json").read_text())
            peaks = {}
            with tempfile.TemporaryDirectory(prefix="bench-passes-") as work:
                job_list = jobs.write_configs(workload, seed, Path(work) / "configs")
                names = [job.name for job, _ in job_list]
                times = interleaved_passes(mains, job_list, Path(work), seconds)
                for side in SIDES:
                    peaks[side], missed = job_peaks(mains[side], job_list, Path(work), outcome, recorded)
                    misses += [f"{workload} {side} {name}" for name in missed]
            passes = pass_summary(times, names)
            peaks["change"] = {name: peaks["head"][name] / peaks["base"][name] - 1.0 for name in names}
            out["workloads"][workload] = {"passes": passes, "peaks": peaks}
            changes = ", ".join(f"{stat} {change:+.1%}" for stat, change in passes["change"].items())
            print(f"{workload} passes: {passes['passes']} per side, {changes}, head minimum lower in "
                  f"{passes['head_lower_jobs']} of {len(job_list)} jobs", flush=True)
            for name in names:
                base_min, head_min = (passes[side]["job_minima"][name] for side in SIDES)
                print(f"{workload} {name}: minimum base {base_min * 1e3:.3f} ms head {head_min * 1e3:.3f} ms "
                      f"({head_min / base_min - 1.0:+.1%}), peak base {peaks['base'][name]:.3f} MiB head "
                      f"{peaks['head'][name]:.3f} MiB ({peaks['change'][name]:+.1%})", flush=True)
    return out, misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=load("jobs", ROOT / "bench").WORKLOADS, metavar="WORKLOAD")
    parser.add_argument("--base", required=True, help="base revision, e.g. HEAD or a commit")
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=60.0, help="seconds of interleaved passes per workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    result, misses = record(args.workloads, args.base, args.seed, args.seconds)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    for miss in misses:
        print(f"MISSES THE RECORD: {miss}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
