#!/usr/bin/env python3
"""Before/after benchmark record: a base revision against the working tree, in process pairs, passes and memory peaks.

Usage, from the repository root:

    python scripts/bench_pairs.py --base REV --pr N certificates:8 actions:3 [--seconds 15] [--seed 1]

Writes BENCH_<N>.json at the repository root, with three parts for each
WORKLOAD:PAIRS argument.  Exits 1 when a process run fails or reports
``correct: false``.  BLAS runs on one thread.

Both sides run from exports made the same way, ``git archive`` into a
temporary directory: the base from the committed files of REV, the head
from a tree of the working tree's files as they are, tracked or not but not
ignored, written through a temporary index.  So the two sides differ by
their files alone, not by where they lie or what a run left beside them.

``pairs``, run first for every workload: PAIRS pairs of
``bench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0``,
one in each export, the side that runs first alternating from pair to
pair.  Start-up time and resident memory need a process of their own, so
``setup_s``, ``peak_rss_mb``, ``ok_frac`` and the benchmark's own ``wall_s``
come from these runs: each pair's end-to-end metrics, and per metric both
sides' medians and quartiles, the median change, in how many pairs the
working tree was better, whether the medians lie further apart than the
base's interquartile range, that range over the base's median
(``resolution``, the smallest change the record could resolve), and
``gate``: the head won at least 9 in 10 pairs (ties count for neither) and
the medians lie beyond that range.

``passes``: the packages of the two exports are imported as
``multisymp_base`` and ``multisymp_head`` in this interpreter; the package
imports itself only relatively, so the two copies do not mix.  Whole passes
over the workload's jobs at seed SEED (the configs of ``bench/jobs.py``,
each a ``cli.main`` call as in ``bench/run.py``) run in the order base,
head, head, base, ..., so a drift of the machine falls on both sides alike,
for 2 x PAIRS x SECONDS seconds (as long as the pairs take) and until each
side has run first once after its untimed first pass.  Per side the entry
holds the pass median and quartiles, the sum of the per-job minima and every
job's minimum; then the head's change on both and the median over pass pairs
of head / base, and in how many jobs the head's minimum is the lower.  That
median pass ratio is the claim statistic (CLAIM): in A/A records it read
-0.3% to +0.4%, the pass median and the sum of minima up to +3.1% and +2.8%.

``peaks``: then each job runs once per side under its own ``tracemalloc``
trace, and the entry holds each side's peak in MiB per job and the head's
change.  numpy registers its buffers with tracemalloc, so a peak counts the
bytes a job holds at once, whatever the machine, and the packages are warm,
so no peak counts first-call imports or caches.  Each job's two minima and
two peaks are printed on one line, and ``src_lines`` records the line count
of ``src/multisymp/*.py`` in each export.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
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


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run in tree: its correctness and end-to-end metrics."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=seconds * 10 + 300)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


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


def job_peaks(main, job_list, reports: Path) -> dict[str, float]:
    """Each job's tracemalloc peak in MiB, from one run of each under its own trace."""
    peaks = {}
    for job, config in job_list:
        tracemalloc.start()  # cli.main returns an exit code for any exception, so the trace always stops
        run_job(main, job.command, config, reports / f"{job.name}.report.json")
        peaks[job.name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
        tracemalloc.stop()
    return peaks


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
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


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians and quartiles of each side, the median change, the pairs the head won, whether
    |head median - base median| exceeds the base's interquartile range, that range over the base's median
    (the resolution), and the claim gate: at least 9 in 10 pairs won and the medians beyond that range."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        base_median, head_median = statistics.median(base), statistics.median(head)
        base_quartiles = quartiles(base)
        spread = base_quartiles[1] - base_quartiles[0]
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        beyond = abs(head_median - base_median) > spread
        out[name] = {
            "base_median": base_median, "head_median": head_median,
            "base_quartiles": base_quartiles, "head_quartiles": quartiles(head),
            "median_change": head_median / base_median - 1.0 if base_median else None,
            "head_better_pairs": wins,
            "beyond_base_spread": beyond,
            "resolution": spread / base_median if base_median else None,
            "gate": 10 * wins >= 9 * len(pairs) and beyond,
        }
    return out


def record(runs: list[tuple[str, int]], base: str, seed: int, seconds: float) -> tuple[dict, bool]:
    """The record of each workload's pairs, passes and peaks, and whether every process run was correct."""
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base_sha, head_tree = git("rev-parse", base), worktree_tree()
    out = {
        "base": base_sha,
        "head": {"commit": git("rev-parse", "HEAD"), "tree": head_tree,
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "platform": platform.platform(),
        "cpu_count": len(os.sched_getaffinity(0)),
        "command": f"bench/run.py --workload W --seed {seed} --seconds {seconds:g} --trace 0",
        "claim": CLAIM,
        "workloads": {},
    }
    ok = True
    with package_src(base_sha) as base_src, package_src(head_tree) as head_src:
        trees = {"base": base_src.parent, "head": head_src.parent}
        # the size of each side's package, as `wc -l src/multisymp/*.py` counts it
        out["src_lines"] = {side: sum(path.read_bytes().count(b"\n") for path in (src / "multisymp").glob("*.py"))
                            for side, src in (("base", base_src), ("head", head_src))}
        print(f"src/multisymp lines: base {out['src_lines']['base']} head {out['src_lines']['head']}", flush=True)
        # process runs first: Linux counts a launcher's peak RSS into its child's, and the passes raise ours
        for workload, count in runs:
            pairs = []
            for k in range(count):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds)
                    ok = ok and pair[side]["correct"]
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{count}: wall_s base {pair['base']['metrics']['wall_s']:.4f} "
                      f"head {pair['head']['metrics']['wall_s']:.4f}", flush=True)
            summary = summarize(pairs, better)
            for name, m in summary.items():
                spread = "beyond" if m["beyond_base_spread"] else "within"
                change = "n/a" if m["median_change"] is None else f"{m['median_change']:+.1%}"
                resolution = "n/a" if m["resolution"] is None else f"{m['resolution']:.1%}"
                print(f"{workload} {name}: base {m['base_median']:.6g} head {m['head_median']:.6g} ({change}, "
                      f"resolution {resolution}, head better in {m['head_better_pairs']}/{count}, {spread} the "
                      f"base's interquartile range, gate {str(m['gate']).lower()})", flush=True)
            out["workloads"][workload] = {"pairs": pairs, "summary": summary}
        mains = {"base": import_package("multisymp_base", base_src).cli.main,
                 "head": import_package("multisymp_head", head_src).cli.main}
        jobs = load("jobs", ROOT / "bench")
        for workload, count in runs:
            with tempfile.TemporaryDirectory(prefix="bench-passes-") as work:
                job_list = jobs.write_configs(workload, seed, Path(work) / "configs")
                names = [job.name for job, _ in job_list]
                times = interleaved_passes(mains, job_list, Path(work), 2 * count * seconds)
                peaks = {side: job_peaks(mains[side], job_list, Path(work)) for side in SIDES}
            passes = out["workloads"][workload]["passes"] = pass_summary(times, names)
            peaks["change"] = {name: peaks["head"][name] / peaks["base"][name] - 1.0 for name in names}
            out["workloads"][workload]["peaks"] = peaks
            changes = ", ".join(f"{stat} {change:+.1%}" for stat, change in passes["change"].items())
            print(f"{workload} passes: {passes['passes']} per side, {changes}, head minimum lower in "
                  f"{passes['head_lower_jobs']} of {len(job_list)} jobs", flush=True)
            for name in names:
                base_min, head_min = (passes[side]["job_minima"][name] for side in SIDES)
                print(f"{workload} {name}: minimum base {base_min * 1e3:.3f} ms head {head_min * 1e3:.3f} ms "
                      f"({head_min / base_min - 1.0:+.1%}), peak base {peaks['base'][name]:.3f} MiB head "
                      f"{peaks['head'][name]:.3f} MiB ({peaks['change'][name]:+.1%})", flush=True)
    return out, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:PAIRS")
    parser.add_argument("--base", required=True, help="base revision, e.g. HEAD or a commit")
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=15.0, help="seconds per benchmark run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = []
    for spec in args.runs:
        workload, _, pairs = spec.partition(":")
        if not pairs.isdigit() or int(pairs) < 1:
            parser.error(f"expected WORKLOAD:PAIRS with PAIRS >= 1, got {spec!r}")
        runs.append((workload, int(pairs)))
    result, ok = record(runs, args.base, args.seed, args.seconds)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
