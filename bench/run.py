#!/usr/bin/env python3
"""Outside-in benchmark of the multisymp CLI.

Usage, from the repository root:

    python3 bench/run.py --workload {actions,certificates,verify} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --record      # rewrite bench/record/ from this commit

Each run is one process with BLAS threads set to 1.  It generates the
workload's configs from the seed, then calls ``multisymp.cli.main`` in-process
on every job, pass after pass, until ``--seconds`` have elapsed.  Every report
is checked against bench/record/ (see outcome.py).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` traced
passes alternate with untraced ones and it carries the per-layer metrics.
See bench/README.md for the workloads and what each metric should move.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported, here and in the set-up probes

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

import jobs as jobgen
import outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "multisymp"
OUT = Path("bench") / "out"  # relative, so the report fields that name files are the same in every checkout
MIN_PASSES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}
PER_LAYER = {
    "surfaces.self_s": "s",
    "surfaces.to_grid.calls": "count",
    "surfaces.to_grid.self_s": "s",
    "surfaces.grid_nodes": "count",
    "surfaces.cells": "count",
    "surfaces.graph_action.self_s": "s",
    "surfaces.lagrangian_action.self_s": "s",
    "surfaces.multisymplectic_action.self_s": "s",
    "surfaces.convergence_study.self_s": "s",
    "lagrangian.self_s": "s",
    "lagrangian.value_many.rows": "count",
    "lagrangian.value_many.self_s": "s",
    "lagrangian.gradient_many.rows": "count",
    "lagrangian.gradient_many.self_s": "s",
    "lagrangian.value.calls": "count",
    "lagrangian.gradient.calls": "count",
    "lagrangian.hessian.calls": "count",
    "lagrangian.value.self_s": "s",
    "lagrangian.gradient.self_s": "s",
    "lagrangian.hessian.self_s": "s",
    "exterior.self_s": "s",
    "exterior.fiber_elements.created": "count",
    "exterior.wedge_vectors.calls": "count",
    "exterior.wedge_vectors.self_s": "s",
    "exterior.random_decomposable.self_s": "s",
    "legendre.self_s": "s",
    "legendre.convexity_certificate.self_s": "s",
    "legendre.certificate.segments": "count",
    "legendre.certificate.failed_solves": "count",
    "legendre.certificate.solved_ratio": "ratio",
    "legendre.radial.iterations": "count",
    "legendre.inverse_legendre.calls": "count",
    "legendre.inverse_legendre.iterations": "count",
    "legendre.inverse_legendre.self_s": "s",
    "legendre.sample_image.self_s": "s",
    "legendre.rank_lemma_check.self_s": "s",
    "legendre.write_image_csv.self_s": "s",
    "multisymplectic.self_s": "s",
    "multisymplectic.nondegeneracy_check.self_s": "s",
    "multisymplectic.closedness_residual.self_s": "s",
    "multisymplectic.pullback_residual.self_s": "s",
    "multisymplectic.form_evals": "count",
    "cli.self_s": "s",
    "cli.cmd_action.self_s": "s",
    "cli.cmd_image.self_s": "s",
    "cli.cmd_verify.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """Import multisymp.cli from this checkout's src/, and nothing else."""
    if not (PACKAGE / "__init__.py").is_file():
        fail(f"no package at {PACKAGE}; run from a full checkout of the repository")
    sys.path.insert(0, str(PACKAGE.parent))
    import multisymp.cli
    if Path(multisymp.cli.__file__).resolve().parent != PACKAGE:
        fail(f"imported multisymp from {multisymp.cli.__file__}, not from {PACKAGE}")
    return multisymp.cli


def work_dir(workload: str) -> Path:
    return OUT / "work" / workload


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    multisymp.cli and written the workload's configs.

    The probe reports its finishing time on the system-wide monotonic clock,
    so interpreter teardown is not counted.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True)
    return float(probe.stdout) - start


def run_pass(main, job_list, reports: Path, recorder=None) -> tuple[float, list]:
    """One pass over the jobs; returns its wall time and (exit, stderr, seconds) per job."""
    for job, _ in job_list:
        (reports / f"{job.name}.report.json").unlink(missing_ok=True)
    results = []
    start = time.perf_counter()
    for index, (job, config) in enumerate(job_list):
        if recorder is not None:
            recorder.job = index
        err = io.StringIO()
        job_start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([job.command, "--config", str(config),
                             "--out", str(reports / f"{job.name}.report.json")])
            except Exception:  # a crash is an outcome of the job, judged below
                code = None
                traceback.print_exc(file=err)
        results.append((code, err.getvalue(), time.perf_counter() - job_start))
    return time.perf_counter() - start, results


def read_reports(job_list, reports: Path) -> list[tuple[dict | None, str | None]]:
    out = []
    for job, _ in job_list:
        path = reports / f"{job.name}.report.json"
        report = json.loads(path.read_text()) if path.exists() else None
        out.append((report, outcome.digest(report)))
    return out


def provenance(workload: str, seed: int) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    import numpy
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "variant": seed % jobgen.VARIANTS,
    }


def record_path(workload: str, seed: int) -> Path:
    return BENCH / "record" / workload / f"{seed % jobgen.VARIANTS}.json"


def record() -> int:
    """Run one pass of every workload variant and store its reports as the record."""
    cli = import_cli()
    for workload in jobgen.WORKLOADS:
        for variant in range(jobgen.VARIANTS):
            job_list = jobgen.write_configs(workload, variant, work_dir(workload))
            reports = work_dir(workload) / "reports"
            reports.mkdir(parents=True, exist_ok=True)
            _, results = run_pass(cli.main, job_list, reports)
            entry = {}
            for (job, _), (code, err, _), (report, sha) in zip(job_list, results,
                                                                read_reports(job_list, reports)):
                want = job.defect["exit"] if job.defect else job.expect_exit
                if code != want or (job.defect and job.defect["message"]
                                    and job.defect["message"] not in err):
                    fail(f"{workload}/{variant}/{job.name}: exit {code}, wanted {want}\n{err}")
                entry[job.name] = {"exit": code, "sha256": sha, "values": outcome.numbers(report)}
            path = record_path(workload, variant)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(entry, indent=0, sort_keys=True) + "\n")
            print(f"recorded {path.relative_to(ROOT)}")
    return 0


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_cli()
    if not trace:
        setup_probe(workload, seed)  # dropped: it may compile bytecode and fill the file cache
    job_list = jobgen.write_configs(workload, seed, work_dir(workload))
    reports = work_dir(workload) / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    recorded = json.loads(record_path(workload, seed).read_text())
    if sorted(recorded) != sorted(job.name for job, _ in job_list):
        fail(f"{record_path(workload, seed)} does not list this workload's jobs")

    recorder = None
    if trace:
        import spans
        recorder = spans.SpanRecorder()

    attempted = failed = met = 0
    digests: dict[str, set] = {job.name: set() for job, _ in job_list}
    walls = {False: [], True: []}
    job_seconds = {job.name: [] for job, _ in job_list}
    setup = []
    traced_passes = []
    last_spans = []
    deadline = time.perf_counter() + seconds
    number = 0
    while number < MIN_PASSES * (1 + trace) or time.perf_counter() < deadline:
        traced = trace and number % 2 == 1  # a traced run alternates, starting untraced
        if traced:
            recorder.install()
        try:
            wall, results = run_pass(cli.main, job_list, reports, recorder if traced else None)
        finally:
            if traced:
                recorder.uninstall()
        if traced:
            last_spans, counts = recorder.take()
            traced_passes.append(spans.summarize(last_spans, counts))
        walls[traced].append(wall)
        if not traced:
            for (job, _), (_, _, job_wall) in zip(job_list, results):
                job_seconds[job.name].append(job_wall)
        for (job, _), (code, err, _), (report, sha) in zip(job_list, results,
                                                            read_reports(job_list, reports)):
            job_met, expected = outcome.judge(job, code, err, outcome.numbers(report),
                                              recorded[job.name])
            attempted += 1
            met += job_met
            failed += not expected
            digests[job.name].add(sha)
            if not expected:
                drifted = outcome.drift(outcome.numbers(report), recorded[job.name]["values"])
                print(f"unexpected outcome of {job.name}: exit {code}, drifted {drifted[:5]}\n{err}",
                      file=sys.stderr)
        if not trace:
            # spread over the run, so the median sees the machine as the passes do
            setup.append(setup_probe(workload, seed))
        number += 1

    deterministic = all(len(d) == 1 for d in digests.values())
    bit_identical = sorted(name for name, d in digests.items() if d == {recorded[name]["sha256"]})
    info = {
        "provenance": provenance(workload, seed),
        "passes": {"untraced": walls[False], "traced": walls[True]},
        "job_median_s": {name: statistics.median(v) for name, v in job_seconds.items()},
        "deterministic_reports": deterministic,
        "bit_identical_to_record": f"{len(bit_identical)}/{len(digests)}",
        "setup_probes_s": setup,
    }
    correct = failed == 0 and deterministic
    if trace:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        counts_repeat = all(p[1] == traced_passes[0][1] for p in traced_passes)
        correct = correct and counts_repeat
        info["counts_repeat"] = counts_repeat
        values = spans.per_layer_metrics(list(PER_LAYER), traced_passes, overhead)
        units = PER_LAYER
        with open(OUT / f"spans-{workload}.jsonl", "w") as stream:
            for index, (name, start, end, parent, job) in enumerate(last_spans):
                stream.write(json.dumps([index, name, start, end, parent, job]) + "\n")
    else:
        values = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": met / attempted,
        }
        units = END_TO_END
    (OUT / f"run-{workload}-trace{int(trace)}.json").write_text(
        json.dumps({**info, "metrics": values}, indent=1) + "\n")
    print(json.dumps({"provenance": info["provenance"]}))
    for name, value in values.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def main() -> int:
    os.chdir(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobgen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the recorded reports")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        import_cli()
        jobgen.write_configs(args.workload, args.seed, work_dir(args.workload))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
