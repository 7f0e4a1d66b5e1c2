#!/usr/bin/env python3
"""The tracemalloc peak of each benchmark job, one JSON line per job.

Usage, from the repository root:

    python scripts/job_peaks.py WORKLOAD [--variant V] [--rev REV]

Runs ``multisymp.cli.main`` in-process on every job of WORKLOAD at variant V
(default 0; the configs of ``bench/jobs.py``), each job under its own
``tracemalloc`` trace, begun after the package is imported, and prints
``{"job": NAME, "exit": CODE, "peak_mib": PEAK}`` per job, in job order.
numpy registers its buffers with tracemalloc, so a peak counts the bytes a
job holds at once over the imports, whatever the machine.  The package
comes from this checkout's src/, or with --rev from the committed files of
REV, as in ``scripts/report_trees.py``; reports and CSV clouds go to a
temporary directory.  BLAS runs on one thread.  A parent against a change:

    python scripts/job_peaks.py actions --variant 5 --rev HEAD
    python scripts/job_peaks.py actions --variant 5
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from report_trees import ROOT, import_cli, load, package_src


def job_peaks(workload: str, variant: int, src: Path = ROOT / "src") -> list[dict]:
    """Per job of the workload at the variant, in order: its name, exit code and tracemalloc peak in MiB."""
    main = import_cli(src).main
    jobs = load("jobs", ROOT / "bench")
    rows = []
    with tempfile.TemporaryDirectory(prefix="job-peaks-") as work:
        for job, config in jobs.write_configs(workload, variant, Path(work)):
            out = Path(work) / f"{job.name}.report.json"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                tracemalloc.start()
                try:
                    code = main([job.command, "--config", str(config), "--out", str(out)])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            rows.append({"job": job.name, "exit": code, "peak_mib": round(peak / 2**20, 3)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=load("jobs", ROOT / "bench").WORKLOADS)
    parser.add_argument("--variant", type=int, default=0, help="the jobs' variant (seed), default 0")
    parser.add_argument("--rev", help="run the package of this revision instead of the working tree")
    args = parser.parse_args(argv)
    with package_src(args.rev) as src:
        rows = job_peaks(args.workload, args.variant, src)
    for row in rows:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
