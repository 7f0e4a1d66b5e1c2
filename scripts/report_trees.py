#!/usr/bin/env python3
"""Write every output of the benchmark jobs and the bundled configs into one deterministic tree.

Usage, from the repository root:

    python scripts/report_trees.py OUT [--rev REV]

Runs ``multisymp.cli.main`` in-process on every job of both benchmark
workloads at each variant (the configs of ``bench/jobs.py``) and on every
config under configs/, whose command is its file name up to the first
``_``.  Each run writes its report, its CSV cloud if it is an ``image``
run, and a ``.exit`` file that holds the exit code on the first line and
the run's stderr after it, into OUT/<workload>/<variant>/ or OUT/bundled/.
Each report is then made deterministic: its checks' ``runtime_ms`` timings
are taken out, its ``csv`` is named relative to the report's directory, and
it is written back as sorted, indented JSON.  So two trees of the same code
are byte-identical, wherever they were written.  The package comes from
this checkout's src/, or with --rev from the committed files of REV (``git
archive`` into a temporary directory; a REV that git cannot archive ends
the script with git's own message, before OUT is made).  The jobs and
configs always come from this checkout, so two trees differ only by the
package.  BLAS runs on one thread, as in bench/run.py.  OUT must be new or
empty.

Each run is judged by its exit code: a job's ``expect_exit``, and for a
bundled config 0, or its entry in BUNDLED_EXITS.  The whole tree is always
written.  Then the script prints each bundled config's exit code, wall time
and failed checks, their total wall time, the summed ``runtime_ms`` of each
command's check with its count of reports, and one line per run with an
unexpected exit, and exits 1 if there is such a run, else 0.  A parent
against a change, in two fresh interpreters:

    python scripts/report_trees.py base --rev REV
    python scripts/report_trees.py head
    diff -r base head
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# detector sensitivity: the nonconvex probe must fail its convexity check; every other bundled config passes
BUNDLED_EXITS = {"verify_probe": 1}


def load(name: str, directory: Path):
    """The module in directory/name.py, imported under name (registered, as dataclasses need)."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_package(name: str, src: Path):
    """The package under src with its cli module, imported afresh as the package ``name``.

    The package imports itself only relatively, so copies imported under
    different names do not mix, and none of them is the installed
    ``multisymp``.  An earlier import under the same name is dropped first.
    """
    for key in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[key]
    package = src / "multisymp"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def git_stdout(args: list[str], cwd: Path, env: dict | None = None) -> bytes:
    """The stdout of ``git args`` run in cwd.  A failing command ends the script with a message that names it and
    carries git's own stderr, such as ``fatal: not a valid object name: REV``."""
    proc = subprocess.run(["git", *args], cwd=cwd, env=env, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"git {' '.join(args)} exited {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked into dest."""
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git_stdout(["archive", rev], ROOT), check=True)


@contextlib.contextmanager
def package_src(rev: str | None):
    """The src/ directory to import the package from: this checkout's, or with rev the committed files of
    rev, exported into a temporary directory for the duration.  First sets BLAS to one thread, which numpy
    reads when the package imports it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if rev is None:
        yield SRC
        return
    with tempfile.TemporaryDirectory(prefix="multisymp-rev-") as tree:
        export(rev, Path(tree))
        yield Path(tree) / "src"


def run_job(main, command: str, config: Path, report: Path) -> tuple[int, str]:
    """One CLI job writing its report to report, with stdout and stderr redirected; its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), "--out", str(report)])
    return code, err.getvalue()


def bundled_configs() -> list[tuple[str, Path, int]]:
    """Each config under configs/ as a run: its command (its file name up to the first _), path and expected exit."""
    return [(path.name.split("_", 1)[0], path, BUNDLED_EXITS.get(path.stem, 0))
            for path in sorted((ROOT / "configs").glob("*.json"))]


def write_run(main, command: str, config: Path, path: Path) -> tuple[int, str, dict[str, float]]:
    """One CLI job, its report written deterministic at <path>.report.json and its exit code and stderr at
    <path>.exit; its exit code, its stderr and the ``runtime_ms`` taken out of each check, by check name."""
    report = path.with_name(f"{path.name}.report.json")
    code, err = run_job(main, command, config, report)
    path.with_name(f"{path.name}.exit").write_text(f"{code}\n{err}")
    timings = {}
    if report.exists():
        fields = json.loads(report.read_text())
        timings = {check["name"]: check.pop("runtime_ms") for check in fields["checks"]}
        if "csv" in fields:
            fields["csv"] = os.path.relpath(fields["csv"], report.parent)
        report.write_text(json.dumps(fields, indent=2, sort_keys=True) + "\n")
    return code, err, timings


def write_tree(out: Path, src: Path = SRC) -> tuple[list[tuple[Path, int, int, float, str]],
                                                   dict[tuple[str, str], list[float]]]:
    """Every output of every benchmark job and bundled config, by the package under src, into out, each through
    write_run at <target>/<name>.  Per run, in the order run: <target>/<name>, its exit code, its expected exit,
    its wall time in seconds and its stderr; and each (command, check)'s ``runtime_ms`` over the runs."""
    main = import_package("multisymp_tree", src).cli.main
    jobs = load("jobs", ROOT / "bench")
    results, times = [], {}
    with tempfile.TemporaryDirectory(prefix="report-trees-") as configs:
        runs = [(out / workload / str(variant) / job.name, job.command, config, job.expect_exit)
                for workload in jobs.WORKLOADS for variant in range(jobs.VARIANTS)
                for job, config in jobs.write_configs(workload, variant, Path(configs) / workload / str(variant))]
        runs += [(out / "bundled" / config.stem, command, config, expected)
                 for command, config, expected in bundled_configs()]
        for path, command, config, expected in runs:
            path.parent.mkdir(parents=True, exist_ok=True)
            start = time.perf_counter()
            code, err, timings = write_run(main, command, config, path)
            results.append((path, code, expected, time.perf_counter() - start, err))
            for name, ms in timings.items():
                times.setdefault((command, name), []).append(ms)
    return results, times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the tree, new or empty")
    parser.add_argument("--rev", help="run the package of this revision instead of the working tree")
    args = parser.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        parser.error(f"{args.out} must be a new or empty directory")
    with package_src(args.rev) as src:
        results, times = write_tree(args.out, src)
    bundled = [(path, code, wall) for path, code, _, wall, _ in results if path.parent == args.out / "bundled"]
    for path, code, wall in bundled:
        report = path.with_name(f"{path.name}.report.json")
        if report.exists():
            checks = json.loads(report.read_text())["checks"]
            summary = f"checks={len(checks)} failed={[c['name'] for c in checks if c['status'] == 'fail'] or '-'}"
        else:
            summary = "no report"
        print(f"{path.name:28s} exit={code} wall={wall:.3f}s {summary}")
    print(f"{'total':28s} wall={sum(wall for _, _, wall in bundled):.3f}s")
    for (command, name), ms in sorted(times.items()):
        print(f"{command:6s} {name:36s} {sum(ms):9.1f} ms over {len(ms)} reports")
    unexpected = [(path, code, expected, err) for path, code, expected, _, err in results if code != expected]
    for path, code, expected, err in unexpected:
        first_line = err.partition("\n")[0]
        print(f"UNEXPECTED {path.relative_to(args.out)}: exit {code}, wanted {expected}: {first_line}")
    print(f"wrote {sum(path.is_file() for path in args.out.rglob('*'))} files under {args.out}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
