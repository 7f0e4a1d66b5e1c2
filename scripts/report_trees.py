#!/usr/bin/env python3
"""Write every output of the benchmark jobs and the bundled configs into one tree.

Usage, from the repository root:

    python scripts/report_trees.py OUT [--rev REV]

Runs ``multisymp.cli.main`` in-process on every job of both benchmark
workloads at each variant (the configs of ``bench/jobs.py``) and on the
bundled configs that ``scripts/run_all.py`` lists.  Each run writes its
report, its CSV cloud if it is an ``image`` run, and a ``.exit`` file that
holds the exit code on the first line and the run's stderr after it, into
OUT/<workload>/<variant>/ or OUT/bundled/.  The package comes from this
checkout's src/, or with --rev from the committed files of REV (``git
archive`` into a temporary directory).  The jobs and configs always come
from this checkout, so two trees differ only by the package.  BLAS runs on
one thread, as in bench/run.py.  OUT must be new or empty.  A parent
against a change, in two fresh interpreters:

    python scripts/report_trees.py base --rev HEAD
    python scripts/report_trees.py head
    python scripts/compare_reports.py base head
"""

import argparse
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
SRC = ROOT / "src"


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


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


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


def write_tree(out: Path, src: Path = SRC) -> None:
    """Every output of every benchmark job and bundled config, by the package under src, into out: each run's
    report at <target>/<name>.report.json and its exit code and stderr at <target>/<name>.exit."""
    main = import_package("multisymp_tree", src).cli.main
    jobs = load("jobs", ROOT / "bench")
    with tempfile.TemporaryDirectory(prefix="report-trees-") as configs:
        runs = [(out / workload / str(variant), job.command, config, job.name)
                for workload in jobs.WORKLOADS for variant in range(jobs.VARIANTS)
                for job, config in jobs.write_configs(workload, variant, Path(configs) / workload / str(variant))]
        runs += [(out / "bundled", command, ROOT / "configs" / config, config.removesuffix(".json"))
                 for command, config, _ in load("run_all", SCRIPTS).RUNS]
        for target, command, config, name in runs:
            target.mkdir(parents=True, exist_ok=True)
            code, err = run_job(main, command, config, target / f"{name}.report.json")
            (target / f"{name}.exit").write_text(f"{code}\n{err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the tree, new or empty")
    parser.add_argument("--rev", help="run the package of this revision instead of the working tree")
    args = parser.parse_args(argv)
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        parser.error(f"{args.out} must be a new or empty directory")
    with package_src(args.rev) as src:
        write_tree(args.out, src)
    print(f"wrote {sum(path.is_file() for path in args.out.rglob('*'))} files under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
