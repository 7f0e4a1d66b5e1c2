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
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent


def load(name: str, directory: Path):
    """The module in directory/name.py, imported under name (registered, as dataclasses need)."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_cli(src: Path):
    """multisymp.cli from the package under src; exits if multisymp was imported from elsewhere."""
    sys.path.insert(0, str(src))
    import multisymp.cli
    where = Path(multisymp.cli.__file__).resolve().parent
    if where != (src / "multisymp").resolve():
        sys.exit(f"report_trees: multisymp is already imported from {where}, not from {src}")
    return multisymp.cli


@contextlib.contextmanager
def package_src(rev: str | None):
    """The src/ directory to import the package from: this checkout's, or with rev the committed files of
    rev, exported into a temporary directory for the duration.  First sets BLAS to one thread, which numpy
    reads when the package imports it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if rev is None:
        yield ROOT / "src"
        return
    with tempfile.TemporaryDirectory(prefix="multisymp-rev-") as tree:
        load("bench_pairs", SCRIPTS).export(rev, Path(tree))
        yield Path(tree) / "src"


def run(main, command: str, config: Path, target: Path, name: str) -> None:
    """One CLI run with its report at target/name.report.json and its exit code and stderr at target/name.exit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), "--out", str(target / f"{name}.report.json")])
    (target / f"{name}.exit").write_text(f"{code}\n{err.getvalue()}")


def write_tree(out: Path, src: Path = ROOT / "src") -> None:
    """Every output of every benchmark job and bundled config, by the package under src, into out."""
    cli = import_cli(src)
    jobs = load("jobs", ROOT / "bench")
    with tempfile.TemporaryDirectory(prefix="report-trees-") as configs:
        for workload in jobs.WORKLOADS:
            for variant in range(jobs.VARIANTS):
                target = out / workload / str(variant)
                target.mkdir(parents=True)
                for job, config in jobs.write_configs(workload, variant, Path(configs) / workload / str(variant)):
                    run(cli.main, job.command, config, target, job.name)
    target = out / "bundled"
    target.mkdir(parents=True)
    for command, config, _ in load("run_all", SCRIPTS).RUNS:
        run(cli.main, command, ROOT / "configs" / config, target, config.removesuffix(".json"))


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
