"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = SCRIPTS.parent / "bench"


@pytest.fixture(autouse=True)
def scripts_on_path(monkeypatch):
    # as when a script runs: it imports report_trees beside it
    monkeypatch.syspath_prepend(str(SCRIPTS))


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_scripts_block_names_every_script():
    # a script added or deleted without its line in the README's Scripts block would go unnoticed
    readme = (SCRIPTS.parent / "README.md").read_text()
    block = readme.split("## Scripts\n", 1)[1].split("```", 2)[1]
    assert sorted(set(re.findall(r"scripts/(\w+\.py)", block))) == sorted(path.name for path in SCRIPTS.glob("*.py"))


def test_ci_workflow_names_only_existing_scripts():
    # the workflow runs only on the CI runner, so a script renamed or retired under it would fail there first
    workflow = (SCRIPTS.parent / ".github" / "workflows" / "tier1.yml").read_text()
    named = set(re.findall(r"\b((?:scripts|bench)/\w+\.py)\b", workflow))
    assert {"scripts/report_trees.py", "bench/run.py"} <= named
    assert sorted(path for path in named if not (SCRIPTS.parent / path).is_file()) == []


FLAT_ACTION = {"lagrangian": {"name": "area", "n": 3, "p": 2}, "surface": {"f": "flat", "domain": [[0, 1], [0, 1]]},
               "resolutions": [4]}


def small_tree_script(root, monkeypatch, job_exit=0):
    """report_trees run from root: its configs/ as given, and in place of the benchmark one job, a flat-graph action
    (which exits 0) in workload w at variant 0, expected to exit job_exit."""
    (root / "bench").mkdir()
    (root / "bench" / "jobs.py").write_text(textwrap.dedent(f"""\
        import json
        from types import SimpleNamespace
        WORKLOADS, VARIANTS = ("w",), 1
        def write_configs(workload, variant, work_dir):
            work_dir.mkdir(parents=True)
            (work_dir / "flat.json").write_text({json.dumps(FLAT_ACTION)!r})
            return [(SimpleNamespace(name="flat", command="action", expect_exit={job_exit}), work_dir / "flat.json")]
        """))
    monkeypatch.delitem(sys.modules, "jobs", raising=False)  # report_trees registers its jobs module there
    module = load_script("report_trees")
    monkeypatch.setattr(module, "ROOT", root)
    return module


@pytest.mark.parametrize("job_exit, config, line", [
    (1, None, "UNEXPECTED w/0/flat: exit 0, wanted 1: "),
    (0, {"lagrangian": {"name": "area", "n": 3, "p": 2}, "samples": 0},
     "UNEXPECTED bundled/verify_bad: exit 2, wanted 0: config error: samples must"),
], ids=["job", "bundled"])
def test_report_trees_exits_1_naming_an_unexpected_run(tmp_path, monkeypatch, capsys, job_exit, config, line):
    (tmp_path / "configs").mkdir()
    if config is not None:
        (tmp_path / "configs" / "verify_bad.json").write_text(json.dumps(config))
    module = small_tree_script(tmp_path, monkeypatch, job_exit)
    assert module.main([str(tmp_path / "tree")]) == 1
    unexpected = [text for text in capsys.readouterr().out.splitlines() if text.startswith("UNEXPECTED")]
    assert len(unexpected) == 1 and unexpected[0].startswith(line)
    # the whole tree is written all the same
    assert (tmp_path / "tree" / "w" / "0" / "flat.report.json").is_file()


def test_report_trees_runs_a_config_added_to_configs(tmp_path, monkeypatch, capsys):
    # no list names the bundled configs: a file placed in configs/ runs under the command its name begins with
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "action_added.json").write_text(json.dumps(FLAT_ACTION))
    module = small_tree_script(tmp_path, monkeypatch)
    assert module.main([str(tmp_path / "tree")]) == 0
    assert (tmp_path / "tree" / "bundled" / "action_added.exit").read_text() == "0\n"
    assert json.loads((tmp_path / "tree" / "bundled" / "action_added.report.json").read_text())["command"] == "action"
    assert "action_added                 exit=0 " in capsys.readouterr().out


def test_report_trees_meets_every_expected_exit_code(tmp_path, monkeypatch):
    # every bundled config exits as BUNDLED_EXITS says, verify_probe's failed check included, so main returns 0
    (tmp_path / "configs").symlink_to(SCRIPTS.parent / "configs")
    module = small_tree_script(tmp_path, monkeypatch)
    assert module.main([str(tmp_path / "tree")]) == 0
    bundled = module.bundled_configs()
    assert len(bundled) == len(list((SCRIPTS.parent / "configs").glob("*.json")))
    for _, config, expected in bundled:
        assert (tmp_path / "tree" / "bundled" / f"{config.stem}.exit").read_text().splitlines()[0] == str(expected), \
            config.name


def test_report_trees_bundled_walls_sum_to_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "configs").symlink_to(SCRIPTS.parent / "configs")
    module = small_tree_script(tmp_path, monkeypatch)
    assert module.main([str(tmp_path / "tree")]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " wall=" in line]
    assert len(lines) == len(list((SCRIPTS.parent / "configs").glob("*.json"))) + 1
    assert any(line.startswith("verify_probe ") and " exit=1 " in line for line in lines)  # expected to fail
    walls = [float(re.search(r"wall=(\d+\.\d+)s", line).group(1)) for line in lines]
    assert lines[-1].startswith("total")
    assert walls[-1] == pytest.approx(sum(walls[:-1]), abs=1e-2)


def test_report_trees_writes_a_tree_that_diff_r_can_compare(tmp_path, monkeypatch, capsys):
    # a tree written into a relative root and one written into an absolute root are byte-identical, and the
    # runtime_ms taken out of each report are summed per command and check
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "action_added.json").write_text(json.dumps(FLAT_ACTION))
    module = small_tree_script(tmp_path, monkeypatch)
    run_job = module.run_job
    known = {"action-multisymplectic-vs-lagrangian": 1.25, "action-graph-vs-lagrangian": 0.0625}

    def timed(main, command, config, report):  # each check reads a known time
        code, err = run_job(main, command, config, report)
        fields = json.loads(report.read_text())
        for check in fields["checks"]:
            check["runtime_ms"] = known[check["name"]]
        report.write_text(json.dumps(fields))
        return code, err

    monkeypatch.setattr(module, "run_job", timed)
    monkeypatch.chdir(tmp_path)
    assert module.main(["relative"]) == module.main([str(tmp_path / "absolute")]) == 0
    assert tree_bytes(tmp_path / "relative") == tree_bytes(tmp_path / "absolute")
    assert "runtime_ms" not in (tmp_path / "relative" / "bundled" / "action_added.report.json").read_text()
    sums = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines() if line.endswith(" reports")]
    assert sums == ["action action-graph-vs-lagrangian 0.1 ms over 2 reports",
                    "action action-multisymplectic-vs-lagrangian 2.5 ms over 2 reports"] * 2


def tree_bytes(root):
    """Every file under root by its path relative to root, as bytes."""
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_report_trees_writes_every_output_with_its_expected_exit(tmp_path):
    # main judges every run's exit code, and each report it writes is free of timings and names its CSV bare
    module = load_script("report_trees")
    assert module.main([str(tmp_path)]) == 0
    assert sum(path.is_file() for path in tmp_path.rglob("*")) == 998
    reports = [json.loads(path.read_text()) for path in tmp_path.rglob("*.report.json")]
    assert not any("runtime_ms" in check for report in reports for check in report["checks"])
    csvs = [report["csv"] for report in reports if "csv" in report]
    assert len(csvs) == 114 and all(Path(csv).name == csv for csv in csvs)


def test_report_trees_names_an_unknown_revision(tmp_path):
    # git's own message is shown, not hidden behind a CalledProcessError, and nothing is written
    out = tmp_path / "tree"
    with pytest.raises(SystemExit) as exc:
        load_script("report_trees").main([str(out), "--rev", "nosuchrev"])
    assert str(exc.value.code).startswith("git archive nosuchrev exited 128: fatal: ")
    assert not out.exists()


def test_block_sizes_move_no_report_leaf(tmp_path, monkeypatch):
    # the slab size of the action kernels and the block size of the radial solves move no leaf of the bundled
    # configs or of variant 4 of either workload, where grouping points into map calls moved poly_* leaves
    from multisymp import cli, legendre, surfaces
    trees = load_script("report_trees")
    jobs = trees.load("jobs", BENCH)
    runs = [(workload, job.command, config, job.name) for workload in jobs.WORKLOADS
            for job, config in jobs.write_configs(workload, 4, tmp_path / "configs" / workload)]
    runs += [("bundled", command, config, config.stem) for command, config, _ in trees.bundled_configs()]

    def tree(cell_block, radial_block):
        monkeypatch.setattr(surfaces, "CELL_BLOCK", cell_block)
        monkeypatch.setattr(legendre, "RADIAL_BLOCK", radial_block)
        root = tmp_path / f"{cell_block}-{radial_block}"
        for target, command, config, name in runs:
            (root / target).mkdir(parents=True, exist_ok=True)
            trees.write_run(cli.main, command, config, root / target / name)
        return tree_bytes(root)

    assert (surfaces.CELL_BLOCK, legendre.RADIAL_BLOCK) == (4096, 2560)
    default = tree(4096, 2560)
    for cell_block, radial_block in ((33, 2560), (4096, 70), (33, 70)):
        assert tree(cell_block, radial_block) == default, (cell_block, radial_block)


def test_span_recorder_installs_on_this_package(tmp_path):
    # bench/spans.py looks up every __all__ entry and a few methods by name, so a
    # deleted or renamed hook must fail here and not only in a traced benchmark run
    import multisymp.cli as cli
    import multisymp.exterior as exterior
    import multisymp.legendre as legendre
    from multisymp.multisymplectic import TotalSpaceChart, theta
    from multisymp.surfaces import GraphSurface

    spans = load_script("spans", BENCH)
    originals = (legendre.convexity_certificate, cli.convexity_certificate, GraphSurface.to_grid)
    configs = {
        "verify": {"lagrangian": {"name": "area", "n": 3, "p": 2}, "samples": 5, "rank_samples": 3,
                   "certificate": {"num_pairs": 4, "t_steps": 3}},
        "action": {"lagrangian": {"name": "area", "n": 3, "p": 2},
                   "surface": {"f": "flat", "domain": [[0, 1], [0, 1]]}, "resolutions": [4]},
    }
    recorder = spans.SpanRecorder()
    try:  # a partial install is undone too, so a failure here leaves later tests unwrapped
        recorder.install()
        assert cli.convexity_certificate is not originals[1]
        for command, config in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config))
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / f"{command}.out")]) == 0
        # neither command builds a fiber element or calls a form on one point, so the two counting hooks
        # are exercised here
        exterior._FiberElement(3, 2, [1.0, 0.0, 0.0])
        chart = TotalSpaceChart(3, 2)
        theta(chart)([0.0] * chart.dim_total, [chart.lift([1.0, 0.0, 0.0]), chart.lift([0.0, 1.0, 0.0])])
    finally:
        recorder.uninstall()
    assert (legendre.convexity_certificate, cli.convexity_certificate, GraphSurface.to_grid) == originals
    _, totals = spans.summarize(*recorder.take())
    assert totals["cli.cmd_verify.calls"] == totals["cli.cmd_action.calls"] == 1
    assert totals["legendre.certificate.segments"] == 12
    assert totals["surfaces.to_grid.calls"] == 1
    assert totals["exterior.fiber_elements.created"] > 0
    assert totals["multisymplectic.form_evals"] > 0


def test_bench_pairs_rejects_an_unknown_workload(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("bench_pairs").main(["--base", "HEAD", "--pr", "0", "certificates", "verify"])
    assert exc.value.code == 2
    assert "argument WORKLOAD: invalid choice: 'verify'" in capsys.readouterr().err


def test_bench_pairs_names_an_unknown_revision():
    # as report_trees does: git's own message ends the run before any export, pass or record
    module = load_script("bench_pairs")
    out = SCRIPTS.parent / "BENCH_nosuchrev.json"
    with pytest.raises(SystemExit) as exc:
        module.main(["--base", "nosuchrev", "--pr", "nosuchrev", "actions"])
    assert str(exc.value.code).startswith("git rev-parse nosuchrev exited 128: fatal: ")
    assert not out.exists()


def test_bench_pairs_pass_summary_from_fixed_times():
    module = load_script("bench_pairs")
    # three timed passes per side over two jobs, in seconds per job; pass k of each side ran next to the other's
    times = {"base": [[0.10, 0.20], [0.12, 0.18], [0.11, 0.25]],  # passes 0.30, 0.30, 0.36
             "head": [[0.09, 0.22], [0.13, 0.19], [0.10, 0.23]]}  # passes 0.31, 0.32, 0.33
    summary = module.pass_summary(times, ["a", "b"])
    base, head = summary["base"], summary["head"]
    assert summary["passes"] == 3
    assert base["pass_median"] == pytest.approx(0.30) and head["pass_median"] == pytest.approx(0.32)
    assert base["pass_quartiles"] == pytest.approx([0.30, 0.33])
    assert head["pass_quartiles"] == pytest.approx([0.315, 0.325])
    assert base["job_minima"] == pytest.approx({"a": 0.10, "b": 0.18})
    assert head["job_minima"] == pytest.approx({"a": 0.09, "b": 0.19})
    assert base["sum_of_job_minima"] == pytest.approx(0.28) and head["sum_of_job_minima"] == pytest.approx(0.28)
    # the pass ratios are 0.31/0.30, 0.32/0.30 and 0.33/0.36, so their median is not the ratio of the medians
    assert summary["change"] == pytest.approx({"pass_median": 0.32 / 0.30 - 1.0, "sum_of_job_minima": 0.0,
                                               "median_pass_ratio": 0.31 / 0.30 - 1.0})
    assert summary["head_lower_jobs"] == 1  # job a only


def test_bench_pairs_records_both_parts_of_a_workload(tmp_path, monkeypatch, capsys):
    # run in a repository of its own that holds the files record reads, so that the checkout needs no .git; its
    # working tree scales the area Lagrangian's jet by 1 + 1e-8, a drift the head's reports must show
    module = load_script("bench_pairs")
    checkout, repo = SCRIPTS.parent, tmp_path / "repo"
    shutil.copytree(checkout / "src" / "multisymp", repo / "src" / "multisymp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("jobs.py", "outcome.py", "record/actions/0.json"):
        (repo / "bench" / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(BENCH / name, repo / "bench" / name)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    lagrangian = repo / "src" / "multisymp" / "lagrangian.py"
    anchor = '    return HomogeneousLagrangian(\n        n, p, "area", jet,'
    scaled = "    unscaled = jet\n    jet = lambda xs, cs, order: tuple(part * (1 + 1e-8) for part in unscaled(xs, cs, order))\n"
    assert lagrangian.read_text().count(anchor) == 1
    lagrangian.write_text(lagrangian.read_text().replace(anchor, scaled + anchor))
    monkeypatch.setattr(module, "ROOT", repo)
    monkeypatch.setattr(sys.modules["report_trees"], "ROOT", repo)  # where package_src exports from
    result, misses = module.record(["actions"], "HEAD", seed=0, seconds=0.0)
    jobs = module.load("jobs", BENCH).actions_jobs(0)
    names = [job.name for job in jobs]
    # the base's reports meet the record, and every head job that runs the area Lagrangian misses it, but for the
    # known defect, whose numbers the record does not judge
    assert misses == [f"actions head {job.name}" for job in jobs
                      if job.config["lagrangian"]["name"] == "area" and job.defect is None]
    assert len(misses) >= 2
    assert result["head"]["tree"] == module.worktree_tree() != module.git("rev-parse", "HEAD^{tree}")
    entry = result["workloads"]["actions"]
    assert set(entry) == {"passes", "peaks"}
    # the in-process passes: at least two timed passes per side, every job's minimum on both sides
    assert entry["passes"]["passes"] >= 2
    for side in ("base", "head"):
        assert list(entry["passes"][side]["job_minima"]) == names
        assert min(entry["passes"][side]["job_minima"].values()) > 0
    assert 0 <= entry["passes"]["head_lower_jobs"] <= len(names)
    # the peaks: every job's tracemalloc peak on both sides, and the head's change
    peaks = entry["peaks"]
    for side in ("base", "head"):
        assert list(peaks[side]) == names and min(peaks[side].values()) > 0
    assert peaks["change"] == {name: peaks["head"][name] / peaks["base"][name] - 1.0 for name in names}
    # and printed, one line per job after the passes line, with both minima in ms, both peaks in MiB and the changes
    printed = capsys.readouterr().out.splitlines()
    first = next(k for k, line in enumerate(printed) if line.startswith("actions passes: ")) + 1
    for name, line in zip(names, printed[first:first + len(names)], strict=True):
        base_min, head_min = (entry["passes"][side]["job_minima"][name] for side in ("base", "head"))
        assert line == (f"actions {name}: minimum base {base_min * 1e3:.3f} ms head {head_min * 1e3:.3f} ms "
                        f"({head_min / base_min - 1.0:+.1%}), peak base {peaks['base'][name]:.3f} MiB head "
                        f"{peaks['head'][name]:.3f} MiB ({peaks['change'][name]:+.1%})")
    # each side's package size, as wc -l counts the lines of its src/multisymp/*.py: the base's committed files and
    # the head's files as they are, two lines longer
    committed = sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "multisymp").glob("*.py"))
    assert result["src_lines"] == {"base": committed, "head": committed + 2}
    assert f"src/multisymp lines: base {committed} head {committed + 2}" in printed
    # each side ran its own copy of the package, exported, neither from the checkout nor from the repository
    assert sys.modules["multisymp_base"] is not sys.modules["multisymp_head"]
    for side in ("base", "head"):
        assert Path(sys.modules[f"multisymp_{side}"].__file__).parents[2].name.startswith("multisymp-rev-")


def test_bench_pairs_head_tree_holds_the_working_files(tmp_path, monkeypatch):
    # the head's export is the working tree as it is: a changed tracked file and an untracked one, not an ignored one
    module = load_script("bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "tracked.txt").write_text("old\n")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    (repo / "tracked.txt").write_text("new\n")
    (repo / "untracked.txt").write_text("here\n")
    (repo / "ignored.txt").write_text("skip\n")
    monkeypatch.setattr(module, "ROOT", repo)
    tree = module.worktree_tree()
    listing = subprocess.run(["git", "ls-tree", "-r", "--name-only", tree], cwd=repo, check=True, capture_output=True,
                             text=True).stdout.split()
    assert listing == [".gitignore", "tracked.txt", "untracked.txt"]
    shown = subprocess.run(["git", "show", f"{tree}:tracked.txt"], cwd=repo, check=True, capture_output=True, text=True)
    assert shown.stdout == "new\n"
    # the repository's own index still holds the committed file only
    staged = subprocess.run(["git", "diff", "--cached", "--name-only"], cwd=repo, check=True, capture_output=True,
                            text=True).stdout
    assert staged == ""


def test_line_trace_names_only_the_lines_that_never_ran(tmp_path):
    source = tmp_path / "traced.py"
    source.write_text(textwrap.dedent("""\
        import sys


        def called(x):
            y = x + 1
            return y, sys._getframe().f_trace is not None


        def uncalled(x):
            if x:
                return [k for k in range(x)]
            return None
        """))
    spec = importlib.util.spec_from_file_location("traced", source)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    module = load_script("line_trace")
    # the uncalled function's def line and its body, in which the comprehension is a code object of its own
    unrun = [f"{source.resolve()}:{line}" for line in (9, 10, 11, 12)]
    result, missed = module.unrun_lines([source], lambda: traced.called(1))
    assert result == (2, True)
    assert missed == unrun
    # a function every line of which has run is not traced again, and the lines found stay the same
    result, missed = module.unrun_lines([source], lambda: [traced.called(1), traced.called(2)])
    assert result == [(2, True), (3, False)]
    assert missed == unrun
