"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = SCRIPTS.parent / "bench"


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_report_prints_three_tables(capsys):
    load_script("convergence_report").main(["--resolutions", "8", "16", "32"])
    out = capsys.readouterr().out
    titles = ("plane graph, slope (2, 3)", "bilinear saddle x1*x2", "plane graph in R^4")
    for title in titles:
        assert title in out
    table_rows = [line.split() for line in out.splitlines() if line.split()[:1] in (["8"], ["16"], ["32"])]
    assert [row[0] for row in table_rows] == ["8", "16", "32"] * len(titles)


def test_run_all_meets_every_expected_exit_code(tmp_path):
    assert load_script("run_all").run(tmp_path) == 0


def test_run_all_prints_wall_times(tmp_path, capsys):
    module = load_script("run_all")
    module.run(tmp_path)
    lines = [line for line in capsys.readouterr().out.splitlines() if " wall=" in line]
    assert len(lines) == len(module.RUNS) + 1
    walls = [float(re.search(r"wall=(\d+\.\d+)s", line).group(1)) for line in lines]
    assert lines[-1].startswith("total")
    assert walls[-1] == pytest.approx(sum(walls[:-1]), abs=1e-2)


def test_run_all_summarizes_a_run_without_report(tmp_path, monkeypatch, capsys):
    module = load_script("run_all")
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "bad.json").write_text('{"lagrangian": {"name": "area", "n": 3, "p": 2}, "samples": 0}')
    out = tmp_path / "out"
    out.mkdir()
    stale = out / "bad.report.json"  # left by an earlier run into the same directory
    stale.write_text('{"checks": [], "overall": "pass"}')
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "RUNS", [("verify", "bad.json", 0)])
    assert module.run(out) == 1
    line = next(line for line in capsys.readouterr().out.splitlines() if "bad.json" in line)
    assert "exit=2" in line and "no report" in line and "UNEXPECTED" in line
    assert not stale.exists()


def test_compare_reports_ignores_timing_and_config_only(tmp_path, capsys):
    compare = load_script("compare_reports").main
    report = {"config": {"seed": 1}, "checks": [{"name": "c", "measured": 0.5, "runtime_ms": 1.0}],
              "certificate": {"worst_violation": float("nan")}}
    for side, runtime, seed in (("a", 1.0, 1), ("b", 9.0, 2)):
        (tmp_path / side / "v0").mkdir(parents=True)
        shifted = {**report, "config": {"seed": seed},
                   "checks": [{**report["checks"][0], "runtime_ms": runtime}]}
        (tmp_path / side / "v0" / "job.report.json").write_text(json.dumps(shifted))
        (tmp_path / side / "v0" / "job.csv").write_bytes(b"x1,p12\r\n0.0,1.0\r\n")
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 0

    report["checks"][0]["measured"] = 0.5000000000000001
    (tmp_path / "b" / "v0" / "job.report.json").write_text(json.dumps(report))
    (tmp_path / "b" / "v0" / "job.csv").write_bytes(b"x1,p12\n0.0,1.0\n")
    (tmp_path / "b" / "extra.csv").write_bytes(b"")
    capsys.readouterr()
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "extra.csv: only in B" in out
    assert "v0/job.csv: bytes differ" in out
    assert "v0/job.report.json: /checks/c/measured: 0.5 != 0.5000000000000001" in out



@pytest.mark.parametrize("field, changed", [("status", "fail"), ("claim", "another claim")])
def test_compare_reports_reads_every_leaf(tmp_path, capsys, field, changed):
    compare = load_script("compare_reports").main
    check = {"name": "c", "claim": "a claim", "status": "pass", "measured": 0.5}
    for side, value in (("a", check[field]), ("b", changed)):
        (tmp_path / side).mkdir()
        # each report names the CSV beside it, so the two csv fields differ only by the root
        report = {"checks": [{**check, field: value}], "overall": "pass", "csv": str(tmp_path / side / "job.csv")}
        (tmp_path / side / "job.report.json").write_text(json.dumps(report))
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert f"job.report.json: /checks/c/{field}: {check[field]!r} != {changed!r}" in out
    assert "1 files compared, 1 differences" in out

def test_report_trees_writes_every_output_with_its_expected_exit(tmp_path):
    module = load_script("report_trees")
    module.write_tree(tmp_path)
    assert sum(path.is_file() for path in tmp_path.rglob("*")) == 994

    def exit_code(path):
        return int(path.read_text().splitlines()[0])

    jobs = module.load("jobs", BENCH)
    for workload in jobs.WORKLOADS:
        for variant in range(jobs.VARIANTS):
            for job in jobs.GENERATORS[workload](variant):
                assert exit_code(tmp_path / workload / str(variant) / f"{job.name}.exit") == job.expect_exit, \
                    (workload, variant, job.name)
    for _, config, expected in load_script("run_all").RUNS:
        assert exit_code(tmp_path / "bundled" / config.replace(".json", ".exit")) == expected, config


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


def test_bench_pairs_summary_counts_wins_by_direction():
    module = load_script("bench_pairs")
    pairs = [{"base": {"metrics": {"wall_s": b, "ok_frac": 1.0}}, "head": {"metrics": {"wall_s": h, "ok_frac": 1.0}}}
             for b, h in ((0.30, 0.20), (0.26, 0.21), (0.28, 0.29), (0.27, 0.19))]
    summary = module.summarize(pairs, {"wall_s": "lower", "ok_frac": "higher"})
    assert summary["wall_s"]["head_better_pairs"] == 3
    assert summary["wall_s"]["base_median"] == pytest.approx(0.275)
    assert summary["wall_s"]["median_change"] == pytest.approx(0.205 / 0.275 - 1.0)
    assert summary["wall_s"]["base_quartiles"] == pytest.approx([0.2675, 0.285])
    assert summary["ok_frac"]["head_better_pairs"] == 0
    assert summary["ok_frac"]["median_change"] == 0.0


def test_bench_pairs_rejects_a_run_without_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("bench_pairs").main(["--base", "HEAD", "--pr", "0", "certificates"])
    assert exc.value.code == 2
    assert "expected WORKLOAD:PAIRS" in capsys.readouterr().err
