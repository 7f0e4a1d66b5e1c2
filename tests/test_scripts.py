"""Smoke tests for the experiment scripts under scripts/."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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


def test_run_all_meets_every_expected_exit_code(tmp_path, monkeypatch):
    monkeypatch.delenv("MULTISYMP_OUT_DIR", raising=False)
    assert load_script("run_all").run(tmp_path) == 0


def test_run_all_prints_wall_times(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MULTISYMP_OUT_DIR", raising=False)
    module = load_script("run_all")
    module.run(tmp_path)
    lines = [line for line in capsys.readouterr().out.splitlines() if " wall=" in line]
    assert len(lines) == len(module.RUNS) + 1
    walls = [float(re.search(r"wall=(\d+\.\d+)s", line).group(1)) for line in lines]
    assert lines[-1].startswith("total")
    assert walls[-1] == pytest.approx(sum(walls[:-1]), abs=1e-2)


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
