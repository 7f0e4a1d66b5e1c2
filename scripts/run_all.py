#!/usr/bin/env python3
"""Drive every bundled config through the CLI and summarize the reports.

Usage:
    python scripts/run_all.py [--out-dir OUT]

Writes one report per config (plus CSV clouds for the image runs) and prints
a one-line summary per run with its wall time, then the total wall time.  A
report left in the output directory by an earlier run is deleted first, so a
run that writes none (exit 2, 3 or 4) is summarized by its exit code alone.
The nonconvex probe config is expected to fail its convexity check; every
other run is expected to pass.  The package comes from this checkout's src/.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from report_trees import ROOT, SRC, import_package

RUNS = [
    ("verify", "verify_area.json", 0),
    ("verify", "verify_ellipsoid.json", 0),
    ("verify", "verify_probe.json", 1),  # detector sensitivity: must fail
    ("verify", "verify_lift.json", 0),
    ("verify", "verify_lift_graph_area.json", 0),
    ("action", "action_plane.json", 0),
    ("action", "action_bilinear.json", 0),
    ("action", "action_plane_r4.json", 0),
    ("image", "image_area.json", 0),
    ("image", "image_ellipsoid.json", 0),
]


def run(out_dir: Path) -> int:
    cli_main = import_package("multisymp_run_all", SRC).cli.main
    out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    total = 0.0
    for command, config, expected in RUNS:
        report_path = out_dir / config.replace(".json", ".report.json")
        report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        code = cli_main([command, "--config", str(ROOT / "configs" / config),
                         "--out", str(report_path)])
        wall = time.perf_counter() - start
        total += wall
        if report_path.exists():
            checks = json.loads(report_path.read_text()).get("checks", [])
            failed = [c["name"] for c in checks if c["status"] == "fail"]
            summary = f"checks={len(checks)} failed={failed or '-'}"
        else:
            summary = "no report"
        status = "ok" if code == expected else f"UNEXPECTED exit {code} (wanted {expected})"
        if code != expected:
            bad += 1
        print(f"{command:7s} {config:28s} exit={code} wall={wall:.3f}s {summary} [{status}]")
    print(f"{'total':36s} wall={total:.3f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out", help="directory for reports and CSV files")
    args = parser.parse_args()
    sys.exit(run(Path(args.out_dir)))
