"""Output check: job reports against the record taken when the benchmark was defined.

A report is compared without its timing fields (``runtime_ms``) and without
the echoed ``config``.  Its numeric leaves must each lie within
``RTOL * |recorded| + ATOL`` of the recorded value, and its canonical hash
(report plus any CSV it names) tells whether it is also bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-10
TIMING_KEYS = {"runtime_ms"}


def _strip(node):
    if isinstance(node, dict):
        return {k: _strip(v) for k, v in node.items() if k not in TIMING_KEYS}
    if isinstance(node, list):
        return [_strip(v) for v in node]
    return node


def numbers(report: dict | None) -> dict[str, float]:
    """Numeric leaves of a report by path, timing fields and config echo excluded."""
    out: dict[str, float] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key not in TIMING_KEYS and not (path == "" and key == "config"):
                    walk(value, f"{path}/{key}")
        elif isinstance(node, list):
            for k, value in enumerate(node):
                # checks are keyed by name, so reordering them is not drift
                key = value["name"] if isinstance(value, dict) and "name" in value else k
                walk(value, f"{path}/{key}")
        elif isinstance(node, (bool, int, float)):
            out[path] = float(node)

    if report is not None:
        walk(report, "")
    return out


def digest(report: dict | None) -> str | None:
    """sha256 of the report without timing fields, plus the CSV file it wrote."""
    if report is None:
        return None
    h = hashlib.sha256(json.dumps(_strip(report), sort_keys=True).encode())
    if "csv" in report:
        h.update(Path(report["csv"]).read_bytes())
    return h.hexdigest()


def drift(values: dict[str, float], recorded: dict[str, float]) -> list[str]:
    """Paths whose value left the bound, appeared, or disappeared."""
    bad = sorted(set(values) ^ set(recorded))
    for path in set(values) & set(recorded):
        new, old = values[path], recorded[path]
        same = new == old or (math.isnan(new) and math.isnan(old))
        if not same and not abs(new - old) <= RTOL * abs(old) + ATOL:
            bad.append(path)
    return bad


def judge(job, exit_code: int, stderr: str, values: dict[str, float], recorded: dict) -> tuple[bool, bool]:
    """(met, expected) for one execution of a job.

    ``met``: the job gave its documented exit code and, unless it is a known
    defect, numbers within bound of the record.  ``expected``: it either met
    that or reproduced exactly what was recorded for its known defect, so only
    a job that is neither counts as a failure of the program.
    """
    if job.defect is None:
        met = exit_code == job.expect_exit and not drift(values, recorded["values"])
        return met, met
    met = exit_code == job.expect_exit
    reproduced = (exit_code == recorded["exit"] == job.defect["exit"]
                  and (job.defect["message"] is None or job.defect["message"] in stderr)
                  and not drift(values, recorded["values"]))
    return met, met or reproduced
