#!/usr/bin/env python3
"""Compare two trees of multisymp reports: whole JSON reports leaf by leaf, other files byte for byte.

Usage:
    python scripts/compare_reports.py A B

Files are paired by their path relative to each root.  A JSON report is
flattened into its leaves, without the ``runtime_ms`` timing fields and the
echoed top-level ``config``; list entries that carry a ``name`` are keyed by
it.  Two reports match when they have the same leaves with equal values:
numbers bit for bit and of the same type (NaN matches NaN), strings,
booleans, null and empty lists or objects exactly.  The ``csv`` field is compared as the CSV's path
relative to the report's own directory (a relative path is taken from the
current directory), so two trees written into different roots can match.
Every other file, such as an ``image`` CSV cloud, must match byte for byte.
Prints one line per difference and exits 1 if there is any, 0 otherwise.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path


def leaves(report, report_dir: Path) -> dict[str, object]:
    """The report's leaves by path, timing fields and config echo excluded, csv relative to report_dir."""
    out: dict[str, object] = {}

    def walk(node, path):
        if isinstance(node, dict) and node:
            for key, value in node.items():
                if key != "runtime_ms" and not (path == "" and key == "config"):
                    walk(value, f"{path}/{key}")
        elif isinstance(node, list) and node:
            for k, value in enumerate(node):
                # checks are keyed by name, so reordering them is not a difference
                key = value["name"] if isinstance(value, dict) and "name" in value else k
                walk(value, f"{path}/{key}")
        else:  # a number, string, boolean or null, or an empty list or object
            out[path] = node

    walk(report, "")
    if isinstance(out.get("/csv"), str):
        out["/csv"] = os.path.relpath(os.path.abspath(out["/csv"]), os.path.abspath(report_dir))
    return out


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
    return a == b


def compare_file(a: Path, b: Path) -> list[str]:
    """Differences between two paired files, one line each."""
    if a.suffix != ".json":
        return [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]
    left, right = (leaves(json.loads(p.read_text()), p.parent) for p in (a, b))
    out = [f"{path} only in {'A' if path in left else 'B'}" for path in sorted(set(left) ^ set(right))]
    out += [f"{path}: {left[path]!r} != {right[path]!r}"
            for path in sorted(set(left) & set(right)) if not _same(left[path], right[path])]
    return out


def compare_trees(a: Path, b: Path) -> list[str]:
    """Differences between two report trees, each line prefixed with the relative path."""
    files = {root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)}
    out = [f"{rel}: only in {'A' if rel in files[a] else 'B'}" for rel in sorted(files[a] ^ files[b])]
    for rel in sorted(files[a] & files[b]):
        out += [f"{rel}: {line}" for line in compare_file(a / rel, b / rel)]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first report tree")
    parser.add_argument("b", type=Path, help="second report tree")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    differences = compare_trees(args.a, args.b)
    for line in differences:
        print(line)
    count = sum(path.is_file() for path in args.a.rglob("*"))
    print(f"{count} files compared, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
