#!/usr/bin/env python3
"""Compare two trees of multisymp reports: JSON numbers exactly, other files byte for byte.

Usage:
    python scripts/compare_reports.py A B

Files are paired by their path relative to each root.  A JSON report is
flattened into its numeric leaves with ``bench/outcome.py``'s ``numbers``,
which drops the ``runtime_ms`` timing fields and the echoed ``config``; two
reports match when they have the same leaves with bit-identical values (NaN
matches NaN).  Every other file, such as an ``image`` CSV cloud, must match
byte for byte.  Prints one line per difference and exits 1 if there is any,
0 otherwise.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import outcome  # noqa: E402


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def compare_file(a: Path, b: Path) -> list[str]:
    """Differences between two paired files, one line each."""
    if a.suffix != ".json":
        return [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]
    left, right = (outcome.numbers(json.loads(p.read_text())) for p in (a, b))
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
