#!/usr/bin/env python3
"""Before/after benchmark record: alternating pairs of bench/run.py on a base revision and the working tree.

Usage, from the repository root:

    python scripts/bench_pairs.py --base REV --pr N certificates:8 actions:3 [--seconds 15] [--seed 1]

Each WORKLOAD:PAIRS argument runs that many pairs of
``bench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0``,
one on a copy of the committed files of REV (``git archive``, in a temporary
directory) and one on the working tree.  The side that runs first alternates
from pair to pair, so a drift of the machine falls on both sides alike.
Writes BENCH_<N>.json at the repository root: each pair's end-to-end
metrics, and per metric the medians and quartiles of both sides, the median
change, in how many pairs the working tree was better, and whether the
medians lie further apart than the base's interquartile range
(``beyond_base_spread``).  Exits 1 when a
run fails or reports ``correct: false``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run in tree: its correctness and end-to-end metrics."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=seconds * 10 + 300)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians and quartiles of each side, the median change, the pairs the head won, and
    whether |head median - base median| exceeds the base's interquartile range."""
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        base_median, head_median = statistics.median(base), statistics.median(head)
        base_quartiles = quartiles(base)
        out[name] = {
            "base_median": base_median,
            "head_median": head_median,
            "base_quartiles": base_quartiles,
            "head_quartiles": quartiles(head),
            "median_change": head_median / base_median - 1.0 if base_median else None,
            "head_better_pairs": sum(sign * (b - h) > 0 for b, h in zip(base, head)),
            "beyond_base_spread": abs(head_median - base_median) > base_quartiles[1] - base_quartiles[0],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:PAIRS")
    parser.add_argument("--base", required=True, help="base revision, e.g. HEAD or a commit")
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=15.0, help="seconds per benchmark run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    runs = []
    for spec in args.runs:
        workload, _, pairs = spec.partition(":")
        if not pairs.isdigit() or int(pairs) < 1:
            parser.error(f"expected WORKLOAD:PAIRS with PAIRS >= 1, got {spec!r}")
        runs.append((workload, int(pairs)))
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    base_sha = git("rev-parse", args.base)
    record = {
        "base": base_sha,
        "head": {"commit": git("rev-parse", "HEAD"),
                 "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "python": platform.python_version(),
        "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                check=True, capture_output=True, text=True).stdout.strip(),
        "platform": platform.platform(),
        "cpu_count": len(os.sched_getaffinity(0)),
        "command": f"bench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export(base_sha, base_tree)
        for workload, count in runs:
            pairs = []
            for k in range(count):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(base_tree if side == "base" else ROOT, workload, args.seed, args.seconds)
                    ok = ok and pair[side]["correct"]
                pairs.append(pair)
                print(f"{workload} pair {k + 1}/{count}: wall_s base {pair['base']['metrics']['wall_s']:.4f} "
                      f"head {pair['head']['metrics']['wall_s']:.4f}", flush=True)
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            change = "n/a" if s["median_change"] is None else f"{s['median_change']:+.1%}"
            print(f"{workload:13s} {name:12s} base {s['base_median']:.6g} head {s['head_median']:.6g} "
                  f"({change}, head better in {s['head_better_pairs']}/{len(entry['pairs'])}, "
                  f"{'beyond' if s['beyond_base_spread'] else 'within'} the base's interquartile range)")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
