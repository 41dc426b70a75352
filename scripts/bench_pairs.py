#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

Usage: python3 scripts/bench_pairs.py --base REV --workload W [--pairs 10]
           [--seconds 30] [--seed 42] [--slug NAME]

REV is exported with `git archive`, and the working tree (its tracked files
and its untracked files that .gitignore does not exclude) is copied, into
two directories of one temporary parent whose paths have equal length: a
path's length moves the heap layout, which peak_rss_mb reads.  Each pair
runs benchmark/run.py once from each side, the side that goes first
alternating from pair to pair, so a drift in machine load falls on both
sides alike.

The result is written to BENCH_<slug>.json at the repository root (slug
defaults to the workload): both revisions, the Python version, nproc, the
load average before and after, each pair's end-to-end metrics, and per
metric both sides' median and quartiles and the pairs the working tree
won.  A run that is not correct or has a failed operation stops the script
with exit 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_base(rev: str, target: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    target.mkdir()
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def copy_working_tree(target: Path) -> None:
    files = git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0")
    for name in filter(None, files):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The end-to-end metrics of one benchmark/run.py run from tree."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name}: benchmark/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise SystemExit(f"{tree.name}: correct = {result['correct']}, failed = {result['failed']}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs head won."""
    out = {}
    for name in pairs[0]["base"]:
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        out[name] = {
            "better": better.get(name, "lower"),
            "base": spread(base),
            "head": spread(head),
            "head_wins": sum(sign * (b - h) > 0 for b, h in zip(base, head)),
            "relative_change": statistics.median(head) / statistics.median(base) - 1,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired benchmark runs, base revision against the working tree")
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--slug", help="names the output BENCH_<slug>.json; the workload by default")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head_commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=normal"))
    load_before = os.getloadavg()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}  # equal-length paths
        export_base(base_commit, trees["base"])
        trees["head"].mkdir()
        copy_working_tree(trees["head"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seconds, args.seed)
            pairs.append(pair)
            print(
                f"pair {i + 1}/{args.pairs}: "
                + ", ".join(f"{name} {pair['base'][name]:.4g} -> {pair['head'][name]:.4g}" for name in pair["base"]),
                flush=True,
            )
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "base": {"rev": args.base, "commit": base_commit},
        "head": {"rev": "working tree", "based_on": head_commit, "uncommitted_changes": dirty},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pairs": pairs,
        "metrics": summarize(pairs, better),
    }
    target = ROOT / f"BENCH_{args.slug or args.workload}.json"
    target.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(
            f"{name}: median {metric['base']['median']:.4g} -> {metric['head']['median']:.4g} "
            f"({metric['relative_change']:+.1%}), base quartiles {metric['base']['q1']:.4g}-"
            f"{metric['base']['q3']:.4g}, head won {metric['head_wins']} of {len(pairs)}"
        )
    print(f"-> {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
