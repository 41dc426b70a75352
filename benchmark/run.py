#!/usr/bin/env python3
"""Time-to-verdict benchmark for kforge.

    python3 benchmark/run.py --workload desk|kappa_ladder|two_prime|field_kernels|all
                             [--seed 42] [--seconds 30] [--trace 0|1]

One caller runs one operation at a time (closed loop, one process, one
thread).  Every pass runs in a fresh worker process, so no in-memory cache
carries over between passes; passes repeat until --seconds is spent (at least
one).  Set-up is also timed in extra set-up-only processes.  Every output is
checked: CLI reports must exit 0 with verdict pass, kappa reports are
re-verified by an independent modular oracle, kernel results are checked at
roots of unity mod primes, and every report of a command line recorded in
digests.json (the default seed's) must be byte-identical to it.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPANS_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from tracing import layer_metric_units  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # set-up-only processes per untraced run, besides each pass's own set-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "max_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    """A worker could not complete; the run prints no result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, deadline: float, *, trace=False, setup_only=False) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env.pop("KFORGE_CACHE", None)  # a developer's field-table cache must not change setup_s
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "--spans", str(SPANS_DIR / f"spans-{workload}-seed{seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{workload}: a pass did not finish within the run's time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload}: worker exited with {proc.returncode}\n{err.strip()[-4000:]}")
    return json.loads(lines[-1])


def score(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): failures, plus any report whose bytes
    differ from the digest recorded for its command line or, for a command
    line with no recorded digest, from the first pass."""
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    attempted = failed = 0
    problems = []
    for result in passes:
        if result["restored"] is False:
            problems.append("a traced pass left a wrapped name in place")
        for op in result["ops"]:
            attempted += 1
            expected = reference.setdefault(op["label"], op["digest"])
            error = op["error"]
            if error is None and op["digest"] != expected:
                error = "report bytes differ from the reference"
            if error:
                failed += 1
                problems.append(f"{op['label']}: {error}")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run and the metrics they give."""
    start = monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced, setups = [], [], []
    if not trace:
        setups += [spawn(workload, seed, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    passes_start = monotonic()
    while True:
        untraced.append(spawn(workload, seed, deadline))
        if trace:
            traced.append(spawn(workload, seed, deadline, trace=True))
        spent = monotonic() - start
        per_round = (monotonic() - passes_start) / len(untraced)
        if spent + per_round > seconds:
            break
    setups += [p["setup_s"] for p in untraced]
    attempted, failed, problems = score(untraced + traced)

    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        units = layer_metric_units()
        metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall
    else:
        metrics = {
            "wall_s": wall,
            "max_op_s": statistics.median(max(op["seconds"] for op in p["ops"]) for p in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": len(untraced) + len(traced),
        "setup_samples": len(setups),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_summary(workload: str, result: dict) -> None:
    print(
        f"{workload}: ops = {result['attempted']}, ops_failed = {result['failed']}, "
        f"passes = {result['passes']}, set-up samples = {result['setup_samples']} "
        "(each metric is the median over passes)"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kforge time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kforge" / "__init__.py").is_file():
        print(f"error: kforge sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
            print_summary(workload, results[workload])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if args.workload == "all":
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
