#!/usr/bin/env python3
"""One pass of a workload, in a fresh process so no in-memory cache carries over.

Started by run.py:

    python3 benchmark/worker.py --workload W --seed N --spawned-at T
        [--trace] [--setup-only] [--spans FILE]

Set-up imports kforge and mpmath, builds the field table of every conductor
the workload touches and prepares the kernel inputs.  The pass then runs every
operation in order, one after another, and times each.  Outputs are checked
after the timed region.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import operator
import resource
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oracle import check_kappa_report, check_kernel  # noqa: E402
from tracing import Patches, Tracer, layer_metrics  # noqa: E402
from workloads import CONDUCTORS, ops_for  # noqa: E402


def monotonic() -> float:
    """The system-wide clock run.py reads when it starts this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cli_call(main, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue()

    return call


def set_up(workload: str, seed: int):
    """Import, build field tables and inputs; return [(op, zero-argument call)]."""
    import mpmath  # noqa: F401  decompose imports it on first use; set-up pays for it

    from kforge.cli import main
    from kforge.cyclotomic import GaloisElt, divide_into_subfield, embed_up, galois_apply, get_field

    for m in CONDUCTORS[workload]:
        get_field(m)
    elements = {}
    calls = []
    for op in ops_for(workload, seed):
        if op.kind == "cli":
            calls.append((op, _cli_call(main, op.argv)))
            continue
        key = id(op.inputs)
        if key not in elements:
            big, small = get_field(op.m), get_field(op.inputs["sub"])
            a = big.from_coeffs(op.inputs["a"])
            b = big.from_coeffs(op.inputs["b"])
            target = embed_up(small.from_coeffs(op.inputs["y"]), op.m) * b
            elements[key] = (a, b, target)
        a, b, target = elements[key]
        if op.kind == "mul":
            call = partial(operator.mul, a, b)
        elif op.kind == "galois":
            call = partial(galois_apply, GaloisElt(a.field, op.inputs["g"]), a)
        else:
            call = partial(divide_into_subfield, target, b, op.inputs["sub"])
        calls.append((op, call))
    return calls


def run_pass(calls, tracer: Tracer | None):
    """Run every operation in order; an exception fails that operation only."""
    results = []
    t_pass = time.perf_counter()
    for op, call in calls:
        span = tracer.open("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # counted as a failed operation; the pass goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        results.append((op, value, error, seconds))
    return results, time.perf_counter() - t_pass


def check(op, value) -> tuple[str | None, str | None]:
    """(digest, failure) for one operation's output; failure is None when correct."""
    if op.kind != "cli":
        from kforge.cyclotomic import elt_to_strings

        return None, check_kernel(op.kind, op.m, op.inputs, elt_to_strings(value))
    code, text = value
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if code != 0:
        return digest, f"exit code {code}"
    report = json.loads(text)
    if report["overall"] != "pass":
        return digest, "overall verdict is not pass"
    if report["command"] == "kappa":
        return digest, check_kappa_report(report)
    return digest, None


def write_spans(path: str, tracer: Tracer) -> None:
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[index[name], start, end, parent] for name, start, end, parent in tracer.spans]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "spans": rows, "counts": tracer.counts}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(CONDUCTORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = patches = None
    if args.trace:
        import kforge.cli  # noqa: F401  every kforge module, so all bindings exist

        tracer, patches = Tracer(), Patches()
        patches.install(tracer)
        setup_span = tracer.open("bench.setup")
    calls = set_up(args.workload, args.seed)
    if tracer:
        tracer.close(setup_span)
    setup_s = monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, wall_s = run_pass(calls, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    restored = patches.restore() if patches else None

    ops = []
    for op, value, error, seconds in results:
        digest, failure = None, error
        if error is None:
            try:
                digest, failure = check(op, value)
            except Exception as exc:  # an output the checks cannot read is a failure
                failure = f"output check raised {type(exc).__name__}: {exc}"
        ops.append({"label": op.label, "seconds": seconds, "digest": digest, "error": failure})
    layers = None
    if tracer:
        layers = layer_metrics(tracer)
        if args.spans:
            write_spans(args.spans, tracer)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "peak_rss_mb": peak_rss_mb,
                "ops": ops,
                "layers": layers,
                "restored": restored,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
