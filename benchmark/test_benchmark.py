"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q benchmark
"""

from __future__ import annotations

import hashlib
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import CONDUCTORS, DEFAULT_SEED, ops_for  # noqa: E402

DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))


def _synthetic_tracer(events):
    """Replay ("open", name) / ("close",) events on a clock that ticks 1 s per read."""
    ticks = iter(range(10**6))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    stack = []
    for event in events:
        if event[0] == "open":
            stack.append(tracer.open(event[1]))
        else:
            tracer.close(stack.pop())
    return tracer


def test_self_time_arithmetic_on_a_synthetic_nest():
    coc = "kolyvagin.cocycle_closed_form"
    div = "cyclotomic.divide_into_subfield"
    tracer = _synthetic_tracer(
        [
            ("open", "bench.op"),  # t=0
            ("open", "kolyvagin.kappa"),  # 1
            ("open", coc),  # 2
            ("open", coc),  # 3  recursive sub-cocycle
            ("open", tracing.MUL_SPAN),  # 4
            ("close",),  # 5
            ("close",),  # 6  inner cocycle: 3 s, self 2 s
            ("close",),  # 7  outer cocycle: 5 s, self 2 s
            ("open", div),  # 8  descent: under kappa
            ("open", "cyclotomic.restrict_down"),  # 9
            ("close",),  # 10
            ("close",),  # 11 divide: 3 s, self 2 s
            ("close",),  # 12 kappa: 11 s, self 11 - 5 - 3 = 3 s
            ("open", div),  # 13 not under kappa
            ("close",),  # 14
            ("close",),  # 15
        ]
    )
    out = tracing.layer_metrics(tracer)
    assert (out["kolyvagin.cocycle_s"], out["kolyvagin.cocycle_self_s"], out["kolyvagin.cocycle_calls"]) == (5, 4, 2)
    assert (out["kolyvagin.kappa_s"], out["kolyvagin.kappa_self_s"], out["kolyvagin.kappa_calls"]) == (11, 3, 1)
    assert (out["cyclotomic.mul_s"], out["cyclotomic.mul_self_s"], out["cyclotomic.mul_calls"]) == (1, 1, 1)
    assert (out["kolyvagin.descent_s"], out["kolyvagin.descent_self_s"], out["kolyvagin.descent_calls"]) == (3, 2, 1)
    # divide + restrict_down: nested restrict_down adds no total, only a call
    assert (
        out["cyclotomic.subfield_solve_s"],
        out["cyclotomic.subfield_solve_self_s"],
        out["cyclotomic.subfield_solve_calls"],
    ) == (4, 4, 3)
    assert out["euler.E3_calls"] == 0 and out["euler.E3_s"] == 0
    assert set(out) | {"trace.overhead_s"} == set(tracing.layer_metric_units())


def _kforge_bindings():
    modules = [importlib.import_module("kforge." + m) for m in tracing.KFORGE_MODULES]
    names = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for m in modules:
        for cls in [v for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]:
            names.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return names


def _digests(results):
    return {op.label: worker.check(op, value)[0] for op, value, error, _ in results if not error}


def test_traced_pass_restores_every_name_and_keeps_reports_identical():
    calls = worker.set_up("desk", DEFAULT_SEED)
    before = _kforge_bindings()
    untraced, _ = worker.run_pass(calls, None)

    tracer, patches = tracing.Tracer(), tracing.Patches()
    patches.install(tracer)
    patched = {(ns.__name__, attr) for ns, attr, _ in patches.applied}
    assert ("kforge.kolyvagin", "galois_apply") in patched  # bound by from-import
    assert ("kforge.cli", "kappa") in patched
    traced, _ = worker.run_pass(calls, tracer)
    assert patches.restore()

    after = _kforge_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _digests(untraced) == _digests(traced) == {op.label: DIGESTS[op.label] for op in ops_for("desk", 42)}
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)


def _traced_worker(seed):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", "desk", "--seed", str(seed),
         "--trace", "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_worker(7), _traced_worker(7)
    units = tracing.layer_metric_units()
    exact = [n for n, u in units.items() if u in ("count", "ratio", "bits")]
    assert {n: first["layers"][n] for n in exact} == {n: second["layers"][n] for n in exact}
    assert first["restored"] and second["restored"]
    # the known recomputation: factorize and class_relation rebuild the same cocycle
    assert first["layers"]["kolyvagin.cocycle_reuse_ratio"] < 1
    assert first["layers"]["kolyvagin.kappa_reuse_ratio"] < 1


def test_run_reports_output_matches_recorded_digests(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reports.py"), str(tmp_path)],
        cwd=ROOT, capture_output=True, check=True,
    )
    labels = [op.label for op in ops_for("desk", DEFAULT_SEED)][:6]  # the run_reports commands
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 6
    for label, path in zip(labels, files):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[label], label


def test_score_counts_differing_bytes_as_failures():
    op = {"label": "decompose --p 5", "seconds": 0.1, "digest": "0" * 64, "error": None}
    good = dict(op, digest=DIGESTS["decompose --p 5"])
    passes = [{"ops": [op], "restored": None}, {"ops": [good], "restored": True}]
    assert run.score(passes)[:2] == (2, 1)
    # a command line with no recorded digest is held to the first pass
    other = [{"ops": [dict(op, label="kappa --seed 7"), dict(good, label="kappa --seed 7")], "restored": None}]
    assert run.score(other)[:2] == (2, 1)
    assert run.score([{"ops": [good], "restored": False}])[2]


def test_oracle_rejects_wrong_kernel_outputs():
    from kforge.cyclotomic import GaloisElt, elt_to_strings, galois_apply, get_field

    op = next(o for o in ops_for("field_kernels", 3) if o.m == 55 and o.kind == "mul")
    field = get_field(55)
    a, b = field.from_coeffs(op.inputs["a"]), field.from_coeffs(op.inputs["b"])
    good = elt_to_strings(a * b)
    assert oracle.check_kernel("mul", 55, op.inputs, good) is None
    wrong = dict(good, num=[str(int(good["num"][0]) + 1)] + good["num"][1:])
    assert oracle.check_kernel("mul", 55, op.inputs, wrong)
    g = op.inputs["g"]
    assert oracle.check_kernel("galois", 55, op.inputs, elt_to_strings(galois_apply(GaloisElt(field, g), a))) is None
    other = next(u for u in field.unit_group if u not in (1, g))
    assert oracle.check_kernel("galois", 55, op.inputs, elt_to_strings(galois_apply(GaloisElt(field, other), a)))
    small, y = get_field(op.inputs["sub"]), op.inputs["y"]
    assert oracle.check_kernel("divide", 55, op.inputs, elt_to_strings(small.from_coeffs(y))) is None
    assert oracle.check_kernel("divide", 55, op.inputs, elt_to_strings(small.from_coeffs([y[0] + 1] + y[1:])))


def test_oracle_rejects_a_perturbed_kappa_report():
    calls = dict((op.label, call) for op, call in worker.set_up("desk", DEFAULT_SEED))
    code, text = calls["kappa --p 5 --n 0 --M 5 --s 11 --seed 42"]()
    report = json.loads(text)
    assert code == 0 and oracle.check_kappa_report(report) is None
    witness = next(c["witness"] for c in report["checks"] if c["name"] == "kappa_class")
    witness["kappa"]["num"][1] = str(int(witness["kappa"]["num"][1]) + 1)
    assert oracle.check_kappa_report(report)


@pytest.mark.parametrize("workload", ["desk", "field_kernels"])
def test_set_up_builds_every_field_the_pass_touches(workload):
    cyclotomic = importlib.import_module("kforge.cyclotomic")
    fields = getattr(cyclotomic, "_FIELDS", None)
    if fields is None:
        pytest.skip("kforge keeps no field table")
    fields.clear()
    calls = worker.set_up(workload, 5)
    built = set(fields)
    worker.run_pass(calls, None)
    assert set(fields) == built == set(CONDUCTORS[workload])


def test_run_refuses_without_kforge_sources(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "benchmark" / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "benchmark" / "digests.json").write_text(json.dumps(DIGESTS), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.xfail(
    strict=True,
    reason="factorize exits 2 ('not prime to q') when the seeded kappa(s) representative "
    "meets a prime above q, instead of resampling it: about one theta seed in eight at p=3, s=7",
)
def test_factorize_succeeds_at_every_theta_seed():
    from kforge.cli import main

    code, _ = worker._cli_call(main, "factorize --p 3 --n 0 --M 3 --s 7 --q 13 --seed 105".split())()
    assert code == 0
