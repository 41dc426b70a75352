"""Spans and counters recorded from outside kforge, around calls into its layers.

Tracing wraps public functions of the kforge modules for the length of one
traced pass and restores the originals afterwards.  A name bound into another
module with ``from ... import`` is a second reference to the same function, so
every kforge module namespace holding the original is patched, not only the
defining one.  Spans (name, start, end, parent) stay in memory; the per-layer
metrics are computed from them when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import time

KFORGE_MODULES = ("cli", "kolyvagin", "cyclotomic", "euler", "primes", "exact_arith")

# (module, attribute path) of every function timed as a span.  The span name
# is "<module>.<attribute path>".
SPAN_TARGETS = (
    ("cli", "run"),
    ("cli", "_write_report"),
    ("kolyvagin", "cocycle_closed_form"),
    ("kolyvagin", "kappa"),
    ("kolyvagin", "hilbert90_beta"),
    ("kolyvagin", "apply_derivative"),
    ("cyclotomic", "CycloElt.__mul__"),
    ("cyclotomic", "galois_apply"),
    ("cyclotomic", "divide_into_subfield"),
    ("cyclotomic", "restrict_down"),
    ("cyclotomic", "embed_up"),
    ("cyclotomic", "elt_inverse"),
    ("cyclotomic", "get_field"),
    ("euler", "check_E1"),
    ("euler", "check_E2"),
    ("euler", "check_E3"),
    ("euler", "check_unit"),
    ("euler", "phi_eval"),
    ("euler", "phi_eval_inverse"),
    ("euler", "phi_eval_in"),
    ("euler", "decompose_over_cyclotomic_units"),
    ("exact_arith", "field_with_unity_root"),
    ("exact_arith", "poly_extended_gcd"),
    ("primes", "split_prime_data"),
    ("primes", "valuation"),
    ("primes", "ideal_dlog_vector"),
    ("primes", "check_factorization"),
    ("primes", "class_relation"),
)

# Functions too small and too frequent for a span: only their calls are counted.
COUNT_TARGETS = (
    ("exact_arith", "FFElt.__mul__"),
    ("exact_arith", "hensel_lift_root"),
)

# Spans whose argument tuples are also recorded, to count distinct calls.
DISTINCT_SPANS = ("kolyvagin.cocycle_closed_form", "kolyvagin.kappa")

MUL_SPAN = "cyclotomic.CycloElt.__mul__"

# Per-layer metric -> (span names, required ancestor span or None).  Each
# yields <metric>_s (time in outermost spans of the set), <metric>_self_s
# (span time minus child-span time) and <metric>_calls (every span of the set).
LAYER_SPANS = {
    "cli.command": (("cli.run",), None),
    "cli.report": (("cli._write_report",), None),
    "kolyvagin.cocycle": (("kolyvagin.cocycle_closed_form",), None),
    "kolyvagin.kappa": (("kolyvagin.kappa",), None),
    "kolyvagin.resolvent": (("kolyvagin.hilbert90_beta",), None),
    "kolyvagin.derivative": (("kolyvagin.apply_derivative",), None),
    "kolyvagin.descent": (("cyclotomic.divide_into_subfield",), "kolyvagin.kappa"),
    "cyclotomic.mul": ((MUL_SPAN,), None),
    "cyclotomic.galois": (("cyclotomic.galois_apply",), None),
    "cyclotomic.subfield_solve": (
        ("cyclotomic.divide_into_subfield", "cyclotomic.restrict_down"),
        None,
    ),
    "cyclotomic.embed": (("cyclotomic.embed_up",), None),
    "cyclotomic.inverse": (("cyclotomic.elt_inverse",), None),
    "cyclotomic.get_field": (("cyclotomic.get_field",), None),
    "euler.E1": (("euler.check_E1",), None),
    "euler.E2": (("euler.check_E2",), None),
    "euler.E3": (("euler.check_E3",), None),
    "euler.unit": (("euler.check_unit",), None),
    "euler.phi_eval": (("euler.phi_eval", "euler.phi_eval_inverse", "euler.phi_eval_in"), None),
    "euler.decompose": (("euler.decompose_over_cyclotomic_units",), None),
    "exact_arith.residue_field": (("exact_arith.field_with_unity_root",), None),
    "exact_arith.xgcd": (("exact_arith.poly_extended_gcd",), None),
    "primes.split_data": (("primes.split_prime_data",), None),
    "primes.valuation": (("primes.valuation",), None),
    "primes.dlog_vector": (("primes.ideal_dlog_vector",), None),
    "primes.factorization": (("primes.check_factorization",), None),
    "primes.class_relation": (("primes.class_relation",), None),
}

# Metrics that are not span sums, with their units.
DERIVED_UNITS = {
    "kolyvagin.cocycle_distinct": "count",
    "kolyvagin.cocycle_reuse_ratio": "ratio",
    "kolyvagin.kappa_distinct": "count",
    "kolyvagin.kappa_reuse_ratio": "ratio",
    "cyclotomic.peak_coeff_bits": "bits",
    "cyclotomic.peak_den_bits": "bits",
    "exact_arith.ff_mul_calls": "count",
    "exact_arith.hensel_calls": "count",
    "primes.lifts_per_valuation": "ratio",
    "trace.overhead_s": "s",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for base in LAYER_SPANS:
        units[base + "_s"] = "s"
        units[base + "_self_s"] = "s"
        units[base + "_calls"] = "count"
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    """In-memory span log and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.peak_coeff_bits = 0
        self.peak_den_bits = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def note_element(self, x) -> None:
        num = getattr(x, "num", ())
        den = getattr(x, "den", 1)
        bits = max((abs(c).bit_length() for c in num), default=0)
        if bits > self.peak_coeff_bits:
            self.peak_coeff_bits = bits
        if den.bit_length() > self.peak_den_bits:
            self.peak_den_bits = den.bit_length()

    def span_wrapper(self, name: str, fn):
        tracer = self
        distinct = tracer.distinct.setdefault(name, set()) if name in DISTINCT_SPANS else None
        note = name == MUL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct is not None:
                distinct.add(repr((args, sorted(kwargs.items()))))
            index = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if note:
                tracer.note_element(out)
            return out

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


class Patches:
    """Installs tracer wrappers into the kforge namespaces and restores them."""

    def __init__(self):
        self.applied: list[tuple[object, str, object]] = []  # (namespace, attr, original)

    def install(self, tracer: Tracer) -> None:
        modules = {name: importlib.import_module("kforge." + name) for name in KFORGE_MODULES}
        for targets, make in ((SPAN_TARGETS, tracer.span_wrapper), (COUNT_TARGETS, tracer.count_wrapper)):
            for module_name, path in targets:
                owner = modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue  # the layer no longer has this function; it reports zero
                wrapper = make(f"{module_name}.{path}", original)
                if outer:
                    self._set(owner, attr, original, wrapper)
                    continue
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, original, wrapper)

    def _set(self, namespace, attr: str, original, wrapper) -> None:
        self.applied.append((namespace, attr, original))
        setattr(namespace, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each patched name is the original again."""
        for namespace, attr, original in reversed(self.applied):
            setattr(namespace, attr, original)
        ok = all(getattr(ns, attr) is original for ns, attr, original in self.applied)
        self.applied = []
        return ok


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(index):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    out: dict[str, float] = {}
    for base, (names, required) in LAYER_SPANS.items():
        members = set(names)
        total = self_time = 0.0
        calls = 0
        for i in (j for name in names for j in by_name.get(name, ())):
            _, start, end, _ = spans[i]
            above = list(ancestors(i))
            if required is not None and required not in above:
                continue
            calls += 1
            self_time += (end - start) - child_time[i]
            if not members.intersection(above):
                total += end - start
        out[base + "_s"] = total
        out[base + "_self_s"] = self_time
        out[base + "_calls"] = calls

    for base, span in (("kolyvagin.cocycle", "kolyvagin.cocycle_closed_form"), ("kolyvagin.kappa", "kolyvagin.kappa")):
        distinct = len(tracer.distinct.get(span, ()))
        calls = out[base + "_calls"]
        out[base + "_distinct"] = distinct
        # with no calls nothing was recomputed
        out[base + "_reuse_ratio"] = distinct / calls if calls else 1.0
    out["cyclotomic.peak_coeff_bits"] = tracer.peak_coeff_bits
    out["cyclotomic.peak_den_bits"] = tracer.peak_den_bits
    out["exact_arith.ff_mul_calls"] = tracer.counts.get("exact_arith.FFElt.__mul__", 0)
    hensel = tracer.counts.get("exact_arith.hensel_lift_root", 0)
    out["exact_arith.hensel_calls"] = hensel
    valuations = out["primes.valuation_calls"]
    out["primes.lifts_per_valuation"] = hensel / valuations if valuations else 0.0
    return out
