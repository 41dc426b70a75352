"""Command-line driver and deterministic JSON verification reports.

Commands: axioms | kappa | factorize | primes | decompose.  Commands and
verifiers hand their reports elements, integers and fractions; _json, applied
once in Report.to_json, is where every number becomes a decimal string and
every element its conductor, denominator and numerator.  Reports are
byte-identical across runs with the same configuration and seed; measured
timings therefore go to stderr only (the serialized timing field is null).

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 bad
configuration or an unwritable --out, 3 internal inconsistency (a certified
identity failed to re-verify, which should never happen).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import __version__
from .errors import ConfigError, DomainError, InternalInconsistency
from .cyclotomic import CycloElt, RootOfUnity, elt_to_strings
from .euler import (
    AxiomReport,
    EulerSystem,
    check_E1,
    check_E2,
    check_E3,
    check_unit,
    clear_memo,
    cyclotomic_unit_generators,
    decompose_over_cyclotomic_units,
    parse_omega,
    phi_eval,
)
from .exact_arith import euler_phi
from .kolyvagin import (
    KolyParams,
    cocycle_closed_form,
    find_kolyvagin_primes,
    is_kolyvagin_prime,
    kappa,
)
from .primes import check_factorization, class_relation, split_prime_data

DEFAULT_ETA_ORDERS = (1, 3, 5, 7)
DEFAULT_AUX_PRIMES = (3, 7, 11)
DEFAULT_E1_EXPONENTS = (2, 3)


@dataclass
class RunConfig:
    command: str
    omega: str = "1:1,2:-1"
    p: int = 5
    n: int = 0
    M: int = 5
    s: tuple[int, ...] = ()
    q: tuple[int, ...] = ()
    limit: int = 100
    seed: int = 0
    out: str | None = None

    def system(self) -> EulerSystem:
        return parse_omega(self.omega)

    def params(self) -> KolyParams:
        return KolyParams(self.p, self.n, self.M)

    def as_block(self) -> dict:
        return {k: getattr(self, k) for k in ("omega", "p", "n", "M", "s", "q", "limit", "seed")}


@dataclass
class Report:
    command: str
    config: dict
    checks: list[dict] = dc_field(default_factory=list)
    timings_ms: list[float] = dc_field(default_factory=list)
    mark: float = dc_field(default_factory=time.perf_counter)

    def add(self, name: str, anchor: str, passed: bool, witness: dict):
        """Append a check, timed from the previous check or, for the first,
        from the report's creation."""
        now = time.perf_counter()
        self.timings_ms.append((now - self.mark) * 1000.0)
        self.mark = now
        self.checks.append(
            {
                "name": name,
                "anchor": anchor,
                "status": "pass" if passed else "fail",
                "witness": witness,
                "timing_ms": None,
            }
        )

    @property
    def overall(self) -> str:
        return "pass" if all(c["status"] == "pass" for c in self.checks) else "fail"

    def to_json(self) -> str:
        payload = {
            "tool": {"name": "kforge", "version": __version__},
            "command": self.command,
            "config": self.config,
            "checks": self.checks,
            "overall": self.overall,
        }
        return json.dumps(_json(payload), indent=2, ensure_ascii=False) + "\n"


def _json(value):
    """The report form of value: an element as elt_to_strings, a dict, tuple
    or list entry by entry (dict keys as str), an int or Fraction as its
    decimal string; None, bool and str are kept.  Any other type raises
    TypeError, so a record passed by mistake fails instead of printing."""
    if isinstance(value, CycloElt):
        return elt_to_strings(value)
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    raise TypeError(f"no report form for {type(value).__name__}")


def _axiom_entry(report: Report, ax: AxiomReport, anchor: str):
    report.add(ax.name, anchor, ax.passed, {**ax.witness, "params": ax.params})


def _kolyvagin_product(E: EulerSystem, params: KolyParams, primes: tuple[int, ...], option: str) -> int:
    """The product of the entries of --option, which must be distinct
    Kolyvagin primes outside the system's excluded set; ConfigError
    otherwise, before any field is built."""
    for q in primes:
        if q in E.effective_excluded:
            raise ConfigError(f"--{option} entry {q} is excluded by the system")
        if not is_kolyvagin_prime(params, q):
            raise ConfigError(f"{q} is not a Kolyvagin prime")
    if len(set(primes)) != len(primes):
        raise ConfigError(f"{option} must not repeat a prime")
    return math.prod(primes)


def _default_q(E: EulerSystem, params: KolyParams, s: int) -> int:
    """The q factorize checks without --q: the least Kolyvagin prime outside
    the system's excluded set that does not divide s."""
    return next(
        q
        for q in itertools.count(2)
        if is_kolyvagin_prime(params, q) and s % q and q not in E.effective_excluded
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_axioms(cfg: RunConfig) -> Report:
    E = cfg.system()
    report = Report("axioms", cfg.as_block())
    excluded = E.effective_excluded
    etas = [RootOfUnity(o, 1 % o) for o in DEFAULT_ETA_ORDERS]
    etas = [eta for eta in etas if E.admissible(eta)]
    for eta in etas:
        for a in DEFAULT_E1_EXPONENTS:
            if math.gcd(a, eta.order) != 1:
                continue
            _axiom_entry(report, check_E1(E, eta, a), "axiom:E1")
        for q in DEFAULT_AUX_PRIMES:
            if q in excluded:
                continue
            _axiom_entry(report, check_E2(E, eta, q), "axiom:E2")
            if math.gcd(q, eta.order) == 1:
                _axiom_entry(report, check_E3(E, eta, q), "axiom:E3")
        if eta.order > 1:
            _axiom_entry(report, check_unit(E, eta), "unit:integrality-norm")
    report.config["effective_excluded"] = sorted(excluded)
    return report


def cmd_kappa(cfg: RunConfig) -> Report:
    E = cfg.system()
    params = cfg.params()
    params.validate_system(E)
    s = _kolyvagin_product(E, params, cfg.s, "s")
    report = Report("kappa", cfg.as_block())
    if s > 1:
        # kappa below proves these values (M-th powers and norms) or raises before any report
        coc = cocycle_closed_form(E, params, s)
        report.add(
            "cocycle_certificate",
            "cocycle:mth-power-certificate",
            True,
            {
                "s": s,
                "values": coc.values,
                "norm_trivial": True,
                "frobenius_exponents": coc.frobenius_exponents,
            },
        )
    kc = kappa(E, params, s, cfg.seed)
    report.add(
        "kappa_class",
        "kappa:descent",
        True,
        {"s": s, "kappa": kc.kappa, "beta": kc.beta, "theta_seed": cfg.seed},
    )
    return report


def cmd_factorize(cfg: RunConfig) -> Report:
    E = cfg.system()
    params = cfg.params()
    params.validate_system(E)
    s = _kolyvagin_product(E, params, cfg.s, "s")
    qs = cfg.q or (_default_q(E, params, s),)
    _kolyvagin_product(E, params, qs, "q")
    if any(s % q == 0 for q in qs):
        raise ConfigError("q must not divide s")
    report = Report("factorize", cfg.as_block())
    report.config["q"] = qs
    for q in qs:
        rep = check_factorization(E, params, s, q, cfg.seed)
        report.add(
            f"factorization_q{q}",
            "factorization:projection-law",
            rep.passed,
            {
                "part_i": rep.part_i_vector,
                "part_ii_valuations": rep.part_ii_valuations,
                "part_ii_dlogs": rep.part_ii_dlogs,
                "kappa_s": rep.kappa_s,
                "kappa_sq": rep.kappa_sq,
            },
        )
        # at s = 1 the law just checked is the level-1 law the relation reads
        cr = class_relation(rep if s == 1 else check_factorization(E, params, 1, q, cfg.seed))
        report.add(
            f"class_relation_q{q}",
            "annihilator:group-ring",
            cr.relation_holds and all(cr.probes.values()),
            {
                "theta": dict(cr.theta.coeffs),
                "reference_pair": cr.theta.reference_pair,
                "probes": cr.probes,
            },
        )
    return report


def cmd_primes(cfg: RunConfig) -> Report:
    if not 2 <= cfg.limit <= 10**6:
        raise ConfigError("limit must be between 2 and 10^6")
    params = cfg.params()
    report = Report("primes", cfg.as_block())
    found = find_kolyvagin_primes(params, cfg.limit)
    summaries = {}
    for q in found[:25]:
        data = split_prime_data(q, params.conductor)
        summaries[q] = {"roots": data.roots, "pairs": data.pairs, "t": data.t, "gamma": data.gamma}
    report.add(
        "prime_search",
        "primes:congruence-splitting",
        True,
        {"found": found, "count": len(found), "split_data": summaries},
    )
    return report


def cmd_decompose(cfg: RunConfig) -> Report:
    E = cfg.system()
    # decompose reads no M; M = p is a power of p, so p and n are checked as
    # in the other commands, before any field is built
    KolyParams(cfg.p, cfg.n, cfg.p).validate_system(E)
    m = cfg.p ** (cfg.n + 1)
    if euler_phi(m) > 40:
        raise ConfigError("field degree exceeds the desk-scale bound (phi <= 40)")
    report = Report("decompose", cfg.as_block())
    target = phi_eval(E, RootOfUnity(m, 1))
    # a decomposition is returned only once its identity is proved exactly
    dec = decompose_over_cyclotomic_units(target, cfg.p, cfg.n)
    report.add(
        "system_value",
        "decompose:cyclotomic-units",
        True,
        {
            "exponents": dec.exponents,
            "unit_root": dec.unit_root,
            "generators": cyclotomic_unit_generators(cfg.p, cfg.n),
            "target": target,
            "precision_bits": dec.precision_bits,
        },
    )
    return report


COMMANDS = {
    "axioms": cmd_axioms,
    "kappa": cmd_kappa,
    "factorize": cmd_factorize,
    "primes": cmd_primes,
    "decompose": cmd_decompose,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


# Defaults live in RunConfig only.  Each subcommand registers just the options
# its command reads, so a report's config block never records an ignored one.
_OPTIONS = {
    "omega": {"help": 'system spec, e.g. "1:1,2:-1"'},
    "p": {"type": int},
    "n": {"type": int},
    "M": {"type": int},
    "s": {"type": _int_list, "help": "comma-separated primes"},
    "q": {"type": _int_list, "help": "comma-separated primes"},
    "limit": {"type": int},
    "seed": {"type": int},
    "out": {},
}

_COMMAND_OPTIONS = {
    "axioms": ("omega",),
    "kappa": ("omega", "p", "n", "M", "s", "seed"),
    "factorize": ("omega", "p", "n", "M", "s", "q", "seed"),
    "primes": ("p", "n", "M", "limit"),
    "decompose": ("omega", "p", "n"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kforge",
        description="Exact verification of cyclotomic Euler-system identities, "
        "Kolyvagin classes and their ideal factorizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _COMMAND_OPTIONS.items():
        cp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for option in options + ("out",):
            cp.add_argument("--" + option, **_OPTIONS[option])
    return parser


def run(cfg: RunConfig) -> tuple[Report, int]:
    """Run one command; system values, cocycles and classes are built once
    per command."""
    clear_memo()
    report = COMMANDS[cfg.command](cfg)
    return report, 0 if report.overall == "pass" else 1


def _write_report(report: Report, out: str | None) -> bool:
    """Write --out, then stdout; False, with nothing on stdout and no
    temporary file left, when --out cannot be written."""
    text = report.to_json()
    if out:
        try:
            with open(out + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(out + ".tmp", out)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(out + ".tmp")
            print(f"error: cannot write --out {out}: {exc.strerror or exc}", file=sys.stderr)
            return False
    sys.stdout.write(text)
    for check, ms in zip(report.checks, report.timings_ms):
        print(f"[timing] {check['name']}: {ms:.1f} ms", file=sys.stderr)
    return True


def main(argv=None) -> int:
    parser = build_parser()
    cfg = RunConfig(**vars(parser.parse_args(argv)))
    try:
        report, code = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    return code if _write_report(report, cfg.out) else 2


if __name__ == "__main__":
    raise SystemExit(main())
