"""Command-line driver and deterministic JSON verification reports.

Commands: axioms | kappa | factorize | primes | decompose.  Reports carry
every number as a decimal string and are byte-identical across runs with the
same configuration and seed; measured timings therefore go to stderr only
(the serialized timing field is null).

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 bad
configuration, 3 internal inconsistency (a certified identity failed to
re-verify, which should never happen).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

from . import __version__
from .errors import BudgetExhausted, ConfigError, DomainError, InternalInconsistency
from .cyclotomic import RootOfUnity, elt_to_strings
from .euler import (
    AxiomReport,
    EulerSystem,
    check_E1,
    check_E2,
    check_E3,
    check_unit,
    cyclotomic_unit_generators,
    decompose_over_cyclotomic_units,
    parse_omega,
    phi_eval,
)
from .exact_arith import euler_phi
from .kolyvagin import (
    KolyParams,
    clear_memo,
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
    self_test: bool = False

    def system(self) -> EulerSystem:
        return parse_omega(self.omega)

    def params(self) -> KolyParams:
        try:
            return KolyParams(self.p, self.n, self.M)
        except ConfigError:
            raise
        except (ValueError, DomainError) as exc:
            raise ConfigError(str(exc)) from exc

    def as_block(self) -> dict:
        return {
            "omega": self.omega,
            "p": str(self.p),
            "n": str(self.n),
            "M": str(self.M),
            "s": [str(v) for v in self.s],
            "q": [str(v) for v in self.q],
            "limit": str(self.limit),
            "seed": str(self.seed),
        }


@dataclass
class Report:
    command: str
    config: dict
    checks: list[dict] = dc_field(default_factory=list)
    timings_ms: list[float] = dc_field(default_factory=list)

    def add(self, name: str, anchor: str, passed: bool, witness: dict, elapsed: float):
        self.checks.append(
            {
                "name": name,
                "anchor": anchor,
                "status": "pass" if passed else "fail",
                "witness": witness,
                "timing_ms": None,
            }
        )
        self.timings_ms.append(elapsed * 1000.0)

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
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _axiom_entry(report: Report, ax: AxiomReport, anchor: str, elapsed: float):
    witness = dict(ax.witness)
    witness["params"] = {k: str(v) for k, v in ax.params.items()}
    report.add(ax.name, anchor, ax.passed, witness, elapsed)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


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
            if eta.order > 1 and math.gcd(a, eta.order) != 1:
                continue
            ax, dt = _timed(check_E1, E, eta, a)
            _axiom_entry(report, ax, "axiom:E1", dt)
        for q in DEFAULT_AUX_PRIMES:
            if q in excluded:
                continue
            ax, dt = _timed(check_E2, E, eta, q)
            _axiom_entry(report, ax, "axiom:E2", dt)
            if math.gcd(q, eta.order) == 1:
                ax, dt = _timed(check_E3, E, eta, q)
                _axiom_entry(report, ax, "axiom:E3", dt)
        if eta.order > 1:
            ax, dt = _timed(check_unit, E, eta)
            _axiom_entry(report, ax, "unit:integrality-norm", dt)
    report.config["effective_excluded"] = [str(p) for p in sorted(excluded)]
    return report


def cmd_kappa(cfg: RunConfig) -> Report:
    E = cfg.system()
    params = cfg.params()
    params.validate_system(E)
    s = 1
    for q in cfg.s:
        if not is_kolyvagin_prime(params, q):
            raise ConfigError(f"{q} is not a Kolyvagin prime")
        s *= q
    report = Report("kappa", cfg.as_block())
    if s > 1:
        # a cocycle exists only once its certificate and norm condition hold
        coc, dt = _timed(cocycle_closed_form, E, params, s)
        report.add(
            "cocycle_certificate",
            "cocycle:mth-power-certificate",
            True,
            {
                "s": str(s),
                "values": {str(q): elt_to_strings(c) for q, c in coc.values.items()},
                "norm_trivial": True,
                "frobenius_exponents": {str(k): str(v) for k, v in coc.frobenius_exponents.items()},
            },
            dt,
        )
    kc, dt = _timed(kappa, E, params, s, cfg.seed)
    report.add(
        "kappa_class",
        "kappa:descent",
        True,
        {
            "s": str(s),
            "kappa": elt_to_strings(kc.kappa),
            "beta": elt_to_strings(kc.beta),
            "theta_seed": str(kc.theta_seed),
        },
        dt,
    )
    return report


def cmd_factorize(cfg: RunConfig) -> Report:
    E = cfg.system()
    params = cfg.params()
    params.validate_system(E)
    s = 1
    for v in cfg.s:
        s *= v
    qs = cfg.q or (11,)
    for q in qs:
        if not is_kolyvagin_prime(params, q):
            raise ConfigError(f"{q} is not a Kolyvagin prime")
        if s % q == 0:
            raise ConfigError("q must not divide s")
    report = Report("factorize", cfg.as_block())
    report.config["q"] = [str(q) for q in qs]
    for q in qs:
        rep, dt = _timed(check_factorization, E, params, s, q, cfg.seed)
        report.add(
            f"factorization_q{q}",
            "factorization:projection-law",
            rep.passed,
            {
                "part_i": [str(e) for e in rep.part_i_vector.entries],
                "part_ii_valuations": [str(e) for e in rep.part_ii_valuations.entries],
                "part_ii_dlogs": [str(e) for e in rep.part_ii_dlogs.entries],
                "kappa_s": rep.witness["kappa_s"],
                "kappa_sq": rep.witness["kappa_sq"],
            },
            dt,
        )
        # at s = 1 the law just checked is the level-1 law the relation reads
        law, dt_law = (rep, 0.0) if s == 1 else _timed(check_factorization, E, params, 1, q, cfg.seed)
        cr, dt = _timed(class_relation, E, law, cfg.seed)
        report.add(
            f"class_relation_q{q}",
            "annihilator:group-ring",
            cr.relation_holds and all(cr.probes.values()),
            {
                "theta": {str(a): str(c) for a, c in cr.theta.coeffs},
                "reference_pair": [str(v) for v in cr.theta.reference_pair],
                "probes": {str(k): v for k, v in sorted(cr.probes.items())},
            },
            dt_law + dt,
        )
    return report


def cmd_primes(cfg: RunConfig) -> Report:
    if cfg.limit > 10**6:
        raise ConfigError("limit must be at most 10^6")
    params = cfg.params()
    report = Report("primes", cfg.as_block())
    found, dt = _timed(find_kolyvagin_primes, params, cfg.limit)
    summaries = {}
    for q in found[:25]:
        data = split_prime_data(q, params.conductor)
        summaries[str(q)] = {
            "roots": [str(r) for r in data.roots],
            "pairs": [[str(a), str(b)] for a, b in data.pairs],
            "t": str(data.t),
            "gamma": str(data.gamma),
        }
    report.add(
        "prime_search",
        "primes:congruence-splitting",
        True,
        {"found": [str(q) for q in found], "count": str(len(found)), "split_data": summaries},
        dt,
    )
    return report


def cmd_decompose(cfg: RunConfig) -> Report:
    E = cfg.system()
    if cfg.p in E.effective_excluded:
        raise ConfigError(f"p = {cfg.p} is excluded by the system")
    if cfg.n < 0:
        raise ConfigError("level must be nonnegative")
    m = cfg.p ** (cfg.n + 1)
    if euler_phi(m) > 40:
        raise ConfigError("field degree exceeds the desk-scale bound (phi <= 40)")
    report = Report("decompose", cfg.as_block())
    gens = cyclotomic_unit_generators(cfg.p, cfg.n)
    if cfg.self_test:
        target = gens[0]
        label = "generator_self_test"
    else:
        target = phi_eval(E, RootOfUnity(m, 1))
        label = "system_value"
    dec, dt = _timed(decompose_over_cyclotomic_units, target, cfg.p, cfg.n)
    residue = target.field.one
    for g, e in zip(gens, dec.exponents):
        residue = residue * g**e
    verified = residue.scale(dec.unit_root) == target
    report.add(
        label,
        "decompose:cyclotomic-units",
        verified,
        {
            "exponents": [str(e) for e in dec.exponents],
            "unit_root": str(dec.unit_root),
            "generators": [elt_to_strings(g) for g in gens],
            "target": elt_to_strings(target),
            "precision_bits": str(dec.precision_bits),
        },
        dt,
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
    "self_test": {"action": "store_true"},
    "out": {},
}

_COMMAND_OPTIONS = {
    "axioms": ("omega",),
    "kappa": ("omega", "p", "n", "M", "s", "seed"),
    "factorize": ("omega", "p", "n", "M", "s", "q", "seed"),
    "primes": ("p", "n", "M", "limit"),
    "decompose": ("omega", "p", "n", "self_test"),
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
            cp.add_argument("--" + option.replace("_", "-"), **_OPTIONS[option])
    return parser


def run(cfg: RunConfig) -> tuple[Report, int]:
    """Run one command; cocycles and classes are built once per command."""
    clear_memo()
    report = COMMANDS[cfg.command](cfg)
    return report, 0 if report.overall == "pass" else 1


def _write_report(report: Report, out: str | None) -> None:
    text = report.to_json()
    sys.stdout.write(text)
    if out:
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    for check, ms in zip(report.checks, report.timings_ms):
        print(f"[timing] {check['name']}: {ms:.1f} ms", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    cfg = RunConfig(**vars(parser.parse_args(argv)))
    try:
        report, code = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    _write_report(report, cfg.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
