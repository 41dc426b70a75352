"""The four workloads: what one pass runs, derived from the seed alone.

desk           the scripts/run_reports.py commands plus three more axiom
               systems and a second decompose: many short calls in small
               fields, led by the residue-field stack of check_E3.
kappa_ladder   CLI kappa at (p, n, M) = (5, 0, 5) for s = 31, 41, 61: one-prime
               levels of degree 120, 160 and 240, dominated by field multiply.
two_prime      CLI kappa and factorize at (3, 0, 3) with s = 7 * 13 and q = 13, 19:
               the two-prime stretch code path (composite cocycle, resolvent
               over prod (q - 1) elements, factorization) at degree 144-216.
field_kernels  multiply, Galois action and subfield division on random
               elements at m = 55, 273, 1705 with 64- and 1000-bit
               coefficients; m = 1705 reaches the stretch run's degree 1200.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from oracle import prime_factors

DEFAULT_SEED = 42  # the seed scripts/run_reports.py uses

_DESK = (
    "axioms --omega 1:1,2:-1",
    "axioms --omega 1:1,2:-1,twist=3:1",
    "primes --p 5 --n 0 --M 5 --limit 200",
    "kappa --p 5 --n 0 --M 5 --s 11 --seed {seed}",
    "factorize --p 5 --n 0 --M 5 --q 11,31 --seed {seed}",
    "decompose --p 7 --n 0",
    "axioms --omega 1:2,3:-2",
    "axioms --omega 2:1,3:-1",
    "axioms --omega 1:1,2:-1,compose=2",
    "decompose --p 5",
)

_KAPPA_LADDER = tuple(f"kappa --p 5 --n 0 --M 5 --s {s} --seed {{seed}}" for s in (31, 41, 61))

# The factorize commands keep theta seed 42: at s = 7 the program refuses about
# one theta seed in eight with "not prime to q" (exit 2), because it does not
# resample a kappa(s) representative that meets a prime above q.  That defect
# is reproduced by test_factorize_succeeds_at_every_theta_seed, not by this workload.
_TWO_PRIME = (
    "kappa --p 3 --n 0 --M 3 --s 7,13 --seed {seed}",
    "factorize --p 3 --n 0 --M 3 --s 7 --q 13 --seed 42",
    "factorize --p 3 --n 0 --M 3 --s 7 --q 19 --seed 42",
)

# conductor -> the subfield its quotient lands in (the smallest prime factor,
# as in the descent of kappa to Q(zeta_p))
_KERNEL_FIELDS = {55: 5, 273: 3, 1705: 5}
_KERNEL_BITS = (64, 1000)

# Every conductor a pass touches; set-up builds their field tables.
CONDUCTORS = {
    "desk": (1, 3, 5, 7, 11, 15, 21, 33, 35, 55, 77, 105, 155, 165, 231),
    "kappa_ladder": (5, 155, 205, 305),
    "two_prime": (3, 21, 39, 57, 273, 399),
    "field_kernels": (3, 5, 55, 273, 1705),
}

WORKLOADS = tuple(CONDUCTORS)


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a CLI command or one field kernel call."""

    label: str
    kind: str  # "cli", "mul", "galois" or "divide"
    argv: tuple[str, ...] = ()
    m: int = 0
    inputs: dict = field(default_factory=dict, compare=False)


def _cli_ops(templates, seed: int) -> list[Op]:
    ops = []
    for template in templates:
        command = template.format(seed=seed)
        ops.append(Op(command, "cli", tuple(command.split())))
    return ops


def _random_vector(rng: random.Random, length: int, bits: int) -> list[int]:
    return [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(length)]


def _phi(n: int) -> int:
    out = n
    for f in prime_factors(n):
        out = out // f * (f - 1)
    return out


def _kernel_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for m, sub in _KERNEL_FIELDS.items():
        for bits in _KERNEL_BITS:
            a = _random_vector(rng, _phi(m), bits)
            b = _random_vector(rng, _phi(m), bits)
            y = _random_vector(rng, _phi(sub), bits)
            g = rng.choice([u for u in range(2, m) if gcd(u, m) == 1])
            inputs = {"a": a, "b": b, "y": y, "g": g, "sub": sub}
            for kind in ("mul", "galois", "divide"):
                ops.append(Op(f"{kind} m={m} bits={bits}", kind, (), m, inputs))
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in order."""
    if workload == "desk":
        return _cli_ops(_DESK, seed)
    if workload == "kappa_ladder":
        return _cli_ops(_KAPPA_LADDER, seed)
    if workload == "two_prime":
        return _cli_ops(_TWO_PRIME, seed)
    if workload == "field_kernels":
        return _kernel_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
