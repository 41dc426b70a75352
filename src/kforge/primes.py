"""Degree-one prime machinery above a completely split prime q.

A Kolyvagin prime q is 1 mod m, so the m-th cyclotomic polynomial has the
full phi(m) simple roots mod q; each root c gives a degree-one prime
(q, zeta - c) of Q(zeta_m), and conjugate root pairs {c, 1/c} sit above one
prime of the real subfield F.  Valuations are computed upstairs by
evaluating integer numerators at Hensel-lifted roots modulo growing powers
of q; residues and discrete logs are computed mod q itself.

check_factorization compares the two sides of the factorization law
[kappa(sq)]_q = lambda_q(kappa(s)) by these disjoint pipelines; the class
relation is that law at s = 1, read as a group-ring element, plus probes of
kappa(q) at the other split primes.

The canonical generator gamma of the residue field is t^(-1) mod q, where t
is the least primitive root mod q: with the uniformizer 1 - eta_q one has
(1 - eta_q^t)/(1 - eta_q) = 1 + eta_q + ... = t at the ramified prime, so
the inertia generator sigma_q maps to t^(-1).  The same t drives the
cocycle machinery, which keeps the two pipelines convention-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import BudgetExhausted, DomainError, InternalInconsistency
from .cyclotomic import CycloElt, elt_to_strings, get_field
from .euler import EulerSystem
from .exact_arith import (
    factorize,
    hensel_lift_root,
    int_dlog,
    int_padic_valuation,
    ip_eval,
    is_prime,
    least_primitive_root,
)
from .kolyvagin import KolyParams, find_kolyvagin_primes, kappa

_BASE_PRECISION = 8
_VALUATION_BUDGET = 512


@dataclass(frozen=True)
class SplitPrimeData:
    """Roots of the conductor polynomial mod q, conjugation-paired into
    primes of the real subfield, plus the fixed primitive root and gamma."""

    q: int
    m: int
    roots: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    t: int
    gamma: int


def split_prime_data(q: int, m: int) -> SplitPrimeData:
    """Find and pair the roots of the m-th cyclotomic polynomial mod q."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q % m != 1:
        raise DomainError("prime does not split completely")
    mfacs = list(factorize(m))
    gen = None
    for c in range(2, q):
        if pow(c, m, q) == 1 and all(pow(c, m // p, q) != 1 for p in mfacs):
            gen = c
            break
    if gen is None:
        raise InternalInconsistency("no element of order m in the residue field")
    roots = sorted(pow(gen, i, q) for i in range(1, m + 1) if math.gcd(i, m) == 1)
    field = get_field(m)
    if len(set(roots)) != field.phi:
        raise InternalInconsistency("root count does not match the field degree")
    poly = field.poly
    deriv_ok = all(ip_eval(poly, c) % q == 0 for c in roots)
    if not deriv_ok:
        raise InternalInconsistency("claimed roots do not satisfy the polynomial")
    seen = set()
    pairs = []
    for c in roots:
        if c in seen:
            continue
        partner = pow(c, -1, q)
        if partner == c or partner not in roots:
            raise InternalInconsistency("conjugation pairing is not a perfect matching")
        seen.update((c, partner))
        pairs.append((min(c, partner), max(c, partner)))
    pairs.sort()
    t = least_primitive_root(q)
    return SplitPrimeData(q, m, tuple(roots), tuple(pairs), t, pow(t, -1, q))


def _lifted_root(data: SplitPrimeData, root: int, k: int) -> int:
    return hensel_lift_root(get_field(data.m).poly, data.q, root, k)


def valuation(x: CycloElt, root: int, data: SplitPrimeData) -> int:
    """Exact valuation of x at the degree-one prime (q, zeta - root).

    Clears the denominator, evaluates the integer numerator at the lifted
    root modulo q^k, and doubles k from _BASE_PRECISION until the valuation
    is below k.
    """
    if x.field.m != data.m:
        raise DomainError("element lives in the wrong field")
    if x.is_zero():
        raise DomainError("valuation of zero is infinite")
    q = data.q
    v_den = int_padic_valuation(x.den, q)
    k = _BASE_PRECISION
    while k <= _VALUATION_BUDGET:
        mod = q**k
        r = _lifted_root(data, root, k)
        acc = 0
        for c in reversed(x.num):
            acc = (acc * r + c) % mod
        if acc:
            v_num = int_padic_valuation(acc, q)
            if v_num < k:
                return v_num - v_den
        k *= 2
    raise BudgetExhausted("valuation undecidable at budget")


@dataclass(frozen=True)
class IdealVector:
    """An element of I_q / M I_q: one residue per prime of F above q."""

    q: int
    M: int
    entries: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


def ideal_vector(x: CycloElt, M: int, data: SplitPrimeData) -> IdealVector:
    """Valuations of x modulo M at the primes of F above q.

    x must be conjugation-invariant; the two paired roots must then agree,
    and a disagreement raises InternalInconsistency.
    """
    entries = []
    for c1, c2 in data.pairs:
        v1 = valuation(x, c1, data)
        v2 = valuation(x, c2, data)
        if v1 != v2:
            raise InternalInconsistency("paired-root valuations disagree")
        entries.append(v1 % M)
    return IdealVector(data.q, M, tuple(entries))


def _residue_at_root(x: CycloElt, root: int, q: int) -> int:
    if x.den % q == 0:
        raise DomainError("not prime to q")
    acc = 0
    for c in reversed(x.num):
        acc = (acc * root + c) % q
    return acc * pow(x.den, -1, q) % q


def ideal_dlog_vector(w: CycloElt, M: int, data: SplitPrimeData) -> IdealVector:
    """The discrete-log map into I_q / M I_q: reduce w at each prime and take
    the exponent with respect to gamma = t^(-1)."""
    if w.field.m != data.m:
        raise DomainError("element lives in the wrong field")
    q = data.q
    entries = []
    for c1, c2 in data.pairs:
        r1 = _residue_at_root(w, c1, q)
        r2 = _residue_at_root(w, c2, q)
        if r1 == 0 or r2 == 0:
            raise DomainError("not prime to q")
        if r1 != r2:
            raise InternalInconsistency("paired-root residues disagree")
        entries.append(int_dlog(data.gamma, r1, q) % M)
    return IdealVector(q, M, tuple(entries))


# ---------------------------------------------------------------------------
# the group-ring form and the annihilator relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorElt:
    """Element of (Z/M)[Gal(F/Q)]; keys are the class representatives
    a <= m/2 of {a, m-a}, together with the reference prime's root pair."""

    m: int
    M: int
    coeffs: tuple[tuple[int, int], ...]
    reference_pair: tuple[int, int]

    def is_zero(self) -> bool:
        return all(c == 0 for _, c in self.coeffs)


def galois_classes(m: int) -> list[int]:
    """Representatives of Gal(F/Q) = (Z/m)^x / {+-1}, smallest member first."""
    field = get_field(m)
    return [a for a in field.unit_group if a <= m - a]


def _pair_index(data: SplitPrimeData, root: int) -> int:
    partner = pow(root, -1, data.q)
    key = (min(root, partner), max(root, partner))
    return data.pairs.index(key)


def annihilator_from_dlogs(vec: IdealVector, data: SplitPrimeData) -> AnnihilatorElt:
    """The unique group-ring element carrying the reference prime, the first
    of data.pairs, onto the discrete-log vector vec under the Galois action
    on primes above q.

    sigma_a sends the prime with root c to the prime with root c^(1/a), so
    the coefficient of the class of sigma_a reads the vector at that prime.
    """
    m = data.m
    c0 = data.pairs[0][0]
    coeffs = []
    for a in galois_classes(m):
        a_inv = pow(a, -1, m)
        image_root = pow(c0, a_inv, data.q)
        coeffs.append((a, vec.entries[_pair_index(data, image_root)]))
    return AnnihilatorElt(m, vec.M, tuple(coeffs), data.pairs[0])


# ---------------------------------------------------------------------------
# factorization of the Kolyvagin class, and the class-group relation
# ---------------------------------------------------------------------------


@dataclass
class FactorizationReport:
    params: KolyParams
    s: int
    q: int
    part_i_vector: IdealVector
    part_ii_valuations: IdealVector
    part_ii_dlogs: IdealVector
    passed: bool
    witness: dict = dc_field(default_factory=dict)


def check_factorization(
    E: EulerSystem, params: KolyParams, s: int, q: int, seed: int = 0
) -> FactorizationReport:
    """Both parts of the ideal-factorization law at q.

    Part (i): the class at level s has trivial projection at q.  Part (ii):
    the projection of the level s*q class equals the discrete-log vector of
    the level-s class.  The two sides of (ii) come from disjoint pipelines
    (Hensel valuations vs. residue discrete logs).  Both classes come from
    kappa's memo when they were built before.
    """
    data = split_prime_data(q, params.conductor)
    k_s = kappa(E, params, s, seed)
    part_i = ideal_vector(k_s.kappa, params.M, data)
    k_sq = kappa(E, params, s * q, seed)
    lhs = ideal_vector(k_sq.kappa, params.M, data)
    rhs = ideal_dlog_vector(k_s.kappa, params.M, data)
    passed = part_i.is_zero() and lhs.entries == rhs.entries
    return FactorizationReport(
        params,
        s,
        q,
        part_i,
        lhs,
        rhs,
        passed,
        {
            "kappa_s": elt_to_strings(k_s.kappa),
            "kappa_sq": elt_to_strings(k_sq.kappa),
        },
    )


@dataclass
class ClassRelation:
    theta: AnnihilatorElt
    relation_holds: bool
    probes: dict[int, bool]


def class_relation(
    E: EulerSystem,
    law: FactorizationReport,
    seed: int = 0,
    probe_limit: int = 100,
) -> ClassRelation:
    """The annihilator-style relation read off the level-1 factorization law,
    `law` = check_factorization(E, params, 1, q, seed).

    The relation holds when part (ii) of the law holds, and theta is the
    group-ring form of the law's discrete-log vector of the level-1 class.
    The witness is the level-q class, whose ideal is then trivial mod M at
    every other probed split prime; it comes from kappa's memo when the law
    built it before.
    """
    if law.s != 1:
        raise DomainError("the class relation reads the level-1 factorization law")
    params, q = law.params, law.q
    theta = annihilator_from_dlogs(law.part_ii_dlogs, split_prime_data(q, params.conductor))
    k_q = kappa(E, params, q, seed)
    probes = {}
    for other in find_kolyvagin_primes(params, probe_limit):
        if other == q:
            continue
        probes[other] = ideal_vector(
            k_q.kappa, params.M, split_prime_data(other, params.conductor)
        ).is_zero()
    relation_holds = law.part_ii_valuations.entries == law.part_ii_dlogs.entries
    return ClassRelation(theta, relation_holds, probes)
