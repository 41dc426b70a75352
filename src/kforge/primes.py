"""Degree-one prime machinery above a completely split prime q.

A Kolyvagin prime q is 1 mod m, so the m-th cyclotomic polynomial has the
full phi(m) simple roots mod q; each root c gives a degree-one prime
(q, zeta - c) of Q(zeta_m), and conjugate root pairs {c, 1/c} sit above one
prime of the real subfield F.  All of this local data comes from the least
primitive root t mod q: the roots are the powers of t^((q-1)/m) prime to m,
and the root above c mod q^k is its Teichmueller lift c^(q^(k-1)), since
m | q - 1.  Valuations are computed upstairs by evaluating integer numerators
at these lifts modulo growing powers of q; residues and discrete logs are
computed mod q itself.

check_factorization compares the two sides of the factorization law
[kappa(sq)]_q = lambda_q(kappa(s)) by these disjoint pipelines; the class
relation is that law at s = 1, read as a group-ring element, plus probes of
the law's kappa(q) at the other split primes.

The canonical generator gamma of the residue field is t^(-1) mod q, where t
is the least primitive root mod q: with the uniformizer 1 - eta_q one has
(1 - eta_q^t)/(1 - eta_q) = 1 + eta_q + ... = t at the ramified prime, so
the inertia generator sigma_q maps to t^(-1).  The same t drives the
cocycle machinery, which keeps the two pipelines convention-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InternalInconsistency
from .cyclotomic import CycloElt, galois_classes, get_field
from .euler import EulerSystem
from .exact_arith import (
    int_padic_valuation,
    ip_eval,
    is_prime,
    least_primitive_root,
)
from .kolyvagin import KolyParams, find_kolyvagin_primes, kappa

# the class relation probes the level-q class at the Kolyvagin primes up to this bound
_PROBE_LIMIT = 100


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
    """The roots of the m-th cyclotomic polynomial mod q, paired, as the
    primitive m-th powers of gen = t^((q-1)/m).  The checks prove these are
    all phi(m) roots of Phi_m mod q, each of order m, so for m >= 3 the pairs
    {c, 1/c} with c != 1/c are a perfect matching of them."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q % m != 1:
        raise DomainError("prime does not split completely")
    t = least_primitive_root(q)
    gen = pow(t, (q - 1) // m, q)
    roots = sorted(pow(gen, i, q) for i in range(1, m + 1) if math.gcd(i, m) == 1)
    field = get_field(m)
    if len(set(roots)) != field.phi:
        raise InternalInconsistency("root count does not match the field degree")
    if any(ip_eval(field.poly, c) % q for c in roots):
        raise InternalInconsistency("claimed roots do not satisfy the polynomial")
    pairs = sorted({tuple(sorted((c, pow(c, -1, q)))) for c in roots})
    return SplitPrimeData(q, m, tuple(roots), tuple(pairs), t, pow(t, -1, q))


def valuation(x: CycloElt, root: int, data: SplitPrimeData) -> int:
    """Exact valuation of x at the degree-one prime (q, zeta - root).

    Clears the denominator and evaluates the integer numerator num at the
    Teichmueller lift r of root modulo q^k for k = 1, 2, 4, ...; the first
    nonzero acc = num(r) mod q^k gives v_q(num(r_inf)) = v_q(acc) < k.  This
    is exact: num(r) = num(r_inf) mod q^k for the q-adic root r_inf above
    root.  It ends: num is a nonzero vector of length phi, and the minimal
    polynomial of r_inf is the irreducible Phi_m, so num(r_inf) != 0.
    """
    if x.field.m != data.m:
        raise DomainError("element lives in the wrong field")
    if x.is_zero():
        raise DomainError("valuation of zero is infinite")
    if root not in data.roots:
        raise DomainError(f"{root} is not a root of the cyclotomic polynomial mod {data.q}")
    q = data.q
    k = 1
    while True:
        mod = q**k
        r = pow(root, q ** (k - 1), mod)
        if ip_eval(x.field.poly, r) % mod:
            raise InternalInconsistency("Teichmueller lift is not a root modulo q^k")
        acc = ip_eval(x.num, r) % mod
        if acc:
            return int_padic_valuation(acc, q) - int_padic_valuation(x.den, q)
        k *= 2


def ideal_vector(x: CycloElt, M: int, data: SplitPrimeData) -> tuple[int, ...]:
    """Valuations of x modulo M at the primes of F above q, in the order of
    data.pairs: an element of I_q / M I_q.

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
    return tuple(entries)


def ideal_dlog_vector(w: CycloElt, M: int, data: SplitPrimeData) -> tuple[int, ...]:
    """The discrete-log map into I_q / M I_q: reduce w at each prime and take
    the exponent of the residue r with respect to gamma = t^(-1), mod M.  As
    gamma generates (Z/q)^x and q = 1 mod M, that is the one j < M with
    r^((q-1)/M) = gamma^(j(q-1)/M).  The residue at c is num(c) / den mod q:
    one test refuses q | den or a zero at either root of a pair, and the
    paired residues share den, so they agree exactly when the numerators do."""
    if w.field.m != data.m:
        raise DomainError("element lives in the wrong field")
    q = data.q
    if (q - 1) % M:
        raise DomainError(f"{q} is not 1 mod {M}")
    dlogs = {pow(data.gamma, j * (q - 1) // M, q): j for j in range(M)}
    entries = []
    for c1, c2 in data.pairs:
        r1 = ip_eval(w.num, c1) % q
        r2 = ip_eval(w.num, c2) % q
        if w.den * r1 * r2 % q == 0:
            raise DomainError("not prime to q")
        if r1 != r2:
            raise InternalInconsistency("paired-root residues disagree")
        entries.append(dlogs[pow(r1 * pow(w.den, -1, q), (q - 1) // M, q)])
    return tuple(entries)


# ---------------------------------------------------------------------------
# the group-ring form and the annihilator relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorElt:
    """Element of (Z/M)[Gal(F/Q)]; keys are the class representatives
    a <= m/2 of {a, m-a}, together with the reference prime's root pair."""

    coeffs: tuple[tuple[int, int], ...]
    reference_pair: tuple[int, int]


def annihilator_from_dlogs(vec: tuple[int, ...], data: SplitPrimeData) -> AnnihilatorElt:
    """The unique group-ring element carrying the reference prime, the first
    of data.pairs, onto the discrete-log vector vec under the Galois action
    on primes above q.

    sigma_a sends the prime with root c to the prime with root c^(1/a), so
    the coefficient of the class of sigma_a reads the vector at that prime.
    """
    m = data.m
    c0 = data.pairs[0][0]
    pair_of = {c: i for i, pair in enumerate(data.pairs) for c in pair}
    coeffs = tuple((a, vec[pair_of[pow(c0, pow(a, -1, m), data.q)]]) for a in galois_classes(m))
    return AnnihilatorElt(coeffs, data.pairs[0])


# ---------------------------------------------------------------------------
# factorization of the Kolyvagin class, and the class-group relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationReport:
    params: KolyParams
    s: int
    q: int
    part_i_vector: tuple[int, ...]
    part_ii_valuations: tuple[int, ...]
    part_ii_dlogs: tuple[int, ...]
    passed: bool
    kappa_s: CycloElt
    kappa_sq: CycloElt


def check_factorization(
    E: EulerSystem, params: KolyParams, s: int, q: int, seed: int = 0
) -> FactorizationReport:
    """Both parts of the ideal-factorization law at q.

    Part (i): the class at level s has trivial projection at q.  Part (ii):
    the projection of the level s*q class equals the discrete-log vector of
    the level-s class.  The two sides of (ii) come from disjoint pipelines
    (valuations at Teichmueller lifts vs. residue discrete logs).  Both
    classes come from kappa's memo when they were built before.
    """
    data = split_prime_data(q, params.conductor)
    k_s = kappa(E, params, s, seed)
    part_i = ideal_vector(k_s.kappa, params.M, data)
    k_sq = kappa(E, params, s * q, seed)
    lhs = ideal_vector(k_sq.kappa, params.M, data)
    rhs = ideal_dlog_vector(k_s.kappa, params.M, data)
    passed = not any(part_i) and lhs == rhs
    return FactorizationReport(params, s, q, part_i, lhs, rhs, passed, k_s.kappa, k_sq.kappa)


@dataclass(frozen=True)
class ClassRelation:
    theta: AnnihilatorElt
    relation_holds: bool
    probes: dict[int, bool]


def class_relation(law: FactorizationReport) -> ClassRelation:
    """The annihilator-style relation read off the level-1 factorization law,
    `law` = check_factorization(E, params, 1, q, seed).

    The relation holds when part (ii) of the law holds, and theta is the
    group-ring form of the law's discrete-log vector of the level-1 class.
    The witness is the law's level-q class kappa_sq, whose ideal is then
    trivial mod M at every other Kolyvagin prime up to _PROBE_LIMIT.
    """
    if law.s != 1:
        raise DomainError("the class relation reads the level-1 factorization law")
    params, q = law.params, law.q
    theta = annihilator_from_dlogs(law.part_ii_dlogs, split_prime_data(q, params.conductor))
    probes = {
        other: not any(ideal_vector(law.kappa_sq, params.M, split_prime_data(other, params.conductor)))
        for other in find_kolyvagin_primes(params, _PROBE_LIMIT)
        if other != q
    }
    return ClassRelation(theta, law.part_ii_valuations == law.part_ii_dlogs, probes)
