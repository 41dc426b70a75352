"""Degree-one prime machinery above a completely split prime q.

A Kolyvagin prime q is 1 mod m, so the m-th cyclotomic polynomial has
phi(m) simple roots mod q; each root c gives a degree-one prime
(q, zeta - c) of Q(zeta_m), and conjugate root pairs {c, 1/c} sit above one
prime of the real subfield F.  Valuations are computed upstairs by
evaluating integer numerators at lifts of the roots modulo growing powers
of q; residues and discrete logs are computed mod q itself.  Each local
fact rests on one of two proofs the program runs anyway, and is not
checked again:

* least_primitive_root proves t of order q - 1, so gen = t^((q-1)/m) has
  order m and its powers prime to m are the phi(m) roots of Phi_m mod q.
  The root of Phi_m mod q^k above c is the Teichmueller lift c^(q^(k-1)):
  it is c mod q (Fermat), and c^m = 1 mod q gives c^(m q^(k-1)) = 1 mod
  q^k, so it is the one (Hensel) lift of the simple root c of x^m - 1.
* kappa proves every class representative real.  Complex conjugation swaps
  the primes above c and 1/c and fixes a real element, so its valuations
  and residues agree at the two roots of a pair: the first root reads both.

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

from dataclasses import dataclass

from .errors import DomainError
from .cyclotomic import CycloElt, galois_classes, get_field
from .euler import EulerSystem
from .exact_arith import int_dlog, int_padic_valuation, ip_eval, least_primitive_root
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
    primitive m-th powers of gen = t^((q-1)/m).  least_primitive_root
    refuses a composite q and proves t primitive, so these are all phi(m)
    roots, each of order m, and for m >= 3 the pairs {c, 1/c} with
    c != 1/c are a perfect matching of them."""
    t = least_primitive_root(q)
    if q % m != 1:
        raise DomainError("prime does not split completely")
    gen = pow(t, (q - 1) // m, q)
    roots = sorted(pow(gen, i, q) for i in get_field(m).unit_group)
    pairs = sorted({tuple(sorted((c, pow(c, -1, q)))) for c in roots})
    return SplitPrimeData(q, m, tuple(roots), tuple(pairs), t, pow(t, -1, q))


def valuation(x: CycloElt, root: int, data: SplitPrimeData) -> int:
    """Exact valuation of x at the degree-one prime (q, zeta - root).

    Clears the denominator and evaluates the integer numerator num at the
    Teichmueller lift r of root modulo q^k for k = 1, 2, 4, ...; the first
    nonzero acc = num(r) mod q^k gives v_q(num(r_inf)) = v_q(acc) < k.  This
    is exact: num(r) = num(r_inf) mod q^k for the q-adic root r_inf above
    root.  It ends: num is a nonzero vector of length phi, and the minimal
    polynomial of r_inf is the irreducible Phi_m, so num(r_inf) != 0.  That
    r is a root mod q^k rests on least_primitive_root (module docstring).
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
        acc = ip_eval(x.num, pow(root, q ** (k - 1), mod)) % mod
        if acc:
            return int_padic_valuation(acc, q) - int_padic_valuation(x.den, q)
        k *= 2


def ideal_vector(x: CycloElt, M: int, data: SplitPrimeData) -> tuple[int, ...]:
    """Valuations of x modulo M at the primes of F above q, in the order of
    data.pairs: an element of I_q / M I_q.

    x must be real, as kappa proves each class representative: then the
    first root of each pair reads the valuation at its prime of F.
    """
    return tuple(valuation(x, c, data) % M for c, _ in data.pairs)


def ideal_dlog_vector(w: CycloElt, M: int, data: SplitPrimeData) -> tuple[int, ...]:
    """The discrete-log map into I_q / M I_q: reduce w at each prime and take
    the exponent of the residue r with respect to gamma = t^(-1), mod M.  As
    gamma generates (Z/q)^x and q = 1 mod M, that is the one j < M with
    r^((q-1)/M) = g^j for g = gamma^((q-1)/M) of order M, read by int_dlog.
    The residue at c is num(c) / den mod q, refused when it is 0 or
    undefined.  w must be real, as kappa proves each class representative:
    then the first root of each pair reads the residue at its prime of F."""
    if w.field.m != data.m:
        raise DomainError("element lives in the wrong field")
    q = data.q
    if (q - 1) % M:
        raise DomainError(f"{q} is not 1 mod {M}")
    e = (q - 1) // M
    g = pow(data.gamma, e, q)
    entries = []
    for c, _ in data.pairs:
        r = ip_eval(w.num, c) % q
        if w.den * r % q == 0:
            raise DomainError("not prime to q")
        entries.append(int_dlog(g, pow(r * pow(w.den, -1, q), e, q), q))
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
    data: SplitPrimeData
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
    return FactorizationReport(params, s, data, part_i, lhs, rhs, passed, k_s.kappa, k_sq.kappa)


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
    params = law.params
    theta = annihilator_from_dlogs(law.part_ii_dlogs, law.data)
    probes = {
        other: not any(ideal_vector(law.kappa_sq, params.M, split_prime_data(other, params.conductor)))
        for other in find_kolyvagin_primes(params, _PROBE_LIMIT)
        if other != law.data.q
    }
    return ClassRelation(theta, law.part_ii_valuations == law.part_ii_dlogs, probes)
