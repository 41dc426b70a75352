"""Degree-one prime machinery above a completely split prime q.

A Kolyvagin prime q is 1 mod m, so the m-th cyclotomic polynomial has the
full phi(m) simple roots mod q; each root c gives a degree-one prime
(q, zeta - c) of Q(zeta_m), and conjugate root pairs {c, 1/c} sit above one
prime of the real subfield F.  Valuations are computed upstairs by
evaluating integer numerators at Hensel-lifted roots modulo growing powers
of q; residues and discrete logs are computed mod q itself.

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
from .euler import EulerSystem, decompose_over_cyclotomic_units
from .exact_arith import (
    factorize,
    hensel_lift_root,
    int_dlog,
    int_padic_valuation,
    ip_eval,
    is_prime,
    least_primitive_root,
)
from .kolyvagin import Cocycle, KappaClass, KolyParams, find_kolyvagin_primes, kappa

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
    precision: int

    @property
    def prime_count(self) -> int:
        return len(self.pairs)


def split_prime_data(q: int, m: int, precision: int = 8) -> SplitPrimeData:
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
    return SplitPrimeData(q, m, tuple(roots), tuple(pairs), t, pow(t, -1, q), precision)


def _lifted_root(data: SplitPrimeData, root: int, k: int) -> int:
    return hensel_lift_root(get_field(data.m).poly, data.q, root, k).value


def valuation(x: CycloElt, root: int, data: SplitPrimeData) -> int:
    """Exact valuation of x at the degree-one prime (q, zeta - root).

    Clears the denominator, evaluates the integer numerator at the lifted
    root modulo q^k, and raises k until the answer is below the precision.
    """
    if x.field.m != data.m:
        raise DomainError("element lives in the wrong field")
    if x.is_zero():
        raise DomainError("valuation of zero is infinite")
    q = data.q
    v_den = int_padic_valuation(x.den, q)
    k = data.precision
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

    def __add__(self, other: "IdealVector") -> "IdealVector":
        if (self.q, self.M) != (other.q, other.M):
            raise DomainError("vectors over different primes")
        return IdealVector(
            self.q, self.M, tuple((a + b) % self.M for a, b in zip(self.entries, other.entries))
        )


def ideal_vector(x: CycloElt, M: int, data: SplitPrimeData) -> IdealVector:
    """Valuations of x modulo M at the primes of F above q.

    x must be conjugation-invariant; the two paired roots must then agree,
    which is asserted.
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

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)


def galois_classes(m: int) -> list[int]:
    """Representatives of Gal(F/Q) = (Z/m)^x / {+-1}, smallest member first."""
    field = get_field(m)
    return [a for a in field.unit_group if a <= m - a]


def _pair_index(data: SplitPrimeData, root: int) -> int:
    partner = pow(root, -1, data.q)
    key = (min(root, partner), max(root, partner))
    return data.pairs.index(key)


def annihilator_from_dlogs(
    w: CycloElt, M: int, data: SplitPrimeData, reference: int = 0
) -> AnnihilatorElt:
    """The unique group-ring element carrying the reference prime onto the
    discrete-log vector of w under the Galois action on primes above q.

    sigma_a sends the prime with root c to the prime with root c^(1/a), so
    the coefficient of the class of sigma_a reads the vector at that prime.
    """
    vec = ideal_dlog_vector(w, M, data)
    m = data.m
    c0 = data.pairs[reference][0]
    coeffs = []
    for a in galois_classes(m):
        a_inv = pow(a, -1, m)
        image_root = pow(c0, a_inv, data.q)
        coeffs.append((a, vec.entries[_pair_index(data, image_root)]))
    return AnnihilatorElt(m, M, tuple(coeffs), data.pairs[reference])


def apply_galois_to_annihilator(theta: AnnihilatorElt, b: int) -> AnnihilatorElt:
    """Left multiplication by the class of sigma_b."""
    m = theta.m
    mapping = dict(theta.coeffs)
    out = []
    for a in galois_classes(m):
        # coefficient of sigma_a in sigma_b * theta is the coefficient of
        # sigma_(a/b) in theta
        pre = a * pow(b, -1, m) % m
        pre = min(pre, m - pre)
        out.append((a, mapping[pre]))
    return AnnihilatorElt(m, theta.M, tuple(out), theta.reference_pair)


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
    class_sq: KappaClass | None = None


def check_factorization(
    E: EulerSystem,
    params: KolyParams,
    s: int,
    q: int,
    seed: int = 0,
    cocycle: Cocycle | None = None,
) -> FactorizationReport:
    """Both parts of the ideal-factorization law at q.

    Part (i): the class at level s has trivial projection at q.  Part (ii):
    the projection of the level s*q class equals the discrete-log vector of
    the level-s class.  The two sides of (ii) come from disjoint pipelines
    (Hensel valuations vs. residue discrete logs).  A certified cocycle for
    level s*q is handed to kappa, under kappa's contract, instead of being
    rebuilt; the level-s*q class is returned with the report.
    """
    data = split_prime_data(q, params.conductor)
    k_s = kappa(E, params, s, seed)
    part_i = ideal_vector(k_s.kappa, params.M, data)
    k_sq = kappa(E, params, s * q, seed, cocycle)
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
            "t": str(data.t),
            "gamma": str(data.gamma),
        },
        k_sq,
    )


@dataclass
class ClassRelation:
    theta: AnnihilatorElt
    witness_class: KappaClass
    relation_holds: bool
    probes: dict[int, bool]


def class_relation(
    E: EulerSystem,
    params: KolyParams,
    q: int,
    seed: int = 0,
    probe_limit: int = 100,
    witness: KappaClass | None = None,
) -> ClassRelation:
    """The annihilator-style relation extracted from the factorization law.

    theta is the group-ring form of the discrete-log vector of the level-1
    class; the witness is the level-q class, whose ideal agrees with that
    vector at q and is trivial mod M at every other probed split prime.  A
    level-q class already built by kappa for (params, q, seed) is reused
    instead of being recomputed.
    """
    if witness is not None and (
        witness.params != params or witness.s != q or witness.theta_seed != seed
    ):
        raise DomainError("class belongs to another configuration")
    data = split_prime_data(q, params.conductor)
    k_1 = kappa(E, params, 1, seed)
    theta = annihilator_from_dlogs(k_1.kappa, params.M, data)
    k_q = kappa(E, params, q, seed) if witness is None else witness
    lhs = ideal_vector(k_q.kappa, params.M, data)
    rhs = ideal_dlog_vector(k_1.kappa, params.M, data)
    probes = {}
    for other in find_kolyvagin_primes(params, probe_limit):
        if other == q:
            continue
        probes[other] = ideal_vector(
            k_q.kappa, params.M, split_prime_data(other, params.conductor)
        ).is_zero()
    return ClassRelation(theta, k_q, lhs.entries == rhs.entries, probes)


# ---------------------------------------------------------------------------
# M-th power membership
# ---------------------------------------------------------------------------


@dataclass
class MthPowerVerdict:
    is_power: bool | None  # None: neither proved nor refuted
    method: str
    detail: str = ""


def is_mth_power(
    v: CycloElt,
    params: KolyParams,
    probe_limit: int = 100,
    witness: CycloElt | None = None,
) -> MthPowerVerdict:
    """Membership test for (F^x)^M.

    Three stages: ideal vectors at a probing set of split primes must vanish
    mod M; a unit input is decided exactly by decomposing over the
    cyclotomic-unit generators; otherwise an explicit witness (an exact M-th
    root) decides.  Without a witness the non-unit case is probing-only: the
    verdict is unproved, is_power None.
    """
    M = params.M
    if v.is_zero():
        raise DomainError("zero is not in the unit group")
    for q in find_kolyvagin_primes(params, probe_limit):
        data = split_prime_data(q, params.conductor)
        if not ideal_vector(v, M, data).is_zero():
            return MthPowerVerdict(False, "probe", f"nonzero ideal vector at {q}")
    if witness is not None:
        if witness.field.m != v.field.m:
            raise DomainError("witness lives in the wrong field")
        if witness**M == v:
            return MthPowerVerdict(True, "witness", "exact M-th root supplied")
        return MthPowerVerdict(False, "witness", "claimed root fails exactly")
    try:
        decomp = decompose_over_cyclotomic_units(v, params.p, params.n)
    except DomainError:
        return MthPowerVerdict(None, "probing-only", "non-unit without witness")
    if all(e % M == 0 for e in decomp.exponents):
        # the only roots of unity of the real field are +-1, and -1 is an
        # M-th power for odd M
        return MthPowerVerdict(True, "unit-decomposition", "")
    return MthPowerVerdict(False, "unit-decomposition", "generator exponent not 0 mod M")
