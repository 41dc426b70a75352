"""Group-ring operators, certificates, a field inverse and a minimal
polynomial that only the tests use.

The formal operators check the telescoping identity (sigma_q - 1) D_q =
(q - 1) - N_q in the group ring, and apply_group_ring evaluates an operator
on a field element term by term, as an independent reference for the
suffix-product derivative.  apply_norm is the plain cyclic norm,
ratio_mth_power_witness exhibits the representative ambiguity of a class, and
apply_galois_to_annihilator moves an annihilator by a Galois element.
zeta builds a root of unity as a field element, and inverse is the
reference field inverse: kforge itself forms none.  relative_norm is the
reference norm to a subfield, the product of the conjugates that fix it:
kforge reads N(x) off its minimal polynomial instead.
minimal_polynomial is the reference for kforge's: it expands prod (T - y)
over the Galois orbit with field elements as coefficients.
twisted_value_reference is the reference for a twisted system value: the
product over the twist's translates, formed in the wider field and solved
back down.
cyclotomic_oracle is the tests' only copy of the coefficients of Phi_m, built
by schoolbook products and one long division, apart from kforge's binomial
passes; ip_mul is the schoolbook product it uses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from kforge.cyclotomic import (
    CycloElt,
    CycloField,
    GaloisElt,
    RootOfUnity,
    divide_into_subfield,
    embed_up,
    galois_apply,
    galois_classes,
    get_field,
    product,
)
from kforge.errors import DomainError, InternalInconsistency
from kforge.euler import EulerSystem, phi_eval
from kforge.exact_arith import factorize, is_prime
from kforge.kolyvagin import KappaClass, lifted_sigma
from kforge.primes import AnnihilatorElt


@dataclass(frozen=True)
class GroupRingOp:
    """Integer combination of elements of a product of cyclic groups.

    gens lists (q, order) per generator sigma_q; terms maps exponent tuples
    (reduced mod the orders) to integer coefficients.
    """

    gens: tuple[tuple[int, int], ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def make(gens, mapping) -> "GroupRingOp":
        gens = tuple(gens)
        orders = [o for _, o in gens]
        acc: dict[tuple[int, ...], int] = {}
        for exps, coeff in mapping.items():
            key = tuple(e % o for e, o in zip(exps, orders))
            acc[key] = acc.get(key, 0) + coeff
        items = tuple(sorted((k, v) for k, v in acc.items() if v))
        return GroupRingOp(gens, items)

    @staticmethod
    def constant(gens, c: int) -> "GroupRingOp":
        zero = tuple(0 for _ in gens)
        return GroupRingOp.make(gens, {zero: c})

    @staticmethod
    def sigma(gens, index: int, power: int = 1) -> "GroupRingOp":
        exps = [0] * len(gens)
        exps[index] = power
        return GroupRingOp.make(gens, {tuple(exps): 1})

    def _check_compatible(self, other: "GroupRingOp") -> None:
        if self.gens != other.gens:
            raise DomainError("operators over different groups")

    def __add__(self, other: "GroupRingOp") -> "GroupRingOp":
        self._check_compatible(other)
        acc = dict(self.terms)
        for k, v in other.terms:
            acc[k] = acc.get(k, 0) + v
        return GroupRingOp.make(self.gens, acc)

    def __sub__(self, other: "GroupRingOp") -> "GroupRingOp":
        return self + other.scale(-1)

    def scale(self, c: int) -> "GroupRingOp":
        return GroupRingOp.make(self.gens, {k: v * c for k, v in self.terms})

    def __mul__(self, other: "GroupRingOp") -> "GroupRingOp":
        self._check_compatible(other)
        orders = [o for _, o in self.gens]
        acc: dict[tuple[int, ...], int] = {}
        for k1, v1 in self.terms:
            for k2, v2 in other.terms:
                key = tuple((a + b) % o for a, b, o in zip(k1, k2, orders))
                acc[key] = acc.get(key, 0) + v1 * v2
        return GroupRingOp.make(self.gens, acc)

    def inflate(self, gens_full) -> "GroupRingOp":
        """View the operator inside a larger product of cyclic groups."""
        gens_full = tuple(gens_full)
        positions = []
        for q, o in self.gens:
            positions.append(gens_full.index((q, o)))
        acc = {}
        for k, v in self.terms:
            exps = [0] * len(gens_full)
            for pos, e in zip(positions, k):
                exps[pos] = e
            acc[tuple(exps)] = v
        return GroupRingOp.make(gens_full, acc)


def build_operators(q: int) -> tuple[GroupRingOp, GroupRingOp]:
    """The norm and derivative operators attached to sigma_q of order q-1."""
    if not is_prime(q) or q < 3:
        raise DomainError("q must be an odd prime")
    gens = ((q, q - 1),)
    norm_op = GroupRingOp.make(gens, {(i,): 1 for i in range(q - 1)})
    deriv_op = GroupRingOp.make(gens, {(i,): i for i in range(1, q - 1)})
    return norm_op, deriv_op


def operator_identity_holds(q: int) -> bool:
    """(sigma_q - 1) D_q == (q - 1) - N_q as formal group-ring equality."""
    norm_op, deriv_op = build_operators(q)
    gens = norm_op.gens
    sigma = GroupRingOp.sigma(gens, 0)
    one = GroupRingOp.constant(gens, 1)
    lhs = (sigma - one) * deriv_op
    rhs = GroupRingOp.constant(gens, q - 1) - norm_op
    return lhs == rhs


def ip_trim(coeffs):
    """An integer polynomial without its trailing zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ip_mul(a, b):
    """Schoolbook product of integer polynomials."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ip_trim(out)


def ip_divmod_monic(a, b):
    """Division by a monic integer polynomial, staying in Z[x]; the oracle's
    exact quotient."""
    if not b or b[-1] != 1:
        raise DomainError("divisor must be monic")
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1]
        if c:
            shift = len(rem) - len(b)
            quo[shift] = c
            for j, cb in enumerate(b):
                rem[shift + j] -= c * cb
        rem.pop()
    return ip_trim(quo), ip_trim(rem)


def mobius(n):
    out = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        out = -out
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_oracle(m):
    """Phi_m, lowest degree first: prod over d | m of (x^(m/d) - 1)^mu(d)."""
    num = (1,)
    den = (1,)
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = mobius(d)
        f = tuple([-1] + [0] * (m // d - 1) + [1])
        if mu == 1:
            num = ip_mul(num, f)
        elif mu == -1:
            den = ip_mul(den, f)
    quo, rem = ip_divmod_monic(num, den)
    if rem:
        raise InternalInconsistency("the Mobius quotient is not exact")
    return quo


def zeta(field: CycloField, e: int) -> CycloElt:
    """zeta_m^e as an element of field = Q(zeta_m)."""
    return field.from_terms((e,), (1,))


def inverse(x: CycloElt) -> CycloElt:
    """Exact inverse of a nonzero x: the product of its other conjugates
    divided by the norm N(x), a nonzero rational since Phi_m is irreducible."""
    if x.is_zero():
        raise DomainError("division by zero")
    field = x.field
    others = [galois_apply(GaloisElt(field, a), x) for a in field.unit_group if a != 1]
    cofactor = product(others) if others else field.one
    norm = x * cofactor
    if not norm.is_rational():
        raise InternalInconsistency("norm failed to land in Q")
    return cofactor * field.from_rational(1 / norm.as_rational())


def relative_norm(x: CycloElt, m_small: int) -> CycloElt:
    """Norm of x from Q(zeta_m) down to Q(zeta_m_small), for a subconductor
    m_small of m: the product of sigma_a(x) over the units a = 1 mod m_small,
    which are the automorphisms fixing Q(zeta_m_small).

    The result lies in Q(zeta_m_small) and is returned inside Q(zeta_m);
    m_small = 1 gives the absolute norm and m_small = m gives x.
    """
    field = x.field
    if m_small < 1 or field.m % m_small != 0:
        raise DomainError(f"{m_small} is not a subconductor of {field.m}")
    return product(
        galois_apply(GaloisElt(field, a), x) for a in field.unit_group if a % m_small == 1 % m_small
    )


def minimal_polynomial(x: CycloElt):
    """Monic minimal polynomial of x over Q, low degree first, by about d^2
    field products for an orbit of d elements."""
    field = x.field
    orbit = dict.fromkeys(galois_apply(GaloisElt(field, a), x) for a in field.unit_group)
    coeffs = [field.one]
    for y in orbit:
        new = [field.from_rational(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * y
        coeffs = new
    if not all(c.is_rational() for c in coeffs):
        raise InternalInconsistency("minimal polynomial has irrational coefficient")
    return tuple(c.as_rational() for c in coeffs)


def apply_group_ring(op: GroupRingOp, x: CycloElt) -> CycloElt:
    """Evaluate a formal operator on a field element, multiplicatively."""
    field = x.field
    x_inv = None
    result = field.one
    for exps, coeff in op.terms:
        sigma_a = 1
        for (q, _), e in zip(op.gens, exps):
            sigma_a = sigma_a * pow(lifted_sigma(field, q).a, e, field.m) % field.m
        moved = galois_apply(GaloisElt(field, sigma_a), x)
        if coeff >= 0:
            result = result * moved**coeff
        else:
            if x_inv is None:
                x_inv = inverse(x)
            moved_inv = galois_apply(GaloisElt(field, sigma_a), x_inv)
            result = result * moved_inv ** (-coeff)
    return result


def apply_norm(x: CycloElt, q: int) -> CycloElt:
    """N_q x: the product over the full cyclic group of sigma_q."""
    field = x.field
    sigma = lifted_sigma(field, q)
    acc = field.one
    cur = x
    for _ in range(q - 1):
        acc = acc * cur
        cur = galois_apply(sigma, cur)
    return acc


def ratio_mth_power_witness(ka: KappaClass, kb: KappaClass, M: int) -> CycloElt:
    """Exact w in F with ka.kappa = kb.kappa * w^M, from the beta ratio.

    Verifies the representative ambiguity: two seeds change the class by an
    M-th power of a field element.  A class of conductor m at level s has
    kappa in Q(zeta_m) and beta in Q(zeta_(m s)), so two classes of one
    configuration share both fields.
    """
    m = ka.kappa.field.m
    if (kb.kappa.field.m, kb.beta.field.m) != (m, ka.beta.field.m):
        raise DomainError("classes from different configurations")
    if ka.beta.field.m == m:  # level 1, where beta = 1
        return get_field(m).one
    w = divide_into_subfield(kb.beta, ka.beta, m)
    if kb.kappa * w**M != ka.kappa:
        raise InternalInconsistency("beta ratio does not witness the class ambiguity")
    return w


def twisted_value_reference(E: EulerSystem, eta: RootOfUnity) -> CycloElt:
    """The value at eta as the product of the base values at (eta*xi^b)^n
    for every b prime to the twist order h, n the composition power, each
    lifted into Q(zeta_lcm(ord eta, h)), multiplied there and brought down
    to Q(zeta_ord(eta)) by a subfield solve, which refuses a product outside
    it."""
    h, n = E.twist.order, E.compose_n or 1
    N = math.lcm(eta.order, h)
    base = EulerSystem(E.base)
    translates = (eta.times(E.twist**b) ** n for b in range(1, h + 1) if math.gcd(b, h) == 1)
    value = product(embed_up(phi_eval(base, t), N) for t in translates)
    return divide_into_subfield(value, value.field.one, eta.order)


def apply_galois_to_annihilator(theta: AnnihilatorElt, b: int, m: int) -> AnnihilatorElt:
    """Left multiplication by the class of sigma_b in Gal(F/Q), F of conductor m."""
    mapping = dict(theta.coeffs)
    out = []
    for a in galois_classes(m):
        # coefficient of sigma_a in sigma_b * theta is the coefficient of
        # sigma_(a/b) in theta
        pre = a * pow(b, -1, m) % m
        pre = min(pre, m - pre)
        out.append((a, mapping[pre]))
    return AnnihilatorElt(tuple(out), theta.reference_pair)
