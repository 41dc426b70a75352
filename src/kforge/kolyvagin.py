"""Derivative operators and Kolyvagin classes.

Fix an odd prime p, a level n >= 0 and a power M of p, and write m = p^(n+1)
and F for the real subfield of Q(zeta_m).  A Kolyvagin prime is a rational
prime q that splits completely in F and is 1 mod M; for squarefree products
s of such primes everything happens inside the ambient field Q(zeta_{m*s}).

The group G(s) acts through the lifted automorphisms sigma_q sending the
q-part of the root of unity to its t_q-th power (t_q the least primitive
root mod q) and fixing the rest.  Because every q splits completely in F,
its Frobenius restricted to F is the identity; that collapse turns the
telescoping identity

    (sigma_q - 1) D_s phi = (q-1) D_{s/q} phi(level s) / (Frob_q - 1) D_{s/q} phi(level s/q)

into an explicit M-th root, so roots are never extracted numerically.  Every
closed form carries a certificate (the M-th power identity, re-verified by
exact multiplication) and a cyclic-norm triviality check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError, DomainError, InternalInconsistency
from .cyclotomic import (
    CycloElt,
    CycloField,
    GaloisElt,
    RootOfUnity,
    conjugate,
    divide_into_subfield,
    elt_inverse,
    embed_up,
    galois_apply,
    get_field,
    is_in_real_subfield,
)
from .euler import EulerSystem, phi_eval, phi_eval_inverse
from .exact_arith import (
    crt_pair,
    factorize,
    int_dlog,
    is_prime,
    least_primitive_root,
    primes_upto,
)


@dataclass(frozen=True)
class KolyParams:
    """The (p, n, M) configuration; conductor m = p^(n+1)."""

    p: int
    n: int
    M: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ConfigError("p must be an odd prime")
        if self.n < 0:
            raise ConfigError("level must be nonnegative")
        facs = factorize(self.M)
        if list(facs) != [self.p] or self.M < self.p:
            raise ConfigError("M must be a positive power of p")

    @property
    def conductor(self) -> int:
        return self.p ** (self.n + 1)

    def validate_system(self, E: EulerSystem) -> None:
        if self.p in E.effective_excluded:
            raise ConfigError(f"p = {self.p} is excluded by the system")


def find_kolyvagin_primes(params: KolyParams, limit: int) -> list[int]:
    """All primes q <= limit with q = 1 mod M that split completely in F.

    Splitting completely in F means q = +-1 mod p^(n+1); combined with
    q = 1 mod M the minus branch is impossible, so the search reduces to a
    single congruence.  The root-counting cross-check lives in the prime
    machinery (full root count is asserted when split data is built).
    """
    if limit < 2:
        return []
    modulus = math.lcm(params.M, params.conductor)
    return [q for q in primes_upto(limit) if q % modulus == 1]


def is_kolyvagin_prime(params: KolyParams, q: int) -> bool:
    return is_prime(q) and q % math.lcm(params.M, params.conductor) == 1


# ---------------------------------------------------------------------------
# formal group-ring operators
# ---------------------------------------------------------------------------


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


def lifted_sigma(field: CycloField, q: int, power: int = 1) -> GaloisElt:
    """sigma_q^power on Q(zeta_N): t_q^power on the q-part, identity elsewhere."""
    N = field.m
    if N % q != 0 or N % (q * q) == 0:
        raise DomainError("conductor must contain q exactly once")
    t = least_primitive_root(q)
    a = crt_pair(pow(t, power % (q - 1), q), q, 1, N // q)
    return GaloisElt(field, a)


def apply_group_ring(op: GroupRingOp, x: CycloElt) -> CycloElt:
    """Evaluate a formal operator on a field element, multiplicatively."""
    field = x.field
    x_inv = None
    result = field.one
    for exps, coeff in op.terms:
        sigma_a = 1
        for (q, _), e in zip(op.gens, exps):
            sigma_a = sigma_a * lifted_sigma(field, q, e).a % field.m
        moved = galois_apply(GaloisElt(field, sigma_a), x)
        if coeff >= 0:
            result = result * moved**coeff
        else:
            if x_inv is None:
                x_inv = elt_inverse(x)
            moved_inv = galois_apply(GaloisElt(field, sigma_a), x_inv)
            result = result * moved_inv ** (-coeff)
    return result


def apply_derivative(x: CycloElt, q: int) -> CycloElt:
    """D_q x via suffix products: prod_i sigma^i(x)^i with 2(q-2) multiplies."""
    field = x.field
    sigma = lifted_sigma(field, q)
    conj = [x]
    for _ in range(q - 2):
        conj.append(galois_apply(sigma, conj[-1]))
    acc = field.one
    tail = field.one
    for i in range(q - 2, 0, -1):
        tail = tail * conj[i]
        acc = acc * tail
    return acc


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


# ---------------------------------------------------------------------------
# cocycles and their closed forms
# ---------------------------------------------------------------------------


def level_root(params: KolyParams, s: int) -> RootOfUnity:
    """The canonical argument zeta_m * prod eta_q inside Q(zeta_{m*s})."""
    N = params.conductor * s
    e = N // params.conductor
    for q in factorize(s):
        e += N // q
    return RootOfUnity(N, e % N)


@dataclass
class Cocycle:
    """Values c_sigma with c_sigma^M = (sigma - 1) D_s phi, one per generator,
    together with the exactly verified certificate."""

    params: KolyParams
    s: int
    field: CycloField
    values: dict[int, CycloElt]
    inv_values: dict[int, CycloElt]
    dsphi: CycloElt
    certified: bool
    norm_trivial: bool
    frobenius_exponents: dict[int, int] = dc_field(default_factory=dict)


def _certify(coc: Cocycle) -> None:
    """Re-verify c^M * D_s phi = sigma(D_s phi) and cyclic-norm triviality."""
    M = coc.params.M
    coc.certified = True
    coc.norm_trivial = True
    one = coc.field.one
    for q, c in coc.values.items():
        sigma = lifted_sigma(coc.field, q)
        if c**M * coc.dsphi != galois_apply(sigma, coc.dsphi):
            coc.certified = False
        if c * coc.inv_values[q] != one:
            coc.certified = False
        acc = one
        cur = c
        for _ in range(q - 1):
            acc = acc * cur
            cur = galois_apply(sigma, cur)
        if acc != one:
            coc.norm_trivial = False


def cocycle_closed_form(E: EulerSystem, params: KolyParams, s: int) -> Cocycle:
    """Symbolic M-th roots of (sigma_q - 1) D_s phi for every generator.

    Level s = q: the Frobenius term is trivial (q splits completely), so the
    root is phi(level q)^((q-1)/M).  Level s = q*r: the Frobenius of q acts
    on the level-r group as sigma_r^e with t_r^e = q mod r, contributing the
    first e conjugates of the level-r closed form.
    """
    params.validate_system(E)
    qs = sorted(factorize(s))
    if any(v > 1 for v in factorize(s).values()):
        raise DomainError("s must be squarefree")
    for q in qs:
        if not is_kolyvagin_prime(params, q):
            raise DomainError(f"{q} is not a Kolyvagin prime for {params}")
    if len(qs) > 2:
        raise DomainError("instance too large")
    if not qs:
        raise DomainError("s must be a nontrivial product of Kolyvagin primes")
    N = params.conductor * s
    field = get_field(N)
    M = params.M
    root = level_root(params, s)
    x = phi_eval(E, root)
    x_inv = phi_eval_inverse(E, root)

    values: dict[int, CycloElt] = {}
    inv_values: dict[int, CycloElt] = {}
    frob_exps: dict[int, int] = {}
    if len(qs) == 1:
        q = qs[0]
        e = (q - 1) // M
        values[q] = x**e
        inv_values[q] = x_inv**e
        dsphi = apply_derivative(x, q)
    else:
        d_x = {r: apply_derivative(x, r) for r in qs}
        dsphi = apply_derivative(d_x[qs[0]], qs[1])
        for q in qs:
            r = s // q
            sub = cocycle_closed_form(E, params, r)
            t_r = least_primitive_root(r)
            e_frob = int_dlog(t_r, q, r)
            frob_exps[q] = e_frob
            d_r_x = d_x[r]
            d_r_x_inv = apply_derivative(x_inv, r)
            sub_c = embed_up(sub.values[r], N)
            sub_c_inv = embed_up(sub.inv_values[r], N)
            sigma_r = lifted_sigma(field, r)
            corr = field.one
            corr_inv = field.one
            cur, cur_inv = sub_c, sub_c_inv
            for _ in range(e_frob):
                corr = corr * cur
                corr_inv = corr_inv * cur_inv
                cur = galois_apply(sigma_r, cur)
                cur_inv = galois_apply(sigma_r, cur_inv)
            exp = (q - 1) // M
            values[q] = d_r_x**exp * corr_inv
            inv_values[q] = d_r_x_inv**exp * corr
    coc = Cocycle(params, s, field, values, inv_values, dsphi, False, False, frob_exps)
    _certify(coc)
    if not coc.certified:
        raise InternalInconsistency("cocycle certificate failed")
    return coc


# ---------------------------------------------------------------------------
# constructive Hilbert 90 and the class itself
# ---------------------------------------------------------------------------


def _generator_chain(a: CycloElt, sigma: GaloisElt, order: int) -> list[CycloElt]:
    """[a_{sigma^e} for e < order] from a = a_sigma by a_{sigma^(e+1)} =
    a_{sigma^e} * sigma^e(a), after checking the norm a_{sigma^order} is 1."""
    one = a.field.one
    chain = [one, a]
    moved = a
    while len(chain) <= order:
        moved = galois_apply(sigma, moved)
        chain.append(chain[-1] * moved)
    if chain.pop() != one:
        raise InternalInconsistency("cocycle norm condition failed")
    return chain


def _resolvent_factor(y: CycloElt, chain: list[CycloElt], sigma: GaloisElt) -> CycloElt:
    """R(y) = sum_e a_{sigma^e} sigma^e(y); the e = 0 term is y itself."""
    total = moved = y
    for a in chain[1:]:
        moved = galois_apply(sigma, moved)
        total = total + a * moved
    return total


def _sample_theta(field: CycloField, rng: random.Random) -> CycloElt:
    """Conjugation-invariant element with small coefficients drawn from the
    seeded generator: c_0 + sum c_k (zeta^k + zeta^(-k))."""
    theta = field.from_rational(rng.randint(-3, 3))
    for k in range(1, field.phi // 2 + 1):
        c = rng.randint(-3, 3)
        if c:
            theta = theta + (field.root(k) + field.root(-k)).scale(c)
    return theta


def hilbert90_beta(coc: Cocycle, seed: int) -> CycloElt:
    """An element beta with sigma(beta) = c_sigma * beta for every generator,
    by the averaging resolvent beta = sum_tau a_tau tau(theta) over G(s).

    The resolvent solves beta^(1-sigma) = a_sigma; taking a_sigma to be the
    inverse of the cocycle value yields the wanted direction.  G(s) is the
    product of the cyclic groups generated by sigma_q for q_1 < ... < q_k,
    and the cocycle rule a_{sigma tau} = a_sigma * sigma(a_tau) writes
    a_tau for tau = sigma_1^e_1 ... sigma_k^e_k as
    a_{sigma_1^e_1} * sigma_1^e_1(a_{sigma_2^e_2}) * ..., so the sum
    factors one cyclic group at a time:

        beta = R_1(R_2(... R_k(theta))),  R_q(y) = sum_e a_{sigma_q^e} sigma_q^e(y),

    sum (q - 1) products in place of prod (q - 1).  It is the same element
    as the sum over G(s), not merely another solution.  The chains
    a_{sigma_q^e} are checked against the norm condition and the generator
    pairs against a_1 sigma_1(a_2) = a_2 sigma_2(a_1) before any sum is
    formed.  theta is drawn deterministically from the seed and resampled
    while beta vanishes.
    """
    field = coc.field
    qs = sorted(coc.values)
    sigmas = {q: lifted_sigma(field, q) for q in qs}
    chains = {q: _generator_chain(coc.inv_values[q], sigmas[q], q - 1) for q in qs}
    for i, q1 in enumerate(qs):
        for q2 in qs[i + 1 :]:
            a1, a2 = coc.inv_values[q1], coc.inv_values[q2]
            if a1 * galois_apply(sigmas[q1], a2) != a2 * galois_apply(sigmas[q2], a1):
                raise InternalInconsistency("cocycle extension is inconsistent")
    rng = random.Random(seed)
    for _ in range(32):
        beta = _sample_theta(field, rng)
        for q in reversed(qs):
            beta = _resolvent_factor(beta, chains[q], sigmas[q])
        if beta.is_zero():
            continue
        for q, c in coc.values.items():
            if galois_apply(sigmas[q], beta) != c * beta:
                raise InternalInconsistency("resolvent does not satisfy the relation")
        if conjugate(beta) != beta:
            raise InternalInconsistency("resolvent left the real subfield")
        return beta
    raise DomainError("resolvent exhausted")


@dataclass
class KappaClass:
    """A representative of the class D_s phi / beta^M together with the data
    needed to re-verify it (beta, the cocycle certificate, the seed)."""

    params: KolyParams
    s: int
    kappa: CycloElt
    beta: CycloElt
    theta_seed: int
    cocycle: Cocycle | None = None


def kappa(
    E: EulerSystem, params: KolyParams, s: int, seed: int = 0, cocycle: Cocycle | None = None
) -> KappaClass:
    """The Kolyvagin class at level s, certified exactly.

    kappa is recovered inside Q(zeta_m) by solving kappa * beta^M = D_s phi
    linearly over the embedded power basis (so the huge beta is never
    inverted) and the identity is then re-verified by one multiplication.
    A cocycle already built by cocycle_closed_form for (params, s) is reused
    instead of being recomputed; it must carry a passing certificate.
    """
    params.validate_system(E)
    if s == 1:
        field = get_field(params.conductor)
        value = phi_eval(E, RootOfUnity(params.conductor, 1))
        return KappaClass(params, 1, value, field.one, seed, None)
    coc = cocycle_closed_form(E, params, s) if cocycle is None else cocycle
    if coc.params != params or coc.s != s:
        raise DomainError("cocycle belongs to another configuration")
    if not coc.certified:
        raise InternalInconsistency("cocycle certificate failed")
    beta = hilbert90_beta(coc, seed)
    beta_m = beta**params.M
    value = divide_into_subfield(coc.dsphi, beta_m, params.conductor)
    if not is_in_real_subfield(value):
        raise InternalInconsistency("class representative is not real")
    return KappaClass(params, s, value, beta, seed, coc)


def ratio_mth_power_witness(ka: KappaClass, kb: KappaClass) -> CycloElt:
    """Exact w in F with ka.kappa = kb.kappa * w^M, from the beta ratio.

    Verifies the representative ambiguity: two seeds change the class by an
    M-th power of a field element.
    """
    if ka.params != kb.params or ka.s != kb.s:
        raise DomainError("classes from different configurations")
    if ka.s == 1:
        return get_field(ka.params.conductor).one
    w = divide_into_subfield(kb.beta, ka.beta, ka.params.conductor)
    if kb.kappa * w**ka.params.M != ka.kappa:
        raise InternalInconsistency("beta ratio does not witness the class ambiguity")
    return w
