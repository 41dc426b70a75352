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

into an explicit M-th root, so roots are never extracted numerically.  The
class proves its cocycle: the resolvent beta != 0 has sigma_q(beta) =
c_q beta, so the norm P_(q-1)(c_q) = sigma_q^(q-1)(beta)/beta is 1, and the
descent proves kappa beta^M = D_s phi with kappa in Q(zeta_m), fixed by
sigma_q, so sigma_q(D_s phi) = kappa (c_q beta)^M = c_q^M D_s phi.

One halving recursion, pairing conjugate 2j with 2j + 1 and continuing over
sigma_q^2, forms every product over <sigma_q>: the Frobenius corrections
and the resolvent sums (_partial_norm), and from its norms the derivative
D_q x (_weighted_norm).  No chain of conjugates is kept.

System values, cocycles and classes are pure functions of their arguments.
All three are memoised in euler.MEMO until clear_memo(), which the command
line calls at the start of every command.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, DomainError, InternalInconsistency
from .cyclotomic import (
    CycloElt,
    CycloField,
    GaloisElt,
    RootOfUnity,
    divide_into_subfield,
    embed_up,
    galois_apply,
    get_field,
    is_in_real_subfield,
)
from .euler import MEMO, EulerSystem, phi_eval
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
        if self.M < self.p or list(factorize(self.M)) != [self.p]:
            raise ConfigError("M must be a positive power of p")

    @property
    def conductor(self) -> int:
        return self.p ** (self.n + 1)

    def splits(self, q: int) -> bool:
        """Whether a prime q is 1 mod M and splits completely in F, which
        means q = +-1 mod p^(n+1); with q = 1 mod M the minus sign is
        impossible, so this is one congruence."""
        return q % math.lcm(self.M, self.conductor) == 1

    def validate_system(self, E: EulerSystem) -> None:
        if self.p in E.effective_excluded:
            raise ConfigError(f"p = {self.p} is excluded by the system")


def is_kolyvagin_prime(params: KolyParams, q: int) -> bool:
    return params.splits(q) and is_prime(q)


def find_kolyvagin_primes(params: KolyParams, limit: int) -> list[int]:
    """All Kolyvagin primes q <= limit, read off the sieve."""
    return [q for q in primes_upto(limit) if params.splits(q)]


# ---------------------------------------------------------------------------
# the lifted generators and the derivative operator
# ---------------------------------------------------------------------------


def lifted_sigma(field: CycloField, q: int) -> GaloisElt:
    """sigma_q on Q(zeta_N): t_q on the q-part, identity elsewhere."""
    N = field.m
    if N % q != 0 or N % (q * q) == 0:
        raise DomainError("conductor must contain q exactly once")
    t = least_primitive_root(q)
    a = crt_pair(t, q, 1, N // q)
    return GaloisElt(field, a)


def apply_derivative(x: CycloElt, q: int) -> CycloElt:
    """D_q x = prod_{0<i<q-1} sigma_q^i(x)^i = W_(q-1)(x; sigma_q)."""
    return _weighted_norm(x, lifted_sigma(x.field, q), q - 1)


def _power(sigma: GaloisElt, k: int) -> GaloisElt:
    """sigma^k, so that sigma^k(x) is one Galois action."""
    return GaloisElt(sigma.field, pow(sigma.a, k, sigma.field.m))


def _partial_norm(c: CycloElt, sigma: GaloisElt, n: int, y: CycloElt | None = None) -> CycloElt:
    """P_n(c; sigma) = prod_{i<n} sigma^i(c) for n >= 1, or, given y, the
    exclusive twisted sum E_n(c, y; sigma) = sum_{t<n} sigma^t(y) prod_{t<i<n} sigma^i(c).

    It pairs conjugate 2j with 2j + 1 and continues over sigma^2,
    P_2k(c; sigma) = P_k(c sigma(c); sigma^2) and
    E_2k(c, y; sigma) = E_k(c sigma(c), y sigma(c) + sigma(y); sigma^2),
    and an odd length first peels off its last conjugate,
    P_n = P_(n-1) sigma^(n-1)(c) and E_n = E_(n-1) sigma^(n-1)(c) + sigma^(n-1)(y):
    O(log n) products, mostly of equal-size factors, where a chain of
    conjugates makes n - 1 lopsided ones.
    """
    if n < 1:
        raise InternalInconsistency("a partial norm needs at least one conjugate")
    if n == 1:
        return c if y is None else y
    if n % 2:
        last = _power(sigma, n - 1)
        head = _partial_norm(c, sigma, n - 1, y) * galois_apply(last, c)
        return head if y is None else head + galois_apply(last, y)
    moved = galois_apply(sigma, c)
    if y is not None:
        y = y * moved + galois_apply(sigma, y)
        if n == 2:
            return y
    return _partial_norm(c * moved, _power(sigma, 2), n // 2, y)


def _weighted_norm(x: CycloElt, sigma: GaloisElt, n: int) -> CycloElt:
    """W_n(x; sigma) = prod_{i<n} sigma^i(x)^i for n >= 2, by the pairing of
    _partial_norm: W_2k(x; sigma) = W_k(x sigma(x); sigma^2)^2 sigma(P_k(x; sigma^2)),
    where W_1 = 1, and W_n = W_(n-1) sigma^(n-1)(x)^(n-1) for odd n: each
    level forms one P_k, so O(log^2 n) products."""
    if n % 2:
        return _weighted_norm(x, sigma, n - 1) * galois_apply(_power(sigma, n - 1), x) ** (n - 1)
    square = _power(sigma, 2)
    odd = galois_apply(sigma, _partial_norm(x, square, n // 2))
    if n == 2:
        return odd
    return _weighted_norm(x * galois_apply(sigma, x), square, n // 2) ** 2 * odd


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


@dataclass(frozen=True)
class Cocycle:
    """Values c_sigma with c_sigma^M = (sigma - 1) D_s phi, one per generator,
    each of norm 1 over the cyclic group of its sigma.  Neither is checked
    here: the class built from the cocycle implies both (kappa).

    With norm 1, each inverse the construction needs is the product of the
    other conjugates, c^(-1) = prod_{0<i<order} sigma^i(c), so the inverse
    of the first e conjugates of c_q is sigma_q^e(P_(q-1-e)(c_q)) and the
    resolvent factor is R_q(y) = E_(q-1)(c_q, y c_q), both formed by
    _partial_norm when the values are read; nothing beyond them is kept."""

    field: CycloField
    values: dict[int, CycloElt]
    dsphi: CycloElt
    frobenius_exponents: dict[int, int]


def cocycle_closed_form(E: EulerSystem, params: KolyParams, s: int) -> Cocycle:
    """Symbolic M-th roots of (sigma_q - 1) D_s phi for every generator.

    With x the value at the level root, one loop over the primes q | s builds
    D_r x for every r | s as D_{q*r} x = D_q(D_r x).  The root for sigma_q is
    (D_{s/q} x)^((q-1)/M) times a Frobenius correction, trivial at s = q (q
    splits completely).  At s = q*r the Frobenius of q acts on the level-r
    group as sigma_r^e with t_r^e = q mod r, contributing the inverse of the
    first e conjugates of the level-r closed form c_r.  That value has norm 1
    over sigma_r, so the inverse is the product of the remaining conjugates
    sigma_r^i(c_r), e <= i < r - 1, which is sigma_r^e(P_(r-1-e)(c_r)),
    formed in Q(zeta_{m*r}) and embedded once, since sigma_r acts on the
    subfield as it does on Q(zeta_{m*s}).  Each level is built once and then
    read from MEMO.  Nothing is proved here: the class built from the
    cocycle proves its values (kappa), and a sub-cocycle is read only through
    the Frobenius corrections of those values.
    """
    key = ("cocycle", E, params, s)
    if key in MEMO:
        return MEMO[key]
    params.validate_system(E)
    factors = factorize(s)  # trial division: every factor is prime
    if any(v > 1 for v in factors.values()):
        raise DomainError("s must be squarefree")
    qs = sorted(factors)
    for q in qs:
        if not params.splits(q):
            raise DomainError(f"{q} is not a Kolyvagin prime for {params}")
    if len(qs) > 2:
        raise DomainError("instance too large")
    if not qs:
        raise DomainError("s must be a nontrivial product of Kolyvagin primes")
    N = params.conductor * s
    field = get_field(N)
    M = params.M
    derived = {1: phi_eval(E, level_root(params, s))}
    for q in qs:
        derived.update({r * q: apply_derivative(y, q) for r, y in derived.items()})

    values: dict[int, CycloElt] = {}
    frob_exps: dict[int, int] = {}
    for q in qs:
        r = s // q
        values[q] = derived[r] ** ((q - 1) // M)
        if r > 1:
            sub = cocycle_closed_form(E, params, r)
            e = frob_exps[q] = int_dlog(least_primitive_root(r), q, r)
            sigma_r = lifted_sigma(sub.field, r)
            tail = _partial_norm(sub.values[r], sigma_r, r - 1 - e)
            values[q] = values[q] * embed_up(galois_apply(_power(sigma_r, e), tail), N)
    coc = MEMO[key] = Cocycle(field, values, derived[s], frob_exps)
    return coc


# ---------------------------------------------------------------------------
# constructive Hilbert 90 and the class itself
# ---------------------------------------------------------------------------


def _sample_theta(field: CycloField, rng: random.Random) -> CycloElt:
    """Conjugation-invariant element with small coefficients drawn from the
    seeded generator: c_0 + sum c_k (zeta^k + zeta^(-k)) for k <= phi/2."""
    coeffs = [rng.randint(-3, 3) for _ in range(field.phi // 2 + 1)]
    exponents = range(-(len(coeffs) - 1), len(coeffs))
    return field.from_terms(exponents, [coeffs[abs(e)] for e in exponents])


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

    sum (q - 1) terms in place of prod (q - 1).  It is the same element as
    the sum over G(s), not merely another solution.  No inverse is formed:
    c_q has norm 1, so a_{sigma_q^e} = prod_{e<=i<q-1} sigma_q^i(c_q) and
    R_q(y) = E_(q-1)(c_q, y c_q), the exclusive twisted sum of _partial_norm,
    summed by halving in O(log q) products.  beta is checked against
    sigma_q(beta) = c_q * beta for every q | s, which fails for a value whose
    norm is not 1 and implies c_1 sigma_1(c_2) = c_2 sigma_2(c_1): both sides
    times beta != 0 are sigma_1 sigma_2(beta), as sigma_1 sigma_2 = sigma_2 sigma_1.
    theta is drawn from the seed and resampled while beta vanishes.
    """
    field = coc.field
    qs = sorted(coc.values)
    sigmas = {q: lifted_sigma(field, q) for q in qs}
    rng = random.Random(seed)
    for _ in range(32):
        beta = _sample_theta(field, rng)
        for q in reversed(qs):  # beta = R_q(beta)
            c = coc.values[q]
            beta = _partial_norm(c, sigmas[q], q - 1, beta * c)
        if beta.is_zero():
            continue
        for q, c in coc.values.items():
            if galois_apply(sigmas[q], beta) != c * beta:
                raise InternalInconsistency("resolvent does not satisfy the relation")
        if not is_in_real_subfield(beta):
            raise InternalInconsistency("resolvent left the real subfield")
        return beta
    raise DomainError("resolvent exhausted")


@dataclass(frozen=True)
class KappaClass:
    """A representative of the class D_s phi / beta^M together with beta, the
    data needed to re-verify it with the memoized cocycle."""

    kappa: CycloElt
    beta: CycloElt


def kappa(E: EulerSystem, params: KolyParams, s: int, seed: int = 0) -> KappaClass:
    """The Kolyvagin class at level s, certified exactly.

    kappa is recovered inside Q(zeta_m) by solving kappa * beta^M = D_s phi
    linearly over the embedded power basis (so the huge beta is never
    inverted); divide_into_subfield proves the identity by one integer
    equation per coefficient of the numerators, with no further product.
    With the resolvent's relation it proves the cocycle (see the module
    docstring): given the relation, the descent fails exactly when some
    c_q^M D_s phi != sigma_q(D_s phi), and so raises InternalInconsistency.
    Last, every representative, phi(zeta_m) at s = 1 included, is proved
    real: primes.py rests on that to read one root per prime of F.
    Each class, and each cocycle, is built once and then read from MEMO.
    """
    key = ("kappa", E, params, s, seed)
    if key in MEMO:
        return MEMO[key]
    params.validate_system(E)
    if s == 1:
        value = phi_eval(E, RootOfUnity(params.conductor, 1))
        beta = get_field(params.conductor).one
    else:
        coc = cocycle_closed_form(E, params, s)
        beta = hilbert90_beta(coc, seed)
        try:
            value = divide_into_subfield(coc.dsphi, beta**params.M, params.conductor)
        except DomainError:
            raise InternalInconsistency("cocycle certificate failed") from None
    if not is_in_real_subfield(value):
        raise InternalInconsistency("class representative is not real")
    kc = MEMO[key] = KappaClass(value, beta)
    return kc
