"""The cyclotomic-unit map on roots of unity and its verifiable identities.

A system is specified by pairs (a_j, n_j) of nonzero integers and weights
with zero weight sum.  For a root of unity eta != 1 the value is the product
of (eta^(-a_j) - eta^(a_j))^(n_j); at eta = 1 it is the limit value, the
rational product of a_j^(n_j).  The excluded prime set always contains 2 and
every prime dividing one of the a_j; admissible arguments are the roots of
unity of order coprime to that set.

Two derived systems are supported as decorations: precomposition with the
n-th power map (which enlarges the excluded set by the primes of n) and the
twist by a primitive h-th root of unity xi, whose value is the product of
the base values at eta*xi^b over b coprime to h (enlarging the excluded set
by the primes of h).

Every value, twisted or not, is one balanced product of elementary factors
in Q(zeta_ord(eta)): 1 - zeta^k, the closed-form inverses of such factors,
and one rational times a root of unity.  E2 and E3 compare values at
several roots; each value is lifted from its own field into their common
witness field by embed_up.  The decomposition over cyclotomic-unit
generators is proved by an identity between two such products and forms no
inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import ConfigError, DomainError
from .cyclotomic import (
    CycloElt,
    GaloisElt,
    RootOfUnity,
    embed_up,
    galois_apply,
    galois_classes,
    get_field,
    is_in_real_subfield,
    minimal_polynomial,
    one_minus_root_inverse,
    product,
)
from .exact_arith import euler_phi, factorize, is_prime, multiplicative_order


@dataclass(frozen=True)
class OmegaSpec:
    """Defining data: pairs (a_j, n_j), sum of n_j = 0, plus the excluded primes."""

    pairs: tuple[tuple[int, int], ...]
    excluded: frozenset[int]

    @staticmethod
    def build(pairs) -> "OmegaSpec":
        pairs = tuple((int(a), int(n)) for a, n in pairs)
        if not pairs:
            raise ConfigError("at least one pair is required")
        if any(a == 0 for a, _ in pairs):
            raise ConfigError("pair bases must be nonzero")
        if any(n == 0 for _, n in pairs):
            raise ConfigError("pair weights must be nonzero")
        if sum(n for _, n in pairs) != 0:
            raise ConfigError("pair weights must sum to zero")
        excluded = {2}
        for a, _ in pairs:
            excluded.update(factorize(a))
        return OmegaSpec(pairs, frozenset(excluded))


@dataclass(frozen=True)
class EulerSystem:
    """A base system, optionally precomposed with the compose_n-th power map
    and twisted by the root of unity twist; the twist 1 changes nothing."""

    base: OmegaSpec
    compose_n: int | None = None
    twist: RootOfUnity = RootOfUnity(1, 0)

    def __post_init__(self):
        if self.compose_n == 0:
            raise ConfigError("composition power must be nonzero")
        if any(self.twist.order % p == 0 for p in self.base.excluded):
            raise ConfigError("twist order must be coprime to the excluded primes")
        if any(math.gcd(2 * a, self.twist.order) != 1 for a, _ in self.base.pairs):
            raise ConfigError("twist order must be coprime to 2a for every base a")

    @property
    def effective_excluded(self) -> frozenset[int]:
        out = set(self.base.excluded)
        if self.compose_n:
            out.update(factorize(self.compose_n))
        out.update(factorize(self.twist.order))
        return frozenset(out)

    def admissible(self, eta: RootOfUnity) -> bool:
        return all(eta.order % p != 0 for p in self.effective_excluded)

    def describe(self) -> str:
        parts = [",".join(f"{a}:{n}" for a, n in self.base.pairs)]
        if self.compose_n:
            parts.append(f"compose={self.compose_n}")
        if self.twist.order > 1:
            parts.append(f"twist={self.twist.order}:{self.twist.exp}")
        return ",".join(parts)


def parse_omega(text: str) -> EulerSystem:
    """Parse "a:n,a:n,...[,compose=n][,twist=h:e]" with positioned errors."""
    pairs = []
    compose = twist = None
    pos = 0
    for idx, token in enumerate(text.split(",")):
        tok = token.strip()
        where = f"token {idx + 1} at position {pos}"
        pos += len(token) + 1
        if not tok:
            raise ConfigError(f"empty token ({where})")
        if tok.startswith("compose="):
            if compose is not None:
                raise ConfigError(f"repeated compose= ({where})")
            try:
                compose = int(tok[len("compose=") :])
            except ValueError:
                raise ConfigError(f"bad composition power ({where})") from None
            continue
        if tok.startswith("twist="):
            if twist is not None:
                raise ConfigError(f"repeated twist= ({where})")
            body = tok[len("twist=") :]
            try:
                h_text, _, e_text = body.partition(":")
                h = int(h_text)
                e = int(e_text) if e_text else 1
            except ValueError:
                raise ConfigError(f"bad twist ({where})") from None
            if h < 1 or math.gcd(e, h) != 1:
                raise ConfigError(f"twist must be a primitive root of unity ({where})")
            twist = RootOfUnity(h, e % h)
            continue
        head, sep, tail = tok.partition(":")
        if not sep:
            raise ConfigError(f"expected a:n ({where})")
        try:
            pairs.append((int(head), int(tail)))
        except ValueError:
            raise ConfigError(f"expected integers a:n ({where})") from None
    if not pairs:
        raise ConfigError("no pairs given")
    return EulerSystem(OmegaSpec.build(pairs), compose, twist or RootOfUnity(1, 0))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _factors(E: EulerSystem, eta: RootOfUnity):
    """The elementary factors whose product is the value at eta in
    Q(zeta_ord(eta)).

    With y = eta^n, n the composition power, a base factor (y^(-a) - y^a)^k
    is y^(-ak) (1 - Y)^k, Y = y^(2a).  Over the translates y*xi^(bn) of a
    twist of order h, xi^(bn) runs phi(h)/phi(h') times over the primitive
    h'-th roots, h' = h/gcd(n, h); h being odd and prime to 2a, the factors
    1 - Y*xi'^(2a) multiply to Phi_h'(Y) = prod_{d | h'} (1 - Y^d)^mu(h'/d)
    and, the units mod h summing to 0 mod h, the roots of unity to
    y^(-ak phi(h)) (Washington, Introduction to Cyclotomic Fields, Ch. 2).
    A negative power of 1 - Y^d is a power of its closed-form inverse, so no
    gcd is needed.  Where Y = 1 the pair gives its limit: a^(k phi(h)) at y = 1
    if h' = 1, else Phi_h'(1)^(k phi(h)/phi(h')) = prod d^(mu k phi(h)/phi(h')).
    """
    h = E.twist.order
    n = E.compose_n or 1
    y = eta**n
    h_prime = h // math.gcd(n, h)
    phi_h = euler_phi(h)
    reps = phi_h // euler_phi(h_prime)
    binomials = get_field(h_prime).binomials
    m = eta.order
    field = get_field(m)
    e = y.exp * (m // y.order)
    shift, limit = 0, Fraction(1)
    for a, k in E.base.pairs:
        shift -= e * a * k * phi_h
        if 2 * e * a % m == 0:
            if h_prime > 1:
                limit *= math.prod(Fraction(d) ** mu for d, mu in binomials) ** (k * reps)
            elif y.order == 1:
                limit *= Fraction(a) ** (k * phi_h)
            else:
                raise DomainError("zero factor: argument outside the admissible domain")
            continue
        for d, mu in binomials:
            count = k * mu * reps
            if count > 0:
                yield from repeat(field.from_terms((0, 2 * e * a * d), (1, -1)), count)
            elif count < 0:
                yield from repeat(one_minus_root_inverse(field, 2 * e * a * d), -count)
    yield field.from_terms((shift,), (limit.numerator,), limit.denominator)


# system values here, and kolyvagin's cocycles and classes, keyed by the
# function and its arguments: pure functions of those, kept for one command
MEMO: dict[tuple, object] = {}


def clear_memo() -> None:
    """Forget every system value, cocycle and class built so far."""
    MEMO.clear()


def phi_eval(E: EulerSystem, eta: RootOfUnity) -> CycloElt:
    """Exact value of the system at eta, an element of Q(zeta_ord(eta)).

    Each value is evaluated once and then read from MEMO; eta is held in
    lowest terms, so equal roots share one entry."""
    key = ("phi", E, eta)
    if key in MEMO:
        return MEMO[key]
    if not E.admissible(eta):
        raise DomainError(f"root of order {eta.order} is outside the admissible domain")
    value = MEMO[key] = product(_factors(E, eta))
    return value


# ---------------------------------------------------------------------------
# axiom verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """A verdict with the elements and numbers that decided it."""

    name: str
    params: dict
    passed: bool
    witness: dict


def _root_label(eta: RootOfUnity) -> str:
    return f"zeta_{eta.order}^{eta.exp}" if eta.order > 1 else "1"


def check_E1(E: EulerSystem, eta: RootOfUnity, a: int) -> AxiomReport:
    """Galois equivariance plus invariance under inversion of the argument."""
    sigma = GaloisElt(get_field(eta.order), a)  # refuses an a not prime to ord(eta)
    value = phi_eval(E, eta)
    lhs = phi_eval(E, eta**a)
    rhs = galois_apply(sigma, value)
    inv_ok = phi_eval(E, eta**-1) == value
    passed = lhs == rhs and inv_ok
    return AxiomReport(
        "E1",
        {"omega": E.describe(), "eta": _root_label(eta), "a": a},
        passed,
        {"lhs": lhs, "rhs": rhs, "inverse_invariant": inv_ok},
    )


def check_E2(E: EulerSystem, eta: RootOfUnity, q: int) -> AxiomReport:
    """Distribution relation: the product over all q-th-root translates equals
    the value at eta^q.  Read through Galois conjugates it is also the norm
    relation N(x) y = Frob_q(y), for x, y the values at eta*zeta_q and eta
    when ord(eta) > 1 is prime to q, and norm compatibility from
    Q(zeta_(p^(n+2))) down to Q(zeta_(p^(n+1))) at eta = zeta_(p^(n+2)), q = p.
    Both sides are formed in Q(zeta_N), N = lcm(q, ord(eta), h) for h the
    twist order, the witness field the reports record.
    """
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q in E.effective_excluded:
        raise DomainError(f"auxiliary prime {q} is excluded")
    N = math.lcm(q, eta.order, E.twist.order)
    lhs = product(embed_up(phi_eval(E, eta.times(RootOfUnity(q, c))), N) for c in range(q))
    rhs = embed_up(phi_eval(E, eta**q), N)
    return AxiomReport(
        "E2",
        {"omega": E.describe(), "eta": _root_label(eta), "q": q},
        lhs == rhs,
        {"lhs": lhs, "rhs": rhs},
    )


def check_E3(E: EulerSystem, eta: RootOfUnity, q: int) -> AxiomReport:
    """Congruence relation: the q-th-root translate agrees with the value
    modulo every prime above q.

    The difference is formed in Q(zeta_N), N = q*m', m' = lcm(ord(eta), h)
    for h the twist order; there the primes above q multiply to
    (1 - zeta_q).  Since Phi_N = Phi_m'^(q-1) mod q, zeta_N -> x maps
    Z[zeta_N] onto F_q[x]/(Phi_m'); its kernel contains 1 - zeta_q
    (zeta_q -> x^m' = 1) and has the same index q^phi(m'), so it is
    (1 - zeta_q).  The difference, whose denominator is prime to q,
    therefore vanishes at every prime above q exactly when its numerator,
    folded modulo x^m' - 1 and reduced modulo Phi_m', is 0 mod q.
    """
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q in E.effective_excluded:
        raise DomainError(f"auxiliary prime {q} is excluded")
    m0 = eta.order
    if math.gcd(q, m0) != 1:
        raise DomainError("argument order must be coprime to q")
    m_prime = math.lcm(m0, E.twist.order)
    N = q * m_prime
    delta = embed_up(phi_eval(E, eta.times(RootOfUnity(q, 1))), N) - embed_up(phi_eval(E, eta), N)
    if delta.den % q == 0:
        raise DomainError("non-integral test value")
    residue = get_field(m_prime).from_terms(range(len(delta.num)), delta.num).num
    return AxiomReport(
        "E3",
        {
            "omega": E.describe(),
            "eta": _root_label(eta),
            "q": q,
            "residue_field": f"F_{q}^{multiplicative_order(q, m_prime)}",
        },
        all(c % q == 0 for c in residue),
        {"delta": delta},
    )


def check_unit(E: EulerSystem, eta: RootOfUnity) -> AxiomReport:
    """Integrality of the minimal polynomial plus norm +-1, read off it: for
    degree d and constant term c_0, N(u) = ((-1)^d c_0)^(phi/d)."""
    if eta.order == 1:
        raise DomainError("the value at 1 need not be a unit")
    u = phi_eval(E, eta)
    mp = minimal_polynomial(u)
    integral = all(c.denominator == 1 for c in mp)
    d = len(mp) - 1
    nrm = ((-1) ** d * mp[0]) ** (u.field.phi // d)
    return AxiomReport(
        "unit",
        {"omega": E.describe(), "eta": _root_label(eta)},
        integral and nrm in (1, -1),
        {"min_poly": mp, "norm": nrm, "real": is_in_real_subfield(u)},
    )


# ---------------------------------------------------------------------------
# decomposition over cyclotomic-unit generators
# ---------------------------------------------------------------------------


def cyclotomic_unit_generators(p: int, n: int) -> list[CycloElt]:
    """Standard real cyclotomic units zeta^((1-a)/2) (1-zeta^a)/(1-zeta) of
    the p^(n+1)-th field, for the classes 1 < a < m/2 of galois_classes.
    Each is one geometric sum zeta^s (1 + zeta + ... + zeta^(a-1)), s =
    (1-a)/2 mod m (Washington, Introduction to Cyclotomic Fields, Lemma 8.1)."""
    if not is_prime(p) or p == 2:
        raise DomainError("odd prime required")
    m = p ** (n + 1)
    field = get_field(m)
    inv2 = pow(2, -1, m)
    gens = []
    for a in galois_classes(m)[1:]:
        s = (1 - a) * inv2 % m
        gens.append(field.from_terms(range(s, s + a), repeat(1, a)))
    return gens


@dataclass(frozen=True)
class Decomposition:
    exponents: tuple[int, ...]
    unit_root: Fraction  # +1 or -1: the real fields contain no other roots of unity
    precision_bits: int


def decompose_over_cyclotomic_units(u: CycloElt, p: int, n: int) -> Decomposition:
    """Express a unit of the real p^(n+1)-th field over the standard
    cyclotomic-unit generators.

    Floating point (high-precision logarithmic embeddings) only proposes an
    exponent vector e; the verdict is the exact identity
    u * prod_{e_j<0} g_j^(-e_j) = +-prod_{e_j>0} g_j^(e_j), which forms no
    inverse.  Precision starts at 128 bits and doubles up to 2048 before
    giving up.

    A non-unit is refused by check_unit's criterion: the power basis is an
    integral basis of Z[zeta_m], so u is an algebraic integer iff its
    denominator is 1, and N(u) = ((-1)^d c_0)^(phi/d) for the degree d and
    constant term c_0 of its minimal polynomial, so u is a unit iff |c_0| = 1.
    """
    import mpmath

    m = p ** (n + 1)
    if u.field.m != m:
        raise DomainError("element does not live in the requested field")
    if u.den != 1 or abs(minimal_polynomial(u)[0]) != 1:
        raise DomainError("input is not a unit")
    one = u.field.one
    gens = cyclotomic_unit_generators(p, n)
    if u == one or u == -one:
        return Decomposition((0,) * len(gens), u.as_rational(), 0)
    reps = galois_classes(m)
    prec = 128
    while prec <= 2048:
        exps = _propose_exponents(u, gens, reps, m, prec, mpmath)
        if exps is not None:
            lhs = product([u] + [g**-e for g, e in zip(gens, exps) if e < 0])
            rhs = product([one] + [g**e for g, e in zip(gens, exps) if e > 0])
            if lhs == rhs:
                return Decomposition(tuple(exps), Fraction(1), prec)
            if lhs == -rhs:
                return Decomposition(tuple(exps), Fraction(-1), prec)
        prec *= 2
    raise DomainError("decomposition not found")


def _propose_exponents(u, gens, reps, m, prec, mpmath):
    with mpmath.workprec(prec):

        def log_abs_embed(x, a):
            z = mpmath.mpc(0)
            zeta = mpmath.exp(2j * mpmath.pi * a / m)
            for c in reversed(x.num):
                z = z * zeta + c
            z /= x.den
            if mpmath.fabs(z) == 0:
                return None
            return mpmath.log(mpmath.fabs(z))

        rows = len(reps)
        cols = len(gens)
        A = mpmath.zeros(rows, cols)
        y = mpmath.matrix(rows, 1)
        for i, a in enumerate(reps):
            target = log_abs_embed(u, a)
            if target is None:
                return None
            y[i] = target
            for j, g in enumerate(gens):
                entry = log_abs_embed(g, a)
                if entry is None:
                    return None
                A[i, j] = entry
        ata = A.T * A
        aty = A.T * y
        try:
            sol = mpmath.lu_solve(ata, aty)
        except ZeroDivisionError:
            return None
        return [int(mpmath.nint(sol[j])) for j in range(cols)]
