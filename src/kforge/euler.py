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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExhausted, ConfigError, DomainError
from .cyclotomic import (
    CycloElt,
    CycloField,
    GaloisElt,
    RootOfUnity,
    _reduce_vec,
    absolute_norm,
    elt_inverse,
    elt_to_strings,
    embed_up,
    galois_apply,
    get_field,
    is_in_real_subfield,
    minimal_polynomial,
    one_minus_root_inverse,
    relative_norm,
    restrict_down,
    tower_subgroup,
)
from .exact_arith import factorize, is_prime, multiplicative_order


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
        if sum(n for _, n in pairs) != 0:
            raise ConfigError("pair weights must sum to zero")
        excluded = {2}
        for a, _ in pairs:
            excluded.update(factorize(a))
        return OmegaSpec(pairs, frozenset(excluded))


@dataclass(frozen=True)
class EulerSystem:
    base: OmegaSpec
    compose_n: int | None = None
    twist: RootOfUnity | None = None

    def __post_init__(self):
        if self.compose_n == 0:
            raise ConfigError("composition power must be nonzero")
        if self.twist is not None:
            t = self.twist.canonical()
            if t.order > 1 and any(t.order % p == 0 for p in self.base.excluded):
                raise ConfigError("twist order must be coprime to the excluded primes")

    @property
    def effective_excluded(self) -> frozenset[int]:
        out = set(self.base.excluded)
        if self.compose_n:
            out.update(factorize(self.compose_n))
        if self.twist is not None and self.twist.canonical().order > 1:
            out.update(factorize(self.twist.canonical().order))
        return frozenset(out)

    def admissible(self, eta: RootOfUnity) -> bool:
        r = eta.primitive_order()
        return all(r % p != 0 for p in self.effective_excluded)

    def describe(self) -> str:
        parts = [",".join(f"{a}:{n}" for a, n in self.base.pairs)]
        if self.compose_n:
            parts.append(f"compose={self.compose_n}")
        if self.twist is not None and self.twist.canonical().order > 1:
            t = self.twist.canonical()
            parts.append(f"twist={t.order}:{t.exp}")
        return ",".join(parts)


def parse_omega(text: str) -> EulerSystem:
    """Parse "a:n,a:n,...[,compose=n][,twist=h:e]" with positioned errors."""
    pairs = []
    compose = None
    twist = None
    pos = 0
    for idx, token in enumerate(text.split(",")):
        tok = token.strip()
        where = f"token {idx + 1} at position {pos}"
        pos += len(token) + 1
        if not tok:
            raise ConfigError(f"empty token ({where})")
        if tok.startswith("compose="):
            try:
                compose = int(tok[len("compose=") :])
            except ValueError:
                raise ConfigError(f"bad composition power ({where})") from None
            continue
        if tok.startswith("twist="):
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
    return EulerSystem(OmegaSpec.build(pairs), compose, twist)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cached_one_minus_inverse(m: int, k: int) -> CycloElt:
    return one_minus_root_inverse(get_field(m), k)


def _lambda_eval(pairs, field: CycloField, e: int, invert: bool) -> CycloElt:
    """Product of (zeta^(-ea) - zeta^(ea))^n in the given field, e != 0.

    Each factor is zeta^(-ea) * (1 - zeta^(2ea)); inverses of 1 - zeta^k come
    from a closed form, so no polynomial gcd is ever needed here.
    """
    m = field.m
    shift = 0
    result = field.one
    for a, n in pairs:
        if invert:
            n = -n
        k = (2 * e * a) % m
        if k == 0:
            raise DomainError("zero factor: argument outside the admissible domain")
        shift -= e * a * n
        if n > 0:
            result = result * (field.one - field.root(k)) ** n
        elif n < 0:
            result = result * _cached_one_minus_inverse(m, k) ** (-n)
    return result * field.root(shift % m)


def _twist_order(E: EulerSystem) -> int:
    return E.twist.canonical().order if E.twist is not None else 1


def phi_eval(E: EulerSystem, eta: RootOfUnity) -> CycloElt:
    """Exact value of the system at eta, as an element of Q(zeta_ord(eta))."""
    eta = eta.canonical()
    if not E.admissible(eta):
        raise DomainError(f"root of order {eta.order} is outside the admissible domain")
    value = phi_eval_in(E, eta, math.lcm(eta.order, _twist_order(E)))
    return restrict_down(value, eta.order)


def phi_eval_inverse(E: EulerSystem, eta: RootOfUnity) -> CycloElt:
    """Exact inverse of phi_eval, computed directly from the negated weights."""
    eta = eta.canonical()
    if not E.admissible(eta):
        raise DomainError(f"root of order {eta.order} is outside the admissible domain")
    value = phi_eval_in(E, eta, math.lcm(eta.order, _twist_order(E)), invert=True)
    return restrict_down(value, eta.order)


def phi_eval_in(E: EulerSystem, eta: RootOfUnity, N: int, invert: bool = False) -> CycloElt:
    """Value at eta represented inside Q(zeta_N), without intermediate
    subfield descents; intended for product identities that compare several
    values in one ambient field.  N must be a multiple of ord(eta) and of
    the twist order."""
    eta = eta.canonical()
    if N % math.lcm(eta.order, _twist_order(E)) != 0:
        raise DomainError("ambient conductor too small")
    twist = E.twist.canonical() if E.twist is not None else None
    if twist is not None and twist.order > 1:
        inner = EulerSystem(E.base, E.compose_n, None)
        h = twist.order
        acc = get_field(N).one
        for b in range(1, h + 1):
            if math.gcd(b, h) != 1:
                continue
            acc = acc * phi_eval_in(inner, eta.times(twist**b), N, invert)
        return acc
    if E.compose_n:
        inner = EulerSystem(E.base, None, None)
        return phi_eval_in(inner, eta**E.compose_n, N, invert)
    field = get_field(N)
    if eta.order == 1:
        value = Fraction(1)
        for a, n in E.base.pairs:
            value *= Fraction(a) ** (n if not invert else -n)
        return field.from_rational(value)
    return _lambda_eval(E.base.pairs, field, eta.exp * (N // eta.order), invert)


# ---------------------------------------------------------------------------
# axiom and norm-relation verifiers
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    name: str
    params: dict
    passed: bool
    witness: dict = dc_field(default_factory=dict)
    note: str = ""


def _root_label(eta: RootOfUnity) -> str:
    eta = eta.canonical()
    return f"zeta_{eta.order}^{eta.exp}" if eta.order > 1 else "1"


def check_E1(E: EulerSystem, eta: RootOfUnity, a: int) -> AxiomReport:
    """Galois equivariance plus invariance under inversion of the argument."""
    eta = eta.canonical()
    m0 = eta.order
    if m0 > 1 and math.gcd(a, m0) != 1:
        raise DomainError(f"{a} is not invertible mod {m0}")
    value = phi_eval(E, eta)
    lhs = phi_eval(E, eta**a)
    rhs = galois_apply(GaloisElt(value.field, a % m0 if m0 > 1 else 1), value)
    inv_ok = phi_eval(E, eta.inverse()) == value
    passed = lhs == rhs and inv_ok
    return AxiomReport(
        "E1",
        {"omega": E.describe(), "eta": _root_label(eta), "a": a},
        passed,
        {"lhs": elt_to_strings(lhs), "rhs": elt_to_strings(rhs), "inverse_invariant": inv_ok},
    )


def check_E2(E: EulerSystem, eta: RootOfUnity, q: int) -> AxiomReport:
    """Distribution relation: the product over all q-th-root translates equals
    the value at eta^q."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q in E.effective_excluded:
        raise DomainError(f"auxiliary prime {q} is excluded")
    eta = eta.canonical()
    N = math.lcm(q, eta.order, _twist_order(E))
    big = get_field(N)
    lhs = big.one
    for c in range(q):
        lhs = lhs * phi_eval_in(E, eta.times(RootOfUnity(q, c)), N)
    rhs = phi_eval_in(E, eta**q, N)
    return AxiomReport(
        "E2",
        {"omega": E.describe(), "eta": _root_label(eta), "q": q},
        lhs == rhs,
        {"lhs": elt_to_strings(lhs), "rhs": elt_to_strings(rhs)},
    )


def check_E3(E: EulerSystem, eta: RootOfUnity, q: int) -> AxiomReport:
    """Congruence relation: the q-th-root translate agrees with the value
    modulo every prime above q.

    With N = q*m', those primes multiply to (1 - zeta_q).  Since
    Phi_N = Phi_m'^(q-1) mod q, zeta_N -> x maps Z[zeta_N] onto
    F_q[x]/(Phi_m'); its kernel contains 1 - zeta_q (zeta_q -> x^m' = 1) and
    has the same index q^phi(m'), so it is (1 - zeta_q).  The difference,
    whose denominator is prime to q, therefore vanishes at every prime above
    q exactly when its numerator, folded modulo x^m' - 1 and reduced modulo
    Phi_m', is 0 mod q.
    """
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q in E.effective_excluded:
        raise DomainError(f"auxiliary prime {q} is excluded")
    eta = eta.canonical()
    m0 = eta.order
    if math.gcd(q, m0) != 1:
        raise DomainError("argument order must be coprime to q")
    m_prime = math.lcm(m0, _twist_order(E))
    N = q * m_prime
    delta = phi_eval_in(E, eta.times(RootOfUnity(q, 1)), N) - phi_eval_in(E, eta, N)
    if delta.den % q == 0:
        raise DomainError("non-integral test value")
    residue = _reduce_vec(get_field(m_prime), list(delta.num))
    return AxiomReport(
        "E3",
        {
            "omega": E.describe(),
            "eta": _root_label(eta),
            "q": q,
            "residue_field": f"F_{q}^{multiplicative_order(q, m_prime)}",
        },
        all(c % q == 0 for c in residue),
        {"delta": elt_to_strings(delta)},
    )


def check_norm_frobenius(E: EulerSystem, m: int, q: int) -> AxiomReport:
    """Norm of the q-translated value down one auxiliary level equals the
    value twisted by Frobenius-at-q minus identity."""
    if m <= 1:
        raise DomainError("argument must be a nontrivial root of unity")
    if not is_prime(q) or q in E.effective_excluded:
        raise DomainError("bad auxiliary prime")
    if math.gcd(m, q) != 1:
        raise DomainError("level and auxiliary prime must be coprime")
    if not E.admissible(RootOfUnity(m, 1)):
        raise DomainError("level shares a factor with the excluded primes")
    N = m * q
    big = get_field(N)
    x = phi_eval(E, RootOfUnity(N, (N // q + N // m) % N))
    lhs = relative_norm(x, tower_subgroup(big, m))
    y = phi_eval(E, RootOfUnity(m, 1))
    frob = GaloisElt(y.field, q % m)
    rhs = galois_apply(frob, y) / y
    collapse = rhs == y.field.one
    return AxiomReport(
        "norm_frobenius",
        {"omega": E.describe(), "m": m, "q": q, "frobenius": q % m},
        lhs == embed_up(rhs, N),
        {
            "lhs": elt_to_strings(lhs),
            "rhs": elt_to_strings(rhs),
            "frobenius_trivial": collapse,
        },
    )


def check_tower_norm(E: EulerSystem, p: int, n: int) -> AxiomReport:
    """Norm compatibility one step down the p-power tower of real fields."""
    if not is_prime(p) or p == 2:
        raise DomainError("tower prime must be odd")
    if p in E.effective_excluded:
        raise DomainError(f"tower prime {p} is excluded")
    if n < 0:
        raise DomainError("level must be nonnegative")
    m_low = p ** (n + 1)
    m_high = m_low * p
    big = get_field(m_high)
    lhs = relative_norm(phi_eval(E, RootOfUnity(m_high, 1)), tower_subgroup(big, m_low))
    rhs = embed_up(phi_eval(E, RootOfUnity(m_low, 1)), m_high)
    return AxiomReport(
        "tower_norm",
        {"omega": E.describe(), "p": p, "n": n},
        lhs == rhs,
        {"lhs": elt_to_strings(lhs), "rhs": elt_to_strings(rhs)},
    )


def check_unit(E: EulerSystem, eta: RootOfUnity) -> AxiomReport:
    """Integrality of the minimal polynomial plus norm +-1."""
    eta = eta.canonical()
    if eta.order == 1:
        raise DomainError("the value at 1 need not be a unit")
    u = phi_eval(E, eta)
    mp = minimal_polynomial(u)
    integral = all(c.denominator == 1 for c in mp)
    nrm = absolute_norm(u)
    return AxiomReport(
        "unit",
        {"omega": E.describe(), "eta": _root_label(eta)},
        integral and nrm in (1, -1),
        {
            "min_poly": [str(c) for c in mp],
            "norm": str(nrm),
            "real": is_in_real_subfield(u),
        },
    )


# ---------------------------------------------------------------------------
# decomposition over cyclotomic-unit generators
# ---------------------------------------------------------------------------


def cyclotomic_unit_generators(p: int, n: int) -> list[CycloElt]:
    """Standard real cyclotomic units zeta^((1-a)/2) (1-zeta^a)/(1-zeta) of
    the p^(n+1)-th field, for 1 < a < m/2 coprime to p."""
    if not is_prime(p) or p == 2:
        raise DomainError("odd prime required")
    m = p ** (n + 1)
    field = get_field(m)
    inv2 = pow(2, -1, m)
    gens = []
    for a in range(2, (m + 1) // 2):
        if a % p == 0:
            continue
        xi = (
            field.root((1 - a) * inv2 % m)
            * (field.one - field.root(a))
            * one_minus_root_inverse(field, 1)
        )
        gens.append(xi)
    return gens


@dataclass
class Decomposition:
    exponents: tuple[int, ...]
    unit_root: Fraction  # +1 or -1: the real fields contain no other roots of unity
    generators: list[CycloElt]
    precision_bits: int


def decompose_over_cyclotomic_units(u: CycloElt, p: int, n: int) -> Decomposition:
    """Express a unit of the real p^(n+1)-th field over the standard
    cyclotomic-unit generators.

    Floating point (high-precision logarithmic embeddings) only proposes an
    exponent vector; the verdict is an exact re-multiplication.  Precision
    starts at 128 bits and doubles up to 2048 before giving up.
    """
    import mpmath

    m = p ** (n + 1)
    if u.field.m != m:
        raise DomainError("element does not live in the requested field")
    mpoly = minimal_polynomial(u)
    if any(c.denominator != 1 for c in mpoly) or absolute_norm(u) not in (1, -1):
        raise DomainError("input is not a unit")
    gens = cyclotomic_unit_generators(p, n)
    one = u.field.one
    if u == one or u == -one:
        return Decomposition((0,) * len(gens), u.as_rational(), gens, 0)
    reps = [a for a in u.field.unit_group if a <= m // 2]
    gen_invs = [elt_inverse(g) for g in gens]
    prec = 128
    while prec <= 2048:
        exps = _propose_exponents(u, gens, reps, m, prec, mpmath)
        if exps is not None:
            residue = u
            for g_inv, e in zip(gen_invs, exps):
                residue = residue * (g_inv**e if e >= 0 else elt_inverse(g_inv) ** (-e))
            if residue == one:
                return Decomposition(tuple(exps), Fraction(1), gens, prec)
            if residue == -one:
                return Decomposition(tuple(exps), Fraction(-1), gens, prec)
        prec *= 2
    raise BudgetExhausted("decomposition not found")


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
