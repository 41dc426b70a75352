"""Exact arithmetic kernels: rational polynomials, finite fields, Hensel lifts.

Conventions used throughout the package:

* rationals are `fractions.Fraction`, always in lowest terms;
* a polynomial is a tuple of coefficients, lowest degree first, with no
  trailing zero; ``()`` is the zero polynomial;
* polynomials over Z/n keep coefficients as ints in ``[0, n)`` and every
  function takes the modulus as an explicit argument.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalInconsistency

Rational = Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, fl in enumerate(sieve) if fl]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; desk-scale inputs only."""
    if n == 0:
        raise DomainError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiplicative_order(a: int, n: int) -> int:
    if math.gcd(a, n) != 1:
        raise DomainError(f"{a} is not a unit mod {n}")
    group = euler_phi(n)
    e = group
    for p in factorize(group):
        while e % p == 0 and pow(a, e // p, n) == 1:
            e //= p
    return e


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def least_primitive_root(q: int) -> int:
    """Smallest primitive root of a prime q."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if q == 2:
        return 1
    facs = list(factorize(q - 1))
    for t in range(2, q):
        if all(pow(t, (q - 1) // p, q) != 1 for p in facs):
            return t
    raise DomainError(f"no primitive root mod {q}")  # unreachable for prime q


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    g = math.gcd(m1, m2)
    if g != 1:
        raise DomainError("moduli not coprime")
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


# ---------------------------------------------------------------------------
# polynomials over Q
# ---------------------------------------------------------------------------

PolyQ = tuple[Fraction, ...]


def poly_trim(coeffs) -> PolyQ:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(Fraction(c) for c in cs)


def poly_degree(a: PolyQ) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(a) - 1


def poly_add(a: PolyQ, b: PolyQ) -> PolyQ:
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_sub(a: PolyQ, b: PolyQ) -> PolyQ:
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_mul(a: PolyQ, b: PolyQ) -> PolyQ:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly_trim(out)


def poly_scale(a: PolyQ, c) -> PolyQ:
    return poly_trim([Fraction(c) * x for x in a])


def poly_eval(a: PolyQ, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_monic(a: PolyQ) -> PolyQ:
    if not a:
        return ()
    return poly_scale(a, Fraction(1) / a[-1])


def poly_divmod(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ]:
    if not b:
        raise DomainError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(rem) >= len(b) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b)
        c = rem[-1] / lead
        quo[shift] = c
        for j, cb in enumerate(b):
            rem[shift + j] -= c * cb
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_extended_gcd(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ, PolyQ]:
    """Monic g with g = u*a + v*b; errors on the (0, 0) pair."""
    a, b = poly_trim(a), poly_trim(b)
    if not a and not b:
        raise DomainError("gcd of zero pair")
    one, zero = (Fraction(1),), ()
    r0, r1 = a, b
    u0, u1 = one, zero
    v0, v1 = zero, one
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1))
        v0, v1 = v1, poly_sub(v0, poly_mul(q, v1))
    lead = Fraction(1) / r0[-1]
    return poly_scale(r0, lead), poly_scale(u0, lead), poly_scale(v0, lead)


# ---------------------------------------------------------------------------
# dense integer polynomials (used for cyclotomic moduli)
# ---------------------------------------------------------------------------

PolyZ = tuple[int, ...]


def ip_trim(coeffs) -> PolyZ:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ip_mul(a, b) -> PolyZ:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ip_trim(out)


def ip_divmod_monic(a, b) -> tuple[PolyZ, PolyZ]:
    """Divide by a monic integer polynomial; stays in Z[x]."""
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


def ip_eval(a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ip_derivative(a) -> PolyZ:
    return ip_trim([i * c for i, c in enumerate(a)][1:])


# ---------------------------------------------------------------------------
# polynomials over Z/n
# ---------------------------------------------------------------------------


def np_trim(coeffs, n: int) -> PolyZ:
    cs = [c % n for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def np_add(a, b, n: int) -> PolyZ:
    ln = max(len(a), len(b))
    return np_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(ln)], n
    )


def np_sub(a, b, n: int) -> PolyZ:
    ln = max(len(a), len(b))
    return np_trim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(ln)], n
    )


def np_mul(a, b, n: int) -> PolyZ:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return np_trim(out, n)


def np_divmod(a, b, n: int) -> tuple[PolyZ, PolyZ]:
    if not b:
        raise DomainError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, n)
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] % n
        if c:
            shift = len(rem) - len(b)
            q = c * inv_lead % n
            quo[shift] = q
            for j, cb in enumerate(b):
                rem[shift + j] -= q * cb
        rem.pop()
    return np_trim(quo, n), np_trim(rem, n)


def np_gcd(a, b, p: int) -> PolyZ:
    """Monic gcd over the field Z/p."""
    a, b = np_trim(a, p), np_trim(b, p)
    while b:
        a, b = b, np_divmod(a, b, p)[1]
    if a:
        a = np_trim([c * pow(a[-1], -1, p) for c in a], p)
    return a


def np_powmod(base, e: int, mod, p: int) -> PolyZ:
    result = (1,)
    base = np_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = np_divmod(np_mul(result, base, p), mod, p)[1]
        base = np_divmod(np_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def np_ext_gcd(a, b, p: int):
    """Monic g = u*a + v*b over Z/p."""
    r0, r1 = np_trim(a, p), np_trim(b, p)
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = np_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, np_sub(u0, np_mul(q, u1, p), p)
        v0, v1 = v1, np_sub(v0, np_mul(q, v1, p), p)
    if not r0:
        raise DomainError("gcd of zero pair")
    inv = pow(r0[-1], -1, p)
    scale = lambda t: np_trim([c * inv for c in t], p)
    return scale(r0), scale(u0), scale(v0)


# ---------------------------------------------------------------------------
# finite fields F_{p^f}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteField:
    """F_{char^degree} presented as Z/char[x] modulo a monic irreducible."""

    char: int
    degree: int
    modulus: PolyZ

    def __post_init__(self):
        p, f, mod = self.char, self.degree, self.modulus
        if not is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        if len(mod) != f + 1 or mod[-1] != 1:
            raise DomainError("modulus must be monic of the stated degree")
        # no roots in any proper subfield, and x^(p^f) == x: irreducible
        x = np_divmod((0, 1), mod, p)[1]
        frob = x
        for _ in range(f - 1):
            frob = np_powmod(frob, p, mod, p)
            if len(np_gcd(np_sub(frob, x, p), mod, p)) > 1:
                raise DomainError("modulus is reducible")
        frob = np_powmod(frob, p, mod, p)
        if frob != x:
            raise DomainError("modulus is reducible")

    @property
    def order(self) -> int:
        return self.char**self.degree

    def elt(self, coeffs) -> "FFElt":
        return FFElt(self, np_divmod(np_trim(coeffs, self.char), self.modulus, self.char)[1])

    def from_int(self, n: int) -> "FFElt":
        return self.elt((n,))

    @property
    def zero(self) -> "FFElt":
        return self.elt(())

    @property
    def one(self) -> "FFElt":
        return self.elt((1,))

    @property
    def gen(self) -> "FFElt":
        """Residue class of x."""
        return self.elt((0, 1))

    def elements(self):
        """Deterministic enumeration, constant term fastest."""
        p, f = self.char, self.degree
        for n in range(self.order):
            digits = []
            k = n
            for _ in range(f):
                digits.append(k % p)
                k //= p
            yield self.elt(digits)


@dataclass(frozen=True)
class FFElt:
    field: FiniteField
    coeffs: PolyZ

    def __add__(self, other):
        return FFElt(self.field, np_add(self.coeffs, other.coeffs, self.field.char))

    def __sub__(self, other):
        return FFElt(self.field, np_sub(self.coeffs, other.coeffs, self.field.char))

    def __mul__(self, other):
        p = self.field.char
        prod = np_mul(self.coeffs, other.coeffs, p)
        return FFElt(self.field, np_divmod(prod, self.field.modulus, p)[1])

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FFElt(self.field, np_powmod(self.coeffs, e, self.field.modulus, self.field.char))

    def inverse(self) -> "FFElt":
        if not self.coeffs:
            raise DomainError("inverse of zero")
        g, u, _ = np_ext_gcd(self.coeffs, self.field.modulus, self.field.char)
        if g != (1,):
            raise DomainError("element not invertible")
        return self.field.elt(u)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)


def ff_element_order(x: FFElt) -> int:
    """Order of x in the multiplicative group; errors on zero."""
    if x.is_zero():
        raise DomainError("zero has no multiplicative order")
    group = x.field.order - 1
    e = group
    for p in factorize(group):
        while e % p == 0 and (x ** (e // p)).coeffs == (1,):
            e //= p
    return e


_BSGS_THRESHOLD = 10_000


def ff_discrete_log(base: FFElt, target: FFElt) -> int:
    """Smallest e >= 0 with base^e == target; errors if target is outside <base>.

    Linear scan for small cyclic spans, baby-step/giant-step above.
    """
    if base.is_zero() or target.is_zero():
        raise DomainError("discrete log needs nonzero base and target")
    order = ff_element_order(base)
    one = base.field.one
    if target.coeffs == one.coeffs:
        return 0
    if order < _BSGS_THRESHOLD:
        acc = one
        for e in range(1, order):
            acc = acc * base
            if acc.coeffs == target.coeffs:
                return e
        raise DomainError("not in cyclic span")
    m = math.isqrt(order) + 1
    baby = {}
    acc = one
    for j in range(m):
        baby.setdefault(acc.coeffs, j)
        acc = acc * base
    giant = (base ** m).inverse()
    cur = target
    for i in range(m + 1):
        if cur.coeffs in baby:
            e = i * m + baby[cur.coeffs]
            if e < order:
                return e
        cur = cur * giant
    raise DomainError("not in cyclic span")


def field_with_unity_root(q: int, m: int) -> tuple[FiniteField, FFElt]:
    """Residue field F_{q^f} above q, f = ord(q mod m), with a primitive
    m-th root of unity in it.

    The returned field's modulus is the minimal polynomial of the root, so
    the root is simply the class of x (for f > 1).
    """
    if m == 1:
        fld = FiniteField(q, 1, (0, 1))
        return fld, fld.one
    if math.gcd(q, m) != 1:
        raise DomainError("q must be coprime to m")
    f = multiplicative_order(q, m)
    if f == 1:
        # a root of unity in the prime field itself
        fld = FiniteField(q, 1, (0, 1))
        for c in range(2, q):
            if pow(c, m, q) == 1 and all(
                pow(c, m // p, q) != 1 for p in factorize(m)
            ):
                return fld, fld.from_int(c)
        raise DomainError("no order-m element found")
    scratch = _deterministic_irreducible(q, f)
    cofactor = (q**f - 1) // m
    mfacs = list(factorize(m))
    omega = None
    for g in scratch.elements():
        if g.is_zero():
            continue
        cand = g**cofactor
        if not cand.is_zero() and all((cand ** (m // p)).coeffs != (1,) for p in mfacs):
            if (cand**m).coeffs == (1,):
                omega = cand
                break
    if omega is None:
        raise DomainError("no order-m element found")
    # minimal polynomial of omega: product of (x - omega^(q^i))
    conj = omega
    minpoly = [scratch.zero - conj, scratch.one]
    for _ in range(f - 1):
        conj = conj**q
        new = [scratch.zero] * (len(minpoly) + 1)
        for i, c in enumerate(minpoly):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * conj
        minpoly = new
    coeffs = []
    for c in minpoly:
        if len(c.coeffs) > 1:
            raise DomainError("minimal polynomial did not descend to the prime field")
        coeffs.append(c.coeffs[0] if c.coeffs else 0)
    fld = FiniteField(q, f, np_trim(coeffs, q))
    return fld, fld.gen


def _deterministic_irreducible(p: int, f: int) -> FiniteField:
    """First monic irreducible of degree f over Z/p in lexicographic order."""
    for n in range(p**f):
        digits = []
        k = n
        for _ in range(f):
            digits.append(k % p)
            k //= p
        cand = tuple(digits) + (1,)
        try:
            return FiniteField(p, f, cand)
        except DomainError:
            continue
    raise DomainError("no irreducible polynomial found")  # unreachable for f >= 1


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueInt:
    """An integer residue modulo ell^k."""

    value: int
    modulus: int

    def __post_init__(self):
        if not (0 <= self.value < self.modulus):
            raise DomainError("residue out of range")


def hensel_lift_root(f: PolyZ, ell: int, c: int, k: int) -> ResidueInt:
    """Lift a simple root of f mod ell to a root mod ell^k by Newton steps."""
    if k < 1:
        raise DomainError("precision must be at least 1")
    c %= ell
    if ip_eval(f, c) % ell != 0:
        raise DomainError("not a root modulo ell")
    deriv = ip_derivative(f)
    if ip_eval(deriv, c) % ell == 0:
        raise DomainError("Hensel obstruction")
    r, prec = c, 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = ell**prec
        r = (r - ip_eval(f, r) * pow(ip_eval(deriv, r), -1, mod)) % mod
    if ip_eval(f, r) % ell**k != 0:
        raise InternalInconsistency("Hensel lift is not a root modulo ell^k")
    return ResidueInt(r, ell**k)


def int_padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise DomainError("valuation of zero is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
