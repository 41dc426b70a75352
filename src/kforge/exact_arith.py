"""Exact arithmetic kernels: integer number theory, rational and integer
polynomials, Hensel lifts.

Conventions used throughout the package:

* rationals are `fractions.Fraction`, always in lowest terms;
* a polynomial is a tuple of coefficients, lowest degree first, with no
  trailing zero; ``()`` is the zero polynomial.

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


def int_dlog(base: int, target: int, q: int) -> int:
    """Smallest e >= 0 with base^e = target mod q, by a linear scan; errors on a
    target divisible by q and on a target outside the span of base."""
    target %= q
    if target == 0:
        raise DomainError("zero has no discrete log")
    cur = 1
    for e in range(q - 1):
        if cur == target:
            return e
        cur = cur * base % q
    raise DomainError("not in cyclic span")


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
