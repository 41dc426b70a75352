"""Exact arithmetic kernels: integer number theory, discrete logs, integer
polynomials.  The Teichmueller lifts of roots of unity mod q^k need no kernel
of their own: they are powers, computed where they are used.

Conventions used throughout the package:

* rationals are `fractions.Fraction`, always in lowest terms;
* an integer polynomial (a numerator vector) is a sequence of ints, lowest
  degree first; a minimal polynomial over Q is a tuple of Fractions, too.

All values are immutable and all functions are pure.
"""

from __future__ import annotations

import math

from .errors import DomainError

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
# integer polynomials at integer points (residues and their lifts mod q^k)
# ---------------------------------------------------------------------------


def ip_eval(a, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def int_padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise DomainError("valuation of zero is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
