"""Exact arithmetic in Q(zeta_m): Galois action, towers, minimal polynomials.

An element is stored as an integer coefficient vector in the power basis
1, zeta, ..., zeta^(phi(m)-1) together with a single positive denominator,
normalized so gcd(content, denominator) = 1.  Elements of the maximal real
subfield are represented inside Q(zeta_m) as conjugation-invariant vectors;
there is no separate field object for the real subfield.

A product first splits off the factor x^v of each operand.  If the operand
with fewer nonzero terms has k of them and k^2 is at most the longer
operand's length, the product is made term by term: one scaled, shifted copy
of the other operand per nonzero term, in exact int arithmetic with no slots
(S. C. Johnson, "Sparse polynomial arithmetic", ACM SIGSAM Bull. 8(3),
1974).  So a power of zeta is one scaled copy, and an element lifted from a
subfield (Q(zeta_5) lies in Q(zeta_1705) at stride 341) costs a few scaled
copies of the other operand, not a transform.

Every other product is formed by Kronecker substitution: each numerator
vector is packed into one big number, one slot per coefficient, wide enough
for any coefficient of the product plus a sign, so that the polynomial
product is a single big-number product.  Slots are offset: the product
unpacks by adding one constant, half (half the slot base) in every slot, and
reading every slot unsigned, with no borrow between slots.  A product's size
is min(len) * (bits_a + bits_b) bit-terms, and two switches on it choose
among three evaluations:

- below _TWO_POINT_MIN_SIZE (2 * 10^4), one int multiply at x = 2^W, for W
  the slot width, in slots of whole bytes;
- from there, the same slots at two points x = +-2^h, h = W/2 (D. Harvey,
  "Faster polynomial multiplication via multipoint Kronecker substitution",
  J. Symbolic Comput. 44, 2009).  Packing the even and odd coefficients E, O
  of each operand gives A(+-2^h) = E(2^W) +- 2^h O(2^W), and the two products
  P+ and P-, each of half the size, give the even and odd coefficients of the
  product as (P+ + P-) / 2 and (P+ - P-) / 2^(h+1) in the same W-bit slots, so
  the slot bound is unchanged.  Karatsuba costs two half-size multiplies
  about two thirds of one full-size multiply;
- from _DECIMAL_MIN_SIZE (10^6), w-digit slots in a Decimal, packed as a
  balanced sum of exact Decimal(c) leaves (R. Brent and P. Zimmermann,
  "Modern Computer Arithmetic", 2010, 1.7) and read back by one str() and
  an int() per w-digit slice.  libmpdec multiplies operands this large by a
  number-theoretic transform, where CPython's int stops at Karatsuba: a
  1200-term product of 1000-bit coefficients takes about a quarter of the
  int time.  `decimal` is imported by the first product that needs it.

A binary slot of at most 8 bytes widens to a machine word of 1, 2, 4 or 8
bytes; a slot width is a lower bound, so a wider slot stays exact.  An
operand is then written by one struct.pack of unsigned little-endian words
and the product read back by one struct.unpack.  struct's standard sizes
and byte order make these words the same on every host.  A slot of more
than 8 bytes converts one int to bytes and back per coefficient.  Reading
144 four-byte slots takes 10 us, not 44, and writing them 9 us, not 16
(CPython 3.11, 2-core Xeon).

A slot wider than sys.get_int_max_str_digits() digits takes the binary
packing at any size: the limit binds only the int() of each unpacked slot,
and it is read, never changed.  The decimal context has the largest
precision and exponent range and traps Inexact, Rounded, InvalidOperation
and Overflow, so a product is exact or raises: no rounding can yield a
wrong coefficient.

Every vector that leaves the power basis (a product, a Galois image, an
embedding, a power of zeta) goes through one reduction.  It first folds the
vector modulo x^m - 1, which is exact because Phi_m divides x^m - 1, and
leaves at most m coefficients.  It then divides by Phi_m by reversal.  Phi_m
is the Mobius product of binomials 1 - x^d, so multiplying by Phi_m or by the
power series 1/Phi_m is one pass over the list per binomial; no table of its
coefficients is kept.  Apart from products, every such vector is built on
one length-m list: by `CycloField.from_terms` as a sum of terms c * zeta^e,
or by `CycloField.from_factors` as a product of factors 1 - zeta^K and
their inverses, multiplied out in the group ring Q[C_m] with no reduction
between factors; the exceptions are the columns of `divide_into_subfield`,
which stay unnormalized over one denominator.

There is no norm routine: N(x) is read off the constant term of
`minimal_polynomial`, which is how a unit is recognized, and `kolyvagin`
forms the norms over <sigma_q> by its halving recursion.  There is no field
inverse beyond the inverses of 1 - zeta^K inside `from_factors`: a quotient
is proved as a product identity or solved for by `divide_into_subfield`,
and a negative power raises DomainError.  That solve
keeps its columns over one integer denominator, eliminates on fraction-free
(Bareiss) integer rows and proves the quotient by one integer identity on
every coefficient.  `minimal_polynomial` reads its integer coefficients off
traces by Newton's identities and proves them by evaluation: 2d products.

Field tables (the binomial factors of Phi_m and the unit group) are cached in
memory per conductor.  Q is conductor 1 and takes the same paths as any other.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, mul, sub

from .errors import DomainError, InternalInconsistency
from .exact_arith import factorize

# ---------------------------------------------------------------------------
# field tables
# ---------------------------------------------------------------------------


def _binomial_factors(m: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(m/d)) for the divisors d of m with mu(m/d) != 0: the one
    definition of Phi_m.  For m > 1, Phi_m = prod (1 - x^d)^mu(m/d), since
    the exponents sum to zero; for m = 1 the product 1 - x is -Phi_1."""
    pairs = [(m, 1)]
    for p in factorize(m):
        pairs += [(d // p, -mu) for d, mu in pairs]
    return tuple(pairs)


def _times_binomials(t: list[int], binomials, sign: int) -> list[int]:
    """t * prod (1 - x^d)^(sign * mu) mod x^len(t), in place, over the (d, mu)
    pairs of `binomials`.

    Multiplying by 1 - x^d subtracts t shifted up by d; dividing by it is the
    running sum at stride d.  A binomial with d >= len(t) is 1 and is skipped.
    """
    n = len(t)
    for d, mu in binomials:
        if d >= n:
            continue
        if mu == sign:
            t[d:] = map(sub, t[d:], t[: n - d])
        elif d == 1:
            t[:] = accumulate(t)
        else:
            for i in range(d, n):
                t[i] += t[i - d]
    return t


@dataclass(frozen=True)
class CycloField:
    """Cached arithmetic tables for Q(zeta_m): the unit group, of size phi,
    and the (d, mu(m/d)) binomial factors that the reduction runs through."""

    m: int
    phi: int
    unit_group: tuple[int, ...]
    binomials: tuple[tuple[int, int], ...]

    def from_terms(self, exponents, coeffs, den: int = 1) -> "CycloElt":
        """(sum c * zeta_m^e over zip(exponents, coeffs)) / den, for any
        integer exponents: the terms are folded into one length-m vector,
        reduced mod Phi_m and normalized."""
        m = self.m
        vec = [0] * m
        for e, c in zip(exponents, coeffs):
            if c:
                vec[e % m] += c
        return _normalized(self, _reduce_vec(self, vec), den)

    def from_factors(self, factors, shift: int, limit: Fraction) -> "CycloElt":
        """zeta_m^shift * limit * prod (1 - zeta_m^K)^count over the (K, count)
        pairs of `factors`, multiplied out on one length-m list in Q[C_m] and
        reduced mod Phi_m once.

        There 1 - x^K is a rotation by K and a subtraction.  Its inverse acts
        along the cycles j, j + K, j + 2K, ... of the rotation, each of length
        r = m / gcd(m, K): subtract the cycle's sum s from r times each
        coefficient, then take the running sum.  For the input t, the result
        y has (1 - x^K) y = r t - sum_j s_j x^j (1 + x^K + ... + x^((r-1)K))
        over the cycles' first indices j and sums s_j, and each term of that
        sum maps to 0 in Q(zeta_m), since zeta_m^K != 1 has order r; so y
        maps to r t / (1 - zeta_m^K), and r joins the denominator.
        """
        m = self.m
        vec = [0] * m
        vec[shift % m] = limit.numerator
        den = limit.denominator
        for k, n in factors:
            k %= m
            for _ in range(n):
                vec = list(map(sub, vec, vec[-k:] + vec[:-k]))
            if n >= 0:
                continue
            if not k:
                raise DomainError("1 - zeta^0 is zero")
            r = m // math.gcd(m, k)
            cycles = [[(j + i) % m for i in range(0, r * k, k)] for j in range(m // r)]
            for _ in range(-n):
                for cycle in cycles:
                    t = [vec[i] for i in cycle]
                    s = sum(t)
                    for i, c in zip(cycle, accumulate(r * c - s for c in t)):
                        vec[i] = c
            den *= r**-n
        return _normalized(self, _reduce_vec(self, vec), den)

    def from_rational(self, value) -> "CycloElt":
        return self.from_coeffs([value])

    def from_coeffs(self, coeffs) -> "CycloElt":
        """Element from a sequence of rationals in the power basis."""
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > self.phi:
            raise DomainError("coefficient vector too long")
        den = math.lcm(*[f.denominator for f in fracs])
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        return _normalized(self, nums + [0] * (self.phi - len(nums)), den)

    @property
    def one(self) -> "CycloElt":
        return self.from_rational(1)


_FIELDS: dict[int, CycloField] = {}


def get_field(m: int) -> CycloField:
    """Field tables for conductor m; idempotent under concurrent callers."""
    field = _FIELDS.get(m)
    if field is not None:
        return field
    if m < 1:
        raise DomainError("conductor must be positive")
    units = tuple(a for a in range(1, m + 1) if math.gcd(a, m) == 1)
    return _FIELDS.setdefault(m, CycloField(m, len(units), units, _binomial_factors(m)))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def _reduce_vec(field: CycloField, vec: list[int]) -> list[int]:
    """Reduce an integer coefficient list of any length modulo Phi_m; the list
    passed in is overwritten with the phi coefficients and returned.

    Folding modulo x^m - 1 leaves n <= m coefficients v.  If n > phi, write
    v = Q * Phi_m + R.  Phi_m is palindromic for m >= 2, so the reversed
    quotient is (v_(n-1), ..., v_phi) * Phi_m^(-1) mod x^(n - phi), and then
    R = v - Q * Phi_m mod x^phi.  Both products run through the binomials.
    """
    m, phi = field.m, field.phi
    for i in range(m, len(vec)):
        vec[i % m] += vec[i]
    del vec[m:]
    if len(vec) > phi:
        quo = _times_binomials(vec[: phi - 1 : -1], field.binomials, -1)
        quo.reverse()
        del quo[phi:]
        quo.extend([0] * (phi - len(quo)))
        del vec[phi:]
        vec[:] = map(sub, vec, _times_binomials(quo, field.binomials, 1))
    vec.extend([0] * (phi - len(vec)))
    return vec


def _nonzero_span(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(v, core) with vec = x^v * core as polynomials and core empty or
    nonzero at both ends."""
    n = len(vec)
    while n and not vec[n - 1]:
        n -= 1
    v = 0
    while v < n and not vec[v]:
        v += 1
    return v, vec[v:n]


# Products of at least this many bit-terms, min(len) * (bits_a + bits_b), are
# evaluated at +-2^h and make two int multiplies of half the size; below it
# the packing and unpacking of the second point cost more than they save.
_TWO_POINT_MIN_SIZE = 2 * 10**4

# Products of at least this many bit-terms use the decimal packing; below it
# libmpdec multiplies by Karatsuba too, and the digit strings cost more than
# the multiply saves.
_DECIMAL_MIN_SIZE = 10**6


def _str_digits_allowed(digits: int) -> bool:
    """Whether int <-> str conversions of `digits` digits are allowed; 0 or a
    Python without the limit (before 3.10.7) means no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit == 0 or digits <= limit


def _poly_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the integer polynomial product a * b.

    After the factors x^v are split off, if the operand with fewer nonzero
    terms has k of them and k^2 <= the longer operand's length, the product
    is made term by term, one scaled shift of the other operand per term.
    That gate sits at or below the crossover with the Kronecker product.
    Times against a dense operand, term-wise vs Kronecker in ms, median of 9
    (CPython 3.11, shared 2-core machine); the gate passes k <= 10 at 120
    terms and k <= 34 at 1200:

        120 terms of 64 bits:     k = 10: 0.20 vs 0.29,  k = 16: 0.36 vs 0.40
        1200 terms of 64 bits:    k = 28: 4.5 vs 4.8,    k = 34: 7.2 vs 7.2
        1200 terms of 1000 bits:  k = 4: 11 vs 143,      k = 48: 75 vs 117

    Otherwise the product is a Kronecker substitution at one or two points in
    the binary packing or in the decimal packing, by its size (module
    docstring).  Slots are sized so that half the slot base exceeds |c| for
    every input and product coefficient c.
    """
    square = a is b
    va, a = _nonzero_span(a)
    vb, b = (va, a) if square else _nonzero_span(b)
    if not a or not b:
        return []
    terms_a = len(a) - a.count(0)
    terms_b = terms_a if square else len(b) - b.count(0)
    if min(terms_a, terms_b) ** 2 <= max(len(a), len(b)):
        coeffs = _sparse_product(a, b) if terms_a <= terms_b else _sparse_product(b, a)
        return [0] * (va + vb) + coeffs
    bits_a = max(max(a), -min(a)).bit_length()
    bits_b = bits_a if square else max(max(b), -min(b)).bit_length()
    # |product coefficient| < min(len) * 2^(bits_a + bits_b); one more bit for the sign
    bits = bits_a + bits_b + min(len(a), len(b)).bit_length() + 1
    # floor(bits * 0.30103) + 1 >= the number of decimal digits of 2^bits
    digits = bits * 30103 // 100000 + 1
    size = min(len(a), len(b)) * (bits_a + bits_b)
    if size < _DECIMAL_MIN_SIZE or not _str_digits_allowed(digits):
        points = 1 if size < _TWO_POINT_MIN_SIZE else 2
        coeffs = _binary_product(a, b, (bits + 7) // 8, points)
    else:
        coeffs = _decimal_product(a, b, digits)
    return [0] * (va + vb) + coeffs


def _sparse_product(sparse, dense) -> list[int]:
    """The product as the sum over the nonzero terms c x^i of `sparse` of
    c x^i * dense: k scaled shifts for k terms, in exact int arithmetic."""
    n = len(dense)
    out = [0] * (len(sparse) + n - 1)
    for i, c in enumerate(sparse):
        if c:
            out[i : i + n] = map(add, out[i : i + n], map(mul, dense, repeat(c)))
    return out


# the struct code of an unsigned little-endian word of 1, 2, 4 and 8 bytes
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _binary_product(a, b, width: int, points: int) -> list[int]:
    """The product through int multiplies, in slots of `width` bytes, or of
    a machine word if that is at most 8: one multiply at x = 2^(8 width), or
    with points = 2 two multiplies of half the size at x = +-2^h, h = 4 width
    (module docstring)."""
    if width <= 8:  # widen to a machine word of 1, 2, 4 or 8 bytes
        width = 1 << (width - 1).bit_length()
    word = _WORD_CODES.get(width)
    half = 1 << (8 * width - 1)
    slot = half.to_bytes(width, "little")

    def pack(vec):
        if word:
            biased = struct.pack(f"<{len(vec)}{word}", *map(add, vec, repeat(half)))
        else:
            biased = b"".join((c + half).to_bytes(width, "little") for c in vec)
        return int.from_bytes(biased, "little") - int.from_bytes(slot * len(vec), "little")

    def unpack(value, n):
        value += int.from_bytes(slot * n, "little")
        data = memoryview(value.to_bytes(width * n, "little"))
        del value
        if word:
            return list(map(sub, struct.unpack(f"<{n}{word}", data), repeat(half)))
        return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, width * n, width)]

    n = len(a) + len(b) - 1
    if points == 1:
        packed = pack(a)
        return unpack(packed * packed if b is a else packed * pack(b), n)

    # A(+-2^h) = E(2^(2h)) +- 2^h O(2^(2h)) for the even and odd parts E, O of A
    h = 4 * width

    def at_both_points(vec):
        even, odd = pack(vec[::2]), pack(vec[1::2]) << h
        return even + odd, even - odd

    plus, minus = at_both_points(a)
    if b is a:
        plus, minus = plus * plus, minus * minus
    else:
        plus_b, minus_b = at_both_points(b)
        plus, minus = plus * plus_b, minus * minus_b
        del plus_b, minus_b
    # C(2^h) + C(-2^h) = 2 C_even(2^(2h)) and C(2^h) - C(-2^h) = 2^(h+1) C_odd(2^(2h))
    coeffs = [0] * n
    coeffs[::2] = unpack((plus + minus) >> 1, (n + 1) // 2)
    coeffs[1::2] = unpack((plus - minus) >> (h + 1), n // 2)
    return coeffs


def _decimal_product(a, b, width: int) -> list[int]:
    """The product through one exact Decimal multiply, in slots of `width`
    digits: blocks of k slots merge as lower + upper * 10^(k width), as
    `product` merges factors, and the constant, half in each of the n slots,
    doubles from one Decimal(half) per bit of n.

    The context is built per call, from the limits the decimal module holds
    then: integer arithmetic in it is exact or raises, so nothing can round.
    """
    import decimal

    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
    )
    half = 5 * 10 ** (width - 1)

    def merge(lower, count, upper):
        return exact.add(lower, exact.scaleb(upper, count * width))

    def pack(vec):
        stack = []
        for c in vec:
            count, block = 1, decimal.Decimal(c)
            while stack and stack[-1][0] == count:
                count, block = 2 * count, merge(stack.pop()[1], count, block)
            stack.append((count, block))
        below, acc = stack[0]
        for count, block in stack[1:]:
            acc, below = merge(acc, below, block), below + count
        return acc

    packed = pack(a)
    product = exact.multiply(packed, packed if b is a else pack(b))
    del packed
    n = len(a) + len(b) - 1
    leaf = decimal.Decimal(half)
    bias, count = leaf, 1
    for bit in bin(n)[3:]:  # the bits of n below its leading 1
        bias, count = merge(bias, count, bias), 2 * count
        if bit == "1":
            bias, count = merge(leaf, 1, bias), count + 1
    product = exact.add(product, bias)
    data = str(product).zfill(width * n)
    del product
    return [int(data[i - width : i]) - half for i in range(width * n, 0, -width)]


def _normalized(field: CycloField, nums: list[int], den: int) -> "CycloElt":
    if den == 0:
        raise DomainError("zero denominator")
    if den < 0:
        den, nums = -den, [-c for c in nums]
    g = den
    for c in nums:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [c // g for c in nums]
    return CycloElt(field, tuple(nums), den)


@dataclass(frozen=True)
class CycloElt:
    """Element of Q(zeta_m) as num/den with an integer power-basis vector."""

    field: CycloField
    num: tuple[int, ...]
    den: int

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return Fraction(self.num[0], self.den)

    def _same_field(self, other: "CycloElt") -> None:
        if self.field.m != other.field.m:
            raise DomainError("elements live in different fields")

    def __add__(self, other: "CycloElt") -> "CycloElt":
        self._same_field(other)
        nums = [a * other.den + b * self.den for a, b in zip(self.num, other.num)]
        return _normalized(self.field, nums, self.den * other.den)

    def __sub__(self, other: "CycloElt") -> "CycloElt":
        return self + (-other)

    def __neg__(self) -> "CycloElt":
        return CycloElt(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other: "CycloElt") -> "CycloElt":
        self._same_field(other)
        vec = _reduce_vec(self.field, _poly_product(self.num, other.num))
        return _normalized(self.field, vec, self.den * other.den)

    def __pow__(self, e: int) -> "CycloElt":
        if e < 0:
            raise DomainError("negative exponent: there is no field inverse")
        if e == 0:
            return self.field.one
        base = self
        while not e & 1:
            base, e = base * base, e >> 1
        result = base  # the lowest set bit: no product with one
        while e := e >> 1:
            base = base * base
            if e & 1:
                result = result * base
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloElt)
            and self.field.m == other.field.m
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.m, self.num, self.den))

    def __repr__(self):
        return f"CycloElt(m={self.field.m}, num={self.num}, den={self.den})"


# ---------------------------------------------------------------------------
# Galois action and roots of unity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaloisElt:
    """The automorphism zeta_m -> zeta_m^a of Q(zeta_m)."""

    field: CycloField
    a: int

    def __post_init__(self):
        if math.gcd(self.a, self.field.m) != 1:
            raise DomainError(f"{self.a} is not invertible mod {self.field.m}")


def galois_apply(s: GaloisElt, x: CycloElt) -> CycloElt:
    if s.field.m != x.field.m:
        raise DomainError("automorphism and element fields differ")
    return x.field.from_terms(count(0, s.a), x.num, x.den)


def conjugate(x: CycloElt) -> CycloElt:
    """Complex conjugation zeta -> zeta^(-1)."""
    return galois_apply(GaloisElt(x.field, -1), x)


def is_in_real_subfield(x: CycloElt) -> bool:
    return conjugate(x) == x


def galois_classes(m: int) -> list[int]:
    """Representatives of Gal(F/Q) = (Z/m)^x / {+-1}, F the real subfield of
    Q(zeta_m), smallest member first."""
    return [a for a in get_field(m).unit_group if a <= m - a]


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_order^exp, held in lowest terms.

    Construction takes 0 <= exp < order and divides both by their gcd, so
    gcd(order, exp) = 1 afterwards: order is the primitive order of the root,
    the root 1 is RootOfUnity(1, 0), and equal roots compare and hash equal.
    """

    order: int
    exp: int

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("order must be positive")
        if not (0 <= self.exp < self.order):
            raise DomainError("exponent out of range")
        g = math.gcd(self.order, self.exp)
        object.__setattr__(self, "order", self.order // g)
        object.__setattr__(self, "exp", self.exp // g)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exp * e % self.order)

    def times(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        e = (self.exp * (n // self.order) + other.exp * (n // other.order)) % n
        return RootOfUnity(n, e)


# ---------------------------------------------------------------------------
# towers, norms, minimal polynomials
# ---------------------------------------------------------------------------


def embed_up(x: CycloElt, m_big: int) -> CycloElt:
    """Inclusion Q(zeta_m) -> Q(zeta_m') for m | m', zeta_m -> zeta_m'^(m'/m)."""
    m = x.field.m
    if m_big % m != 0:
        raise DomainError(f"{m} does not divide {m_big}")
    if m_big == m:
        return x
    k = m_big // m
    return get_field(m_big).from_terms(range(0, k * len(x.num), k), x.num, x.den)


def _solve_against_columns(columns: list[list[int]], target: list[int]):
    """Integers (n, d) in lowest terms with sum n_i * columns_i = d * target on
    the rows that fix the only candidate, by fraction-free elimination (E. Bareiss,
    Math. Comp. 22, 1968): a row is reduced against each pivot row in turn as
    (pivot * row - row[col] * pivot_row) / previous pivot, exactly, since every
    entry stays a minor of the rows read.

    Rows are read only until there is one pivot per column, so consistency is
    decided by the caller, which re-checks the full identity exactly and raises
    DomainError when it fails.  A row that is zero in every column but not in
    the target raises DomainError at once.
    """
    ncols = len(columns)
    pivots: list[tuple[int, list[int]]] = []
    for row in zip(*columns, target):
        if len(pivots) == ncols:
            break
        prev = 1
        for col, prow in pivots:
            p, f = prow[col], row[col]
            row = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            prev = p
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is not None:
            pivots.append((lead, row))
        elif row[ncols]:
            raise DomainError("element does not lie in the requested subfield")
    if len(pivots) < ncols:
        raise InternalInconsistency("column set is degenerate")
    # the last pivot is the determinant of the pivot rows, so by Cramer's rule
    # d * solution is integral and each back substitution divides exactly
    d = pivots[-1][1][pivots[-1][0]]
    nums = [0] * ncols
    for col, prow in reversed(pivots):
        nums[col] = (d * prow[ncols] - sum(map(mul, prow, nums))) // prow[col]
    g = math.gcd(d, *nums)
    return [n // g for n in nums], d // g


def divide_into_subfield(target: CycloElt, multiplier: CycloElt, m_small: int) -> CycloElt:
    """The element y of Q(zeta_m_small) with embed(y) * multiplier = target.

    A small linear system sidesteps inverting `multiplier`.  Column i is the
    numerator of embed(zeta_small^i) * multiplier = zeta_m^(i k) * multiplier
    over the one denominator multiplier.den, so y = multiplier.den * n /
    (d * target.den) for integers n, d with sum n_i * column_i = d * target.num:
    fraction-free rows find them and one integer identity re-checks every
    coefficient.  With multiplier 1, y is the exact preimage of target under
    embed_up, and DomainError says that target is not in Q(zeta_m_small).
    """
    field = target.field
    if multiplier.field.m != field.m:
        raise DomainError("target and multiplier live in different fields")
    if multiplier.is_zero():
        raise DomainError("division by zero")
    if m_small < 1 or field.m % m_small != 0:
        raise DomainError(f"{m_small} does not divide {field.m}")
    small = get_field(m_small)
    k = field.m // m_small
    columns = [_reduce_vec(field, [0] * (i * k) + list(multiplier.num)) for i in range(small.phi)]
    nums, d = _solve_against_columns(columns, target.num)
    if any(sum(map(mul, nums, row)) != d * t for *row, t in zip(*columns, target.num)):
        raise DomainError("quotient does not lie in the requested subfield")
    return _normalized(small, [multiplier.den * c for c in nums], d * target.den)


def product(factors) -> CycloElt:
    """The product of a nonempty iterable of elements of one field, multiplied
    as a balanced tree.

    A chain multiplies each factor into an accumulator that ends as wide as
    the whole product, so every step is a full-width lopsided product; the
    tree makes the same len - 1 products, most of them between factors of
    similar, smaller size.  A stack holds the products of 1, 2, 4, ...
    consecutive factors, and two of equal count merge as soon as both exist,
    so at most log2(len) + 1 partial products are alive at once and the
    factors may be generated one by one.
    """
    stack: list[tuple[int, CycloElt]] = []
    for x in factors:
        count = 1
        while stack and stack[-1][0] == count:
            count, x = 2 * count, stack.pop()[1] * x
        stack.append((count, x))
    if not stack:
        raise DomainError("empty product")
    acc = stack.pop()[1]
    while stack:
        acc = stack.pop()[1] * acc
    return acc


def minimal_polynomial(x: CycloElt) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of x over Q, as Fractions, low degree first.

    Its degree d is the size of the orbit of x.  The d conjugates of the
    algebraic integer y = den * x have power sums p_k = (d/phi) Tr(y^k), where
    Tr(zeta^j) is the Ramanujan sum of e mu(m/e) over the binomials with e | j,
    and Newton's identities k e_k = sum_{i<=k} (-1)^(i-1) e_(k-i) p_i give the
    integer coefficients of their product P (H. Cohen, GTM 138, 4.3).  Whatever
    the two floor divisions give, P is monic and integral of degree [Q(y):Q],
    so P(y) = 0 proves it minimal; x has P(den T) / den^d."""
    field = x.field
    d = len(dict.fromkeys(galois_apply(GaloisElt(field, a), x) for a in field.unit_group))
    traces = [sum(e * mu for e, mu in field.binomials if j % e == 0) for j in range(field.phi)]
    y = CycloElt(field, x.num, 1)
    sums, elem = [], [1]
    for k, power in enumerate(accumulate(repeat(y, d), mul), 1):
        sums.append(sum(map(mul, traces, power.num)) // (field.phi // d))
        elem.append(sum((-1) ** i * elem[k - 1 - i] * sums[i] for i in range(k)) // k)
    coeffs = [(-1) ** k * elem[k] for k in range(d, -1, -1)]
    acc = y + field.from_rational(coeffs[-2])
    for c in reversed(coeffs[:-2]):
        acc = acc * y + field.from_rational(c)
    if not acc.is_zero():
        raise InternalInconsistency("minimal polynomial does not vanish at its element")
    return tuple(Fraction(c, x.den ** (d - i)) for i, c in enumerate(coeffs))


def elt_to_strings(x: CycloElt) -> dict:
    """Decimal-string serialization used by reports."""
    return {
        "conductor": str(x.field.m),
        "den": str(x.den),
        "num": [str(c) for c in x.num],
    }
