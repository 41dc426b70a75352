"""Exact arithmetic in Q(zeta_m): Galois action, towers, norms, real subfields.

An element is stored as an integer coefficient vector in the power basis
1, zeta, ..., zeta^(phi(m)-1) together with a single positive denominator,
normalized so gcd(content, denominator) = 1.  Elements of the maximal real
subfield are represented inside Q(zeta_m) as conjugation-invariant vectors;
there is no separate field object for the real subfield.

Products are formed by Kronecker substitution: after splitting off the factor
x^v of each operand (so a power of zeta is a shift, not a product), each
numerator vector is packed into one big number, one slot per coefficient,
wide enough for any coefficient of the product plus a sign, so that the
polynomial product is a single big-number product.  Slots are offset: a slot
holds c + half, half being half its base, as an unsigned number, so a vector
packs as the join of its biased slots minus one constant, and the product
unpacks by adding that constant back and reading every slot unsigned, with
no borrow between slots.  There are two packings:

- binary: slots of whole bytes in a Python int, read back from its bytes;
- decimal: slots of w digits in a Decimal, packed by one join of zero-padded
  digit strings and read back by one str() and an int() per w-digit slice.
  libmpdec multiplies operands this large by a number-theoretic transform,
  where CPython's int stops at Karatsuba: a 1200-term product of 1000-bit
  coefficients takes about a quarter of the int time.

A product takes the decimal packing when min(len) * (bits_a + bits_b), its
size in bit-terms, is at least _DECIMAL_MIN_SIZE (10^6).  Below that libmpdec
also multiplies by Karatsuba and the digit strings cost more than they save,
which the benchmark's one-prime kappa levels (degree 120-240) measure.  A
slot wider than sys.get_int_max_str_digits() digits also takes the binary
packing, since str() and int() refuse it; the limit is read, never changed.
The decimal context has the largest precision and exponent range and traps
Inexact, Rounded, InvalidOperation and Overflow, so a product is exact or
raises: no rounding can yield a wrong coefficient.

Every vector that leaves the power basis (a product, a Galois image, an
embedding, a power of zeta) goes through one reduction.  It first folds the
vector modulo x^m - 1, which is exact because Phi_m divides x^m - 1, and
leaves at most m coefficients.  It then divides by Phi_m by reversal.  Phi_m
is the Mobius product of binomials 1 - x^d, so multiplying by Phi_m or by the
power series 1/Phi_m is one pass over the list per binomial; Phi_m itself is
built by the same passes.  Apart from products, every such vector is a sum of
terms c * zeta^e and is built by `CycloField.from_terms`.

Field tables (the cyclotomic polynomial, its binomial factors and the
unit-group enumeration) are cached in memory per conductor.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import sub

from .errors import DomainError, InternalInconsistency
from .exact_arith import PolyZ, euler_phi, factorize, poly_trim

# ---------------------------------------------------------------------------
# cyclotomic polynomials and field tables
# ---------------------------------------------------------------------------


def _binomial_factors(m: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(m/d)) for the divisors d of m with mu(m/d) != 0.  For m > 1,
    Phi_m = prod (1 - x^d)^mu(m/d), since the exponents sum to zero."""
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


def cyclotomic_polynomial(m: int) -> PolyZ:
    """Monic minimal polynomial of a primitive m-th root of unity over Z.

    For m > 1 it is the binomial product of `_binomial_factors`, taken
    mod x^(phi(m) + 1), which holds all of it.
    """
    if m < 1:
        raise DomainError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    return tuple(_times_binomials([1] + [0] * euler_phi(m), _binomial_factors(m), 1))


@dataclass(frozen=True)
class CycloField:
    """Cached arithmetic tables for Q(zeta_m): Phi_m, the unit group and the
    (d, mu(m/d)) binomial factors of Phi_m that the reduction runs through."""

    m: int
    phi: int
    poly: PolyZ
    unit_group: tuple[int, ...]
    binomials: tuple[tuple[int, int], ...]

    def root(self, e: int = 1) -> "CycloElt":
        """zeta_m^e as a field element."""
        return self.from_terms((e,), (1,))

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

    def from_rational(self, value) -> "CycloElt":
        value = Fraction(value)
        vec = [0] * max(self.phi, 1)
        vec[0] = value.numerator
        return CycloElt(self, tuple(vec), value.denominator)

    def from_coeffs(self, coeffs) -> "CycloElt":
        """Element from a sequence of rationals in the power basis."""
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) > self.phi:
            raise DomainError("coefficient vector too long")
        fracs += [Fraction(0)] * (self.phi - len(fracs))
        den = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
        nums = [int(f * den) for f in fracs]
        return _normalized(self, nums, den)

    @property
    def zero(self) -> "CycloElt":
        return CycloElt(self, tuple([0] * max(self.phi, 1)), 1)

    @property
    def one(self) -> "CycloElt":
        return self.from_rational(1)


_FIELDS: dict[int, CycloField] = {}


def get_field(m: int) -> CycloField:
    """Field tables for conductor m; idempotent under concurrent callers."""
    field = _FIELDS.get(m)
    if field is not None:
        return field
    poly = cyclotomic_polynomial(m)
    units = tuple(a for a in range(1, m + 1) if math.gcd(a, m) == 1) if m > 1 else (1,)
    field = CycloField(m, euler_phi(m), poly, units, _binomial_factors(m))
    if len(field.poly) - 1 != field.phi or len(field.unit_group) != field.phi:
        raise InternalInconsistency("field table is inconsistent")
    return _FIELDS.setdefault(m, field)


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
    vec.extend([0] * (max(phi, 1) - len(vec)))
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


# Products of fewer bit-terms, min(len) * (bits_a + bits_b), use the binary
# packing: there libmpdec multiplies by Karatsuba too, and the digit strings
# cost more than the multiply saves.
_DECIMAL_MIN_SIZE = 10**6

# Integer arithmetic in this context is exact or raises: nothing can round.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


def _str_digits_allowed(digits: int) -> bool:
    """Whether int <-> str conversions of `digits` digits are allowed; 0 or a
    Python without the limit (before 3.10.7) means no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit == 0 or digits <= limit


def _poly_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the integer polynomial product a * b, by Kronecker
    substitution in the binary or the decimal packing (module docstring).

    Slots are sized so that half the slot base exceeds |c| for every input
    and product coefficient c.
    """
    square = a is b
    va, a = _nonzero_span(a)
    vb, b = (va, a) if square else _nonzero_span(b)
    if not a or not b:
        return []
    bits_a = max(max(a), -min(a)).bit_length()
    bits_b = bits_a if square else max(max(b), -min(b)).bit_length()
    # |product coefficient| < min(len) * 2^(bits_a + bits_b); one more bit for the sign
    bits = bits_a + bits_b + min(len(a), len(b)).bit_length() + 1
    # floor(bits * 0.30103) + 1 >= the number of decimal digits of 2^bits
    digits = bits * 30103 // 100000 + 1
    if min(len(a), len(b)) * (bits_a + bits_b) < _DECIMAL_MIN_SIZE or not _str_digits_allowed(digits):
        coeffs = _binary_product(a, b, square, (bits + 7) // 8)
    else:
        coeffs = _decimal_product(a, b, square, digits)
    return [0] * (va + vb) + coeffs


def _binary_product(a, b, square: bool, width: int) -> list[int]:
    """The product through one int multiply, in slots of `width` bytes."""
    half = 1 << (8 * width - 1)
    slot = half.to_bytes(width, "little")

    def pack(vec):
        biased = b"".join((c + half).to_bytes(width, "little") for c in vec)
        return int.from_bytes(biased, "little") - int.from_bytes(slot * len(vec), "little")

    packed = pack(a)
    product = packed * packed if square else packed * pack(b)
    del packed
    n = len(a) + len(b) - 1
    product += int.from_bytes(slot * n, "little")
    data = memoryview(product.to_bytes(width * n, "little"))
    del product
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, width * n, width)]


def _decimal_product(a, b, square: bool, width: int) -> list[int]:
    """The product through one exact Decimal multiply, in slots of `width`
    digits; a digit string converts to and from a Decimal in linear time."""
    half = 5 * 10 ** (width - 1)
    slot = "5".ljust(width, "0")

    def pack(vec):
        biased = Decimal("".join([f"{c + half:0{width}d}" for c in reversed(vec)]))
        return _EXACT.subtract(biased, Decimal(slot * len(vec)))

    packed = pack(a)
    product = _EXACT.multiply(packed, packed if square else pack(b))
    del packed
    n = len(a) + len(b) - 1
    product = _EXACT.add(product, Decimal(slot * n))
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
            return elt_inverse(self) ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other: "CycloElt") -> "CycloElt":
        return self * elt_inverse(other)

    def scale(self, c) -> "CycloElt":
        c = Fraction(c)
        return _normalized(
            self.field, [x * c.numerator for x in self.num], self.den * c.denominator
        )

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


def one_minus_root_inverse(field: CycloField, k: int) -> CycloElt:
    """Inverse of 1 - zeta_m^k, via the closed form
    (1 - w)^(-1) = (1/r) * sum_{i=0}^{r-2} (r-1-i) w^i  for w of order r."""
    k %= field.m
    if k == 0:
        raise DomainError("1 - zeta^0 is zero")
    r = field.m // math.gcd(field.m, k)
    return field.from_terms(range(0, k * (r - 1), k), range(r - 1, 0, -1), r)


# ---------------------------------------------------------------------------
# Galois action and roots of unity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaloisElt:
    """The automorphism zeta_m -> zeta_m^a of Q(zeta_m)."""

    field: CycloField
    a: int

    def __post_init__(self):
        if self.field.m > 1 and math.gcd(self.a, self.field.m) != 1:
            raise DomainError(f"{self.a} is not invertible mod {self.field.m}")


def galois_apply(s: GaloisElt, x: CycloElt) -> CycloElt:
    if s.field.m != x.field.m:
        raise DomainError("automorphism and element fields differ")
    if x.field.m == 1:
        return x
    return x.field.from_terms(range(0, s.a * len(x.num), s.a), x.num, x.den)


def conjugate(x: CycloElt) -> CycloElt:
    """Complex conjugation zeta -> zeta^(-1)."""
    if x.field.m == 1:
        return x
    return galois_apply(GaloisElt(x.field, x.field.m - 1), x)


def is_in_real_subfield(x: CycloElt) -> bool:
    return conjugate(x) == x


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

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exp % self.order)


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


def _solve_against_columns(columns: list["CycloElt"], target: "CycloElt"):
    """Rationals b_i with sum b_i * columns_i = target, by Gaussian elimination.

    Rows are read only until there is one pivot per column; those rows fix
    the only candidate.  The rows after them are never read, so consistency
    is decided by the caller, which re-verifies the full identity exactly and
    raises DomainError when it fails.  A row that is zero in every column but
    not in the target raises DomainError at once.
    """
    ncols = len(columns)
    pivots: list[tuple[int, list[Fraction]]] = []
    for r in range(target.field.phi):
        if len(pivots) == ncols:
            break
        row = [Fraction(b.num[r], b.den) for b in columns]
        row.append(Fraction(target.num[r], target.den))
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                for j in range(ncols + 1):
                    row[j] -= f * prow[j]
        lead = next((j for j in range(ncols) if row[j]), None)
        if lead is not None:
            inv = Fraction(1) / row[lead]
            row = [c * inv for c in row]
            pivots.append((lead, row))
        elif row[ncols]:
            raise DomainError("element does not lie in the requested subfield")
    if len(pivots) < ncols:
        raise InternalInconsistency("column set is degenerate")
    sol = [Fraction(0)] * ncols
    for col, prow in sorted(pivots, reverse=True):
        val = prow[ncols]
        for j in range(col + 1, ncols):
            val -= prow[j] * sol[j]
        sol[col] = val
    return sol


def divide_into_subfield(target: CycloElt, multiplier: CycloElt, m_small: int) -> CycloElt:
    """The element y of Q(zeta_m_small) with embed(y) * multiplier = target.

    Solving the small linear system sidesteps inverting `multiplier`, whose
    coefficients may be enormous; the identity is re-verified exactly.  With
    multiplier 1, y is the exact preimage of target under embed_up, and
    DomainError says that target does not lie in Q(zeta_m_small).
    """
    field = target.field
    if multiplier.field.m != field.m:
        raise DomainError("target and multiplier live in different fields")
    if multiplier.is_zero():
        raise DomainError("division by zero")
    small = get_field(m_small)
    if field.m % m_small != 0:
        raise DomainError(f"{m_small} does not divide {field.m}")
    # column i is embed(zeta_small^i) * multiplier = zeta_m^(i k) * multiplier
    k = field.m // m_small
    n = len(multiplier.num)
    columns = [
        field.from_terms(range(i * k, i * k + n), multiplier.num, multiplier.den)
        for i in range(small.phi)
    ]
    sol = _solve_against_columns(columns, target)
    # embed_up is linear, so embed(y) * multiplier is sum sol_i * column_i
    total = field.zero
    for c, column in zip(sol, columns):
        if c:
            total = total + column.scale(c)
    if total != target:
        raise DomainError("quotient does not lie in the requested subfield")
    return small.from_coeffs(sol)


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
    result = field.one
    for a in field.unit_group:
        if a % m_small == 1 % m_small:
            result = result * galois_apply(GaloisElt(field, a), x)
    return result


def _norm_and_cofactor(x: CycloElt) -> tuple[Fraction, CycloElt]:
    """N(x) down to Q and the product of the conjugates of x other than x."""
    cofactor = x.field.one
    for a in x.field.unit_group:
        if a != 1:
            cofactor = cofactor * galois_apply(GaloisElt(x.field, a), x)
    norm = x * cofactor
    if not norm.is_rational():
        raise InternalInconsistency("norm failed to land in Q")
    return norm.as_rational(), cofactor


def absolute_norm(x: CycloElt) -> Fraction:
    """Norm down to Q: the product over the full unit-group action."""
    if x.is_zero():
        return Fraction(0)
    return _norm_and_cofactor(x)[0]


def elt_inverse(x: CycloElt) -> CycloElt:
    """Exact inverse of a nonzero x: the product of its other conjugates
    divided by the norm N(x), a nonzero rational since Phi_m is irreducible."""
    if x.is_zero():
        raise DomainError("division by zero")
    norm, cofactor = _norm_and_cofactor(x)
    return cofactor.scale(1 / norm)


def minimal_polynomial(x: CycloElt):
    """Monic minimal polynomial of x over Q (tuple of Fractions, low degree first)."""
    orbit: list[CycloElt] = []
    for a in x.field.unit_group:
        y = galois_apply(GaloisElt(x.field, a), x)
        if y not in orbit:
            orbit.append(y)
    # expand prod (T - y) with coefficients in the field, then read off Q
    coeffs = [x.field.one]
    for y in orbit:
        new = [x.field.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * y
        coeffs = new
    out = []
    for c in coeffs:
        if not c.is_rational():
            raise InternalInconsistency("minimal polynomial has irrational coefficient")
        out.append(c.as_rational())
    return poly_trim(out)


def elt_to_strings(x: CycloElt) -> dict:
    """Decimal-string serialization used by reports."""
    return {
        "conductor": str(x.field.m),
        "den": str(x.den),
        "num": [str(c) for c in x.num],
    }
