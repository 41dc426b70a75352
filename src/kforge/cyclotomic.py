"""Exact arithmetic in Q(zeta_m): Galois action, towers, norms, real subfields.

An element is stored as an integer coefficient vector in the power basis
1, zeta, ..., zeta^(phi(m)-1) together with a single positive denominator,
normalized so gcd(content, denominator) = 1.  Elements of the maximal real
subfield are represented inside Q(zeta_m) as conjugation-invariant vectors;
there is no separate field object for the real subfield.

Products are formed by Kronecker substitution: each numerator vector is
packed into one Python integer, one slot of whole bytes per coefficient, wide
enough for any coefficient of the product plus a sign bit, so that the
polynomial product is a single big-integer product and the coefficients are
read back from its bytes.  A negative slot is stored in two's complement and
borrows one from the slot above, on packing and on unpacking alike.

Every vector that leaves the power basis (a product, a Galois image, an
embedding, a power of zeta) goes through one reduction.  It first folds the
vector modulo x^m - 1, which is exact because Phi_m divides x^m - 1, and
leaves at most m coefficients.  It then clears the top m - phi(m) of them
with the nonzero coefficients of Phi_m alone, which are split once per field
into +1, -1 and the rest.

Field tables (the cyclotomic polynomial and the unit-group enumeration) are
cached in memory per conductor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InternalInconsistency
from .exact_arith import PolyZ, euler_phi, ip_divmod_monic, poly_extended_gcd, poly_trim

# ---------------------------------------------------------------------------
# cyclotomic polynomials and field tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> PolyZ:
    """Monic minimal polynomial of a primitive m-th root of unity over Z."""
    if m < 1:
        raise DomainError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = ip_divmod_monic(num, cyclotomic_polynomial(d))
            if rem:
                raise InternalInconsistency("cyclotomic division left a remainder")
    return num


@dataclass(frozen=True)
class CycloField:
    """Cached arithmetic tables for Q(zeta_m)."""

    m: int
    phi: int
    poly: PolyZ
    unit_group: tuple[int, ...]
    # nonzero coefficients of Phi_m below its leading term: the exponents whose
    # coefficient is +1, those whose coefficient is -1, and (exponent, coeff)
    # for the rest
    tail: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        low = list(enumerate(self.poly[: self.phi]))
        tail = (
            tuple(j for j, c in low if c == 1),
            tuple(j for j, c in low if c == -1),
            tuple((j, c) for j, c in low if c not in (0, 1, -1)),
        )
        object.__setattr__(self, "tail", tail)

    def root(self, e: int = 1) -> "CycloElt":
        """zeta_m^e as a field element."""
        vec = [0] * self.m
        vec[e % self.m] = 1
        return CycloElt(self, tuple(_reduce_vec(self, vec)), 1)

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
    field = CycloField(m, euler_phi(m), poly, units)
    if len(field.poly) - 1 != field.phi or len(field.unit_group) != field.phi:
        raise InternalInconsistency("field table is inconsistent")
    return _FIELDS.setdefault(m, field)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def _reduce_vec(field: CycloField, vec: list[int]) -> list[int]:
    """Reduce an integer coefficient list of any length modulo Phi_m, in place.

    Folding modulo x^m - 1 leaves at most m coefficients; each of the top
    m - phi is then cleared with the sparse tail of Phi_m.
    """
    m, phi = field.m, field.phi
    for i in range(m, len(vec)):
        vec[i % m] += vec[i]
    del vec[m:]
    plus, minus, other = field.tail
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            base = i - phi
            for j in plus:
                vec[base + j] -= c
            for j in minus:
                vec[base + j] += c
            for j, a in other:
                vec[base + j] -= a * c
    del vec[phi:]
    vec.extend([0] * (max(phi, 1) - len(vec)))
    return vec


def _pack(vec, width: int) -> int:
    """sum vec[i] * 256^(width*i) as one integer, for |vec[i]| < 2^(8*width - 1).

    Each slot is written once into a preallocated buffer; a negative slot is
    stored in two's complement and borrows one from the slot above.
    """
    buf = bytearray(width * len(vec))
    pos = borrow = 0
    for c in vec:
        c -= borrow
        buf[pos : pos + width] = c.to_bytes(width, "little", signed=True)
        borrow = 1 if c < 0 else 0
        pos += width
    return int.from_bytes(buf, "little", signed=True)


def _unpack(data: bytes, width: int) -> list[int]:
    """The slots c_i of value = sum c_i * 256^(width*i), |c_i| < 2^(8*width - 1),
    from the two's-complement bytes of value."""
    view = memoryview(data)
    out = []
    carry = 0
    for pos in range(0, len(data), width):
        c = int.from_bytes(view[pos : pos + width], "little", signed=True)
        out.append(c + carry)
        carry = 1 if c < 0 else 0
    return out


def _nonzero_prefix(vec: tuple[int, ...]) -> tuple[int, ...]:
    n = len(vec)
    while n and not vec[n - 1]:
        n -= 1
    return vec[:n]


def _poly_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the integer polynomial product a * b, by Kronecker
    substitution: one big-integer product of the packed vectors."""
    square = a is b
    a, b = _nonzero_prefix(a), _nonzero_prefix(b)
    if not a or not b:
        return []
    bits_a = max(abs(c).bit_length() for c in a)
    bits_b = bits_a if square else max(abs(c).bit_length() for c in b)
    # |product coefficient| < min(len) * 2^(bits_a + bits_b); one more bit for the sign
    bits = bits_a + bits_b + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    packed = _pack(a, width)
    product = packed * packed if square else packed * _pack(b, width)
    del packed
    data = product.to_bytes(width * (len(a) + len(b) - 1), "little", signed=True)
    del product
    return _unpack(data, width)


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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

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


def elt_inverse(x: CycloElt) -> CycloElt:
    """Exact inverse; the cyclotomic polynomial is irreducible so any nonzero
    element is a unit of the field."""
    if x.is_zero():
        raise DomainError("division by zero")
    a = poly_trim([Fraction(c, x.den) for c in x.num])
    phi_poly = poly_trim(x.field.poly)
    g, u, _ = poly_extended_gcd(a, phi_poly)
    if len(g) != 1:
        raise InternalInconsistency("nonzero element shares a factor with the modulus")
    inv = [c / g[0] for c in u]
    return x.field.from_coeffs(inv)


def one_minus_root_inverse(field: CycloField, k: int) -> CycloElt:
    """Inverse of 1 - zeta_m^k, via the closed form
    (1 - w)^(-1) = (1/r) * sum_{i=0}^{r-2} (r-1-i) w^i  for w of order r."""
    k %= field.m
    if k == 0:
        raise DomainError("1 - zeta^0 is zero")
    r = field.m // math.gcd(field.m, k)
    vec = [0] * field.m
    for i in range(r - 1):
        vec[i * k % field.m] += r - 1 - i
    reduced = _reduce_vec(field, vec)
    return _normalized(field, reduced, r)


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

    def compose(self, other: "GaloisElt") -> "GaloisElt":
        if self.field.m != other.field.m:
            raise DomainError("automorphisms of different fields")
        return GaloisElt(self.field, self.a * other.a % self.field.m)

    def inverse(self) -> "GaloisElt":
        if self.field.m == 1:
            return self
        return GaloisElt(self.field, pow(self.a, -1, self.field.m))


def galois_apply(s: GaloisElt, x: CycloElt) -> CycloElt:
    if s.field.m != x.field.m:
        raise DomainError("automorphism and element fields differ")
    m = x.field.m
    if m == 1:
        return x
    vec = [0] * m
    for i, c in enumerate(x.num):
        if c:
            vec[i * s.a % m] += c
    reduced = _reduce_vec(x.field, vec)
    return _normalized(x.field, reduced, x.den)


def conjugate(x: CycloElt) -> CycloElt:
    """Complex conjugation zeta -> zeta^(-1)."""
    if x.field.m == 1:
        return x
    return galois_apply(GaloisElt(x.field, x.field.m - 1), x)


def is_in_real_subfield(x: CycloElt) -> bool:
    return conjugate(x) == x


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_order^exp, not necessarily primitive."""

    order: int
    exp: int

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("order must be positive")
        if not (0 <= self.exp < self.order):
            raise DomainError("exponent out of range")

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(1, 0)

    def primitive_order(self) -> int:
        if self.exp == 0:
            return 1
        return self.order // math.gcd(self.order, self.exp)

    def canonical(self) -> "RootOfUnity":
        """Rewrite with order equal to the primitive order."""
        r = self.primitive_order()
        if r == 1:
            return RootOfUnity(1, 0)
        step = self.order // r
        return RootOfUnity(r, (self.exp // step) % r)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exp * e % self.order).canonical()

    def times(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        e = (self.exp * (n // self.order) + other.exp * (n // other.order)) % n
        return RootOfUnity(n, e).canonical()

    def inverse(self) -> "RootOfUnity":
        return self ** (-1 % self.order if self.order > 1 else 0)

    def as_elt(self, field: CycloField) -> CycloElt:
        if field.m % self.order != 0:
            raise DomainError("root of unity does not live in this field")
        return field.root(self.exp * (field.m // self.order))


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
    big = get_field(m_big)
    k = m_big // m
    vec = [0] * m_big
    for i, c in enumerate(x.num):
        if c:
            vec[i * k % m_big] += c
    reduced = _reduce_vec(big, vec)
    return _normalized(big, reduced, x.den)


def _solve_against_columns(columns: list["CycloElt"], target: "CycloElt", small: CycloField):
    """Rationals b_i with sum b_i * columns_i = target, by Gaussian elimination.

    Raises DomainError when the system is inconsistent (target outside the
    span).  The caller re-verifies the full identity exactly afterwards.
    """
    ncols = len(columns)
    pivots: list[tuple[int, list[Fraction]]] = []
    for r in range(target.field.phi):
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


def restrict_down(x: CycloElt, m_small: int) -> CycloElt:
    """Exact preimage of x under embed_up; errors if x is not in Q(zeta_m)."""
    m = x.field.m
    if m % m_small != 0:
        raise DomainError(f"{m_small} does not divide {m}")
    if m == m_small:
        return x
    small = get_field(m_small)
    basis = [embed_up(small.root(i), m) for i in range(small.phi)]
    sol = _solve_against_columns(basis, x, small)
    cand = small.from_coeffs(sol)
    if embed_up(cand, m) != x:
        raise DomainError("element does not lie in the requested subfield")
    return cand


def divide_into_subfield(target: CycloElt, multiplier: CycloElt, m_small: int) -> CycloElt:
    """The element y of Q(zeta_m_small) with embed(y) * multiplier = target.

    Solving the small linear system sidesteps inverting `multiplier`, whose
    coefficients may be enormous; the identity is re-verified exactly.
    """
    m = target.field.m
    if multiplier.field.m != m:
        raise DomainError("target and multiplier live in different fields")
    if multiplier.is_zero():
        raise DomainError("division by zero")
    small = get_field(m_small)
    columns = [embed_up(small.root(i), m) * multiplier for i in range(small.phi)]
    sol = _solve_against_columns(columns, target, small)
    cand = small.from_coeffs(sol)
    if embed_up(cand, m) * multiplier != target:
        raise DomainError("quotient does not lie in the requested subfield")
    return cand


def _verify_subgroup(H: list[GaloisElt]) -> None:
    if not H:
        raise DomainError("H is empty")
    m = H[0].field.m
    residues = {h.a % m for h in H}
    if len(residues) != len(H) or 1 % m not in residues:
        raise DomainError("H is not a subgroup")
    for a in residues:
        for b in residues:
            if a * b % m not in residues:
                raise DomainError("H is not a subgroup")


def relative_norm(x: CycloElt, H: list[GaloisElt]) -> CycloElt:
    """Product of sigma(x) over a verified subgroup H of the Galois group."""
    _verify_subgroup(H)
    result = x.field.one
    for s in H:
        result = result * galois_apply(s, x)
    return result


def tower_subgroup(field: CycloField, m_small: int) -> list[GaloisElt]:
    """Automorphisms of Q(zeta_m) fixing Q(zeta_m_small), i.e. a = 1 mod m_small."""
    if field.m % m_small != 0:
        raise DomainError("not a subconductor")
    return [GaloisElt(field, a) for a in field.unit_group if a % m_small == 1 % m_small]


def absolute_norm(x: CycloElt) -> Fraction:
    """Norm down to Q: the product over the full unit-group action."""
    if x.is_zero():
        return Fraction(0)
    result = x.field.one
    for a in x.field.unit_group:
        result = result * galois_apply(GaloisElt(x.field, a), x)
    if not result.is_rational():
        raise InternalInconsistency("norm failed to land in Q")
    return result.as_rational()


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
