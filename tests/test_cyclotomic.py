import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kforge import cyclotomic
from kforge.errors import DomainError, InternalInconsistency
from kforge.cyclotomic import (
    GaloisElt,
    RootOfUnity,
    absolute_norm,
    conjugate,
    cyclotomic_polynomial,
    divide_into_subfield,
    elt_inverse,
    embed_up,
    galois_apply,
    get_field,
    is_in_real_subfield,
    minimal_polynomial,
    one_minus_root_inverse,
    relative_norm,
    _binomial_factors,
    _poly_product,
    _reduce_vec,
    _solve_against_columns,
)
from kforge.exact_arith import euler_phi, factorize, ip_trim, is_prime, poly_trim


def ip_mul(a, b):
    """Schoolbook product of integer polynomials, the reference for the
    cyclotomic-polynomial tests."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ip_trim(out)


def ip_divmod_monic(a, b):
    """Division by a monic integer polynomial, staying in Z[x]; the oracle's
    exact quotient."""
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


def coeffs(x):
    """The power-basis coefficients of x as rationals."""
    return tuple(Fraction(c, x.den) for c in x.num)


def mobius(n):
    out = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        out = -out
    return out


def cyclotomic_oracle(m):
    """Independent construction: prod over d | m of (x^(m/d) - 1)^mu(d)."""
    num = (1,)
    den = (1,)
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = mobius(d)
        f = tuple([-1] + [0] * (m // d - 1) + [1])
        if mu == 1:
            num = ip_mul(num, f)
        elif mu == -1:
            den = ip_mul(den, f)
    quo, rem = ip_divmod_monic(num, den)
    assert rem == ()
    return quo


class TestCyclotomicPolynomial:
    def test_small(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    # 105 and 210 have a coefficient -2; 273 is a product of three odd primes
    @pytest.mark.parametrize("m", list(range(1, 31)) + [105, 210, 273])
    def test_against_mobius_oracle(self, m):
        assert cyclotomic_polynomial(m) == cyclotomic_oracle(m)

    @pytest.mark.parametrize("m", [6, 15, 24, 35])
    def test_divisor_product(self, m):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = ip_mul(prod, cyclotomic_polynomial(d))
        assert prod == ip_trim([-1] + [0] * (m - 1) + [1])

    def test_zero_conductor_rejected(self):
        with pytest.raises(DomainError):
            cyclotomic_polynomial(0)

    @pytest.mark.parametrize("m", [2, 12, 45, 210, 273])
    def test_binomial_factors(self, m):
        pairs = _binomial_factors(m)
        divisors = [d for d in range(1, m + 1) if m % d == 0 and mobius(m // d)]
        assert sorted(pairs) == [(d, mobius(m // d)) for d in divisors]
        assert sum(mu for _, mu in pairs) == 0
        assert get_field(m).binomials == pairs


def rand_elt(field, draw_ints):
    return field.from_coeffs([Fraction(c, 1 + abs(d)) for c, d in draw_ints])


small_coeffs = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(0, 3)), min_size=4, max_size=4
)


class TestEltArithmetic:
    def test_inverse_examples(self):
        f5 = get_field(5)
        assert elt_inverse(f5.root(1)) == f5.root(4)
        f3 = get_field(3)
        assert elt_inverse(f3.one + f3.root(1)) == -f3.root(1)
        with pytest.raises(DomainError, match="division by zero"):
            elt_inverse(f5.zero)

    @settings(max_examples=40, deadline=None)
    @given(small_coeffs)
    def test_inverse_round_trip(self, coeffs):
        f = get_field(5)
        x = rand_elt(f, coeffs)
        if x.is_zero():
            return
        assert x * elt_inverse(x) == f.one

    @settings(max_examples=40, deadline=None)
    @given(small_coeffs, small_coeffs)
    def test_field_axioms_sample(self, ca, cb):
        f = get_field(5)
        a, b = rand_elt(f, ca), rand_elt(f, cb)
        assert (a + b) - b == a
        assert a * b == b * a

    def test_closed_form_unity_inverse(self):
        for m in (5, 7, 12, 55):
            f = get_field(m)
            for k in (1, 2, m - 1):
                inv = one_minus_root_inverse(f, k)
                assert (f.one - f.root(k)) * inv == f.one


class TestGalois:
    def test_action_examples(self):
        f5 = get_field(5)
        assert galois_apply(GaloisElt(f5, 2), f5.root(1)) == f5.root(2)
        real = f5.root(1) + f5.root(-1)
        assert galois_apply(GaloisElt(f5, 4), real) == real

    def test_composition(self):
        f7 = get_field(7)
        x = f7.root(1)
        lhs = galois_apply(GaloisElt(f7, 3), galois_apply(GaloisElt(f7, 2), x))
        assert lhs == galois_apply(GaloisElt(f7, 6), x)

    def test_bad_residue_rejected(self):
        with pytest.raises(DomainError):
            GaloisElt(get_field(10), 5)

    @settings(max_examples=30, deadline=None)
    @given(small_coeffs, small_coeffs, st.sampled_from([1, 2, 3, 4]))
    def test_ring_homomorphism(self, ca, cb, a):
        f = get_field(5)
        x, y = rand_elt(f, ca), rand_elt(f, cb)
        s = GaloisElt(f, a)
        assert galois_apply(s, x + y) == galois_apply(s, x) + galois_apply(s, y)
        assert galois_apply(s, x * y) == galois_apply(s, x) * galois_apply(s, y)

    @settings(max_examples=30, deadline=None)
    @given(small_coeffs)
    def test_times_conjugate_is_real(self, ca):
        f = get_field(5)
        x = rand_elt(f, ca)
        assert is_in_real_subfield(x * conjugate(x))


class TestTower:
    def test_embed_examples(self):
        f5, f15 = get_field(5), get_field(15)
        assert embed_up(f5.root(1), 15) == f15.root(3)
        assert embed_up(f5.from_rational(Fraction(7, 3)), 15) == f15.from_rational(
            Fraction(7, 3)
        )
        prod = embed_up(get_field(3).root(1), 15) * embed_up(f5.root(1), 15)
        assert prod == f15.root(8)

    def test_embed_requires_divisibility(self):
        with pytest.raises(DomainError):
            embed_up(get_field(5).root(1), 12)

    def test_embed_associative(self):
        x = get_field(5).root(1) + get_field(5).from_rational(2)
        assert embed_up(embed_up(x, 15), 45) == embed_up(x, 45)

    def test_embed_commutes_with_galois(self):
        f5 = get_field(5)
        x = f5.root(1) + f5.root(2).scale(3)
        a = 2
        lift = 17  # 17 = 2 mod 5 and is a unit mod 15
        lhs = embed_up(galois_apply(GaloisElt(f5, a), x), 15)
        rhs = galois_apply(GaloisElt(get_field(15), lift % 15), embed_up(x, 15))
        assert lhs == rhs

    def test_restrict_round_trip(self):
        # dividing by 1 is the exact preimage under embed_up
        f5 = get_field(5)
        x = f5.root(1).scale(Fraction(2, 3)) + f5.from_rational(5)
        assert divide_into_subfield(embed_up(x, 35), get_field(35).one, 5) == x

    def test_restrict_rejects_outsiders(self):
        f15 = get_field(15)
        with pytest.raises(DomainError, match="does not lie in the requested subfield"):
            divide_into_subfield(f15.root(1), f15.one, 5)

    def test_divide_into_subfield(self):
        f5, f55 = get_field(5), get_field(55)
        y = f5.root(1) + f5.from_rational(3)
        mult = f55.root(7) + f55.from_rational(2)
        target = embed_up(y, 55) * mult
        assert divide_into_subfield(target, mult, 5) == y


class TestSubfieldSolve:
    """The solve reads rows only until it has one pivot per column, so the
    caller's exact re-check alone must refuse a target that is wrong in a
    later row."""

    @staticmethod
    def system(kind):
        f5, f55 = get_field(5), get_field(55)
        y = f5.root(1).scale(Fraction(2, 3)) + f5.from_rational(3)
        mult = f55.one if kind == "restrict" else f55.root(7) + f55.from_rational(2)
        columns = [embed_up(f5.root(i), 55) * mult for i in range(f5.phi)]
        return y, mult, columns, embed_up(y, 55) * mult

    @pytest.mark.parametrize("kind", ["restrict", "divide"])
    def test_inconsistent_tail_fails_the_final_check(self, kind):
        y, mult, columns, target = self.system(kind)
        f55 = target.field
        assert divide_into_subfield(target, mult, 5) == y
        # the last row comes after the pivot rows: the solver never reads it
        # and returns the valid quotient's coefficients
        bad = target + f55.root(f55.phi - 1)
        assert bad.num[:-1] == target.num[:-1] and bad.num[-1] != target.num[-1]
        assert _solve_against_columns(columns, bad) == list(coeffs(y))
        with pytest.raises(DomainError, match="does not lie in the requested subfield"):
            divide_into_subfield(bad, mult, 5)

    def test_divide_at_degree_1200(self):
        # 1000-bit coefficients at m = 1705, the stretch run's field; the
        # columns and the re-check are shifts and scalings, not products
        f5, big = get_field(5), get_field(1705)
        rng = random.Random(1705)
        y = f5.from_coeffs([rng.getrandbits(1000) - 2**999 for _ in range(f5.phi)])
        mult = big.from_coeffs([rng.getrandbits(1000) - 2**999 for _ in range(big.phi)])
        target = embed_up(y, 1705) * mult
        assert divide_into_subfield(target, mult, 5) == y
        with pytest.raises(DomainError, match="does not lie in the requested subfield"):
            divide_into_subfield(target + big.root(big.phi - 1), mult, 5)

    def test_row_outside_every_column_raises_at_once(self):
        _, _, columns, target = self.system("restrict")
        # the embedded powers of zeta_5 are zeta_55^(11 i): row 1 is zero in
        # every column
        assert all(c.num[1] == 0 for c in columns)
        bad = target + target.field.root(1)
        with pytest.raises(DomainError, match="requested subfield"):
            _solve_against_columns(columns, bad)

    def test_degenerate_columns(self):
        _, _, columns, _ = self.system("divide")
        columns[1] = columns[0].scale(3)
        # a target inside their span: every row is consistent, but no row
        # gives the fourth pivot
        target = columns[0] + columns[2] - columns[3]
        with pytest.raises(InternalInconsistency, match="degenerate"):
            _solve_against_columns(columns, target)


class TestNorms:
    def test_relative_norm_full_group(self):
        f5 = get_field(5)
        x = f5.one - f5.root(1)
        assert relative_norm(x, 1) == f5.from_rational(5)

    def test_rational_power(self):
        # Q(zeta_15) has degree 2 over Q(zeta_5)
        f15 = get_field(15)
        assert relative_norm(f15.from_rational(3), 5) == f15.from_rational(9)

    def test_root_of_unity_down_one_level(self):
        # the units a = 1 mod 5 of Z/15 are 1 and 11: zeta * zeta^11 = zeta_5^4
        f15 = get_field(15)
        assert relative_norm(f15.root(1), 5) == f15.root(12)

    @pytest.mark.parametrize("m_small", [4, 30, 0, -5])
    def test_rejects_a_conductor_that_does_not_divide(self, m_small):
        f15 = get_field(15)
        with pytest.raises(DomainError, match="not a subconductor"):
            relative_norm(f15.root(1), m_small)

    def test_absolute_norm_examples(self):
        f5 = get_field(5)
        assert absolute_norm(f5.root(1)) == 1
        assert absolute_norm(f5.from_rational(2)) == 16
        golden = -(f5.root(2) + f5.root(3))
        assert absolute_norm(golden) == 1
        assert absolute_norm(f5.zero) == 0

    @settings(max_examples=25, deadline=None)
    @given(small_coeffs, small_coeffs)
    def test_norm_multiplicative(self, ca, cb):
        f = get_field(5)
        x, y = rand_elt(f, ca), rand_elt(f, cb)
        assert absolute_norm(x * y) == absolute_norm(x) * absolute_norm(y)

    @settings(max_examples=20, deadline=None)
    @given(small_coeffs)
    def test_relative_equals_absolute_over_full_group(self, ca):
        f = get_field(5)
        x = rand_elt(f, ca)
        assert relative_norm(x, 1) == f.from_rational(absolute_norm(x))

    @settings(max_examples=20, deadline=None)
    @given(small_coeffs, st.sampled_from([5, 15]))
    def test_norm_to_the_own_conductor_is_the_element(self, ca, m):
        x = rand_elt(get_field(m), ca)
        assert relative_norm(x, m) == x

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 3)), min_size=1, max_size=8))
    def test_transitive_through_conductor_15(self, ca):
        # N_{105/1} = N_{15/1} o N_{105/15}, the middle norm read in Q(zeta_15)
        f = get_field(105)
        x = rand_elt(f, ca)
        middle = divide_into_subfield(relative_norm(x, 15), f.one, 15)
        assert embed_up(relative_norm(middle, 1), 105) == relative_norm(x, 1)
        assert relative_norm(x, 1) == f.from_rational(absolute_norm(x))

    def test_product_missing_a_conjugate_is_refused(self):
        f = get_field(105)
        x = f.from_rational(2) + f.root(1)
        fixing = [a for a in f.unit_group if a % 15 == 1]
        assert len(fixing) == 6
        partial = f.one
        for a in fixing[:-1]:
            partial = partial * galois_apply(GaloisElt(f, a), x)
        with pytest.raises(DomainError, match="requested subfield"):
            divide_into_subfield(partial, f.one, 15)
        full = partial * galois_apply(GaloisElt(f, fixing[-1]), x)
        assert full == relative_norm(x, 15)
        assert embed_up(divide_into_subfield(full, f.one, 15), 105) == full


class TestMinimalPolynomial:
    def test_examples(self):
        f3 = get_field(3)
        assert minimal_polynomial(f3.root(1)) == poly_trim([1, 1, 1])
        f5 = get_field(5)
        golden = -(f5.root(2) + f5.root(3))
        assert minimal_polynomial(golden) == poly_trim([-1, -1, 1])
        assert minimal_polynomial(f5.from_rational(Fraction(3, 2))) == poly_trim(
            [Fraction(-3, 2), 1]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([5, 7, 9, 15]),
        st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([0, 0, 0, 1, 2])), min_size=1, max_size=8),
    )
    @example(15, [(1, 1)] * 8)
    def test_denominator_one_exactly_when_integral(self, m, ca):
        # the power basis is an integral basis of Z[zeta_m], so a normalized
        # element is integral exactly when its denominator is 1
        field = get_field(m)
        x = rand_elt(field, ca[: field.phi])
        integral = all(c.denominator == 1 for c in minimal_polynomial(x))
        assert (x.den == 1) == integral

    @settings(max_examples=20, deadline=None)
    @given(small_coeffs)
    def test_annihilates(self, ca):
        f = get_field(5)
        x = rand_elt(f, ca)
        mp = minimal_polynomial(x)
        acc = f.zero
        for c in reversed(mp):
            acc = acc * x + f.from_rational(c)
        assert acc.is_zero()


def lowest_terms(t):
    """(order, exp) of zeta^t for the rational t taken mod 1: the root's
    point in Q/Z, the oracle for RootOfUnity."""
    t %= 1
    return (t.denominator, t.numerator)


roots_of_unity = st.integers(1, 60).flatmap(
    lambda o: st.tuples(st.just(o), st.integers(0, o - 1))
)


class TestRootOfUnity:
    def test_canonicalization(self):
        assert (RootOfUnity(15, 5).order, RootOfUnity(15, 5).exp) == (3, 1)
        assert RootOfUnity(15, 0) == RootOfUnity(1, 0)

    @settings(max_examples=200, deadline=None)
    @given(roots_of_unity, roots_of_unity, st.integers(1, 12), st.integers(-40, 40))
    def test_lowest_terms_against_fractions_mod_one(self, r, s, k, e):
        z, w = RootOfUnity(*r), RootOfUnity(*s)
        t, u = Fraction(r[1], r[0]), Fraction(s[1], s[0])
        scaled = RootOfUnity(k * r[0], k * r[1])
        assert scaled == z and hash(scaled) == hash(z)
        for root, point in ((z, t), (z.times(w), t + u), (z**e, e * t), (z.inverse(), -t)):
            assert (root.order, root.exp) == lowest_terms(point)

    @pytest.mark.parametrize("order, exp", [(0, 0), (-3, 1), (5, 5), (5, -1), (1, 1)])
    def test_out_of_range_is_refused(self, order, exp):
        with pytest.raises(DomainError):
            RootOfUnity(order, exp)

    def test_times_and_inverse(self):
        z3, z5 = RootOfUnity(3, 1), RootOfUnity(5, 1)
        assert z3.times(z5) == RootOfUnity(15, 8)
        assert z5.times(z5.inverse()) == RootOfUnity(1, 0)


def test_field_cache_identity():
    assert get_field(35) is get_field(35)
    assert euler_phi(35) == get_field(35).phi


# ---------------------------------------------------------------------------
# differential tests of the element kernels against the schoolbook reference
# ---------------------------------------------------------------------------


def dense_reduce(vec, poly, phi):
    """Reference reduction: clear every coefficient above phi with the whole of Phi_m."""
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            for j in range(phi):
                vec[i - phi + j] -= c * poly[j]
            vec[i] = 0
    del vec[phi:]
    return vec + [0] * (max(phi, 1) - len(vec))


def reference_element(field, vec, den):
    reduced = dense_reduce(list(vec), field.poly, field.phi)
    return field.from_coeffs([Fraction(c, den) for c in reduced])


def schoolbook_mul(x, y):
    a, b = x.num, y.num
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return reference_element(x.field, out, x.den * y.den)


def reference_galois(a, x):
    m = x.field.m
    if m == 1:
        return x
    vec = [0] * m
    for i, c in enumerate(x.num):
        vec[i * a % m] += c
    return reference_element(x.field, vec, x.den)


def reference_embed(x, m_big):
    k = m_big // x.field.m
    vec = [0] * m_big
    for i, c in enumerate(x.num):
        vec[i * k % m_big] += c
    return reference_element(get_field(m_big), vec, x.den)


# 1 and 2; a prime, whose reduction is one step; a prime power; 45, neither
# squarefree nor prime; 105, whose cyclotomic polynomial has a coefficient -2;
# and 273, a product of three odd primes
KERNEL_CONDUCTORS = st.sampled_from([1, 2, 13, 9, 45, 105, 273])


@st.composite
def elements(draw, field, bits=None):
    """Zero, or a numerator vector of `bits`-bit coefficients of mixed sign that
    often sit exactly at +-2^(bits-1), over a small denominator."""
    n = max(field.phi, 1)
    if bits is None:
        bits = draw(st.sampled_from([1, 7, 8, 9, 64, 2000]))
    top = 2 ** (bits - 1)
    coeff = st.one_of(
        st.integers(1 - 2 * top, 2 * top - 1),
        st.sampled_from([0, top, -top, top - 1, 1 - top]),
    )
    num = draw(st.one_of(st.just([0] * n), st.lists(coeff, min_size=n, max_size=n)))
    den = draw(st.integers(1, 12))
    return field.from_coeffs([Fraction(c, den) for c in num])


@st.composite
def slot_vectors(draw, bits=st.sampled_from([1, 2, 6, 7, 8, 9, 63, 64, 65, 2000]) | st.integers(1, 2000)):
    """Vectors of 1-12 coefficients drawn from +-(2^k - 1), +-2^(k - 1), +-1
    and 0 for one k drawn from `bits`, often with leading or trailing zeros."""
    k = draw(bits)
    top, half = 2**k - 1, 2 ** (k - 1)
    vec = draw(st.lists(st.sampled_from([top, -top, half, -half, 1, -1, 0]), min_size=1, max_size=12))
    return tuple([0] * draw(st.integers(0, 3)) + vec + [0] * draw(st.integers(0, 12 - len(vec))))


def record_paths(mp):
    """Patch both product paths to log their names, in call order, to the list returned."""
    paths = []
    for name in ("_binary_product", "_decimal_product"):
        real = getattr(cyclotomic, name)

        def spy(*args, real=real, name=name):
            paths.append(name)
            return real(*args)

        mp.setattr(cyclotomic, name, spy)
    return paths


class TestKernelsAgainstSchoolbook:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_multiply(self, data):
        field = get_field(data.draw(KERNEL_CONDUCTORS))
        x, y = data.draw(elements(field)), data.draw(elements(field))
        assert x * y == schoolbook_mul(x, y)
        assert x * x == schoolbook_mul(x, x)  # squaring packs one operand

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_multiply_unbalanced(self, data):
        field = get_field(data.draw(KERNEL_CONDUCTORS))
        small, big = data.draw(elements(field, bits=1)), data.draw(elements(field, bits=2000))
        assert small * big == schoolbook_mul(small, big)
        assert big * small == schoolbook_mul(big, small)

    @pytest.mark.parametrize("m", [1, 2, 13, 9, 105])
    @pytest.mark.parametrize("bits", [1, 2, 6, 9, 64, 2000])
    def test_multiply_at_the_coefficient_bound(self, m, bits):
        # every coefficient at the largest magnitude of its bit size, so the
        # middle product coefficients reach phi * (2^bits - 1)^2, the bound the
        # slot width is sized for (for m = 105 and 9 bits, exactly 3 bytes plus a sign bit)
        field = get_field(m)
        peak = 2**bits - 1
        plus = field.from_coeffs([peak] * max(field.phi, 1))
        minus = -plus
        for x, y in ((plus, plus), (plus, minus), (minus, minus)):
            assert x * y == schoolbook_mul(x, y)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_galois(self, data):
        field = get_field(data.draw(KERNEL_CONDUCTORS))
        x = data.draw(elements(field))
        a = data.draw(st.sampled_from(field.unit_group))
        assert galois_apply(GaloisElt(field, a), x) == reference_galois(a, x)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_embed(self, data):
        field = get_field(data.draw(KERNEL_CONDUCTORS))
        x = data.draw(elements(field))
        m_big = field.m * data.draw(st.sampled_from([1, 2, 3, 5]))
        assert embed_up(x, m_big) == reference_embed(x, m_big)

    @pytest.mark.parametrize("m", [1, 2, 13, 9, 105])
    def test_roots_of_unity(self, m):
        field = get_field(m)
        for e in range(-1, 2 * m + 1):
            vec = [0] * m
            vec[e % m] = 1
            assert field.root(e) == reference_element(field, vec, 1)
            if e % m:
                assert (field.one - field.root(e)) * one_minus_root_inverse(field, e) == field.one

    @settings(max_examples=120, deadline=None)
    @given(slot_vectors(), slot_vectors())
    # seven 6-bit coefficients size a 16-bit slot biased by 2^15; the middle
    # coefficients of the product, -7 * 63^2, and of the alternating square,
    # -6 * 63^2, lie below -2^14, so a bias one bit smaller underflows; an
    # all-zero vector multiplies to nothing
    @example((63,) * 7, (-63,) * 7)
    @example((63, -63) * 3 + (63,), (1,))
    @example((0, 0, 0), (-1,))
    @example((0, 0, 5), (7, -2**64, 3, 2**63 - 1, -1))
    def test_product_at_slot_boundaries(self, a, b):
        # every product once in decimal slots and once in binary slots
        for min_size, path in ((0, "_decimal_product"), (math.inf, "_binary_product")):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", min_size)
                paths = record_paths(mp)
                assert tuple(_poly_product(a, b)) == ip_mul(a, b)
                assert tuple(_poly_product(a, a)) == ip_mul(a, a)  # squaring packs once
            assert set(paths) <= {path}


class TestProductPaths:
    @pytest.mark.parametrize("shorter, path", [(0, "_decimal_product"), (1, "_binary_product")])
    def test_threshold_reads_the_operands(self, monkeypatch, shorter, path):
        # 1000-bit operands of n terms have n * 2000 bit-terms: the threshold
        # itself goes through decimal, one term fewer through int
        n = cyclotomic._DECIMAL_MIN_SIZE // 2000 - shorter
        rng = random.Random(n)
        a, b = ([rng.getrandbits(1000) - 2**999 for _ in range(n)] for _ in range(2))
        a[-1], b[-1] = 2**999, -(2**999)
        paths = record_paths(monkeypatch)
        assert tuple(_poly_product(tuple(a), tuple(b))) == ip_mul(a, b)
        assert paths == [path]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_products_at_the_digit_limit(self, data):
        # product slots of about as many digits as int <-> str conversions
        # allow: a wider slot sent through decimal would raise ValueError
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int <-> str digit limit")
        edge = limit * 10 // 6  # coefficient bits whose product slot is about `limit` digits
        bits = st.integers(edge - 40, edge + 40)
        a, b = data.draw(slot_vectors(bits)), data.draw(slot_vectors(bits))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", 0)
            assert tuple(_poly_product(a, b)) == ip_mul(a, b)
            assert tuple(_poly_product(b, b)) == ip_mul(b, b)

    @pytest.mark.parametrize("factor", [3, 1 / 3])
    def test_slots_past_the_digit_limit_take_the_int_path(self, monkeypatch, factor):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int <-> str digit limit")
        # coefficients of limit * factor digits: product slots of about twice that
        c = 10 ** int(limit * factor) - 1
        monkeypatch.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", 0)
        paths = record_paths(monkeypatch)
        assert tuple(_poly_product((c, -c, 1), (c, c))) == ip_mul((c, -c, 1), (c, c))
        assert paths == ["_binary_product" if factor > 1 else "_decimal_product"]

    def test_a_rounding_raises(self, monkeypatch):
        # with the precision of the packed operands, the packs are exact and
        # the product, twice as long, must round: the context traps it
        monkeypatch.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", 0)
        real = cyclotomic._decimal_product

        def short_context(a, b, square, width):
            monkeypatch.setattr(cyclotomic._EXACT, "prec", width * max(len(a), len(b)))
            return real(a, b, square, width)

        monkeypatch.setattr(cyclotomic, "_decimal_product", short_context)
        a = tuple(range(1, 41))
        with pytest.raises(decimal.Inexact):
            _poly_product(a, a)

    @pytest.mark.parametrize("k", [0, 1, 341, 1199])
    def test_monomial_times_a_wide_vector_skips_the_transform(self, monkeypatch, k):
        # zeta^k with k < phi is the vector x^k: its product with 1200
        # coefficients of 2000 bits is a shift, not a transform
        field = get_field(1705)
        rng = random.Random(k)
        x = field.from_coeffs([rng.getrandbits(2000) - 2**1999 for _ in range(field.phi)])
        paths = record_paths(monkeypatch)
        shifted = field.from_terms(range(k, k + field.phi), x.num, x.den)
        assert field.root(k) * x == x * field.root(k) == shifted
        assert "_decimal_product" not in paths


# 1 and 2; a prime; prime powers; non-squarefree and even conductors;
# conductors whose quotient is longer than phi (m - phi >= phi); and three odd primes
REDUCTION_CONDUCTORS = [1, 2, 13, 9, 25, 27, 12, 20, 45, 30, 105, 210, 273]


def input_lengths(field):
    """1, phi, phi + 1, m (a Galois image), 2 phi - 1 (a product) and 3m + 2,
    which the fold modulo x^m - 1 shortens."""
    m, phi = field.m, field.phi
    return sorted({1, phi, phi + 1, m, 2 * phi - 1, 3 * m + 2})


def assert_reduces_like_dense(field, vec):
    assert _reduce_vec(field, list(vec)) == dense_reduce(list(vec), field.poly, field.phi)


class TestReduction:
    @pytest.mark.parametrize("m", REDUCTION_CONDUCTORS)
    def test_from_terms_against_reference(self, m):
        field = get_field(m)
        rng = random.Random(m)
        for den in (1, 6, -4):
            # exponents of either sign and beyond m, one of them repeated,
            # with zero among the coefficients
            exponents = [rng.randint(-3 * m, 3 * m) for _ in range(2 * m)]
            exponents.append(exponents[0])
            terms = [rng.choice([0, rng.randint(-(2**70), 2**70)]) for _ in exponents]
            vec = [0] * m
            for e, c in zip(exponents, terms):
                vec[e % m] += c
            assert field.from_terms(exponents, terms, den) == reference_element(field, vec, den)
        assert field.from_terms((), ()) == field.zero

    @pytest.mark.parametrize("m", REDUCTION_CONDUCTORS)
    @pytest.mark.parametrize("bits", [1, 64, 2000])
    def test_against_dense_reduction(self, m, bits):
        field = get_field(m)
        rng = random.Random(m * 7919 + bits)
        for n in input_lengths(field):
            vec = [rng.randint(1 - 2**bits, 2**bits - 1) for _ in range(n)]
            assert_reduces_like_dense(field, vec)

    def test_large_conductor(self):
        field = get_field(1705)
        rng = random.Random(1705)
        for n in (field.m, 2 * field.phi - 1):
            vec = [rng.randint(-(2**63), 2**63) for _ in range(n)]
            assert_reduces_like_dense(field, vec)

    def test_phi_and_product_by_evaluation_at_5187(self):
        # the ring map zeta -> w, for w a primitive m-th root of unity mod a
        # prime ell = 1 (mod m), must send Phi_m to 0 and respect the product
        m = 5187  # 3 * 7 * 13 * 19
        field = get_field(m)
        assert field.phi == 2592
        ell = next(ell for ell in range(m * (2**64 // m) + 1, 2**65, m) if is_prime(ell))
        w = next(
            w
            for w in (pow(g, (ell - 1) // m, ell) for g in range(2, 100))
            if all(pow(w, m // p, ell) != 1 for p in (3, 7, 13, 19))
        )

        def at_w(coeffs):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * w + c) % ell
            return acc

        assert at_w(field.poly) == 0
        assert field.poly[-1] == 1 and field.poly == field.poly[::-1]
        rng = random.Random(5187)
        x, y = (
            field.from_coeffs([rng.randint(-(2**63), 2**63) for _ in range(field.phi)])
            for _ in range(2)
        )
        z = x * y
        assert at_w(z.num) * x.den * y.den % ell == at_w(x.num) * at_w(y.num) * z.den % ell


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 21, 105])
def test_product_against_sympy(m):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ")
    field = get_field(m)
    rng = random.Random(m)

    def draw():
        return [Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 9)) for _ in range(max(field.phi, 1))]

    def as_poly(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")

    for _ in range(4):
        a, b = draw(), draw()
        rem = sympy.rem(as_poly(a) * as_poly(b), modulus)
        expected = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
        expected += [Fraction(0)] * (max(field.phi, 1) - len(expected))
        assert coeffs(field.from_coeffs(a) * field.from_coeffs(b)) == tuple(expected)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 12, 15, 21])
def test_minimal_polynomial_against_sympy(m):
    # the resultant of T - y(z) and Phi_m(z) is the characteristic polynomial
    # of y, a power of its minimal polynomial: sympy must find one factor
    sympy = pytest.importorskip("sympy")
    T, z = sympy.symbols("T z")
    field = get_field(m)
    rng = random.Random(m)
    x = field.from_coeffs([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.phi)])
    for y in (x, x + conjugate(x), x * conjugate(x), field.from_rational(Fraction(-7, 2))):
        a = sum(sympy.Rational(c, y.den) * z**i for i, c in enumerate(y.num))
        charpoly = sympy.resultant(T - a, sympy.cyclotomic_poly(m, z), z)
        _, factors = sympy.factor_list(charpoly, T)
        assert len(factors) == 1
        expected = sympy.Poly(factors[0][0], T).monic().all_coeffs()
        assert minimal_polynomial(y) == tuple(Fraction(int(c.p), int(c.q)) for c in reversed(expected))


@pytest.mark.parametrize("m", [3, 5, 9, 12, 15, 21, 35])
def test_inverse_against_sympy(m):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.cyclotomic_poly(m, x)
    field = get_field(m)
    rng = random.Random(m)
    for _ in range(3):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.phi)]
        if not any(values):
            continue
        a = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(values))
        inv = sympy.Poly(sympy.invert(a, modulus), x, domain="QQ")
        expected = [Fraction(int(c.p), int(c.q)) for c in reversed(inv.all_coeffs())]
        expected += [Fraction(0)] * (field.phi - len(expected))
        assert coeffs(elt_inverse(field.from_coeffs(values))) == tuple(expected)
