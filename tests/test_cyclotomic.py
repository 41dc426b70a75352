import decimal
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kforge import cyclotomic
from kforge.errors import DomainError, InternalInconsistency
from kforge.cyclotomic import (
    CycloElt,
    GaloisElt,
    RootOfUnity,
    conjugate,
    divide_into_subfield,
    embed_up,
    galois_apply,
    get_field,
    is_in_real_subfield,
    minimal_polynomial,
    product,
    _binomial_factors,
    _poly_product,
    _reduce_vec,
    _solve_against_columns,
)
from kforge.exact_arith import euler_phi, is_prime

from group_ring import (
    cyclotomic_oracle,
    factor_product,
    inverse,
    ip_mul,
    minimal_polynomial as reference_minimal_polynomial,
    mobius,
    one_minus_root_inverse,
    relative_norm,
    zeta,
)


def poly_trim(coeffs):
    """A polynomial over Q without its trailing zeros, as Fractions."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(Fraction(c) for c in cs)


def coeffs(x):
    """The power-basis coefficients of x as rationals."""
    return tuple(Fraction(c, x.den) for c in x.num)


class TestFieldTables:
    @pytest.mark.parametrize("m", [0, -3])
    def test_conductor_below_one_rejected(self, m):
        with pytest.raises(DomainError, match="positive"):
            get_field(m)

    @pytest.mark.parametrize("m", list(range(1, 31)) + [105, 210, 273])
    def test_degree_is_that_of_phi_m(self, m):
        field = get_field(m)
        assert field.phi == len(field.unit_group) == euler_phi(m) == len(cyclotomic_oracle(m)) - 1

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


def norm_from_minimal_polynomial(x):
    """N(x) over Q read off the minimal polynomial: for degree d its power
    phi/d is the characteristic polynomial, so N(x) = ((-1)^d c_0)^(phi/d)."""
    mp = minimal_polynomial(x)
    d = len(mp) - 1
    return x.field.from_rational(((-1) ** d * mp[0]) ** (x.field.phi // d))


class TestEltArithmetic:
    def test_inverse_examples(self):
        f5 = get_field(5)
        assert inverse(zeta(f5, 1)) == zeta(f5, 4)
        f3 = get_field(3)
        assert inverse(f3.one + zeta(f3, 1)) == -zeta(f3, 1)
        with pytest.raises(DomainError, match="division by zero"):
            inverse(f5.from_rational(0))

    def test_negative_power_is_refused(self):
        # the square-and-multiply loop never ends on a negative exponent, so
        # the refusal is checked in a child process that a timeout bounds
        script = """
from kforge.cyclotomic import get_field
from kforge.errors import DomainError
x = get_field(5).from_terms((1,), (1,))
try:
    x ** -1
except DomainError as exc:
    print(exc)
"""
        src = str(pathlib.Path(cyclotomic.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "negative exponent: there is no field inverse\n"

    def test_zeroth_power_is_one(self):
        f7 = get_field(7)
        for x in (f7.from_rational(0), zeta(f7, 3), f7.from_coeffs([Fraction(2, 3), 0, -5])):
            assert x**0 == f7.one

    @settings(max_examples=40, deadline=None)
    @given(small_coeffs)
    def test_inverse_round_trip(self, coeffs):
        f = get_field(5)
        x = rand_elt(f, coeffs)
        if x.is_zero():
            return
        assert x * inverse(x) == f.one

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
                assert (f.one - zeta(f, k)) * inv == f.one


class TestGalois:
    def test_action_examples(self):
        f5 = get_field(5)
        assert galois_apply(GaloisElt(f5, 2), zeta(f5, 1)) == zeta(f5, 2)
        real = zeta(f5, 1) + zeta(f5, -1)
        assert galois_apply(GaloisElt(f5, 4), real) == real

    def test_composition(self):
        f7 = get_field(7)
        x = zeta(f7, 1)
        lhs = galois_apply(GaloisElt(f7, 3), galois_apply(GaloisElt(f7, 2), x))
        assert lhs == galois_apply(GaloisElt(f7, 6), x)

    def test_bad_residue_rejected(self):
        with pytest.raises(DomainError):
            GaloisElt(get_field(10), 5)

    @pytest.mark.parametrize("m", [1, 2, 9, 13, 105])
    def test_exponents_outside_one_to_m(self, m):
        # the action reads its exponent mod m, Q = Q(zeta_1) included
        field = get_field(m)
        rng = random.Random(m)
        x = field.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.phi)])
        for a in field.unit_group:
            for b in (-1, a + m, -a):
                assert galois_apply(GaloisElt(field, b), x) == reference_galois(b % m, x)

    @pytest.mark.parametrize("m", [3, 5, 12])
    def test_conjugation_inverts_zeta(self, m):
        f = get_field(m)
        assert conjugate(zeta(f, 1)) == zeta(f, -1)
        assert not is_in_real_subfield(zeta(f, 1))
        assert is_in_real_subfield(zeta(f, 1) + zeta(f, -1))

    def test_q_is_fixed_by_conjugation(self):
        q = get_field(1)
        for value in (0, Fraction(-7, 3), 5):
            x = q.from_rational(value)
            assert conjugate(x) == x and is_in_real_subfield(x)
            assert galois_apply(GaloisElt(q, 0), x) == x  # 0 = 1 mod 1

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
        assert embed_up(zeta(f5, 1), 15) == zeta(f15, 3)
        assert embed_up(f5.from_rational(Fraction(7, 3)), 15) == f15.from_rational(
            Fraction(7, 3)
        )
        prod = embed_up(zeta(get_field(3), 1), 15) * embed_up(zeta(f5, 1), 15)
        assert prod == zeta(f15, 8)

    def test_embed_requires_divisibility(self):
        with pytest.raises(DomainError):
            embed_up(zeta(get_field(5), 1), 12)

    def test_embed_associative(self):
        x = zeta(get_field(5), 1) + get_field(5).from_rational(2)
        assert embed_up(embed_up(x, 15), 45) == embed_up(x, 45)

    def test_embed_commutes_with_galois(self):
        f5 = get_field(5)
        x = zeta(f5, 1) + zeta(f5, 2) * f5.from_rational(3)
        a = 2
        lift = 17  # 17 = 2 mod 5 and is a unit mod 15
        lhs = embed_up(galois_apply(GaloisElt(f5, a), x), 15)
        rhs = galois_apply(GaloisElt(get_field(15), lift % 15), embed_up(x, 15))
        assert lhs == rhs

    def test_restrict_round_trip(self):
        # dividing by 1 is the exact preimage under embed_up
        f5 = get_field(5)
        x = zeta(f5, 1) * f5.from_rational(Fraction(2, 3)) + f5.from_rational(5)
        assert divide_into_subfield(embed_up(x, 35), get_field(35).one, 5) == x

    def test_restrict_rejects_outsiders(self):
        f15 = get_field(15)
        with pytest.raises(DomainError, match="does not lie in the requested subfield"):
            divide_into_subfield(zeta(f15, 1), f15.one, 5)

    def test_divide_into_subfield(self):
        f5, f55 = get_field(5), get_field(55)
        y = zeta(f5, 1) + f5.from_rational(3)
        mult = zeta(f55, 7) + f55.from_rational(2)
        target = embed_up(y, 55) * mult
        assert divide_into_subfield(target, mult, 5) == y


class TestSubfieldSolve:
    """The solve reads rows only until it has one pivot per column, so the
    caller's exact re-check alone must refuse a target that is wrong in a
    later row."""

    @staticmethod
    def integer_columns(mult, m_small):
        """Column i is embed(zeta_small^i) * mult over the one denominator
        mult.den, as an integer vector."""
        small = get_field(m_small)
        products = [embed_up(zeta(small, i), mult.field.m) * mult for i in range(small.phi)]
        return [[c * (mult.den // e.den) for c in e.num] for e in products]

    @staticmethod
    def quotient(solution, mult, target):
        """The coefficients of y that a solution (n, d) of the system for
        `target` stands for: y = mult.den * n / (d * target.den)."""
        nums, d = solution
        return [Fraction(mult.den * n, d * target.den) for n in nums]

    @classmethod
    def system(cls, kind):
        f5, f55 = get_field(5), get_field(55)
        y = zeta(f5, 1) * f5.from_rational(Fraction(2, 3)) + f5.from_rational(3)
        mult = f55.one if kind == "restrict" else zeta(f55, 7) + f55.from_rational(2)
        return y, mult, cls.integer_columns(mult, 5), embed_up(y, 55) * mult

    @pytest.mark.parametrize("kind", ["restrict", "divide"])
    def test_inconsistent_tail_fails_the_final_check(self, kind):
        y, mult, columns, target = self.system(kind)
        f55 = target.field
        assert divide_into_subfield(target, mult, 5) == y
        # the last row comes after the pivot rows: the solver never reads it
        # and returns the valid quotient's coefficients
        bad = target + zeta(f55, f55.phi - 1)
        assert bad.num[:-1] == target.num[:-1] and bad.num[-1] != target.num[-1]
        assert self.quotient(_solve_against_columns(columns, bad.num), mult, bad) == list(coeffs(y))
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
            divide_into_subfield(target + zeta(big, big.phi - 1), mult, 5)

    @pytest.mark.parametrize("m, m_small", [(275, 25), (1705, 55)])
    @pytest.mark.parametrize("seed", range(3))
    def test_rational_quotients_against_their_construction(self, m, m_small, seed):
        # phi_s = 20 and 40 unknowns; y and the multiplier have rational
        # coefficients, so the solve meets three different denominators
        big, small = get_field(m), get_field(m_small)
        rng = random.Random(1000 * m + seed)

        def rational_element(field, bits):
            return field.from_coeffs(
                [Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.randint(1, 9)) for _ in range(field.phi)]
            )

        y, mult = rational_element(small, 64), rational_element(big, 64)
        assert y.den > 1 and mult.den > 1
        target = embed_up(y, m) * mult
        assert divide_into_subfield(target, mult, m_small) == y
        # a coefficient changed in the last row, after every pivot row: the
        # solve still returns y, and only the integer re-check refuses it
        bad = target + zeta(big, big.phi - 1) * big.from_rational(Fraction(1, 7))
        assert coeffs(bad)[:-1] == coeffs(target)[:-1] and coeffs(bad)[-1] != coeffs(target)[-1]
        columns = self.integer_columns(mult, m_small)
        assert self.quotient(_solve_against_columns(columns, bad.num), mult, bad) == list(coeffs(y))
        with pytest.raises(DomainError, match="does not lie in the requested subfield"):
            divide_into_subfield(bad, mult, m_small)

    def test_row_outside_every_column_raises_at_once(self):
        _, _, columns, target = self.system("restrict")
        # the embedded powers of zeta_5 are zeta_55^(11 i): row 1 is zero in
        # every column
        assert all(c[1] == 0 for c in columns)
        bad = target + zeta(target.field, 1)
        with pytest.raises(DomainError, match="requested subfield"):
            _solve_against_columns(columns, bad.num)

    def test_degenerate_columns(self):
        _, _, columns, _ = self.system("divide")
        columns[1] = [3 * c for c in columns[0]]
        # a target inside their span: every row is consistent, but no row
        # gives the fourth pivot
        target = [a + b - c for a, b, c in zip(columns[0], columns[2], columns[3])]
        with pytest.raises(InternalInconsistency, match="degenerate"):
            _solve_against_columns(columns, target)

    def test_refused_subconductor_builds_no_field(self, monkeypatch):
        # a non-divisor, zero or negative m_small is refused before any field
        # table for it is built
        f55 = get_field(55)
        monkeypatch.setattr(cyclotomic, "_FIELDS", {55: f55})
        for m_small in (7, 0, -5):
            with pytest.raises(DomainError, match="does not divide"):
                divide_into_subfield(f55.one, f55.one, m_small)
        assert cyclotomic._FIELDS == {55: f55}


class TestNorms:
    def test_relative_norm_full_group(self):
        f5 = get_field(5)
        x = f5.one - zeta(f5, 1)
        assert relative_norm(x, 1) == f5.from_rational(5)

    def test_rational_power(self):
        # Q(zeta_15) has degree 2 over Q(zeta_5)
        f15 = get_field(15)
        assert relative_norm(f15.from_rational(3), 5) == f15.from_rational(9)

    def test_root_of_unity_down_one_level(self):
        # the units a = 1 mod 5 of Z/15 are 1 and 11: zeta * zeta^11 = zeta_5^4
        f15 = get_field(15)
        assert relative_norm(zeta(f15, 1), 5) == zeta(f15, 12)

    @pytest.mark.parametrize("m_small", [4, 30, 0, -5])
    def test_rejects_a_conductor_that_does_not_divide(self, m_small):
        f15 = get_field(15)
        with pytest.raises(DomainError, match="not a subconductor"):
            relative_norm(zeta(f15, 1), m_small)

    def test_norm_to_q_examples(self):
        f5 = get_field(5)
        assert relative_norm(zeta(f5, 1), 1) == f5.one
        assert relative_norm(f5.from_rational(2), 1) == f5.from_rational(16)
        golden = -(zeta(f5, 2) + zeta(f5, 3))
        assert relative_norm(golden, 1) == f5.one
        assert relative_norm(f5.from_rational(0), 1) == f5.from_rational(0)

    @settings(max_examples=25, deadline=None)
    @given(small_coeffs, small_coeffs)
    def test_norm_multiplicative(self, ca, cb):
        f = get_field(5)
        x, y = rand_elt(f, ca), rand_elt(f, cb)
        assert relative_norm(x * y, 1) == relative_norm(x, 1) * relative_norm(y, 1)

    @settings(max_examples=20, deadline=None)
    @given(small_coeffs, st.sampled_from([5, 21, 105]))
    def test_norm_to_q_is_read_off_the_minimal_polynomial(self, ca, m):
        x = rand_elt(get_field(m), ca)
        assert relative_norm(x, 1) == norm_from_minimal_polynomial(x)

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
        assert relative_norm(x, 1) == norm_from_minimal_polynomial(x)

    def test_product_missing_a_conjugate_is_refused(self):
        f = get_field(105)
        x = f.from_rational(2) + zeta(f, 1)
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

    @pytest.mark.parametrize("m, m_small", [(5, 1), (55, 1), (55, 5), (55, 11), (105, 15), (273, 21)])
    def test_norms_against_a_chain(self, m, m_small):
        # the tree multiplies the conjugates in another order than a
        # left-to-right chain; the field is commutative, so both are equal
        field = get_field(m)
        rng = random.Random(m * m_small)
        x = field.from_coeffs([Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(field.phi)])
        chain = field.one
        for a in field.unit_group:
            if a % m_small == 1 % m_small:
                chain = chain * galois_apply(GaloisElt(field, a), x)
        assert relative_norm(x, m_small) == chain
        if m_small == 1:
            assert chain == norm_from_minimal_polynomial(x)
            assert inverse(x) * x == field.one


class TestProduct:
    @pytest.mark.parametrize("count", range(1, 10))
    def test_tree_against_a_chain(self, count):
        # counts that are powers of two and counts whose tree ends by merging
        # partial products of unequal counts
        field = get_field(45)
        rng = random.Random(count)
        factors = [field.from_coeffs([rng.randint(-9, 9) for _ in range(field.phi)]) for _ in range(count)]
        chain = factors[0]
        for x in factors[1:]:
            chain = chain * x
        assert product(factors) == chain
        assert product(iter(factors)) == chain

    def test_makes_one_product_fewer_than_its_factors(self, monkeypatch):
        field = get_field(13)
        calls = []
        real = CycloElt.__mul__
        monkeypatch.setattr(CycloElt, "__mul__", lambda x, y: calls.append(1) or real(x, y))
        product([zeta(field, e) for e in range(7)])
        assert len(calls) == 6

    def test_empty_product_is_refused(self):
        with pytest.raises(DomainError, match="empty product"):
            product([])


class TestMinimalPolynomial:
    def test_examples(self):
        f3 = get_field(3)
        assert minimal_polynomial(zeta(f3, 1)) == poly_trim([1, 1, 1])
        f5 = get_field(5)
        golden = -(zeta(f5, 2) + zeta(f5, 3))
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
        acc = f.from_rational(0)
        for c in reversed(mp):
            acc = acc * x + f.from_rational(c)
        assert acc.is_zero()

    @pytest.mark.parametrize(
        "m, m_small",
        [(1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (9, 3), (12, 4), (15, 5), (21, 7), (35, 5), (55, 11), (105, 15), (105, 21)],
    )
    def test_against_the_field_valued_expansion(self, m, m_small):
        # full orbits, and subfield elements whose orbit is shorter than phi:
        # real elements, embedded ones and traces down to Q(zeta_m_small)
        field, small = get_field(m), get_field(m_small)
        rng = random.Random(m + m_small)

        def draw(f):
            return f.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.phi)])

        x = draw(field)
        trace = field.from_rational(0)
        for a in field.unit_group:
            if a % m_small == 1 % m_small:
                trace = trace + galois_apply(GaloisElt(field, a), x)
        for y in (
            x,
            x + conjugate(x),
            embed_up(draw(small), m),
            trace,
            field.from_rational(0),
            field.from_rational(Fraction(-7, 3)),
        ):
            assert minimal_polynomial(y) == reference_minimal_polynomial(y)

    def test_a_misread_orbit_is_refused(self, monkeypatch):
        # with every automorphism read as the identity the orbit of
        # y = zeta - zeta^2 has one element and trace 0, so the power sums
        # give P = T, and only the evaluation P(y) = y != 0 refuses it
        f5 = get_field(5)
        monkeypatch.setattr(cyclotomic, "galois_apply", lambda s, x: x)
        with pytest.raises(InternalInconsistency, match="does not vanish"):
            minimal_polynomial(zeta(f5, 1) - zeta(f5, 2))


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
        for root, point in ((z, t), (z.times(w), t + u), (z**e, e * t), (z**-1, -t)):
            assert (root.order, root.exp) == lowest_terms(point)

    @pytest.mark.parametrize("order, exp", [(0, 0), (-3, 1), (5, 5), (5, -1), (1, 1)])
    def test_out_of_range_is_refused(self, order, exp):
        with pytest.raises(DomainError):
            RootOfUnity(order, exp)

    def test_times_and_inverse(self):
        z3, z5 = RootOfUnity(3, 1), RootOfUnity(5, 1)
        assert z3.times(z5) == RootOfUnity(15, 8)
        assert z5.times(z5**-1) == RootOfUnity(1, 0)


def test_field_cache_identity():
    assert get_field(35) is get_field(35)
    assert euler_phi(35) == get_field(35).phi


# ---------------------------------------------------------------------------
# differential tests of the element kernels against the schoolbook reference
# ---------------------------------------------------------------------------


def dense_reduce(vec, m):
    """Reference reduction: clear every coefficient above phi with the whole
    of the oracle's Phi_m."""
    poly = cyclotomic_oracle(m)
    phi = len(poly) - 1
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            for j in range(phi):
                vec[i - phi + j] -= c * poly[j]
            vec[i] = 0
    del vec[phi:]
    return vec + [0] * (max(phi, 1) - len(vec))


def reference_element(field, vec, den):
    reduced = dense_reduce(list(vec), field.m)
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


def peak_operands(k):
    """Two 3-term operands at +-(2^k - 1), dense enough for slots: their
    products take slots of 2k + 3 bits."""
    top = 2**k - 1
    return (top, -top, top), (-top, -top, top)


ONE_POINT, TWO_POINT, DECIMAL = ("_binary_product", 1), ("_binary_product", 2), ("_decimal_product", 1)
SPARSE = ("_sparse_product", 1)


def record_paths(mp):
    """Patch the three product paths to log (name, number of evaluation
    points), in call order, to the list returned; the decimal packing and the
    term-wise product count as one point."""
    paths = []
    for name in ("_binary_product", "_decimal_product", "_sparse_product"):
        real = getattr(cyclotomic, name)

        def spy(*args, real=real, name=name):
            paths.append((name, args[3] if name == "_binary_product" else 1))
            return real(*args)

        mp.setattr(cyclotomic, name, spy)
    return paths


def takes_the_sparse_path(a, b):
    """Whether the product of two nonzero vectors is made term by term: the
    operand of fewer nonzero terms has k of them with k^2 at most the longer
    operand's length from its first nonzero coefficient to its last."""

    def span(vec):
        nonzero = [i for i, c in enumerate(vec) if c]
        return nonzero[-1] - nonzero[0] + 1

    terms = min(sum(map(bool, a)), sum(map(bool, b)))
    return terms * terms <= max(span(a), span(b))


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
            assert zeta(field, e) == reference_element(field, vec, 1)
            if e % m:
                assert (field.one - zeta(field, e)) * one_minus_root_inverse(field, e) == field.one

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
    # slots of 1, 2, 3, 4, 5, 8 and 9 bytes: machine words of 1, 2, 4, 4, 8
    # and 8 bytes, and the first width converted one int at a time
    @example(*peak_operands(2))
    @example(*peak_operands(6))
    @example(*peak_operands(10))
    @example(*peak_operands(14))
    @example(*peak_operands(18))
    @example(*peak_operands(30))
    @example(*peak_operands(34))
    def test_product_at_slot_boundaries(self, a, b):
        # every product in binary slots at one point and at two, and in
        # decimal slots, unless an operand is sparse enough to go term by term
        expected = [pair for pair in ((a, b), (a, a)) if any(pair[0]) and any(pair[1])]
        for two_point, decimal_, path in ((math.inf, math.inf, ONE_POINT), (0, math.inf, TWO_POINT), (0, 0, DECIMAL)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cyclotomic, "_TWO_POINT_MIN_SIZE", two_point)
                mp.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", decimal_)
                paths = record_paths(mp)
                assert tuple(_poly_product(a, b)) == ip_mul(a, b)
                assert tuple(_poly_product(a, a)) == ip_mul(a, a)  # squaring packs once
            assert paths == [SPARSE if takes_the_sparse_path(*pair) else path for pair in expected]


@st.composite
def operands_near_the_two_point_gate(draw):
    """(a, b) of 1-41 terms, b often a itself, nonzero at both ends, whose
    size min(len) * (bits_a + bits_b) lies within 3 % of the two-point gate
    on either side; coefficients often sit at +-(2^bits - 1)."""
    la = draw(st.integers(1, 41))
    square = draw(st.booleans())
    lb = la if square else draw(st.integers(1, 41))
    total = round(cyclotomic._TWO_POINT_MIN_SIZE * draw(st.floats(0.97, 1.03)) / min(la, lb))
    bits_a = total // 2 if square else draw(st.integers(1, total - 1))

    def vector(length, bits):
        peak = 2**bits - 1
        inner = st.one_of(st.integers(-peak, peak), st.sampled_from([0, peak, -peak]))
        ends = st.sampled_from([peak, -peak, 2 ** (bits - 1), -(2 ** (bits - 1))])
        body = draw(st.lists(inner, min_size=length, max_size=length))
        body[0], body[-1] = draw(ends), draw(ends)
        return tuple(body)

    a = vector(la, bits_a)
    return (a, a) if square else (a, vector(lb, total - bits_a))


@st.composite
def sparse_operands(draw):
    """(a, b) with a of k nonzero terms, k from 1 to past the term-wise gate,
    over a span with nonzero ends and 0-3 zeros on either side, and b either
    a itself or 1-150 terms nonzero at both ends; coefficients of 1-2000
    bits and either sign."""
    bits = draw(st.integers(1, 2000))
    peak = 2**bits - 1
    nonzero = st.builds(mul, st.integers(1, peak), st.sampled_from([1, -1]))
    k = draw(st.integers(1, 16))
    span = 1 if k == 1 else draw(st.integers(k, 150))
    inner = draw(st.sets(st.integers(1, span - 2), min_size=k - 2, max_size=k - 2)) if k > 2 else set()
    core = [0] * span
    for i in {0, span - 1} | inner:
        core[i] = draw(nonzero)
    a = tuple([0] * draw(st.integers(0, 3)) + core + [0] * draw(st.integers(0, 3)))
    if draw(st.booleans()):
        return a, a
    body = draw(st.lists(st.one_of(nonzero, st.just(0)), min_size=1, max_size=150))
    body[0], body[-1] = draw(nonzero), draw(nonzero)
    return a, tuple(body)


class TestProductPaths:
    @settings(max_examples=80, deadline=None)
    @given(sparse_operands())
    @example(((0, 5, 0, 0, -3), (7, 0, 2, -1)))
    @example(((1,) + (0,) * 98 + (-1,),) * 2)
    def test_term_wise_products_against_schoolbook(self, operands):
        a, b = operands
        sparse = takes_the_sparse_path(a, b)
        with pytest.MonkeyPatch.context() as mp:
            paths = record_paths(mp)
            assert tuple(_poly_product(a, b)) == ip_mul(a, b)
            assert tuple(_poly_product(b, a)) == ip_mul(b, a)
        assert [path == SPARSE for path in paths] == [sparse, sparse]

    @pytest.mark.parametrize("span, path", [(100, SPARSE), (99, ONE_POINT)], ids=["k^2-is-len", "k^2-is-len-plus-1"])
    def test_term_wise_gate_reads_the_sparser_operand(self, monkeypatch, span, path):
        # 10 nonzero terms over `span` times `span` nonzero 8-bit terms: the
        # gate k^2 <= len passes at len 100 and fails at 99; read off the
        # dense operand, k = len, it would fail both
        rng = random.Random(span)

        def coeff():
            return rng.randrange(1, 256) * rng.choice((1, -1))

        a = [0] * span
        for i in [0, span - 1, *rng.sample(range(1, span - 1), 8)]:
            a[i] = coeff()
        b = tuple(coeff() for _ in range(span))
        paths = record_paths(monkeypatch)
        assert tuple(_poly_product(tuple(a), b)) == ip_mul(a, b)
        assert tuple(_poly_product(b, tuple(a))) == ip_mul(b, a)
        assert paths == [path, path]

    def test_an_embedded_subfield_element_times_a_wide_vector_goes_term_by_term(self, monkeypatch):
        # an element of Q(zeta_5) lies in Q(zeta_1705) as 4 terms over a span
        # of 1024; times 1200 coefficients of 1000 bits it has 2.05 * 10^6
        # bit-terms, past the decimal gate, and is 4 scaled shifts instead
        rng = random.Random(1705)
        small, field = get_field(5), get_field(1705)
        y = small.from_coeffs([(2 * rng.getrandbits(999) + 1) * rng.choice((1, -1)) for _ in range(small.phi)])
        x = field.from_coeffs([rng.getrandbits(1000) - 2**999 for _ in range(field.phi)])
        lifted = embed_up(y, field.m)
        assert [e for e, c in enumerate(lifted.num) if c] == [0, 341, 682, 1023]
        paths = record_paths(monkeypatch)
        product = lifted * x
        assert paths == [SPARSE]
        exponents = [341 * j + i for j in range(small.phi) for i in range(field.phi)]
        terms = [cy * cx for cy in y.num for cx in x.num]
        assert product == field.from_terms(exponents, terms, y.den * x.den)

    @pytest.mark.parametrize("points", [1, 2])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9])
    def test_binary_slots_of_every_width_against_schoolbook(self, width, points):
        # slots of `width` bytes: machine words of 1, 2, 4, 4, 8 and 8 bytes,
        # and at 9 bytes the first width converted one int at a time.  A
        # vector times +-1 puts +-(half - 1) in every slot, the extremes a
        # slot of `width` bytes must hold; a square of seven terms of
        # magnitude t, 7 t^2 < half, and its product with the negated vector
        # reach +-7 t^2 and -+6 t^2
        half = 1 << (8 * width - 1)
        peak = tuple((half - 1) * (-1) ** i for i in range(7))
        t = math.isqrt((half - 1) // 7)
        near = tuple(t * (-1) ** i for i in range(7))
        pairs = [(peak, (1,)), ((-1,), peak), (near, tuple(-c for c in near)), (near, near)]
        for a, b in pairs:
            assert tuple(cyclotomic._binary_product(a, b, width, points)) == ip_mul(a, b)

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
        assert [name for name, _ in paths] == [path]

    @pytest.mark.parametrize("shorter, path", [(0, TWO_POINT), (1, ONE_POINT)], ids=["at-the-gate", "one-term-fewer"])
    def test_two_point_gate_reads_the_operands(self, monkeypatch, shorter, path):
        # 100-bit operands of n terms have n * 200 bit-terms: the gate itself
        # takes two points, one term fewer one point
        n = cyclotomic._TWO_POINT_MIN_SIZE // 200 - shorter
        rng = random.Random(n)
        a, b = ([rng.getrandbits(100) - 2**99 for _ in range(n)] for _ in range(2))
        a[-1], b[-1] = 2**99, -(2**99)
        paths = record_paths(monkeypatch)
        assert tuple(_poly_product(tuple(a), tuple(b))) == ip_mul(a, b)
        assert tuple(_poly_product(tuple(a), tuple(a))) == ip_mul(a, a)
        assert paths == [path, path]

    @settings(max_examples=60, deadline=None)
    @given(operands_near_the_two_point_gate())
    def test_products_on_both_sides_of_the_two_point_gate(self, operands):
        a, b = operands
        bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
        expected = TWO_POINT if min(len(a), len(b)) * bits >= cyclotomic._TWO_POINT_MIN_SIZE else ONE_POINT
        if takes_the_sparse_path(a, b):
            expected = SPARSE
        with pytest.MonkeyPatch.context() as mp:
            paths = record_paths(mp)
            assert tuple(_poly_product(a, b)) == ip_mul(a, b)
            assert tuple(_poly_product(b, a)) == ip_mul(b, a)
        assert paths == [expected, expected]

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
        # an operand sparse enough to go term by term would make no slot
        assume(any(a) and any(b) and not takes_the_sparse_path(a, b) and not takes_the_sparse_path(b, b))
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
        assert [name for name, _ in paths] == ["_binary_product" if factor > 1 else "_decimal_product"]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 1023, 1024, 1025])
    def test_decimal_packing_at_every_shape_of_pending_blocks(self, monkeypatch, n):
        # an operand of n slots ends its merge loop with one pending block per
        # 1 bit of n, and the product's bias of 2n - 1 or 2n slots doubles once
        # per bit; coefficients at +-(2^40 - 1), with interior zeros
        top = 2**40 - 1
        a = tuple(top if i in (0, n - 1) else (top, -top, 0)[i % 3] for i in range(n))
        b = tuple(-c for c in reversed(a)) + (top,)
        monkeypatch.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", 0)
        decimal_product = cyclotomic._decimal_product
        paths = record_paths(monkeypatch)
        for x, y in ((a, b), (a, a)):
            expected = ip_mul(x, y)
            assert tuple(_poly_product(x, y)) == expected
            # _poly_product sends a one-term operand term by term, so the
            # packing is also called directly, with a slot whose half,
            # 5 * 10^(width - 1), exceeds every coefficient, min(len) * top^2
            width = len(str(min(len(x), len(y)) * top * top)) + 1
            assert tuple(decimal_product(x, y, width)) == expected
        assert paths == [SPARSE if n == 1 else DECIMAL] * 2

    def test_a_rounding_raises(self, monkeypatch):
        # with the precision of the packed operands, the packs are exact and
        # the product, twice as long, must round: the context, which reads
        # the precision when the product runs, traps it
        monkeypatch.setattr(cyclotomic, "_DECIMAL_MIN_SIZE", 0)
        real = cyclotomic._decimal_product

        def short_precision(a, b, width):
            monkeypatch.setattr(decimal, "MAX_PREC", width * max(len(a), len(b)))
            return real(a, b, width)

        monkeypatch.setattr(cyclotomic, "_decimal_product", short_precision)
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
        assert zeta(field, k) * x == x * zeta(field, k) == shifted
        assert paths == [SPARSE, SPARSE]

    def test_decimal_is_imported_only_by_a_product_that_needs_it(self):
        # fractions imports decimal itself, so a fresh interpreter blocks the
        # module after importing kforge: a command whose products stay on the
        # int path still runs, and the first decimal product imports it
        script = """
import sys
from kforge import cyclotomic
from kforge.cli import main
sys.modules["decimal"] = None
assert main(["kappa", "--p", "5", "--n", "0", "--M", "5", "--s", "11", "--out", sys.argv[1]]) == 0
a = tuple(range(1, 501))
cyclotomic._poly_product(a, a)  # 500 * 18 bit-terms: one point
cyclotomic._poly_product(a, tuple(c << 2000 for c in a))  # above the decimal gate
"""
        src = str(pathlib.Path(cyclotomic.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, os.devnull],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.rstrip().endswith("import of decimal halted; None in sys.modules")
        assert "_decimal_product" in done.stderr


# every conductor up to 30, among them 1 and 2, primes, prime powers, and
# conductors whose quotient is longer than phi (m - phi >= phi); 45, neither
# squarefree nor a prime power; 105 and 210, whose Phi_m has a coefficient -2;
# and 273, three odd primes
REDUCTION_CONDUCTORS = list(range(1, 31)) + [45, 105, 210, 273]


def input_lengths(field):
    """1, phi, phi + 1, m (a Galois image), 2 phi - 1 (a product) and 3m + 2,
    which the fold modulo x^m - 1 shortens."""
    m, phi = field.m, field.phi
    return sorted({1, phi, phi + 1, m, 2 * phi - 1, 3 * m + 2})


def assert_reduces_like_dense(field, vec):
    assert _reduce_vec(field, list(vec)) == dense_reduce(list(vec), field.m)


@st.composite
def factor_data(draw):
    """(field, factors, shift, limit) with every K of a negative count
    nonzero mod m; K shares a factor with m often, so that the rotation by K
    has several cycles."""
    field = get_field(draw(st.sampled_from([1, 3, 5, 9, 12, 15, 21, 25, 35, 105])))
    m = field.m
    ks = st.integers(-2 * m, 2 * m) | st.sampled_from([d for d in range(1, m) if m % d == 0] or [0])
    pairs = st.tuples(ks, st.sampled_from([-3, -2, -1, 1, 2, 3]))
    factors = draw(st.lists(pairs.filter(lambda kn: kn[0] % m or kn[1] > 0), max_size=5))
    limit = Fraction(draw(st.integers(-50, 50).filter(bool)), draw(st.integers(1, 50)))
    return field, factors, draw(st.integers(-2 * m, 2 * m)), limit


class TestReduction:
    @settings(max_examples=150, deadline=None)
    @given(factor_data())
    @example((get_field(15), [(5, -1), (3, -2), (6, 1)], 7, Fraction(-3, 4)))
    @example((get_field(1), [(0, 2)], 0, Fraction(5, 3)))
    def test_from_factors_against_reference_factors(self, data):
        field, factors, shift, limit = data
        assert field.from_factors(factors, shift, limit) == factor_product(field, factors, shift, limit)

    def test_from_factors_refuses_the_inverse_of_zero(self):
        for m, k in ((1, 0), (5, 10), (12, -12)):
            with pytest.raises(DomainError, match="^1 - zeta\\^0 is zero$"):
                get_field(m).from_factors([(1, 1), (k, -1)], 0, Fraction(1))

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
        assert field.from_terms((), ()) == field.from_rational(0)

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
        # prime ell = 1 (mod m), sends Phi_m to 0, so reduction mod Phi_m
        # must keep a vector's value at w, and the product must respect it
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

        rng = random.Random(5187)
        vec = [rng.randint(-(2**63), 2**63) for _ in range(3 * m + 2)]
        assert at_w(_reduce_vec(field, list(vec))) == at_w(vec)
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
        assert coeffs(inverse(field.from_coeffs(values))) == tuple(expected)


@pytest.mark.parametrize("m", [3, 5, 9, 12, 15, 21, 35])
def test_norm_against_sympy(m):
    # N(a(zeta)) is the product of a over the roots of the monic Phi_m, which
    # is the resultant Res(Phi_m, a)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    modulus = sympy.cyclotomic_poly(m, x)
    field = get_field(m)
    rng = random.Random(m)
    for _ in range(3):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(field.phi)]
        a = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(values))
        expected = sympy.Rational(sympy.resultant(modulus, a, x))
        norm = relative_norm(field.from_coeffs(values), 1)
        assert norm == field.from_rational(Fraction(int(expected.p), int(expected.q)))
