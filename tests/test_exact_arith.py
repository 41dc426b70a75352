from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kforge import exact_arith
from kforge.errors import DomainError, InternalInconsistency
from kforge.exact_arith import (
    FiniteField,
    ResidueInt,
    crt_pair,
    factorize,
    ff_discrete_log,
    ff_element_order,
    field_with_unity_root,
    hensel_lift_root,
    int_padic_valuation,
    ip_eval,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    poly_divmod,
    poly_eval,
    poly_extended_gcd,
    poly_mul,
    poly_trim,
    primes_upto,
)

PHI5 = poly_trim([1, 1, 1, 1, 1])


def test_primes_basics():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert least_primitive_root(11) == 2
    assert least_primitive_root(31) == 3
    assert multiplicative_order(3, 5) == 4
    assert crt_pair(1, 5, 2, 11) == 46


class TestPolyGcd:
    def test_common_factor(self):
        a = poly_trim([-1, 0, 1])  # x^2 - 1
        b = poly_trim([-1, 1])  # x - 1
        g, u, v = poly_extended_gcd(a, b)
        assert g == b

    def test_coprime_with_bezout(self):
        g, u, v = poly_extended_gcd(PHI5, poly_trim([-1, 1]))
        assert g == poly_trim([1])
        lhs = poly_mul(u, PHI5)
        rhs = poly_mul(v, poly_trim([-1, 1]))
        assert poly_trim([x + y for x, y in zip_pad(lhs, rhs)]) == poly_trim([1])

    def test_zero_first_argument(self):
        f = poly_trim([2, 4])
        g, u, v = poly_extended_gcd((), f)
        assert g == poly_trim([Fraction(1, 2), 1])
        assert u == ()

    def test_zero_pair_rejected(self):
        with pytest.raises(DomainError, match="zero pair"):
            poly_extended_gcd((), ())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=21),
        st.lists(st.integers(-9, 9), min_size=1, max_size=21),
    )
    def test_bezout_identity_random(self, ca, cb):
        a, b = poly_trim(ca), poly_trim(cb)
        if not a and not b:
            return
        g, u, v = poly_extended_gcd(a, b)
        lhs = [x + y for x, y in zip_pad(poly_mul(u, a), poly_mul(v, b))]
        assert poly_trim(lhs) == g
        if a:
            assert poly_divmod(a, g)[1] == ()
        if b:
            assert poly_divmod(b, g)[1] == ()


def zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(
        list(a) + [Fraction(0)] * (n - len(a)),
        list(b) + [Fraction(0)] * (n - len(b)),
    )


class TestFiniteField:
    def field11(self):
        return FiniteField(11, 1, (0, 1))

    def test_element_order(self):
        f = self.field11()
        assert ff_element_order(f.from_int(1)) == 1
        assert ff_element_order(f.from_int(10)) == 2
        assert ff_element_order(f.from_int(2)) == 10
        with pytest.raises(DomainError):
            ff_element_order(f.zero)

    def test_discrete_log_examples(self):
        f = self.field11()
        two = f.from_int(2)
        assert ff_discrete_log(two, f.from_int(8)) == 3
        assert ff_discrete_log(two, f.from_int(5)) == 4
        assert ff_discrete_log(two, f.from_int(1)) == 0

    def test_discrete_log_outside_span(self):
        f = self.field11()
        with pytest.raises(DomainError, match="cyclic span"):
            ff_discrete_log(f.from_int(10), f.from_int(2))

    def test_discrete_log_bsgs_branch(self):
        f = FiniteField(10007, 1, (0, 1))
        g = f.from_int(least_primitive_root(10007))
        for e in (0, 1, 977, 5003, 10005):
            assert ff_discrete_log(g, g**e) == e

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([11, 31, 41, 61, 71, 101, 131, 151, 181, 191]), st.integers(0, 500))
    def test_dlog_round_trip_kolyvagin_fields(self, q, e):
        f = FiniteField(q, 1, (0, 1))
        g = f.from_int(least_primitive_root(q))
        assert ff_discrete_log(g, g**e) == e % (q - 1)

    def test_extension_field_arithmetic(self):
        # the residue field above 3 containing a fifth root of unity
        fld, omega = field_with_unity_root(3, 5)
        assert fld.order == 81
        assert ff_element_order(omega) == 5
        assert (omega**5).coeffs == (1,)
        assert (omega * omega.inverse()).coeffs == (1,)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(DomainError, match="reducible"):
            FiniteField(3, 2, (1, 2, 1))  # (x+1)^2 mod 3

    def test_composite_characteristic_rejected(self):
        with pytest.raises(DomainError, match="not prime"):
            FiniteField(10, 1, (0, 1))


class TestHensel:
    def test_base_precision(self):
        out = hensel_lift_root((1, 1, 1, 1, 1), 11, 3, 1)
        assert out == ResidueInt(3, 11)

    def test_lift_matches_bruteforce(self):
        out = hensel_lift_root((1, 1, 1, 1, 1), 11, 3, 2)
        brute = [3 + 11 * t for t in range(11) if ip_eval((1, 1, 1, 1, 1), 3 + 11 * t) % 121 == 0]
        assert brute == [out.value]
        # the same root lifted further still reduces correctly
        deep = hensel_lift_root((1, 1, 1, 1, 1), 11, 3, 6)
        assert deep.value % 121 == out.value
        assert ip_eval((1, 1, 1, 1, 1), deep.value) % 11**6 == 0

    def test_linear(self):
        assert hensel_lift_root((-5, 1), 7, 5, 3).value == 5

    def test_obstruction(self):
        # double root of (x - 1)^2 mod any prime
        with pytest.raises(DomainError, match="Hensel obstruction"):
            hensel_lift_root((1, -2, 1), 5, 1, 3)

    def test_non_root_rejected(self):
        with pytest.raises(DomainError, match="not a root"):
            hensel_lift_root((1, 1, 1, 1, 1), 11, 2, 2)

    def test_failed_lift_raises(self, monkeypatch):
        # A derivative that is off by a multiple of ell passes the obstruction
        # check but stops Newton from converging quadratically, so the lift is
        # no longer a root modulo ell^k and the final re-verification refuses it.
        f, ell = (1, 1, 1, 1, 1), 11
        deriv = exact_arith.ip_derivative(f)
        real_eval = exact_arith.ip_eval

        def wrong_derivative(a, x):
            value = real_eval(a, x)
            return value + ell if tuple(a) == deriv else value

        monkeypatch.setattr(exact_arith, "ip_eval", wrong_derivative)
        with pytest.raises(InternalInconsistency, match="Hensel lift"):
            hensel_lift_root(f, ell, 3, 6)


def test_padic_valuation():
    assert int_padic_valuation(121, 11) == 2
    assert int_padic_valuation(5, 11) == 0
    with pytest.raises(DomainError):
        int_padic_valuation(0, 11)


def test_poly_eval():
    assert poly_eval(PHI5, Fraction(1)) == 5
