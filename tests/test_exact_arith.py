import pytest
from hypothesis import given, settings, strategies as st

from kforge import exact_arith
from kforge.errors import DomainError, InternalInconsistency
from kforge.exact_arith import (
    crt_pair,
    factorize,
    hensel_lift_root,
    int_dlog,
    int_padic_valuation,
    ip_eval,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    primes_upto,
)


def test_primes_basics():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert least_primitive_root(11) == 2
    assert least_primitive_root(31) == 3
    assert multiplicative_order(3, 5) == 4
    assert crt_pair(1, 5, 2, 11) == 46


class TestFiniteField:
    """The prime field F_q = Z/q: unit orders and the integer discrete log."""

    def test_element_order(self):
        assert multiplicative_order(1, 11) == 1
        assert multiplicative_order(10, 11) == 2
        assert multiplicative_order(2, 11) == 10
        with pytest.raises(DomainError):
            multiplicative_order(0, 11)

    def test_discrete_log_examples(self):
        assert int_dlog(2, 8, 11) == 3
        assert int_dlog(2, 5, 11) == 4
        assert int_dlog(2, 1, 11) == 0
        assert int_dlog(2, 5 + 11, 11) == 4  # targets are residues

    def test_discrete_log_outside_span(self):
        with pytest.raises(DomainError, match="cyclic span"):
            int_dlog(10, 2, 11)

    def test_zero_target_rejected(self):
        for target in (0, 11, -22):
            with pytest.raises(DomainError, match="zero"):
                int_dlog(2, target, 11)

    def test_discrete_log_large_prime(self):
        g = least_primitive_root(10007)
        for e in (0, 1, 977, 5003, 10005):
            assert int_dlog(g, pow(g, e, 10007), 10007) == e

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([11, 31, 41, 61, 71, 101, 131, 151, 181, 191]), st.integers(0, 500))
    def test_dlog_round_trip_kolyvagin_fields(self, q, e):
        g = least_primitive_root(q)
        assert int_dlog(g, pow(g, e, q), q) == e % (q - 1)

    def test_composite_characteristic_rejected(self):
        with pytest.raises(DomainError, match="not prime"):
            least_primitive_root(10)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([11, 31, 61, 101, 181]), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_against_sympy(self, q, base, target):
        sympy = pytest.importorskip("sympy")
        base, target = 1 + base % (q - 1), 1 + target % (q - 1)
        try:
            e = sympy.discrete_log(q, target, base)
        except ValueError:
            with pytest.raises(DomainError, match="cyclic span"):
                int_dlog(base, target, q)
            return
        assert int_dlog(base, target, q) == e % sympy.n_order(base, q)


class TestHensel:
    def test_base_precision(self):
        out = hensel_lift_root((1, 1, 1, 1, 1), 11, 3, 1)
        assert out == 3

    def test_lift_matches_bruteforce(self):
        out = hensel_lift_root((1, 1, 1, 1, 1), 11, 3, 2)
        brute = [3 + 11 * t for t in range(11) if ip_eval((1, 1, 1, 1, 1), 3 + 11 * t) % 121 == 0]
        assert brute == [out]
        # the same root lifted further still reduces correctly
        deep = hensel_lift_root((1, 1, 1, 1, 1), 11, 3, 6)
        assert deep % 121 == out
        assert ip_eval((1, 1, 1, 1, 1), deep) % 11**6 == 0

    def test_linear(self):
        assert hensel_lift_root((-5, 1), 7, 5, 3) == 5

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
