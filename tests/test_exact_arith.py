import pytest
from hypothesis import given, settings, strategies as st

from kforge.errors import DomainError
from kforge.exact_arith import (
    crt_pair,
    factorize,
    int_dlog,
    int_padic_valuation,
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


def test_padic_valuation():
    assert int_padic_valuation(121, 11) == 2
    assert int_padic_valuation(5, 11) == 0
    with pytest.raises(DomainError):
        int_padic_valuation(0, 11)
