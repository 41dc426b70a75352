from fractions import Fraction

import pytest

from kforge import euler
from kforge.errors import ConfigError, DomainError
from kforge.cyclotomic import (
    RootOfUnity,
    absolute_norm,
    galois_apply,
    GaloisElt,
    get_field,
    is_in_real_subfield,
    minimal_polynomial,
)
from kforge.euler import (
    EulerSystem,
    OmegaSpec,
    check_E1,
    check_E2,
    check_E3,
    check_norm_frobenius,
    check_tower_norm,
    check_unit,
    cyclotomic_unit_generators,
    decompose_over_cyclotomic_units,
    parse_omega,
    phi_eval,
    phi_eval_in,
    phi_eval_inverse,
)

BASIC = "1:1,2:-1"
ETA_GRID = [RootOfUnity.one(), RootOfUnity(3, 1), RootOfUnity(5, 1), RootOfUnity(7, 1)]


class TestParsing:
    def test_basic(self):
        E = parse_omega(BASIC)
        assert E.base.pairs == ((1, 1), (2, -1))
        assert sorted(E.effective_excluded) == [2]

    def test_decorations(self):
        E = parse_omega("1:1,2:-1,compose=2,twist=3:1")
        assert E.compose_n == 2
        assert E.twist == RootOfUnity(3, 1)
        assert sorted(E.effective_excluded) == [2, 3]

    def test_weight_sum_rejected(self):
        with pytest.raises(ConfigError, match="sum to zero"):
            parse_omega("1:1")

    def test_zero_base_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            parse_omega("0:1,2:-1")

    def test_position_in_error(self):
        with pytest.raises(ConfigError, match="token 2"):
            parse_omega("1:1,nonsense")

    def test_imprimitive_twist_rejected(self):
        with pytest.raises(ConfigError):
            parse_omega("1:1,2:-1,twist=9:3")

    def test_twist_must_avoid_excluded(self):
        with pytest.raises(ConfigError, match="coprime"):
            EulerSystem(OmegaSpec.build([(1, 1), (2, -1)]), None, RootOfUnity(2, 1))


class TestValues:
    def test_value_at_one(self):
        E = parse_omega(BASIC)
        assert phi_eval(E, RootOfUnity.one()).as_rational() == Fraction(1, 2)
        E2 = parse_omega("1:2,3:-2")
        assert phi_eval(E2, RootOfUnity.one()).as_rational() == Fraction(1, 9)

    def test_value_at_third_root(self):
        E = parse_omega(BASIC)
        v = phi_eval(E, RootOfUnity(3, 1))
        assert v == get_field(3).from_rational(-1)

    def test_value_at_fifth_root_is_golden_unit(self):
        E = parse_omega(BASIC)
        f5 = get_field(5)
        assert phi_eval(E, RootOfUnity(5, 1)) == -(f5.root(2) + f5.root(3))

    def test_values_are_real(self):
        E = parse_omega(BASIC)
        for eta in ETA_GRID:
            assert is_in_real_subfield(phi_eval(E, eta))

    def test_inverse_evaluation(self):
        E = parse_omega(BASIC)
        for eta in ETA_GRID:
            v, vi = phi_eval(E, eta), phi_eval_inverse(E, eta)
            assert v * vi == v.field.one

    def test_outside_domain_rejected(self):
        E = parse_omega("1:2,3:-2")  # excluded set {2, 3}
        with pytest.raises(DomainError, match="outside the admissible domain"):
            phi_eval(E, RootOfUnity(3, 1))
        with pytest.raises(DomainError):
            phi_eval(parse_omega(BASIC), RootOfUnity(4, 1))

    def test_ambient_evaluation_consistent(self):
        E = parse_omega(BASIC)
        from kforge.cyclotomic import embed_up

        v = phi_eval(E, RootOfUnity(5, 1))
        assert phi_eval_in(E, RootOfUnity(5, 1), 35) == embed_up(v, 35)

    def test_derived_system_degeneracies(self):
        base = parse_omega(BASIC)
        for eta in ETA_GRID:
            v = phi_eval(base, eta)
            assert phi_eval(parse_omega(BASIC + ",compose=1"), eta) == v
            assert phi_eval(parse_omega(BASIC + ",twist=1:0"), eta) == v


class TestAxioms:
    def test_E1_examples(self):
        E = parse_omega(BASIC)
        assert check_E1(E, RootOfUnity(5, 1), 2).passed
        assert check_E1(E, RootOfUnity(5, 1), -1).passed
        assert check_E1(E, RootOfUnity.one(), 3).passed

    def test_E2_examples(self):
        E = parse_omega(BASIC)
        rep = check_E2(E, RootOfUnity.one(), 3)
        assert rep.passed
        assert rep.witness["lhs"]["num"][0] == "1" and rep.witness["lhs"]["den"] == "2"
        assert check_E2(E, RootOfUnity(5, 1), 3).passed
        assert check_E2(E, RootOfUnity(3, 1), 3).passed  # eta^q = 1 branch

    def test_E2_excluded_prime_rejected(self):
        with pytest.raises(DomainError, match="excluded"):
            check_E2(parse_omega(BASIC), RootOfUnity(5, 1), 2)

    def test_E2_telescoping(self):
        # for eta = 1 the product of the values at the nontrivial q-th roots is 1
        E = parse_omega(BASIC)
        for q in (3, 5, 7):
            big = get_field(q)
            prod = big.one
            for c in range(1, q):
                prod = prod * phi_eval_in(E, RootOfUnity(q, c), q)
            assert prod == big.one

    def test_E3_examples(self):
        E = parse_omega(BASIC)
        rep = check_E3(E, RootOfUnity(5, 1), 3)
        assert rep.passed and rep.params["residue_field"] == "F_3^4"
        rep = check_E3(E, RootOfUnity(7, 1), 3)
        assert rep.passed and rep.params["residue_field"] == "F_3^6"
        assert check_E3(E, RootOfUnity.one(), 3).passed

    def test_E3_coprimality_required(self):
        with pytest.raises(DomainError, match="coprime"):
            check_E3(parse_omega(BASIC), RootOfUnity(3, 1), 3)

    def test_E3_fails_off_zero_weight_sum(self):
        # weights summing to 1: delta = (zeta_3^-1 - zeta_3) - 1, whose image
        # under zeta_3 -> 1 is -1, a unit at the prime above 3
        E = EulerSystem(OmegaSpec(((1, 1),), frozenset({2})))
        rep = check_E3(E, RootOfUnity.one(), 3)
        assert not rep.passed
        assert rep.params["residue_field"] == "F_3^1"

    def test_axioms_for_derived_systems(self):
        for omega in (BASIC + ",compose=2", BASIC + ",twist=3:1"):
            E = parse_omega(omega)
            eta = RootOfUnity(5, 1)
            assert check_E1(E, eta, 2).passed
            assert check_E2(E, eta, 7).passed
            assert check_E3(E, eta, 7).passed


class TestNormRelations:
    def test_aux_norm_instances(self):
        E = parse_omega(BASIC)
        assert check_norm_frobenius(E, 5, 3).passed
        rep = check_norm_frobenius(E, 5, 11)
        assert rep.passed and rep.witness["frobenius_trivial"]
        assert check_norm_frobenius(E, 7, 3).passed

    def test_aux_norm_rejects_trivial_eta(self):
        with pytest.raises(DomainError):
            check_norm_frobenius(parse_omega(BASIC), 1, 3)

    def test_tower_norm_small(self):
        E = parse_omega(BASIC)
        assert check_tower_norm(E, 3, 0).passed

    def test_tower_norm_excluded_prime(self):
        with pytest.raises(DomainError, match="excluded"):
            check_tower_norm(parse_omega("1:2,3:-2"), 3, 0)


class TestUnitCheck:
    def test_golden_instance(self):
        E = parse_omega(BASIC)
        rep = check_unit(E, RootOfUnity(5, 1))
        assert rep.passed
        assert rep.witness["min_poly"] == ["-1", "-1", "1"]
        assert rep.witness["norm"] == "1"

    def test_third_root_instance(self):
        # the value is -1, whose norm from the degree-2 field is (+1)
        rep = check_unit(parse_omega(BASIC), RootOfUnity(3, 1))
        assert rep.passed and rep.witness["norm"] == "1"

    def test_eta_one_rejected(self):
        with pytest.raises(DomainError, match="need not be a unit"):
            check_unit(parse_omega(BASIC), RootOfUnity.one())

    def test_quadratic_subfield_norm(self):
        # over the real quadratic subfield the golden unit has norm -1
        E = parse_omega(BASIC)
        u = phi_eval(E, RootOfUnity(5, 1))
        partner = galois_apply(GaloisElt(u.field, 2), u)
        assert u * partner == u.field.from_rational(-1)


class TestDecompose:
    def test_generator_list(self):
        gens5 = cyclotomic_unit_generators(5, 0)
        assert len(gens5) == 1
        f5 = get_field(5)
        assert gens5[0] == f5.root(2) + f5.root(3)
        assert len(cyclotomic_unit_generators(7, 0)) == 2
        assert len(cyclotomic_unit_generators(5, 1)) == 9

    def test_generators_are_real_units(self):
        for p, n in ((5, 0), (7, 0), (3, 1)):
            for g in cyclotomic_unit_generators(p, n):
                assert is_in_real_subfield(g)
                assert absolute_norm(g) in (1, -1)
                assert all(c.denominator == 1 for c in minimal_polynomial(g))

    def test_trivial_cases(self):
        f5 = get_field(5)
        d = decompose_over_cyclotomic_units(f5.one, 5, 0)
        assert d.exponents == (0,) and d.unit_root == 1
        g = cyclotomic_unit_generators(5, 0)[0]
        d = decompose_over_cyclotomic_units(g, 5, 0)
        assert d.exponents == (1,) and d.unit_root == 1

    def test_golden_value(self):
        E = parse_omega(BASIC)
        u = phi_eval(E, RootOfUnity(5, 1))
        d = decompose_over_cyclotomic_units(u, 5, 0)
        assert d.exponents == (1,) and d.unit_root == -1

    def test_exact_remultiplication(self):
        E = parse_omega(BASIC)
        for p in (5, 7):
            u = phi_eval(E, RootOfUnity(p, 1))
            d = decompose_over_cyclotomic_units(u, p, 0)
            gens = cyclotomic_unit_generators(p, 0)
            acc = u.field.one
            for g, e in zip(gens, d.exponents):
                acc = acc * g**e
            assert acc.scale(d.unit_root) == u

    def test_composite_unit(self):
        gens = cyclotomic_unit_generators(7, 0)
        u = gens[0] ** 3 * gens[1] ** -2
        d = decompose_over_cyclotomic_units(-u, 7, 0)
        assert d.exponents == (3, -2) and d.unit_root == -1

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError, match="not a unit"):
            decompose_over_cyclotomic_units(get_field(5).from_rational(2), 5, 0)


E3_SYSTEMS = (BASIC, BASIC + ",twist=3:1", "1:2,3:-2", "2:1,3:-1", BASIC + ",compose=2")
E3_CASES = [
    (omega, order, q)
    for omega in E3_SYSTEMS
    for order in (1, 3, 5, 7)
    for q in (3, 7, 11)
    if order % q
    and parse_omega(omega).admissible(RootOfUnity(order, 1 % order))
    and q not in parse_omega(omega).effective_excluded
]


def e3_oracle(sympy, witness, q):
    """Whether delta vanishes at every prime above q, from sympy's factors of
    Phi_m' mod q: the primes above q correspond to those factors under
    zeta_N -> x^a', a' = q^-1 mod m', and x^m' = 1 modulo each of them."""
    N = int(witness["conductor"])
    m_prime = N // q
    if int(witness["den"]) % q == 0:
        raise AssertionError("delta is not integral at q")
    x = sympy.symbols("x")
    a_prime = pow(q, -1, m_prime)
    image = [0] * m_prime
    for i, c in enumerate(witness["num"]):
        image[i * a_prime % m_prime] += int(c)
    image = sympy.Poly(list(reversed(image)), x, modulus=q)
    _, factors = sympy.factor_list(sympy.cyclotomic_poly(m_prime, x), modulus=q)
    return all(image.rem(sympy.Poly(f, x, modulus=q)).is_zero for f, _ in factors)


@pytest.mark.filterwarnings(r"ignore:\s*Ordered comparisons with modular integers")
@pytest.mark.parametrize("omega,order,q", E3_CASES)
def test_E3_against_sympy_factors(omega, order, q, monkeypatch):
    """check_E3 passes exactly when delta vanishes modulo every factor of
    Phi_m' mod q.  Checked on delta itself and on delta plus 1 or zeta_N,
    which must fail, and plus q*zeta_N^3 or 1 - zeta_q, which lie in every
    prime above q and so must pass."""
    sympy = pytest.importorskip("sympy")
    E = parse_omega(omega)
    eta = RootOfUnity(order, 1 % order)
    rep = check_E3(E, eta, q)
    assert rep.passed and e3_oracle(sympy, rep.witness["delta"], q)
    field = get_field(int(rep.witness["delta"]["conductor"]))
    m_prime = field.m // q
    translate = eta.times(RootOfUnity(q, 1))
    real_phi_eval_in = euler.phi_eval_in
    for pert, expected in (
        (field.one, False),
        (field.root(1), False),
        (field.root(3).scale(q), True),
        (field.one - field.root(m_prime), True),
    ):

        def perturbed(E_, eta_, N, invert=False):
            value = real_phi_eval_in(E_, eta_, N, invert)
            return value + pert if eta_.canonical() == translate else value

        monkeypatch.setattr(euler, "phi_eval_in", perturbed)
        rep = check_E3(E, eta, q)
        assert rep.passed is expected
        assert e3_oracle(sympy, rep.witness["delta"], q) is expected
