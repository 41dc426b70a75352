import json
import math
from fractions import Fraction

import pytest

from kforge import cyclotomic, euler
from kforge.cli import main
from kforge.errors import ConfigError, DomainError
from kforge.cyclotomic import (
    RootOfUnity,
    elt_to_strings,
    embed_up,
    galois_apply,
    GaloisElt,
    get_field,
    is_in_real_subfield,
    minimal_polynomial,
    product,
)
from kforge.euler import (
    EulerSystem,
    OmegaSpec,
    check_E1,
    check_E2,
    check_E3,
    check_unit,
    clear_memo,
    cyclotomic_unit_generators,
    decompose_over_cyclotomic_units,
    parse_omega,
    phi_eval,
)
from kforge.exact_arith import factorize, is_prime

from group_ring import (
    factor_product,
    inverse,
    one_minus_root_inverse,
    relative_norm,
    twisted_value_reference,
    zeta,
)

BASIC = "1:1,2:-1"
ETA_GRID = [RootOfUnity(1, 0), RootOfUnity(3, 1), RootOfUnity(5, 1), RootOfUnity(7, 1)]


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

    def test_zero_weight_rejected(self):
        # a weight-0 pair adds nothing to the value but its base's primes to
        # the excluded set, which would shrink the grid the axioms are checked on
        with pytest.raises(ConfigError, match="pair weights must be nonzero"):
            parse_omega("1:1,2:-1,3:0")

    def test_position_in_error(self):
        with pytest.raises(ConfigError, match="token 2"):
            parse_omega("1:1,nonsense")

    def test_trivial_twist_is_no_twist(self):
        E = parse_omega(BASIC + ",twist=1:0")
        assert E == parse_omega(BASIC) == EulerSystem(E.base)
        assert E.twist == RootOfUnity(1, 0) and E.describe() == BASIC

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1:1,2:-1,twist=3:1,twist=5:1", "repeated twist= (token 4 at position 19)"),
            ("1:1,twist=5:1,2:-1,twist=5:1", "repeated twist= (token 4 at position 19)"),
            ("1:1,2:-1,compose=2,compose=3", "repeated compose= (token 4 at position 19)"),
            ("compose=3,1:1,compose=3,2:-1", "repeated compose= (token 3 at position 14)"),
        ],
    )
    def test_repeated_decoration_rejected(self, text, where):
        # the second token would replace the first without notice
        with pytest.raises(ConfigError) as raised:
            parse_omega(text)
        assert str(raised.value) == where

    def test_imprimitive_twist_rejected(self):
        with pytest.raises(ConfigError):
            parse_omega("1:1,2:-1,twist=9:3")

    def test_twist_must_avoid_excluded(self):
        with pytest.raises(ConfigError, match="coprime"):
            EulerSystem(OmegaSpec.build([(1, 1), (2, -1)]), None, RootOfUnity(2, 1))

    def test_twist_must_be_prime_to_twice_every_base(self):
        # a hand-built excluded set may leave out the base 3; the translates
        # then do not multiply to Phi_3(y^6), so the twist is refused
        spec = OmegaSpec(((3, 1), (1, -1)), frozenset({2}))
        with pytest.raises(ConfigError, match="coprime to 2a"):
            EulerSystem(spec, twist=RootOfUnity(3, 1))
        # untwisted or twisted prime to 6, it builds; PERTURBED and the
        # weight-sum-1 system of the E3 test are the untwisted controls
        assert EulerSystem(spec) and EulerSystem(spec, twist=RootOfUnity(5, 1))


class TestValues:
    def test_value_at_one(self):
        E = parse_omega(BASIC)
        assert phi_eval(E, RootOfUnity(1, 0)).as_rational() == Fraction(1, 2)
        E2 = parse_omega("1:2,3:-2")
        assert phi_eval(E2, RootOfUnity(1, 0)).as_rational() == Fraction(1, 9)

    def test_value_at_third_root(self):
        E = parse_omega(BASIC)
        v = phi_eval(E, RootOfUnity(3, 1))
        assert v == get_field(3).from_rational(-1)

    def test_value_at_fifth_root_is_golden_unit(self):
        E = parse_omega(BASIC)
        f5 = get_field(5)
        assert phi_eval(E, RootOfUnity(5, 1)) == -(zeta(f5, 2) + zeta(f5, 3))

    def test_values_are_real(self):
        E = parse_omega(BASIC)
        for eta in ETA_GRID:
            assert is_in_real_subfield(phi_eval(E, eta))

    def test_inverse_evaluation(self):
        E, E_neg = parse_omega(BASIC), parse_omega("1:-1,2:1")
        for eta in ETA_GRID:
            v = phi_eval(E, eta)
            assert v * phi_eval(E_neg, eta) == v.field.one

    def test_outside_domain_rejected(self):
        E = parse_omega("1:2,3:-2")  # excluded set {2, 3}
        with pytest.raises(DomainError, match="outside the admissible domain"):
            phi_eval(E, RootOfUnity(3, 1))
        with pytest.raises(DomainError):
            phi_eval(parse_omega(BASIC), RootOfUnity(4, 1))

    def test_ambient_evaluation_consistent(self):
        # a value lies in its argument's field; a wider field holds it only
        # through a multiple of that conductor
        E = parse_omega(BASIC)
        v = phi_eval(E, RootOfUnity(5, 1))
        assert v.field.m == 5 and embed_up(v, 35).field.m == 35
        with pytest.raises(DomainError, match="5 does not divide 21"):
            embed_up(v, 21)

    def test_derived_system_degeneracies(self):
        base = parse_omega(BASIC)
        for eta in ETA_GRID:
            v = phi_eval(base, eta)
            assert phi_eval(parse_omega(BASIC + ",compose=1"), eta) == v
            assert phi_eval(parse_omega(BASIC + ",twist=1:0"), eta) == v


class TestValueMemo:
    def counted_factors(self, monkeypatch):
        calls = []
        factor_data = euler._factor_data

        def counted(E, eta, m):
            calls.append((E, eta))
            return factor_data(E, eta, m)

        monkeypatch.setattr(euler, "_factor_data", counted)
        return calls

    def test_equal_roots_share_one_entry(self, monkeypatch):
        calls = self.counted_factors(monkeypatch)
        E = parse_omega(BASIC)
        first = phi_eval(E, RootOfUnity(6, 2))
        assert phi_eval(E, RootOfUnity(3, 1)) is first
        assert calls == [(E, RootOfUnity(3, 1))]
        assert list(euler.MEMO) == [("phi", E, RootOfUnity(3, 1))]

    def test_systems_at_one_root_keep_their_own_values(self):
        eta = RootOfUnity(5, 1)
        E, E_neg = parse_omega(BASIC), parse_omega("1:-1,2:1")
        v, w = phi_eval(E, eta), phi_eval(E_neg, eta)
        assert v != w and v * w == v.field.one
        assert phi_eval(E, eta) is v and phi_eval(E_neg, eta) is w

    def test_an_inadmissible_root_raises_every_time_and_is_not_kept(self, monkeypatch):
        calls = self.counted_factors(monkeypatch)
        E = parse_omega("1:2,3:-2")  # excluded set {2, 3}
        phi_eval(E, RootOfUnity(5, 1))
        held = dict(euler.MEMO)
        for _ in range(2):
            with pytest.raises(DomainError, match="^root of order 3 is outside the admissible domain$"):
                phi_eval(E, RootOfUnity(3, 1))
        # the refusal is the factor data's, made again at each call
        assert euler.MEMO == held and calls == [(E, RootOfUnity(5, 1))] + [(E, RootOfUnity(3, 1))] * 2

    def test_clear_memo_forgets_values(self, monkeypatch):
        calls = self.counted_factors(monkeypatch)
        E, eta = parse_omega(BASIC), RootOfUnity(5, 1)
        v = phi_eval(E, eta)
        clear_memo()
        assert not euler.MEMO
        w = phi_eval(E, eta)
        assert w == v and w is not v and len(calls) == 2


ORACLE_SYSTEMS = (
    BASIC,
    "1:2,3:-2",
    "1:3,2:-1,4:-2",
    BASIC + ",compose=2",
    BASIC + ",twist=3:1",
    BASIC + ",compose=3,twist=5:2",
)
ORACLE_CASES = [
    pytest.param(omega, RootOfUnity(order, exp), N, id=f"{omega}-zeta_{order}^{exp}-N{N}")
    for omega in ORACLE_SYSTEMS
    for order, exp in ((1, 0), (3, 2), (5, 1), (7, 3), (9, 4), (11, 1), (15, 7), (21, 5))
    if parse_omega(omega).admissible(RootOfUnity(order, exp))
    for N in (math.lcm(order, parse_omega(omega).twist.order) * k for k in (1, 3))
]


def residue_oracle(E, eta, N, ell, r):
    """The value at eta computed in F_ell straight from the definition, with
    zeta_N -> r: a product of (r^(-ja) - r^(ja))^n over the pairs at each
    exponent j of the argument (every twist translate, raised to the
    composition power), a^n in place of a factor where r^j = 1."""
    h = E.twist.order
    j = eta.exp * (N // eta.order)
    exponents = [j + b * E.twist.exp * (N // h) for b in range(1, h + 1) if math.gcd(b, h) == 1]
    if E.compose_n:
        exponents = [e * E.compose_n for e in exponents]
    value = 1
    for e in exponents:
        for a, n in E.base.pairs:
            x = a if e * a % N == 0 else pow(r, -e * a % N, ell) - pow(r, e * a % N, ell)
            value = value * pow(x, n, ell) % ell
    return value


@pytest.mark.parametrize("omega,eta,N", ORACLE_CASES)
def test_values_against_direct_evaluation_mod_a_split_prime(omega, eta, N):
    """phi_eval agrees with the definition at every embedding zeta_N -> r
    into F_ell, for a prime ell = 1 mod N and r of order N mod ell; so it
    agrees with it modulo every prime above ell."""
    E = parse_omega(omega)
    value = embed_up(phi_eval(E, eta), N)
    ell = next(ell for ell in range(N * (10**4 // N) + 1, 10**7, N) if is_prime(ell))
    assert value.den % ell != 0
    r = next(
        r
        for r in (pow(x, (ell - 1) // N, ell) for x in range(2, ell))
        if all(pow(r, N // t, ell) != 1 for t in factorize(N))
    )
    for u in get_field(N).unit_group:
        r_u = pow(r, u, ell)
        at_r_u = sum(c * pow(r_u, i, ell) for i, c in enumerate(value.num)) * pow(value.den, -1, ell)
        assert at_r_u % ell == residue_oracle(E, eta, N, ell, r_u), u


@pytest.mark.parametrize(
    "omega", (BASIC, "1:2,3:-2", "1:3,2:-1,4:-2", BASIC + ",compose=5", BASIC + ",twist=15:1")
)
def test_values_equal_the_product_of_their_reference_factors(omega):
    """phi_eval, which multiplies the factor data out in the group ring with
    one reduction, equals the product of the factors as field elements, each
    inverse in closed form, at two roots of each admissible order."""
    E = parse_omega(omega)
    etas = [
        RootOfUnity(order, exp % order)
        for order in (1, 3, 5, 7, 9, 15, 21, 25, 35)
        for exp in (1, 2)
        if E.admissible(RootOfUnity(order, 1 % order))
    ]
    assert len(etas) >= 3
    for eta in etas:
        data = euler._factor_data(E, eta, eta.order)
        assert phi_eval(E, eta) == factor_product(get_field(eta.order), *data), eta


# the systems the desk benchmark passes to the axioms command
DESK_SYSTEMS = (BASIC, BASIC + ",twist=3:1", "1:2,3:-2", "2:1,3:-1", BASIC + ",compose=2")


# h' = h / gcd(n, h) is 1 for compose=3,twist=3:1 and 3 for compose=5,twist=15:2
TWISTED_SYSTEMS = tuple(
    BASIC + decoration
    for decoration in (",twist=5:2", ",twist=15:1", ",compose=3,twist=3:1", ",compose=5,twist=15:2")
)


@pytest.mark.parametrize("omega", DESK_SYSTEMS + TWISTED_SYSTEMS)
def test_values_equal_the_translate_product(omega):
    """phi_eval, which expands a twist through Phi_h' in Q(zeta_ord(eta)),
    equals the product over the translates formed in the wider field and
    solved back down, at 1 and at three exponents of every admissible order
    up to 40."""
    E = parse_omega(omega)
    etas = {
        RootOfUnity(order, exp % order)
        for order in range(1, 41)
        for exp in (1, 2, -1)
        if math.gcd(exp, order) == 1 and E.admissible(RootOfUnity(order, exp % order))
    }
    assert len(etas) >= 20
    for eta in etas:
        value = phi_eval(E, eta)
        assert value.field.m == eta.order
        assert value == twisted_value_reference(E, eta), eta


@pytest.mark.parametrize(
    "pairs, compose, twist, order",
    [
        (((1, 1),), 5, (15, 1), 1),  # weight sum 1: (Phi_3(1)^4)^1 at 1
        (((1, 1),), 5, (15, 1), 7),
        (((3, 1), (1, -1)), None, (5, 1), 3),  # zeta_3^6 = 1: the pair (3, 1) gives Phi_5(1)
        (((3, 1), (1, -1)), None, (5, 1), 9),
        (((3, 2), (5, 1)), 7, (7, 3), 3),  # h' = 1 and zeta_3^6 = 1: a zero factor
    ],
)
def test_hand_built_limits_equal_the_translate_product(pairs, compose, twist, order):
    # a hand-built excluded set may leave out base primes, so Y = y^(2a) = 1
    # at eta != 1 too; with a nonzero weight sum, the limits do not cancel
    E = EulerSystem(OmegaSpec(pairs, frozenset({2})), compose, RootOfUnity(*twist))
    eta = RootOfUnity(order, 1 % order)
    try:
        expected = twisted_value_reference(E, eta)
    except DomainError:
        with pytest.raises(DomainError, match="zero factor"):
            phi_eval(E, eta)
        return
    assert phi_eval(E, eta) == expected


class TestAxioms:
    def test_E1_examples(self):
        E = parse_omega(BASIC)
        assert check_E1(E, RootOfUnity(5, 1), 2).passed
        assert check_E1(E, RootOfUnity(5, 1), -1).passed
        assert check_E1(E, RootOfUnity(1, 0), 3).passed

    def test_E1_refuses_an_exponent_not_prime_to_the_order_before_evaluating(self):
        with pytest.raises(DomainError, match="^3 is not invertible mod 9$"):
            check_E1(parse_omega(BASIC), RootOfUnity(9, 1), 3)
        assert not euler.MEMO

    def test_E2_examples(self):
        E = parse_omega(BASIC)
        rep = check_E2(E, RootOfUnity(1, 0), 3)
        assert rep.passed
        assert rep.witness["lhs"].num[0] == 1 and rep.witness["lhs"].den == 2
        # the witness is the element E2 formed, not its serialization
        assert rep.witness["lhs"] == product(embed_up(phi_eval(E, RootOfUnity(3, c)), 3) for c in range(3))
        assert check_E2(E, RootOfUnity(5, 1), 3).passed
        assert check_E2(E, RootOfUnity(3, 1), 3).passed  # eta^q = 1 branch

    @pytest.mark.parametrize("omega", DESK_SYSTEMS + (BASIC + ",twist=15:1",))
    def test_E2_lhs_is_the_product_of_the_translate_values(self, omega):
        # E2 multiplies all q translates' factor data out in one pass in
        # Q(zeta_lcm(q, ord eta)); each value formed alone and lifted agrees
        E = parse_omega(omega)
        for eta in (RootOfUnity(1, 0), RootOfUnity(3, 2), RootOfUnity(7, 3), RootOfUnity(9, 4)):
            if not E.admissible(eta):
                continue
            for q in (3, 5, 7):
                if q in E.effective_excluded:
                    continue
                N = math.lcm(q, eta.order, E.twist.order)
                lhs = check_E2(E, eta, q).witness["lhs"]
                assert lhs.field.m == N
                assert lhs == product(embed_up(phi_eval(E, eta.times(RootOfUnity(q, c))), N) for c in range(q))

    def test_E2_refusals_keep_their_messages(self):
        with pytest.raises(DomainError, match="^root of order 3 is outside the admissible domain$"):
            check_E2(parse_omega("1:2,3:-2"), RootOfUnity(3, 1), 5)
        # a hand-built excluded set without 3: the translate of order 3 has
        # y^(2a) = 1 for a = 3 while y != 1 and h' = 1
        E = EulerSystem(OmegaSpec(((3, 2), (5, 1)), frozenset({2})), 7, RootOfUnity(7, 3))
        with pytest.raises(DomainError, match="^zero factor: argument outside the admissible domain$"):
            check_E2(E, RootOfUnity(1, 0), 3)

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
                prod = prod * phi_eval(E, RootOfUnity(q, c))
            assert prod == big.one

    def test_E3_examples(self):
        E = parse_omega(BASIC)
        rep = check_E3(E, RootOfUnity(5, 1), 3)
        assert rep.passed and rep.params["residue_field"] == "F_3^4"
        rep = check_E3(E, RootOfUnity(7, 1), 3)
        assert rep.passed and rep.params["residue_field"] == "F_3^6"
        assert check_E3(E, RootOfUnity(1, 0), 3).passed

    def test_E3_coprimality_required(self):
        with pytest.raises(DomainError, match="coprime"):
            check_E3(parse_omega(BASIC), RootOfUnity(3, 1), 3)

    def test_E3_fails_off_zero_weight_sum(self):
        # weights summing to 1: delta = (zeta_3^-1 - zeta_3) - 1, whose image
        # under zeta_3 -> 1 is -1, a unit at the prime above 3
        E = EulerSystem(OmegaSpec(((1, 1),), frozenset({2})))
        rep = check_E3(E, RootOfUnity(1, 0), 3)
        assert not rep.passed
        assert rep.params["residue_field"] == "F_3^1"

    def test_axioms_for_derived_systems(self):
        for omega in (BASIC + ",compose=2", BASIC + ",twist=3:1"):
            E = parse_omega(omega)
            eta = RootOfUnity(5, 1)
            assert check_E1(E, eta, 2).passed
            assert check_E2(E, eta, 7).passed
            assert check_E3(E, eta, 7).passed

    def test_twisted_witnesses_keep_their_conductors(self):
        # values come from Q(zeta_ord(eta)) and are lifted by embed_up: E2's
        # witnesses lie in Q(zeta_N), N = lcm(q, ord eta, h), and E3's
        # difference in Q(zeta_(q m')), m' = lcm(ord eta, h), the layout the
        # pinned axioms reports record
        E = parse_omega(BASIC + ",twist=3:1")
        eta = RootOfUnity(5, 1)
        rep = check_E2(E, eta, 7)
        assert rep.passed
        assert rep.witness["lhs"].field.m == rep.witness["rhs"].field.m == 105 == math.lcm(7, 5, 3)
        assert rep.witness["rhs"] == embed_up(phi_eval(E, eta**7), 105)
        rep = check_E3(E, eta, 7)
        delta = rep.witness["delta"]
        assert rep.passed and delta.field.m == 7 * 15
        translate = phi_eval(E, eta.times(RootOfUnity(7, 1)))
        assert delta == embed_up(translate, 105) - embed_up(phi_eval(E, eta), 105)


# (3, 1) has an odd weight sum: its value is not invariant under eta -> 1/eta,
# the translates of eta = 1 multiply to 3 * 5 against 3, and its value at
# zeta_5 has norm 5.  Its base 3, left out of the excluded primes, makes all
# translates at q = 3 equal, which breaks distribution down a level.
PERTURBED = EulerSystem(OmegaSpec(((3, 1),), frozenset({2})))


@pytest.mark.parametrize(
    "check, args",
    [
        (check_E1, (RootOfUnity(5, 1), 2)),
        (check_E2, (RootOfUnity(1, 0), 5)),
        (check_unit, (RootOfUnity(5, 1),)),
        (check_E2, (RootOfUnity(5, 1), 3)),
        (check_E2, (RootOfUnity(27, 1), 3)),
    ],
    ids=["E1", "E2", "unit", "norm_frobenius", "tower_norm"],
)
def test_verifier_fails_on_a_perturbed_system(check, args):
    assert check(parse_omega(BASIC), *args).passed
    assert check(PERTURBED, *args).passed is False


def norm_frobenius_reading(E, eta, q, N):
    """N(x) y inside Q(zeta_N) for the values x at eta*zeta_q and y at eta,
    the norm taken down to Q(zeta_ord(eta)): E2's product read as a norm."""
    x = phi_eval(E, eta.times(RootOfUnity(q, 1)))
    return embed_up(relative_norm(x, eta.order), N) * embed_up(phi_eval(E, eta), N)


def tower_norm_reading(E, p, N):
    """The norm of the value at zeta_(p^2) down to Q(zeta_p), inside Q(zeta_N)."""
    return embed_up(relative_norm(phi_eval(E, RootOfUnity(p * p, 1)), p), N)


class TestNormRelations:
    # E2 at q prime to ord(eta) > 1 is N(x) y = Frob_q(y); at (zeta_(p^2), p)
    # it is norm compatibility from Q(zeta_(p^2)) down to Q(zeta_p)

    def test_aux_norm_instances(self):
        E = parse_omega(BASIC)
        assert check_E2(E, RootOfUnity(5, 1), 3).passed
        rep = check_E2(E, RootOfUnity(5, 1), 11)
        # Frob_11 fixes Q(zeta_5): the value at eta^11 is the value at eta
        assert rep.passed and rep.witness["rhs"] == embed_up(phi_eval(E, RootOfUnity(5, 1)), 55)
        assert check_E2(E, RootOfUnity(7, 1), 3).passed

    def test_tower_norm_small(self):
        E = parse_omega(BASIC)
        assert check_E2(E, RootOfUnity(9, 1), 3).passed
        assert tower_norm_reading(E, 3, 9) == embed_up(phi_eval(E, RootOfUnity(3, 1)), 9)

    def test_tower_norm_excluded_prime(self):
        with pytest.raises(DomainError, match="excluded"):
            check_E2(parse_omega("1:2,3:-2"), RootOfUnity(9, 1), 3)


@pytest.mark.parametrize("omega", DESK_SYSTEMS)
def test_axioms_report_carries_the_norm_relations(capsys, omega):
    # every E2 entry at q prime to ord(eta) > 1 is the norm-Frobenius
    # relation, and E2 at (zeta_(p^2), p) is one step of the tower relation
    E = parse_omega(omega)
    assert main(["axioms", "--omega", omega]) == 0
    entries = [c["witness"] for c in json.loads(capsys.readouterr().out)["checks"] if c["name"] == "E2"]
    read = 0
    for witness in entries:
        label, q = witness["params"]["eta"], int(witness["params"]["q"])
        order = 1 if label == "1" else int(label.split("^")[0].removeprefix("zeta_"))
        if order == 1 or order % q == 0:
            continue
        N = int(witness["lhs"]["conductor"])
        assert witness["lhs"] == elt_to_strings(norm_frobenius_reading(E, RootOfUnity(order, 1), q, N))
        read += 1
    grid = [(o, q) for o in (3, 5, 7) for q in (3, 7, 11) if o % q and E.admissible(RootOfUnity(o * q, 1))]
    assert read == len(grid) >= 3
    for p in (3, 5, 7):
        if p in E.effective_excluded:
            continue
        rep = check_E2(E, RootOfUnity(p * p, 1), p)
        N = rep.witness["lhs"].field.m
        assert rep.passed and rep.witness["lhs"] == tower_norm_reading(E, p, N)


class TestUnitCheck:
    def test_golden_instance(self):
        E = parse_omega(BASIC)
        rep = check_unit(E, RootOfUnity(5, 1))
        assert rep.passed
        assert rep.witness["min_poly"] == (-1, -1, 1)
        assert rep.witness["norm"] == 1

    def test_third_root_instance(self):
        # the value is -1, whose norm from the degree-2 field is (+1)
        rep = check_unit(parse_omega(BASIC), RootOfUnity(3, 1))
        assert rep.passed and rep.witness["norm"] == 1

    def test_eta_one_rejected(self):
        with pytest.raises(DomainError, match="need not be a unit"):
            check_unit(parse_omega(BASIC), RootOfUnity(1, 0))

    @pytest.mark.parametrize("omega", DESK_SYSTEMS)
    def test_min_poly_norm_matches_the_norm_for_every_axioms_unit(self, capsys, monkeypatch, omega):
        # the unit check reads N(u) off the minimal polynomial; the reference
        # relative_norm forms it as the product of all the conjugates of u
        values = []
        min_poly = euler.minimal_polynomial

        def recorded(u):
            values.append(u)
            return min_poly(u)

        monkeypatch.setattr(euler, "minimal_polynomial", recorded)
        assert main(["axioms", "--omega", omega]) == 0
        units = [c for c in json.loads(capsys.readouterr().out)["checks"] if c["name"] == "unit"]
        assert len(units) == len(values) >= 2
        for check, u in zip(units, values):
            assert u.field.from_rational(Fraction(check["witness"]["norm"])) == relative_norm(u, 1)

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
        assert gens5[0] == zeta(f5, 2) + zeta(f5, 3)
        assert len(cyclotomic_unit_generators(7, 0)) == 2
        assert len(cyclotomic_unit_generators(5, 1)) == 9

    def test_generators_are_real_units(self):
        for p, n in ((5, 0), (7, 0), (3, 1)):
            for g in cyclotomic_unit_generators(p, n):
                assert is_in_real_subfield(g)
                assert relative_norm(g, 1) in (g.field.one, -g.field.one)
                assert all(c.denominator == 1 for c in minimal_polynomial(g))

    def test_trivial_cases(self):
        f5 = get_field(5)
        d = decompose_over_cyclotomic_units(f5.one, 5, 0)
        assert d.exponents == (0,) and d.unit_root == 1
        for p, exponents in ((5, (1,)), (7, (1, 0))):
            g = cyclotomic_unit_generators(p, 0)[0]
            d = decompose_over_cyclotomic_units(g, p, 0)
            assert d.exponents == exponents and d.unit_root == 1

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
                acc = acc * (g**e if e >= 0 else inverse(g) ** -e)
            assert acc * u.field.from_rational(d.unit_root) == u

    def test_composite_unit(self):
        gens = cyclotomic_unit_generators(7, 0)
        u = gens[0] ** 3 * inverse(gens[1]) ** 2
        d = decompose_over_cyclotomic_units(-u, 7, 0)
        assert d.exponents == (3, -2) and d.unit_root == -1

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_a_perturbed_proposal_is_refused(self, monkeypatch, index, delta):
        # an exponent vector one off in one entry never proves the identity
        genuine = euler._propose_exponents

        def off_by_one(*args):
            exps = genuine(*args)
            if exps is not None:
                exps[index] += delta
            return exps

        monkeypatch.setattr(euler, "_propose_exponents", off_by_one)
        u = phi_eval(parse_omega("1:1,3:-1"), RootOfUnity(7, 1))
        with pytest.raises(DomainError, match="decomposition not found"):
            decompose_over_cyclotomic_units(u, 7, 0)

    @pytest.mark.parametrize("p,n", [(5, 0), (7, 0), (3, 1), (5, 1), (7, 1), (13, 0)])
    def test_generators_are_the_standard_units(self, p, n):
        # zeta^((1-a)/2) (1 - zeta^a) / (1 - zeta), factor by factor
        m = p ** (n + 1)
        field = get_field(m)
        expected = [
            zeta(field, (1 - a) * pow(2, -1, m) % m)
            * (field.one - zeta(field, a))
            * one_minus_root_inverse(field, 1)
            for a in range(2, (m + 1) // 2)
            if a % p
        ]
        assert cyclotomic_unit_generators(p, n) == expected

    def test_non_unit_rejected(self):
        # den 1 but norm 16, 0 or 25, read off the minimal polynomials T - 2,
        # T and T^2 - 5T + 5; the last element is real and not rational
        f5 = get_field(5)
        two = f5.from_rational(2)
        for x, norm in ((two, 16), (f5.from_rational(0), 0), (two - zeta(f5, 1) - zeta(f5, 4), 25)):
            assert x.den == 1 and relative_norm(x, 1) == f5.from_rational(norm)
            with pytest.raises(DomainError, match="not a unit"):
                decompose_over_cyclotomic_units(x, 5, 0)
        assert is_in_real_subfield(x) and not x.is_rational()
        assert not hasattr(cyclotomic, "relative_norm")

    def test_norm_one_non_integer_rejected(self):
        # (2 + zeta)/(2 + zeta^2) has norm 11/11 = 1, so only its
        # denominator 11 shows that it is not a unit
        f5 = get_field(5)
        two = f5.from_rational(2)
        x = (two + zeta(f5, 1)) * inverse(two + zeta(f5, 2))
        assert relative_norm(x, 1) == f5.one and x.den == 11
        with pytest.raises(DomainError, match="not a unit"):
            decompose_over_cyclotomic_units(x, 5, 0)


E3_CASES = [
    (omega, order, q)
    for omega in DESK_SYSTEMS
    for order in (1, 3, 5, 7)
    for q in (3, 7, 11)
    if order % q
    and parse_omega(omega).admissible(RootOfUnity(order, 1 % order))
    and q not in parse_omega(omega).effective_excluded
]


def e3_oracle(sympy, delta, q):
    """Whether delta vanishes at every prime above q, from sympy's factors of
    Phi_m' mod q: the primes above q correspond to those factors under
    zeta_N -> x^a', a' = q^-1 mod m', and x^m' = 1 modulo each of them."""
    m_prime = delta.field.m // q
    if delta.den % q == 0:
        raise AssertionError("delta is not integral at q")
    x = sympy.symbols("x")
    a_prime = pow(q, -1, m_prime)
    image = [0] * m_prime
    for i, c in enumerate(delta.num):
        image[i * a_prime % m_prime] += c
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
    field = rep.witness["delta"].field
    m_prime = field.m // q
    translate = eta.times(RootOfUnity(q, 1))
    real_phi_eval = euler.phi_eval
    for pert, expected in (
        (field.one, False),
        (zeta(field, 1), False),
        (zeta(field, 3) * field.from_rational(q), True),
        (field.one - zeta(field, m_prime), True),
    ):

        def perturbed(E_, eta_):
            value = real_phi_eval(E_, eta_)
            return embed_up(value, field.m) + pert if eta_ == translate else value

        monkeypatch.setattr(euler, "phi_eval", perturbed)
        rep = check_E3(E, eta, q)
        assert rep.passed is expected
        assert e3_oracle(sympy, rep.witness["delta"], q) is expected
