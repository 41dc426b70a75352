import dataclasses
from fractions import Fraction

import pytest

from kforge import primes
from kforge.errors import DomainError
from kforge.cyclotomic import (
    GaloisElt,
    RootOfUnity,
    galois_apply,
    galois_classes,
    get_field,
)
from kforge.euler import clear_memo, parse_omega, phi_eval
from kforge.exact_arith import int_dlog, int_padic_valuation, ip_eval, primes_upto
from kforge.kolyvagin import KolyParams, cocycle_closed_form, kappa
from kforge.primes import (
    annihilator_from_dlogs,
    check_factorization,
    class_relation,
    ideal_dlog_vector,
    ideal_vector,
    split_prime_data,
    valuation,
)
from group_ring import apply_galois_to_annihilator, cyclotomic_oracle, relative_norm, zeta

BASIC = parse_omega("1:1,2:-1")
PARAMS = KolyParams(5, 0, 5)


def added(u, v, M):
    """Entries of the sum of two vectors in I_q / M I_q."""
    return tuple((a + b) % M for a, b in zip(u, v))


# Conductors and precisions of the lift grid; each conductor is taken with
# its first four split primes.
LIFT_CONDUCTORS = (3, 5, 7, 9, 25, 27)
LIFT_PRECISIONS = (1, 2, 3, 8, 16, 32)
SPLIT_GRID = [
    (m, q) for m in LIFT_CONDUCTORS for q in [q for q in primes_upto(1000) if q % m == 1][:4]
]


def searched_lift(poly, c, q):
    """The roots of poly mod q^2 above c, by search over c + q*j."""
    return [c + q * j for j in range(q) if ip_eval(poly, c + q * j) % q**2 == 0]


@pytest.fixture(scope="module")
def data11():
    return split_prime_data(11, 5)


@pytest.fixture(scope="module")
def golden():
    return phi_eval(BASIC, RootOfUnity(5, 1))


class TestSplitData:
    def test_q11(self, data11):
        assert data11.roots == (3, 4, 5, 9)
        assert data11.pairs == ((3, 4), (5, 9))
        assert data11.t == 2 and data11.gamma == 6

    def test_q31(self):
        d = split_prime_data(31, 5)
        assert d.roots == (2, 4, 8, 16)
        assert d.pairs == ((2, 16), (4, 8))

    def test_nonsplit_rejected(self):
        with pytest.raises(DomainError, match="split"):
            split_prime_data(13, 5)
        with pytest.raises(DomainError, match="prime"):
            split_prime_data(21, 5)

    @pytest.mark.parametrize("m, q", SPLIT_GRID)
    def test_pairing_is_inverse_matching(self, m, q):
        data = split_prime_data(q, m)
        assert sorted(c for pair in data.pairs for c in pair) == list(data.roots)
        for a, b in data.pairs:
            assert a < b and a * b % q == 1

    @pytest.mark.parametrize("m, q", SPLIT_GRID)
    def test_roots_match_a_search(self, m, q):
        poly = cyclotomic_oracle(m)
        searched = tuple(c for c in range(q) if ip_eval(poly, c) % q == 0)
        assert split_prime_data(q, m).roots == searched


class TestTeichmullerLift:
    """The root of Phi_m mod q^k above c is c^(q^(k-1)), because m | q - 1."""

    @pytest.mark.parametrize("m, q", SPLIT_GRID)
    def test_lift_is_the_root_above_c(self, m, q):
        poly = cyclotomic_oracle(m)
        for c in split_prime_data(q, m).roots:
            for k in LIFT_PRECISIONS:
                r = pow(c, q ** (k - 1), q**k)
                assert r % q == c
                assert ip_eval(poly, r) % q**k == 0
            assert searched_lift(poly, c, q) == [pow(c, q, q**2)]

    @pytest.mark.parametrize("m, q", [(5, 11), (9, 19), (25, 101)])
    def test_valuation_reads_the_lift(self, m, q):
        # zeta - a, for a the searched root above c mod q^2, has norm Phi_m(a)
        # and lies only in the prime above c, at least twice
        field, data, poly = get_field(m), split_prime_data(q, m), cyclotomic_oracle(m)
        for c in data.roots:
            (a,) = searched_lift(poly, c, q)
            x = zeta(field, 1) - field.from_rational(a)
            vals = [valuation(x, d, data) for d in data.roots]
            v = int_padic_valuation(ip_eval(poly, a), q)
            assert v >= 2
            assert vals == [v if d == c else 0 for d in data.roots]


class TestValuation:
    def test_rational_prime_splits_evenly(self, data11):
        x = get_field(5).from_rational(11)
        assert [valuation(x, c, data11) for c in data11.roots] == [1, 1, 1, 1]

    def test_units_have_zero_valuation(self, data11, golden):
        assert [valuation(golden, c, data11) for c in data11.roots] == [0, 0, 0, 0]

    def test_zeta_minus_three(self, data11):
        # the norm of zeta - 3 is 121 = 11^2 and the root-3 prime carries all
        # of it: the canonical lift of 3 is a root mod 121 as well
        f5 = get_field(5)
        x = zeta(f5, 1) - f5.from_rational(3)
        assert relative_norm(x, 1) == f5.from_rational(121)
        assert valuation(x, 3, data11) == 2
        assert valuation(x, 9, data11) == 0
        assert valuation(x, 4, data11) == 0
        assert valuation(x, 5, data11) == 0

    def test_negative_valuations(self, data11):
        f5 = get_field(5)
        x = f5.from_rational(Fraction(3, 11**4))
        assert valuation(x, 3, data11) == -4

    @pytest.mark.parametrize("v", [7, 8, 9, 16, 17])
    def test_valuations_across_the_doublings(self, data11, v):
        # k runs 1, 2, 4, ...: 11^7 is read at k = 8, 11^8 and 11^9 at k = 16,
        # 11^16 and 11^17 at k = 32
        x = get_field(5).from_rational(11**v)
        assert [valuation(x, c, data11) for c in data11.roots] == [v] * 4

    def test_large_valuations_are_answered(self, data11):
        # no precision bound: 11^512 is read at k = 1024, and a unit numerator
        # over 11^600 at k = 1
        f5 = get_field(5)
        assert valuation(f5.from_rational(11**512), 3, data11) == 512
        assert valuation(f5.from_rational(Fraction(3, 11**600)), 3, data11) == -600

    def test_zero_rejected(self, data11):
        with pytest.raises(DomainError):
            valuation(get_field(5).from_rational(0), 3, data11)

    def test_non_root_rejected(self, data11):
        with pytest.raises(DomainError, match="not a root"):
            valuation(get_field(5).from_rational(11), 2, data11)

    @pytest.mark.parametrize("q", [11, 31])
    def test_norm_reconciliation(self, q, golden):
        # the valuations over all degree-one primes sum to the q-adic
        # valuation of the absolute norm
        data = split_prime_data(q, 5)
        f5 = get_field(5)
        grid = [
            f5.from_rational(q),
            golden * f5.from_rational(q * q),
            zeta(f5, 1) - f5.from_rational(3),
            zeta(f5, 2) + f5.from_rational(q) * zeta(f5, 1) + f5.one,
        ]
        for x in grid:
            nrm = relative_norm(x, 1).as_rational()
            total = sum(valuation(x, c, data) for c in data.roots)
            assert total == int_padic_valuation(nrm.numerator, q) - int_padic_valuation(
                nrm.denominator, q
            )


@pytest.fixture(scope="module", params=[11, 31])
def law(request):
    return check_factorization(BASIC, PARAMS, 1, request.param, 42)


class TestIdealVector:
    def test_partner_roots_read_the_same_vector(self, law):
        # ideal_vector reads the first root of each pair; kappa's classes are
        # real, so the partner root 1/c reads the same vector.  The non-real
        # zeta - 3 has valuation 2 at 3 and 0 at 4, where one root would not do
        data = law.data
        for x in (law.kappa_s, law.kappa_sq):
            assert ideal_vector(x, 5, data) == tuple(valuation(x, d, data) % 5 for _, d in data.pairs)
        skew = zeta(get_field(5), 1) - get_field(5).from_rational(3)
        d11 = split_prime_data(11, 5)
        assert [valuation(skew, c, d11) for c in d11.pairs[0]] == [2, 0]

    def test_unit_gives_zero(self, data11, golden):
        assert ideal_vector(golden, 5, data11) == (0, 0)

    def test_split_rational(self, data11):
        vec = ideal_vector(get_field(5).from_rational(11), 5, data11)
        assert vec == (1, 1)

    def test_additive(self, data11, golden):
        f5 = get_field(5)
        x = f5.from_rational(11) * golden
        y = f5.from_rational(Fraction(1, 11)) + f5.from_rational(Fraction(121, 11))
        vx, vy, vxy = (ideal_vector(v, 5, data11) for v in (x, y, x * y))
        assert vxy == added(vx, vy, 5)


class TestDlogVector:
    def test_one_maps_to_zero(self, data11):
        assert ideal_dlog_vector(get_field(5).one, 5, data11) == (0, 0)

    def test_golden_unit_vector(self, data11, golden):
        # hand-checkable: residues at the roots 3 and 9 are 8 and 4; their
        # logs base gamma = 6 are 7 and 8, i.e. (2, 3) mod 5
        brute = []
        for c, _ in data11.pairs:
            acc = 0
            for coeff in reversed(golden.num):
                acc = (acc * c + coeff) % 11
            e = next(e for e in range(10) if pow(6, e, 11) == acc)
            brute.append(e % 5)
        vec = ideal_dlog_vector(golden, 5, data11)
        assert vec == tuple(brute) == (2, 3)

    def test_homomorphism_and_mth_powers(self, data11, golden):
        f5 = get_field(5)
        w1 = golden * f5.from_rational(7)
        w2 = golden + f5.from_rational(2)
        a = ideal_dlog_vector(w1, 5, data11)
        b = ideal_dlog_vector(w2, 5, data11)
        assert ideal_dlog_vector(w1 * w2, 5, data11) == added(a, b, 5)
        assert ideal_dlog_vector(w1 * golden**5, 5, data11) == a

    @pytest.mark.parametrize(
        "q, M", [(11, 5), (31, 5), (61, 5), (7, 3), (13, 3), (19, 3), (37, 3), (19, 9), (37, 9)]
    )
    def test_one_power_reads_the_scanned_log_mod_M(self, q, M):
        # a rational r has the residue r at every root, in Q(zeta_M)
        data, field = split_prime_data(q, M), get_field(M)
        for r in range(1, q):
            expected = int_dlog(data.gamma, r, q) % M
            assert ideal_dlog_vector(field.from_rational(r), M, data) == (expected,) * len(data.pairs)

    def test_partner_roots_read_the_same_vector(self, law):
        # as for ideal_vector: the residues of the real level-1 class at c
        # and 1/c are equal, so the scanned logs at the partner roots give
        # the law's vector.  The non-real zeta has residues 3 and 4 at the
        # pair (3, 4), whose logs base gamma = 6 are 2 and 8, unequal mod 5
        data, q, w = law.data, law.data.q, law.kappa_s
        partner = tuple(int_dlog(data.gamma, ip_eval(w.num, d) * pow(w.den, -1, q), q) % 5 for _, d in data.pairs)
        assert law.part_ii_dlogs == ideal_dlog_vector(w, 5, data) == partner
        assert [int_dlog(6, c, 11) for c in split_prime_data(11, 5).pairs[0]] == [2, 8]

    def test_q_not_1_mod_M_is_refused(self, data11):
        with pytest.raises(DomainError, match="^11 is not 1 mod 3$"):
            ideal_dlog_vector(get_field(5).one, 3, data11)

    def test_not_prime_to_q(self, data11):
        f5 = get_field(5)
        # the real (zeta - c)(zeta^(-1) - c) vanishes at the pair (c, 1/c)
        # only: at (3, 4) for c = 3, at (5, 9) for c = 5
        at_one_prime = [
            (zeta(f5, 1) - f5.from_rational(c)) * (zeta(f5, -1) - f5.from_rational(c)) for c in (3, 5)
        ]
        for w, pair in zip(at_one_prime, data11.pairs):
            assert [c for c in data11.roots if ip_eval(w.num, c) % 11 == 0] == list(pair)
        for w in [f5.from_rational(11), f5.from_rational(Fraction(1, 11)), *at_one_prime]:
            with pytest.raises(DomainError) as raised:
                ideal_dlog_vector(w, 5, data11)
            assert str(raised.value) == "not prime to q"


class TestAnnihilator:
    def test_trivial_input(self, data11):
        theta = annihilator_from_dlogs(ideal_dlog_vector(get_field(5).one, 5, data11), data11)
        assert all(c == 0 for _, c in theta.coeffs)

    def test_classes(self):
        assert galois_classes(5) == [1, 2]
        assert galois_classes(9) == [1, 2, 4]

    def test_reads_off_vector(self, data11, golden):
        theta = annihilator_from_dlogs(ideal_dlog_vector(golden, 5, data11), data11)
        assert dict(theta.coeffs) == {1: 2, 2: 3}
        assert theta.reference_pair == data11.pairs[0]

    @pytest.mark.parametrize("b", [2, 3])
    def test_equivariance(self, data11, golden, b):
        f5 = get_field(5)
        w = golden * f5.from_rational(7) + f5.one
        moved = galois_apply(GaloisElt(f5, b), w)
        lhs = annihilator_from_dlogs(ideal_dlog_vector(moved, 5, data11), data11)
        rhs = apply_galois_to_annihilator(
            annihilator_from_dlogs(ideal_dlog_vector(w, 5, data11), data11), b, 5
        )
        assert lhs == rhs


class TestFactorizationLaw:
    def test_q11(self):
        rep = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert rep.passed
        assert rep.part_i_vector == (0, 0)
        assert rep.part_ii_valuations == rep.part_ii_dlogs == (2, 3)

    def test_level_nine(self):
        rep = check_factorization(BASIC, KolyParams(3, 1, 3), 1, 19, seed=7)
        assert rep.passed
        assert len(rep.part_ii_valuations) == 3

    def test_seed_independence_of_the_law(self):
        a = check_factorization(BASIC, PARAMS, 1, 11, seed=1)
        b = check_factorization(BASIC, PARAMS, 1, 11, seed=99)
        assert a.passed and b.passed
        assert a.part_ii_dlogs == b.part_ii_dlogs

    def test_reuses_a_certified_level_sq_cocycle(self, built_cocycles):
        cocycle_closed_form(BASIC, PARAMS, 11)
        given = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert built_cocycles == [55]
        clear_memo()
        fresh = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert built_cocycles == [55, 55]
        assert given.passed and (given.kappa_s, given.kappa_sq) == (fresh.kappa_s, fresh.kappa_sq)

    def test_flipped_generator_convention_breaks_the_law(self, monkeypatch):
        # gamma = t in place of t^(-1) negates every discrete log, so the dlog
        # side of part (ii) reads (3, 2) against valuations (2, 3)
        split = primes.split_prime_data

        def flipped(q, m):
            data = split(q, m)
            return dataclasses.replace(data, gamma=data.t)

        monkeypatch.setattr(primes, "split_prime_data", flipped)
        rep = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert rep.part_ii_valuations == (2, 3)
        assert rep.part_ii_dlogs == (3, 2)
        assert rep.passed is False
        assert class_relation(rep).relation_holds is False


def relation_at(q, seed):
    return class_relation(check_factorization(BASIC, PARAMS, 1, q, seed=seed))


class TestClassRelation:
    def test_q11(self):
        rel = relation_at(11, 42)
        assert rel.relation_holds
        assert dict(rel.theta.coeffs) == {1: 2, 2: 3}
        assert rel.probes == {31: True, 41: True, 61: True, 71: True}

    def test_reuses_the_certified_level_q_class(self, built_cocycles):
        kappa(BASIC, PARAMS, 11, 42)
        given = relation_at(11, 42)
        relation_at(11, 43)
        assert built_cocycles == [55]
        clear_memo()
        fresh = relation_at(11, 42)
        assert built_cocycles == [55, 55]
        assert (given.theta, given.relation_holds, given.probes) == (
            fresh.theta,
            fresh.relation_holds,
            fresh.probes,
        )

    @pytest.mark.parametrize("q", [11, 31])
    def test_probes_read_the_laws_level_q_class(self, q):
        # the law's kappa_sq is kappa's level-q class, so the probes are its
        # ideal vectors at the other Kolyvagin primes up to 100
        law = check_factorization(BASIC, PARAMS, 1, q, seed=42)
        k_q = kappa(BASIC, PARAMS, q, 42).kappa
        assert law.kappa_sq == k_q
        expected = {
            other: not any(ideal_vector(k_q, 5, split_prime_data(other, 5)))
            for other in (11, 31, 41, 61, 71)
            if other != q
        }
        assert class_relation(law).probes == expected
        # a witness with a nontrivial ideal at 41 fails exactly that probe
        ideal_at_41 = get_field(5).from_rational(41)
        probes = class_relation(dataclasses.replace(law, kappa_sq=ideal_at_41)).probes
        assert probes == {other: other != 41 for other in expected}

    def test_refuses_a_law_above_level_one(self):
        law = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        with pytest.raises(DomainError, match="level-1"):
            class_relation(dataclasses.replace(law, s=31))
