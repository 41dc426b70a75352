import dataclasses
from fractions import Fraction

import pytest

from kforge import primes
from kforge.errors import DomainError, InternalInconsistency
from kforge.cyclotomic import (
    GaloisElt,
    RootOfUnity,
    absolute_norm,
    galois_apply,
    get_field,
)
from kforge.euler import parse_omega, phi_eval
from kforge.exact_arith import int_padic_valuation
from kforge.kolyvagin import KolyParams, clear_memo, cocycle_closed_form, kappa
from kforge.primes import (
    annihilator_from_dlogs,
    check_factorization,
    class_relation,
    galois_classes,
    ideal_dlog_vector,
    ideal_vector,
    split_prime_data,
    valuation,
)
from group_ring import apply_galois_to_annihilator

BASIC = parse_omega("1:1,2:-1")
PARAMS = KolyParams(5, 0, 5)


def added(u, v):
    """Entries of the sum of two vectors in I_q / M I_q."""
    assert (u.q, u.M) == (v.q, v.M)
    return tuple((a + b) % u.M for a, b in zip(u.entries, v.entries))


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

    def test_pairing_is_inverse_matching(self, data11):
        for a, b in data11.pairs:
            assert a * b % 11 == 1


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
        x = f5.root(1) - f5.from_rational(3)
        assert absolute_norm(x) == 121
        assert valuation(x, 3, data11) == 2
        assert valuation(x, 9, data11) == 0
        assert valuation(x, 4, data11) == 0
        assert valuation(x, 5, data11) == 0

    def test_negative_valuations(self, data11):
        f5 = get_field(5)
        x = f5.from_rational(Fraction(3, 11**4))
        assert valuation(x, 3, data11) == -4

    def test_zero_rejected(self, data11):
        with pytest.raises(DomainError):
            valuation(get_field(5).zero, 3, data11)

    @pytest.mark.parametrize("q", [11, 31])
    def test_norm_reconciliation(self, q, golden):
        # the valuations over all degree-one primes sum to the q-adic
        # valuation of the absolute norm
        data = split_prime_data(q, 5)
        f5 = get_field(5)
        grid = [
            f5.from_rational(q),
            golden * f5.from_rational(q * q),
            f5.root(1) - f5.from_rational(3),
            f5.root(2) + f5.from_rational(q) * f5.root(1) + f5.one,
        ]
        for x in grid:
            nrm = absolute_norm(x)
            total = sum(valuation(x, c, data) for c in data.roots)
            assert total == int_padic_valuation(nrm.numerator, q) - int_padic_valuation(
                nrm.denominator, q
            )


class TestIdealVector:
    def test_unit_gives_zero(self, data11, golden):
        assert ideal_vector(golden, 5, data11).is_zero()

    def test_split_rational(self, data11):
        vec = ideal_vector(get_field(5).from_rational(11), 5, data11)
        assert vec.entries == (1, 1)

    def test_additive(self, data11, golden):
        f5 = get_field(5)
        x = f5.from_rational(11) * golden
        y = f5.from_rational(Fraction(1, 11)) + f5.from_rational(Fraction(121, 11))
        vx, vy, vxy = (ideal_vector(v, 5, data11) for v in (x, y, x * y))
        assert vxy.entries == added(vx, vy)

    def test_pair_mismatch_is_inconsistency(self, data11):
        f5 = get_field(5)
        skew = f5.root(1) - f5.from_rational(3)  # not conjugation-invariant
        with pytest.raises(InternalInconsistency):
            ideal_vector(skew, 5, data11)


class TestDlogVector:
    def test_one_maps_to_zero(self, data11):
        assert ideal_dlog_vector(get_field(5).one, 5, data11).is_zero()

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
        assert vec.entries == tuple(brute) == (2, 3)

    def test_homomorphism_and_mth_powers(self, data11, golden):
        f5 = get_field(5)
        w1 = golden * f5.from_rational(7)
        w2 = golden + f5.from_rational(2)
        a = ideal_dlog_vector(w1, 5, data11)
        b = ideal_dlog_vector(w2, 5, data11)
        assert ideal_dlog_vector(w1 * w2, 5, data11).entries == added(a, b)
        assert ideal_dlog_vector(w1 * golden**5, 5, data11).entries == a.entries

    def test_not_prime_to_q(self, data11):
        f5 = get_field(5)
        with pytest.raises(DomainError, match="not prime to q"):
            ideal_dlog_vector(f5.from_rational(11), 5, data11)
        with pytest.raises(DomainError, match="not prime to q"):
            ideal_dlog_vector(f5.from_rational(Fraction(1, 11)), 5, data11)


class TestAnnihilator:
    def test_trivial_input(self, data11):
        theta = annihilator_from_dlogs(ideal_dlog_vector(get_field(5).one, 5, data11), data11)
        assert theta.is_zero()

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
            annihilator_from_dlogs(ideal_dlog_vector(w, 5, data11), data11), b
        )
        assert lhs == rhs


class TestFactorizationLaw:
    def test_q11(self):
        rep = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert rep.passed
        assert rep.part_i_vector.is_zero()
        assert rep.part_ii_valuations.entries == rep.part_ii_dlogs.entries == (2, 3)

    def test_level_nine(self):
        rep = check_factorization(BASIC, KolyParams(3, 1, 3), 1, 19, seed=7)
        assert rep.passed
        assert len(rep.part_ii_valuations.entries) == 3

    def test_seed_independence_of_the_law(self):
        a = check_factorization(BASIC, PARAMS, 1, 11, seed=1)
        b = check_factorization(BASIC, PARAMS, 1, 11, seed=99)
        assert a.passed and b.passed
        assert a.part_ii_dlogs.entries == b.part_ii_dlogs.entries

    def test_reuses_a_certified_level_sq_cocycle(self, certified):
        cocycle_closed_form(BASIC, PARAMS, 11)
        given = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert certified == [55]
        clear_memo()
        fresh = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert certified == [55, 55]
        assert given.passed and given.witness == fresh.witness

    def test_flipped_generator_convention_breaks_the_law(self, monkeypatch):
        # gamma = t in place of t^(-1) negates every discrete log, so the dlog
        # side of part (ii) reads (3, 2) against valuations (2, 3)
        split = primes.split_prime_data

        def flipped(q, m):
            data = split(q, m)
            return dataclasses.replace(data, gamma=data.t)

        monkeypatch.setattr(primes, "split_prime_data", flipped)
        rep = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        assert rep.part_ii_valuations.entries == (2, 3)
        assert rep.part_ii_dlogs.entries == (3, 2)
        assert rep.passed is False
        assert class_relation(BASIC, rep, seed=42).relation_holds is False


def relation_at(q, seed):
    return class_relation(BASIC, check_factorization(BASIC, PARAMS, 1, q, seed=seed), seed=seed)


class TestClassRelation:
    def test_q11(self):
        rel = relation_at(11, 42)
        assert rel.relation_holds
        assert dict(rel.theta.coeffs) == {1: 2, 2: 3}
        assert rel.probes == {31: True, 41: True, 61: True, 71: True}

    def test_reuses_the_certified_level_q_class(self, certified):
        kappa(BASIC, PARAMS, 11, 42)
        given = relation_at(11, 42)
        relation_at(11, 43)
        assert certified == [55]
        clear_memo()
        fresh = relation_at(11, 42)
        assert certified == [55, 55]
        assert (given.theta, given.relation_holds, given.probes) == (
            fresh.theta,
            fresh.relation_holds,
            fresh.probes,
        )

    def test_refuses_a_law_above_level_one(self):
        law = check_factorization(BASIC, PARAMS, 1, 11, seed=42)
        with pytest.raises(DomainError, match="level-1"):
            class_relation(BASIC, dataclasses.replace(law, s=31), seed=42)
