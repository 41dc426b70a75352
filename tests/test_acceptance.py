"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its measured runtime and asserting the stated budget.

The two-prime stretch configuration (field degree 1200) runs the main() of
scripts/stretch_two_prime.py, which also works standalone.
"""

import importlib.util
import json
import math
import pathlib
import time

import pytest

from kforge.cyclotomic import (
    GaloisElt,
    RootOfUnity,
    embed_up,
    galois_apply,
    get_field,
    is_in_real_subfield,
)
from kforge.cli import main as cli_main
from kforge.euler import (
    check_E1,
    check_E2,
    check_E3,
    check_unit,
    cyclotomic_unit_generators,
    decompose_over_cyclotomic_units,
    parse_omega,
    phi_eval,
)
from kforge.exact_arith import ip_eval, primes_upto
from kforge.kolyvagin import (
    _partial_norm,
    KolyParams,
    cocycle_closed_form,
    find_kolyvagin_primes,
    hilbert90_beta,
    kappa,
    level_root,
    lifted_sigma,
)
from kforge.primes import check_factorization
from group_ring import (
    apply_norm,
    cyclotomic_oracle,
    inverse,
    operator_identity_holds,
    ratio_mth_power_witness,
    relative_norm,
)

BASIC = "1:1,2:-1"
A2_OMEGAS = [BASIC, "1:2,3:-2", "2:1,3:-1", BASIC + ",compose=2", BASIC + ",twist=3:1"]
ETA_ORDERS = (1, 3, 5, 7)
AUX_PRIMES = (3, 7, 11)
E1_EXPONENTS = (2, 3)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name} {status} ({elapsed:.2f} s, budget {self.seconds} s)", flush=True)
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def a2_grid():
    """Every (system, eta, auxiliary prime) combination whose preconditions hold."""
    for omega in A2_OMEGAS:
        E = parse_omega(omega)
        for order in ETA_ORDERS:
            eta = RootOfUnity(order, 1 % order)
            if not E.admissible(eta):
                continue
            yield omega, E, eta


def test_A1_operator_identity():
    with Budget("A1", 1.0):
        qs = [q for q in primes_upto(200) if q % 5 == 1 or q % 9 == 1]
        assert qs  # 11, 19, 31, ...
        for q in qs:
            assert operator_identity_holds(q), q


def test_A2_axiom_suite():
    with Budget("A2", 30.0):
        count = 0
        decorated_seen = {"compose": False, "twist": False}
        smallest_field_seen = None
        for omega, E, eta in a2_grid():
            if "compose=" in omega:
                decorated_seen["compose"] = True
            if "twist=" in omega:
                decorated_seen["twist"] = True
            for a in E1_EXPONENTS:
                if eta.order > 1 and math.gcd(a, eta.order) != 1:
                    continue
                assert check_E1(E, eta, a).passed, (omega, eta, "E1", a)
                count += 1
            for q in AUX_PRIMES:
                if q in E.effective_excluded:
                    continue
                assert check_E2(E, eta, q).passed, (omega, eta, "E2", q)
                count += 1
                if math.gcd(q, eta.order) == 1:
                    rep = check_E3(E, eta, q)
                    assert rep.passed, (omega, eta, "E3", q)
                    if (omega, eta.order, q) == (BASIC, 7, 3):
                        smallest_field_seen = rep.params["residue_field"]
                    count += 1
        assert all(decorated_seen.values())
        assert smallest_field_seen == "F_3^6"
        assert count > 80


def test_A3_aux_level_norm_relation():
    # E2 at q prime to ord(eta) > 1 is N(x) y = Frob_q(y), for the values x
    # at eta*zeta_q and y at eta
    with Budget("A3", 10.0):
        E = parse_omega(BASIC)
        eta = RootOfUnity(5, 1)
        assert check_E2(E, eta, 3).passed
        collapse = check_E2(E, eta, 11)
        # Frob_11 fixes Q(zeta_5): the value at eta^11 is the value at eta ...
        y = phi_eval(E, eta)
        assert collapse.passed and collapse.witness["rhs"] == embed_up(y, 55)
        # ... so the norm of x from Q(zeta_55) is exactly 1
        x = phi_eval(E, eta.times(RootOfUnity(11, 1)))
        assert relative_norm(x, 5) == get_field(55).one
        assert check_E2(E, RootOfUnity(7, 1), 3).passed


def test_A4_tower_norm_degree_twenty():
    # E2 at (zeta_25, 5) is norm compatibility from Q(zeta_25) down to Q(zeta_5)
    with Budget("A4", 60.0):
        E = parse_omega(BASIC)
        assert check_E2(E, RootOfUnity(25, 1), 5).passed
        norm = relative_norm(phi_eval(E, RootOfUnity(25, 1)), 5)
        assert norm == embed_up(phi_eval(E, RootOfUnity(5, 1)), 25)


def test_A5_values_are_units():
    with Budget("A5", 10.0):
        for omega, E, eta in a2_grid():
            if eta.order == 1:
                continue
            assert check_unit(E, eta).passed, (omega, eta)
        E = parse_omega(BASIC)
        rep = check_unit(E, RootOfUnity(5, 1))
        assert rep.witness["min_poly"] == (-1, -1, 1)
        assert rep.witness["norm"] == 1
        u = phi_eval(E, RootOfUnity(5, 1))
        # norm over the real quadratic subfield: the product with the
        # nontrivial conjugate is exactly -1
        assert u * galois_apply(GaloisElt(u.field, 2), u) == u.field.from_rational(-1)


def test_A6_cocycle_certificate():
    with Budget("A6", 120.0):
        params = KolyParams(5, 0, 5)
        E = parse_omega(BASIC)
        coc = cocycle_closed_form(E, params, 11)
        x = phi_eval(E, level_root(params, 11))
        assert coc.field.m == 55
        assert coc.values[11] == x**2
        sigma = lifted_sigma(coc.field, 11)
        assert coc.values[11] ** 5 * coc.dsphi == galois_apply(sigma, coc.dsphi)
        # cyclic norm of the cocycle value is 1
        assert apply_norm(coc.values[11], 11) == coc.field.one
        assert _partial_norm(coc.values[11], sigma, 10) == coc.field.one


def test_A7_hilbert90_and_class():
    with Budget("A7", 180.0):
        params = KolyParams(5, 0, 5)
        E = parse_omega(BASIC)
        coc = cocycle_closed_form(E, params, 11)
        beta = hilbert90_beta(coc, 42)
        sigma = lifted_sigma(coc.field, 11)
        assert galois_apply(sigma, beta) == coc.values[11] * beta
        a = kappa(E, params, 11, 42)
        assert a.kappa.field.m == 5 and is_in_real_subfield(a.kappa)
        assert embed_up(a.kappa, 55) * a.beta**5 == cocycle_closed_form(E, params, 11).dsphi
        b = kappa(E, params, 11, 43)
        w = ratio_mth_power_witness(a, b, params.M)
        assert w**5 == a.kappa * inverse(b.kappa)


@pytest.mark.parametrize("q,budget", [(11, 300.0), (31, 300.0)])
def test_A8_factorization_law(q, budget):
    with Budget(f"A8(q={q})", budget):
        params = KolyParams(5, 0, 5)
        rep = check_factorization(parse_omega(BASIC), params, 1, q, seed=42)
        assert rep.passed
        assert not any(rep.part_i_vector)
        assert rep.part_ii_valuations == rep.part_ii_dlogs
        assert len(rep.part_ii_valuations) == 2  # vectors in (Z/5)^2


def test_A9_prime_search_against_oracle():
    with Budget("A9", 30.0):
        for p, n, M in ((5, 0, 5), (3, 1, 3), (5, 0, 25)):
            params = KolyParams(p, n, M)
            poly = cyclotomic_oracle(params.conductor)
            degree = len(poly) - 1
            expected = []
            for q in primes_upto(1000):
                if q % M != 1:
                    continue
                roots = sum(1 for x in range(q) if ip_eval(poly, x) % q == 0)
                if roots == degree:
                    expected.append(q)
            assert find_kolyvagin_primes(params, 1000) == expected, (p, n, M)


def test_A10_decomposition_evidence():
    with Budget("A10", 60.0):
        E = parse_omega(BASIC)
        for p in (5, 7):
            u = phi_eval(E, RootOfUnity(p, 1))
            dec = decompose_over_cyclotomic_units(u, p, 0)
            gens = cyclotomic_unit_generators(p, 0)
            acc = u.field.one
            for g, e in zip(gens, dec.exponents):
                acc = acc * (g**e if e >= 0 else inverse(g) ** -e)
            assert acc * u.field.from_rational(dec.unit_root) == u, p


def test_A11_report_determinism(tmp_path):
    import contextlib
    import io

    with Budget("A11", 120.0):
        for args in (
            ["kappa", "--p", "5", "--n", "0", "--M", "5", "--s", "11", "--seed", "42"],
            ["factorize", "--p", "5", "--n", "0", "--M", "5", "--q", "11", "--seed", "42"],
        ):
            out1 = tmp_path / f"{args[0]}_1.json"
            out2 = tmp_path / f"{args[0]}_2.json"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert cli_main(args + ["--out", str(out1)]) == 0
                assert cli_main(args + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes(), args[0]
            json.loads(out1.read_text())  # well-formed


def test_stretch_two_prime_instance():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "stretch_two_prime.py"
    spec = importlib.util.spec_from_file_location("stretch_two_prime", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
