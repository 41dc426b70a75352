#!/usr/bin/env python3
"""Mutation catalogue: each row breaks one verifier, and its tests must fail.

A row is (file, exact snippet, replacement, test ids).  For each row the
script copies src/, tests/, scripts/ and pyproject.toml to a temporary
directory, replaces the one snippet in the copy of the file, runs only the
named tests there, and requires every one of them to fail.  A snippet that
does not occur exactly once, a named test that pytest does not find, a
named test that passes, or a run that outlasts TIMEOUT_S (a mutant can loop
for ever, say a valuation read at a non-root that vanishes there) makes the
script exit 1.  It needs no package beyond pytest: the mutation is a string
replacement on a copy.

Usage: python3 scripts/mutants.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
# seconds one row's pytest run may take; every row takes a few today
TIMEOUT_S = 120

CYCLOTOMIC = "src/kforge/cyclotomic.py"
EULER = "src/kforge/euler.py"
EXACT_ARITH = "src/kforge/exact_arith.py"
KOLYVAGIN = "src/kforge/kolyvagin.py"
PRIMES = "src/kforge/primes.py"
CONTROL = "tests/test_cli.py::TestExitCodes::test_inconsistency_exits_three_and_writes_no_report"
PERTURBED = "tests/test_kolyvagin.py::TestPerturbedCocycle"
SPLIT = "tests/test_primes.py::TestSplitData"
REDUCTION = "tests/test_cyclotomic.py::TestReduction"
WORD_SLOTS = "tests/test_cyclotomic.py::TestProductPaths::test_binary_slots_of_every_width_against_schoolbook"
# pytest's -W flags: every warning is an error, except the DeprecationWarning
# that Hypothesis's failure report raises by importing libcst, which under
# -W error turns a failing @given test into an INTERNALERROR
WARNINGS = ("-W", "error", "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

ROWS = [
    (
        "the Frobenius exponent off by one",
        KOLYVAGIN,
        "e = frob_exps[q] = int_dlog(least_primitive_root(r), q, r)",
        "e = frob_exps[q] = (int_dlog(least_primitive_root(r), q, r) + 1) % (r - 1)",
        [
            "tests/test_kolyvagin.py::TestCocycle::test_frobenius_correction_is_a_suffix_product_of_the_sub_cocycle[7]",
            "tests/test_kolyvagin.py::TestCocycle::test_frobenius_correction_is_a_suffix_product_of_the_sub_cocycle[13]",
            "tests/test_kolyvagin.py::TestFactoredResolvent::test_two_prime_matches_product_sum",
            "tests/test_cli.py::TestReports::test_kappa_field_product_count[config1-85]",
            "tests/test_acceptance.py::test_stretch_two_prime_instance",
        ],
    ),
    (
        "the resolvent's relation check forced to pass",
        KOLYVAGIN,
        "if galois_apply(sigmas[q], beta) != c * beta:",
        "if False:",
        [
            f"{CONTROL}[value-times-two]",
            f"{CONTROL}[norm-zeta5]",
            f"{CONTROL}[frobenius+1]",
            f"{CONTROL}[frobenius-1]",
            f"{PERTURBED}::test_norm_condition_fails",
            f"{PERTURBED}::test_no_class_from_a_cocycle_without_trivial_norm",
        ],
    ),
    (
        "the realness check of beta forced to pass",
        KOLYVAGIN,
        "if not is_in_real_subfield(beta):",
        "if False:",
        [f"{PERTURBED}::test_no_class_from_a_perturbed_cocycle[zeta-resolvent left the real subfield]"],
    ),
    (
        "kappa's descent refusal removed",
        KOLYVAGIN,
        "        try:\n"
        "            value = divide_into_subfield(coc.dsphi, beta**params.M, params.conductor)\n"
        "        except DomainError:\n"
        '            raise InternalInconsistency("cocycle certificate failed") from None\n',
        "        value = divide_into_subfield(coc.dsphi, beta**params.M, params.conductor)\n",
        [
            f"{CONTROL}[dsphi-times-1+zeta]",
            f"{PERTURBED}::test_certificate_fails[zeta]",
            f"{PERTURBED}::test_certificate_fails[one_plus_zeta]",
        ],
    ),
    (
        "kappa's realness check of the representative forced to pass",
        KOLYVAGIN,
        "if not is_in_real_subfield(value):",
        "if False:",
        [
            f"{CONTROL}[phi-times-zeta]",
            "tests/test_kolyvagin.py::TestKappa::test_level_one_representative_is_proved_real",
        ],
    ),
    (
        "least_primitive_root accepting t of lower order",
        EXACT_ARITH,
        "if all(pow(t, (q - 1) // p, q) != 1 for p in facs):",
        "if any(pow(t, (q - 1) // p, q) != 1 for p in facs):",
        [
            f"{SPLIT}::test_roots_match_a_search[3-31]",
            f"{SPLIT}::test_roots_match_a_search[9-109]",
            f"{SPLIT}::test_roots_match_a_search[25-151]",
            f"{SPLIT}::test_pairing_is_inverse_matching[27-109]",
            "tests/test_primes.py::TestTeichmullerLift::test_lift_is_the_root_above_c[3-31]",
        ],
    ),
    (
        "gamma = t in place of t^(-1)",
        PRIMES,
        "tuple(pairs), t, pow(t, -1, q))",
        "tuple(pairs), t, t)",
        [
            f"{SPLIT}::test_q11",
            "tests/test_primes.py::TestDlogVector::test_golden_unit_vector",
            "tests/test_primes.py::TestFactorizationLaw::test_q11",
            "tests/test_primes.py::TestClassRelation::test_q11",
            "tests/test_acceptance.py::test_A8_factorization_law[11-300.0]",
        ],
    ),
    (
        "Newton's identities with the wrong sign: only the evaluation proof refuses",
        CYCLOTOMIC,
        "sum((-1) ** i * elem[k - 1 - i] * sums[i] for i in range(k))",
        "sum((-1) ** (i + 1) * elem[k - 1 - i] * sums[i] for i in range(k))",
        [
            "tests/test_cyclotomic.py::TestMinimalPolynomial::test_examples",
            "tests/test_cyclotomic.py::TestMinimalPolynomial::test_against_the_field_valued_expansion[9-3]",
            "tests/test_euler.py::TestUnitCheck::test_golden_instance",
            "tests/test_euler.py::TestUnitCheck::test_third_root_instance",
        ],
    ),
    (
        "complex conjugation read as the identity",
        CYCLOTOMIC,
        "GaloisElt(x.field, -1)",
        "GaloisElt(x.field, 1)",
        [
            "tests/test_cyclotomic.py::TestGalois::test_conjugation_inverts_zeta[5]",
            f"{CONTROL}[phi-times-zeta]",
            f"{PERTURBED}::test_no_class_from_a_perturbed_cocycle[zeta-resolvent left the real subfield]",
            "tests/test_kolyvagin.py::TestKappa::test_level_one_representative_is_proved_real",
        ],
    ),
    (
        "a binomial division pass subtracting in place of adding",
        CYCLOTOMIC,
        "                t[i] += t[i - d]",
        "                t[i] -= t[i - d]",
        [
            f"{REDUCTION}::test_against_dense_reduction[64-9]",
            f"{REDUCTION}::test_against_dense_reduction[64-12]",
            f"{REDUCTION}::test_against_dense_reduction[2000-105]",
            f"{REDUCTION}::test_against_dense_reduction[2000-273]",
            f"{REDUCTION}::test_phi_and_product_by_evaluation_at_5187",
        ],
    ),
    (
        "system values memoised without their system",
        EULER,
        'key = ("phi", E, eta)',
        'key = ("phi", eta)',
        [
            "tests/test_euler.py::TestValues::test_inverse_evaluation",
            "tests/test_euler.py::TestValueMemo::test_systems_at_one_root_keep_their_own_values",
        ],
    ),
    (
        "machine-word slots read back without their bias",
        CYCLOTOMIC,
        'return list(map(sub, struct.unpack(f"<{n}{word}", data), repeat(half)))',
        'return list(struct.unpack(f"<{n}{word}", data))',
        [
            f"{WORD_SLOTS}[1-1]",
            f"{WORD_SLOTS}[3-2]",
            f"{WORD_SLOTS}[8-1]",
            "tests/test_cyclotomic.py::TestKernelsAgainstSchoolbook::test_product_at_slot_boundaries",
            "tests/test_cli.py::TestDeterminism::test_twisted_reports_are_pinned[kappa-level-1]",
        ],
    ),
]


def outcomes(report: str) -> dict[str, str]:
    """Test id -> PASSED, FAILED or ERROR, read off pytest's -rA summary."""
    found = {}
    for line in report.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            found[rest.split(" - ")[0]] = word
    return found


def run_row(file: str, snippet: str, replacement: str, tests: list[str]) -> list[str]:
    """The problems with one row: an empty list when every named test fails."""
    source = (ROOT / file).read_text(encoding="utf-8")
    count = source.count(snippet)
    if count != 1:
        return [f"{file}: the snippet occurs {count} times, not once"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for entry in COPIED:
            if (ROOT / entry).is_dir():
                shutil.copytree(ROOT / entry, tree / entry, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / entry, tree / entry)
        (tree / file).write_text(source.replace(snippet, replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import kforge; print(kforge.__file__)"],
            cwd=tree, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(tree)):
            return [f"kforge imports from {where or 'nowhere'}, not from the mutated copy"]
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rA", *WARNINGS, "-p", "no:cacheprovider", *tests],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return [f"pytest did not finish in {TIMEOUT_S} s"]
    seen = outcomes(run.stdout)
    problems = [f"{test}: {seen.get(test, 'not run')}" for test in tests if seen.get(test) != "FAILED"]
    if run.returncode not in (0, 1):
        problems.append(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return problems


def main() -> int:
    bad = 0
    for name, file, snippet, replacement, tests in ROWS:
        start = perf_counter()
        problems = run_row(file, snippet, replacement, tests)
        verdict = "ok" if not problems else "not ok"
        print(f"{verdict}: {name} ({len(tests)} tests, {perf_counter() - start:.1f} s)", flush=True)
        for problem in problems:
            print(f"    {problem}")
        bad += bool(problems)
    print(f"{len(ROWS) - bad} of {len(ROWS)} mutants fail their tests")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
