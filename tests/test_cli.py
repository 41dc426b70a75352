import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import pathlib
import sys
from fractions import Fraction

import pytest

from kforge import __version__, cyclotomic, euler, kolyvagin, primes
from kforge.cli import _json, build_parser, main
from kforge.cyclotomic import CycloElt, RootOfUnity, get_field
from group_ring import zeta


def run_main(args):
    return main(args)


def report_runs():
    """The command lines scripts/run_reports.py drives."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_reports.py"
    spec = importlib.util.spec_from_file_location("run_reports", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.RUNS


def resolved_levels(monkeypatch):
    """The level of every cocycle hilbert90_beta solves, in call order."""
    levels = []
    resolvent = kolyvagin.hilbert90_beta

    def counted(coc, seed):
        levels.append(math.prod(coc.values))
        return resolvent(coc, seed)

    monkeypatch.setattr(kolyvagin, "hilbert90_beta", counted)
    return levels


def rebuilt_cocycles(rewrite):
    """A patch under which every cocycle built is replaced by rewrite(cocycle)."""

    def perturb(monkeypatch):
        cocycle = kolyvagin.Cocycle
        monkeypatch.setattr(kolyvagin, "Cocycle", lambda *fields: rewrite(cocycle(*fields)))

    return perturb


def shifted_frobenius(step):
    """A patch that moves every Frobenius exponent e to e + step mod (r - 1)."""

    def perturb(monkeypatch):
        dlog = kolyvagin.int_dlog
        monkeypatch.setattr(kolyvagin, "int_dlog", lambda g, x, r: (dlog(g, x, r) + step) % (r - 1))

    return perturb


def rotated_values(monkeypatch):
    """A patch under which every system value phi(eta) becomes zeta_N phi(eta)
    in its own field Q(zeta_N): at s = 1 a class representative that is not real."""
    value = kolyvagin.phi_eval

    def rotated(E, eta):
        x = value(E, eta)
        return x * zeta(x.field, 1)

    monkeypatch.setattr(kolyvagin, "phi_eval", rotated)


def doubled(coc):
    # norm 2^(q-1), not 1
    return dataclasses.replace(coc, values={q: c * coc.field.from_rational(2) for q, c in coc.values.items()})


def root_of_unity_cocycle(coc):
    # c = zeta_5 in Q(zeta_35) and D = 1: c^5 D = sigma_7(D) holds, but
    # sigma_7 fixes c, so its norm is c^6 = zeta_5
    field = get_field(35)
    return dataclasses.replace(coc, field=field, values={7: zeta(field, 7)}, dsphi=field.one, frobenius_exponents={})


def moved_dsphi(coc):
    # the norms hold, but c^M D = sigma(D) fails for D = D_s phi (1 + zeta_N)
    return dataclasses.replace(coc, dsphi=coc.dsphi * (coc.field.one + zeta(coc.field, 1)))


KAPPA_11 = ["kappa", "--s", "11"]
KAPPA_91 = ["kappa", "--p", "3", "--n", "0", "--M", "3", "--s", "7,13"]
FACTORIZE_11 = ["factorize", "--p", "5", "--n", "0", "--M", "5", "--q", "11"]
RELATION = "resolvent does not satisfy the relation"
NEGATIVE_CONTROLS = [
    ("value-times-two", KAPPA_11, rebuilt_cocycles(doubled), RELATION),
    ("norm-zeta5", KAPPA_11, rebuilt_cocycles(root_of_unity_cocycle), RELATION),
    ("dsphi-times-1+zeta", KAPPA_11, rebuilt_cocycles(moved_dsphi), "cocycle certificate failed"),
    ("frobenius+1", KAPPA_91, shifted_frobenius(1), RELATION),
    ("frobenius-1", KAPPA_91, shifted_frobenius(-1), RELATION),
    ("phi-times-zeta", FACTORIZE_11, rotated_values, "class representative is not real"),
]


class TestExitCodes:
    def test_pass_run(self, capsys, tmp_path):
        code = run_main(["primes", "--p", "5", "--limit", "50"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "pass"

    def test_config_error_bad_omega(self, capsys):
        assert run_main(["axioms", "--omega", "1:1"]) == 2
        assert "sum to zero" in capsys.readouterr().err

    def test_config_error_zero_weight(self, capsys):
        assert run_main(["axioms", "--omega", "1:1,2:-1,3:0"]) == 2
        assert "pair weights must be nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["1:1,2:-1,twist=3:1,twist=5:1", "1:1,2:-1,compose=2,compose=3"])
    def test_config_error_repeated_decoration(self, capsys, omega):
        assert run_main(["axioms", "--omega", omega]) == 2
        assert "repeated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["axioms", "--omega", "1:1,,2:-1"], "empty token (token 2 at position 4)"),
            (["axioms", "--omega", "1:1,2:-1,compose=x"], "bad composition power (token 3 at position 9)"),
            (["axioms", "--omega", "1:1,2:-1,twist=3:y"], "bad twist (token 3 at position 9)"),
            (["axioms", "--omega", "1:1,a:-1"], "expected integers a:n (token 2 at position 4)"),
            (["axioms", "--omega", "compose=3"], "no pairs given"),
            (["axioms", "--omega", "1:1,2:-1,compose=0"], "composition power must be nonzero"),
            (["factorize", "--s", "11", "--q", "11"], "q must not divide s"),
        ],
    )
    def test_refusal_is_one_stderr_line(self, capsys, args, message):
        assert run_main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: {message}\n"

    def test_config_error_bad_kolyvagin_prime(self, capsys):
        assert run_main(["kappa", "--s", "13"]) == 2
        assert "not a Kolyvagin prime" in capsys.readouterr().err

    def test_config_error_wrong_modulus(self, capsys):
        assert run_main(["factorize", "--M", "25", "--q", "11"]) == 2

    def test_config_error_zero_modulus(self, capsys):
        assert run_main(["kappa", "--M", "0"]) == 2
        assert "positive power of p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["factorize", "--s", "1,1", "--q", "11"], "1 is not a Kolyvagin prime"),
            (["factorize", "--s", "11,11", "--q", "31"], "s must not repeat a prime"),
            (["kappa", "--s", "11,11"], "s must not repeat a prime"),
        ],
    )
    def test_s_entries_are_distinct_kolyvagin_primes(self, capsys, args, message):
        # factorize once ran --s 1,1 to a passing report
        assert run_main(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["s", "q"])
    def test_excluded_prime_is_refused_before_any_field(self, capsys, monkeypatch, option):
        # the twist excludes 7, so s = 7 or q = 7 would ask for values at roots
        # of order 21, which phi_eval refuses only after building their fields
        monkeypatch.setattr(cyclotomic, "_FIELDS", {})
        command = "kappa" if option == "s" else "factorize"
        args = [command, "--omega", "1:1,2:-1,twist=7:1", "--p", "3", "--n", "0", "--M", "3", "--" + option, "7"]
        assert run_main(args) == 2
        assert f"--{option} entry 7 is excluded by the system" in capsys.readouterr().err
        assert cyclotomic._FIELDS == {}  # not even the table for 21

    def test_repeated_q_is_refused(self, capsys):
        # a repeated q would write the same two report entries twice
        assert run_main(["factorize", "--q", "11,11", "--seed", "42"]) == 2
        assert "q must not repeat a prime" in capsys.readouterr().err

    def test_limit_cap(self, capsys):
        assert run_main(["primes", "--limit", "2000000"]) == 2

    @pytest.mark.parametrize("limit", ["-5", "0", "1"])
    def test_limit_below_two_is_refused(self, capsys, limit):
        # a search below 2 finds no primes, and a "pass" over none proves nothing
        assert run_main(["primes", "--limit", limit]) == 2
        assert "limit must be between 2 and 10^6" in capsys.readouterr().err
        assert run_main(["primes", "--limit", "2"]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["factorize", "--q", "11", "--limit", "500"],
            ["axioms", "--s", "7"],
            ["axioms", "--seed", "9"],
            ["primes", "--omega", "1:1,2:-1"],
            ["kappa", "--self-test"],
            ["decompose", "--M", "5"],
            ["decompose", "--self-test"],
        ],
    )
    def test_option_the_command_does_not_read_exits_two(self, capsys, args):
        # the report would record an option that changed nothing
        with pytest.raises(SystemExit) as exc:
            run_main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_failed_check_exits_one_and_still_writes_the_report(self, capsys, monkeypatch, tmp_path):
        # the minimal polynomial's constant term doubled at the order-7 root
        # multiplies the norm read off it by 2^(phi/d): that one unit check fails
        min_poly = euler.minimal_polynomial

        def perturbed(u):
            mp = min_poly(u)
            return (2 * mp[0],) + mp[1:] if u.field.m == 7 else mp

        monkeypatch.setattr(euler, "minimal_polynomial", perturbed)
        out = tmp_path / "axioms.json"
        assert run_main(["axioms", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert json.loads(capsys.readouterr().out) == report
        failed = [(c["name"], c["witness"]["params"]["eta"]) for c in report["checks"] if c["status"] == "fail"]
        assert failed == [("unit", "zeta_7^1")]
        assert report["overall"] == "fail"

    @pytest.mark.parametrize("control", NEGATIVE_CONTROLS, ids=[c[0] for c in NEGATIVE_CONTROLS])
    def test_inconsistency_exits_three_and_writes_no_report(self, capsys, monkeypatch, tmp_path, control):
        # each control breaks a fact the class proves: a property of its
        # cocycle, or that its representative is real
        _, args, perturb, refusal = control
        perturb(monkeypatch)
        out = tmp_path / "kappa.json"
        assert run_main([*args, "--seed", "42", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert f"internal inconsistency: {refusal}\n" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("target", ["missing/r.json", "directory"])
    def test_unwritable_out_exits_two_and_prints_no_report(self, capsys, tmp_path, target):
        # the report once went to stdout before --out raised, with exit 1
        (tmp_path / "directory").mkdir()
        out = tmp_path / target
        args = ["primes", "--p", "5", "--n", "0", "--M", "5", "--limit", "50", "--out", str(out)]
        assert run_main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()] and str(out) in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]
        assert not any((tmp_path / "directory").iterdir())


class TestReports:
    def test_schema_and_key_order(self, capsys):
        assert run_main(["primes", "--limit", "100"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["tool", "command", "config", "checks", "overall"]
        assert report["tool"] == {"name": "kforge", "version": __version__}
        check = report["checks"][0]
        assert list(check) == ["name", "anchor", "status", "witness", "timing_ms"]
        assert check["timing_ms"] is None
        assert check["witness"]["found"] == ["11", "31", "41", "61", "71"]

    @pytest.mark.parametrize(
        "args",
        report_runs() + [["factorize", "--p", "3", "--n", "0", "--M", "3", "--s", "7", "--q", "13", "--seed", "42"]],
        ids=" ".join,
    )
    def test_no_floats_anywhere(self, capsys, args):
        # every number is a decimal string: each leaf is a str, bool or null
        assert run_main(args) == 0

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif node is not None and not isinstance(node, (str, bool)):
                raise AssertionError(f"{node!r} leaked into a report")

        walk(json.loads(capsys.readouterr().out))

    def test_a_value_without_a_report_form_is_refused(self):
        assert _json({3: (Fraction(1, 2), None, True, "x")}) == {"3": ["1/2", None, True, "x"]}
        for value in (0.5, RootOfUnity(5, 1)):
            with pytest.raises(TypeError, match=type(value).__name__):
                _json({"witness": [value]})

    def test_axioms_report(self, capsys):
        assert run_main(["axioms", "--omega", "1:1,2:-1,compose=2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == "pass"
        assert report["config"]["effective_excluded"] == ["2"]
        names = {c["name"] for c in report["checks"]}
        assert {"E1", "E2", "E3", "unit"} <= names

    def test_kappa_report_embeds_certificates(self, capsys):
        assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["checks"]]
        assert names == ["cocycle_certificate", "kappa_class"]
        kap = report["checks"][1]["witness"]["kappa"]
        assert kap["conductor"] == "5" and len(kap["num"]) == 4
        # the report writes the run's own seed; the class carries none
        assert report["checks"][1]["witness"]["theta_seed"] == "42"
        assert "theta_seed" not in {f.name for f in dataclasses.fields(kolyvagin.KappaClass)}

    def test_kappa_certifies_the_cocycle_once(self, capsys, built_cocycles):
        assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        assert built_cocycles == [55]
        err = capsys.readouterr().err
        assert "[timing] cocycle_certificate:" in err and "[timing] kappa_class:" in err

    def test_kappa_proves_each_level_q_norm_once(self, capsys, monkeypatch):
        # no norm proof P_(q-1)(c_q) = 1: the resolvent's relation implies
        # it.  Each sub-cocycle gives one partial norm for its Frobenius
        # correction (e = 11 at r = 13 and e = 3 at r = 7), and the
        # resolvent sums one E_(q-1) per generator at level 91.  The halving
        # recursions of _partial_norm and of the derivative's _weighted_norm
        # call _partial_norm through the module too; only the calls from
        # outside them are counted.
        calls = []
        partial_norm = kolyvagin._partial_norm

        def counted(c, sigma, n, y=None):
            caller = sys._getframe(1).f_code.co_name
            if caller not in ("_partial_norm", "_weighted_norm"):
                calls.append((c.field.m // 3, n, y is not None))
            return partial_norm(c, sigma, n, y)

        monkeypatch.setattr(kolyvagin, "_partial_norm", counted)
        args = ["kappa", "--p", "3", "--n", "0", "--M", "3", "--s", "7,13", "--seed", "42"]
        assert run_main(args) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        corrections = [(7, 3, False), (13, 1, False)]
        resolvent = [(91, 6, True), (91, 12, True)]
        assert sorted(calls) == sorted(corrections + resolvent)
        assert not hasattr(kolyvagin, "_certify")
        assert "chains" not in {f.name for f in dataclasses.fields(kolyvagin.Cocycle)}
        assert not hasattr(kolyvagin, "apply_norm")
        assert not hasattr(kolyvagin, "_generator_chain")
        assert not hasattr(kolyvagin, "_conjugate_suffixes")

    @pytest.mark.parametrize(
        "config, products",
        [
            (["--p", "5", "--n", "0", "--M", "5", "--s", "61"], 66),
            (["--p", "3", "--n", "0", "--M", "3", "--s", "7,13"], 85),
        ],
    )
    def test_kappa_field_product_count(self, capsys, monkeypatch, config, products):
        # the number of field products a kappa run makes: a cost measure that
        # does not depend on machine load, so a change to it must be deliberate
        calls = []
        multiply = CycloElt.__mul__

        def counted(x, y):
            calls.append(x.field.m)
            return multiply(x, y)

        monkeypatch.setattr(CycloElt, "__mul__", counted)
        assert run_main(["kappa", *config, "--seed", "42"]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert len(calls) == products

    def test_axioms_term_wise_product_count(self, capsys, monkeypatch):
        # the products of an axioms run with an operand sparse enough to be
        # formed term by term, out of all 212: a lifted value or a factor
        # 1 - zeta^k times a full element, so a change to it must be deliberate
        paths = []
        for name in ("_sparse_product", "_binary_product", "_decimal_product"):

            def spy(*args, real=getattr(cyclotomic, name), name=name):
                paths.append(name)
                return real(*args)

            monkeypatch.setattr(cyclotomic, name, spy)
        assert run_main(["axioms", "--omega", "1:1,2:-1"]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert (paths.count("_sparse_product"), len(paths)) == (119, 212)

    def test_axioms_evaluates_each_system_value_once(self, capsys, monkeypatch):
        # the E1-E3 and unit checks read 140 values at 68 distinct roots;
        # each is formed from its factors once, then read from the memo
        roots = []
        factors = euler._factors

        def counted(E, eta):
            roots.append((E, eta))
            return factors(E, eta)

        monkeypatch.setattr(euler, "_factors", counted)
        assert run_main(["axioms", "--omega", "1:1,2:-1"]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert len(roots) == len(set(roots)) == 68

    def test_factorize_builds_each_level_q_class_once(self, capsys, monkeypatch):
        # at s = 1 the class checked by the factorization law is also the
        # class relation's witness: one cocycle and one resolvent per q
        built, solved = [], []
        closed_form, resolvent = kolyvagin.cocycle_closed_form, kolyvagin.hilbert90_beta

        def counted_cocycle(*args):
            built.append(args[2])
            return closed_form(*args)

        def counted_resolvent(coc, seed):
            solved.append(math.prod(coc.values))
            return resolvent(coc, seed)

        monkeypatch.setattr(kolyvagin, "cocycle_closed_form", counted_cocycle)
        monkeypatch.setattr(kolyvagin, "hilbert90_beta", counted_resolvent)
        assert run_main(["factorize", "--q", "11,31", "--seed", "42"]) == 0
        assert built == solved == [11, 31]
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"

    def test_factorize_reads_each_level_one_law_once(self, capsys, monkeypatch):
        # at s = 1 the class relation reads the law the factorization check
        # made: per q, two valuation vectors for the law and one per probe
        # of kappa(q) at the other primes up to 100 (31, 41, 61, 71 or 11, 41, 61, 71)
        calls = []
        ideal_vector = primes.ideal_vector

        def counted(x, M, data):
            calls.append(data.q)
            return ideal_vector(x, M, data)

        monkeypatch.setattr(primes, "ideal_vector", counted)
        assert run_main(["factorize", "--q", "11,31", "--seed", "42"]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert len(calls) == 12

    def test_two_prime_factorize_certifies_each_level_once(self, capsys, monkeypatch, built_cocycles):
        # levels 7, 13, 19, 91 and 133 at conductor 3: kappa(7) is shared by
        # both q, and the sub-cocycles of 91 and 133 are the level-7, 13 and
        # 19 cocycles that the classes and the class relations use
        resolved = resolved_levels(monkeypatch)
        args = ["factorize", "--p", "3", "--n", "0", "--M", "3", "--s", "7", "--q", "13,19", "--seed", "42"]
        assert run_main(args) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert sorted(m // 3 for m in built_cocycles) == sorted(resolved) == [7, 13, 19, 91, 133]

    def test_each_command_builds_its_own_cocycles(self, capsys, monkeypatch, built_cocycles):
        resolved = resolved_levels(monkeypatch)
        for _ in range(2):
            assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        assert built_cocycles == [55, 55] and resolved == [11, 11]

    def test_factorize_report(self, capsys):
        assert run_main(["factorize", "--q", "11", "--seed", "42"]) == 0
        report = json.loads(capsys.readouterr().out)
        byname = {c["name"]: c for c in report["checks"]}
        fac = byname["factorization_q11"]["witness"]
        assert fac["part_ii_valuations"] == fac["part_ii_dlogs"] == ["2", "3"]
        rel = byname["class_relation_q11"]["witness"]
        assert rel["theta"] == {"1": "2", "2": "3"}

    @pytest.mark.parametrize(
        "config, q",
        [
            ([], "11"),
            (["--p", "3", "--n", "0", "--M", "3", "--s", "7"], "13"),
            (["--p", "7", "--n", "0", "--M", "7"], "29"),
            (["--omega", "1:1,11:-1"], "31"),
        ],
        ids=["p5", "p3-s7", "p7", "p5-11-excluded"],
    )
    def test_factorize_records_the_default_q(self, capsys, config, q):
        # without --q the command checks the least Kolyvagin prime outside the
        # excluded set that does not divide s (it once checked 11 at every p),
        # and its report is the one that --q writes with that prime
        assert run_main(["factorize", *config, "--seed", "42"]) == 0
        default = capsys.readouterr().out
        assert json.loads(default)["config"]["q"] == [q]
        assert run_main(["factorize", *config, "--q", q, "--seed", "42"]) == 0
        assert capsys.readouterr().out == default

    def test_timing_lines_follow_the_report_one_per_check(self, monkeypatch):
        # each check is timed from the one before it; the times go to stderr
        # after the report, in the order of the checks
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(sys, "stderr", stream)
        assert run_main(["factorize", "--q", "11,31", "--seed", "42"]) == 0
        report_text, _, timing = stream.getvalue().rpartition("}\n")
        checks = json.loads(report_text + "}")["checks"]
        lines = timing.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"[timing] {c['name']}" for c in checks]
        assert all(float(line.split(": ")[1].removesuffix(" ms")) >= 0 for line in lines)
        assert all(c["timing_ms"] is None for c in checks)


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["kappa", "--s", "11", "--seed", "42"],
            ["factorize", "--q", "11", "--seed", "42"],
        ],
    )
    def test_byte_identical_reports(self, args, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_main(args + ["--out", str(out1)]) == 0
        assert run_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["kappa", "--omega", "1:1,2:-1,twist=7:1", "--p", "3", "--n", "0", "--M", "3", "--s", "13"],
                "afdafd8c97816699aaf0b8278b46bdd237dff5845bb904758584080454963d5f",
            ),
            (
                ["factorize", "--omega", "1:1,2:-1,twist=5:2", "--p", "3", "--n", "0", "--M", "3", "--q", "7"],
                "cf910bce5cca11fa042be00b7b552a85b106c045544a14ebadab4351b2758f0c",
            ),
            (
                ["kappa", "--p", "3", "--n", "1", "--M", "3", "--s", "19"],
                "07391f720cac5e76811f4276f38aba71832cff747977e1bbb5c996c21d57ace0",
            ),
            (
                ["factorize", "--p", "3", "--n", "1", "--M", "3", "--q", "19"],
                "eccc3f781dab032253c865566307baf4e14d57226ef728c6cb74a930a5281488",
            ),
        ],
        ids=["kappa-twist-7", "factorize-twist-5", "kappa-level-1", "factorize-level-1"],
    )
    def test_twisted_reports_are_pinned(self, capsys, args, digest):
        # reports no benchmark digest covers, pinned so that a change in how a
        # value is built or written shows: two twisted systems and two runs at
        # level n = 1
        assert run_main(args + ["--seed", "42"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestDecomposeCommand:
    def test_value_mode(self, capsys):
        assert run_main(["decompose", "--p", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        w = report["checks"][0]["witness"]
        assert w["exponents"] == ["1"] and w["unit_root"] == "-1"

    def test_desk_scale_guard(self):
        assert run_main(["decompose", "--p", "5", "--n", "2"]) == 2

    @pytest.mark.parametrize("p", ["1", "4", "9"])
    def test_p_must_be_an_odd_prime(self, capsys, monkeypatch, p):
        # decompose checks p as the other commands do, before any field
        monkeypatch.setattr(cyclotomic, "_FIELDS", {})
        assert run_main(["decompose", "--p", p]) == 2
        assert "configuration error: p must be an odd prime" in capsys.readouterr().err
        assert cyclotomic._FIELDS == {}


def test_parser_rejects_bad_lists():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["kappa", "--s", "11,abc"])
