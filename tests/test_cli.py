import json

import pytest

from kforge import __version__, euler, kolyvagin, primes
from kforge.cli import build_parser, main


def run_main(args):
    return main(args)


def resolved_levels(monkeypatch):
    """The level of every cocycle hilbert90_beta solves, in call order."""
    levels = []
    resolvent = kolyvagin.hilbert90_beta

    def counted(coc, seed):
        levels.append(coc.s)
        return resolvent(coc, seed)

    monkeypatch.setattr(kolyvagin, "hilbert90_beta", counted)
    return levels


class TestExitCodes:
    def test_pass_run(self, capsys, tmp_path):
        code = run_main(["primes", "--p", "5", "--limit", "50"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "pass"

    def test_config_error_bad_omega(self, capsys):
        assert run_main(["axioms", "--omega", "1:1"]) == 2
        assert "sum to zero" in capsys.readouterr().err

    def test_config_error_bad_kolyvagin_prime(self, capsys):
        assert run_main(["kappa", "--s", "13"]) == 2
        assert "not a Kolyvagin prime" in capsys.readouterr().err

    def test_config_error_wrong_modulus(self, capsys):
        assert run_main(["factorize", "--M", "25", "--q", "11"]) == 2

    def test_limit_cap(self, capsys):
        assert run_main(["primes", "--limit", "2000000"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["factorize", "--q", "11", "--limit", "500"],
            ["axioms", "--s", "7"],
            ["axioms", "--seed", "9"],
            ["primes", "--omega", "1:1,2:-1"],
            ["kappa", "--self-test"],
            ["decompose", "--M", "5"],
        ],
    )
    def test_option_the_command_does_not_read_exits_two(self, capsys, args):
        # the report would record an option that changed nothing
        with pytest.raises(SystemExit) as exc:
            run_main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_failed_check_exits_one_and_still_writes_the_report(self, capsys, monkeypatch, tmp_path):
        # a norm doubled at the order-7 root breaks that one unit check
        norm = euler.absolute_norm
        monkeypatch.setattr(euler, "absolute_norm", lambda u: 2 * norm(u) if u.field.m == 7 else norm(u))
        out = tmp_path / "axioms.json"
        assert run_main(["axioms", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert json.loads(capsys.readouterr().out) == report
        failed = [(c["name"], c["witness"]["params"]["eta"]) for c in report["checks"] if c["status"] == "fail"]
        assert failed == [("unit", "zeta_7^1")]
        assert report["overall"] == "fail"

    def test_inconsistency_exits_three_and_writes_no_report(self, capsys, monkeypatch, tmp_path):
        # a cocycle value doubled before its certificate is checked
        certify = kolyvagin._certify

        def perturbed(field, M, values, dsphi):
            return certify(field, M, {q: c.scale(2) for q, c in values.items()}, dsphi)

        monkeypatch.setattr(kolyvagin, "_certify", perturbed)
        out = tmp_path / "kappa.json"
        assert run_main(["kappa", "--s", "11", "--seed", "42", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "internal inconsistency: cocycle certificate failed" in captured.err
        assert captured.out == "" and not out.exists()


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

    def test_no_floats_anywhere(self, capsys):
        assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        text = capsys.readouterr().out

        def walk(node):
            if isinstance(node, float):
                raise AssertionError("float leaked into a report")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            if isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(text))

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

    def test_kappa_certifies_the_cocycle_once(self, capsys, certified):
        assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        assert certified == [55]
        err = capsys.readouterr().err
        assert "[timing] cocycle_certificate:" in err and "[timing] kappa_class:" in err

    def test_kappa_builds_each_conjugate_chain_once(self, capsys, monkeypatch):
        # one chain per (level, q): two for the level-91 cocycle, and one for
        # each single-prime sub-cocycle, which gives its Frobenius correction;
        # the resolvent reads the level-91 chains and forms no norm of its own
        built, read = [], []
        certify, factor = kolyvagin._certify, kolyvagin._resolvent_factor

        def counted_certify(field, M, values, dsphi):
            chains = certify(field, M, values, dsphi)
            built.extend((field.m // 3, q, chain) for q, chain in chains.items())
            return chains

        def counted_factor(y, chain, sigma):
            read.append(chain)
            return factor(y, chain, sigma)

        monkeypatch.setattr(kolyvagin, "_certify", counted_certify)
        monkeypatch.setattr(kolyvagin, "_resolvent_factor", counted_factor)
        args = ["kappa", "--p", "3", "--n", "0", "--M", "3", "--s", "7,13", "--seed", "42"]
        assert run_main(args) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert sorted((s, q) for s, q, _ in built) == [(7, 7), (13, 13), (91, 7), (91, 13)]
        top = {id(chain) for s, _, chain in built if s == 91}
        assert {id(chain) for chain in read} == top
        assert not hasattr(kolyvagin, "apply_norm")
        assert not hasattr(kolyvagin, "_generator_chain")

    def test_factorize_builds_each_level_q_class_once(self, capsys, monkeypatch):
        # at s = 1 the class checked by the factorization law is also the
        # class relation's witness: one cocycle and one resolvent per q
        built, solved = [], []
        closed_form, resolvent = kolyvagin.cocycle_closed_form, kolyvagin.hilbert90_beta

        def counted_cocycle(*args):
            built.append(args[2])
            return closed_form(*args)

        def counted_resolvent(coc, seed):
            solved.append(coc.s)
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

    def test_two_prime_factorize_certifies_each_level_once(self, capsys, monkeypatch, certified):
        # levels 7, 13, 19, 91 and 133 at conductor 3: kappa(7) is shared by
        # both q, and the sub-cocycles of 91 and 133 are the level-7, 13 and
        # 19 cocycles that the classes and the class relations use
        resolved = resolved_levels(monkeypatch)
        args = ["factorize", "--p", "3", "--n", "0", "--M", "3", "--s", "7", "--q", "13,19", "--seed", "42"]
        assert run_main(args) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
        assert sorted(m // 3 for m in certified) == sorted(resolved) == [7, 13, 19, 91, 133]

    def test_each_command_builds_its_own_cocycles(self, capsys, monkeypatch, certified):
        resolved = resolved_levels(monkeypatch)
        for _ in range(2):
            assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        assert certified == [55, 55] and resolved == [11, 11]

    def test_factorize_report(self, capsys):
        assert run_main(["factorize", "--q", "11", "--seed", "42"]) == 0
        report = json.loads(capsys.readouterr().out)
        byname = {c["name"]: c for c in report["checks"]}
        fac = byname["factorization_q11"]["witness"]
        assert fac["part_ii_valuations"] == fac["part_ii_dlogs"] == ["2", "3"]
        rel = byname["class_relation_q11"]["witness"]
        assert rel["theta"] == {"1": "2", "2": "3"}

    def test_factorize_records_the_default_q(self, capsys):
        # without --q the command checks q = 11, and its report is the one
        # that --q 11 writes
        assert run_main(["factorize", "--seed", "42"]) == 0
        default = capsys.readouterr().out
        assert json.loads(default)["config"]["q"] == ["11"]
        assert run_main(["factorize", "--q", "11", "--seed", "42"]) == 0
        assert capsys.readouterr().out == default


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


class TestDecomposeCommand:
    def test_value_mode(self, capsys):
        assert run_main(["decompose", "--p", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        w = report["checks"][0]["witness"]
        assert w["exponents"] == ["1"] and w["unit_root"] == "-1"

    def test_self_test_mode(self, capsys):
        assert run_main(["decompose", "--p", "7", "--self-test"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["witness"]["exponents"] == ["1", "0"]

    def test_desk_scale_guard(self):
        assert run_main(["decompose", "--p", "5", "--n", "2"]) == 2


def test_parser_rejects_bad_lists():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["kappa", "--s", "11,abc"])
