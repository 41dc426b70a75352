import json

import pytest

from kforge import __version__, cli, kolyvagin
from kforge.cli import build_parser, main


def run_main(args):
    return main(args)


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

    def test_kappa_certifies_the_cocycle_once(self, capsys, monkeypatch):
        built = []
        closed_form = kolyvagin.cocycle_closed_form

        def counted(*args):
            built.append(args[2])
            return closed_form(*args)

        monkeypatch.setattr(kolyvagin, "cocycle_closed_form", counted)
        monkeypatch.setattr(cli, "cocycle_closed_form", counted)
        assert run_main(["kappa", "--s", "11", "--seed", "42"]) == 0
        assert built == [11]
        err = capsys.readouterr().err
        assert "[timing] cocycle_certificate:" in err and "[timing] kappa_class:" in err

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

    def test_factorize_report(self, capsys):
        assert run_main(["factorize", "--q", "11", "--seed", "42"]) == 0
        report = json.loads(capsys.readouterr().out)
        byname = {c["name"]: c for c in report["checks"]}
        fac = byname["factorization_q11"]["witness"]
        assert fac["part_ii_valuations"] == fac["part_ii_dlogs"] == ["2", "3"]
        rel = byname["class_relation_q11"]["witness"]
        assert rel["theta"] == {"1": "2", "2": "3"}


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
