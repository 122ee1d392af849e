import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import braidalg

from braidalg import AB, CapMismatch, bootstrap_semi_associator, eval_drinfeld, parse_word, quotient
from braidalg import associator as assoc_mod
from braidalg import cli
from braidalg.cli import main
from braidalg.series import TruncatedSeries, parse_series

FIXTURES = Path(__file__).parent / "fixtures"
PHI7_PATH = Path(__file__).parent.parent / "bench" / "fixtures" / "phi7.txt"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "structured")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"command", "inputs", "degrees", "values"}
    return obj


class TestDim:
    def test_text(self, capsys):
        code, out = run(capsys, "dim", "--preset", "infinitesimal_artin", "--n", "3", "--cap", "4")
        assert code == 0
        assert "[1, 3, 7, 15, 31]" in out

    def test_structured(self, capsys):
        obj = run_json(capsys, "dim", "--preset", "oriented_artin", "--n", "3", "--cap", "2")
        assert obj["command"] == "dim"
        assert obj["degrees"] == [0, 1, 2]
        assert obj["values"] == ["1", "6", "27"]

    def test_deterministic(self, capsys):
        first = run(capsys, "dim", "--preset", "oriented_artin", "--n", "3", "--cap", "3")
        second = run(capsys, "dim", "--preset", "oriented_artin", "--n", "3", "--cap", "3")
        assert first == second


class TestNormalForm:
    def test_inline_series(self, capsys):
        code, out = run(
            capsys,
            "normal-form",
            "--preset",
            "oriented_artin",
            "--n",
            "3",
            "--cap",
            "2",
            "--series",
            "1*v13.v23 - 1*v23.v13",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("# a relation consequence\n1*v13.v23 - 1*v23.v13\n")
        code, out = run(
            capsys,
            "normal-form",
            "--preset",
            "oriented_artin",
            "--n",
            "3",
            "--cap",
            "2",
            "--in",
            str(path),
        )
        assert code == 0
        assert out.strip() == "0"

    def test_structured_rationals_are_strings(self, capsys):
        obj = run_json(
            capsys,
            "normal-form",
            "--preset",
            "infinitesimal_artin",
            "--n",
            "3",
            "--cap",
            "2",
            "--series",
            "1/2*t12 + 1*t13.t12",
        )
        assert all(isinstance(v, str) for v in obj["values"].values())
        assert obj["values"]["t12"] == "1/2"


class TestEval:
    def test_welded(self, capsys):
        code, out = run(
            capsys, "eval", "--family", "welded", "--n", "3", "--cap", "2", "--word", "a12"
        )
        assert code == 0
        assert "1 + 1*v12 + 1/2*v12.v12" in out
        assert "⊗ 123" in out

    def test_rho3_with_assoc_file(self, capsys, tmp_path):
        path = tmp_path / "psi.txt"
        path.write_text("1 + 1/24*A.B - 1/24*B.A\n")
        code, out = run(
            capsys,
            "eval",
            "--family",
            "rho3",
            "--n",
            "3",
            "--cap",
            "2",
            "--word",
            "sig1",
            "--assoc",
            str(path),
        )
        assert code == 0
        assert "1 + 1/2*t12 + 1/8*t12.t12" in out

    def test_drinfeld_default_assoc(self, capsys):
        obj = run_json(
            capsys, "eval", "--family", "drinfeld", "--n", "3", "--cap", "2", "--word", "sig2"
        )
        assert obj["values"][0]["perm"] == "132"
        assert obj["values"][0]["terms"]["t23"] == "1/2"

    def test_drinfeld_cache_dir_writes_no_file(self, capsys, tmp_path, monkeypatch):
        # Chord tables are never persisted: the bootstrap's chord(3) tables
        # and the chord(4) tables are built cold and leave the directory empty.
        argv = ["eval", "--family", "drinfeld", "--n", "4", "--cap", "4", "--word", "sig1 sig2"]
        code, plain = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(quotient, "_STATE", {})
        assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == (0, plain)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--family", "welded", "--n", "3", "--cap", "3", "--word", "sig1 a12"],
            ["vassiliev-degree", "--n", "3", "--cap", "3", "--element", "1*[a12 s2] - 1*[s2]"],
            ["distinguish", "--n", "3", "--cap", "3", "--w1", "a12 a21", "--w2", "a21 a12"],
        ],
        ids=["eval", "vassiliev-degree", "distinguish"],
    )
    def test_welded_cache_dir_writes_oriented_tables(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(quotient, "_STATE", {})
        code, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {f"oriented_artin(3)__deg{k}.basis" for k in range(4)}


class TestAssociatorCommands:
    def test_check_reports_failure_degree(self, capsys):
        code, out = run(
            capsys, "check-associator", "--cap", "2", "--series", "1", "--axioms", "AE,AS,H3,P"
        )
        assert code == 0
        assert "AE: pass" in out and "H3: FAIL at degree 2" in out
        assert "residual" in out

    @pytest.mark.parametrize("axioms", ["", ",", " , ", "AE,XY", "P,H2"])
    def test_check_rejects_bad_axiom_list_before_any_work(self, capsys, monkeypatch, axioms):
        calls = []
        monkeypatch.setattr(assoc_mod, "check_axiom", lambda *a: calls.append(a))
        code = main(["check-associator", "--cap", "6", "--series", "1", "--axioms", axioms])
        captured = capsys.readouterr()
        assert code == 1
        assert calls == [] and captured.out == ""
        assert captured.err == f"error: --axioms {axioms!r}: name one or more of AE,AS,H1,H3,P\n"

    def test_repeated_axioms_are_checked_once(self, capsys):
        argv = ["check-associator", "--cap", "2", "--series", "1", "--axioms", "H3,AE,H3,AE"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "H3: FAIL at degree 2",
            "  residual: 1/8*t12.t13 - 1/8*t13.t12",
            "AE: pass",
        ]
        obj = run_json(capsys, *argv)
        assert obj["inputs"]["axioms"] == ["H3", "AE"]
        assert sorted(obj["values"]) == ["AE", "H3"]

    def test_the_ae_residual_is_taken_once_per_run(self, capsys, monkeypatch, tmp_path):
        # (AE) and each hexagon's verdict share one log and one Dynkin test
        logs, defects = [], []
        log, lie_defect = braidalg.TruncatedSeries.log, assoc_mod.lie_defect
        monkeypatch.setattr(braidalg.TruncatedSeries, "log", lambda s: logs.append(s) or log(s))
        monkeypatch.setattr(assoc_mod, "lie_defect", lambda s: defects.append(s) or lie_defect(s))
        phi = tmp_path / "phi.txt"
        phi.write_text(bootstrap_semi_associator(4).text() + "\n")
        for source in (["--in", str(phi)], ["--series", "1 + 1*A.B"]):
            assoc_mod.ae_residual.cache_clear()
            logs.clear(), defects.clear()
            argv = ["check-associator", "--axioms", "AE,AS,H1,H3", "--cap", "4", *source]
            code, out = run(capsys, *argv)
            assert code == 0 and out.startswith("AE: ")
            assert len(logs) == len(defects) == 1

    def test_extend_writes_file_and_checks_pass(self, capsys, tmp_path):
        src = tmp_path / "phi1.txt"
        src.write_text("1\n")
        out_path = tmp_path / "phi4.txt"
        code, out = run(
            capsys,
            "extend-associator",
            "--from",
            str(src),
            "--to-degree",
            "4",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert "degree 2" in out and "degree 4" in out
        text = out_path.read_text()
        assert "1/24*A.B" in text
        code, out = run(capsys, "check-yb", "--cap", "4", "--in", str(out_path))
        assert code == 0
        assert "yang-baxter: pass" in out

    @pytest.mark.parametrize("series", ["1", "1 + 1*A.B", "1 + 1/24*A.B - 1/24*B.A"])
    def test_every_axiom_passes_at_cap_zero(self, capsys, series):
        argv = ["check-associator", "--axioms", "AE,AS,H1,H3,P", "--cap", "0", "--series", series]
        obj = run_json(capsys, *argv)
        assert obj["degrees"] == [0]
        assert list(obj["values"]) == ["AE", "AS", "H1", "H3", "P"]
        for value in obj["values"].values():
            assert value == {"passed": True, "first_failure_degree": None, "residual": "0"}

    def test_check_yb_failure(self, capsys):
        obj = run_json(capsys, "check-yb", "--cap", "2", "--series", "1")
        assert obj["values"]["passed"] is False
        assert obj["values"]["first_failure_degree"] == 2

    def test_psi5_verdict_lines(self, capsys):
        psi5 = os.path.join(os.path.dirname(__file__), "fixtures", "psi5.txt")
        code, out = run(capsys, "check-yb", "--cap", "5", "--in", psi5)
        assert code == 0 and out.splitlines() == ["yang-baxter: pass"]
        argv = ["check-associator", "--axioms", "AE,AS,H1,H3", "--cap", "5", "--in", psi5]
        code, out = run(capsys, *argv)
        assert code == 0
        verdicts = [line for line in out.splitlines() if not line.startswith("  residual: ")]
        assert verdicts == ["AE: pass", "AS: FAIL at degree 5", "H1: FAIL at degree 5", "H3: pass"]

    def test_psi5_texts_match_the_pinned_files(self, capsys):
        # The failing residuals' full texts, pinned in tests/fixtures and
        # compared with cmp in CI too.
        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        psi5 = os.path.join(fixtures, "psi5.txt")
        for pinned, argv in (
            ("psi5-axioms5.txt", ["check-associator", "--axioms", "AE,AS,H1,H3,P", "--cap", "5"]),
            ("psi5-yb5.txt", ["check-yb", "--cap", "5"]),
        ):
            code, out = run(capsys, *argv, "--in", psi5)
            with open(os.path.join(fixtures, pinned), encoding="utf-8") as handle:
                assert code == 0 and out == handle.read(), pinned

    def test_extend_revises_dead_end(self, capsys, tmp_path):
        # the greedy degree-4 choice does not extend; the loop revises it
        src = tmp_path / "one.txt"
        src.write_text("1\n")
        argv = ["extend-associator", "--from", str(src), "--to-degree", "5"]
        code, out = run(capsys, *argv, "--out", str(tmp_path / "text.txt"))
        assert code == 0
        assert out.splitlines() == [
            "degree 2: solution found, kernel dimension 0",
            "degree 3: solution found, kernel dimension 1",
            "degree 4: solution found, kernel dimension 1",
            "degree 4: revised within the solution set",
            "degree 5: solution found, kernel dimension 2",
            f"wrote {tmp_path / 'text.txt'}",
        ]
        obj = run_json(capsys, *argv, "--out", str(tmp_path / "structured.txt"))
        assert obj["degrees"] == [2, 3, 4, 5]
        assert obj["values"] == {"2": 0, "3": 1, "4": 1, "5": 2}

    def test_extend_continues_from_an_even_degree_file(self, capsys, tmp_path):
        # the degree-4 file holds the greedy choice, which does not extend;
        # its degree-4 solution set is rebuilt from degree 3 and revised
        src = tmp_path / "one.txt"
        src.write_text("1\n")
        phi4, phi46, phi6 = (tmp_path / f"{name}.txt" for name in ("phi4", "phi46", "phi6"))
        extend = ["extend-associator", "--to-degree"]
        assert run(capsys, *extend, "4", "--from", str(src), "--out", str(phi4))[0] == 0
        code, out = run(capsys, *extend, "6", "--from", str(phi4), "--out", str(phi46))
        assert code == 0
        assert out.splitlines() == [
            "degree 4: revised within the solution set",
            "degree 5: solution found, kernel dimension 2",
            "degree 6: solution found, kernel dimension 3",
            f"wrote {phi46}",
        ]
        assert run(capsys, *extend, "6", "--from", str(src), "--out", str(phi6))[0] == 0
        assert phi46.read_text() == phi6.read_text()

    @pytest.mark.parametrize("existing", [None, "an older file\n"])
    @pytest.mark.parametrize("failing", [(TruncatedSeries, "text"), (os, "replace")])
    def test_extend_that_fails_while_writing_leaves_no_partial_file(
        self, capsys, tmp_path, monkeypatch, existing, failing
    ):
        src = tmp_path / "one.txt"
        src.write_text("1\n")
        out_path = tmp_path / "phi3.txt"
        if existing is not None:
            out_path.write_text(existing)

        def fail(*args):
            raise OSError("write failed")

        monkeypatch.setattr(*failing, fail)
        argv = ["extend-associator", "--from", str(src), "--to-degree", "3", "--out", str(out_path)]
        code = main(argv)
        assert code == 1 and capsys.readouterr().err == "error: write failed\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["one.txt"] + ([] if existing is None else ["phi3.txt"])
        )
        if existing is not None:
            assert out_path.read_text() == existing

    @pytest.mark.parametrize(
        "out,reason",
        [
            ("missing/phi3.txt", ": {tmp}/missing is not a directory"),
            ("one.txt/phi3.txt", ": {tmp}/one.txt is not a directory"),
            ("folder", " is a directory"),
        ],
        ids=["no-folder", "under-a-file", "a-folder"],
    )
    def test_extend_refuses_an_unwritable_out_before_extending(
        self, capsys, tmp_path, monkeypatch, out, reason
    ):
        src = tmp_path / "one.txt"
        src.write_text("1\n")
        (tmp_path / "folder").mkdir()

        def fail(*args):
            pytest.fail("extended before refusing --out")

        monkeypatch.setattr(assoc_mod, "extension_steps", fail)
        out_path = tmp_path / out
        argv = ["extend-associator", "--from", str(src), "--to-degree", "3", "--out", str(out_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {out_path}{reason.format(tmp=tmp_path)}\n"
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "one.txt"]

    def test_extend_refuses_a_degree_zero_file_with_its_reason(self, capsys, tmp_path):
        src = tmp_path / "phi0.txt"
        src.write_text("# semi-associator to degree 0\n1\n")
        out_path = tmp_path / "phi3.txt"
        argv = ["extend-associator", "--from", str(src), "--to-degree", "3", "--out", str(out_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: candidate known only to degree 0: extend a series known to degree 1, "
            "where (AE) normalizes it to have no degree-1 part (e.g. 1)\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["phi0.txt"]

    def test_extend_file_is_the_bootstrap(self, capsys, tmp_path):
        src = tmp_path / "one.txt"
        src.write_text("1\n")
        out_path = tmp_path / "phi6.txt"
        code, _ = run(
            capsys, "extend-associator", "--from", str(src), "--to-degree", "6", "--out", str(out_path)
        )
        assert code == 0
        header, body = out_path.read_text().splitlines()
        assert header == "# semi-associator to degree 6"
        assert body == bootstrap_semi_associator(6).text()


class TestDegreeHeader:
    """A file extend-associator writes is known to its header's degree, no further."""

    @pytest.fixture
    def phi3(self, capsys, tmp_path):
        src = tmp_path / "one.txt"
        src.write_text("1\n")
        path = tmp_path / "phi3.txt"
        code, _ = run(
            capsys, "extend-associator", "--from", str(src), "--to-degree", "3", "--out", str(path)
        )
        assert code == 0
        # the degree-3 part is zero, so the longest word has degree 2
        assert path.read_text() == "# semi-associator to degree 3\n1 + 1/24*A.B - 1/24*B.A\n"
        return str(path)

    def fails(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        return captured.err

    def test_eval_beyond_header_degree_fails(self, capsys, phi3):
        argv = ["eval", "--family", "drinfeld", "--n", "3", "--cap", "5", "--word", "sig2"]
        err = self.fails(capsys, *argv, "--assoc", phi3)
        assert "associator known to degree 3 < cap 5" in err
        phi = parse_series("1 + 1/24*A.B - 1/24*B.A", AB, 3)
        with pytest.raises(CapMismatch, match="known to degree 3 < cap 5"):
            eval_drinfeld(parse_word("sig2", 3), phi, 5)

    def test_check_yb_beyond_header_degree_fails(self, capsys, phi3):
        err = self.fails(capsys, "check-yb", "--cap", "5", "--in", phi3)
        assert "parameter known to degree 3 < cap 5" in err
        code, out = run(capsys, "check-yb", "--cap", "3", "--in", phi3)
        assert code == 0 and "yang-baxter: pass" in out

    @pytest.mark.parametrize("to_degree", ["2", "0", "-2"])
    def test_extend_below_the_input_degree_fails_before_any_work(
        self, capsys, tmp_path, monkeypatch, phi3, to_degree
    ):
        calls = []
        monkeypatch.setattr(assoc_mod, "extension_steps", lambda *a: calls.append(a))
        out_path = tmp_path / "lower.txt"
        argv = ["extend-associator", "--from", phi3, "--to-degree", to_degree]
        err = self.fails(capsys, *argv, "--out", str(out_path))
        assert err == f"error: --to-degree {to_degree} is below the degree 3 of {phi3}\n"
        assert calls == [] and not out_path.exists()

    def test_extend_to_the_input_degree_rewrites_it(self, capsys, tmp_path, phi3):
        out_path = tmp_path / "same.txt"
        argv = ["extend-associator", "--from", phi3, "--to-degree", "3", "--out", str(out_path)]
        code, out = run(capsys, *argv)
        assert code == 0 and out == f"wrote {out_path}\n"
        assert out_path.read_text() == Path(phi3).read_text()

    def test_check_associator_beyond_header_degree_fails(self, capsys, phi3):
        err = self.fails(capsys, "check-associator", "--cap", "5", "--in", phi3)
        assert "series known to degree 3 < requested cap 5" in err
        obj = run_json(capsys, "check-associator", "--cap", "3", "--axioms", "AE,AS,H3", "--in", phi3)
        assert all(v["passed"] for v in obj["values"].values())


class TestInvariantCommands:
    def test_distinguish(self, capsys):
        obj = run_json(
            capsys, "distinguish", "--n", "3", "--cap", "3", "--w1", "a12", "--w2", "a21"
        )
        assert obj["values"]["first_difference_degree"] == 1
        assert obj["values"]["oracle_equal"] is False

    def test_vassiliev_degree(self, capsys):
        obj = run_json(
            capsys,
            "vassiliev-degree",
            "--n",
            "3",
            "--cap",
            "3",
            "--element",
            "1*[sig1] - 1*[s1]",
        )
        assert obj["values"]["order"] == 1
        assert obj["values"]["image"][0]["perm"] == "213"

    def test_delta_kernel(self, capsys):
        obj = run_json(capsys, "delta-kernel", "--n", "3", "--cap", "3")
        assert obj["degrees"] == [1, 2, 3]
        assert all(v["kernel_dimension"] == 0 for v in obj["values"].values())

    def test_hilbert_table(self, capsys):
        obj = run_json(capsys, "hilbert-table", "--n", "3", "--cap", "3")
        assert obj["values"]["chord"] == ["1", "3", "7", "15"]
        assert obj["values"]["oriented"] == ["1", "6", "27", "108"]

    @pytest.mark.parametrize(
        "w1,w2,degree", [("s1", "s2", 0), ("a12", "a21", None), ("sig1", "s1", None)]
    )
    def test_distinguish_at_cap_zero(self, capsys, w1, w2, degree):
        obj = run_json(capsys, "distinguish", "--n", "3", "--cap", "0", "--w1", w1, "--w2", w2)
        assert obj["values"]["first_difference_degree"] == degree

    def test_welded_family_at_cap_zero(self, capsys):
        obj = run_json(
            capsys, "eval", "--family", "welded", "--n", "3", "--cap", "0", "--word", "sig1 a12"
        )
        assert obj["degrees"] == [0]
        assert [term["perm"] for term in obj["values"]] == ["213"]
        obj = run_json(
            capsys, "vassiliev-degree", "--n", "3", "--cap", "0", "--element", "1*[s1] - 1*[]"
        )
        assert obj["values"]["order"] == 0

    @pytest.mark.parametrize(
        "family,assoc", [("drinfeld", False), ("drinfeld", True), ("rho3", True)]
    )
    def test_associator_families_at_cap_zero(self, capsys, tmp_path, family, assoc):
        argv = ["eval", "--family", family, "--n", "3", "--cap", "0", "--word", "sig1"]
        if assoc:
            (tmp_path / "one.txt").write_text("1\n")
            argv += ["--assoc", str(tmp_path / "one.txt")]
        assert run(capsys, *argv) == (0, "(1) ⊗ 213\n")

    @pytest.mark.parametrize(
        "n,cap,message",
        [
            ("1", "2", "the splitting identity needs n >= 2 strands, got n = 1"),
            ("3", "0", "the a_ij - 1 cases have order 1 and need cap >= 1, got cap = 0"),
        ],
    )
    def test_check_splitting_rejects_bad_sizes(self, capsys, n, cap, message):
        code = main(["check-splitting", "--n", n, "--cap", cap, "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_check_splitting_rejects_negative_samples(self, capsys):
        code = main(["check-splitting", "--n", "3", "--cap", "2", "--samples", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the splitting identity needs samples >= 0, got samples = -1\n"

    def test_check_splitting(self, capsys):
        obj = run_json(
            capsys, "check-splitting", "--n", "3", "--cap", "3", "--samples", "5", "--seed", "3"
        )
        assert obj["values"]["passed"] is True


class TestInfrastructure:
    def test_cache_dir_reused(self, capsys, tmp_path, monkeypatch):
        # A fresh process: tables the store already holds touch no file.
        monkeypatch.setattr(quotient, "_STATE", {})
        code, _ = run(
            capsys,
            "dim",
            "--preset",
            "oriented_artin",
            "--n",
            "3",
            "--cap",
            "2",
            "--cache-dir",
            str(tmp_path),
        )
        assert code == 0
        assert any(p.name.endswith(".basis") for p in tmp_path.iterdir())

    def test_error_exit_code(self, capsys):
        code = main(["normal-form", "--series", "1*bogus", "--n", "3", "--cap", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["normal-form", "--series", "1/0*v12"],
            ["vassiliev-degree", "--element", "1/0*[a12]"],
        ],
    )
    def test_zero_denominator_is_an_error(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"

    def test_a_tab_around_a_slash_reads_as_a_space(self, capsys):
        # The series grammar admits any whitespace around "/".
        spaced = run(capsys, "check-yb", "--series", "1 + 1 /24*A.B - 1/24*B.A")
        assert spaced == (0, "yang-baxter: pass\n")
        assert run(capsys, "check-yb", "--series", "1 + 1\t/24*A.B - 1/24*B.A") == spaced
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-associator", "--series", "1", "--cap", "-1"],
            ["check-yb", "--series", "1", "--cap", "-1"],
            ["delta-kernel", "--cap", "-1"],
        ],
    )
    def test_negative_cap_is_an_error(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cap must be >= 0\n"

    def test_bad_degree_header_is_named(self, capsys, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text("# semi-associator to degree x\n1\n")
        assert main(["check-associator", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: bad degree header '# semi-associator to degree x'\n"

    def test_missing_input_exits(self, capsys):
        assert main(["normal-form", "--n", "3", "--cap", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need --series or --in\n"

    @pytest.mark.parametrize("command", ["check-associator", "check-yb"])
    def test_series_without_input_is_an_error(self, capsys, command):
        assert main([command]) == 1
        assert capsys.readouterr().err == "error: need --series or --in\n"

    @pytest.mark.parametrize("command", ["normal-form", "check-associator", "check-yb"])
    def test_series_and_input_together_are_rejected(self, capsys, tmp_path, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "_read_series", lambda *a: calls.append(a))
        with pytest.raises(SystemExit) as exc:
            main([command, "--series", "1", "--in", str(tmp_path / "phi.txt")])
        assert exc.value.code == 2
        assert calls == []
        assert "argument --in: not allowed with argument --series" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--family", "welded", "--word", "a12", "--preset", "infinitesimal_artin"],
            ["distinguish", "--w1", "a12", "--w2", "a21", "--preset", "oriented_artin"],
            ["check-yb", "--series", "1", "--n", "3"],
            ["check-associator", "--series", "1", "--n", "3"],
            ["extend-associator", "--from", "one.txt", "--to-degree", "2", "--out", "x", "--cap", "3"],
            ["extend-associator", "--from", "one.txt", "--to-degree", "2", "--out", "x", "--n", "3"],
            # Chord-only subcommands: their tables are never persisted.
            ["check-associator", "--series", "1", "--cache-dir", "d"],
            ["extend-associator", "--from", "one.txt", "--to-degree", "2", "--out", "x", "--cache-dir", "d"],
            ["check-yb", "--series", "1", "--cache-dir", "d"],
        ],
    )
    def test_flag_a_subcommand_does_not_read_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# Option strings of each command, in order, as the per-command parsers had
# them when every command was a subparser of one parser.
PINNED_OPTIONS = {
    "dim": ["-h", "--help", "--n", "--cap", "--preset", "--cache-dir", "--format"],
    "normal-form": [
        "-h", "--help", "--n", "--cap", "--preset", "--series", "--in", "--cache-dir", "--format"
    ],
    "eval": [
        "-h", "--help", "--n", "--cap", "--cache-dir", "--format", "--family", "--word", "--assoc"
    ],
    "check-associator": ["-h", "--help", "--cap", "--series", "--in", "--format", "--axioms"],
    "extend-associator": ["-h", "--help", "--format", "--from", "--to-degree", "--out"],
    "check-yb": ["-h", "--help", "--cap", "--series", "--in", "--format"],
    "distinguish": ["-h", "--help", "--n", "--cap", "--cache-dir", "--format", "--w1", "--w2"],
    "vassiliev-degree": ["-h", "--help", "--n", "--cap", "--cache-dir", "--format", "--element"],
    "delta-kernel": ["-h", "--help", "--n", "--cap", "--cache-dir", "--format"],
    "hilbert-table": ["-h", "--help", "--n", "--cap", "--cache-dir", "--format"],
    "check-splitting": [
        "-h", "--help", "--n", "--cap", "--cache-dir", "--format", "--samples", "--seed"
    ],
}


class TestParser:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        for name, (help_line, _, _) in cli.COMMANDS.items():
            assert [name, *help_line.split()] in lines

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_command_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: braidalg {command} ")

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--n", "3", "dim"]])
    def test_missing_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: braidalg ")

    @pytest.mark.parametrize("argv", [["--n", "3", "dim"], ["--cap", "2"], ["--format"]])
    def test_an_option_before_the_command_is_named(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: braidalg ")
        assert "the command comes first" in err and repr(argv[0]) in err

    def test_option_strings_are_pinned(self):
        assert list(cli.COMMANDS) == list(PINNED_OPTIONS)
        for name, options in PINNED_OPTIONS.items():
            parser = cli._command_parser(name)
            assert [s for action in parser._actions for s in action.option_strings] == options

    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "--preset", "infinitesimal_artin", "--n", "3", "--cap", "2"],
            ["check-yb", "--cap", "2", "--series", "1"],
        ],
    )
    def test_a_well_formed_run_builds_no_parser(self, capsys, monkeypatch, argv):
        built = self._count_parsers(monkeypatch)
        assert main(argv) == 0
        assert built == []

    def test_a_run_the_reader_declines_builds_its_command_parser_only(self, capsys, monkeypatch):
        # "-1" starts with "-": argparse reads it as a negative number.
        built = self._count_parsers(monkeypatch)
        assert main(["check-splitting", "--samples", "-1"]) == 1
        assert built == ["braidalg check-splitting"]

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"], ["--n", "3", "dim"]])
    def test_only_help_and_usage_errors_build_the_top_level_parser(self, capsys, monkeypatch, argv):
        built = self._count_parsers(monkeypatch)
        with pytest.raises(SystemExit):
            main(argv)
        assert built == ["braidalg"]

    @staticmethod
    def _count_parsers(monkeypatch) -> list:
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return built


README_PATH = Path(__file__).parent.parent / "README.md"


def _readme_runs() -> list:
    """(text, command, flag) for every --flag after a command name in README.md.

    A run is one backtick span outside the fenced blocks, or one line that
    names ``braidalg``; a flag belongs to the last command name before it.
    """
    text = README_PATH.read_text()
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    lines = [line for line in text.splitlines() if re.search(r"\bbraidalg(\.cli)? ", line)]
    runs = []
    for run_text in spans + lines:
        command = None
        for token in run_text.split():
            if token in cli.COMMANDS:
                command = token
            elif command and token.startswith("--"):
                runs.append((run_text, command, token.split("=")[0].rstrip(",.;:)")))
    return runs


def test_readme_shows_only_declared_flags():
    declared = {
        name: {"--help"} | {
            flag
            for argument in arguments
            for flags, _ in (argument if isinstance(argument, cli._OneOf) else (argument,))
            for flag in flags
        }
        for name, (_, arguments, _) in cli.COMMANDS.items()
    }
    runs = _readme_runs()
    assert len(runs) > 100
    assert [(text, flag) for text, command, flag in runs if flag not in declared[command]] == []


def _keywords(name: str) -> dict:
    """A command's flags and their add_argument keywords."""
    return {
        flags[0]: keywords
        for argument in cli.COMMANDS[name][1]
        for flags, keywords in (argument if isinstance(argument, cli._OneOf) else (argument,))
    }


# Spellings argparse reads otherwise than as an exact flag or a plain value.
ODD_TOKENS = [
    "-h", "--help", "--n=3", "--cap=2", "--ca", "--se", "--fo", "-1", "-0", "--", "-", "--bogus", "=3"
]
PLAIN_VALUES = ["1", "", " 2", "+2", "3_0", "x", "a12 a21", "1 + 1/24*A.B", "AE,P", "phi.txt", "text"]


def _random_argv(rng, name: str) -> list:
    """Pairs of the command's own flags, mostly with good values, then perturbed."""
    keywords = _keywords(name)
    others = sorted({flag for other in cli.COMMANDS for flag in _keywords(other)} - set(keywords))
    required = [flag for flag, kw in keywords.items() if kw.get("required")]
    flags = required if rng.random() < 0.8 else []
    optional = sorted(set(keywords) - set(required))
    flags = flags + rng.sample(optional, rng.randint(0, min(3, len(optional))))
    rng.shuffle(flags)
    argv = []
    for flag in flags:
        kw = keywords[flag]
        if "choices" in kw and rng.random() < 0.9:
            value = rng.choice(kw["choices"])
        elif kw.get("type") is int and rng.random() < 0.8:
            value = str(rng.randint(0, 5))
        else:
            value = rng.choice(PLAIN_VALUES)
        argv += [flag, value]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        token = rng.choice(ODD_TOKENS + others + PLAIN_VALUES + sorted(keywords))
        where = rng.randint(0, len(argv))
        if rng.random() < 0.5 and where < len(argv):
            argv[where] = token
        else:
            argv.insert(where, token)
    return argv


def _argparse_reads(name: str, argv: list):
    """What argparse reads from argv, with each value's type, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._command_parser(name).parse_args(argv)
        except SystemExit:
            return None
    return {dest: (type(value), value) for dest, value in vars(args).items()}


class TestReader:
    """cli._read_args against argparse: the same namespace, or None."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_the_reader_agrees_with_argparse(self, name):
        rng = random.Random(f"reader {name}")
        read_count = declined = 0
        for _ in range(150):
            argv = _random_argv(rng, name)
            args = cli._read_args(name, argv)
            expected = _argparse_reads(name, argv)
            if args is None:
                declined += 1
            else:
                read_count += 1
                assert expected is not None, argv  # argparse exits, so the reader must decline
                assert {dest: (type(v), v) for dest, v in vars(args).items()} == expected, argv
        assert read_count >= 30 and declined >= 30, (read_count, declined)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "3", "--n", "4"],
            ["--series", "1", "--series", "1"],
            ["--in", "f", "--series", "1"],
            ["--n=3"],
            ["--ca", "3"],
            ["--cap", "-1"],
            ["--cap", "x"],
            ["--preset", "free"],
            ["--series", "-1*v12"],
            ["--series"],
            ["--help"],
            ["3"],
            ["--w1", "a12"],
        ],
    )
    def test_the_reader_declines(self, argv):
        assert cli._read_args("normal-form", argv) is None

    def test_the_reader_fills_in_the_defaults(self):
        args = cli._read_args("normal-form", ["--series", "", "--cap", " 2"])
        assert vars(args) == {
            "n": 3, "cap": 2, "preset": "oriented_artin", "series": "", "infile": None,
            "cache_dir": None, "format_": "text",
        }


@pytest.mark.parametrize(
    "argv,out",
    [
        (["dim", "--preset", "oriented_artin", "--n", "3", "--cap", "4"],
         "oriented_artin(3) dimensions, degrees 0..4: [1, 6, 27, 108, 405]"),
        (["check-associator", "--axioms", "P", "--cap", "4", "--in", str(PHI7_PATH)], "P: pass"),
    ],
    ids=["dim", "check-associator"],
)
def test_a_well_formed_run_imports_neither_argparse_gettext_nor_locale(argv, out):
    # argparse's first message lookup imports gettext and locale.
    src = os.path.dirname(os.path.dirname(braidalg.__file__))
    script = (
        "import sys\n"
        "from braidalg import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [out, "[]"]


USAGE_ERRORS = json.loads((FIXTURES / "usage-errors.json").read_text())


class TestHelpAndUsageErrors:
    """Help and usage errors byte for byte as argparse rendered them when it read every run.

    The fixtures were written at 80 columns by fresh ``python -m
    braidalg.cli`` processes before the reader took the well-formed runs.
    """

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("name", ["braidalg", *PINNED_OPTIONS])
    def test_help(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["--help"] if name == "braidalg" else [name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == ((FIXTURES / "help" / f"{name}.txt").read_text(), "")

    @pytest.mark.parametrize(
        "case", USAGE_ERRORS["cases"], ids=lambda case: " ".join(case["argv"]) or "no-argument"
    )
    def test_usage_error(self, capsys, case):
        # Error wording is argparse's own, and other releases word some of it otherwise.
        if "%d.%d" % sys.version_info[:2] != USAGE_ERRORS["python"]:
            pytest.skip(f"usage errors pinned as CPython {USAGE_ERRORS['python']} words them")
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        assert exc.value.code == case["code"]
        assert capsys.readouterr() == ("", case["stderr"])


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # The package declares no dataclass: @dataclass imports inspect and execs
    # its generated methods in every process, which no bytecode cache saves.
    src = os.path.dirname(os.path.dirname(braidalg.__file__))
    script = "import sys, braidalg, braidalg.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"]


def test_a_cold_cache_run_does_not_import_logging(tmp_path):
    # Nothing in a fresh process that has not imported logging can see a
    # DEBUG record, so rebuilding a cache file must not import it.
    src = os.path.dirname(os.path.dirname(braidalg.__file__))
    script = (
        "import sys\n"
        "from braidalg import cli\n"
        "argv = ['dim', '--preset', 'oriented_artin', '--n', '3', '--cap', '3']\n"
        "assert cli.main(argv + ['--cache-dir', sys.argv[1]]) == 0\n"
        "print('logging' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "oriented_artin(3) dimensions, degrees 0..3: [1, 6, 27, 108]",
        "False",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"oriented_artin(3)__deg{k}.basis" for k in range(4)
    ]


@pytest.mark.parametrize("run_", ["cold", "warm"])
def test_a_cache_run_does_not_import_hashlib(tmp_path, run_):
    # The cache header names its relation set verbatim, so no run hashes it;
    # hashlib maps OpenSSL into the process.
    src = os.path.dirname(os.path.dirname(braidalg.__file__))
    script = (
        "import sys\n"
        "from braidalg import cli\n"
        "argv = ['dim', '--preset', 'oriented_artin', '--n', '3', '--cap', '4']\n"
        "assert cli.main(argv + ['--cache-dir', sys.argv[1]]) == 0\n"
        "print('hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    inodes = None
    for _ in range(2 if run_ == "warm" else 1):
        if any(tmp_path.iterdir()):  # a warm run reads the files and rewrites none
            inodes = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "oriented_artin(3) dimensions, degrees 0..4: [1, 6, 27, 108, 405]",
            "False",
        ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"oriented_artin(3)__deg{k}.basis" for k in range(5)
    ]
    if run_ == "warm":
        assert inodes == {p.name: p.stat().st_ino for p in tmp_path.iterdir()}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
def test_running_out_of_memory_prints_one_line(tmp_path):
    # The child caps its own address space about 40 MB above its size after
    # importing the CLI, so the limit follows the host's interpreter.
    src = os.path.dirname(os.path.dirname(braidalg.__file__))
    script = (
        "import resource, sys\n"
        "from braidalg import cli\n"
        "with open('/proc/self/status') as status:\n"
        "    size = next(int(line.split()[1]) for line in status if line.startswith('VmSize:'))\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + 40 * 2**20, hard))\n"
        "argv = ['dim', '--preset', 'oriented_artin', '--n', '6', '--cap', '5']\n"
        "sys.exit(cli.main(argv + ['--cache-dir', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: out of memory in dim\n")
    assert not [p.name for p in tmp_path.iterdir() if not p.name.endswith(".basis")]
