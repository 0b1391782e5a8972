import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from morphauto import AnalyzeOptions, InternalCheckError, constructions, parse_morphism
from morphauto.cli import build_parser, main
from morphauto.constructions import representation_from_spec

from oracles import iso_equivalent, prefix_equal


def morph(corpus_path, name):
    return str(corpus_path / f"{name}.morph")


@pytest.fixture(scope="session")
def schema():
    return json.loads(
        (resources.files("morphauto") / "report_schema.json").read_text(encoding="utf-8")
    )


class TestAnalyzeCommand:
    def test_lysenok_summary(self, corpus_path, capsys):
        assert main(["analyze", morph(corpus_path, "lysenok")]) == 0
        out = capsys.readouterr().out
        assert "Automatic(2)" in out and "2-block morphism" in out

    def test_istrail_summary(self, corpus_path, capsys):
        assert main(["analyze", morph(corpus_path, "istrail")]) == 0
        out = capsys.readouterr().out
        assert "Automatic(2) via left-eigenvector criterion, q=2" in out

    def test_grig_aca_aba_summary(self, corpus_path, capsys):
        assert main(["analyze", morph(corpus_path, "grig_aca_aba")]) == 0
        out = capsys.readouterr().out
        assert "NotAutomatic" in out and "charpoly x^4 - 2*x^3 - 2*x^2 - x + 2" in out

    def test_block_failures_grow_linearly_in_kmax(self, corpus_path, capsys):
        # one failure per k; naming each whole k-letter block made the
        # output quadratic in kmax (105903 bytes here)
        assert main(["analyze", morph(corpus_path, "fibonacci"), "--kmax", "400"]) == 0
        assert len(capsys.readouterr().out.encode()) < 120 * 400

    def test_json_reports_validate(self, corpus_path, capsys, schema):
        for name in ("lysenok", "grig_aca_aba", "benli", "a285249"):
            assert main(["analyze", morph(corpus_path, name), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, schema)
        del report["input"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_every_corpus_report_validates(self, corpus_path, capsys, schema):
        for path in sorted(corpus_path.glob("*.morph")):
            assert main(["analyze", str(path), "--json", "--depth", "1000"]) == 0
            jsonschema.validate(json.loads(capsys.readouterr().out), schema)

    @pytest.mark.parametrize(
        "name, path, value",
        [
            ("grig_aca_aba", ("verdict", "spectral", "dominant_value"), None),
            ("benli", ("verdict", "evidence", "subalphabet_witnesses"), None),
            ("benli", ("verdict", "evidence", "complexity", "lower_bound_only"), None),
            ("benli", ("verdict", "evidence", "subalphabet_witnesses", 0, "profile", "lower_bound_only"), None),
            ("a285249", ("options", "depth"), 0),
            ("a285249", ("verdict", "verified_depth"), 0),
        ],
    )
    def test_schema_requires_what_every_report_carries(self, schema, name, path, value):
        # a pinned corpus report validates, and fails once the key is
        # removed (value None) or set to value
        report = json.loads((Path(__file__).parent / "corpus_reports.json").read_text())[name]
        jsonschema.validate(report, schema)
        *head, key = path
        parent = report
        for step in head:
            parent = parent[step]
        if value is None:
            del parent[key]
        else:
            parent[key] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.morph"
        bad.write_text("letters: a\na -> b\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "undeclared letter" in capsys.readouterr().err

    def test_file_with_a_byte_order_mark(self, tmp_path, capsys):
        text = b"letters: a b\na -> ab\nb -> a\n"
        plain, marked = tmp_path / "plain.morph", tmp_path / "marked.morph"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["analyze", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["analyze", str(marked)]) == 0
        assert capsys.readouterr().out == expected

    def test_non_prolongable_spec_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.morph"
        bad.write_text("letters: 0 1\n0 -> 10\n1 -> 0101\nseed: 0\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "prolongable" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["analyze", "/nonexistent/nowhere.morph"]) == 2

    def test_duplicate_declaration_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.morph"
        bad.write_text("letters: a\na -> aa\nseed: a\nseed: a\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "error: line 4: duplicate seed declaration" in capsys.readouterr().err

    def test_internal_check_failure_exit_3(self, corpus_path, capsys, monkeypatch):
        from morphauto import cli

        def broken(spec, options):
            raise InternalCheckError("certificate disagrees with the input fixed point")

        monkeypatch.setattr(cli, "analyze", broken)
        assert main(["analyze", morph(corpus_path, "istrail")]) == 3
        assert "internal error: certificate disagrees" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{fib}", "--depth", "-5"],
            ["analyze", "{fib}", "--kmax", "0"],
            ["compare", "{fib}", "{fib}", "-n", "0"],
            ["generate", "{fib}", "-n", "-1"],
            ["complexity", "{fib}", "--nmax", "0"],
            ["complexity", "{fib}", "-N", "0"],
            ["corpus", "--run", "--depth", "0"],
        ],
    )
    def test_non_positive_counts_exit_2(self, corpus_path, capsys, argv):
        fib = morph(corpus_path, "fibonacci")
        with pytest.raises(SystemExit) as exc:
            main([arg.format(fib=fib) for arg in argv])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["analyze", "{fib}", "--kmax", "1"], ["corpus", "--run", "--kmax", "1"]]
    )
    def test_kmax_below_2_exits_2(self, corpus_path, capsys, argv):
        fib = morph(corpus_path, "fibonacci")
        assert main([arg.format(fib=fib) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "kmax" in captured.err


class TestUniformize:
    def test_istrail_minimized_round_trip(self, corpus_path, capsys, tmp_path, berstel, istrail):
        out_path = tmp_path / "istrail_uniform.morph"
        assert main(["uniformize", morph(corpus_path, "istrail"), "--minimize", "-o", str(out_path)]) == 0
        emitted = parse_morphism(out_path.read_text(encoding="utf-8"))
        assert emitted.morphism.uniform_length == 2
        assert len(emitted.morphism.alphabet) == 4
        rep = representation_from_spec(emitted)
        assert iso_equivalent(rep, representation_from_spec(berstel)) is not None
        assert prefix_equal(emitted, istrail, 10_000)

    def test_already_uniform_input(self, corpus_path, capsys, tmp_path, thue_morse):
        out_path = tmp_path / "tm_uniform.morph"
        assert main(["uniformize", morph(corpus_path, "thue_morse"), "--minimize", "-o", str(out_path)]) == 0
        emitted = parse_morphism(out_path.read_text(encoding="utf-8"))
        rep = representation_from_spec(emitted)
        assert iso_equivalent(rep, representation_from_spec(thue_morse)) is not None

    def test_criterion_failure_exit_4(self, corpus_path, capsys):
        assert main(["uniformize", morph(corpus_path, "lysenok")]) == 4
        assert capsys.readouterr().err == "error: length vector is not a left eigenvector\n"

    def test_erasing_morphism_exit_4(self, tmp_path, capsys):
        path = tmp_path / "erasing.morph"
        path.write_text("letters: a b\na -> ab\nb ->\n", encoding="utf-8")
        assert main(["uniformize", str(path)]) == 4
        assert capsys.readouterr().err == "error: reshuffle requires a non-erasing morphism\n"

    def test_prints_the_certificate_without_an_output_file(self, corpus_path, capsys, istrail):
        assert main(["uniformize", morph(corpus_path, "istrail"), "--minimize"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# derived-from: istrail.morph (reshuffle, minimized)\n")
        emitted = parse_morphism(out)
        assert emitted.morphism.uniform_length == 2
        assert prefix_equal(emitted, istrail, 5000)

    def test_non_prolongable_seed_is_an_input_error(self, tmp_path, capsys):
        # the criterion fails too (eigenvalue 1 certifies nothing), but the
        # seed is what makes the input unusable: exit 2, not the criterion's 4
        bad = tmp_path / "bad.morph"
        bad.write_text("letters: a b\na -> b\nb -> b\nseed: a\n", encoding="utf-8")
        assert main(["uniformize", str(bad)]) == 2
        assert "prolongable" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/out.morph", "."], ids=["missing directory", "a directory"])
    def test_unwritable_output_is_an_input_error(self, corpus_path, tmp_path, capsys, target):
        out_path = tmp_path / target
        assert main(["uniformize", morph(corpus_path, "istrail"), "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_path}: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


class TestOtherCommands:
    def test_defaults_are_the_analyze_options(self):
        parser = build_parser()
        for argv in (["analyze", "x.morph"], ["corpus"]):
            args = parser.parse_args(argv)
            assert (args.depth, args.kmax) == (AnalyzeOptions.depth, AnalyzeOptions.kmax)
        args = parser.parse_args(["complexity", "x.morph"])
        assert (args.nmax, args.prefix_length) == (
            AnalyzeOptions.evidence_nmax,
            AnalyzeOptions.evidence_prefix,
        )

    def test_blocks(self, corpus_path, capsys):
        assert main(["blocks", morph(corpus_path, "lysenok"), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "uniform length 2" in out and "ac" in out

    def test_blocks_that_render_alike(self, tmp_path, capsys):
        # the 2-blocks (a+b, c) and (a, b+c) both render as a+b+c
        path = tmp_path / "collide.morph"
        path.write_text(
            "letters: a+b c a b+c\na+b -> a+b c a b+c\nc -> c c\n"
            "a -> a b+c\nb+c -> a+b c\nseed: a+b\n"
        )
        assert main(["blocks", str(path), "-k", "2"]) == 0
        assert "blocks at positions 0 mod 2: a+b+c, a+b+c', c+c" in capsys.readouterr().out
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out.startswith("Unknown")

    def test_blocks_failure(self, corpus_path, capsys):
        assert main(["blocks", morph(corpus_path, "fib_bc"), "-k", "2"]) == 1
        assert "not a multiple" in capsys.readouterr().err

    def test_long_block_is_named_by_its_first_letters_and_length(self, corpus_path, capsys):
        assert main(["blocks", morph(corpus_path, "fibonacci"), "-k", "100"]) == 1
        assert capsys.readouterr().err == (
            "no 100-block morphism: image of block '0100101001001010…' (100 letters) "
            "has length 162, not a multiple of 100\n"
        )

    def test_blocks_closure_bound(self, corpus_path, capsys, monkeypatch):
        # lysenok has three 2-blocks
        monkeypatch.setattr(constructions, "_MAX_BLOCKS", 2)
        assert main(["blocks", morph(corpus_path, "lysenok"), "-k", "2"]) == 1
        assert capsys.readouterr().err == "no 2-block morphism: block closure exceeded its bound\n"

    def test_generate(self, corpus_path, capsys):
        assert main(["generate", morph(corpus_path, "fibonacci"), "-n", "10"]) == 0
        assert capsys.readouterr().out.strip() == "0100101001"

    def test_compare(self, corpus_path, capsys):
        assert main([
            "compare", morph(corpus_path, "lysenok"), morph(corpus_path, "lysenok_psi"), "-n", "10000",
        ]) == 0
        assert "equal" in capsys.readouterr().out

    def test_compare_differs(self, corpus_path, capsys):
        assert main([
            "compare", morph(corpus_path, "thue_morse"), morph(corpus_path, "period_doubling"), "-n", "100",
        ]) == 1
        assert "differ at position" in capsys.readouterr().out

    def test_cup(self, corpus_path, capsys):
        assert main(["cup", morph(corpus_path, "tm_cube"), "--pair-pos", "3", "--split", "1"]) == 0
        out = capsys.readouterr().out
        assert "lambda = 8" in out and "0'" in out

    def test_cup_emits_reingestible_spec(self, corpus_path, capsys, thue_morse):
        assert main(["cup", morph(corpus_path, "tm_cube"), "--pair-pos", "3", "--split", "5"]) == 0
        out = capsys.readouterr().out
        spec_text = "\n".join(line for line in out.splitlines() if "eigenvector check" not in line)
        emitted = parse_morphism(spec_text)
        assert prefix_equal(emitted, thue_morse, 5000)

    def test_complexity_csv(self, corpus_path, capsys):
        assert main([
            "complexity", morph(corpus_path, "fib_bc"), "--nmax", "5", "-N", "1000", "--csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,p"
        assert lines[1:] == ["1,2", "2,3", "3,4", "4,5", "5,6"]

    def test_complexity_text(self, corpus_path, capsys):
        assert main(["complexity", morph(corpus_path, "fib_bc"), "--nmax", "5", "-N", "1000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [f"p({n}) = {n + 1}" for n in range(1, 6)] + [
            "(lower bounds from a prefix of length 1000)"
        ]


class TestCorpusCommand:
    def test_full_corpus_passes_at_default_depth(self, capsys):
        # default depth 10^4 exercises the certificate-replay invariant on
        # every automatic entry
        assert main(["corpus", "--run"]) == 0
        out = capsys.readouterr().out
        assert "all 39 corpus entries match" in out

    def test_runs_as_python_dash_m(self, tmp_path):
        # from a source checkout, with no installed ``morphauto`` script
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "morphauto", "corpus", "--run", "--depth", "500"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all 39 corpus entries match" in result.stdout

    def test_listing(self, capsys):
        assert main(["corpus"]) == 0
        assert "lysenok" in capsys.readouterr().out

    def test_corrupted_expectation_fails_with_diff(self, tmp_path, corpus_path, capsys):
        (tmp_path / "lysenok.morph").write_text(
            (corpus_path / "lysenok.morph").read_text(encoding="utf-8"), encoding="utf-8"
        )
        (tmp_path / "lysenok.expected.json").write_text(
            json.dumps({"verdict": "not_automatic"}), encoding="utf-8"
        )
        assert main(["corpus", "--run", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL lysenok" in out and "automatic != expected not_automatic" in out

    @pytest.mark.parametrize(
        "field, wrong, message",
        [("q", 3, "q 2 != expected 3"), ("stage", "block", "stage eigenvector != expected block")],
    )
    def test_q_or_stage_mismatch_exit_1(self, tmp_path, corpus_path, capsys, field, wrong, message):
        expected = json.loads((corpus_path / "istrail.expected.json").read_text(encoding="utf-8"))
        expected[field] = wrong
        (tmp_path / "istrail.morph").write_text(
            (corpus_path / "istrail.morph").read_text(encoding="utf-8"), encoding="utf-8"
        )
        (tmp_path / "istrail.expected.json").write_text(json.dumps(expected), encoding="utf-8")
        assert main(["corpus", "--run", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"FAIL istrail: {message}" in out
        assert "1 of 1 corpus entries mismatched" in out

    def test_expectation_is_paired_by_full_stem(self, tmp_path, corpus_path, capsys):
        # lysenok.v2.morph must not pick up lysenok.expected.json
        for source, name in (("lysenok", "lysenok"), ("thue_morse", "lysenok.v2")):
            for suffix in (".morph", ".expected.json"):
                text = (corpus_path / f"{source}{suffix}").read_text(encoding="utf-8")
                (tmp_path / f"{name}{suffix}").write_text(text, encoding="utf-8")
        assert main(["corpus", "--run", "--dir", str(tmp_path)]) == 0
        assert "all 2 corpus entries match" in capsys.readouterr().out

    @pytest.mark.parametrize("run", [[], ["--run"]])
    def test_missing_expectation_exit_2(self, tmp_path, corpus_path, capsys, run):
        text = (corpus_path / "fibonacci.morph").read_text(encoding="utf-8")
        (tmp_path / "lonely.morph").write_text(text, encoding="utf-8")
        assert main(["corpus", *run, "--dir", str(tmp_path)]) == 2
        assert "no expectation file lonely.expected.json" in capsys.readouterr().err

    @pytest.mark.parametrize("run", [[], ["--run"]])
    @pytest.mark.parametrize("expected", ['{"q": 2}', "[1]", '{"verdict": 1}', '{"verdict": '])
    def test_malformed_expectation_exit_2(self, tmp_path, corpus_path, capsys, run, expected):
        text = (corpus_path / "fibonacci.morph").read_text(encoding="utf-8")
        (tmp_path / "fibonacci.morph").write_text(text, encoding="utf-8")
        (tmp_path / "fibonacci.expected.json").write_text(expected, encoding="utf-8")
        assert main(["corpus", *run, "--dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            'error: fibonacci.expected.json is not a JSON object with a string "verdict"\n'
        )

    def test_empty_corpus_warns(self, tmp_path, capsys):
        assert main(["corpus", "--run", "--dir", str(tmp_path)]) == 0
        assert "warning" in capsys.readouterr().out

    @pytest.mark.parametrize("run", [[], ["--run"]])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_directory_that_is_not_one_exit_2(self, tmp_path, corpus_path, capsys, run, kind):
        path = tmp_path / "typo"
        if kind == "file":
            path.write_text((corpus_path / "fibonacci.morph").read_text(encoding="utf-8"))
        assert main(["corpus", *run, "--dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error: corpus directory {path} " in captured.err
        assert "warning" not in captured.out


class TestRoundTrip:
    def test_every_emitted_certificate_reverifies(self, corpus_path, tmp_path):
        # uniformize each eigenvector-criterion entry, re-parse, re-verify
        for name in ("istrail", "anagram7", "a285249", "a284878", "a285159"):
            spec = parse_morphism((corpus_path / f"{name}.morph").read_text(encoding="utf-8"))
            out_path = tmp_path / f"{name}_uniform.morph"
            assert main(["uniformize", str(corpus_path / f"{name}.morph"), "--minimize", "-o", str(out_path)]) == 0
            emitted = parse_morphism(out_path.read_text(encoding="utf-8"))
            assert emitted.morphism.uniform_length is not None
            assert prefix_equal(emitted, spec, 5000)


# SHA-256 of what each command prints on every corpus entry: stdout, stderr
# and the exit code.  The reports leave certificates out, so these pin the
# uniform certificates, block morphisms and CUP rewrites themselves.
CLI_COMMANDS = {
    "uniformize": ["uniformize"],
    "uniformize --minimize": ["uniformize", "--minimize"],
    "blocks -k 2": ["blocks", "-k", "2"],
    "blocks -k 3": ["blocks", "-k", "3"],
    "blocks -k 4": ["blocks", "-k", "4"],
    "cup": ["cup"],
    "cup --pair-pos 3 --split 5": ["cup", "--pair-pos", "3", "--split", "5"],
}
PINNED_CLI_OUTPUTS = json.loads((Path(__file__).parent / "cli_outputs.json").read_text())


def cli_output_digests(corpus_path) -> dict[str, str]:
    digests = {}
    for path in sorted(corpus_path.glob("*.morph")):
        for command, argv in CLI_COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            printed = json.dumps([out.getvalue(), err.getvalue(), code])
            digests[f"{path.stem} {command}"] = hashlib.sha256(printed.encode()).hexdigest()
    return digests


def test_cli_outputs_are_pinned(corpus_path):
    assert cli_output_digests(corpus_path) == PINNED_CLI_OUTPUTS
