import itertools
import json
import multiprocessing
import os
import random
import resource
import subprocess
import sys
import time
from functools import partial

import pytest

import aritygap.cli as cli
import aritygap.verifier as verifier
from aritygap import essential_vars, gap_report, make_function, random_function, substream_seed
from aritygap.cli import function_file_text, main, parse_function_text
from aritygap.commands import _build_parser
from aritygap.errors import ArityGapError, ParseError

XOR_TEXT = "# exclusive or\n2 2 2\n0 1 1 0\n"
MAJ_TEXT = "2 3 2\n0 0 0 1 0 1 1 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFunctionFileFormat:
    def test_decimal_with_comments(self):
        f = parse_function_text(XOR_TEXT)
        assert (f.k, f.n, f.b) == (2, 2, 2)
        assert f.table == (0, 1, 1, 0)

    def test_values_may_wrap_lines(self):
        f = parse_function_text("2 3 2\n0 1\n1 0 1 0\n0 1\n")
        assert f.n == 3 and f.table == (0, 1, 1, 0, 1, 0, 0, 1)

    def test_hex_form_equals_decimal(self):
        assert parse_function_text("hex:6") == parse_function_text(XOR_TEXT)
        assert parse_function_text("# comment\nhex:17\n") == parse_function_text(MAJ_TEXT)

    def test_hex_rejects_bad_length(self):
        with pytest.raises(ParseError):
            parse_function_text("hex:123")

    def test_hex_rejects_bad_digits(self):
        with pytest.raises(ParseError):
            parse_function_text("hex:xyz")

    @pytest.mark.parametrize("digits", ["xyz", "6g", "", "6 7", "0x6", "٦"])
    def test_hex_bad_digits_message(self, digits):
        with pytest.raises(ParseError) as exc:
            parse_function_text(f"hex:{digits}")
        assert str(exc.value) == f"bad hex digits {digits!r}"

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_function_text("2 2\n0 1 1 0\n")

    def test_wrong_value_count(self):
        with pytest.raises(ParseError):
            parse_function_text("2 2 2\n0 1 1\n")

    def test_value_out_of_range(self):
        with pytest.raises(ParseError):
            parse_function_text("2 2 2\n0 1 2 0\n")

    def test_out_of_range_file_names_the_first_offender(self, tmp_path, capsys):
        path = write(tmp_path, "f.fn", "2 2 2\n0 5 -1 7\n")
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == "error: table entry 5 not in range(0, 2)\n"

    def test_non_integer_token_message(self):
        with pytest.raises(ParseError) as exc:
            parse_function_text("2 2 2\n0 1 x 0\n")
        assert str(exc.value) == "non-integer token in function file: invalid literal for int() with base 10: 'x'"

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_function_text("# nothing here\n")

    def test_write_parse_round_trip(self):
        f = make_function(3, 3, 2, [0, 1, 2, 1, 2, 0, 2, 0, 1])
        assert parse_function_text(function_file_text(f, comment="latin square")) == f


def _token_reader(text):
    """The decimal reader without the digit path: every token through int(),
    then make_function; a function, or the text of the ParseError raised."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    k, n, b = map(int, lines[0].split())
    try:
        values = list(map(int, " ".join(lines[1:]).split()))
    except ValueError as exc:
        return f"non-integer token in function file: {exc}"
    try:
        return make_function(k, b, n, values)
    except ArityGapError as exc:
        return str(exc)


def _reader_cases():
    """Decimal files around the digit path's conditions: b = 1..12, a valid
    body, and bodies with one odd token, a wrong count or other layouts."""
    rng = random.Random(30)
    for b, (k, n) in itertools.product(range(1, 13), [(1, 3), (2, 1), (2, 3), (3, 2), (4, 2)]):
        table = [str(rng.randrange(b)) for _ in range(k**n)]
        spot = rng.randrange(len(table))
        bodies = [table, table[:-1], table + ["0"], table[:-1] + [str(b)], table[:-1] + [str(b - 1)]]
        for odd in ["01", "+1", "-0", "٣", "１", str(b), "00", "1_0", "x", ""]:
            bodies.append(table[:spot] + [odd] + table[spot + 1:])
        for body in bodies:
            yield f"{k} {n} {b}\n" + " ".join(body) + "\n"
            yield f"# comment\r\n{k} {n} {b}\r\n# between\r\n" + "\t".join(body) + "\r\n"
            yield f"{k} {n} {b}\n" + "\n".join(body) + "\n# trailing\n"
    for header in ["0 2 2", "2 0 2", "2 -1 2", "-2 1 2", "2 1 0", "2 1 -3", "1 1000 2", "2 1000000000 2"]:
        yield f"{header}\n0\n"


class TestDigitReader:
    def test_reads_as_int_and_make_function_do(self):
        cases = list(_reader_cases())
        assert len(cases) == 12 * 5 * 15 * 3 + 8
        read = 0
        for text in cases:
            expected = _token_reader(text)
            try:
                got = parse_function_text(text)
            except ParseError as exc:
                got = str(exc)
            assert got == expected, text
            read += not isinstance(expected, str)
        assert read > 300

    def test_huge_arity_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"expected k\*\*n = 2\*\*1000000000"):
            parse_function_text("2 1000000000 2\n0 1 1 0\n")
        assert time.perf_counter() - start < 1.0


def _argv_corpus():
    """Command lines around the quick path: each command and path with up to
    two of --json, --, an abbreviation, -h or a second path, in every order."""
    extras = ["--json", "--js", "--", "-h", "f"]
    for command in ["analyze", "classify", "anf", "sweep", "analyse", ""]:
        for path in ["f", "-", "-1", "--json", "a b", ""]:
            for count in (0, 1, 2):
                for added in itertools.product(extras, repeat=count):
                    for line in sorted(set(itertools.permutations([path, *added]))):
                        yield [command, *line]
    yield []


class TestFileCommandArgs:
    def test_quick_path_reads_what_argparse_reads(self):
        parser = _build_parser()
        taken = 0
        for argv in _argv_corpus():
            quick = cli._file_command(argv)
            if quick is None:
                continue
            try:
                full = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"quick path read {argv}, which argparse refuses")
            assert vars(quick) == vars(full), argv
            taken += 1
        assert taken > 20

    @pytest.mark.parametrize("argv", [["analyze", "f"], ["analyze", "f", "--json"], ["classify", "--json", "f"],
                                      ["anf", "a b"], ["classify", ""]])
    def test_quick_path_takes_the_plain_forms(self, argv):
        assert cli._file_command(argv) is not None

    @pytest.mark.parametrize("argv", [["analyze", "-"], ["anf", "f", "--json"], ["analyze", "f", "--json", "--json"],
                                      ["classify", "--js", "f"], ["analyze", "--", "f"], ["anf", "-h"], ["analyze"],
                                      []])
    def test_quick_path_declines_the_rest(self, argv):
        assert cli._file_command(argv) is None

    @pytest.mark.parametrize("command", ["analyze", "classify", "anf"])
    @pytest.mark.parametrize("flag", [[], ["--json"]])
    @pytest.mark.parametrize("text", [MAJ_TEXT, "hex:6", "3 2 3\n0 1 2 1 2 0 2 0 1\n", "2 2 2\n0 1 2 0\n"],
                             ids=["majority", "hex", "ternary", "malformed"])
    def test_main_prints_as_through_argparse(self, command, flag, text, tmp_path, capsys, monkeypatch):
        argv = [command, write(tmp_path, "f.fn", text), *flag]
        outputs = []
        for quick in (True, False):
            if not quick:
                monkeypatch.setattr(cli, "_file_command", lambda argv: None)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]


class TestAnalyze:
    def test_xor_summary(self, tmp_path, capsys):
        path = write(tmp_path, "xor.fn", XOR_TEXT)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "ess=2 essl=0 gap=2 witness=(1,2)" in out
        assert "essential_vars: 1 2" in out

    def test_constant_gap_undefined(self, tmp_path, capsys):
        path = write(tmp_path, "const.fn", "2 2 2\n1 1 1 1\n")
        assert main(["analyze", path]) == 0
        assert "ess=0 gap: undefined" in capsys.readouterr().out

    def test_json_payload(self, tmp_path, capsys):
        path = write(tmp_path, "maj.fn", MAJ_TEXT)
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "aritygap/1"
        assert payload["ess"] == 3 and payload["essl"] == 1 and payload["gap"] == 2
        assert payload["essential_vars"] == [1, 2, 3]

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.fn", "2 2\n0 1 1 0\n")
        assert main(["analyze", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/nonexistent/f.fn"]) == 2

    @pytest.mark.parametrize("command", ["analyze", "anf", "classify"])
    def test_non_utf8_file_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "latin.fn"
        path.write_bytes(b"\xff2 2 2\n0 1 1 0\n")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_huge_header_exits_2(self, tmp_path, capsys):
        # 10**10000 rows: decided and reported without printing the power.
        path = write(tmp_path, "huge.fn", "10 10000 2\n0 1\n")
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert "expected k**n = 10**10000" in err and len(err) < 200


class TestAnf:
    def test_and(self, tmp_path, capsys):
        path = write(tmp_path, "and.fn", "2 2 2\n0 0 0 1\n")
        assert main(["anf", path]) == 0
        assert capsys.readouterr().out.strip() == "x1*x2"

    def test_constant_one(self, tmp_path, capsys):
        path = write(tmp_path, "one.fn", "2 1 2\n1 1\n")
        assert main(["anf", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_xor(self, tmp_path, capsys):
        path = write(tmp_path, "xor.fn", XOR_TEXT)
        assert main(["anf", path]) == 0
        assert capsys.readouterr().out.strip() == "x1 + x2"

    def test_not_boolean_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "tern.fn", "3 1 3\n0 1 2\n")
        assert main(["anf", path]) == 2


class TestClassify:
    def test_majority(self, tmp_path, capsys):
        path = write(tmp_path, "maj.fn", MAJ_TEXT)
        assert main(["classify", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tag"] == "TriangleMaj"
        assert payload["participants"] == [1, 2, 3]
        assert payload["gap"] == 2

    def test_and_not_special(self, tmp_path, capsys):
        path = write(tmp_path, "and.fn", "2 2 2\n0 0 0 1\n")
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "NotSpecial" in out and "gap=1" in out

    def test_xor_parity(self, tmp_path, capsys):
        path = write(tmp_path, "xor.fn", "hex:6")
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "LinearParity" in out and "gap=2" in out

    def test_single_variable_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "proj.fn", "2 2 2\n0 0 1 1\n")
        assert main(["classify", path]) == 2


class TestSweepCommand:
    def test_thmstr_small(self, capsys):
        assert main(["sweep", "--theorem", "thmstr", "--k", "2", "--b", "2", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out and "result: pass" in out

    def test_thm1_lists_boolean_witnesses(self, capsys):
        assert main(["sweep", "--theorem", "thm1", "--k", "2", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 1 1 0" in out  # xor
        assert "1 0 0 1" in out  # xnor

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_thm1_on_one_element_passes(self, n, capsys):
        # No operation on one element has an essential variable, so Thm1
        # promises a witness only from k = 2 on.
        assert main(["sweep", "--theorem", "thm1", "--k", "1", "--n", n]) == 0
        out = capsys.readouterr().out
        assert "checked: 1  skipped: 0" in out and "result: pass" in out

    def test_thm1_complete_search_without_witness_fails(self, monkeypatch, capsys):
        # A kernel that finds no witness: the search checked every member,
        # so the report fails rather than checking nothing.
        spec = verifier._THEOREMS[verifier.TheoremId.THM1]
        monkeypatch.setitem(verifier._THEOREMS, verifier.TheoremId.THM1,
                            spec._replace(lanes=lambda *args: (spec.lanes(*args)[0],) * 2))
        assert main(["sweep", "--theorem", "thm1", "--k", "2", "--n", "2"]) == 1
        out = capsys.readouterr().out
        assert "checked: 16  skipped: 0" in out and "witness:" not in out and "result: FAIL" in out

    def test_thm1_sample_honours_count_and_seed(self, capsys):
        argv = ["sweep", "--theorem", "thm1", "--k", "2", "--n", "2", "--count", "5", "--seed", "3",
                "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["checked"], payload["exhaustive"]) == (5, False)
        assert payload["population"] == "diagonal-sampled search k=2 n=2 space=2**3"

    def test_thm1_reject_hypothesis_exits_2(self, capsys):
        argv = ["sweep", "--theorem", "thm1", "--k", "2", "--n", "2", "--count", "5",
                "--reject-hypothesis"]
        assert main(argv) == 2
        assert "no hypothesis to resample" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [["--k", "4", "--n", "2"], ["--k", "5", "--n", "3"]])
    def test_thm1_exhaustive_over_budget_exits_3_at_once(self, shape, capsys):
        start = time.perf_counter()
        assert main(["sweep", "--theorem", "thm1", *shape]) == 3
        assert time.perf_counter() - start < 1
        assert "use a sampled sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape", [["--k", "5", "--n", "3", "--count", "7"], ["--k", "8", "--n", "6", "--count", "2"]]
    )
    def test_thm1_samples_of_wide_diagonal_codes_finish(self, shape):
        # 5**61 and 8**20161 diagonal codes: each draw spans several outputs.
        result = subprocess.run(
            [sys.executable, "-m", "aritygap", "sweep", "--theorem", "thm1", *shape, "--json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert (payload["checked"], payload["exhaustive"]) == (int(shape[-1]), False)

    def test_json_report(self, capsys):
        code = main(["sweep", "--theorem", "salomaamain", "--n", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "aritygap/1"
        assert payload["theorem"] == "ThmSalomaaMain"
        assert payload["violation_count"] == 0
        assert payload["checked"] + payload["skipped"] == 16

    def test_sampled_flags(self, capsys):
        code = main([
            "sweep", "--theorem", "thmgen", "--k", "3", "--b", "3", "--n", "4",
            "--count", "50", "--seed", "42", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked"] + payload["skipped"] == 50

    def test_budget_env_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("ARITYGAP_BUDGET", "10")
        assert main(["sweep", "--theorem", "thmstr", "--n", "4"]) == 3

    def test_deg2_sweep(self, capsys):
        assert main(["sweep", "--theorem", "lemdeg2", "--n", "4"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "shape",
        [["thmgen", "--k", "2", "--n", "14"], ["thmgen", "--k", "3", "--n", "14"],
         ["lemdeg2", "--n", "200"], ["thmgen", "--k", "3", "--n", "10000"],
         ["thmgen", "--k", "3", "--n", "10000", "--count", "1"],
         ["thm1", "--k", "3", "--n", "10000"]],
    )
    def test_huge_exhaustive_population_exits_3(self, shape, capsys):
        # The population or the table size has thousands of digits: decided
        # without building or printing it.
        assert main(["sweep", "--theorem", *shape]) == 3
        err = capsys.readouterr().err
        assert "exceed budget" in err and len(err) < 200

    @pytest.mark.parametrize(
        "option",
        [pytest.param(["--count", "0"], id="0"), pytest.param(["--count", "-5"], id="-5"),
         pytest.param(["--workers", "0"], id="workers=0"),
         pytest.param(["--workers", "-3"], id="workers=-3")],
    )
    def test_nonpositive_count_exits_2(self, option, capsys):
        assert main(["sweep", "--theorem", "thmstr", "--n", "3", *option]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape",
        [["thmgen", "--k", "0", "--n", "3"], ["thmgen", "--n", "-1"], ["lemdeg2", "--n", "-2"],
         ["thmgen", "--n", "0"], ["thmgen", "--b", "0", "--n", "3"], ["thm1", "--k", "0", "--n", "2"],
         ["thmstr", "--n", "0", "--count", "5"]],
    )
    def test_nonpositive_shape_exits_2(self, shape, capsys):
        # These crashed with exit 1 or reported "nothing checked" (exit 4).
        assert main(["sweep", "--theorem", *shape]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_nothing_checked_exits_4(self, capsys):
        # Every two-variable Boolean table has ess <= 2 = k: all 16 skipped.
        assert main(["sweep", "--theorem", "thmgen", "--k", "2", "--n", "2"]) == 4
        out = capsys.readouterr().out
        assert "checked: 0  skipped: 16" in out and "result: nothing checked" in out

    @pytest.mark.parametrize(
        "theorem,k,n",
        [("lemkplus1", "2", "2"), ("thmgen", "3", "3"), ("salomaaaux", "2", "1")],
    )
    def test_infeasible_hypothesis_exits_2(self, theorem, k, n, capsys):
        argv = ["sweep", "--theorem", theorem, "--k", k, "--n", n, "--count", "5",
                "--reject-hypothesis"]
        assert main(argv) == 2
        assert "hypothesis holds for no function" in capsys.readouterr().err


class TestSearchCommand:
    def test_boolean_rejected(self, capsys):
        assert main(["search", "--k", "2", "--n", "3"]) == 2
        assert "gap at most 2" in capsys.readouterr().err

    def test_arity_too_small_rejected(self, capsys):
        assert main(["search", "--k", "3", "--n", "3"]) == 2

    def test_hypothesis_error_names_the_command(self, capsys):
        assert main(["search", "--k", "3", "--n", "3", "--count", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: search hypothesis holds for no function with k=3 b=3 n=3")

    def test_negative_count_rejected(self, capsys):
        assert main(["search", "--k", "3", "--n", "4", "--count", "-1"]) == 2
        assert "sample count must be >= 1, got -1" in capsys.readouterr().err

    def test_small_run_reports_none(self, capsys):
        assert main(["search", "--k", "3", "--n", "4", "--count", "30", "--seed", "1"]) == 0
        assert "none found" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["search", "--k", "3", "--n", "4", "--count", "20", "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] == []
        assert payload["count"] == 20

    def test_count_above_budget_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("ARITYGAP_BUDGET", "100")
        assert main(["search", "--k", "3", "--n", "4", "--count", "101"]) == 3
        assert "sample count 101 exceeds budget 100" in capsys.readouterr().err

    @pytest.mark.parametrize("through_pool", [False, True])
    def test_hits_are_reported_in_sample_order(self, through_pool, capsys, monkeypatch):
        # Random searches find no gap >= 3, so the search record is patched
        # to ess f >= 2 and gap >= 2 hits, which k=3 n=2 samples often have.
        record = verifier._THEOREMS[verifier._Search.GAP3]
        patched = record._replace(above_k=False, lanes=partial(verifier._gap_lanes, gap=1))
        monkeypatch.setitem(verifier._THEOREMS, verifier._Search.GAP3, patched)
        pools = []
        if through_pool:
            monkeypatch.setattr(verifier, "_PARALLEL_THRESHOLD", 100)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            real_pool = multiprocessing.Pool
            monkeypatch.setattr(multiprocessing, "Pool", lambda n: pools.append(n) or real_pool(n))
        argv = ["search", "--k", "3", "--n", "2", "--count", "300", "--seed", "4", "--json"]
        assert main(argv) == 0
        found = json.loads(capsys.readouterr().out)["found"]
        assert pools == ([2] if through_pool else [])

        expected = []
        for i in range(300):
            base = substream_seed(4, i)
            attempt = 0
            f = random_function(3, 3, 2, substream_seed(base, attempt))
            while len(essential_vars(f)) < 2:
                attempt += 1
                f = random_function(3, 3, 2, substream_seed(base, attempt))
            r = gap_report(f)
            if r.gap >= 2:
                expected.append({"k": 3, "b": 3, "n": 2, "table": list(f.table), "ess": r.ess,
                                 "essl": r.essl, "gap": r.gap, "witness": list(r.witness)})
        assert len(expected) > 10
        assert found == expected


class TestGenerateCommand:
    def test_random_golden(self, tmp_path, capsys):
        out1 = str(tmp_path / "a.fn")
        out2 = str(tmp_path / "b.fn")
        assert main(["generate", "--random", "2", "2", "3", "1", "--out", out1]) == 0
        assert main(["generate", "--random", "2", "2", "3", "1", "--out", out2]) == 0
        text = open(out1).read()
        assert text == open(out2).read()
        assert parse_function_text(text).table == parse_function_text(text).table

    def test_quasilinear_spec_roundtrip(self, tmp_path, capsys):
        spec = {"k": 3, "n": 3, "h_maps": [[0, 1, 0]] * 3, "g_map": [0, 1]}
        spec_path = write(tmp_path, "ql.json", json.dumps(spec))
        out = str(tmp_path / "ql.fn")
        assert main(["generate", "--quasilinear", spec_path, "--out", out]) == 0
        assert main(["analyze", out]) == 0
        assert "gap=2" in capsys.readouterr().out

    def test_lift_spec_roundtrip(self, tmp_path, capsys):
        spec = {
            "base": {"k": 2, "b": 2, "n": 2, "table": [0, 1, 1, 0]},
            "gamma": [0, 1, 0],
            "phi": [0, 1],
        }
        spec_path = write(tmp_path, "lift.json", json.dumps(spec))
        out = str(tmp_path / "lift.fn")
        assert main(["generate", "--lift", spec_path, "--out", out]) == 0
        assert main(["analyze", out]) == 0
        assert "ess=2 essl=0 gap=2" in capsys.readouterr().out

    def test_stdout_output(self, capsys):
        assert main(["generate", "--random", "2", "2", "2", "7"]) == 0
        f = parse_function_text(capsys.readouterr().out)
        assert (f.k, f.n) == (2, 2)

    def test_large_random_table_round_trips(self, tmp_path):
        # An 18-variable table is written in linear time and read back.
        out = str(tmp_path / "r18.fn")
        generate = [sys.executable, "-m", "aritygap", "generate", "--random", "2", "2", "18", "0",
                    "--out", out]
        result = subprocess.run(generate, capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        with open(out, encoding="utf-8") as fh:
            f = parse_function_text(fh.read())
        assert f == random_function(2, 2, 18, 0)
        result = subprocess.run([sys.executable, "-m", "aritygap", "analyze", out, "--json"],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert (payload["n"], payload["essential_vars"]) == (18, list(essential_vars(f)))

    def test_huge_random_table_exits_3(self, capsys):
        assert main(["generate", "--random", "3", "3", "10000", "0"]) == 3
        err = capsys.readouterr().err
        assert "3**10000" in err and "exceed budget" in err and len(err) < 200

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec_path = write(tmp_path, "bad.json", json.dumps({"k": 2}))
        assert main(["generate", "--quasilinear", spec_path]) == 2

    @pytest.mark.parametrize("flag,spec", [
        ("--quasilinear", {"k": "abc", "n": 2, "h_maps": [[0, 1]] * 2, "g_map": [0, 1]}),
        ("--lift", {"base": {"k": 2, "b": 2, "n": 2, "table": [0, 1, 1, "x"]}, "gamma": [0, 1, 0],
                    "phi": [0, 1]}),
        # Non-integral numbers and bools are refused, not truncated.
        ("--quasilinear", {"k": 2.9, "n": 2, "h_maps": [[0, 1]] * 2, "g_map": [0, 1]}),
        ("--quasilinear", {"k": 2, "n": 2, "h_maps": [[0, 1.7], [0, 1]], "g_map": [0, 1]}),
        ("--quasilinear", {"k": 2, "n": True, "h_maps": [[0, 1]], "g_map": [0, 1]}),
        ("--quasilinear", {"k": 2, "n": 2.0, "h_maps": [[0, 1]] * 2, "g_map": [0, 1]}),
        ("--lift", {"base": {"k": 2, "b": 2, "n": 2, "table": [0, 1, 1, 0]}, "gamma": [0, 1, 0.5],
                    "phi": [0, 1]}),
        ("--lift", {"base": {"k": 2, "b": 2, "n": 2, "table": [0, 1, 1, 0]}, "gamma": [0, 1, 0],
                    "phi": [False, True]}),
        ("--lift", {"base": {"k": 2.0, "b": 2, "n": 2, "table": [0, 1, 1, 0]}, "gamma": [0, 1, 0],
                    "phi": [0, 1]}),
    ])
    def test_non_integer_spec_value_exits_2(self, flag, spec, tmp_path, capsys):
        spec_path = write(tmp_path, "bad.json", json.dumps(spec))
        assert main(["generate", flag, spec_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spec needs" in err and "Traceback" not in err

    def test_generator_refusal_keeps_its_message(self, tmp_path, capsys):
        spec = {"k": 2, "n": 2, "h_maps": [[0, 1]], "g_map": [0, 1]}
        spec_path = write(tmp_path, "short.json", json.dumps(spec))
        assert main(["generate", "--quasilinear", spec_path]) == 2
        assert capsys.readouterr().err == "error: need 2 h maps, got 1\n"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        spec_path = write(tmp_path, "bad.json", "{not json")
        assert main(["generate", "--quasilinear", spec_path]) == 2

    @pytest.mark.parametrize("flag", ["--quasilinear", "--lift"])
    def test_non_utf8_spec_exits_2(self, flag, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        assert main(["generate", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_2(self, where, tmp_path, capsys):
        out = tmp_path / "missing" / "f.txt" if where == "missing directory" else tmp_path
        assert main(["generate", "--random", "2", "2", "2", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_cli_import_leaves_multiprocessing_out():
    # Only a sweep's worker pool needs it; a CLI call never forks.
    code = "import sys, aritygap.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_module_entry_point(tmp_path):
    path = tmp_path / "xor.fn"
    path.write_text("hex:6", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "gap=2" in result.stdout


def test_closed_stdout_exits_1_without_traceback():
    # The 0.8 MB report outgrows the pipe buffer, so the write meets the
    # closed pipe while the child is still printing.
    child = subprocess.Popen(
        [sys.executable, "-m", "aritygap", "sweep", "--theorem", "thm1", "--k", "8", "--n", "6",
         "--count", "1", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(child.stdout.read(10)) == 10
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b""


def _parity_hex(n):
    # Thue-Morse: row r of the parity table is popcount(r) mod 2.
    rows = "0"
    while len(rows) < 1 << n:
        rows += rows.translate(str.maketrans("01", "10"))
    return "hex:" + format(int(rows, 2), f"0{(1 << n) // 4}x")


def test_parity_18_analyze_in_bounded_memory(tmp_path):
    path = tmp_path / "parity18.fn"
    path.write_text(_parity_hex(18), encoding="utf-8")

    def limit_address_space():
        # Applies in the child only, between fork and exec.
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze", str(path), "--json"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert (payload["ess"], payload["essl"], payload["gap"]) == (18, 16, 2)


def test_thm1_k3_n15_in_bounded_memory():
    # No point of 15 coordinates over 3 elements has distinct coordinates,
    # so the diagonal family is the 3 constants, one lane each: the kernel
    # drops them as constant and builds no per-variable mask.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    result = subprocess.run(
        [sys.executable, "-m", "aritygap", "sweep", "--theorem", "thm1", "--k", "3", "--n", "15",
         "--json"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["population"] == "diagonal search k=3 n=15 space=3"
