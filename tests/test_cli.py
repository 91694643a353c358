import argparse
import collections
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from paridhi import cli
from paridhi.cli import (
    FORMATS,
    MAX_FRAC_DIGITS,
    MAX_RATIONAL_LEDGER_TERMS,
    MAX_SCAN_ROWS,
    MAX_SQRT_FRAC_DIGITS,
    MAX_TERMS_CAP,
    MODE_CHOICES,
    POLICY_CHOICES,
    execute,
)
from paridhi.numerals import KATAPAYADI_VALUES, default_lexicon

GOLDEN = Path(__file__).parent / "golden"
D17 = "100000000000000000"
D12 = "900000000000"

PHRASE = "bha drā mbu dhi si ddha ja nma ga ṇi ta śra dhā sma ya d bhū pa gīḥ".split()
WORDS = "vibudha netra gaja ahi hutāśana tri guna veda bha vārana bāhavāḥ".split()


def run(*argv):
    return execute(list(argv))


class TestExitCodes:
    def test_success(self):
        code, out, err = run("onset", "--formula", "f3", "--policy", "floor", "--diameter", D12)
        assert (code, out, err) == (0, "7663\n", "")

    def test_domain_error_is_1(self):
        code, out, err = run("varman", "--diameter", "0", "--policy", "floor")
        assert code == 1
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "argv,code,out,err",
        [
            (["onset", "--formula", "f3", "--policy", "floor", "--diameter", D12], 0, "7663\n", ""),
            (["varman", "--diameter", "0", "--policy", "floor"], 1, "",
             "error: diameter must be positive\n"),
            (["sqrt", "81", "--fast"], 2, "",
             f"error: unrecognized arguments: --fast\n{cli.build_parser().format_usage()}"),
        ],
    )
    def test_main_writes_the_outcome_and_returns_its_code(self, capsys, argv, code, out, err):
        assert cli.main(argv) == code
        assert capsys.readouterr() == (out, err)

    def test_main_reads_sys_argv_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["paridhi", "sqrt", "81"])
        assert cli.main() == 0
        assert capsys.readouterr() == ("root = 9\nremainder = 0\n", "")

    def test_a_closed_stdout_is_1_without_a_traceback(self):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        try:
            done = subprocess.run([sys.executable, "-m", "paridhi.cli", "reproduce", "--table",
                                   "table3"], stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_usage_error_is_2(self):
        code, _, err = run("frobnicate")
        assert code == 2
        assert "usage" in err

    def test_unknown_flag_is_2(self):
        code, _, err = run("sqrt", "81", "--fast")
        assert code == 2

    def test_scientific_notation_rejected(self):
        code, _, err = run("varman", "--diameter", "1e17", "--policy", "floor")
        assert code == 2
        assert "plain decimal" in err

    def test_exact_final_needs_terms(self):
        code, _, err = run("varman", "--diameter", D17, "--policy", "final-floor")
        assert code == 1
        assert "max_terms" in err

    def test_unknown_word_is_1(self):
        code, _, err = run("decode", "--system", "bhutasamkhya", "asdf")
        assert code == 1

    def test_help_is_0(self):
        code, out, _ = run("--help")
        assert code == 0
        assert "paridhi" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["circumference", "--formula", "f4", "--diameter", D12, "--policy", "floor",
             "--terms", "1_0"],
            ["varman", "--diameter", D17, "--terms", "+10"],
            ["scan", "--formula", "f4", "--diameter", D12, "--policy", "floor",
             "--from", " 5", "--to", "9"],
            ["fixed-point", "--formula", "f3", "--diameter", D12, "--policy", "floor",
             "--window", "\uff15\uff10"],
        ],
    )
    def test_count_flags_take_plain_integers(self, argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert "plain decimal integer required" in err

    @pytest.mark.parametrize("text", ["9" * 4400, "-" + "9" * 10**5, "x" * 10**5])
    def test_a_long_argument_is_not_echoed(self, text):
        if text[-1] == "9" and not sys.get_int_max_str_digits():
            pytest.skip("the interpreter has no int/str digit limit")
        code, out, err = run("encode", text)
        assert (code, out) == (2, "")
        assert len(err) < 300
        assert text[:20] in err

    def test_a_magnitude_past_the_cap_is_1(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("eka\t1\nmaha\tE1001\n", encoding="utf-8")
        code, out, err = run("decode", "--system", "bhutasamkhya", "--lexicon", str(path),
                             "eka", "maha")
        assert (code, out) == (1, "")
        assert err == "error: magnitude E1001 on lexicon line 2 is above E1000\n"

    def test_unreadable_lexicon_is_1(self, tmp_path):
        binary = tmp_path / "binary.tsv"
        binary.write_bytes(b"\xff\xfe\x00word\t5\n")
        for path in (tmp_path / "missing.tsv", tmp_path, binary):
            code, out, err = run("decode", "--system", "bhutasamkhya", "--lexicon", str(path),
                                 "netra")
            assert (code, out) == (1, "")
            assert err.startswith("error: cannot read lexicon")

    @pytest.mark.parametrize("text", ["eka\t1\nmaha\tE12\n", "# comment\neka\t1\nmaha\tE12\n"],
                             ids=["word-first", "comment-first"])
    def test_a_lexicon_may_start_with_a_byte_order_mark(self, tmp_path, text):
        path = tmp_path / "bom.tsv"
        path.write_text(text, encoding="utf-8-sig")
        assert run("decode", "--system", "bhutasamkhya", "--lexicon", str(path),
                   "eka", "maha") == (0, "1000000000000\n", "")

    def test_an_empty_lexicon_path_is_read_not_ignored(self):
        code, out, err = run("decode", "--system", "bhutasamkhya", "--lexicon", "", "netra")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read lexicon ''")

    def test_other_value_errors_propagate(self, monkeypatch):
        def broken(n):
            raise ValueError("not the int/str limit")

        monkeypatch.setattr(cli, "encode_katapayadi", broken)
        with pytest.raises(ValueError, match="^not the int/str limit$"):
            run("encode", "12")

    def test_undecided_final_floor_states_ulps_and_rational_decides(self):
        argv = ["circumference", "--formula", "f2", "--correction", "c3", "--diameter", "7",
                "--terms", "2", "--policy", "final-floor"]
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert "error bound ≤ 2 ulp at 40 fractional digits" in err
        assert run(*argv, "--backend", "rational") == (0, "22\n", "")

    def test_undecidable_rounding_states_ulps(self):
        code, out, err = run("varman", "--diameter", D17, "--policy", "final-nearest",
                             "--terms", "38", "--frac-digits", "0")
        assert (code, out) == (1, "")
        assert err.startswith("error: error bound ≤ 21 ulp at 0 fractional digits")
        assert "/" not in err


class TestVarman:
    def test_floor_value(self):
        code, out, _ = run("varman", "--diameter", D17, "--policy", "floor")
        assert code == 0
        assert "314159265358979324" in out
        assert "O = 354623317218212158" in out
        assert "E = 40464051859232834" in out

    def test_nearest_value(self):
        _, out, _ = run("varman", "--diameter", D17, "--policy", "nearest")
        assert "C = 314159265358979325" in out

    def test_final_policies(self):
        _, out, _ = run("varman", "--diameter", D17, "--policy", "final-floor", "--terms", "38")
        assert "C = 314159265358979323" in out
        _, out, _ = run("varman", "--diameter", D17, "--policy", "final-nearest", "--terms", "38")
        assert "C = 314159265358979324" in out

    def test_ledger_rows(self):
        _, out, _ = run("varman", "--diameter", D17, "--policy", "floor", "--ledger")
        assert "1 | 346410161513775458 | (÷1) | + | 346410161513775458" in out
        assert out.count("\n") >= 40

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**18),
        st.sampled_from(POLICY_CHOICES),
        st.sampled_from(["scaled", "rational"]),
        st.sampled_from([0, 1, 2, 3, 6, 40]),
        st.integers(min_value=1, max_value=80),
    )
    @example(10**17, "floor", "scaled", 40, 80)  # the ledger ends at row 38
    @example(10**17, "final-nearest", "scaled", 0, 38)  # "error bound ≤ 21 ulp" from both
    @example(10**17, "final-nearest", "scaled", 2, 38)  # 314159265358979324 from both
    def test_c_is_f1s_circumference_of_its_rows(self, diameter, policy, backend, digits, terms):
        # the same value, or the same error message where F1's bound leaves C undecided
        flags = ["--diameter", str(diameter), "--policy", policy, "--backend", backend,
                 "--frac-digits", str(digits)]
        code, out, err = run("varman", *flags, "--terms", str(terms))
        f1 = run("circumference", "--formula", "f1", *flags, "--terms", str(terms))
        if code:
            assert (code, out, err) == f1
            return
        summary = dict(line.split(" = ") for line in out.splitlines())
        if summary["terms"] != str(terms):  # an integer ledger ended at its first x = 0
            f1 = run("circumference", "--formula", "f1", *flags, "--terms", summary["terms"])
        assert f1 == (0, summary["C"] + "\n", "")


# Headers and rows for the JSON writer: header names are distinct, as every record's keys are.
JSON_VALUES = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400), st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028\u2029", "ṇ\"\\\n", "é" * 3]))
JSON_TABLES = st.integers(min_value=1, max_value=5).flatmap(lambda width: st.tuples(
    st.lists(st.text(min_size=1), min_size=width, max_size=width, unique=True),
    st.lists(st.lists(JSON_VALUES, min_size=width, max_size=width), max_size=4)))


class TestRender:
    def test_ledger_first_row_layout(self):
        code, text, _ = run("reproduce", "--table", "varman-ledger")
        lines = text.splitlines()
        assert code == 0
        assert lines[1] == "1 | 346410161513775458 | (÷1) | + | 346410161513775458"
        assert len(lines) == 39  # header + 38 rows

    def test_empty_csv_has_header_only(self):
        text = cli._write("csv", ["n", "circumference"], [], cli._result_table)
        assert text == "n,circumference\n"

    def test_csv_header_is_the_record_order(self):
        code, out, _ = run("circumference", "--formula", "f2", "--diameter", D12, "--terms", "40",
                           "--policy", "final-nearest", "--format", "csv")
        assert (code, out) == (0, "formula,correction,diameter,n,policy,circumference\n"
                                  "f2,c3,900000000000,40,final-nearest,2827433388234\n")

    def test_csv_json_value_identity(self):
        argv = ["scan", "--formula", "f3", "--diameter", D12, "--from", "5", "--to", "9",
                "--policy", "floor", "--format"]
        _, csv_text, _ = run(*argv, "csv")
        _, json_text, _ = run(*argv, "json")
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        json_rows = json.loads(json_text)
        assert len(csv_rows) == len(json_rows) == 5
        for c_row, j_row in zip(csv_rows, json_rows):
            for key in ("formula", "correction", "diameter", "n", "policy", "circumference"):
                assert c_row[key] == str(j_row[key]) or c_row[key] == str(j_row[key] or "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["varman", "--diameter", D17, "--ledger"],
            ["varman", "--diameter", D17, "--ledger", "--policy", "final-nearest",
             "--terms", "12"],
            ["varman", "--diameter", D17, "--ledger", "--policy", "final-nearest",
             "--backend", "rational", "--terms", "12"],
            ["sqrt", "1522756", "--trace"],
            ["fixed-point", "--formula", "f3", "--diameter", D12, "--policy", "floor"],
            ["circumference", "--formula", "f2", "--diameter", D12, "--terms", "40",
             "--policy", "final-nearest"],
            ["scan", "--formula", "f4", "--diameter", D12, "--from", "5", "--to", "9",
             "--policy", "nearest"],
        ],
    )
    def test_csv_rows_equal_json_records(self, argv):
        _, csv_text, _ = run(*argv, "--format", "csv")
        _, json_text, _ = run(*argv, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
        json_rows = [{k: str(v) for k, v in rec.items()} for rec in json.loads(json_text)]
        assert csv_rows and csv_rows == json_rows

    def test_empty_results_in_every_format(self):
        def write(fmt):
            return cli._write(fmt, ["n", "circumference"], [], cli._result_table)

        assert write("table") == ""
        assert write("csv") == "n,circumference\n"
        assert write("json") == "[]\n"

    @given(JSON_TABLES)
    @example((["n", "circumference"], []))
    @example((["गणित", "k\"\\"], [["\u2028", -(10**300)], ["\t\x01", 0]]))
    def test_json_writer_is_json_dumps(self, table):
        headers, rows = table
        records = [dict(zip(headers, row)) for row in rows]
        expected = json.dumps(records, ensure_ascii=False, indent=2) + "\n"
        assert cli._write("json", headers, rows, None) == expected

    @pytest.mark.parametrize("value", [None, 1.5, Fraction(1, 2), [1], {}])
    def test_json_writer_refuses_what_is_not_int_or_str(self, value):
        with pytest.raises(TypeError):
            cli._write("json", ["x"], [[value]], None)

    def test_report_render(self):
        argv = ["fixed-point", "--formula", "f3", "--diameter", D12, "--policy", "floor",
                "--max-terms", "10000", "--format"]
        code, table, _ = run(*argv, "table")
        assert code == 0
        assert "fixed_value = 2827433388211" in table
        assert "onset = 7663" in table
        record = json.loads(run(*argv, "json")[1])[0]
        assert record["fixed_value"] == 2827433388211
        assert record["method"] == "analytic-vanish"


class TestScan:
    def test_single_policy_table(self):
        code, out, _ = run("scan", "--formula", "f4", "--diameter", D12,
                           "--from", "246", "--to", "248", "--policy", "nearest")
        assert (code, out) == (0, "  n | circumference\n246 | 2827433388233\n"
                                  "247 | 2827433388233\n248 | 2827433388233\n")

    def test_policy_all_csv(self):
        code, out, _ = run("scan", "--formula", "f2", "--correction", "c3",
                           "--diameter", D12, "--from", "38", "--to", "38",
                           "--policy", "all", "--final-mode", "floor", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0] == {
            "n": "38",
            "floor": "2827433388235",
            "nearest": "2827433388233",
            "final_floor": "2827433388235",
        }

    def test_policy_all_json_matches_csv(self):
        args = ["scan", "--formula", "f1", "--diameter", D12,
                "--from", "20", "--to", "22", "--policy", "all", "--final-mode", "floor"]
        _, csv_out, _ = run(*args, "--format", "csv")
        _, json_out, _ = run(*args, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_rows = json.loads(json_out)
        for c_row, j_row in zip(csv_rows, json_rows):
            assert {k: str(v) for k, v in j_row.items()} == c_row


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["varman", "--diameter", D17, "--policy", "floor", "--ledger"],
            ["reproduce", "--table", "table3"],
            ["scan", "--formula", "f4", "--diameter", D12, "--from", "210",
             "--to", "250", "--policy", "all", "--format", "json"],
            ["sqrt", "987654321", "--trace"],
        ],
    )
    def test_identical_runs(self, argv):
        assert execute(argv) == execute(argv)


class TestNumeralCommands:
    def test_decode_katapayadi(self):
        code, out, _ = run("decode", "--system", "katapayadi", *PHRASE)
        assert (code, out) == (0, "314159265358979324\n")

    def test_decode_bhutasamkhya(self):
        code, out, _ = run("decode", "--system", "bhutasamkhya", *WORDS)
        assert (code, out) == (0, "2827433388233\n")

    def test_decode_magnitude(self):
        code, out, _ = run("decode", "--system", "bhutasamkhya", "nava", "nikharva")
        assert (code, out) == (0, "900000000000\n")

    def test_encode_round_trip(self):
        _, out, _ = run("encode", "--system", "katapayadi", "314159265358979324")
        tokens = out.split()
        assert len(tokens) == 18
        code, decoded, _ = run("decode", "--system", "katapayadi", *tokens)
        assert decoded == "314159265358979324\n"


class TestDecodePastTheStrLimit:
    """Decoded values longer than the interpreter's 4300-digit int/str limit still print."""

    @staticmethod
    def expected(groups_units_first):
        return "".join(reversed(groups_units_first)).lstrip("0") or "0"

    @pytest.mark.parametrize("length", [4400, 10_000])
    def test_katapayadi(self, length):
        rng = random.Random(length)
        spellings = [[c + v for c in KATAPAYADI_VALUES if KATAPAYADI_VALUES[c] == d
                      for v in ("a", "ā", "i", "o")] for d in range(10)]
        spellings[0].append("a")  # a standalone vowel counts 0
        digits = [rng.randrange(10) for _ in range(length)]
        tokens = [rng.choice(spellings[d]) for d in digits]
        code, out, err = run("decode", "--system", "katapayadi", *tokens)
        assert (code, out, err) == (0, self.expected([str(d) for d in digits]) + "\n", "")

    @pytest.mark.parametrize("length", [4400, 10_000])
    def test_bhutasamkhya(self, length):
        rng = random.Random(length)
        lexicon = sorted(default_lexicon().digit_words.items())
        words, groups = [], []
        while (left := length - sum(map(len, groups))) > 0:
            word, group = rng.choice([(w, g) for w, g in lexicon if len(g) <= left])
            words.append(word)
            groups.append(group)
        code, out, err = run("decode", "--system", "bhutasamkhya", *words)
        assert (code, out, err) == (0, self.expected(groups) + "\n", "")


class TestPastTheStrLimit:
    """A value that reaches str() past the interpreter's int/str limit is a domain error."""

    @pytest.mark.parametrize("argv", [
        ["varman", "--diameter", "9" * 2200, "--policy", "floor"],  # 12 D^2 in the digit pairs
        ["circumference", "--formula", "f1", "--diameter", "9" * 2200, "--terms", "3",
         "--policy", "floor"],
        ["circumference", "--formula", "f3", "--diameter", "9" * 4300, "--terms", "3",
         "--policy", "floor"],  # printing 3D
        ["scan", "--formula", "f3", "--diameter", "9" * 4300, "--from", "1", "--to", "2",
         "--policy", "floor", "--format", "json"],
    ])
    def test_is_1_without_a_traceback(self, argv):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(*argv)
        assert (code, out, err) == (1, "", "error: a number here has more digits than the "
                                           f"interpreter's int/str limit of {limit}\n")


class TestSqrtCommand:
    def test_plain(self):
        _, out, _ = run("sqrt", "987654321")
        assert out == "root = 31426\nremainder = 60845\n"

    def test_nearest(self):
        _, out, _ = run("sqrt", "120000000000000000000000000000000000", "--round", "nearest")
        assert out == "root = 346410161513775459\n"

    def test_scaled(self):
        _, out, _ = run("sqrt", "2", "--frac-digits", "5")
        assert out == "root = 1.41421\n"

    def test_trace_worksheet(self):
        code, out, err = run("sqrt", "987654321", "--trace")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "sqrt_trace.txt").read_text(encoding="utf-8")

    def test_negative_is_domain_error(self):
        code, _, err = run("sqrt", "-4")
        assert code == 1

    def test_frac_digits_up_to_the_str_limit(self, monkeypatch):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int/str digit limit")
        frac = (limit - 1) // 2
        n = 2 * 10 ** (limit - 2 * frac - 1)  # n * 10^(2 * frac) has exactly `limit` digits
        root = math.isqrt(n * 10 ** (2 * frac))
        code, out, err = run("sqrt", str(n), "--frac-digits", str(frac))
        assert (code, out, err) == (0, f"root = {root // 10**frac}.{root % 10**frac:0{frac}d}\n", "")
        monkeypatch.setattr(cli, "sqrt_scaled", None)  # one digit more is refused before any work
        code, out, err = run("sqrt", str(10 * n), "--frac-digits", str(frac))
        assert (code, out) == (1, "")
        assert err == (f"error: n * 10^(2 * frac_digits) has {limit + 1} digits, more than the "
                       f"interpreter's int/str limit of {limit}\n")

    def test_frac_digits_cap_where_the_str_limit_does_not_reach(self, monkeypatch):
        # n = 0 skips the int/str-limit refusal, so the cap alone bounds the work
        assert MAX_SQRT_FRAC_DIGITS == 10**4
        assert run("sqrt", "0", "--frac-digits", "10001") == (
            1, "", "error: --frac-digits is at most 10000\n")
        assert run("sqrt", "0", "--frac-digits", "10000") == (0, f"root = 0.{'0' * 10**4}\n", "")
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # no limit at all
        monkeypatch.setattr(cli, "sqrt_scaled", None)  # refused before any work
        assert run("sqrt", "2", "--frac-digits", "10001") == (
            1, "", "error: --frac-digits is at most 10000\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trace", "--round", "nearest"],
            ["--trace", "--frac-digits", "3"],
            ["--round", "nearest", "--frac-digits", "3"],
            ["--format", "csv"],
            ["--format", "json"],
            ["--round", "nearest", "--format", "json"],
        ],
    )
    def test_ignored_flags_are_usage_errors(self, flags):
        code, out, err = run("sqrt", "10", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: --")


class TestIgnoredFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "--system", "katapayadi", "--lexicon", "/nonexistent.tsv", "ka"],
            ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--to", "2",
             "--policy", "floor", "--final-mode", "floor"],
            ["circumference", "--formula", "f3", "--correction", "c1", "--diameter", D12,
             "--terms", "3", "--policy", "floor"],
            ["fixed-point", "--formula", "f4", "--correction", "c3", "--diameter", D12,
             "--policy", "floor"],
        ],
    )
    def test_flags_that_change_nothing_are_usage_errors(self, argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --")

    def test_defaults_still_apply_where_the_flags_matter(self):
        scan = ["scan", "--formula", "f2", "--diameter", D12, "--from", "38", "--to", "38",
                "--policy", "all", "--format", "csv"]
        assert run(*scan) == run(*scan, "--correction", "c3", "--final-mode", "nearest")


class TestPolicyCodes:
    @pytest.mark.parametrize("backend", ["scaled", "rational"])
    @pytest.mark.parametrize("code", POLICY_CHOICES)
    def test_record_names_the_requested_policy(self, code, backend):
        status, out, _ = run("circumference", "--formula", "f4", "--diameter", D12,
                             "--terms", "5", "--policy", code, "--backend", backend,
                             "--format", "json")
        assert status == 0
        assert json.loads(out)[0]["policy"] == code


class TestFormulaCodes:
    @pytest.mark.parametrize("command", [["circumference", "--terms", "5"], ["fixed-point"]])
    @pytest.mark.parametrize(
        "formula,correction",
        [("f1", ""), ("f2", "c1"), ("f2", "c2"), ("f2", "c3"), ("f3", ""), ("f4", "")],
    )
    def test_record_names_the_requested_formula(self, command, formula, correction):
        flags = ["--correction", correction] if correction else []
        status, out, err = run(command[0], "--formula", formula, *flags, "--diameter", "1000",
                               "--policy", "final-nearest", "--format", "json", *command[1:])
        assert status == 0, err
        [record] = json.loads(out)
        assert (record["formula"], record["correction"]) == (formula, correction)


class TestNegativeFracDigits:
    @pytest.mark.parametrize("policy", ["floor", "final-nearest"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["varman", "--diameter", "100", "--terms", "5"],
            ["circumference", "--formula", "f2", "--diameter", D12, "--terms", "3"],
            ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--to", "3"],
            ["fixed-point", "--formula", "f3", "--diameter", D12],
        ],
    )
    def test_is_a_domain_error(self, argv, policy):
        code, out, err = run(*argv, "--policy", policy, "--frac-digits", "-3")
        assert (code, out, err) == (1, "", "error: frac_digits must be non-negative\n")

    @pytest.mark.parametrize("policy", ["floor", "final-nearest"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["varman", "--diameter", "100", "--terms", "5"],
            ["circumference", "--formula", "f4", "--diameter", D12, "--terms", "5"],
            ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--to", "3"],
            ["fixed-point", "--formula", "f3", "--diameter", D12],
        ],
    )
    def test_is_a_domain_error_on_the_rational_backend(self, argv, policy):
        code, out, err = run(*argv, "--policy", policy, "--backend", "rational", "--frac-digits", "-3")
        assert (code, out, err) == (1, "", "error: frac_digits must be non-negative\n")


class TestCompare:
    def test_madhava_value(self):
        _, out, _ = run("compare", "--circumference", "2827433388233", "--diameter", D12)
        assert "matching_decimal_places = 10" in out
        assert "error_vs_nearest = +2" in out
        assert "error_vs_floor = +3" in out

    @pytest.mark.parametrize(
        "circumference,diameter,out",
        [
            ("314159265358979324", D17,
             "matching_decimal_places = 17\ntrue_floor = 314159265358979323\n"
             "true_nearest = 314159265358979324\nerror_vs_floor = +1\nerror_vs_nearest = +0\n"),
            ("2827433388233", D12,
             "matching_decimal_places = 10\ntrue_floor = 2827433388230\n"
             "true_nearest = 2827433388231\nerror_vs_floor = +3\nerror_vs_nearest = +2\n"),
        ],
    )
    def test_full_output(self, circumference, diameter, out):
        assert run("compare", "--circumference", circumference, "--diameter", diameter) == (0, out, "")


class TestFixedPointCommand:
    def test_f4_final_nearest(self):
        code, out, _ = run("fixed-point", "--formula", "f4", "--diameter", D12,
                           "--policy", "final-nearest", "--max-terms", "1000")
        assert code == 0
        assert "fixed_value = 2827433388231" in out
        assert "onset = 235" in out

    @pytest.mark.parametrize("policy,value,onset", [("floor", 314159265358979298, 368403),
                                                    ("nearest", 314159265358979357, 464159)])
    def test_f3_fixed_points_of_a_parardha(self, policy, value, onset):
        # pinned from the sum of every term up to the onset; the first row now counts levels
        code, out, err = run("fixed-point", "--formula", "f3", "--diameter", D17,
                             "--max-terms", "1000000", "--policy", policy)
        assert (code, err) == (0, "")
        assert out == (f"formula = f3\ncorrection = \ndiameter = {D17}\npolicy = {policy}\n"
                       f"fixed_value = {value}\nonset = {onset}\nmethod = analytic-vanish\n"
                       f"max_terms_examined = {onset}\n")

    def test_f2_no_convergence(self):
        code, _, err = run("fixed-point", "--formula", "f2", "--diameter", D12,
                           "--policy", "nearest", "--max-terms", "2000")
        assert code == 1
        assert "no convergence" in err

    def test_an_onset_past_sys_maxsize_is_named(self):
        code, out, err = run("fixed-point", "--formula", "f2", "--policy", "nearest",
                             "--diameter", "10000000000000000000")
        assert (code, out) == (1, "")
        assert "from n = 40000000000000000001" in err

    @pytest.mark.parametrize(
        "formula,diameter,policy",
        [
            ("f2", "-9", "final-nearest"),
            ("f3", "-9", "final-nearest"),
            ("f2", "0", "nearest"),
            ("f4", "0", "final-floor"),
            ("f1", "-9", "final-floor"),
            ("f1", "0", "floor"),
            ("f3", "0", "nearest"),
        ],
    )
    def test_nonpositive_diameter_is_1(self, formula, diameter, policy):
        code, out, err = run("fixed-point", "--formula", formula, "--diameter", diameter,
                             "--policy", policy)
        assert (code, out, err) == (1, "", "error: diameter must be positive\n")


class TestCaps:
    """scan, fixed-point, circumference and varman refuse unbounded work up front, as a domain
    error."""

    @pytest.mark.parametrize("policy", ["floor", "final-nearest", "all"])
    @pytest.mark.parametrize("n_from,n_to", [("1", "100000000000"), ("5", "100005")])
    def test_scan_refuses_more_rows_than_the_cap(self, policy, n_from, n_to):
        start = time.perf_counter()
        code, out, err = run("scan", "--formula", "f4", "--diameter", D12, "--policy", policy,
                             "--from", n_from, "--to", n_to)
        assert (code, out, err) == (1, "", f"error: scan covers at most {MAX_SCAN_ROWS} rows\n")
        assert time.perf_counter() - start < 0.2

    def test_scan_refuses_a_to_past_the_terms_cap(self):
        # one row, but its head would sum 10**12 terms
        start = time.perf_counter()
        code, out, err = run("scan", "--formula", "f2", "--diameter", D12, "--policy", "floor",
                             "--from", "1000000000000", "--to", "1000000000000")
        assert (code, out, err) == (1, "", f"error: --to is at most {MAX_TERMS_CAP}\n")
        assert time.perf_counter() - start < 0.2

    def test_fixed_point_refuses_an_onset_past_max_terms(self):
        start = time.perf_counter()
        code, out, err = run("fixed-point", "--formula", "f3", "--diameter", "1" + "0" * 40,
                             "--policy", "floor")
        assert (code, out, err) == (1, "", "error: no convergence detected within 10000 terms; "
                                           "every term rounds to zero only from n = 17099759466767\n")
        assert time.perf_counter() - start < 0.2

    def test_fixed_point_refuses_a_window_not_below_max_terms(self):
        start = time.perf_counter()
        code, out, err = run("fixed-point", "--formula", "f4", "--diameter", D12,
                             "--policy", "final-nearest", "--window", "20000",
                             "--max-terms", "10000")
        assert (code, out, err) == (1, "", "error: no convergence detectable within 10000 "
                                           "terms: a window of 20000 needs at least 20001\n")
        assert time.perf_counter() - start < 0.2

    @pytest.mark.parametrize(
        "formula,diameter,what,onset",
        [
            ("f3", "1" + "0" * 60, "term", "79370052598409973738"),
            ("f2", "1" + "0" * 19, "term and correction", "20000000000000000001"),
        ],
    )
    def test_fixed_point_refuses_an_onset_past_sys_maxsize(self, formula, diameter, what, onset):
        # the onset is an exact count on plain ints, not a search over a C-sized range
        code, out, err = run("fixed-point", "--formula", formula, "--diameter", diameter,
                             "--policy", "floor")
        assert (code, out, err) == (1, "", "error: no convergence detected within 10000 terms; "
                                           f"every {what} rounds to zero only from n = {onset}\n")

    def test_max_terms_above_the_cap_is_refused(self):
        start = time.perf_counter()
        code, out, err = run("fixed-point", "--formula", "f2", "--diameter", D12,
                             "--policy", "nearest", "--max-terms", str(MAX_TERMS_CAP + 1))
        assert (code, out, err) == (1, "", f"error: --max-terms is at most {MAX_TERMS_CAP}\n")
        assert time.perf_counter() - start < 0.2

    def test_max_terms_at_the_cap_is_accepted(self):
        code, out, _ = run("fixed-point", "--formula", "f3", "--diameter", D12,
                           "--policy", "floor", "--max-terms", str(MAX_TERMS_CAP))
        assert code == 0
        assert "fixed_value = 2827433388211" in out

    @pytest.mark.parametrize("argv", [
        ["circumference", "--formula", "f2", "--policy", "floor"],
        ["circumference", "--formula", "f4", "--policy", "final-nearest", "--backend", "rational"],
        ["varman", "--policy", "floor"],
        ["varman", "--policy", "final-nearest"],
    ])
    def test_terms_above_the_cap_is_refused(self, argv):
        start = time.perf_counter()
        code, out, err = run(*argv, "--diameter", D12, "--terms", str(MAX_TERMS_CAP + 1))
        assert (code, out, err) == (1, "", f"error: --terms is at most {MAX_TERMS_CAP}\n")
        assert time.perf_counter() - start < 0.2

    @pytest.mark.parametrize("argv", [
        ["varman", "--diameter", "100", "--terms", "5"],
        ["circumference", "--formula", "f1", "--diameter", D12, "--terms", "5"],
        ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--to", "3"],
        ["fixed-point", "--formula", "f4", "--diameter", D12],
    ])
    @pytest.mark.parametrize("backend", ["scaled", "rational"])
    def test_frac_digits_above_the_cap_is_refused(self, argv, backend):
        start = time.perf_counter()
        for policy in ("floor", "final-nearest"):
            code, out, err = run(*argv, "--policy", policy, "--backend", backend,
                                 "--frac-digits", str(MAX_FRAC_DIGITS + 1))
            assert (code, out, err) == (1, "", f"error: --frac-digits is at most {MAX_FRAC_DIGITS}\n")
        assert time.perf_counter() - start < 0.2
        code, out, err = run(*argv, "--policy", "final-nearest", "--backend", backend,
                             "--frac-digits", str(MAX_FRAC_DIGITS))
        assert (code, err) == (0, "")

    def test_rational_varman_terms_above_its_cap_is_refused(self):
        # its rows and sums are exact Fractions, so its time grows quadratically in the rows
        start = time.perf_counter()
        for policy in ("final-floor", "final-nearest"):
            code, out, err = run("varman", "--diameter", D17, "--policy", policy, "--backend",
                                 "rational", "--terms", str(MAX_RATIONAL_LEDGER_TERMS + 1))
            assert (code, out) == (1, "")
            assert err == ("error: --terms under a final policy on the rational backend is at "
                           f"most {MAX_RATIONAL_LEDGER_TERMS}\n")
        assert time.perf_counter() - start < 0.2

    def test_rational_varman_terms_at_its_cap_is_accepted(self):
        code, out, _ = run("varman", "--diameter", D17, "--policy", "final-nearest", "--backend",
                           "rational", "--terms", str(MAX_RATIONAL_LEDGER_TERMS))
        assert code == 0
        assert out.startswith(f"terms = {MAX_RATIONAL_LEDGER_TERMS}\n")

    @pytest.mark.parametrize("policy,backend,terms", [("floor", "rational", 38),
                                                      ("nearest", "rational", 39),
                                                      ("final-nearest", "scaled", 4001)])
    def test_the_rational_varman_cap_spares_other_policies_and_backends(self, policy, backend,
                                                                         terms):
        code, out, _ = run("varman", "--diameter", D17, "--policy", policy, "--backend", backend,
                           "--terms", str(MAX_RATIONAL_LEDGER_TERMS + 1))
        assert code == 0
        assert out.startswith(f"terms = {terms}\n")

    def test_f1_at_the_terms_cap_is_quick(self):
        start = time.perf_counter()
        code, out, _ = run("circumference", "--formula", "f1", "--diameter", D12,
                           "--terms", str(MAX_TERMS_CAP), "--policy", "final-nearest")
        assert (code, out) == (0, "2827433388231\n")
        assert time.perf_counter() - start < 0.5

    def test_terms_at_the_cap_is_accepted(self):
        code, out, _ = run("circumference", "--formula", "f2", "--correction", "c3",
                           "--diameter", D12, "--terms", str(MAX_TERMS_CAP), "--policy", "floor")
        assert (code, out) == (0, "2827433387851\n")
        code, out, _ = run("varman", "--diameter", D12, "--terms", str(MAX_TERMS_CAP))
        assert (code, out) == run("varman", "--diameter", D12)[:2]


class TestReproduceGolden:
    @pytest.mark.parametrize(
        "line,filename",
        [
            ("reproduce --table varman-ledger", "varman_ledger.txt"),
            ("reproduce --table table2", "table2.txt"),
            ("reproduce --table table3", "table3.txt"),
            ("reproduce --table table-f4", "table_f4.txt"),
            ("reproduce --table f3-fixed-points", "f3_fixed_points.txt"),
            ("scan --formula f1 --diameter 900000000000 --from 18 --to 27 --policy all "
             "--final-mode floor", "table2.txt"),
            ("scan --formula f2 --correction c3 --diameter 900000000000 --from 35 --to 65 "
             "--policy all --final-mode floor", "table3.txt"),
            ("scan --formula f4 --diameter 900000000000 --from 210 --to 250 --policy all "
             "--final-mode nearest", "table_f4.txt"),
        ],
    )
    def test_byte_equal(self, line, filename):
        code, out, err = execute(line.split())
        assert code == 0, err
        assert out == (GOLDEN / filename).read_text(encoding="utf-8")


class TestSharedParser:
    """execute reuses one parser per process; no command leaves state behind in it."""

    SEQUENCE = [
        ["sqrt", "81"],
        ["sqrt", "2", "--frac-digits", "5"],
        ["varman", "--diameter", "100000", "--policy", "floor", "--ledger", "--format", "csv"],
        ["circumference", "--formula", "f2", "--diameter", D12, "--terms", "5",
         "--policy", "final-floor", "--backend", "rational", "--format", "json"],
        ["scan", "--formula", "f4", "--diameter", D12, "--from", "210", "--to", "214",
         "--policy", "all", "--final-mode", "floor"],
        ["scan", "--formula", "f4", "--diameter", D12, "--from", "210", "--to", "214",
         "--policy", "all"],
        ["scan", "--formula", "f2", "--correction", "c1", "--diameter", D12, "--from", "35",
         "--to", "37", "--policy", "nearest"],
        ["fixed-point", "--formula", "f4", "--diameter", D12, "--policy", "floor"],
        ["onset", "--formula", "f3", "--policy", "nearest", "--diameter", D12],
        ["decode", "--system", "katapayadi", *PHRASE],
        ["decode", "--system", "bhutasamkhya", *WORDS],
        ["encode", "314159"],
        ["compare", "--circumference", "2827433388233", "--diameter", D12],
        ["reproduce", "--table", "table2"],
        ["--help"],
        ["scan", "--help"],
        ["frobnicate"],
        ["sqrt", "81", "--fast"],
        ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--policy", "floor"],
        ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--to", "2",
         "--policy", "floor", "--final-mode", "floor"],
        ["sqrt", "81", "--trace", "--round", "nearest"],
        ["varman", "--diameter", "0"],
        ["fixed-point", "--formula", "f2", "--diameter", D12, "--policy", "nearest",
         "--max-terms", "2000"],
        ["decode", "--system", "bhutasamkhya", "asdf"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_execute_builds_no_parser_after_the_first(self, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        run("sqrt", "81")
        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for _ in range(10):
            assert run("sqrt", "81")[0] == 0
        assert built == []
        cli.build_parser.__wrapped__()  # the counter does see a fresh build
        assert len(built) > 1

    def test_outputs_do_not_depend_on_command_order(self, monkeypatch):
        forward = [execute(argv) for argv in self.SEQUENCE]
        backward = [execute(argv) for argv in reversed(self.SEQUENCE)][::-1]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [execute(argv) for argv in self.SEQUENCE]
        assert forward == backward == fresh
        assert {code for code, _, _ in fresh} == {0, 1, 2}


class TestArgumentGrid:
    """A fixed grid of command lines over every subcommand: each gets exit code 0, 1 or 2,
    never an exception, and each refusal says `error:` on stderr."""

    DIAMETERS = ["0", "-3", "1", "7", "1000", D12, D17]
    FRAC_DIGITS = ["-1", "0", "1", "40", "1001"]
    BACKENDS = [["--backend", backend, "--frac-digits", digits]
                for backend, digits in itertools.product(("scaled", "rational"), FRAC_DIGITS)]
    FORMULAS = [["--formula", "f1"], ["--formula", "f2"], ["--formula", "f3"], ["--formula", "f4"],
                ["--formula", "f2", "--correction", "c1"]]
    MALFORMED = [
        [],
        ["frobnicate"],
        ["sqrt", "81", "--fast"],
        ["sqrt", "1e3"],
        ["varman", "--diameter", "1e17"],
        ["varman", "--diameter", D17, "--policy", "ceiling"],
        ["circumference", "--formula", "f5", "--diameter", D12, "--terms", "5",
         "--policy", "floor"],
        ["circumference", "--formula", "f1", "--correction", "c2", "--diameter", D12,
         "--terms", "5", "--policy", "floor"],
        ["scan", "--formula", "f4", "--diameter", D12, "--from", "1", "--policy", "floor"],
        ["fixed-point", "--formula", "f3", "--diameter", D12, "--policy", "floor", "--window", "x"],
        ["onset", "--formula", "f1", "--diameter", D12, "--policy", "floor"],
        ["decode", "--system", "katapayadi"],
        ["decode", "--system", "katapayadi", "--lexicon", "lex.tsv", "ka"],
        ["encode", "--system", "bhutasamkhya", "12"],
        ["compare", "--circumference", "3"],
        ["reproduce", "--table", "table9"],
    ]

    @classmethod
    def grid(cls):
        for d, policy, backend in itertools.product(cls.DIAMETERS, POLICY_CHOICES, cls.BACKENDS):
            for terms in ([], ["--terms", "0"], ["--terms", "1"], ["--terms", "5"]):
                yield ["varman", "--diameter", d, "--policy", policy, *terms, *backend]
            for formula in cls.FORMULAS:
                series = [*formula, "--diameter", d, "--policy", policy, *backend]
                for terms in ("0", "1", "5"):
                    yield ["circumference", *series, "--terms", terms]
                yield ["fixed-point", *series, "--window", "2", "--max-terms", "6"]
        for formula, d, policy, (n_from, n_to), fmt in itertools.product(
                cls.FORMULAS, cls.DIAMETERS, POLICY_CHOICES + ["all"],
                [("1", "3"), ("0", "2"), ("3", "1")], FORMATS):
            yield ["scan", *formula, "--diameter", d, "--policy", policy,
                   "--from", n_from, "--to", n_to, "--format", fmt]
        for formula, d, mode in itertools.product(("f3", "f4"), cls.DIAMETERS, MODE_CHOICES):
            yield ["onset", "--formula", formula, "--diameter", d, "--policy", mode]
        for n, digits in itertools.product(cls.DIAMETERS, [None, *cls.FRAC_DIGITS]):
            frac = [] if digits is None else ["--frac-digits", digits]
            for extra in ([], ["--trace"], ["--round", "nearest"], ["--format", "json"]):
                yield ["sqrt", n, *frac, *extra]
        for d in cls.DIAMETERS:
            yield ["encode", d]
            yield ["compare", "--circumference", "2827433388233", "--diameter", d]
        for tokens in (PHRASE, WORDS, ["kha"], ["asdf"], ["nava", "nikharva"], ["nikharva"]):
            yield ["decode", "--system", "katapayadi", *tokens]
            yield ["decode", "--system", "bhutasamkhya", *tokens]
        for table in sorted(cli._REPRODUCERS):
            yield ["reproduce", "--table", table]

    def test_every_command_exits_0_1_or_2_with_an_error_line(self):
        """The grid and MALFORMED also hash to tests/golden/grid_digests.txt: one sha256 per
        first argv token over repr((argv, code, stdout, stderr)), with the stderr of exit 2
        left out, as argparse's usage text differs between Python versions."""
        codes = {0: 0, 1: 0, 2: 0}
        digests = collections.defaultdict(hashlib.sha256)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)  # exit-1 texts quote it
        try:
            for argv in [*self.grid(), *self.MALFORMED]:
                code, out, err = execute(argv)
                assert code in codes, argv
                assert code == 0 or err.startswith("error:"), (argv, err)
                codes[code] += 1
                outcome = (argv, code, out, err if code != 2 else "")
                digests[argv[0] if argv else "(empty)"].update(repr(outcome).encode())
        finally:
            sys.set_int_max_str_digits(limit)
        assert min(codes.values()) > 0
        golden = dict(map(str.split, (GOLDEN / "grid_digests.txt").read_text().splitlines()))
        digests = {command: digest.hexdigest() for command, digest in digests.items()}
        moved = sorted(command for command in golden.keys() | digests.keys()
                       if golden.get(command) != digests.get(command))
        assert not moved, f"the outcomes of {', '.join(moved)} moved"

    @pytest.mark.parametrize("argv", MALFORMED)
    def test_malformed_command_lines_are_usage_errors(self, argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert "error:" in err


class TestDispatch:
    """execute reads a command line that starts with a known command from that command's
    sub-parser's tables where it can; it must give what the full top-level parse gives, byte
    for byte."""

    EDGE = [["--help"], ["-h"], ["varman", "--help"], ["varman", "--he"], ["--"],
            ["--", "sqrt", "4"], ["sqrt", "--", "-4"], ["sqr", "4"], ["Sqrt", "4"],
            ["sqrt", "4", "extra"], ["varman", "--diameter", D12, "--diameter", "5"],
            ["varman", f"--diameter={D12}"],
            ["onset", "--formula", "f3", "--pol", "floor", "--diameter", D12],
            ["decode", "ka", "--system", "katapayadi", "kha"], ["sqrt", "81", "--trace", "x"],
            ["compare", "--circumference", "-5", "--diameter", D12], ["varman", "--diameter", ""],
            ["varman", "--ledger", "--ledger", "--diameter", D12], ["varman", "-h"],
            ["decode", "--system", "katapayadi", "--lexicon", "-x", "ka"]]

    def test_sub_parser_dispatch_matches_the_full_parse(self, monkeypatch):
        argvs = [*TestArgumentGrid.grid(), *TestArgumentGrid.MALFORMED, *self.EDGE]
        dispatched = [execute(argv) for argv in argvs]
        assert {argv[0] for argv in TestArgumentGrid.grid()} == set(cli.build_parser().commands)
        monkeypatch.setattr(cli.build_parser(), "commands", {})  # every line takes the full parse
        for argv, expected in zip(argvs, dispatched):
            assert execute(argv) == expected, argv

    def test_the_exact_read_gives_argparse_s_namespace(self):
        """_parse_exact reads a line as argparse's own parse_args does, or leaves it to it."""
        parser = cli.build_parser()
        exact = 0
        for argv in [*TestArgumentGrid.grid(), *TestArgumentGrid.MALFORMED, *self.EDGE]:
            assert cli._parse_exact(parser, argv) is None, argv  # the sub-command positional
            sub = parser.commands.get(argv[0]) if argv else None
            namespace = cli._parse_exact(sub, argv[1:]) if sub else None
            if namespace is not None:
                assert vars(namespace) == vars(argparse.ArgumentParser.parse_args(sub, argv[1:]))
                exact += 1
        assert exact > 6000

    def test_common_lines_need_no_argparse_parse(self, monkeypatch):
        argvs = [["circumference", "--formula", "f2", "--diameter", D12, "--terms", "40",
                  "--policy", "final-nearest", "--backend", "rational", "--format", "json"],
                 ["decode", "--system", "katapayadi", *PHRASE]]
        expected = [execute(argv) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a line the exact read should take")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        assert [execute(argv) for argv in argvs] == expected
        assert expected[0][0] == expected[1][0] == 0


BAD_VALUES = ["1e3", "+5", "\u0663", "bogus", "-5", ""]


@st.composite
def sub_parser_lines(draw):
    """A sub-parser and a line for it: its flags in any order, some left out and some repeated,
    each value a choice, a plain integer or, one time in eight, a bad value, and the positional
    run at any flag boundary."""
    sub = draw(st.sampled_from(list(cli.build_parser().commands.values())))

    def value(action):
        if not draw(st.integers(0, 7)):
            return draw(st.sampled_from(BAD_VALUES))
        if action.choices:
            return draw(st.sampled_from(list(action.choices)))
        return str(draw(st.integers(-10, 10**20))) if action.type else draw(st.sampled_from(PHRASE))

    def flag(text):
        action = sub._option_string_actions[text]
        return [text] if action.nargs == 0 or not draw(st.integers(0, 9)) else [text, value(action)]

    options = [a.option_strings[-1] for a in sub._actions if a.option_strings and a.dest != "help"]
    texts = [text for text in draw(st.permutations(options)) if draw(st.integers(0, 7))]
    for _ in range(draw(st.integers(0, 2))):  # a repeated flag, or -h or --help
        texts.insert(draw(st.integers(0, len(texts))),
                     draw(st.sampled_from(sorted(sub._option_string_actions))))
    run = [value(action) for action in sub._get_positional_actions()
           for _ in range(1 if action.nargs is None else draw(st.integers(0, 3)))]
    flags = [flag(text) for text in texts]
    at = draw(st.integers(0, len(flags)))
    return sub, [token for tokens in flags[:at] for token in tokens] + run + [
        token for tokens in flags[at:] for token in tokens]


class TestExactRead:
    """_parse_exact reads a line as argparse's own parse does, or declines it; and every line
    declined goes to the top-level parser, never to a sub-parser's own parse_args."""

    @settings(max_examples=400, deadline=None)
    @given(sub_parser_lines())
    def test_an_exact_read_is_argparse_s_namespace(self, drawn):
        sub, argv = drawn
        exact = cli._parse_exact(sub, argv)
        event("declined" if exact is None else "exact read")
        try:
            with redirect_stdout(io.StringIO()):  # -h prints its help, then exits
                namespace = argparse.ArgumentParser.parse_args(sub, argv)
        except (cli.UsageError, SystemExit):
            assert exact is None, argv
        else:
            assert exact is None or vars(exact) == vars(namespace), argv

    def test_only_the_top_level_parser_runs_parse_args(self, monkeypatch):
        parse_args, seen = argparse.ArgumentParser.parse_args, []

        def recording(self, *args, **kwargs):
            seen.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for argv in [*TestArgumentGrid.MALFORMED, *TestDispatch.EDGE]:
            execute(argv)
        assert len(seen) > len(TestArgumentGrid.MALFORMED)
        assert all(parser is cli.build_parser() for parser in seen)
