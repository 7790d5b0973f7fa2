"""CLI surface: exit codes, output schemas, decimal fidelity, stability."""

import argparse
import csv
import dataclasses
import decimal
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from robincheck import (
    cli,
    explorer,
    intervals,
    output,
    primes,
    robin,
    theorems,
)
from robincheck.intervals import Comparison
from robincheck.factorization import sigma_over_n_fraction

import golden_diff


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_satisfied(self, capsys):
        code, out, _ = run_cli(["check", "5041"], capsys)
        assert code == 0
        assert "satisfied" in out

    def test_check_violated(self, capsys):
        code, out, _ = run_cli(["check", "5040"], capsys)
        assert code == 1
        assert "violated" in out

    def test_check_rhs_undefined(self, capsys):
        code, out, _ = run_cli(["check", "2"], capsys)
        assert code == 1
        assert "rhs_undefined" in out

    def test_usage_error_on_scan_order(self, capsys):
        code, _, err = run_cli(["scan", "10", "2"], capsys)
        assert code == 64
        assert "error" in err

    def test_usage_error_on_bad_factor_string(self, capsys):
        code, _, err = run_cli(["check", "4^2*3"], capsys)
        assert code == 64
        assert "not prime" in err

    def test_strong_pseudoprime_to_37_is_not_a_prime_base(self, capsys):
        # psi_12 = 399165290221 * 798330580441 passes every base 2..37
        code, out, err = run_cli(["check", "2*318665857834031151167461"],
                                 capsys)
        assert code == 64 and out == ""
        assert err == ("robincheck: error: 318665857834031151167461 "
                       "is not prime\n")

    @pytest.mark.parametrize("factors, where", [
        ("2**3", "bad term '' (term 2 of 3)"),
        ("2*", "bad term '' (term 2 of 2)"),
        # values and factor strings are ASCII; a str pattern's \d alone
        # would take these Arabic-Indic and full-width digits
        *((v, f"bad term {v!r} (term 1 of 1)")
          for v in ("\u0665\u0660\u0664\u0661", "\u0667\u0661^\u0662",
                    "\uff15\uff10\uff14\uff11")),
    ])
    def test_bad_term_names_its_position(self, factors, where, capsys):
        code, out, err = run_cli(["check", factors], capsys)
        assert code == 64
        assert out == ""
        assert err == f"robincheck: error: {where}\n"

    @pytest.mark.parametrize("argv", [
        ["scan", "\u0662", "\u0665\u0660\u0664\u0660"],
        ["scan", "2", "5_040"],
        ["bounds", "\uff11\uff12"],
        ["conjecture2", "--primes", "\u0664"],
        ["substitute", "2^4*3^2*5*7", "\u0663", "11"],
        ["substitute", "2^4*3^2*5*7", "3", "1_1"],
        ["scan", "2", "300", "--precision-bits", "\u0662"],
        ["scan", "2", "300", "--precision-bits", "+2"],
        ["scan", "2", "9" * 5000],
    ])
    def test_integer_arguments_are_ascii_digits(self, argv, capsys):
        # int() alone reads these as 2, 5040, 12, 4, 3, 11 and 2, and
        # refuses the last, past its 4300-digit limit, with a ValueError
        # that argparse would report under the helper's name
        code, out, err = run_cli(argv, capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("robincheck: error: ")
        assert "invalid int value: " in err and "_int_arg" not in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("value", ["\u0661\u0665", "1_5", "1e5", " 15"])
    def test_max_log_n_is_an_ascii_decimal(self, value, capsys):
        # Fraction() alone reads these as 15, 15, 100000 and 15
        code, out, err = run_cli(["conjecture2", "--max-log-n", value],
                                 capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("robincheck: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("argv, message", [
        # the scan runs in one process; --jobs is an unknown option
        (["scan", "2", "300", "--jobs", "2"],
         "unrecognized arguments: --jobs 2"),
        # past int()'s 4300-digit limit, which _decimal_arg turns into
        # argparse's own refusal
        (["conjecture2", "--max-log-n", "9" * 5000],
         "argument --max-log-n: invalid decimal value: "),
    ])
    def test_refused_before_any_command_runs(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 64
        assert out == ""
        assert err.startswith(f"robincheck: error: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    # the text and flag arguments; every other one is a number
    _NON_NUMERIC_DESTS = {
        "help", "command", "value", "factors", "output", "format",
        "no_prune_justification", "all_arrangements",
    }

    def test_no_argument_parses_with_int(self):
        # int() and Fraction() take non-ASCII digits and underscores;
        # every numeric argument goes through cli._int_arg or
        # cli._decimal_arg instead
        def walk(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from walk(sub)

        parsers = list(walk(cli._build_parser()))
        assert len(parsers) > 1
        for parser in parsers:
            for action in parser._actions:
                assert action.type is not int, (parser.prog, action.dest)
                assert (action.type in (cli._int_arg, cli._decimal_arg)
                        or action.dest in self._NON_NUMERIC_DESTS), (
                    parser.prog, action.dest)

    def test_too_large_integer_exit_65(self, capsys):
        code, _, err = run_cli(["check", str(2**64 + 7)], capsys)
        assert code == 65
        assert "factor string" in err

    def test_svg_rejected_outside_tables(self, capsys):
        code, _, err = run_cli(["check", "12", "--format", "svg"], capsys)
        assert code == 64

    def test_bad_precision_config(self, capsys):
        code, _, err = run_cli(
            ["check", "12", "--precision-bits", "100",
             "--max-precision-bits", "50"], capsys)
        assert code == 64

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["prime-powers", "--limit", "1000000000"],
        # p_m is about 1.04 * 10^8, but the row budget refuses it first
        ["conjecture1", "6000000"],
    ])
    def test_primes_past_sieve_budget_exit_64(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 64
        assert out == ""
        budget = {"prime-powers": "sieve budget", "conjecture1": "row budget"}
        assert budget[argv[0]] in err

    @pytest.mark.parametrize("command", ["conjecture1", "bounds"])
    def test_table_past_row_budget_exit_64(self, command, monkeypatch,
                                           capsys):
        def no_sieve(m):
            raise AssertionError("primes asked for past the row budget")

        monkeypatch.setattr(primes, "first_primes", no_sieve)
        code, out, err = run_cli([command, str(explorer._ROW_BUDGET + 1)],
                                 capsys)
        assert code == 64
        assert out == ""
        assert "20001 rows exceed the row budget 20000" in err

    def test_scan_end_past_max_scan_hi_exit_64(self, capsys):
        code, out, err = run_cli(
            ["scan", "2", "10000000000000", "--format", "csv"], capsys)
        assert code == 64
        assert out == ""  # refused before the CSV header
        assert "scan range" in err

    def test_start_precision_past_gamma_digits_exit_64(self, capsys):
        code, out, err = run_cli(
            ["check", "5041", "--precision-bits", "4600",
             "--max-precision-bits", "5000"], capsys)
        assert code == 64
        assert out == ""
        assert "gamma" in err

    # each of these rules lives in the library only; the CLI passes the
    # argument through and maps the refusal to 64
    @pytest.mark.parametrize("argv, message", [
        (["check", "1"], "n must be >= 2"),
        (["scan", "10", "2", "--format", "csv"], "need 2 <= lo <= hi"),
        (["scan", "2", "1000000000001", "--format", "csv"], "scan range"),
        (["conjecture1", "0", "--format", "csv"], "m_max must be >= 1"),
        (["bounds", "0", "--format", "csv"], "m must be >= 1"),
        (["conjecture2", "--primes", "0"], "prime_count_max"),
        (["conjecture2", "--max-exp", "0"], "exponent_max"),
        (["conjecture2", "--max-log-n", "-1"], "log_n_max must be positive"),
        (["prime-powers", "--limit", "5040", "--format", "csv"],
         "limit must exceed 5040"),
    ])
    def test_library_refusal_exit_64_before_output(self, argv, message,
                                                   capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("robincheck: error: ")
        assert err.count("\n") == 1
        assert message in err

    def test_internal_value_error_is_not_a_refusal(self, monkeypatch,
                                                   capsys):
        def broken(*args):
            raise ValueError("broken invariant")

        monkeypatch.setattr(theorems, "bound_table", broken)
        code, out, err = run_cli(["bounds", "3"], capsys)
        assert code == cli.EXIT_SOFTWARE == 70
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("ValueError: broken invariant\n")
        assert "robincheck: error:" not in err

    def test_memory_error_is_not_a_verdict(self, monkeypatch, capsys):
        # a search that runs out of memory must not read as exit 1,
        # "counterexample found"
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(explorer, "conjecture32_search", exhausted)
        code, out, err = run_cli(["conjecture2", "--primes", "3"], capsys)
        assert code == 70 != cli.EXIT_VIOLATED
        assert out == ""
        assert err.rstrip().endswith("MemoryError")

    @pytest.mark.parametrize("code, verdicts", [
        (0, []),
        (0, [robin.Verdict.SATISFIED]),
        (1, [robin.Verdict.INDETERMINATE, robin.Verdict.VIOLATED]),
        (2, [robin.Verdict.SATISFIED, robin.Verdict.INDETERMINATE]),
    ])
    def test_exit_code_rule(self, code, verdicts):
        assert cli._exit_code(verdicts) == code


class TestPastIntStrDigitLimit:
    """Values longer than the 4300 digits int <-> str converts by default."""

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_primorial_of_2000_primes(self, fmt, capsys):
        limit = sys.get_int_max_str_digits()
        f = primes.primorial_factorization(2000)
        code, out, _ = run_cli(["check", f.as_string(), "--format", fmt],
                               capsys)
        assert code == 0
        assert "satisfied" in out
        # the sigma(n)/n numerator is printed in full
        assert max(len(d) for d in re.findall(r"\d+", out)) > 4300
        assert sys.get_int_max_str_digits() == limit

    def test_huge_power_of_two_prints_fast(self, capsys):
        # sigma(n)/n = (2^3000001 - 1) / 2^3000000: two 900k-digit integers,
        # which Python 3.11's quadratic int-to-str takes about 30 s to print
        start = time.perf_counter()
        code, out, _ = run_cli(["check", "2^3000000", "--format", "json"],
                               capsys)
        assert time.perf_counter() - start < 15
        assert code == 0
        num, den = json.loads(out)["sigma_over_n"].values()
        with decimal.localcontext() as ctx:
            ctx.prec = 25
            top = decimal.Decimal(2) ** 3000001
            lead = str(top.scaleb(-top.adjusted())).replace(".", "")
        assert num[:20] == lead[:20]
        assert len(num) == top.adjusted() + 1 == len(den) + 1
        assert int(num[-30:]) == (pow(2, 3000001, 10**30) - 1) % 10**30
        assert int(den[-30:]) == pow(2, 3000000, 10**30)

    def test_5000_digit_integer_exit_65(self, capsys):
        code, _, err = run_cli(["check", "9" * 5000], capsys)
        assert code == 65
        assert "factor string" in err

    @pytest.mark.parametrize("argv", [
        ["check", f"2^{primes.MAX_FACTOR_BITS + 1}"],
        ["check", f"3*2^{primes.MAX_FACTOR_BITS - 1}"],
        ["check", "2^40000000000"],
        ["check", "2^" + "9" * 10**6],
        ["substitute", f"2^{primes.MAX_FACTOR_BITS + 1}", "0", "3"],
        # the substituted n is past the budget
        ["substitute", f"2^{primes.MAX_FACTOR_BITS // 2}*3", "0", "5"],
    ], ids=lambda argv: " ".join(argv)[:40])
    def test_past_the_bit_budget_exit_64(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1 and "bit budget" in err

    def test_5000_digit_base_exit_64(self, capsys):
        code, _, err = run_cli(["check", "9" * 5000 + "^2"], capsys)
        assert code == 64
        assert "primality range" in err


class TestIntStr:
    """output.int_str against str() across its binary split points."""

    @pytest.fixture(autouse=True)
    def _no_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(limit)

    def test_powers_of_ten_around_the_splits(self):
        leaf = int(output._INT_STR_LEAF_BITS * 0.30103)  # digits of 2**bits
        values = [0, 1, -1, 9, 10, -10]
        for k in (leaf, 2 * leaf, 4 * leaf + 1):
            for j in range(k - 2, k + 3):
                values += [10**j - 1, 10**j, 10**j + 1]
        values += [-v for v in values]
        for v in values:
            assert output.int_str(v) == str(v), v

    def test_random_up_to_300k_bits(self):
        rng = random.Random(6)
        for bits in [rng.randint(1, 300_000) for _ in range(12)] + [300_000]:
            v = rng.getrandbits(bits) * rng.choice((1, -1))
            assert output.int_str(v) == str(v), bits


class TestSigStr:
    @pytest.mark.parametrize("num,den,expected", [
        (0, 7, "0"),                      # zero has no leading digit
        (9999995, 10**6, "10.0000"),      # rounding carries into a new digit
        (-9999995, 10**6, "-10.0000"),
        (9999985, 10**6, "9.99998"),      # half-even keeps the even digit
        (999999500, 1, "1000000000"),     # >= 10^6: trailing zeros, carry
        (123456789, 1, "123457000"),
    ])
    def test_carry_and_large_values(self, num, den, expected):
        assert output.sig_str_num_den(num, den) == expected


_BELOW_FLOOR = robin._below_floor


class TestUndecided:
    """Every command that reports "could not decide" exits 2.

    No real input stays undecided at the top of the precision ladder, so
    the comparison is forced to overlap on every rung, and the floors,
    which decide on ints without it, are turned off.
    """

    @pytest.fixture(autouse=True)
    def _never_separates(self, monkeypatch):
        monkeypatch.setattr(robin, "_below_floor", lambda hi, x, bits: False)
        monkeypatch.setattr(explorer, "_below_floor",
                            lambda hi, ln_lo, bits: False)
        monkeypatch.setattr(robin, "compare",
                            lambda lhs, rhs: Comparison.OVERLAPPING)

    def test_check(self, capsys):
        code, out, _ = run_cli(["check", "5041"], capsys)
        assert code == 2
        assert "verdict = indeterminate" in out
        assert "reason = escalation_exhausted" in out

    def test_scan_json(self, capsys):
        code, out, _ = run_cli(["scan", "5000", "5100", "--format", "json"],
                               capsys)
        assert code == 2
        report = json.loads(out)
        assert report["violations"] == []
        assert report["indeterminates"] == [5040]

    def test_scan_human_names_the_undecided_n(self, capsys):
        code, out, _ = run_cli(["scan", "5000", "5100"], capsys)
        assert code == 2
        assert out == ("INDETERMINATE n=5040\n"
                       "checked=101 violations=0 indeterminates=1\n")

    def test_scan_csv_names_the_undecided_n_on_stderr(self, capsys):
        code, out, err = run_cli(["scan", "5000", "5100", "--format", "csv"],
                                 capsys)
        assert code == 2
        assert out == cli.SCAN_CSV_HEADER + "\n"
        assert err == ("INDETERMINATE n=5040\n"
                       "checked=101 violations=0 indeterminates=1\n")

    def test_prime_powers(self, capsys):
        # a short ladder: 110 prime powers each climb every rung
        code, out, _ = run_cli(["prime-powers", "--limit", "6000",
                                "--max-precision-bits", "212"], capsys)
        assert code == 2
        assert "all satisfied: NO" in out
        assert "  71^2 -> indeterminate\n" in out
        assert "  5987 -> indeterminate\n" in out

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_conjecture2_undecided_bases(self, fmt, capsys):
        # every base stays undecided, so none is probed
        code, out, err = run_cli(
            ["conjecture2", "--primes", "4", "--max-exp", "3",
             "--max-precision-bits", "212", "--format", fmt], capsys)
        assert code == 2
        assert "Traceback" not in err
        if fmt == "human":
            assert "bases probed (satisfied, n > 5040) = 0\n" in out
            assert "  base 2^3*3^3*5^2 -> indeterminate\n" in out
        elif fmt == "csv":
            assert "\n2^3*3^3*5^2,,indeterminate\n" in out
        else:
            rows = json.loads(out)["counterexamples"]
            assert rows and all(r["index"] is None for r in rows)
            assert {r["verdict"] for r in rows} == {"indeterminate"}

    def test_conjecture2_undecided_increments(self, monkeypatch, capsys):
        monkeypatch.setattr(robin, "compare", intervals.compare)
        monkeypatch.setattr(robin, "_below_floor", _BELOW_FLOOR)
        check = explorer.check

        def undecided_at_2_to_the_4(f, cfg):
            result = check(f, cfg)
            if f.entries[0] != (2, 4):
                return result
            return dataclasses.replace(
                result, verdict=robin.Verdict.INDETERMINATE,
                reason=robin.REASON_ESCALATION_EXHAUSTED)

        monkeypatch.setattr(explorer, "check", undecided_at_2_to_the_4)
        code, out, err = run_cli(
            ["conjecture2", "--primes", "4", "--max-exp", "3"], capsys)
        assert code == 2
        assert out.count(" index 0 -> indeterminate\n") == 10
        assert "\ncounterexamples = 0\nundecided = 10\n" in out
        assert "Traceback" not in err

    def test_substitute_undecided_base(self, capsys):
        code, out, err = run_cli(["substitute", "2^4*3^2*5*7*11", "4", "13"],
                                 capsys)
        assert code == 2
        assert "before: 2^4*3^2*5*7*11 -> indeterminate\n" in out
        assert "Traceback" not in err


class TestCheckCommand:
    def test_factor_string_matches_integer_report(self, capsys):
        _, out_int, _ = run_cli(["check", "5040"], capsys)
        _, out_str, _ = run_cli(["check", "2^4*3^2*5*7"], capsys)
        assert out_int == out_str

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(["check", "5041", "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["n"] == "5041"
        assert doc["factorization"] == "71^2"
        assert doc["sigma_over_n"] == {"num": "5113", "den": "5041"}
        assert doc["verdict"] == "satisfied"
        assert isinstance(doc["rhs"]["lo"], str)
        assert Fraction(doc["rhs"]["lo"]) < Fraction(doc["rhs"]["hi"])

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(["check", "5040", "--format", "csv"], capsys)
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["n"] == "5040"
        assert cells["sigma_over_n_num"] == "403"
        assert cells["verdict"] == "violated"

    def test_huge_factor_string_prints_log10(self, capsys):
        # primorial of the first 400 primes: far beyond 50 digits
        f = primes.primorial_factorization(400)
        code, out, _ = run_cli(["check", f.as_string()], capsys)
        assert code == 0
        assert "log10(n)" in out

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("k, n, log10_n", [
        (166, str(2 ** 166), None),
        (167, None, "50.2720"),
    ], ids=["50-digits", "51-digits"])
    def test_n_printed_up_to_50_digits(self, k, n, log10_n, fmt, capsys):
        _, out, _ = run_cli(["check", f"2^{k}", "--format", fmt], capsys)
        if fmt == "json":
            doc = json.loads(out)
            assert (doc["n"], doc["log10_n"]) == (n, log10_n)
        else:
            first = f"n = {n}" if n else f"log10(n) = {log10_n}"
            assert out.splitlines()[0] == first

    def test_human_decimals_within_one_ulp(self, capsys):
        _, out, _ = run_cli(["check", "5041"], capsys)
        for line in out.splitlines():
            if line.startswith("sigma(n)/n"):
                shown = Fraction(line.split("=")[-1].strip())
                exact = sigma_over_n_fraction(primes.factorize(5041))
                assert abs(shown - exact) <= Fraction(1, 10**5)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["check", "5041", "--format", "json", "--output", str(target)],
            capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "satisfied"


class TestScanCommand:
    def test_csv_matches_golden_columns(self, capsys):
        code, out, err = run_cli(["scan", "2", "100", "--format", "csv"],
                                 capsys)
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[0] == cli.SCAN_CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "3"
        assert first[6] == "rhs_undefined"
        assert "checked=99" in err

    def test_clean_range_exit_0(self, capsys):
        code, out, _ = run_cli(["scan", "5041", "6000"], capsys)
        assert code == 0
        assert "violations=0" in out

    def test_csv_stable_across_runs_and_jobs(self, capsys):
        outs = set()
        for _ in range(3):
            code, out, _ = run_cli(
                ["scan", "2", "20000", "--format", "csv"], capsys)
            outs.add(out)
        assert len(outs) == 1

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(["scan", "2", "30", "--format", "json"],
                               capsys)
        doc = json.loads(out)
        assert doc["lo"] == 2 and doc["hi"] == 30
        ns = [row["n"] for row in doc["violations"]]
        assert ns == [2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 20, 24, 30]

    def test_csv_rows_match_golden_file(self, capsys):
        # drop the enclosure columns: what remains is the oracle-backed
        # golden projection, and it must agree byte for byte
        import os
        code, out, _ = run_cli(["scan", "2", "5040", "--format", "csv"],
                               capsys)
        assert code == 1
        projected = []
        for line in out.strip().split("\n"):
            cells = line.split(",")
            projected.append(",".join(cells[:4] + cells[6:]))
        golden = os.path.join(os.path.dirname(__file__), "data",
                              "violators_2_5040.csv")
        with open(golden) as fh:
            assert "\n".join(projected) + "\n" == fh.read()

    def test_clean_million_scan(self, capsys):
        code, out, err = run_cli(
            ["scan", "5041", "1000000", "--format", "csv"],
            capsys)
        assert code == 0
        assert out.strip() == cli.SCAN_CSV_HEADER  # zero violation rows
        assert "violations=0" in err and "indeterminates=0" in err


class TestConjecture1Command:
    def test_csv_m9_last_row(self, capsys):
        code, out, _ = run_cli(["conjecture1", "9", "--format", "csv"],
                               capsys)
        lines = out.strip().split("\n")
        assert lines[0] == cli.CONJ1_CSV_HEADER
        last = lines[-1].split(",")
        assert last[0] == "9"
        assert last[4] == "3.74766"
        assert last[9] == "true"

    def test_m1_undefined_columns(self, capsys):
        code, out, _ = run_cli(["conjecture1", "1", "--format", "csv"],
                               capsys)
        row = out.strip().split("\n")[1].split(",")
        assert row[5] == row[6] == row[7] == row[8] == "undefined"

    def test_first_true_marker_at_m6(self, capsys):
        code, out, _ = run_cli(["conjecture1", "8", "--format", "csv"],
                               capsys)
        flags = [line.split(",")[9] for line in out.strip().split("\n")[1:]]
        assert flags == ["false"] * 5 + ["true"] * 3

    def test_svg_valid_and_has_two_polylines(self, capsys):
        code, out, _ = run_cli(["conjecture1", "40", "--format", "svg"],
                               capsys)
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2
        # vertical marker for the first m with primorial > 5040
        dashed = [e for e in root.findall(f"{ns}line")
                  if e.get("stroke-dasharray")]
        assert len(dashed) == 1

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run_cli(["conjecture1", "3", "--format", "json"],
                               capsys)
        doc = json.loads(out)
        assert [r["m"] for r in doc["rows"]] == [1, 2, 3]
        assert doc["rows"][1]["q_m"] == {"num": "2", "den": "1"}
        assert doc["rows"][0]["alpha"] is None

    def test_csv_and_json_q_digits_equal_the_rows(self, capsys):
        # q's digits carry from row to row as Decimals; each must equal
        # the row's exact int
        rows = explorer.conjecture31_table(1000)
        _, out, _ = run_cli(["conjecture1", "1000", "--format", "csv"], capsys)
        lines = out.strip().split("\n")[1:]
        assert len(lines) == len(rows)
        for row, line in zip(rows, lines):
            cells = line.split(",")
            assert cells[2:4] == [str(row.q_num), str(row.q_den)], row.m
        _, out, _ = run_cli(["conjecture1", "1000", "--format", "json"],
                            capsys)
        assert [r["q_m"] for r in json.loads(out)["rows"]] == [
            {"num": str(r.q_num), "den": str(r.q_den)} for r in rows]

    def test_csv_q_dec_within_one_ulp_of_exact(self, capsys):
        code, out, _ = run_cli(["conjecture1", "12", "--format", "csv"],
                               capsys)
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            exact = Fraction(int(cells[2]), int(cells[3]))
            shown = Fraction(cells[4])
            assert abs(shown - exact) <= Fraction(1, 10**5)


class TestConjecture2Command:
    def test_prime_powers_defaults(self, capsys):
        code, out, _ = run_cli(
            ["conjecture2", "--primes", "1", "--max-exp", "20",
             "--max-log-n", "20.7"], capsys)
        assert code == 0
        assert "counterexamples = 0" in out

    def test_primes_over_9_needs_flag(self, capsys):
        code, _, err = run_cli(["conjecture2", "--primes", "10"], capsys)
        assert code == 64
        assert "--no-prune-justification" in err

    def test_primes_over_9_with_flag(self, capsys):
        code, out, _ = run_cli(
            ["conjecture2", "--primes", "10", "--max-exp", "1",
             "--max-log-n", "15.0", "--no-prune-justification"], capsys)
        assert code == 0

    def test_bad_log_n(self, capsys):
        code, _, err = run_cli(
            ["conjecture2", "--max-log-n", "banana"], capsys)
        assert code == 64

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_search_past_the_base_budget_exit_64(self, fmt, monkeypatch,
                                                 capsys):
        # with every arrangement the default search enumerates 21,757 bases
        monkeypatch.setattr(explorer, "_BASE_BUDGET", 1000)
        code, out, err = run_cli(
            ["conjecture2", "--all-arrangements", "--format", fmt], capsys)
        assert code == 64
        assert out == ""
        assert err == ("robincheck: error: more than 1000 bases to search "
                       "(the base budget); lower prime_count_max, "
                       "exponent_max or log_n_max\n")


class TestBoundsCommand:
    def test_rows(self, capsys):
        code, out, _ = run_cli(["bounds", "10", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.BOUNDS_CSV_HEADER
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert rows[3][2] == "15" and rows[3][3] == "4"
        assert rows[3][5] == "true"
        assert rows[4][2] == "35" and rows[4][3] == "8"
        assert rows[4][5] == "false"
        assert rows[9][9] == "true"
        assert rows[10][9] == "false"
        assert rows[9][8] == "3.74766"

    def test_dec_columns_within_one_ulp_of_exact(self, capsys):
        code, out, _ = run_cli(["bounds", "12", "--format", "csv"], capsys)
        for line in out.strip().split("\n")[1:]:
            c = line.split(",")
            for num, den, dec in ((c[2], c[3], c[4]), (c[6], c[7], c[8])):
                exact = Fraction(int(num), int(den))
                assert abs(Fraction(dec) - exact) <= Fraction(1, 10**5)

    def test_one_threshold_and_one_prime_list_per_table(self, capsys,
                                                        monkeypatch):
        calls = {"threshold_5040": 0, "first_primes": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(theorems, "threshold_5040")
        counted(primes, "first_primes")
        code, _, _ = run_cli(["bounds", "50", "--format", "csv"], capsys)
        assert code == 0
        assert calls == {"threshold_5040": 1, "first_primes": 1}


    def test_csv_digits_equal_the_table_fractions(self, capsys):
        table = theorems.bound_table(300)
        code, out, _ = run_cli(["bounds", "300", "--format", "csv"], capsys)
        lines = out.strip().split("\n")[1:]
        assert len(lines) == len(table)
        for (_, u, s), line in zip(table, lines):
            cells = line.split(",")
            for value, num_den in ((u.bound_value, cells[2:4]),
                                   (s.bound_value, cells[6:8])):
                assert num_den == [output.int_str(value.numerator),
                                   output.int_str(value.denominator)], u.m

    def test_overlap_at_the_start_rung_escalates(self, capsys):
        # at 3 bits the threshold reads [3.5, 4]: 3.75, 3.59 and 3.75 lie
        # inside it and below e^gamma ln ln 5040 ~ 3.8169
        code, out, _ = run_cli(["bounds", "12", "--precision-bits", "3"],
                               capsys)
        assert code == 0
        assert "m=3 p=5 unbounded=3.75000 (pass)" in out
        assert "squarefree=3.59150 (pass)\n" in out
        assert "squarefree=3.74766 (pass)\n" in out
        assert "squarefree=3.87689 (FAIL)\n" in out

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_overlap_at_the_top_rung_is_undecided(self, fmt, capsys):
        code, out, _ = run_cli(["bounds", "12", "--precision-bits", "3",
                                "--max-precision-bits", "3",
                                "--format", fmt], capsys)
        assert code == 2
        if fmt == "human":
            assert "m=3 p=5 unbounded=3.75000 (undecided)" in out
            assert out.count("(undecided)") == 4
            assert "squarefree=3.74766 (undecided)\n" in out
        elif fmt == "csv":
            rows = [line.split(",") for line in out.split("\n")[1:-1]]
            assert rows[2][5] == "" and rows[8][9] == ""
            assert [r[0] for r in rows if "" in (r[5], r[9])] == [
                "3", "8", "9", "10"]
        else:
            rows = json.loads(out)["rows"]
            assert rows[2]["unbounded"]["passes"] is None
            assert [r["m"] for r in rows if r["squarefree"]["passes"] is None
                    ] == [8, 9, 10]


class TestPrimePowersCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(["prime-powers", "--limit", "6000"], capsys)
        assert code == 0
        assert "all satisfied: yes" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            ["prime-powers", "--limit", "5100", "--format", "csv"], capsys)
        lines = out.strip().split("\n")
        assert lines[1].startswith("5041,71,2,")


class TestSubstituteCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(["substitute", "2*3*5*7*11*13", "5", "17"],
                               capsys)
        assert code == 0
        assert "lhs strictly decreased: True" in out
        assert "certified increased: True" in out

    def test_colliding(self, capsys):
        code, _, err = run_cli(["substitute", "2^4*3^2", "0", "3"], capsys)
        assert code == 64

    def test_prime_past_primality_range_exit_64(self, capsys):
        # 2^89 - 1: refused like a factor-string base of that size
        code, out, err = run_cli(
            ["substitute", "2*3", "0", str(2**89 - 1)], capsys)
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1
        assert "primality range" in err and "Traceback" not in err

    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["substitute", "2^4*3^2*5*7^2", "3", "11", "--format", "json"],
            capsys)
        doc = json.loads(out)
        assert doc["after"]["factorization"] == "2^4*3^2*5*11^2"
        assert doc["lhs_decreased"] is True
        assert doc["rhs_increased"] is True

    def test_undecided_log_increase_exits_2(self, capsys):
        # ln n of two adjacent 60-bit primes cannot be separated at 8 bits
        argv = ["substitute", "1000000000000000003", "0",
                "1000000000000000009"]
        capped = argv + ["--precision-bits", "8", "--max-precision-bits", "8"]
        code, out, _ = run_cli(capped, capsys)
        assert code == 2
        assert "rhs (log n) certified increased: undecided\n" in out
        code, out, _ = run_cli(capped + ["--format", "csv"], capsys)
        assert code == 2
        assert out.split("\n")[1].endswith(",true,undecided")
        code, out, _ = run_cli(capped + ["--format", "json"], capsys)
        assert code == 2
        assert json.loads(out)["rhs_increased"] is None
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "rhs (log n) certified increased: True\n" in out


class TestOutputErrors:
    def test_unwritable_output_path_exit_74(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.csv"
        code, out, err = run_cli(["check", "5041", "--output", str(target)],
                                 capsys)
        assert code == cli.EXIT_IOERR == 74
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "cannot write output" in err

    def test_refused_command_keeps_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        target.write_text("kept me\n")  # 8 bytes
        code, out, err = run_cli(["bounds", "0", "--output", str(target)],
                                 capsys)
        assert code == cli.EXIT_USAGE == 64
        assert target.read_bytes() == b"kept me\n"
        code, _, _ = run_cli(["bounds", "1", "--output", str(target)], capsys)
        assert code == 0
        assert target.read_text().startswith("threshold e^gamma")

    @pytest.mark.parametrize("argv", [
        ["check", "5041"],  # fails on the final flush
        ["prime-powers", "--limit", "20000", "--format", "csv"],  # mid-write
    ])
    def test_closed_pipe_exit_74_quietly(self, argv):
        # the reader closes its end before the child writes a byte, so
        # every write fails with EPIPE
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                           "src"))
        env = dict(os.environ, PYTHONPATH=src)
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "robincheck", *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env,
                                  timeout=300)
        finally:
            os.close(w)
        assert proc.returncode == 74
        assert proc.stderr == b""


_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "cli_golden")
with open(os.path.join(_GOLDEN_DIR, "manifest.json")) as _fh:
    _GOLDEN_CASES = json.load(_fh)


def _assert_golden(case, argv, capsys):
    """argv prints the golden files of ``case`` and exits with its code."""
    code, out, err = run_cli(argv, capsys)
    with open(os.path.join(_GOLDEN_DIR, case["stdout"]), newline="") as fh:
        assert out == fh.read()
    if "stderr" in case:
        with open(os.path.join(_GOLDEN_DIR, case["stderr"]), newline="") as fh:
            assert err == fh.read()
    assert code == case["exit"]


@pytest.mark.parametrize("case", _GOLDEN_CASES, ids=[c["stdout"] for c in _GOLDEN_CASES])
def test_golden_stdout_and_exit_code(case, capsys):
    # every printed endpoint, margin and decimal is pinned byte for byte
    _assert_golden(case, case["argv"], capsys)


class TestGoldenDiff:
    """The replay every change to the printed output is accepted by."""

    @pytest.fixture
    def golden_copy(self, tmp_path):
        dest = tmp_path / "cli_golden"
        shutil.copytree(_GOLDEN_DIR, dest)
        return dest

    @staticmethod
    def _edit_cell(path, column, edit):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index(column)
        rows[1][col] = edit(rows[1][col])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    @staticmethod
    def _golden_bytes():
        files = {}
        for name in sorted(os.listdir(_GOLDEN_DIR)):
            with open(os.path.join(_GOLDEN_DIR, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def test_checked_in_goldens_pass(self, capsys):
        before = self._golden_bytes()
        assert golden_diff.main(_GOLDEN_DIR, record=False) == 0
        out = capsys.readouterr().out
        assert "NOT ALLOWED" not in out and "rounded" not in out
        assert self._golden_bytes() == before

    def test_changed_verdict_not_allowed(self, golden_copy, capsys):
        before = self._golden_bytes()
        self._edit_cell(golden_copy / "check_5040.csv", "verdict",
                        lambda v: "satisfied")
        assert golden_diff.main(str(golden_copy), record=False) == 1
        out = capsys.readouterr().out
        assert "NOT ALLOWED check_5040.csv: verdict (1)" in out
        assert self._golden_bytes() == before

    def test_moved_rhs_lo_is_rounded(self, golden_copy, capsys):
        before = self._golden_bytes()
        self._edit_cell(golden_copy / "check_5040.csv", "rhs_lo",
                        lambda v: v[:-1] + ("1" if v[-1] != "1" else "2"))
        assert golden_diff.main(str(golden_copy), record=False) == 0
        out = capsys.readouterr().out
        assert "rounded    check_5040.csv: rhs_lo (1)" in out
        assert "NOT ALLOWED" not in out
        assert self._golden_bytes() == before

    def test_changed_fields_of_json(self):
        doc = {"n": 5040, "rows": [{"rhs": {"lo": "1", "hi": "2"}}]}
        old = json.dumps(doc)
        extra = json.dumps(dict(doc, extra=1))
        assert golden_diff.changed_fields("a.json", old, extra) == {
            "<shape>": 1}
        assert golden_diff.changed_fields(
            "a.json", old, json.dumps(doc, indent=2)) == {"<layout>": 1}
