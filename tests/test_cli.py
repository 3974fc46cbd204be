"""Command-line interface tests.

Unit tests call main(argv) in-process and inspect stdout/stderr through
capsys; the negative controls additionally run the real interpreter in a
subprocess so the exit codes observed are the ones a shell would see.
"""
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Rat
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import cli, logarithmic, series
from umbra.cli import _build_parser, main
from umbra.errors import PreconditionError
from umbra.operators import (
    Polynomial,
    apply_to_polynomial,
    catalog,
    expand_in_basis,
    lagrange_inversion,
)
from umbra.series import INF, TruncatedSeries, from_coeffs
from umbra.suites import SUITE_NAMES

# Every in-process test should be independent of the caller's environment.

# CPython's default limit on the decimal digits an int converts to or from
# text; 3.10.0-3.10.6 have no limit, and PYTHONINTMAXSTRDIGITS can move it.
default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the interpreter's default int-to-str limit of 4300 digits",
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("UMBRA_ORDER", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, err = run_cli(capsys, "seq", "--op", "D", "--n", "2")
        assert code == 0
        assert err == ""

    def test_parse_error_is_two_with_position(self, capsys):
        # [TRIVIAL] "exp(" ends mid-call; the diagnostic points at byte 5.
        code, out, err = run_cli(capsys, "seq", "--op", "exp(")
        assert code == 2
        assert out == ""
        assert "position 5" in err

    def test_unknown_identifier_is_two(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--op", "sinh(D)")
        assert code == 2
        assert "unknown identifier" in err

    def test_precondition_error_is_three(self, capsys):
        # abel's parameter must be a rational constant, not a series
        code, _, err = run_cli(capsys, "seq", "--op", "abel(D)", "--n", "1")
        assert code == 3
        assert "rational constant" in err

    @pytest.mark.parametrize("flags, config, message", [
        (["--range", "0-4"], None, "--range must look like A..B"),
        (["--range", "0..x"], None, "--range must be integer..integer"),
        (["--range", "4..0"], None, "--range must be nondecreasing"),
        (["--n", "1", "--range", "0..2"], None, "give --n or --range, not both"),
        (["--config", "{cfg}"], "colour = red\n", "unknown config key 'colour'"),
        (["--config", "{cfg}"], None, "cannot read config file"),
        (["--config", "{cfg}"], "order\n", "config line 1 is not key=value"),
        (["--config", "{cfg}"], "format = xml\n", "unknown format 'xml'"),
    ])
    def test_malformed_flag_or_config_is_two(self, capsys, tmp_path, flags, config, message):
        # a malformed --range or config file is a usage error, like a bad
        # --param; only domain errors exit 3 (config None: no file at all)
        cfg = tmp_path / "umbra.cfg"
        if config is not None:
            cfg.write_text(config)
        argv = [flag.replace("{cfg}", str(cfg)) for flag in flags]
        code, out, err = run_cli(capsys, "seq", "--op", "D", *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_negative_seq_degree_is_three(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--op", "D", "--n", "-1")
        assert code == 3
        assert "logseq" in err

    @default_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "csv", "latex", "plain"])
    def test_value_past_the_digit_limit_is_three(self, capsys, fmt):
        # b = 10^40 at depth 120 gives window coefficients of more than 4300
        # digits: a refusal naming the digits needed, not a traceback
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "logseq", "--op", "D*exp(b*D)", "--param", f"b={10**40}",
            "--order", "130", "--depth", "120", "--n", "3", "--format", fmt,
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: a value needs \d{4} decimal digits, past the interpreter's limit "
            r"of 4300 digits for printing an integer\n", err)

    @default_digit_limit
    @pytest.mark.parametrize("value, digits", [
        (10**4400, 4401), (10**4400 - 1, 4400), (Rat(-7, 10**5000), 5001),
    ], ids=("10^4400", "10^4400-1", "-7/10^5000"))
    def test_refusal_counts_the_digits_of_the_longer_part(self, value, digits):
        with pytest.raises(PreconditionError, match=f"needs {digits} decimal digits"):
            cli._text(value)

    @default_digit_limit
    def test_literal_past_the_digit_limit_is_two(self, capsys):
        code, out, err = run_cli(capsys, "seq", "--op", "D+" + "1" * 4400 + "*D", "--n", "1")
        assert (code, out) == (2, "")
        assert "number literal of 4400 digits" in err and "position 3" in err

    def test_corrupted_suite_is_four(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "vandermonde", "--corrupt", "--n", "4"
        )
        assert code == 4
        # the report is still printed so the witness can be inspected
        report = json.loads(out)
        assert report["result"]["status"] == "fail"
        assert report["result"]["witness"] is not None


class TestSeqCommand:
    def test_falling_factorials(self, capsys):
        # [DERIVED] expand x(x-1)(x-2) by hand: x^3 - 3x^2 + 2x
        doc = run_json(capsys, "seq", "--op", "exp(D)-1", "--range", "0..3")
        rows = doc["result"]["rows"]
        assert rows[3]["coeffs"] == {"1": "2", "2": "-3", "3": "1"}
        assert rows[0]["coeffs"] == {"0": "1"}
        assert all(row["basis"] == "x^k" for row in rows)

    def test_rational_coefficients_are_strings(self, capsys):
        # [DERIVED] Abel basic p_2 at b = 1/3 is x(x - 2/3)
        doc = run_json(capsys, "seq", "--op", "abel(1/3)", "--n", "2")
        assert doc["result"]["rows"][0]["coeffs"] == {"1": "-2/3", "2": "1"}

    def test_deterministic_output(self, capsys):
        args = ("seq", "--op", "abel(1/2)", "--range", "0..5")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_param_binding(self, capsys):
        # [DERIVED] shifted power (x+a)^2 - a^2 is the a-shift basic p_2?
        # No: shift(a) is not a delta operator when a contributes a constant
        # term, so bind a through abel instead: p_2 = x(x-2b) at b=1.
        doc = run_json(capsys, "seq", "--op", "abel(b)", "--param", "b=1", "--n", "2")
        assert doc["result"]["rows"][0]["coeffs"] == {"1": "-2", "2": "1"}

    def test_last_row_of_the_window(self, capsys):
        # at the default order 16, p_15 is determined: it equals the row
        # at order 24; p_16 is refused
        doc = run_json(capsys, "seq", "--op", "exp(D)-1", "--n", "15")
        deeper = run_json(capsys, "seq", "--op", "exp(D)-1", "--n", "15", "--order", "24")
        assert doc["result"]["rows"] == deeper["result"]["rows"]
        assert doc["result"]["rows"][0]["coeffs"]["15"] == "1"
        code, out, err = run_cli(capsys, "seq", "--op", "exp(D)-1", "--n", "16")
        assert (code, out) == (3, "")
        assert "truncation too small" in err

    def test_refusal_names_the_order_needed(self, capsys):
        # row 20 needs the operator to order 21; the default is 16
        code, out, err = run_cli(capsys, "seq", "--op", "exp(D)-1", "--n", "20")
        assert (code, out) == (3, "")
        assert "truncation too small" in err
        assert "row 20 needs order 21, given 16; raise --order" in err

    def test_range_and_n_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "seq", "--op", "D", "--n", "1", "--range", "0..2"
        )
        assert code == 2
        assert "not both" in err


class TestLogseqCommand:
    def test_reciprocal_window(self, capsys):
        # [DERIVED] the degree -1 element of the forward-difference log
        # sequence matches the expansion of 1/(x+1) off x = infinity:
        # alternating unit coefficients.
        doc = run_json(
            capsys, "logseq", "--op", "exp(D)-1", "--n", "-1", "--depth", "5"
        )
        row = doc["result"]["rows"][0]
        assert row["coeffs"] == {"-1": "1", "-2": "-1", "-3": "1", "-4": "-1", "-5": "1"}
        assert row["basis"] == "lambda_k^(1)"
        assert row["top"] == -1
        assert row["floor"] == -5
        assert row["order_t"] == 1

    def test_refusal_names_the_order_needed(self, capsys):
        # a window of depth 20 needs the operator to order 21; the default
        # working order is 16, raised with --order
        code, out, err = run_cli(capsys, "logseq", "--op", "exp(D)-1", "--n", "0", "--depth", "20")
        assert (code, out) == (3, "")
        assert "truncation too small" in err
        assert "needs order 21, given 16" in err and "--order" in err
        doc = run_json(capsys, "logseq", "--op", "exp(D)-1", "--n", "0", "--depth", "20", "--order", "21")
        assert doc["result"]["rows"][0]["floor"] == -19

    def test_window_fields_present(self, capsys):
        # negative range bounds need the --range=A..B spelling
        doc = run_json(capsys, "logseq", "--op", "D", "--range=-2..2")
        for row in doc["result"]["rows"]:
            assert set(row) == {"n", "basis", "coeffs", "floor", "top", "order_t"}


class TestExpandCommand:
    def test_shift_in_forward_difference(self, capsys):
        # [DERIVED] E^3 = sum_k C(3,k) Delta^k so the k-th coefficient in
        # the k!-normalized expansion is the falling factorial (3)_k
        doc = run_json(
            capsys,
            "expand", "--op", "shift(a)", "--op2", "exp(D)-1",
            "--param", "a=3", "--n", "5",
        )
        assert doc["result"]["coefficients"] == {
            "0": "1", "1": "3", "2": "6", "3": "6", "4": "0", "5": "0",
        }

    def test_negative_power_below_minus_one(self, capsys):
        # [DERIVED] 1/log(1+t)^2 = t^-2 + t^-1 + 1/12 - t^2/240 + t^3/240,
        # so the k!-normalized coefficients are 1/12, 0, -1/120, 1/40
        doc = run_json(capsys, "expand", "--op", "D^-2", "--op2", "exp(D)-1", "--n", "3")
        assert doc["result"]["coefficients"] == {
            "0": "1/12", "1": "0", "2": "-1/120", "3": "1/40",
        }

    @pytest.mark.parametrize("op", ["D^100000", "(D+D^2)^100000"])
    def test_high_power_past_the_window(self, capsys, monkeypatch, op):
        # both vanish below D^16 in the forward-difference basis; composing
        # costs a few products, not one per exponent of the outer series:
        # the power table reaches the one outer power by repeated squaring
        calls, kernel_calls = [], []
        mul, mul_trunc = TruncatedSeries.__mul__, series._mul_trunc

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        def kernel_counted(*args):
            kernel_calls.append(1)
            return mul_trunc(*args)

        monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
        monkeypatch.setattr(series, "_mul_trunc", kernel_counted)
        doc = run_json(capsys, "expand", "--op", op, "--op2", "exp(D)-1", "--n", "6")
        assert set(doc["result"]["coefficients"].values()) == {"0"}
        assert len(calls) < 40
        assert len(kernel_calls) < 100

    def test_first_outer_power_two_reaches_past_the_order(self, capsys):
        # D^2 in the forward-difference basis reads g^2 for g = log(1+t),
        # known one order past g itself: coefficient 16 at the default
        # order 16 equals the one at order 24
        doc = run_json(capsys, "expand", "--op", "D^2", "--op2", "exp(D)-1", "--n", "16")
        assert doc["result"]["coefficients"]["16"] == "8678326003200"
        deeper = run_json(capsys, "expand", "--op", "D^2", "--op2", "exp(D)-1",
                          "--n", "16", "--order", "24")
        assert doc["result"] == deeper["result"]

    def test_refusal_names_the_order_needed(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--op", "D^2", "--op2", "exp(D)-1", "--n", "17")
        assert (code, out) == (3, "")
        assert "expansion order exceeds determined window" in err
        assert "coefficient 17 of the composite needs order 18, given 17" in err
        assert err.endswith("; raise --order\n")

    def test_default_basis_is_derivative(self, capsys):
        # [TRIVIAL] expanding exp(D) in powers of D gives all ones
        doc = run_json(capsys, "expand", "--op", "exp(D)", "--n", "4")
        assert doc["result"]["basis"] == "D"
        assert set(doc["result"]["coefficients"].values()) == {"1"}


class TestInvertCommand:
    def test_tree_function_coefficients(self, capsys):
        # [DERIVED] inverse of t e^t has coefficients (-1)^(k-1) k^(k-1)/k!
        doc = run_json(capsys, "invert", "--op", "D*exp(D)", "--n", "6")
        assert doc["result"]["coefficients"] == {
            "1": "1", "2": "-1", "3": "3/2", "4": "-8/3", "5": "125/24", "6": "-54/5",
        }
        assert doc["result"]["cross_check"] == "match"

    def test_default_k_max_tracks_order(self, capsys):
        doc = run_json(capsys, "invert", "--op", "exp(D)-1", "--order", "10")
        assert sorted(map(int, doc["result"]["coefficients"])) == list(range(1, 9))

    def test_certificate_rejects_wrong_coefficients(self, capsys, monkeypatch):
        # a coefficient list that is not the inverse fails f(g(t)) = t
        def corrupted(*args):
            coeffs = lagrange_inversion(*args)
            coeffs[2] += 1
            return coeffs

        monkeypatch.setattr("umbra.cli.lagrange_inversion", corrupted)
        code, out, err = run_cli(capsys, "invert", "--op", "D*exp(D)", "--n", "6")
        assert code == 4
        assert out == ""
        assert "f(g(t)) = t at t^3" in err
        assert "Newton" not in err


    def test_refusal_names_the_order_needed(self, capsys):
        code, out, err = run_cli(capsys, "invert", "--op", "exp(D)-1", "--n", "16")
        assert (code, out) == (3, "")
        assert "k_max exceeds determined window" in err
        assert "coefficient 16 of the composite needs order 17, given 16" in err
        assert err.endswith("; raise --order\n")


class TestConnectCommand:
    def test_upper_to_lower_closed_form(self, capsys):
        # [DERIVED] row n=4 of the lower-in-terms-of-upper matrix:
        # c_{4,4-k} = (-1)^k C(3,k) 4!/(4-k)!
        doc = run_json(
            capsys, "connect", "--op", "1-exp(-D)", "--op2", "exp(D)-1", "--n", "4"
        )
        assert doc["result"]["rows"][4]["coeffs"] == {
            "1": "-24", "2": "36", "3": "-12", "4": "1",
        }

    def test_identity_when_bases_agree(self, capsys):
        doc = run_json(capsys, "connect", "--op", "D", "--op2", "D", "--n", "3")
        for n, row in enumerate(doc["result"]["rows"]):
            assert row["coeffs"] == ({str(n): "1"} if n else {"0": "1"})


    def test_refusal_names_the_order_needed(self, capsys):
        # the bridge series is known to the lesser of the two orders
        code, out, err = run_cli(capsys, "connect", "--op", "1-exp(-D)", "--op2", "exp(D)-1",
                                 "--n", "20", "--order", "18")
        assert (code, out) == (3, "")
        assert "row 20 needs order 21, given 18; raise --order" in err


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite",
        ["abel", "vandermonde", "pincherle", "logbinomial",
         "connection_upper_lower", "golden"],
    )
    def test_suites_pass(self, capsys, suite):
        doc = run_json(capsys, "verify", "--suite", suite, "--n", "5", "--depth", "8")
        assert doc["result"]["status"] == "pass"
        assert doc["result"]["checks"] > 0
        assert doc["status"] == "ok"

    def test_numeric_suite_reports_differences(self, capsys):
        doc = run_json(capsys, "verify", "--suite", "abel_numeric")
        result = doc["result"]
        assert result["status"] == "pass"
        assert float(result["difference_1"]) < 1e-7
        assert float(result["difference_2"]) == 0.0

    @pytest.mark.parametrize("param", ["b=0", "tol=0", "tol=-1/2"])
    def test_numeric_suite_refuses_degenerate_parameters(self, capsys, param):
        # b = 0 and a tolerance no difference can meet are refused, not
        # reported as failures of the identities
        code, out, err = run_cli(capsys, "verify", "--suite", "abel_numeric", "--param", param)
        assert (code, out) == (3, "")
        assert "abel_numeric requires" in err

    def test_numeric_suite_out_of_reach_builds_no_window(self, capsys):
        # 1.01^(-t-1) stays above 1e-7 for every t up to 256, so identity 2
        # fails before any window of its doubled term counts is built
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--suite", "abel_numeric", "--param",
                               "a=1/100", "--param", "b=1/2", "--param", "x=101/100")
        assert time.perf_counter() - start < 1
        assert code == 4
        result = json.loads(out)["result"]
        assert result["witness"] == {"identity": 2, "kind": "no convergence"}
        assert (result["terms"], result["difference_2"]) == (384, None)

    def test_numeric_suite_doubles_the_term_count(self, capsys):
        # 2^(-t-1) < 1e-7 first at t = 24, the second doubling of depth 6
        doc = run_json(capsys, "verify", "--suite", "abel_numeric", "--depth", "6",
                       "--param", "a=1/100", "--param", "b=1/10", "--param", "x=2")
        result = doc["result"]
        assert (result["status"], result["terms"]) == ("pass", 24)
        assert result["checks"] == 7 + 1 + 1 + 2

    def test_corrupt_flag_reports_witness(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "golden", "--corrupt", "--depth", "8"
        )
        assert code == 4
        witness = json.loads(out)["result"]["witness"]
        assert witness


class TestEvalCommand:
    def test_digamma_value(self, capsys):
        # [DERIVED] the degree-0 log element of the forward difference at
        # x0 = 10 is psi(11); high-precision reference value frozen from
        # the Bernoulli asymptotic with an independent tail bound.
        doc = run_json(
            capsys,
            "eval", "--op", "exp(D)-1", "--n", "0", "--x0", "10",
            "--depth", "12", "--prec", "25",
        )
        value = doc["result"]["value"]
        assert value.startswith("2.35175258906")
        bound = doc["result"]["tail_bound"]
        assert bound is not None and float(bound) < 1e-10

    def test_at_one(self, capsys):
        # ln 1 = 0, and (log x)^0 is still 1 there
        doc = run_json(capsys, "eval", "--op", "exp(D)-1", "--n", "0", "--x0", "1")
        assert doc["result"]["x0"] == "1"

    def test_rational_point(self, capsys):
        # [TRIVIAL] the degree -2 log element of D is x^(-2), an exact
        # window, so the value is the rational (7/2)^(-2) = 4/49
        doc = run_json(capsys, "eval", "--op", "D", "--n", "-2", "--x0", "7/2")
        assert abs(float(doc["result"]["value"]) - 4 / 49) < 1e-15
        assert doc["result"]["tail_bound"] is None

    def test_decimal_overflow_exits_three(self, capsys):
        # the lowest term, its coefficient times 10^999998, is past the decimal
        # range (exponents up to 999999): a refusal naming the degree and the
        # point, not a traceback
        code, out, err = run_cli(
            capsys, "eval", "--op", "exp(D)-1", "--n", "1000000", "--depth", "3", "--x0", "10"
        )
        assert (code, out) == (3, "")
        assert err == "error: degree 999998 at x0 = 10 overflows the decimal range\n"

    @pytest.mark.parametrize("n, x0, degree", [("-2000000", "10", -2000002), ("1000000", "1/10", 1000000)])
    def test_decimal_underflow_exits_three(self, capsys, n, x0, degree):
        # 10^(-2000002) is below the decimal range (exponents down to about
        # -10^6): a refusal, not a value printed as 0E-1000026. Every power is
        # taken before any expansion, so degree 10^6 at x0 = 1/10 is refused
        # before H_999998 is computed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "--op", "exp(D)-1", "--n", n, "--x0", x0, "--depth", "3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == f"error: degree {degree} at x0 = {x0} underflows the decimal range\n"

    @pytest.mark.parametrize("n", ["-1000000", "-10000", "10000"])
    def test_deep_degrees_are_fast(self, capsys, n):
        # a negative degree of order 1 needs no product at all; a positive one
        # needs H_n, by binary splitting
        start = time.perf_counter()
        doc = run_json(capsys, "eval", "--op", "exp(D)-1", "--n", n, "--x0", "2", "--depth", "2")
        assert time.perf_counter() - start < 1
        assert doc["result"]["floor"] == int(n) - 1

    def test_moderate_degree_is_fast(self, capsys):
        # the Stirling rows behind degree 1000 are cut at the window's order
        start = time.perf_counter()
        doc = run_json(capsys, "eval", "--op", "exp(D)-1", "--n", "1000", "--depth", "3", "--x0", "10")
        assert time.perf_counter() - start < 1
        # the value the full series-product rows gave, in about 15 s
        assert doc["result"]["value"] == "-6.454279532322742649247184680E+1009"
        assert doc["result"]["floor"] == 998


class TestInputErrors:
    """Malformed flags and config values exit 2 with a one-line message."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_x0_zero_denominator(self, capsys):
        err = self.assert_usage_error(
            capsys, "eval", "--op", "exp(D)-1", "--x0", "1/0"
        )
        assert "--x0" in err

    @pytest.mark.parametrize("prec", ["0", "-3"])
    def test_nonpositive_prec(self, capsys, prec):
        err = self.assert_usage_error(
            capsys, "eval", "--op", "exp(D)-1", "--x0", "10", "--prec", prec
        )
        assert "--prec" in err

    @pytest.mark.parametrize("key", ["order", "depth"])
    def test_non_integer_config_value(self, capsys, tmp_path, key):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text(f"{key}=abc\n")
        err = self.assert_usage_error(
            capsys, "logseq", "--op", "D", "--n", "1", "--config", str(cfg)
        )
        assert f"{key} must be an integer" in err

    @pytest.mark.parametrize("pair", ["b=1/0", "b"])
    def test_malformed_param(self, capsys, pair):
        err = self.assert_usage_error(
            capsys, "seq", "--op", "D", "--param", pair
        )
        assert "--param" in err

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_nonpositive_order_flag(self, capsys, order):
        err = self.assert_usage_error(
            capsys, "seq", "--op", "exp(D)-1", f"--order={order}"
        )
        assert f"order must be a positive integer, got {order}" in err

    def test_nonpositive_order_config(self, capsys, tmp_path):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("order = 0\n")
        err = self.assert_usage_error(
            capsys, "seq", "--op", "D", "--config", str(cfg)
        )
        assert "order must be a positive integer, got 0" in err

    @pytest.mark.parametrize(
        "value, message",
        [("-2", "order must be a positive integer, got -2"), ("abc", "UMBRA_ORDER must be an integer")],
    )
    def test_bad_env_order(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("UMBRA_ORDER", value)
        err = self.assert_usage_error(capsys, "seq", "--op", "D")
        assert message in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_verify_size(self, capsys, n):
        # neither a silent default size nor a "pass" after 0 checks
        err = self.assert_usage_error(
            capsys, "verify", "--suite", "vandermonde", "--n", n
        )
        assert "--n" in err

    @pytest.mark.parametrize("argv, cap", [
        (("verify", "--suite", "vandermonde", "--n", "65"), "64"),
        (("eval", "--op", "exp(D)-1", "--x0", "10", "--prec", "10001"), "10000"),
    ])
    def test_size_above_its_cap(self, capsys, argv, cap):
        err = self.assert_usage_error(capsys, *argv)
        assert f"{argv[-2]}: must be at most the cap {cap}" in err

    def test_sizes_at_their_caps_are_accepted(self):
        # parsed only: verify --n 64 and eval --prec 10000 take seconds to run
        parser = _build_parser()
        assert parser.parse_args(["verify", "--suite", "abel", "--n", "64"]).n == 64
        args = parser.parse_args(["eval", "--op", "D", "--x0", "2", "--prec", "10000"])
        assert args.prec == 10000

    @pytest.mark.parametrize("command, text", [("verify", "at most 64"), ("eval", "at most 10000")])
    def test_help_states_the_cap(self, capsys, command, text):
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0
        assert text in " ".join(out.split())

    @pytest.mark.parametrize("depth", ["65", "200"])
    def test_verify_depth_above_its_cap(self, capsys, depth):
        # golden at depth 200 runs past 30 s; the cap refuses it at once
        start = time.perf_counter()
        err = self.assert_usage_error(capsys, "verify", "--suite", "golden", "--depth", depth)
        assert time.perf_counter() - start < 1
        assert f"verify depth must be at most the cap 64, got {depth}" in err

    def test_verify_depth_from_config_above_its_cap(self, capsys, tmp_path):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("depth = 65\n")
        err = self.assert_usage_error(
            capsys, "verify", "--suite", "abel_numeric", "--config", str(cfg)
        )
        assert "verify depth must be at most the cap 64, got 65" in err

    def test_verify_depth_at_its_cap_reaches_the_suite(self, capsys, monkeypatch):
        # the suite itself is stubbed: golden at depth 64 takes about a second
        depths = []

        def suite(name, **kwargs):
            depths.append(kwargs["depth"])
            return {"suite": name, "status": "pass"}

        monkeypatch.setattr(cli, "run_suite", suite)
        doc = run_json(capsys, "verify", "--suite", "golden", "--depth", "64")
        assert doc["status"] == "ok" and depths == [64]

    def test_verify_help_states_the_depth_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--help")
        assert code == 0
        assert "depth (--depth, or depth in --config) is at most 64" in " ".join(out.split())

    @pytest.mark.parametrize("command", ["logseq", "eval"])
    @pytest.mark.parametrize("depth", ["301", "600"])
    def test_log_depth_above_its_cap(self, capsys, command, depth):
        # eval at depth 600 takes about 11 s; the cap refuses it at once
        extra = ("--x0", "200") if command == "eval" else ()
        start = time.perf_counter()
        err = self.assert_usage_error(
            capsys, command, "--op", "exp(D)-1", "--n", "0", *extra,
            "--depth", depth, "--order", "601",
        )
        assert time.perf_counter() - start < 1
        assert f"{command} depth must be at most the cap 300, got {depth}" in err

    @pytest.mark.parametrize("command", ["logseq", "eval"])
    def test_log_depth_from_config_above_its_cap(self, capsys, tmp_path, command):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("depth = 301\n")
        extra = ("--x0", "200") if command == "eval" else ()
        err = self.assert_usage_error(
            capsys, command, "--op", "exp(D)-1", "--n", "0", *extra, "--config", str(cfg)
        )
        assert f"{command} depth must be at most the cap 300, got 301" in err

    @pytest.mark.parametrize("command", ["logseq", "eval"])
    def test_log_depth_at_its_cap_reaches_the_window(self, capsys, monkeypatch, command):
        # the window itself is stubbed: eval at depth 300 takes about a second
        depths = []

        def window(op, n, depth):
            depths.append(depth)
            return logarithmic.HarmonicLogSeries({n: Rat(1)}, n - depth + 1)

        monkeypatch.setattr(cli, "log_sequence", window)
        extra = ("--x0", "200") if command == "eval" else ()
        doc = run_json(capsys, command, "--op", "exp(D)-1", "--n", "0", *extra, "--depth", "300")
        assert doc["status"] == "ok" and doc["depth"] == 300 and depths == [300]

    @pytest.mark.parametrize("command", ["logseq", "eval"])
    def test_log_help_states_the_depth_cap(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0
        assert "depth (--depth, or depth in --config) is at most 300" in " ".join(out.split())

    @pytest.mark.parametrize("command", ["logseq", "eval"])
    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_nonpositive_depth_flag(self, capsys, command, depth):
        extra = ("--x0", "10") if command == "eval" else ()
        err = self.assert_usage_error(
            capsys, command, "--op", "exp(D)-1", "--n", "0", *extra,
            "--depth", depth,
        )
        assert "depth must be a positive integer" in err

    @pytest.mark.parametrize("command", ["logseq", "eval"])
    def test_nonpositive_depth_config(self, capsys, tmp_path, command):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("depth = 0\n")
        extra = ("--x0", "10") if command == "eval" else ()
        err = self.assert_usage_error(
            capsys, command, "--op", "exp(D)-1", "--n", "0", *extra,
            "--config", str(cfg),
        )
        assert "depth must be a positive integer" in err


    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_invert_size(self, capsys, n):
        # no "match" certificate over an empty coefficient list
        err = self.assert_usage_error(
            capsys, "invert", "--op", "D*exp(D)", f"--n={n}"
        )
        assert "--n" in err

    def test_invert_order_leaving_no_coefficient(self, capsys):
        err = self.assert_usage_error(
            capsys, "invert", "--op", "D*exp(D)", "--order", "2"
        )
        assert "--order 3" in err

    @pytest.mark.parametrize("command", ["connect", "expand"])
    def test_negative_size(self, capsys, command):
        err = self.assert_usage_error(
            capsys, command, "--op", "exp(D)-1", "--op2", "D", "--n=-1"
        )
        assert "--n" in err

    def test_size_zero_is_valid(self, capsys):
        doc = run_json(capsys, "connect", "--op", "exp(D)-1", "--op2", "D", "--n", "0")
        assert doc["result"]["rows"] == [{"n": 0, "coeffs": {"0": "1"}}]
        doc = run_json(capsys, "expand", "--op", "exp(D)", "--op2", "exp(D)-1", "--n", "0")
        assert doc["result"]["coefficients"] == {"0": "1"}


class TestExactPolynomialDelta:
    """An exact delta polynomial is truncated at the working order, so its
    reciprocal and compositional inverse are determined."""

    def test_seq_is_basic_sequence(self, capsys):
        doc = run_json(capsys, "seq", "--op", "D+D^2", "--range", "0..6")
        polys = [
            Polynomial([Rat(row["coeffs"].get(str(d), "0")) for d in range(row["n"] + 1)])
            for row in doc["result"]["rows"]
        ]
        f = from_coeffs([0, 1, 1], order=INF)
        assert polys[0] == Polynomial([1])
        for n in range(1, 7):
            assert polys[n].degree == n
            assert polys[n].evaluate(0) == 0
            assert apply_to_polynomial(f, polys[n]) == polys[n - 1].scale(n)

    def test_invert_gives_signed_catalan_numbers(self, capsys):
        # [DERIVED] t + t^2 inverts to (sqrt(1+4t) - 1)/2, with coefficients
        # (-1)^(k-1) C_(k-1)
        doc = run_json(capsys, "invert", "--op", "D+D^2")
        want = {str(k): str((-1) ** (k - 1) * comb(2 * k - 2, k - 1) // k) for k in range(1, 15)}
        assert doc["result"]["coefficients"] == want
        assert doc["result"]["cross_check"] == "match"

    def test_logseq_residual(self, capsys):
        # [DERIVED] p_(-1) = f'(D) lambda_(-1) = (1 + 2D) lambda_(-1)
        # = lambda_(-1) - 2 lambda_(-2), since D lambda_(-1) = -lambda_(-2)
        doc = run_json(capsys, "logseq", "--op", "D+D^2", "--n=-1", "--depth", "8")
        (row,) = doc["result"]["rows"]
        assert row["coeffs"] == {"-2": "-2", "-1": "1"}
        assert row["floor"] == -8


class TestExactProductsAreBounded:
    """Exact products and powers are computed only up to the working
    order, so a few bytes of input cannot buy a product of huge degree."""

    def expand(self, capsys, op):
        doc = run_json(capsys, "expand", "--op", op, "--op2", "exp(D)-1", "--n", "6")
        return doc["result"]["coefficients"]

    def test_product_of_high_degree_binomials(self, capsys):
        # (1 + t^100000)^2 agrees with 1 below the working order
        want = {str(k): "1" if k == 0 else "0" for k in range(7)}
        assert self.expand(capsys, "(1+D^100000)*(1+D^100000)") == want

    def test_high_power_of_binomial(self, capsys):
        # [DERIVED] the binomial theorem, cut at the working order 16
        target = TruncatedSeries({2 * j: comb(3000, j) for j in range(8)}, 16)
        basis = catalog("forward_difference", order=16)
        want = expand_in_basis(target, basis, k_max=6)
        got = self.expand(capsys, "(1+D^2)^3000")
        assert got == {str(k): str(c) for k, c in enumerate(want)}

    @pytest.mark.parametrize(
        "op, order",
        [("(D^17+D^18)/D^16", "16"), ("(D^3+D^4)/D^2", "4"), ("(D^3+D^4)/D^2", "3")],
    )
    def test_cut_leaves_room_for_a_divisor(self, capsys, op, order):
        # the quotient is D + D^2 exactly, and the command says so at every
        # working order, failing only where D + D^2 itself fails
        code, out, err = run_cli(capsys, "seq", "--op", op, "--order", order, "--n", "2")
        want = run_cli(capsys, "seq", "--op", "D+D^2", "--order", order, "--n", "2")
        assert (code, err) == want[::2]
        if code == 0:
            rows = json.loads(out)["result"]["rows"]
            assert rows == json.loads(want[1])["result"]["rows"]

    def test_cut_leaves_room_for_a_negative_power(self, capsys):
        # [DERIVED] (1+t)^20 / t^10 = sum_j C(20, j) t^(j-10); the Hurwitz
        # coefficient of D^k / k! is k! C(20, k+10)
        doc = run_json(capsys, "expand", "--op", "(1+D)^20/D^10", "--op2", "D", "--n", "6")
        want = {str(k): str(factorial(k) * comb(20, k + 10)) for k in range(7)}
        assert doc["result"]["coefficients"] == want


class TestConfigPrecedence:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("order = 8  # small window\nformat = csv\n")
        code, out, _ = run_cli(
            capsys, "seq", "--op", "D", "--n", "1", "--config", str(cfg)
        )
        assert code == 0
        assert out.splitlines()[0] == "n,degree,coefficient"

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("format = csv\n")
        doc = run_json(
            capsys, "seq", "--op", "D", "--n", "1",
            "--config", str(cfg), "--format", "json",
        )
        assert doc["command"] == "seq"

    def test_env_sets_order(self, capsys, monkeypatch):
        monkeypatch.setenv("UMBRA_ORDER", "9")
        doc = run_json(capsys, "seq", "--op", "D", "--n", "1")
        assert doc["order"] == 9

    def test_config_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("UMBRA_ORDER", "9")
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("order = 11\n")
        doc = run_json(capsys, "seq", "--op", "D", "--n", "1", "--config", str(cfg))
        assert doc["order"] == 11

    def test_bad_config_key_is_two(self, capsys, tmp_path):
        cfg = tmp_path / "umbra.cfg"
        cfg.write_text("colour = red\n")
        code, _, err = run_cli(
            capsys, "seq", "--op", "D", "--n", "1", "--config", str(cfg)
        )
        assert code == 2
        assert "unknown config key" in err


class TestFormats:
    def test_latex_fractions(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--op", "abel(1/3)", "--n", "2", "--format", "latex"
        )
        assert code == 0
        assert "- \\frac{2}{3}\\,x" in out
        assert "x^{2}" in out

    def test_latex_connect_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "connect", "--op", "D", "--op2", "D", "--n", "2",
            "--format", "latex",
        )
        assert code == 0
        assert out.startswith("\\begin{pmatrix}")

    def test_plain_polynomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "seq", "--op", "exp(D)-1", "--n", "3", "--format", "plain"
        )
        assert code == 0
        assert out.strip() == "p_3(x) = x^3 - 3*x^2 + 2*x"

    @pytest.mark.parametrize("argv", [
        *(("verify", "--suite", name, *flag) for name in SUITE_NAMES for flag in ((), ("--corrupt",))),
        ("verify", "--suite", "abel_numeric", "--param", "x=3"),
        ("eval", "--op", "exp(D)-1", "--n", "0", "--x0", "10"),
        ("eval", "--op", "D*exp(D)", "--n", "-1", "--x0", "7/2"),
    ], ids=" ".join)
    def test_latex_key_value_lines_escape_specials(self, capsys, argv):
        # every line is \text{key}: value \\, with \ { } _ ^ % & # $ ~ escaped in both
        code, out, _ = run_cli(capsys, *argv, "--format", "latex")
        assert code in (0, 4) and out
        for line in out.splitlines():
            match = re.fullmatch(r"\\text\{(.*?)(?<!\\)\}: (.*) \\\\", line)
            assert match, line
            for text in match.groups():
                for escape in (r"\textbackslash{}", r"\textasciicircum{}", r"\textasciitilde{}"):
                    text = text.replace(escape, "")
                assert not re.search(r"[\\{}_^%&#$~]", re.sub(r"\\[{}_%&#$]", "", text)), line

    def test_latex_witness_is_sorted_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "golden", "--depth", "3", "--corrupt", "--format", "latex"
        )
        assert code == 4
        assert '\\text{witness}: \\{"got": "1", "kind": "newton", "m": 2\\} \\\\' in out.splitlines()

    def test_csv_expand(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--op", "exp(D)", "--n", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["k,coefficient", "0,1", "1,1", "2,1"]


@pytest.mark.usefixtures("src_on_pythonpath")
class TestSubprocessControls:
    """Real-process checks so the exit codes are observed end to end."""

    def run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "umbra.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )

    def test_parse_error_process(self):
        proc = self.run("seq", "--op", "exp(")
        assert proc.returncode == 2
        assert "position 5" in proc.stderr

    def test_corrupt_verify_process(self):
        proc = self.run("verify", "--suite", "abel", "--corrupt", "--n", "3")
        assert proc.returncode == 4
        assert json.loads(proc.stdout)["result"]["status"] == "fail"

    def test_clean_verify_process(self):
        proc = self.run("verify", "--suite", "abel", "--n", "3")
        assert proc.returncode == 0

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # both cost start-up time in every process; the parse nodes are
        # NamedTuples so that neither is needed
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, umbra.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_byte_determinism_across_processes(self):
        args = ("logseq", "--op", "abel(1/3)", "--range=-2..2", "--depth", "6")
        first = self.run(*args)
        second = self.run(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


# -- fuzzing ----------------------------------------------------------------

FUZZ_OPS = (
    "exp(D)-1", "D", "D+D^2", "D-D^2/2", "D*exp(b*D)", "1-exp(-D)", "log(1+D)",
    "laguerre", "abel(b)", "shift(a)", "D^2", "1/D", "D^0", "0", "exp(D", "foo(D)",
)
FUZZ_PARAMS = ("b=1/2", "a=-3", "b=0", "b=1/0", "b", "a=x", "b=0.25")
FUZZ_X0 = ("10", "7/2", "0", "-1", "1/0", "abc", "1e3", "0.5")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("seq", "logseq", "expand", "invert", "connect", "verify", "eval")))
    argv = [command]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITE_NAMES))]
    else:
        argv += ["--op", draw(st.sampled_from(FUZZ_OPS))]
    if command in ("expand", "connect"):
        argv += ["--op2", draw(st.sampled_from(FUZZ_OPS))]
    if command == "eval":
        argv.append(f"--x0={draw(st.sampled_from(FUZZ_X0))}")
    if draw(st.booleans()):
        argv.append(f"--order={draw(st.integers(-2, 20))}")
    if draw(st.booleans()):
        argv.append(f"--n={draw(st.integers(-8, 8))}")
    if draw(st.booleans()):
        argv.append(f"--depth={draw(st.integers(-1, 8))}")
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "csv", "latex", "plain")))]
    for pair in draw(st.lists(st.sampled_from(FUZZ_PARAMS), max_size=2)):
        argv += ["--param", pair]
    return argv


@given(cli_argv())
@settings(max_examples=50, deadline=None)
def test_fuzz_every_argv_ends_in_a_documented_exit_code(argv):
    # an uncaught exception here is what a shell would see as a traceback
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
