# Tests for the operator-expression parser: grammar, error positions,
# pretty-printer round trips, and elaboration to formal series.
import sys
from fractions import Fraction as Rat
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.errors import ParseError, PreconditionError
from umbra.numbers import bernoulli
from umbra.operators import catalog
from umbra.parsing import (
    OPERATOR_NAMES,
    PARAMETER_SLOT,
    BinOp,
    Call,
    Neg,
    Number,
    Pow,
    Symbol,
    elaborate,
    parse_operator,
    pretty,
)
from umbra.series import (
    INF,
    TruncatedSeries,
    constant,
    exp_series,
    int_pow,
    log_series,
    monomial,
    reciprocal,
)


class TestGrammar:
    def test_precedence_shape(self):
        tree = parse_operator("D + 2 * D^2")
        assert tree == BinOp(
            "+", Symbol("D"), BinOp("*", Number(Rat(2)), Pow(Symbol("D"), 2))
        )

    def test_left_associativity(self):
        tree = parse_operator("D - D - D")
        assert tree == BinOp("-", BinOp("-", Symbol("D"), Symbol("D")), Symbol("D"))

    def test_parentheses_group(self):
        tree = parse_operator("D * (D + 1)")
        assert tree == BinOp("*", Symbol("D"), BinOp("+", Symbol("D"), Number(Rat(1))))

    def test_unary_minus_binds_to_atom(self):
        assert parse_operator("-D^2") == Pow(Neg(Symbol("D")), 2)

    def test_negative_exponent(self):
        assert parse_operator("D^-1") == Pow(Symbol("D"), -1)

    def test_call_with_expression_argument(self):
        tree = parse_operator("exp(b*D)", {"b": Rat(1, 2)})
        assert tree == Call("exp", (BinOp("*", Symbol("b"), Symbol("D")),))

    def test_parametric_operator_call(self):
        assert parse_operator("abel(1/2)") == Call(
            "abel", (BinOp("/", Number(Rat(1)), Number(Rat(2))),)
        )

    def test_whitespace_ignored(self):
        assert parse_operator("  exp( D ) - 1 ") == parse_operator("exp(D)-1")


class TestParseErrors:
    def test_dangling_call_reports_position(self):
        # "exp(" fails at the position just past the text
        with pytest.raises(ParseError) as err:
            parse_operator("exp(")
        assert err.value.position == 5
        assert err.value.expected

    def test_unexpected_token_position(self):
        with pytest.raises(ParseError) as err:
            parse_operator("D + )")
        assert err.value.position == 5

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse_operator("D D")
        assert err.value.position == 3

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            parse_operator("D & D")
        assert err.value.position == 3

    def test_non_ascii_digit(self):
        # str.isdigit() holds for superscripts, which int() does not read
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_operator("D^²")
        assert err.value.position == 3

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs the interpreter's default int-to-str limit of 4300 digits",
    )
    @pytest.mark.parametrize("text, position", [("2*D+" + "1" * 4400, 5), ("D^-" + "1" * 4400, 4)])
    def test_literal_past_the_digit_limit(self, text, position):
        with pytest.raises(ParseError, match="number literal of 4400 digits") as err:
            parse_operator(text)
        assert err.value.position == position

    def test_unbound_parameter(self):
        with pytest.raises(ParseError, match="unbound parameter 'b'"):
            parse_operator("D*exp(b*D)")
        parse_operator("D*exp(b*D)", {"b": Rat(1)})

    def test_unknown_identifier_in_call(self):
        with pytest.raises(ParseError, match="unknown identifier 'sinh'"):
            parse_operator("sinh(D)")

    def test_arity_errors(self):
        with pytest.raises(ParseError, match="takes no arguments"):
            parse_operator("delta(2)")
        with pytest.raises(ParseError, match="exactly one argument"):
            parse_operator("exp(D, D)")
        with pytest.raises(ParseError, match="requires an argument list"):
            parse_operator("exp + 1")

    def test_missing_exponent(self):
        with pytest.raises(ParseError) as err:
            parse_operator("D^D")
        assert "integer exponent" in "".join(err.value.expected)

    def test_message_carries_position_text(self):
        with pytest.raises(ParseError, match="position 5"):
            parse_operator("exp(")


def atoms():
    return st.one_of(
        st.integers(min_value=0, max_value=30).map(lambda n: Number(Rat(n))),
        st.sampled_from(
            [Symbol("D"), Symbol("delta"), Symbol("nabla"), Symbol("b")]
        ),
    )


def trees(depth):
    if depth == 0:
        return atoms()
    sub = trees(depth - 1)
    return st.one_of(
        atoms(),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        sub.map(Neg),
        st.tuples(sub, st.integers(min_value=-4, max_value=4)).map(
            lambda t: Pow(t[0], t[1])
        ),
        st.tuples(st.sampled_from(["exp", "log"]), sub).map(
            lambda t: Call(t[0], (t[1],))
        ),
        sub.map(lambda a: Call("abel", (a,))),
    )


def _exact_elaborate(node, params, order):
    """Oracle: elaboration that keeps every exact product and power exact
    (the rule before products were cut at the working order). Only
    reciprocals of exact non-monomials and the series functions are
    computed at the working order."""

    def go(node):
        if isinstance(node, Number):
            return constant(node.value)
        if isinstance(node, Symbol):
            if node.name == "D":
                return monomial(1)
            if node.name in OPERATOR_NAMES:
                return catalog(OPERATOR_NAMES[node.name], params, order).series
            return constant(params[node.name])
        if isinstance(node, Call):
            if node.name in ("exp", "log"):
                fn = exp_series if node.name == "exp" else log_series
                return fn(go(node.args[0]), order=order)
            arg = go(node.args[0])
            if arg.order != INF or set(arg.coeffs) - {0}:
                raise PreconditionError("parameter must be a rational constant")
            bound = dict(params, **{PARAMETER_SLOT[node.name]: arg.coefficient(0)})
            return catalog(OPERATOR_NAMES[node.name], bound, order).series
        if isinstance(node, Neg):
            return -go(node.operand)
        if isinstance(node, Pow):
            base = go(node.base)
            exact = base.order == INF and (node.exponent >= 0 or len(base.coeffs) <= 1)
            return int_pow(base, node.exponent, order=None if exact else order)
        left, right = go(node.left), go(node.right)
        if node.op in "+-":
            return left + right if node.op == "+" else left - right
        if node.op == "/":
            exact = right.order == INF and len(right.coeffs) <= 1
            right = reciprocal(right, order=None if exact else order)
        return left * right

    return go(node)


def cut_trees(depth):
    """Trees whose exact products reach past the working order and meet
    factors of negative valuation, such as (D^17 + D^18) / D^16."""
    power = st.integers(min_value=-3, max_value=24).map(lambda k: Pow(Symbol("D"), k))
    atom = st.one_of(
        power,
        st.tuples(power, power).map(lambda t: BinOp("+", t[0], t[1])),
        st.tuples(power, power).map(lambda t: BinOp("+", t[0], t[1])),
        st.integers(min_value=0, max_value=3).map(lambda n: Number(Rat(n))),
        st.sampled_from([Symbol("delta"), Symbol("b")]),
    )
    if depth == 0:
        return atom
    sub = cut_trees(depth - 1)
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(sub, st.integers(min_value=-2, max_value=3)).map(
            lambda t: Pow(t[0], t[1])
        ),
        sub.map(lambda a: Call("abel", (BinOp("*", Number(Rat(0)), a),))),
    )


class TestPrettyRoundTrip:
    @given(tree=trees(3))
    @settings(max_examples=150, deadline=None)
    def test_pretty_reparses_to_same_tree(self, tree):
        text = pretty(tree)
        assert parse_operator(text, {"b": Rat(1)}) == tree

    def test_sample_renderings(self):
        assert pretty(parse_operator("exp(D)-1")) == "exp(D) - 1"
        assert pretty(parse_operator("D/(exp(D)-1)")) == "D / (exp(D) - 1)"
        assert pretty(parse_operator("(D+1)^2")) == "(D + 1)^2"


class TestElaboration:
    def test_forward_difference_expression(self):
        series = elaborate(parse_operator("exp(D)-1"), order=16)
        assert series == catalog("forward_difference", order=16).series

    def test_abel_expression_with_parameter(self):
        params = {"b": Rat(1, 2)}
        series = elaborate(parse_operator("D*exp(b*D)", params), params, order=16)
        assert series == catalog("abel", params, order=16).series

    def test_abel_inline_parameter(self):
        series = elaborate(parse_operator("abel(1/2)"), order=16)
        assert series == catalog("abel", {"b": Rat(1, 2)}, order=16).series

    def test_shift_inline_parameter(self):
        series = elaborate(parse_operator("shift(-1)"), order=12)
        assert series == catalog("shift", {"a": Rat(-1)}, order=12).series

    def test_bernoulli_generator_coefficients(self):
        # [DERIVED] D/(e^D - 1) = sum B_k D^k / k!
        series = elaborate(parse_operator("D/(exp(D)-1)"), order=16)
        for k in range(0, 14):
            assert series.coefficient(k) == bernoulli(k) / factorial(k)

    def test_rational_arithmetic_stays_exact(self):
        series = elaborate(parse_operator("1/2 + 1/3"), order=16)
        assert series == constant(Rat(5, 6))
        assert series.order == INF

    def test_laurent_powers_allowed(self):
        series = elaborate(parse_operator("D^-1"), order=16)
        assert series == monomial(-1)

    def test_monomial_products_stay_exact(self):
        assert elaborate(parse_operator("2*D*D^2"), order=16) == monomial(3, 2)
        assert elaborate(parse_operator("(3*D)^40/D"), order=16) == monomial(39, 3**40)

    def test_exact_power_stops_at_working_order(self):
        # [DERIVED] (1+t^2)^3000 = sum_j C(3000, j) t^(2j), cut at t^16
        series = elaborate(parse_operator("(1+D^2)^3000"), order=16)
        assert series.order == 16
        assert series.coeffs == {2 * j: comb(3000, j) for j in range(8)}

    def test_exact_product_stops_at_working_order(self):
        series = elaborate(parse_operator("(1+D^100000)*(1+D^100000)"), order=16)
        assert series == TruncatedSeries({0: 1}, 16)
        # a monomial factor shifts the cut instead of widening the work
        series = elaborate(parse_operator("D*(1+D^100000000)"), order=16)
        assert series == TruncatedSeries({1: 1}, 16)

    def test_cut_makes_room_for_negative_valuation(self):
        # the left operand is needed up to t^32 when it is divided by t^16
        series = elaborate(parse_operator("(D^17+D^18)/D^16"), order=16)
        assert series == TruncatedSeries({1: 1, 2: 1}, 16)
        series = elaborate(parse_operator("(D^3+D^4)/D^2"), order=3)
        assert series == TruncatedSeries({1: 1, 2: 1}, 3)
        # [DERIVED] (1+t)^20 / t^10 = sum_j C(20, j) t^(j-10)
        series = elaborate(parse_operator("(1+D)^20/D^10"), order=16)
        assert series == TruncatedSeries({j - 10: comb(20, j) for j in range(21)}, 16)

    def test_cut_makes_room_through_nested_products(self):
        series = elaborate(parse_operator("((D^17+D^18)*(1+D))/D^16"), order=16)
        assert series == TruncatedSeries({1: 1, 2: 2, 3: 1}, 16)
        series = elaborate(parse_operator("((D^17+D^18)/D^20)^2"), order=16)
        assert series == TruncatedSeries({-6: 1, -5: 2, -4: 1}, 16)
        # a divisor is needed far enough for its reciprocal's window
        series = elaborate(parse_operator("1/((D^17+D^18)*(1+D))"), order=16)
        assert series.order == 16
        assert series.coeffs == {-17 + k: (-1) ** k * (k + 1) for k in range(33)}

    def test_cut_keeps_the_leading_term(self):
        # t^34 lies past the working order but is not cut to nothing
        series = elaborate(parse_operator("(D^17+D^18)*(D^17+D^18)"), order=16)
        assert series == TruncatedSeries({34: 1}, 35)

    @pytest.mark.parametrize(
        "arg, value",
        [("(1+D)*(1-D)+D^2", "1"), ("0*(1+D)", "0"), ("(1+D)*(D-D)^1", "0")],
    )
    def test_parameter_stays_exact(self, arg, value):
        # (1+t)(1-t) + t^2 is the constant 1, so abel(...) is abel(1)
        got = elaborate(parse_operator(f"abel({arg})"), order=12)
        assert got == elaborate(parse_operator(f"abel({value})"), order=12)

    @given(tree=cut_trees(3), order=st.integers(min_value=1, max_value=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_elaboration(self, tree, order):
        params = {"b": Rat(1, 2)}
        try:
            want = _exact_elaborate(tree, params, order)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                elaborate(tree, params, order=order)
            return
        got = elaborate(tree, params, order=order)
        if got.order == want.order == INF:
            assert got == want
        else:
            assert got.agrees_with(want)
        assert got.order >= min(want.order, order)

    def test_exact_sums_stay_exact(self):
        series = elaborate(parse_operator("D+D^2"), order=16)
        assert series == TruncatedSeries({1: 1, 2: 1})

    def test_log_inverts_exp(self):
        series = elaborate(parse_operator("log(exp(D)-1+1)"), order=12)
        assert series.agrees_with(monomial(1))

    def test_nonconstant_parameter_rejected(self):
        with pytest.raises(PreconditionError, match="rational constant"):
            elaborate(parse_operator("abel(D)"), order=12)

    def test_unbound_shift_parameter_surfaces(self):
        with pytest.raises(PreconditionError, match="requires parameter 'a'"):
            elaborate(parse_operator("shift"), order=12)

    def test_division_by_zero_series(self):
        with pytest.raises(PreconditionError, match="non-invertible"):
            elaborate(parse_operator("D/(D-D)"), order=12)
