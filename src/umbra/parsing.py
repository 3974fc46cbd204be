"""Parsing of operator expressions for the command line.

Expressions describe formal series in the derivative symbol D: catalog
operators by name (delta, nabla, shift, abel, laguerre, weierstrass,
bernoulli_op), rational constants, bound parameter names, the arithmetic
operations + - * /, integer powers ^, and the series functions exp(...)
and log(...). Example: the forward difference is "exp(D)-1" and the
Bernoulli-number generator is "D/(exp(D)-1)".

Grammar (precedence from loosest to tightest):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?
    atom   := number | 'D' | ident | ident '(' args ')' | '(' expr ')'
            | '-' atom

Parsing and name resolution happen together: every identifier must be D,
a known operator, exp, log, or a bound parameter, so errors carry the
1-based position of the offending token. Elaboration turns the checked
tree into a TruncatedSeries at a chosen working order.
"""
from __future__ import annotations

from fractions import Fraction as Rat
from typing import Mapping, NamedTuple, Optional, Tuple

from .errors import ParseError, PreconditionError
from .operators import catalog
from .series import (
    INF,
    TruncatedSeries,
    constant,
    exp_series,
    int_pow,
    log_series,
    monomial,
    mul,
    reciprocal,
)

# catalog spellings accepted in expressions; delta and nabla are the
# traditional names for the two difference operators
OPERATOR_NAMES = {
    "delta": "forward_difference",
    "nabla": "backward_difference",
    "shift": "shift",
    "abel": "abel",
    "laguerre": "laguerre",
    "weierstrass": "weierstrass",
    "bernoulli_op": "bernoulli_op",
}

# parameter slot filled when a parametric operator is written with an
# argument, as in "abel(1/2)" or "shift(-1)"
PARAMETER_SLOT = {"shift": "a", "abel": "b"}

FUNCTION_NAMES = ("exp", "log")

_ATOM_EXPECTED = ("a number", "'D'", "an operator name", "'('", "'-'")


# -- abstract syntax ------------------------------------------------------


class Number(NamedTuple):
    value: Rat


class Symbol(NamedTuple):
    """D, a catalog operator without arguments, or a parameter name."""

    name: str


class Call(NamedTuple):
    name: str
    args: Tuple["Node", ...]


class Neg(NamedTuple):
    operand: "Node"


class BinOp(NamedTuple):
    op: str
    left: "Node"
    right: "Node"


class Pow(NamedTuple):
    base: "Node"
    exponent: int


Node = (Number, Symbol, Call, Neg, BinOp, Pow)


# -- tokenizer ------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "number", "ident", one of "+-*/^(),", or "end"
    text: str
    pos: int  # 1-based offset of the first character


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("number", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i + 1))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, params: Mapping[str, Rat]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"unexpected {found}", tok.pos, (what,))
        return self.advance()

    def parse(self):
        node = self.expression()
        tok = self.current
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {tok.text!r}", tok.pos, ("an operator", "end of input")
            )
        return node

    def expression(self):
        node = self.term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.current.kind == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        if self.current.kind == "-":
            self.advance()
            sign = -1
        return sign * self.number(self.expect("number", "an integer exponent"))

    @staticmethod
    def number(tok: _Token) -> int:
        """The integer a number token spells. int() refuses a literal longer
        than the interpreter's limit on digits read from text; that is a
        parse error at the literal."""
        try:
            return int(tok.text)
        except ValueError as err:
            raise ParseError(
                f"number literal of {len(tok.text)} digits is past the interpreter's "
                "limit on digits read as an integer", tok.pos
            ) from err

    def atom(self):
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Number(Rat(self.number(tok)))
        if tok.kind == "-":
            self.advance()
            return Neg(self.atom())
        if tok.kind == "(":
            self.advance()
            node = self.expression()
            self.expect(")", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "(":
                self.advance()
                args = [self.expression()]
                while self.current.kind == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect(")", "')'")
                return self.call(tok, tuple(args))
            return self.name(tok)
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"unexpected {found}", tok.pos, _ATOM_EXPECTED)

    def call(self, tok: _Token, args) -> Call:
        name = tok.text
        if name in FUNCTION_NAMES:
            if len(args) != 1:
                raise ParseError(
                    f"{name} takes exactly one argument", tok.pos
                )
            return Call(name, args)
        if name in PARAMETER_SLOT:
            if len(args) != 1:
                raise ParseError(
                    f"operator {name!r} takes exactly one parameter", tok.pos
                )
            return Call(name, args)
        if name in OPERATOR_NAMES:
            raise ParseError(f"operator {name!r} takes no arguments", tok.pos)
        raise ParseError(f"unknown identifier {name!r}", tok.pos)

    def name(self, tok: _Token) -> Symbol:
        name = tok.text
        if name == "D" or name in OPERATOR_NAMES or name in self.params:
            return Symbol(name)
        if name in FUNCTION_NAMES:
            raise ParseError(
                f"{name} requires an argument list", tok.pos, ("'('",)
            )
        raise ParseError(f"unbound parameter {name!r}", tok.pos)


def parse_operator(text: str, params: Optional[Mapping[str, Rat]] = None):
    """Parse an operator expression, resolving identifiers against the
    catalog and the given parameter bindings. Returns the syntax tree."""
    return _Parser(text, dict(params or {})).parse()


# -- pretty printer -------------------------------------------------------

# print precedence; note '-' as sign lives inside atom, so a Neg under a
# power or product never needs parentheses, while a power or sum under a
# Neg always does
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_ATOM = 1, 2, 3, 4


def _level(node) -> int:
    if isinstance(node, BinOp):
        return _LEVEL_ADD if node.op in "+-" else _LEVEL_MUL
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def pretty(node) -> str:
    """Render a syntax tree with the fewest parentheses that reparse to a
    structurally identical tree."""

    def wrap(child, minimum):
        out = pretty(child)
        return f"({out})" if _level(child) < minimum else out

    if isinstance(node, Number):
        return str(node.value)
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Call):
        return node.name + "(" + ", ".join(pretty(a) for a in node.args) + ")"
    if isinstance(node, Neg):
        out = pretty(node.operand)
        if isinstance(node.operand, (Pow, BinOp)):
            out = f"({out})"
        return "-" + out
    if isinstance(node, Pow):
        base = pretty(node.base)
        if isinstance(node.base, (Pow, BinOp)):
            base = f"({base})"
        return base + "^" + str(node.exponent)
    if isinstance(node, BinOp):
        left = wrap(node.left, _level(node))
        right = wrap(node.right, _level(node) + 1)
        return f"{left} {node.op} {right}"
    raise TypeError(f"not a syntax node: {node!r}")


# -- elaboration ----------------------------------------------------------


def elaborate(
    node, params: Optional[Mapping[str, Rat]] = None, order: int = 16
) -> TruncatedSeries:
    """Turn a checked syntax tree into a formal series in D at the given
    working order. Rational constants and monomials stay exact, and so do
    sums; a product, quotient or power with an exact operand that is not a
    monomial is computed only as far as the result is needed.

    The need starts at the working order and is passed down the tree: an
    operand of a product is needed up to the need less the valuation of
    the other operand, so a factor such as D^-16 asks for more of its
    partner. An operand computed before the valuation of its partner was
    known is computed again when that shows it to be too short."""
    params = dict(params or {})
    memo = {}

    def go(node, need) -> TruncatedSeries:
        key = (id(node), need)
        if key not in memo:
            memo[key] = build(node, need)
        return memo[key]

    def refine(node, need, want) -> TruncatedSeries:
        # want maps the operand's valuation to the order it is needed up to
        series = go(node, need)
        target = want(series.valuation)
        if target > need and series.order < target:
            series = go(node, target)
        return series

    def build(node, need) -> TruncatedSeries:
        if isinstance(node, Number):
            return constant(node.value)
        if isinstance(node, Symbol):
            if node.name == "D":
                return monomial(1)
            if node.name in OPERATOR_NAMES:
                return catalog(OPERATOR_NAMES[node.name], params, order).series
            return constant(params[node.name])
        if isinstance(node, Call):
            if node.name == "exp":
                return exp_series(go(node.args[0], order), order=order)
            if node.name == "log":
                return log_series(go(node.args[0], order), order=order)
            # a parameter must be an exact constant, so nothing is cut
            slot = PARAMETER_SLOT[node.name]
            bound = dict(params)
            bound[slot] = _constant_value(go(node.args[0], INF), node.name)
            return catalog(OPERATOR_NAMES[node.name], bound, order).series
        if isinstance(node, Neg):
            return -go(node.operand, need)
        if isinstance(node, Pow):
            e = node.exponent
            if e < 0:
                # the reciprocal reads its input up to its own order plus 2v
                base = refine(node.base, need, lambda v: order + 2 * v)
                return int_pow(base, e, order=_order_for(base, order))
            if e <= 1:  # no product is formed
                return int_pow(go(node.base, need), e)
            base = refine(node.base, need, lambda v: _short_by(need, (e - 1) * v))
            cut = _short_by(need, (e - 1) * base.valuation)
            return int_pow(truncate_exact(base, cut), e)
        if isinstance(node, BinOp):
            if node.op in "+-":
                left, right = go(node.left, need), go(node.right, need)
                return left + right if node.op == "+" else left - right
            if node.op == "*":
                right = go(node.right, need)
                left = refine(node.left, need, lambda v: _short_by(need, right.valuation))
                right = refine(node.right, need, lambda v: _short_by(need, left.valuation))
            else:
                right = refine(node.right, need, lambda v: order + 2 * v)
                right = reciprocal(right, order=_order_for(right, order))
                left = refine(node.left, need, lambda v: _short_by(need, right.valuation))
            return mul(
                truncate_exact(left, _short_by(need, right.valuation)),
                truncate_exact(right, _short_by(need, left.valuation)),
            )
        raise TypeError(f"not a syntax node: {node!r}")

    return go(node, order)


def truncate_exact(series: TruncatedSeries, order) -> TruncatedSeries:
    """An exact series that is not a monomial, truncated at the given
    order but never below its leading term; monomials (constants among
    them) and truncated series pass through. Products and powers of the
    result then cost work bounded by that order, not by the degree the
    expression spells."""
    if series.order == INF and len(series.coeffs) > 1:
        return series.truncate(max(order, series.valuation + 1))
    return series


def _short_by(need, valuation):
    """The order an operand is needed up to when its partner in a product
    has the given valuation; an exact zero partner (infinite valuation)
    asks for nothing beyond the need itself."""
    return need if valuation == INF else need - valuation


def _order_for(series: TruncatedSeries, order: int):
    """Working order for a reciprocal: exact monomials keep an infinite
    order, since their inverses are exact monomials again."""
    if series.order == INF and len(series.coeffs) <= 1:
        return None
    return order


def _constant_value(series: TruncatedSeries, name: str) -> Rat:
    if series.order == INF:
        if series.is_zero:
            return Rat(0)
        if set(series.coeffs) == {0}:
            return series.coefficient(0)
    raise PreconditionError(
        f"parameter of {name!r} must be a rational constant"
    )
