"""Shift-invariant operators on polynomials.

A shift-invariant operator is represented by its formal series in the
derivative D: applying sum a_k D^k to a polynomial is a finite sum because
high derivatives vanish. A delta operator is the special case where the
series has valuation exactly one (no constant term, nonzero D coefficient);
these are the operators that admit basic sequences of binomial type.

The catalog builds the standard named operators at a requested truncation
order. Lagrange inversion reads the coefficients of g(f^(-1)) off the
composite of g with the compositional inverse of f.
"""
from __future__ import annotations

from fractions import Fraction as Rat
from functools import lru_cache
from math import factorial
from typing import Mapping, Optional, Sequence

from .errors import PreconditionError, require_order
from .numbers import _falling
from .series import (
    INF,
    TruncatedSeries,
    compose,
    compositional_inverse,
    exp_series,
    formal_derivative,
    identity,
    int_pow,
    monomial,
    _dense_mul,
    _out_order,
)


class Polynomial:
    """Dense polynomial in x with exact rational coefficients.

    ``coeffs`` is the tuple of coefficients of x^0, x^1, ..., with trailing
    zeros stripped. A coefficient whose type is exactly Fraction is kept as
    the same object; anything else (an int, a string such as "3/4", a float,
    a Decimal, a Fraction subclass) becomes Fraction(c)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Rat] = ()):
        cs = [c if type(c) is Rat else Rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x_power(cls, n: int) -> "Polynomial":
        if n < 0:
            raise PreconditionError(f"x_power needs a degree n >= 0, got n = {n}")
        return cls([Rat(0)] * n + [Rat(1)])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Rat:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Rat(0)

    def evaluate(self, x) -> Rat:
        x = Rat(x)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def mul_x(self) -> "Polynomial":
        """Multiply by x."""
        if self.is_zero:
            return self
        return Polynomial((Rat(0),) + self.coeffs)

    def shift(self, a) -> "Polynomial":
        """The polynomial p(x + a): the action of E^a = exp(aD)."""
        return apply_to_polynomial(exp_series(monomial(1, a), order=self.degree + 1), self)

    def scale(self, c) -> "Polynomial":
        c = Rat(c)
        return Polynomial([c * v for v in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return Polynomial()
        w = len(self.coeffs) + len(other.coeffs) - 1
        return Polynomial(_dense_mul(self.coeffs, other.coeffs, w))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "<poly 0>"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return "<poly " + " + ".join(parts) + ">"


class ShiftInvariantOperator:
    """An operator sum a_k D^k given by a truncated series in D."""

    __slots__ = ("series", "name", "parameters")

    def __init__(
        self,
        series: TruncatedSeries,
        name: Optional[str] = None,
        parameters: Optional[Mapping[str, Rat]] = None,
    ):
        if series.valuation < 0 and not series.is_zero:
            raise PreconditionError("negative powers of D undefined on polynomials")
        self.series = series
        self.name = name
        self.parameters = dict(parameters or {})

    def __call__(self, p: Polynomial) -> Polynomial:
        return apply_to_polynomial(self, p)

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return ShiftInvariantOperator(self.series.scale(other))
        return ShiftInvariantOperator(self.series * _series_of(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return ShiftInvariantOperator(self.series + _series_of(other))

    def __sub__(self, other):
        return ShiftInvariantOperator(self.series - _series_of(other))

    def __pow__(self, n: int):
        return ShiftInvariantOperator(int_pow(self.series, n))

    def __repr__(self):
        label = self.name or "operator"
        if self.parameters:
            args = ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            label = f"{label}({args})"
        return f"<{label}: {self.series!r}>"


class DeltaOperator(ShiftInvariantOperator):
    """A shift-invariant operator whose series has valuation exactly one."""

    def __init__(self, series, name=None, parameters=None):
        super().__init__(_delta_series(series), name, parameters)


def _series_of(x) -> TruncatedSeries:
    if isinstance(x, ShiftInvariantOperator):
        return x.series
    if isinstance(x, TruncatedSeries):
        return x
    raise TypeError(f"expected an operator or series, got {x!r}")


def _delta_series(x) -> TruncatedSeries:
    """The series of an operator or series that must be a delta series:
    valuation exactly one, with a nonzero linear coefficient."""
    s = _series_of(x)
    if s.is_zero or s.valuation != 1:
        raise PreconditionError("not a delta series")
    return s


def _act(series: TruncatedSeries, window: TruncatedSeries) -> TruncatedSeries:
    """The action of a series in D on sum_j c_j L_j, held reflected with c_j
    at t^(-j), where D^k sends degree j to roman(j)!/roman(j-k)! times
    degree j - k (on monomials x^j and on harmonic logarithms of every
    order). Scaled by roman(j)!, degree j is moved by D^k to t^(k-j), so the
    action is one product. The scale used is roman(j)!/roman(h)!, for h the
    highest degree of the window and of the image: the same product up to
    one constant, and a falling product of roman numbers, so no factorial
    is formed. The image comes back reflected, with the order of that
    product: degree d is determined when t^(-d) lies below it."""
    h = max((-e for e in window.coeffs), default=0) - min(series.valuation, 0)
    r = _ratios(window, h)
    image = series * TruncatedSeries({e: c / r[e] for e, c in window.coeffs.items()}, window.order)
    r = _ratios(image, h)
    return TruncatedSeries({e: c * r[e] for e, c in image.coeffs.items()}, image.order)


def _ratios(s: TruncatedSeries, h: int) -> dict:
    """roman(h)!/roman(j)! at each stored exponent -j of s, for j <= h."""
    es = sorted(s.coeffs)
    return dict(zip(es, _falling(h, [h + e for e in es])))


def apply_to_polynomial(T, p: Polynomial) -> Polynomial:
    """Apply sum a_k D^k to p. Exactness demands the series window cover
    every derivative that can act: order > deg(p)."""
    s = _series_of(T)
    if s.valuation < 0 and not s.is_zero:
        raise PreconditionError("negative powers of D undefined on polynomials")
    require_order(f"truncation too small for exact action: degree {p.degree}", p.degree + 1, s.order)
    image = _act(s.truncate(p.degree + 1), TruncatedSeries({-j: c for j, c in enumerate(p.coeffs)}))
    return Polynomial([image.coefficient(-d) for d in range(p.degree + 1)])


def pincherle_derivative(T) -> ShiftInvariantOperator:
    """The commutator [T, x], whose series is the derivative of T's."""
    s = _series_of(T)
    name = None
    if isinstance(T, ShiftInvariantOperator) and T.name:
        name = T.name + "'"
    params = T.parameters if isinstance(T, ShiftInvariantOperator) else None
    return ShiftInvariantOperator(formal_derivative(s), name, params)


def _under_inverse(g, f, k_max: Optional[int] = None) -> TruncatedSeries:
    """g(f^(-1)) for a delta series f. Given k_max, f is inverted only to
    order o = max(k_max, d) + 1 + max(1 - d, 0), d = val g: by the ring rule
    of compose the inverse then cuts the composite no lower than
    t^(o + d - 1), or t^o for d = 0, so past t^k_max. Without k_max, or for
    an exact zero g, f is inverted over its whole window."""
    d = g.valuation
    order = None if k_max is None or d == INF else max(k_max, d) + 1 + max(1 - d, 0)
    return compose(g, compositional_inverse(f, order=order))


def expand_in_basis(T, Q, k_max: Optional[int] = None) -> list:
    """Hurwitz coefficients c_k with T = sum c_k Q^k / k!, from the first
    expansion theorem: c_k = k! [t^k] (T's series composed with the
    compositional inverse of Q's series)."""
    comp = _under_inverse(_series_of(T), _delta_series(Q), k_max)
    if k_max is None:
        if comp.order == INF:
            raise PreconditionError(
                "expansion of exact series requires an explicit k_max"
            )
        k_max = comp.order - 1
    require_order(f"expansion order exceeds determined window: coefficient {k_max} of "
                  "the composite", k_max + 1, comp.order)
    return [factorial(k) * comp.coefficient(k) for k in range(k_max + 1)]


def lagrange_inversion(f, g, k_max: int) -> list:
    """Coefficients of g composed with the compositional inverse of f, for
    exponents d..k_max where d is the valuation of g.

    g may be a Laurent series (negative d): composition reaches its
    negative powers through the reciprocal of the inverse. The composite's
    window is the ring rule of compose; for d >= 1 it reaches d - 1
    coefficients past the order of f^(-1)."""
    fs = _delta_series(f)
    gs = _series_of(g)
    if gs.is_zero:
        raise PreconditionError("lagrange inversion requires a nonzero series")
    d = gs.valuation
    comp = _under_inverse(gs, fs, k_max)
    require_order(f"k_max exceeds determined window: coefficient {k_max} of the composite",
                  k_max + 1, comp.order)
    return [comp.coefficient(k) for k in range(d, k_max + 1)]


# -- the catalog ---------------------------------------------------------

CATALOG_NAMES = (
    "derivative",
    "shift",
    "forward_difference",
    "backward_difference",
    "abel",
    "laguerre",
    "weierstrass",
    "bernoulli_op",
)

# Catalog entries whose series have valuation one; these admit basic
# sequences of binomial type.
DELTA_NAMES = (
    "derivative",
    "forward_difference",
    "backward_difference",
    "abel",
    "laguerre",
)


def _require_param(name: str, parameters: Mapping[str, Rat], key: str) -> Rat:
    if key not in parameters:
        raise PreconditionError(f"operator '{name}' requires parameter '{key}'")
    return Rat(parameters[key])


def _exp_less_one(sign: int, order) -> TruncatedSeries:
    """sign (e^(sign t) - 1) below t^order: the one-term exponential with
    its constant dropped and the sign folded into the same pass, so e^t - 1
    for sign 1 and 1 - e^(-t) for sign -1."""
    e = exp_series(monomial(1, sign), order=order)
    return TruncatedSeries({k: c if sign > 0 else -c for k, c in e.coeffs.items() if k}, e.order)


def catalog(name: str, parameters: Optional[Mapping[str, Rat]] = None, order: int = 16):
    """Build a named operator at the given truncation order.

    Delta operators: derivative D, forward_difference (E - 1),
    backward_difference (1 - E^(-1)), abel(b) = D E^b, laguerre D/(D-1).
    Other shift-invariant operators: shift(a) = E^a, weierstrass
    exp(D^2/2), bernoulli_op (e^D - 1)/D.

    Each is read off a closed form, with no series product or reciprocal:
    the differences are e^(+-D) with the constant dropped and the sign
    folded in, abel is e^(bD) with every exponent raised by one, bernoulli_op
    is e^D - 1 with every exponent lowered by one, and laguerre is
    -(D + D^2 + ...), known below D^(order+1) as the product D * 1/(D - 1)
    would be.

    The operators built for the last 8 keys are kept. A key is the name,
    the parameters sorted by name and the order, each value with its type,
    so a value that equals another but converts or fails differently is
    its own key. Calls with equal arguments share one
    series, and with it the kernel's read of its unit: a series is
    immutable. Each call still returns a fresh operator, because an
    operator's name and parameters are mutable attributes, and a change to
    them does not reach the next call. Parameters with an unhashable value
    are built each time, and a refusal is never kept. What is kept lives
    as long as the process, or until _catalog_kept.cache_clear(): one
    forward difference at order 2000 holds 2.6 MB, and 5.4 MB once its
    series was read at full width; at order 5000, 17.6 and 37.0 MB
    (tracemalloc). Both grow as N^2 log N, so eight keys at order 5000 can
    hold about 300 MB. The table rows that windows read stay with their
    series: 16.1 MB for a forward difference at order 201 after degrees
    -200..200 at depth 200 (400 rows of width 200), and 0.13 MB for the
    four series of one pass of the log_windows benchmark.
    """
    parameters = dict(parameters or {})
    try:
        key = name, tuple(sorted((k, type(v), v) for k, v in parameters.items())), type(order), order
        hash(key)
    except TypeError:
        return _catalog_build(name, parameters, order)
    op = _catalog_kept(key)
    return type(op)(op.series, name, op.parameters)


@lru_cache(maxsize=8)
def _catalog_kept(key):
    name, items, _, order = key
    return _catalog_build(name, {k: v for k, _, v in items}, order)


def _catalog_build(name: str, parameters: Mapping[str, Rat], order):
    """The operator catalog names, built afresh."""
    if name == "derivative":
        return DeltaOperator(identity(), name)
    if name == "shift":
        a = _require_param(name, parameters, "a")
        series = exp_series(monomial(1, a), order=order)
        return ShiftInvariantOperator(series, name, {"a": a})
    if name == "forward_difference":
        return DeltaOperator(_exp_less_one(1, order), name)
    if name == "backward_difference":
        return DeltaOperator(_exp_less_one(-1, order), name)
    if name == "abel":
        b = _require_param(name, parameters, "b")
        e = exp_series(monomial(1, b), order=order)
        series = TruncatedSeries({k + 1: c for k, c in e.coeffs.items()}, e.order + 1)
        return DeltaOperator(series, name, {"b": b})
    if name == "laguerre":
        order = _out_order(INF, order, "reciprocal")
        series = TruncatedSeries(dict.fromkeys(range(1, order + 1), Rat(-1)), order + 1)
        return DeltaOperator(series, name)
    if name == "weierstrass":
        series = exp_series(monomial(2, Rat(1, 2)), order=order)
        return ShiftInvariantOperator(series, name)
    if name == "bernoulli_op":
        e = _exp_less_one(1, order)
        series = TruncatedSeries({k - 1: c for k, c in e.coeffs.items()}, e.order - 1)
        return ShiftInvariantOperator(series, name)
    raise PreconditionError(f"unknown catalog operator '{name}'")
