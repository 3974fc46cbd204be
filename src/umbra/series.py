"""Truncated Laurent series over the rationals in one indeterminate t.

A series here is a finite window of exactly known coefficients: everything
below the valuation is known to be zero, coefficients from the valuation up
to (but excluding) ``order`` are stored exactly as Fractions, and nothing is
claimed about exponents at or beyond ``order``. An ``order`` of infinity
means the series is known exactly at every exponent (a Laurent polynomial).

Every arithmetic operation tracks how far the result is actually determined
by the known windows of its inputs, so a coefficient is never reported
unless it is provably exact:

  add       order = min(order_f, order_g)
  mul       order = min(order_f + val_g, order_g + val_f)
  recip     order = order_f - 2 * val_f
  compose   order = min(ring-derived order, order_g, order_f * val_g)

The zero series is represented with an empty coefficient table and
valuation equal to its order.

Every product and reciprocal runs on one exact kernel: a run of
coefficients becomes a dense list of integer numerators over one common
denominator (the representation of FLINT's fmpq_poly), the arithmetic is
done on those integers, and only the results become Fractions again.
"""
from __future__ import annotations

import operator
from fractions import Fraction as Rat
from itertools import repeat
from math import gcd, lcm
from typing import Mapping

from .errors import PreconditionError

INF = float("inf")


def _check_order(order):
    if order == INF or order == -INF:
        return order
    if isinstance(order, int):
        return order
    if isinstance(order, float) and order.is_integer():
        return int(order)
    raise PreconditionError("order must be an integer or infinity")


def _mul_order(a, b):
    """a*b for order arithmetic, tolerating infinities."""
    if a == INF or b == INF:
        sign = (1 if a > 0 else -1 if a < 0 else 0) * (
            1 if b > 0 else -1 if b < 0 else 0
        )
        return INF * sign if sign else 0
    return a * b


# -- the exact kernel ----------------------------------------------------


def _dense(values):
    """A run of rationals as (integer numerators, common denominator)."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _mul_trunc(a, b, w):
    """The first w coefficients of a*b for integer lists a and b. Each
    nonzero entry of a adds a scaled copy of b; zero entries cost nothing,
    so a sparse a keeps the product cheap."""
    out = [0] * w
    for i, x in enumerate(a[:w]):
        if x:
            m = min(len(b), w - i)
            out[i : i + m] = map(operator.add, out[i : i + m], map(operator.mul, b[:m], repeat(x)))
    return out


def _reduce(nums, den):
    """Cancel the common content of numerators and denominator."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _powers(u, ud, w):
    """u, u^2, u^3, ... on their first w coefficients, for integer
    numerators u over ud: each power is one truncated product of the one
    before, reduced by the gcd of its numerators and denominator."""
    p, pd = u, ud
    while True:
        yield p, pd
        p, pd = _reduce(_mul_trunc(p, u, w), pd * ud)


def _dense_mul(x, y, w):
    """The first w coefficients of x*y for runs of rationals x and y."""
    (a, ad), (b, bd) = _dense(x), _dense(y)
    den = ad * bd
    return [Rat(c, den) for c in _mul_trunc(a, b, w)]


class TruncatedSeries:
    """A Laurent series known exactly on the window [valuation, order)."""

    __slots__ = ("coeffs", "order", "valuation")

    def __init__(self, coeffs: Mapping[int, Rat] = (), order=INF):
        order = _check_order(order)
        clean = {}
        for e, c in dict(coeffs).items():
            if e >= order:
                continue
            c = Rat(c)
            if c != 0:
                clean[int(e)] = c
        self.coeffs = clean
        self.order = order
        self.valuation = min(clean) if clean else order

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when every known coefficient is zero."""
        return not self.coeffs

    def coefficient(self, e: int) -> Rat:
        """Exact coefficient of t^e. Raises if e lies beyond the window."""
        if e >= self.order:
            raise PreconditionError("coefficient beyond truncation order")
        return self.coeffs.get(e, Rat(0))

    def degree_range(self):
        """(valuation, order) of the known window."""
        return (self.valuation, self.order)

    def truncate(self, order) -> "TruncatedSeries":
        """Forget coefficients at or beyond the given order."""
        order = _check_order(order)
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs, order)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Rat(0)) + c
        return TruncatedSeries(out, order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries({e: -c for e, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return self.scale(other)
        other = _coerce(other)
        order = min(self.order + other.valuation, other.order + self.valuation)
        if self.is_zero or other.is_zero:
            return TruncatedSeries({}, order)
        v = self.valuation + other.valuation
        w = min(max(self.coeffs) + max(other.coeffs) + 1, order) - v
        # the operand with fewer stored coefficients goes first (see _mul_trunc)
        f, g = (self, other) if len(self.coeffs) <= len(other.coeffs) else (other, self)
        product = _dense_mul(_run(f, w), _run(g, w), w)
        return TruncatedSeries(dict(enumerate(product, start=v)), order)

    __rmul__ = __mul__

    def scale(self, c) -> "TruncatedSeries":
        c = Rat(c)
        if c == 0:
            # Scaling by zero yields an exact zero: no unknown tail survives.
            return TruncatedSeries({}, INF)
        return TruncatedSeries({e: c * v for e, v in self.coeffs.items()}, self.order)

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.order == other.order

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.order))

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Equality of coefficients on the overlap of the two known windows."""
        bound = min(self.order, other.order)
        lo = min(self.valuation, other.valuation)
        if lo >= bound:
            return True
        return all(
            self.coeffs.get(e, Rat(0)) == other.coeffs.get(e, Rat(0))
            for e in range(int(lo), int(bound))
        )

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in sorted(self.coeffs):
                c = self.coeffs[e]
                if e == 0:
                    parts.append(str(c))
                elif e == 1:
                    parts.append(f"{c}*t")
                else:
                    parts.append(f"{c}*t^{e}")
            body = " + ".join(parts)
        tail = "" if self.order == INF else f" + O(t^{self.order})"
        return f"<{body}{tail}>"


def _run(f: TruncatedSeries, w: int) -> list:
    """At most w coefficients of a nonzero series, from its valuation up to
    its highest stored exponent."""
    v = f.valuation
    return [f.coeffs.get(e, Rat(0)) for e in range(v, min(max(f.coeffs) + 1, v + w))]


def _coerce(x) -> TruncatedSeries:
    if isinstance(x, TruncatedSeries):
        return x
    if isinstance(x, (int, Rat)):
        return constant(x)
    raise TypeError(f"cannot interpret {x!r} as a series")


# -- constructors --------------------------------------------------------


def zero(order=INF) -> TruncatedSeries:
    return TruncatedSeries({}, order)


def constant(c, order=INF) -> TruncatedSeries:
    return TruncatedSeries({0: Rat(c)}, order)


def monomial(e: int, c=1, order=INF) -> TruncatedSeries:
    return TruncatedSeries({e: Rat(c)}, order)


def identity(order=INF) -> TruncatedSeries:
    """The series t itself."""
    return monomial(1, 1, order)


def from_coeffs(values, start: int = 0, order=None) -> TruncatedSeries:
    """Build a series from a run of coefficients beginning at exponent
    ``start``. The order defaults to just past the last supplied value."""
    values = [Rat(v) for v in values]
    if order is None:
        order = start + len(values)
    return TruncatedSeries({start + i: v for i, v in enumerate(values)}, order)


# -- module-level operations ---------------------------------------------


def add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return f + g


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return f * g


def reciprocal(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """Multiplicative inverse 1/f.

    For a truncated input the result is determined on a window of
    order_f - 2*val_f: perturbing f at its order shifts the inverse at
    order_f - 2*val_f. Exact inputs need an explicit result order unless
    they are monomials, whose inverses are again exact monomials.
    """
    if f.is_zero:
        raise PreconditionError("non-invertible: zero series")
    v = f.valuation
    if f.order == INF:
        if len(f.coeffs) == 1:
            out = monomial(-v, 1 / f.coeffs[v])
            return out.truncate(order) if order is not None else out
        if order is None:
            raise PreconditionError(
                "reciprocal of an exact series requires an explicit order"
            )
        result_order = _check_order(order)
    else:
        result_order = f.order - 2 * v
        if order is not None:
            result_order = min(result_order, _check_order(order))
    # Number of result coefficients, counting from exponent -v.
    length = result_order + v
    if length <= 0:
        return zero(result_order)
    # Invert the unit part u(t) = f(t) / t^v term by term, with
    # r_k = -(u_1 r_(k-1) + ... + u_k r_0) / u_0. The r_k are kept as
    # numerators over the least common denominator of those found so far.
    # The signs of the denominators are left free; every division is exact.
    u, ud = _dense([f.coeffs.get(v + k, Rat(0)) for k in range(length)])
    r, rd = _reduce([ud], u[0])
    for k in range(1, length):
        num = -sum(map(operator.mul, u[1 : k + 1], reversed(r)))
        den = rd * u[0]
        g = gcd(num, den)
        num, den = num // g, den // g
        m = den // gcd(den, rd)  # rd * m = lcm(rd, den), up to sign
        if m != 1:
            r = [x * m for x in r]
            rd *= m
        r.append(num * (rd // den))
    return TruncatedSeries(
        {-v + k: Rat(x, rd) for k, x in enumerate(r)}, result_order
    )


def int_pow(f: TruncatedSeries, n: int, order=None) -> TruncatedSeries:
    """f**n for integer n, via repeated squaring; n < 0 inverts first."""
    if n == 0:
        return constant(1)
    if n < 0:
        return int_pow(reciprocal(f, order=order), -n)
    result = None
    base = f
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def formal_derivative(f: TruncatedSeries) -> TruncatedSeries:
    """Term-by-term derivative; the window shrinks by one at the top."""
    order = INF if f.order == INF else f.order - 1
    return TruncatedSeries(
        {e - 1: e * c for e, c in f.coeffs.items() if e != 0}, order
    )


def compose(f: TruncatedSeries, g: TruncatedSeries, order=None) -> TruncatedSeries:
    """Substitute g into f. Requires val(g) >= 1 so the result is well
    defined coefficientwise; f may be a Laurent series (negative powers of
    g are handled through the reciprocal)."""
    if not g.is_zero and g.valuation < 1:
        raise PreconditionError("composition requires positive valuation")
    # g^e starts at e*val_g, so a term with e*val_g >= order_g only reaches
    # exponents the result cannot claim: leave it out of Horner.
    limit = -(-g.order // g.valuation) if g.order != INF and g.valuation > 0 else INF
    top = max((e for e in f.coeffs if 0 <= e < limit), default=-1)
    # Nonnegative part of f, evaluated by Horner from the top exponent down.
    acc = zero()
    for e in range(top, -1, -1):
        acc = acc * g
        c = f.coeffs.get(e)
        if c is not None:
            acc = acc + constant(c)
    # Negative part of f through powers of 1/g.
    neg = sorted((e for e in f.coeffs if e < 0), reverse=True)
    if neg:
        r = reciprocal(g, order=order)
        rpow, power = constant(1), 0
        for e in neg:
            rpow, power = rpow * int_pow(r, -e - power), -e
            acc = acc + rpow.scale(f.coeffs[e])
    result = acc
    # Never claim more than the window formula min(order_g, order_f*val_g)
    # allows: the unknown tail of g enters at order_g and the unknown tail
    # of f enters at order_f*val_g.
    cap = min(result.order, g.order)
    if f.order != INF:
        cap = min(cap, _mul_order(f.order, g.valuation))
    return result.truncate(cap)


def exp_series(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """exp(f) for a series with valuation >= 1, by the differential
    recurrence y' = f'y. Exact inputs need an explicit order."""
    if not f.is_zero and f.valuation < 1:
        raise PreconditionError("exp_series requires positive valuation")
    if f.is_zero and f.order == INF:
        return constant(1)
    if f.order == INF:
        if order is None:
            raise PreconditionError(
                "exp_series of an exact series requires an explicit order"
            )
        n_out = _check_order(order)
    else:
        n_out = f.order if order is None else min(f.order, _check_order(order))
    if n_out <= 0:
        return zero(n_out)
    y = [Rat(0)] * n_out
    y[0] = Rat(1)
    for n in range(1, n_out):
        acc = Rat(0)
        for j in range(1, n + 1):
            fj = f.coeffs.get(j)
            if fj is not None:
                acc += j * fj * y[n - j]
        y[n] = acc / n
    return TruncatedSeries({k: y[k] for k in range(n_out)}, n_out)


def log_series(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """log(f) for a series with constant term 1, by l' = f'/f."""
    if f.coeffs.get(0) != 1 or f.valuation != 0:
        raise PreconditionError("log_series requires constant term 1")
    if f.order == INF and len(f.coeffs) == 1:
        return zero()
    if f.order == INF:
        if order is None:
            raise PreconditionError(
                "log_series of an exact series requires an explicit order"
            )
        n_out = _check_order(order)
    else:
        n_out = f.order if order is None else min(f.order, _check_order(order))
    if n_out <= 0:
        return zero(n_out)
    l = [Rat(0)] * n_out
    for n in range(1, n_out):
        acc = Rat(0)
        for j in range(1, n):
            fc = f.coeffs.get(n - j)
            if fc is not None:
                acc += j * l[j] * fc
        l[n] = f.coeffs.get(n, Rat(0)) - acc / n
    return TruncatedSeries({k: l[k] for k in range(1, n_out)}, n_out)


# -- compositional inverse ----------------------------------------------
#
# Lagrange reversion: with h = t/f, the inverse g has [t^k] g = [t^(k-1)] h^k / k.
# The powers h^k come from the kernel's _powers on integer numerators; only
# the output coefficients become Fractions.


def compositional_inverse(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """The series g with f(g(t)) = g(f(t)) = t. Requires valuation exactly
    one with a nonzero linear coefficient (a delta series).

    Computed by Lagrange reversion, [t^k] g = [t^(k-1)] (t/f)^k / k. The
    result is determined on the input's window; exact inputs that are not
    monomials need an explicit order."""
    if f.is_zero or f.valuation != 1:
        raise PreconditionError("not a delta series")
    if f.order == INF:
        if len(f.coeffs) == 1:
            return monomial(1, 1 / f.coeffs[1])
        if order is None:
            raise PreconditionError(
                "compositional inverse of an exact series requires an explicit order"
            )
        n_out = _check_order(order)
    else:
        n_out = f.order if order is None else min(f.order, _check_order(order))
    if n_out <= 2:
        # Only the linear coefficient is determined (or nothing at all).
        return TruncatedSeries({1: 1 / f.coeffs[1]}, n_out)
    w = n_out - 1  # h = t/f is needed on exponents [0, w)
    unit = TruncatedSeries({e - 1: c for e, c in f.coeffs.items()}, f.order - 1)
    recip = reciprocal(unit, order=w)
    powers = _powers(*_dense([recip.coefficient(k) for k in range(w)]), w)
    g = {k: Rat(p[k - 1], k * pd) for k, (p, pd) in zip(range(1, n_out), powers)}
    return TruncatedSeries(g, n_out)
