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
  compose   order = min(order_f * val_g, and for each exponent e of f:
                        order_g + (e - 1) * val_g  if e >= 1,
                        order_recip + (e + 1) * val_g  if e <= -1)

The zero series is represented with an empty coefficient table and
valuation equal to its order.

Every product and reciprocal runs on one exact kernel: a run of
coefficients becomes a dense list of integer numerators over one common
denominator (the representation of FLINT's fmpq_poly), the arithmetic is
done on those integers, and only the results become Fractions again. A
product with no more pairs of stored terms than its span is the
exception: it multiplies term by term, so a sparse exact product costs
its terms, not its degree; exp of one term c t^j reads c^k/k! at t^(jk).
Every power of a series is read off the signed power table of g/t^val_g,
_unit_powers, whose caller names each row it reads and that row's width.
A unit u that solves (1 + rt) u' = cu on its whole known window,
u_0 (1 + rt)^(c/r) or u_0 e^(ct) (abel, laguerre, t/(1 + t)), is found by
one exact check of (m + 1) u_(m+1) = (c - rm) u_m, and each power u^k is
read off its own two-term rule, O(1) per coefficient (_two_term_rule,
_rule_row). A truncated g that solves (1 + qt) g' = r0 + r1 g on its whole
window (e^(ht) - 1, 1 - e^(-t), log(1 + t)) is found by the same check
of g'; each row below its highest follows from the row above by
(1 + qt)(g^k)' = k r0 g^(k-1) + k r1 g^k, O(1) per coefficient
(_ode_rule, _descent), and its inverse solves (r0 + r1 t) h' = 1 + qh in
O(N). An outer f of that class, checked on every exponent that reaches the
result, composes with no power of the inner g: h = f(g) solves
(1 + qg) h' = (r0 + r1 h) g', one pass of O(N taps(g)) (_ode_compose).
Any other outer reads the rows of either class off the table. Any other
unit has, on each side of zero, its lowest row in one pass of Miller's
power recurrence and every row above it one truncated product by u
(_chain), each only as wide as the rows read at or above it; compose adds
Brent-Kung, and the inverse power projection, about 2 sqrt(N) products
each. Known zeros cost nothing there:
the recurrence reads the unit's taps only up to its last nonzero one, and
a _chain product passes the unit as _mul_trunc's first operand, whose zero
entries are skipped, so the reciprocal or a power of a polynomial of
degree d costs d products per coefficient, not the square of the order.

A series is immutable, so it keeps the kernel's read of its unit at the
last width w it was read at (_read): the dense u on its first w
coefficients, its two-term rule, for a truncated series its ODE rule,
and the table rows that one-row requests built at w. The table and the
inverse read it there, so a series read twice at one width is converted
and classified once, and a row is built once or stepped down to from a
kept one. A read at another width replaces it and its rows, never
answers for them: a unit that fits a rule on a short prefix may fail it
on a longer window.
"""
from __future__ import annotations

import operator
from bisect import bisect, bisect_left
from fractions import Fraction as Rat
from itertools import accumulate, islice, repeat
from math import factorial, gcd, isqrt, lcm, prod
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
    so the sparser operand goes first: a short polynomial costs its terms."""
    out = [0] * w
    for i, x in enumerate(a[:w]):
        if x:
            m = min(len(b), w - i)
            out[i : i + m] = map(operator.add, out[i : i + m], map(operator.mul, b[:m], repeat(x)))
    return out


def _reduce(nums, den, g=None):
    """Cancel the common content g of numerators and denominator, by
    default their gcd."""
    g = gcd(den, *nums) if g is None else g
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _chain(start, u, ud, widths):
    """start, start*u, start*u^2, ... for integer numerators u over ud, on a
    non-increasing run of widths (start is given on the first), each product
    reduced by the gcd of its numerators and denominator. The multiplier u
    is _mul_trunc's first operand, so each of its zero taps costs nothing."""
    p = None
    for w in widths:
        p = start if p is None else _reduce(_mul_trunc(u, p[0], w), p[1] * ud)
        yield p


def _power_row(u, ud, k, w):
    """(numerators, denominator) of (u/ud)^k on its first w coefficients, for
    integer numerators u with u[0] != 0 and any integer k, in one pass of J.C.P.
    Miller's recurrence m u_0 p_m = sum_j ((k+1) j - m) u_j p_(m-j) (Knuth, TAOCP
    vol. 2, 4.7) from the reduced p_0 = (u_0/ud)^k, so ud cancels and the row
    keeps its true height. The p_m are kept over the least positive common
    denominator of those found so far; for k = -1, the reciprocal, m cancels.
    The taps u_j stop at the last nonzero one, so a polynomial unit of degree
    d costs d products per coefficient, not m."""
    p0 = Rat(u[0], ud) ** k
    p, pd, c = [p0.numerator], p0.denominator, k + 1
    d = len(u)
    while not u[d - 1]:
        d -= 1
    u = u[:d]
    for m in range(1, w):
        a = u[1 : m + 1]
        if c:  # the weights (k+1) j - m, j = 1..m
            a = map(operator.mul, range(c - m, c * (m + 1) - m, c), a)
        num, den = sum(map(operator.mul, a, reversed(p))), pd * (m if c else -1) * u[0]
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // g, den // g
        s = den // gcd(den, pd)  # pd * s = lcm(pd, den)
        if s != 1:
            p, pd = [x * s for x in p], pd * s
        p.append(num * (pd // den))
    return p, pd


def _two_term_rule(u, ud):
    """(u_0, cn, rn, L) when the unit u/ud, integer numerators u on its first
    w >= 1 coefficients, solves (1 + rt) u' = cu on that window, that is
    (m + 1) u_(m+1) = (c - rm) u_m for m < w - 1, with c = cn/L and r = rn/L
    over their least common denominator L; otherwise None. The class is
    u_0 (1 + rt)^(c/r), or u_0 e^(ct) for r = 0. c and r come from u_1 and
    u_2, and every coefficient of the window is checked by integer
    cross-multiplication, so a unit outside the class stops at its first
    mismatch, m = 2 for the forward difference."""
    w = len(u)
    c = Rat(u[1], u[0]) if w > 1 else Rat(0)
    r = c - Rat(2 * u[2], u[1]) if w > 2 and u[1] else Rat(0)
    den = lcm(c.denominator, r.denominator)
    cn, rn = c.numerator * (den // c.denominator), r.numerator * (den // r.denominator)
    for m in range(1, w - 1):
        if den * (m + 1) * u[m + 1] != (cn - rn * m) * u[m]:
            return None
    return Rat(u[0], ud), cn, rn, den


def _rule_row(rule, k, w):
    """(numerators, denominator) of u^k on its first w >= 1 coefficients, for
    any integer k and a unit u with _two_term_rule ``rule``: u^k solves
    (1 + rt) p' = kc p, so p_(m+1) = (kc - rm) p_m / (m + 1). The row is built
    over the one denominator it ends with, den(u_0^k) L^(w-1) (w-1)!, so each
    coefficient is one product and one exact division by small integers,
    and then reduced once by _reduce. Where kc/r is an integer a, p_m is
    u_0^k C(a, m) r^m, so the (w-1)! is not needed and is left out."""
    u0, cn, rn, den = rule
    p0 = u0**k
    scale = den ** (w - 1)
    if not rn or k * cn % rn:
        scale *= factorial(w - 1)
    x, kc = p0.numerator * scale, k * cn
    row = [x]
    for m in range(w - 1):
        x = x * (kc - rn * m) // (den * (m + 1))
        row.append(x)
    return _reduce(row, p0.denominator * scale)


def _ode_rule(u, ud):
    """(qn, an, bn, L) when f = t u/ud, integer numerators u on its first
    w >= 4 coefficients, u_1 != 0, solves (1 + qt) f' = r0 + r1 f there,
    with q, r0, r1 = qn/L, an/L, bn/L; otherwise None. That is the two-term
    class one derivative up, (1 + qt) f'' = (r1 - q) f' with r0 = f'(0):
    f', numerators (m + 1) u_m, has the _two_term_rule r = q, c = r1 - q.
    L = lcm(den, den r0) is least, as lcm(den q, den r1) = lcm(den r, den c).
    Any three coefficients fit some q, r0, r1, so they are left out."""
    if len(u) < 4 or not u[1]:
        return None
    rule = _two_term_rule([(m + 1) * x for m, x in enumerate(u)], ud)
    if rule is None:
        return None
    r0, cn, rn, den = rule
    L = lcm(den, r0.denominator)
    return rn * (L // den), r0.numerator * (L // r0.denominator), (cn + rn) * (L // den), L


def _descent(rule, k, start, widths, cuts=None):
    """start = u^k, then u^(k-1), u^(k-2), ... for a unit with _ode_rule
    ``rule``, on a non-increasing run of widths (start is given on the
    first). (1 + qt)(f^k)' = k r0 f^(k-1) + k r1 f^k reads
    k r0 c'_m = (m + k) c_m - (k r1 - q(m + k - 1)) c_(m-1) for the rows c of
    u^k and c' of u^(k-1): O(1) per coefficient with no division, over the
    denominator of row k times |k an|, each row reduced once. The step up
    would divide by m + k, 0 at m = -k on the negative side. With ``cuts``,
    each row is returned cut to its first cuts[i] coefficients and reduced
    there, from the same pass: the gcd of the denominator and the cut comes
    first, and carried over the rest of the row it reduces the whole row."""
    qn, an, bn, L = rule
    c, d = start
    cuts = cuts or widths
    yield start if cuts[0] == widths[0] else _reduce(c[: cuts[0]], d)
    for w, cut in zip(widths[1:], cuts[1:]):
        s = 1 if k * an > 0 else -1
        b = s * (k * bn - qn * k)  # s (k r1 - q (m + k - 1)) L at m = 1
        nums = list(map(operator.mul, range(s * L * k, s * L * (k + w), s * L), c[:w]))
        bs = range(b, b - s * qn * (w - 1), -s * qn) if qn else repeat(b)
        nums[1:] = map(operator.sub, nums[1:], map(operator.mul, bs, c[: w - 1]))
        d, k = d * s * k * an, k - 1
        g = gcd(d, *nums[:cut])  # the cut's content, which the whole row's divides
        h = gcd(g, *nums[cut:])
        c, d = _reduce(nums, d, h)
        yield (c, d) if cut == w else _reduce(c[:cut], d, g // h)


def _dense_mul(x, y, w):
    """The first w coefficients of x*y for runs of rationals x and y."""
    (a, ad), (b, bd) = _dense(x), _dense(y)
    den = ad * bd
    return [Rat(c, den) for c in _mul_trunc(a, b, w)]


class TruncatedSeries:
    """A Laurent series known exactly on the window [valuation, order)."""

    __slots__ = ("coeffs", "order", "valuation", "_unit_read")

    def __init__(self, coeffs: Mapping[int, Rat] = (), order=INF):
        order = _check_order(order)
        items = (coeffs if isinstance(coeffs, dict) else dict(coeffs)).items()
        clean = {int(e): r for e, c in items if e < order and (r := c if type(c) is Rat else Rat(c))}
        self.coeffs = clean
        self.order = order
        self.valuation = min(clean) if clean else order
        self._unit_read = None  # (w, u, rule, ode rule), kept by _read

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when every known coefficient is zero."""
        return not self.coeffs

    def coefficient(self, e: int) -> Rat:
        """Exact coefficient of t^e. Raises if e lies beyond the window."""
        if e >= self.order:
            raise PreconditionError("coefficient beyond truncation order")
        return self.coeffs.get(e) or Rat(0)

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
        if len(self.coeffs) * len(other.coeffs) <= w:  # no more term pairs than the span
            out = {}
            for e, c in self.coeffs.items():
                for d, b in other.coeffs.items():
                    k, p = e + d, (b if c == 1 else c * b)
                    out[k] = out[k] + p if k in out else p
            return TruncatedSeries(out, order)  # drops the exponents past the window
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
        return all(
            self.coeffs.get(e, 0) == other.coeffs.get(e, 0)
            for e in self.coeffs.keys() | other.coeffs.keys()
            if e < bound
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
    return [f.coeffs.get(e, 0) for e in range(v, min(max(f.coeffs) + 1, v + w))]


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


def mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return f * g


def _out_order(window, order, what: str):
    """A result's window: the one its input determines, cut at ``order``.
    An exact input (an infinite window) needs an explicit finite order."""
    if window == INF and order in (None, INF):
        raise PreconditionError(f"{what} of an exact series requires an explicit order")
    return window if order is None else min(window, _check_order(order))


def _recip_order(f: TruncatedSeries, order=None):
    """The window of 1/f, order_f - 2*val_f cut at ``order``; exact only
    for a monomial f. Refused for a zero f."""
    if f.is_zero:
        raise PreconditionError("non-invertible: zero series")
    window, single = f.order - 2 * f.valuation, len(f.coeffs) == 1
    return window if single and order in (None, INF) else _out_order(window, order, "reciprocal")


def reciprocal(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """Multiplicative inverse 1/f.

    For a truncated input the result is determined on a window of
    order_f - 2*val_f: perturbing f at its order shifts the inverse at
    order_f - 2*val_f. Exact inputs need an explicit result order unless
    they are monomials, whose inverses are again exact monomials.
    """
    result_order = _recip_order(f, order)
    v = f.valuation
    if f.order == INF and len(f.coeffs) == 1:
        return monomial(-v, 1 / f.coeffs[v]).truncate(result_order)
    # Number of result coefficients, counting from exponent -v.
    length = result_order + v
    if length <= 0:
        return zero(result_order)
    # row -1 of the power table of the unit part u(t) = f(t) / t^v
    r, rd = _unit_powers(f, {-1: length})[-1]
    return TruncatedSeries({-v + k: Rat(x, rd) for k, x in enumerate(r)}, result_order)


def _unit(g: TruncatedSeries, w: int):
    """(integer numerators, denominator) of u = g/t^val(g) on its first w
    coefficients, read from g known to order val(g) + w."""
    v = g.valuation
    if w > 0 and v + w - 1 >= g.order:
        raise PreconditionError("coefficient beyond truncation order")
    return _dense([g.coeffs.get(e, 0) for e in range(v, v + w)])


def _read(g: TruncatedSeries, w: int) -> tuple:
    """(u, rule, ode rule): the unit u = _unit(g, w), its _two_term_rule and,
    when g is truncated, its _ode_rule (else None). g keeps the read of the
    last width it was read at, with the rows _unit_powers keeps at that
    width, so a series read twice at one width is converted and classified
    once; a read at another width replaces both, because a unit may fit a
    rule on a short prefix and not on a longer one. Callers do not mutate
    what it holds."""
    read = g._unit_read
    if read is None or read[0] != w:
        u = _unit(g, w)
        ode = _ode_rule(*u) if g.order != INF else None
        read = g._unit_read = w, u, _two_term_rule(*u), ode, {}
    return read[1:4]


def _unit_powers(g: TruncatedSeries, widths: Mapping[int, int]) -> dict:
    """The kernel's one signed power table: k -> (integer numerators,
    denominator) of u^k for u = g/t^val(g), for each row k of ``widths`` on
    at least its first widths[k] >= 1 coefficients; row 0 is the constant 1.
    u is read on the widest other row. A unit that solves (1 + rt) u' = cu
    on that window (_two_term_rule) has each row read off its own two-term
    rule at its own width. A truncated g that solves (1 + qt) g' = r0 + r1 g
    there (_ode_rule) has, on each side of zero asked for two rows or more,
    its highest row from one _power_row and each row below from the one
    above (_descent), each stepped as wide as the widest row asked for at or
    below it and returned cut to its own width.
    Any other unit, or side of one row, has its lowest row from one
    _power_row, or u (row 2 is u*u, one squaring), and every row above it
    from one _chain product by u, as wide as the widest row asked for at or
    above it. A one-row request reads the row g keeps at its width (_read),
    or an ODE unit steps down to it from the nearest kept row above on its
    side of zero when those steps (w each) cost less than one _power_row
    (w times u's taps); the rows it builds are kept. A table, whose rows
    may be wider than asked, neither reads nor keeps rows."""
    out = {k: ([1] + [0] * (w - 1), 1) for k, w in widths.items() if not k}
    if len(out) == len(widths):
        return out
    w_max = max(w for k, w in widths.items() if k)
    u, rule, ode = _read(g, w_max)
    kept = g._unit_read[4]
    if len(widths) == 1:  # one row: kept, or stepped down from the nearest kept row above it
        [k] = widths
        j = min((j for j in kept if k < j and j * k > 0), default=0)  # on k's side of zero
        # j - k steps of w each, against one _power_row: w times u's taps to its last nonzero one
        if k not in kept and ode and j and j - k <= max(i for i, x in enumerate(u[0]) if x):
            kept.update(zip(range(j, k - 1, -1), _descent(ode, j, kept[j], [w_max] * (j - k + 1))))
        if k in kept:
            return {k: kept[k]}
    if rule:
        out.update((k, _rule_row(rule, k, w)) for k, w in widths.items() if k)
    sides = () if rule else ([k for k in widths if k < 0], [k for k in widths if k > 0])
    for side in sides:
        if side:
            lo, hi = min(side), max(side)
            down = ode and lo < hi
            ks = range(hi, lo - 1, -1) if down else range(1 if 0 < lo <= 2 else lo, hi + 1)
            run = list(accumulate((widths.get(k, 0) for k in reversed(ks)), max))[::-1]
            first = _reduce(u[0][: run[0]], u[1]) if ks[0] == 1 else _power_row(*u, ks[0], run[0])
            if down:  # each row stepped as wide as run says and returned cut to its own width
                rows = _descent(ode, hi, first, run, [widths.get(k, w) for k, w in zip(ks, run)])
            else:
                rows = _chain(first, *u, run)
            out.update((k, row) for k, row in zip(ks, rows) if k in widths)
    if len(widths) == 1:
        kept.update(out)
    return out


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


def _brent_kung(coeffs, g: TruncatedSeries, m: int, top: int):
    """(numerators, denominator) of sum_e coeffs[e] g^e, e >= 0, on [0, top) by
    Brent-Kung 2.1: Horner in the giant step g^m over blocks of m outer
    coefficients, each a scalar-times-row sum of the baby steps g^0..g^(m-1).
    g's unknown tail counts as zero; the caller keeps only what it can't reach."""
    gn = _dense([g.coeffs.get(e, 0) for e in range(top)])
    baby = [([1], 1), *islice(_chain(gn, *gn, repeat(top)), m)]
    giant, gd = baby.pop()
    weights, den = _dense([coeffs.get(e, Rat(0)) / baby[e % m][1] for e in range(max(coeffs) + 1)])
    acc, ad = [], 1
    for j in range(max(coeffs) // m, -1, -1):
        d = lcm(ad * gd, den)  # the block's denominator is den
        acc = [x * (d // (ad * gd)) for x in _mul_trunc(acc, giant, top)]
        for (row, _), x in zip(baby, weights[j * m : j * m + m]):
            x *= d // den
            acc[: len(row)] = map(operator.add, acc[: len(row)], map(operator.mul, row, repeat(x)))
        acc, ad = _reduce(acc, d)
    return acc, ad


def _ode_compose(rule, g: TruncatedSeries, top: int) -> dict:
    """h_1..h_(top-1) of h = F(g), val g >= 1, for the F with F(0) = 0 and
    _ode_rule ``rule``, (1 + qt) F' = r0 + r1 F: (1 + qg) h' = (r0 + r1 h) g'
    reads n h_n = n r0 g_n + sum_(j<n) g_j h_(n-j) ((r1 + q) j - qn), one
    pass over g's stored terms on numerators over one denominator as in
    exp_series, O(top) steps of one Fraction and two dot products each."""
    qn, an, bn, L = rule
    js = sorted(j for j in g.coeffs if j < top)
    a, ad = _dense([g.coeffs[j] for j in js])
    ja, neg = [(bn + qn) * j * x for j, x in zip(js, a)], [-j for j in js]
    out, y, yd = {}, [0], 1  # y[-j] is the numerator of h_(n-j)
    for n in range(1, top):
        k = bisect_left(js, n)
        num = sum(map(operator.mul, ja[:k], map(y.__getitem__, neg[:k])))
        if qn:
            num -= qn * n * sum(map(operator.mul, a[:k], map(y.__getitem__, neg[:k])))
        if k < len(js) and js[k] == n:
            num += n * an * a[k] * yd
        h = out[n] = Rat(num, n * L * ad * yd)
        m = h.denominator // gcd(h.denominator, yd)  # yd * m = lcm(yd, den)
        if m != 1:
            y, yd = [x * m for x in y[-js[-1] :]], yd * m
        y.append(h.numerator * (yd // h.denominator))
    return out


def compose(f: TruncatedSeries, g: TruncatedSeries, order=None) -> TruncatedSeries:
    """Substitute g into f. Requires val(g) >= 1 so the result is well
    defined coefficientwise; f may be a Laurent series.

    A power series f whose f_1..f_E, for E = ceil(top/v) - 1 the highest
    exponent that reaches the result's top, fit _ode_rule gives f_0 plus
    one _ode_compose pass, O(top taps(g)) with no power of g: the rule's
    solution agrees with f on every exponent that reaches the window.
    Otherwise, with g = t^v u, f(g) = sum_e f_e t^(ev) u^e, the terms read
    off the signed power table of u, or the nonnegative ones by _brent_kung
    where that makes fewer products and u's first five coefficients fit
    neither _two_term_rule nor _ode_rule. The window is the ring rule: the
    least of order_f * v, order_g + (e-1) v for each e >= 1 in f, and
    R + (e+1) v for each e <= -1 in f, where R = min(order_g - 2v, order)
    is the window of 1/g. Terms whose t^(ev) lies at or past the window are
    left out; exact f and g give an exact result."""
    if not g.is_zero and g.valuation < 1:
        raise PreconditionError("composition requires positive valuation")
    v = g.valuation
    at = {e: _mul_order(e, v) for e in f.coeffs}  # t^(ev), where term e starts
    window = _mul_order(f.order, v)
    if min(at, default=0) < 0:
        window = min(window, _recip_order(g, order) + _mul_order(min(at) + 1, v))
    if max(at, default=0) > 0:
        window = min(window, g.order + _mul_order(min(e for e in at if e > 0) - 1, v))
    kept = sorted(e for e in at if at[e] < window)
    if not kept:
        return zero(window)
    # an exact result ends at the top exponent of its highest term
    top = window if window != INF else kept[-1] * max(g.coeffs, default=0) + 1
    # an outer of the ODE class on every exponent below ceil(top / v): one pass of its ODE
    if kept[0] >= 0 and at.get(1, window) < window:
        rule = _ode_rule(*_dense([f.coeffs.get(e, 0) for e in range(1, -(-top // v))]))
        if rule:
            return TruncatedSeries({0: f.coeffs.get(0, 0), **_ode_compose(rule, g, top)}, window)
    # products: m - 1 powers and one per block, or one to row p (none for p = 1) and one per row above
    p, m = min((e for e in kept if e > 0), default=0), isqrt(max(kept[-1], 0)) + 1
    fast = p and m - 1 + kept[-1] // m < min(p - 1, 1) + kept[-1] - p
    if fast:  # rows off a rule cost O(1) per coefficient; a prefix of u rejects the rest
        head = _unit(g, min(top - at[p], 5))
        fast = not (_two_term_rule(*head) or g.order != INF and _ode_rule(*head))
    rows = [e for e in kept if e < 0 or not fast]
    table = _unit_powers(g, {e: top - at[e] for e in rows})  # row e is read on [ev, top)
    terms = [(at[e], f.coeffs[e], table[e]) for e in rows]
    if fast:
        terms.append((0, Rat(1), _brent_kung({e: f.coeffs[e] for e in kept if e >= 0}, g, m, top)))
    lo = min(start for start, _, _ in terms)
    weights, den = _dense([c / row[1] for _, c, row in terms])
    out = [0] * (top - lo)
    for (start, _, (row, _)), x in zip(terms, weights):
        i = start - lo
        out[i : i + len(row)] = map(
            operator.add, out[i : i + len(row)], map(operator.mul, row, repeat(x)))
    return TruncatedSeries({lo + i: Rat(c, den) for i, c in enumerate(out)}, window)


def exp_series(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """exp(f) for a series with valuation >= 1, by n y_n = sum_j j f_j y_(n-j)
    over the stored terms f_j, on numerators over one denominator as in
    reciprocal; only the max(j) still read are rescaled. A one-term
    f = c t^j reads c^k/k! at t^(jk) directly. Exact inputs need an
    explicit order."""
    if not f.is_zero and f.valuation < 1:
        raise PreconditionError("exp_series requires positive valuation")
    if f.is_zero and f.order == INF:
        return constant(1)
    n_out = _out_order(f.order, order, "exp_series")
    if n_out <= 0:
        return zero(n_out)
    if len(f.coeffs) == 1:
        [(j, c)] = f.coeffs.items()
        out, q = {}, Rat(1)
        for k in range(0, n_out, j):
            out[k], q = q, (q if c == 1 else q * c) / (k // j + 1)
        return TruncatedSeries(out, n_out)
    js = sorted(j for j in f.coeffs if j < n_out)
    a, ad = _dense([j * f.coeffs[j] for j in js])
    out, y, yd = {0: Rat(1)}, [1], 1  # y[-j] is the numerator of y_(n-j)
    for n in range(1, n_out):
        q = out[n] = Rat(sum(c * y[-j] for j, c in zip(js[: bisect(js, n)], a)), n * ad * yd)
        m = q.denominator // gcd(q.denominator, yd)  # yd * m = lcm(yd, den)
        if m != 1:
            y, yd = [x * m for x in y[-js[-1] :]], yd * m
        y.append(q.numerator * (yd // q.denominator))
    return TruncatedSeries(out, n_out)


def log_series(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """log(f) for a series with constant term 1, the integral of f'/f:
    f' times 1/f known to one order below the result's."""
    if f.coeffs.get(0) != 1 or f.valuation != 0:
        raise PreconditionError("log_series requires constant term 1")
    if f.order == INF and len(f.coeffs) == 1:
        return zero()
    n_out = _out_order(f.order, order, "log_series")
    quotient = formal_derivative(f) * reciprocal(f, order=n_out - 1)
    return TruncatedSeries({e + 1: c / (e + 1) for e, c in quotient.coeffs.items()}, n_out)


# -- compositional inverse ----------------------------------------------
#
# Lagrange reversion by power projection (Brent-Kung, J. ACM 25(4), 1978):
# with r = t/f, [t^k] g = [t^(k-1)] r^k / k. Writing k = jm + i with
# m about sqrt(w), r^k = r^i (r^m)^j, so the baby steps r^0..r^m (a _chain
# by r = 1/u from one _power_row) and the giant steps (r^m)^j cost about
# 2 sqrt(w) products, and each coefficient is one integer dot product of a
# baby row with a giant row. Only the output coefficients become Fractions.
# A unit u = f/t in the two-term class (_two_term_rule) needs no baby or
# giant step: [t^(k-1)] u^(-k) is the product of the k - 1 steps of its own
# rule, formed without the row below it. A truncated f with _ode_rule needs
# no power: f'(g) g' = 1 gives (r0 + r1 t) g' = 1 + qg.


def compositional_inverse(f: TruncatedSeries, order=None) -> TruncatedSeries:
    """The series g with f(g(t)) = g(f(t)) = t. Requires valuation exactly
    one with a nonzero linear coefficient (a delta series).

    A truncated f that solves (1 + qt) f' = r0 + r1 f on its window (the
    differences, laguerre) gives g from (r0 + r1 t) g' = 1 + qg in O(N).
    Otherwise g comes from Lagrange reversion, [t^k] g = [t^(k-1)] (t/f)^k / k,
    read off the two-term rule of f/t when it has one (abel) and by power
    projection otherwise. The result is determined on the input's
    window; exact inputs that are not monomials need an explicit order."""
    if f.is_zero or f.valuation != 1:
        raise PreconditionError("not a delta series")
    if f.order == INF and len(f.coeffs) == 1:
        return monomial(1, 1 / f.coeffs[1])
    n_out = _out_order(f.order, order, "compositional inverse")
    w = n_out - 1  # coefficients t^1..t^w
    if w <= 0:
        return zero(n_out)
    u, two_term, ode = _read(f, w)
    if ode:  # (r0 + r1 t) g' = 1 + qg
        qn, an, bn, L = ode
        g, x = {}, Rat(L, an)
        for k in range(1, n_out):  # (k + 1) r0 g_(k+1) = (q - r1 k) g_k
            g[k], x = x, x * (qn - bn * k) / ((k + 1) * an)
        return TruncatedSeries(g, n_out)
    if two_term:  # [t^(k-1)] u^(-k) = u_0^(-k) prod_(j < k-1) (-kc - rj) / (k-1)!
        u0, cn, rn, den = two_term
        g = {}
        for k in range(1, n_out):
            p0, a = u0**-k, -k * cn
            num = a ** (k - 1) if rn == 0 else prod(range(a, a - rn * (k - 1), -rn))
            g[k] = Rat(p0.numerator * num, p0.denominator * den ** (k - 1) * factorial(k - 1) * k)
        return TruncatedSeries(g, n_out)
    m = isqrt(w - 1) + 1
    r = _power_row(*u, -1, w)
    # r^0..r^m, row 0 as wide as the rest: the dot product reads reversed(b[:k])
    baby = [([1] + [0] * (w - 1), 1), *islice(_chain(r, *r, repeat(w)), m)]
    giant = [baby[0], *islice(_chain(baby[m], *baby[m], repeat(w)), w // m)]  # (r^m)^0..(r^m)^(w/m)
    g = {}
    for k in range(1, n_out):
        j, i = divmod(k, m)
        (a, ad), (b, bd) = baby[i], giant[j]
        g[k] = Rat(sum(map(operator.mul, a[:k], reversed(b[:k]))), k * ad * bd)
    return TruncatedSeries(g, n_out)
