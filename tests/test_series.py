# Tests for the truncated Laurent series engine: frozen expansions computed
# independently ([DERIVED]) plus ring-axiom property tests.
from fractions import Fraction as Rat
import operator
import time
from itertools import repeat
from unittest import mock
from math import ceil, comb, factorial, gcd, sqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umbra import series
from umbra.errors import PreconditionError
from umbra.series import (
    INF,
    TruncatedSeries,
    _chain,
    _dense,
    _mul_order,
    _mul_trunc,
    _recip_order,
    _reduce,
    _unit_powers,
    compose,
    compositional_inverse,
    constant,
    exp_series,
    formal_derivative,
    from_coeffs,
    identity,
    int_pow,
    log_series,
    monomial,
    mul,
    reciprocal,
    zero,
)

t = identity()


# -- strategies ----------------------------------------------------------

small_rat = st.builds(
    Rat, st.integers(-6, 6), st.integers(1, 4)
)


def series_strategy(min_val=0, max_val=3, min_order=4, max_order=9):
    @st.composite
    def build(draw):
        val = draw(st.integers(min_val, max_val))
        order = draw(st.integers(max(min_order, val + 1), max_order))
        coeffs = {
            e: draw(small_rat) for e in range(val, order)
        }
        return TruncatedSeries(coeffs, order)

    return build()


# -- construction and normalization --------------------------------------

class TestConstruction:
    def test_drops_zeros_and_out_of_window(self):
        s = TruncatedSeries({0: 1, 1: 0, 2: Rat(1, 2), 7: 9}, order=5)
        assert s.coeffs == {0: Rat(1), 2: Rat(1, 2)}
        assert s.valuation == 0
        assert s.order == 5

    def test_zero_series_valuation_equals_order(self):
        s = zero(6)
        assert s.is_zero
        assert s.valuation == 6
        s2 = zero()
        assert s2.valuation == INF

    def test_coefficient_beyond_order_raises(self):
        s = from_coeffs([1, 2, 3])
        assert s.order == 3
        with pytest.raises(PreconditionError, match="beyond truncation order"):
            s.coefficient(3)

    def test_agreement_of_exact_series(self):
        # two exact series agree on every exponent, so their stored
        # coefficients decide it
        assert (t + monomial(5)).agrees_with(monomial(5) + t)
        assert not t.agrees_with(monomial(2))
        assert t.agrees_with(t.truncate(10**9))
        assert not monomial(10**9).agrees_with(zero())
        assert not zero().agrees_with(monomial(10**9))

    def test_known_zero_below_valuation(self):
        s = from_coeffs([5], start=2, order=4)
        assert s.coefficient(-3) == 0
        assert s.coefficient(1) == 0


# -- addition and multiplication -----------------------------------------

class TestRingOps:
    def test_add_order_is_min(self):
        f = from_coeffs([1, 1, 1], order=3)
        g = from_coeffs([1, 1, 1, 1, 1], order=5)
        assert (f + g).order == 3

    def test_mul_order_formula(self):
        # order = min(order_f + val_g, order_g + val_f)
        f = from_coeffs([1, 1], start=2, order=4)   # val 2, order 4
        g = from_coeffs([1, 1, 1], start=1, order=4)  # val 1, order 4
        assert (f * g).order == min(4 + 1, 4 + 2)

    def test_mul_example(self):
        # [DERIVED] (1 + t)(1 - t + t^2 - t^3 + ...) = 1 to the window
        f = from_coeffs([1, 1], order=INF)
        g = from_coeffs([(-1) ** k for k in range(8)], order=8)
        prod = f * g
        assert prod.coefficient(0) == 1
        for k in range(1, 8):
            assert prod.coefficient(k) == 0

    def test_scalar_and_neg(self):
        f = from_coeffs([1, 2], order=5)
        assert (f.scale(Rat(1, 2))).coefficient(1) == 1
        assert (-f).coefficient(0) == -1
        assert f.scale(0).order == INF

    @given(series_strategy(), series_strategy())
    @settings(max_examples=40, deadline=None)
    def test_mul_commutative(self, f, g):
        assert f * g == g * f

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=25, deadline=None)
    def test_mul_associative_on_overlap(self, f, g, h):
        assert ((f * g) * h).agrees_with(f * (g * h))

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=25, deadline=None)
    def test_distributive_on_overlap(self, f, g, h):
        assert (f * (g + h)).agrees_with(f * g + f * h)


# -- reciprocal ----------------------------------------------------------

class TestReciprocal:
    def test_geometric(self):
        # [DERIVED] 1/(1 - t) = sum t^k
        f = from_coeffs([1, -1], order=INF)
        r = reciprocal(f, order=10)
        for k in range(10):
            assert r.coefficient(k) == 1

    def test_laurent_window(self):
        # [DERIVED] 1/(t + t^2) = t^-1 - 1 + t - t^2 + ..., and the result
        # window is order_f - 2*val_f.
        f = from_coeffs([1, 1], start=1, order=8)
        r = reciprocal(f)
        assert r.order == 8 - 2
        assert r.valuation == -1
        for k in range(-1, 6):
            assert r.coefficient(k) == (-1) ** (k + 1)

    def test_exact_monomial(self):
        r = reciprocal(monomial(3, Rat(2)))
        assert r.order == INF
        assert r.coefficient(-3) == Rat(1, 2)

    def test_zero_raises(self):
        with pytest.raises(PreconditionError, match="non-invertible: zero series"):
            reciprocal(zero(5))

    def test_exact_nonmonomial_needs_order(self):
        with pytest.raises(PreconditionError, match="explicit order"):
            reciprocal(from_coeffs([1, 1], order=INF))

    @given(series_strategy(min_val=0, max_val=2))
    @settings(max_examples=40, deadline=None)
    def test_mul_inverse_is_one(self, f):
        if f.coeffs.get(f.valuation) is None:
            return  # zero series drawn
        prod = f * reciprocal(f)
        assert prod.coefficient(0) == 1
        for e in range(1, int(prod.order)):
            assert prod.coefficient(e) == 0


# -- the exact kernel against the Fraction loops it replaced --------------
#
# Oracles: the dict-of-Fraction double loop and the Fraction reciprocal
# recurrence. They share no arithmetic with the library's kernel, which
# works on integer numerators over a common denominator.


def _dict_mul(f, g):
    order = min(f.order + g.valuation, g.order + f.valuation)
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            if e < order:
                out[e] = out.get(e, Rat(0)) + c1 * c2
    return TruncatedSeries(out, order)


def _fraction_reciprocal(f, order=None):
    v = f.valuation
    if f.order == INF:
        if len(f.coeffs) == 1:
            out = monomial(-v, 1 / f.coeffs[v])
            return out.truncate(order) if order is not None else out
        result_order = order
    else:
        result_order = f.order - 2 * v
        if order is not None:
            result_order = min(result_order, order)
    length = result_order + v
    if length <= 0:
        return zero(result_order)
    u = [f.coeffs.get(v + k, Rat(0)) for k in range(length)]
    r = [1 / u[0]]
    for k in range(1, length):
        r.append(-sum(u[j] * r[k - j] for j in range(1, k + 1)) / u[0])
    return TruncatedSeries({-v + k: c for k, c in enumerate(r)}, result_order)


@st.composite
def kernel_operands(draw):
    """Laurent series of every shape the kernel meets: truncated or exact,
    zero, monomials, and runs with zero coefficients inside."""
    val = draw(st.integers(-3, 3))
    width = draw(st.none() | st.integers(1, 7))  # None: exact
    order = INF if width is None else val + width
    kind = draw(st.sampled_from(("run", "monomial", "zero")))
    if kind == "zero":
        return zero(order)
    coeffs = {val: draw(small_rat.filter(lambda c: c != 0))}
    if kind == "run":
        for e in range(val + 1, val + (width or draw(st.integers(1, 6)))):
            coeffs[e] = draw(small_rat)
    return TruncatedSeries(coeffs, order)


@st.composite
def sparse_operands(draw):
    """Nonzero series of at most four terms spread over exponents -5..60,
    exact or truncated."""
    exponents = draw(st.lists(st.integers(-5, 60), min_size=1, max_size=4, unique=True))
    order = draw(st.just(INF) | st.integers(min(exponents) + 1, 70))
    return TruncatedSeries({e: draw(small_rat.filter(bool)) for e in exponents}, order)


def _shape(f):
    return f.coeffs, f.order, f.valuation


@st.composite
def term_by_term_pairs(draw):
    """Two series of one to three terms over exponents -5..20, exact or
    truncated, whose terms are often 1 or -1. In half the pairs the
    right operand is the left with one term negated, so that cross terms
    cancel: (a + b)(a - b) = a^2 - b^2."""
    coeff = st.sampled_from([Rat(1), Rat(-1)]) | small_rat.filter(bool)

    def order(exponents):
        return draw(st.just(INF) | st.integers(min(exponents) + 1, 30))

    exponents = draw(st.lists(st.integers(-5, 20), min_size=1, max_size=3, unique=True))
    f = TruncatedSeries({e: draw(coeff) for e in exponents}, order(exponents))
    if len(f.coeffs) > 1 and draw(st.booleans()):
        flip = draw(st.sampled_from(sorted(f.coeffs)))
        g = {e: -c if e == flip else c for e, c in f.coeffs.items()}
    else:
        g = {e: draw(coeff) for e in draw(
            st.lists(st.integers(-5, 20), min_size=1, max_size=3, unique=True))}
    return f, TruncatedSeries(g, order(list(g)))


class TestKernelOracles:
    @given(kernel_operands(), kernel_operands())
    @settings(max_examples=80, deadline=None)
    def test_product_matches_dict_oracle(self, f, g):
        assert _shape(f * g) == _shape(_dict_mul(f, g))

    @given(kernel_operands(), st.none() | st.integers(-4, 10))
    @settings(max_examples=80, deadline=None)
    def test_reciprocal_matches_fraction_oracle(self, f, order):
        if f.is_zero:
            with pytest.raises(PreconditionError, match="zero series"):
                reciprocal(f, order)
        elif f.order == INF and len(f.coeffs) > 1 and order is None:
            with pytest.raises(PreconditionError, match="explicit order"):
                reciprocal(f, order)
        else:
            assert _shape(reciprocal(f, order)) == _shape(_fraction_reciprocal(f, order))

    def test_sparse_exact_product_pays_per_term_pair(self, monkeypatch):
        # two terms times one: two coefficient products, not a dense run
        # over a span of a million exponents
        calls = []
        monkeypatch.setattr(series, "_mul_trunc", lambda *args: calls.append(args))
        p = (monomial(0) + monomial(10**6)) * monomial(1)
        assert _shape(p) == ({1: 1, 1000001: 1}, INF, 1)
        assert calls == []

    @given(st.tuples(sparse_operands(), sparse_operands()) | term_by_term_pairs())
    @settings(max_examples=200, deadline=None)
    def test_sparse_product_matches_dense_oracle(self, pair):
        # operands with no more term pairs than the span of their product
        f, g = pair
        order = min(f.order + g.valuation, g.order + f.valuation)
        v = f.valuation + g.valuation
        w = min(max(f.coeffs) + max(g.coeffs) + 1, order) - v
        assume(len(f.coeffs) * len(g.coeffs) <= w)
        a, b = ([h.coeffs.get(h.valuation + i, Rat(0)) for i in range(w)] for h in (f, g))
        dense = TruncatedSeries(dict(enumerate(_dense_mul(a, b, w), start=v)), order)
        assert _shape(f * g) == _shape(dense)


# -- Miller's power recurrence --------------------------------------------
#
# Oracles: the two paths that built a first power row before the recurrence,
# the reciprocal loop r_m = -(u_1 r_(m-1) + ... + u_m r_0) / u_0 over a
# running least common denominator, and repeated squaring of truncated
# products, then a chain. Neither uses the weights (k+1) j - m.


def _loop_reciprocal(u, ud, w):
    r, rd = _reduce([ud], u[0])
    for k in range(1, w):
        num = -sum(map(operator.mul, u[1 : k + 1], reversed(r)))
        den = rd * u[0]
        g = gcd(num, den)
        num, den = num // g, den // g
        m = den // gcd(den, rd)  # rd * m = lcm(rd, den), up to sign
        if m != 1:
            r = [x * m for x in r]
            rd *= m
        r.append(num * (rd // den))
    return r, rd


def _squaring_powers(u, ud, w, first=1):
    p, b, n = None, (u, ud), first
    while n:
        if n & 1:
            p = b if p is None else _reduce(_mul_trunc(p[0], b[0], w), p[1] * b[1])
        n >>= 1
        if n:
            b = _reduce(_mul_trunc(b[0], b[0], w), b[1] * b[1])
    return _chain(p, u, ud, repeat(w))


def _squared_row(u, ud, k, w):
    """(u/ud)^k on its first w coefficients: 1/u by the loop for k < 0,
    then repeated squaring."""
    if k == 0:
        return [1] + [0] * (w - 1), 1
    if k < 0:
        (u, ud), k = _loop_reciprocal(u, ud, w), -k
    return next(_squaring_powers(u, ud, w, k))


def _values(row):
    return [Rat(x, row[1]) for x in row[0]]


@st.composite
def power_row_cases(draw):
    """(u, ud, k, w): integer numerators, small or about 64 bits tall, with
    zeros inside, over a denominator up to 10^12; u_0 is nonzero and
    mostly not +-ud."""
    w = draw(st.integers(1, 40))
    entry = st.integers(-6, 6) | st.integers(-(2**64), 2**64)
    u = [draw(entry.filter(bool)), *draw(st.lists(entry, min_size=w - 1, max_size=w - 1))]
    return u, draw(st.integers(1, 6) | st.integers(1, 10**12)), draw(st.integers(-40, 40)), w


class TestPowerRow:
    @given(power_row_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_squaring_and_reciprocal_loop(self, case):
        u, ud, k, w = case
        row, den = series._power_row(u, ud, k, w)
        assert _values((row, den)) == _values(_squared_row(u, ud, k, w))
        # the true height: a positive denominator sharing no factor with
        # every numerator
        assert len(row) == w and den > 0 and gcd(den, *row) == 1

    def test_reduced_start_keeps_the_height(self):
        # ((3 + 5t)/7)^(-46) has coefficients (7/3)^46 C(-46, m) (5/3)^m:
        # over 3^49, with no power of the input's denominator 7 left in it
        row, den = series._power_row([3, 5], 7, -46, 4)
        assert den == 3**49
        assert _values((row, den)) == [
            Rat(7, 3) ** 46 * comb(45 + m, m) * Rat(-5, 3) ** m for m in range(4)]

    @given(power_row_cases(), st.integers(1, 30), st.integers(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_trailing_zero_taps_change_nothing(self, case, pad, k):
        # the recurrence stops at the last nonzero tap: padding u with
        # zeros gives the same row, still w wide, and leaves u as it was
        u, ud, _, w = case
        padded = u + [0] * pad
        row = series._power_row(padded, ud, k, w)
        assert row == series._power_row(u, ud, k, w)
        assert len(row[0]) == w and padded == u + [0] * pad

    @given(power_row_cases(), st.lists(st.integers(0, 40), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_chain_matches_the_other_operand_order(self, case, widths):
        # start * u^i with u as _mul_trunc's second operand, as the chain
        # once multiplied: the same rows, numerators and denominators
        u, ud, k, w = case
        widths = sorted(widths + [w], reverse=True)
        start = series._power_row(u, ud, k, widths[0])
        p, want = None, []
        for width in widths:
            p = start if p is None else _reduce(_mul_trunc(p[0], u, width), p[1] * ud)
            want.append(p)
        assert list(_chain(start, u, ud, widths)) == want

    def test_short_polynomial_units_cost_their_degree(self):
        # 1/(t - 1) and log(1 + t) at order 20000: about 0.1 s and 0.2 s on
        # a 2-core x86-64 VM, where a recurrence over every padded zero tap
        # took several seconds
        start = time.perf_counter()
        r = reciprocal(from_coeffs([-1, 1], order=INF), order=20000)
        assert time.perf_counter() - start < 2
        assert r.order == 20000 and set(r.coeffs.values()) == {-1} and len(r.coeffs) == 20000
        start = time.perf_counter()
        g = log_series(1 + t, order=20000)
        assert time.perf_counter() - start < 2
        assert g.order == 20000 and all(g.coeffs[k] == Rat((-1) ** (k + 1), k) for k in range(1, 20000))

    @given(
        series_strategy(min_val=1, max_val=3, min_order=6, max_order=14),
        st.sets(st.integers(-12, 12), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_rows_match_squaring(self, g, ks):
        # the signed table's routing: u and u*u near zero, a recurrence for
        # each sign's lowest row, a chain by u above it
        assume(g.valuation < g.order and g.coefficient(g.valuation) != 0)
        w = g.order - g.valuation
        u = _dense([g.coefficient(g.valuation + e) for e in range(w)])
        table = _unit_powers(g, dict.fromkeys(ks, w))
        for k in ks:
            assert _values(table[k]) == _values(_squared_row(*u, k, w)), k


# -- two-term units ------------------------------------------------------
#
# A unit with (1 + rt) u' = cu on its window has every power read off its
# own rule. The oracle builds the table another way for any unit: rows 1
# and -1 by _dense and _power_row, and every other row by a _chain away
# from zero, by u or by 1/u, all on one width.


def _chain_powers(g, w, ks):
    """The power table of u = g/t^val(g) on w coefficients by _power_row and
    _chain alone, for any unit."""
    u = _dense([g.coefficient(g.valuation + e) for e in range(w)])
    out = {0: ([1] + [0] * (w - 1), 1)}
    pos, neg = [k for k in ks if k > 0], [k for k in ks if k < 0]
    if pos:
        out.update(zip(range(1, max(pos) + 1), _chain(u, *u, repeat(w))))
    if neg:
        first = series._power_row(*u, -1, w)
        out.update(zip(range(-1, min(neg) - 1, -1), _chain(first, *first, repeat(w))))
    return out


def _triangle(s, first):
    """Rows first..first + s - 1, row first + i read on s - i coefficients:
    the widths a basic-sequence or conjugate row asks of the table."""
    return {first + i: s - i for i in range(s)}


def _chain_triangle(g, s, first):
    """The rows of _triangle(s, first) by the oracle table and a _chain by u."""
    table = _chain_powers(g, s, (1, first))
    return dict(zip(range(first, first + s), _chain(table[first], *table[1], range(s, 0, -1))))


def _two_term_coeffs(u0, c, r, w):
    """u_0..u_(w-1) of u_0 (1 + rt)^(c/r), or u_0 e^(ct) for r = 0."""
    out = [u0]
    for m in range(w - 1):
        out.append((c - r * m) * out[-1] / (m + 1))
    return out


nonzero_rat = st.builds(Rat, st.integers(-9, 9).filter(bool), st.integers(1, 7))


@st.composite
def two_term_units(draw, max_w=12):
    """(u_0, c, r, w) of a unit in the class: e^(ct) (r = 0), a binomial
    with any rational exponent c/r, or a terminating binomial (1 + rt)^j,
    c = jr for j = 0..w-1; negative values and u_0 other than +-1 included."""
    w = draw(st.integers(1, max_w))
    u0, r = draw(nonzero_rat), draw(nonzero_rat)
    kind = draw(st.sampled_from(("exp", "binomial", "terminating")))
    if kind == "exp":
        return u0, draw(small_rat), Rat(0), w
    if kind == "terminating":
        return u0, draw(st.integers(0, w - 1)) * r, r, w
    return u0, draw(small_rat), r, w


@st.composite
def integer_exponent_rows(draw):
    """(u_0, c, r, k, w): a binomial unit u_0 (1 + rt)^(c/r), c/r = p/q, and
    a power k that q divides, so kc/r is an integer, as for laguerre, t - 1
    and t/(1 + t); at widths above 20."""
    u0, r, q = draw(nonzero_rat), draw(nonzero_rat), draw(st.integers(1, 4))
    c = r * draw(st.integers(-6, 6)) / q
    return u0, c, r, q * draw(st.integers(-8, 8).filter(bool)), draw(st.integers(21, 48))


def _unit_series(coeffs, v=1, order=None):
    """t^v times the given unit coefficients, known to v + len(coeffs)."""
    return from_coeffs([0] * v + coeffs, order=v + len(coeffs) if order is None else order)


@st.composite
def near_misses(draw):
    """A unit that fits the two-term rule on u_0..u_2 and on every
    coefficient up to j - 1, with u_j off it: (coefficients, j)."""
    u0, c, r, w = draw(two_term_units(max_w=14).filter(lambda case: case[3] >= 4))
    coeffs = _two_term_coeffs(u0, c, r, w)
    j = draw(st.integers(3, w - 1))
    coeffs[j] += draw(nonzero_rat)
    return coeffs, j


@st.composite
def table_requests(draw):
    """(g, widths): g = t^v u for u in the two-term class, a near miss or
    any other unit, and per-row widths on both sides of zero and at row 0,
    with gaps between the rows asked for and widths that rise and fall."""
    kind = draw(st.sampled_from(("class", "near miss", "other")))
    if kind == "class":
        u0, c, r, w = draw(two_term_units(max_w=14))
        coeffs = _two_term_coeffs(u0, c, r, w)
    elif kind == "near miss":
        coeffs, _ = draw(near_misses())
    else:
        coeffs = [draw(nonzero_rat), *draw(st.lists(small_rat, max_size=13))]
    rows = draw(st.sets(st.integers(-12, 12), min_size=1, max_size=8))
    return _unit_series(coeffs, v=draw(st.integers(1, 3))), {
        k: draw(st.integers(1, len(coeffs))) for k in sorted(rows)}


def _sign(k):
    return (k > 0) - (k < 0)


class TestTwoTermRule:
    @given(table_requests())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_oracle_cut_to_their_widths(self, case):
        # each row is at least as wide as asked, and no wider than the
        # widest row asked for at or above it on its side of zero; at or
        # below it where a side of several rows steps across (_ode_rule)
        g, widths = case
        table = _unit_powers(g, widths)
        assert table.keys() == widths.keys()
        want = _chain_powers(g, max(widths.values()), widths)
        u = _dense([g.coefficient(g.valuation + e)
                    for e in range(max((w for k, w in widths.items() if k), default=1))])
        down = series._two_term_rule(*u) is None and series._ode_rule(*u) is not None
        for k, w in widths.items():
            side = [j for j in widths if _sign(j) == _sign(k)]
            reach = max(widths[j] for j in side if (j <= k if down and len(side) > 1 else j >= k))
            assert w <= len(table[k][0]) <= reach, (k, widths)
            assert _values(table[k])[:w] == _values(want[k])[:w], (k, widths)

    @given(two_term_units())
    @settings(max_examples=80, deadline=None)
    def test_rows_match_the_chain_at_every_width(self, case):
        u0, c, r, w = case
        coeffs = _two_term_coeffs(u0, c, r, w)
        for width in range(1, w + 1):
            g = _unit_series(coeffs[:width], v=width % 3)
            u = _dense(coeffs[:width])
            rule = series._two_term_rule(*u)
            assert rule is not None
            ks = range(-w, w + 1)
            want = _chain_powers(g, width, ks)
            assert _unit_powers(g, dict.fromkeys(ks, width)) == want
            for k in ks:
                if k:  # row 0 of the table is the constant 1
                    assert series._rule_row(rule, k, width) == want[k], (k, width)
                    assert want[k] == series._power_row(*u, k, width)

    @given(near_misses())
    @settings(max_examples=80, deadline=None)
    def test_near_misses_take_the_chain(self, case):
        coeffs, j = case
        w = len(coeffs)
        assert series._two_term_rule(*_dense(coeffs)) is None
        assert series._two_term_rule(*_dense(coeffs[:j])) is not None
        g = _unit_series(coeffs)
        ks = range(-w, w + 1)
        assert _unit_powers(g, dict.fromkeys(ks, w)) == _chain_powers(g, w, ks)
        for first in (1, -w):
            assert _unit_powers(g, _triangle(w, first)) == _chain_triangle(g, w, first)
        assert compositional_inverse(g) == _chain_inverse(g)

    @given(two_term_units().filter(lambda case: case[3] >= 3), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_a_window_fits_only_up_to_its_order(self, case, extra):
        # an exact polynomial unit that agrees with e^(ct) or a binomial on
        # its first w >= 3 coefficients, which pin c and r, and stops there:
        # in the class on w, and on the chain path past it unless the
        # binomial terminates by then
        u0, c, r, w = case
        coeffs = _two_term_coeffs(u0, c, r, w)
        g = _unit_series(coeffs, order=INF)
        for width in (w, w + extra):
            u = _dense([g.coefficient(1 + e) for e in range(width)])
            fits = _two_term_coeffs(u0, c, r, width)[w:] == [0] * (width - w)
            assert (series._two_term_rule(*u) is not None) == fits
            ks = range(-width, width + 1)
            assert _unit_powers(g, dict.fromkeys(ks, width)) == _chain_powers(g, width, ks)

    @given(two_term_units(max_w=24))
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_triangles_match_the_chain(self, case):
        u0, c, r, w = case
        f = _unit_series(_two_term_coeffs(u0, c, r, w))
        assert compositional_inverse(f) == _chain_inverse(f)
        for first in (1, -w):
            assert _unit_powers(f, _triangle(w, first)) == _chain_triangle(f, w, first)

    @given(integer_exponent_rows())
    @settings(max_examples=60, deadline=None)
    def test_integer_exponent_rows_match_the_recurrence(self, case):
        u0, c, r, k, w = case
        u = _dense(_two_term_coeffs(u0, c, r, w))
        row = series._rule_row(series._two_term_rule(*u), k, w)
        assert row == series._power_row(*u, k, w)
        assert _values(row) == _two_term_coeffs(u0**k, k * c, r, w)

    def test_integer_exponent_rows_need_no_factorial(self):
        # row -1 of t - 1 at width 20000, -1 - t - t^2 - ...: about 0.01 s on
        # a 2-core x86-64 VM, where a row built over (w - 1)! took 4.4 s
        u = _dense([Rat(-1), Rat(1)] + [Rat(0)] * 19998)
        start = time.perf_counter()
        row = series._rule_row(series._two_term_rule(*u), -1, 20000)
        assert time.perf_counter() - start < 1
        assert row == ([-1] * 20000, 1)

    def test_class_units_run_no_recurrence_or_chain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the two-term path ran the power recurrence or a chain")

        monkeypatch.setattr(series, "_power_row", refuse)
        monkeypatch.setattr(series, "_chain", refuse)
        b = Rat(13, 17)
        for coeffs in (_two_term_coeffs(Rat(1), b, Rat(0), 40),
                       _two_term_coeffs(Rat(-1), Rat(1), Rat(-1), 40),
                       _two_term_coeffs(Rat(1), Rat(-1), Rat(1), 40)):
            f = _unit_series(coeffs)
            compositional_inverse(f)
            _unit_powers(f, dict.fromkeys(range(-40, 41), 40))
            _unit_powers(f, _triangle(40, -40))
            _unit_powers(f, _triangle(40, 1))

    def test_forward_difference_fails_at_the_third_coefficient(self):
        # u = (e^t - 1)/t = 1 + t/2 + t^2/6 + ...: c = 1/2, r = -1/6 from
        # u_1 and u_2, and 3 u_3 = 1/8 against (c - 2r) u_2 = 5/36
        u = [1 / Rat(factorial(m + 1)) for m in range(64)]
        assert series._two_term_rule(*_dense(u[:3])) is not None
        assert series._two_term_rule(*_dense(u[:4])) is None
        assert series._two_term_rule(*_dense(u)) is None


# -- delta series that solve (1 + qt) f' = r0 + r1 f ----------------------
#
# e^(ht) - 1, 1 - e^(-t), log(1 + t) and t/(1 + t) have every power of f
# from the row next to it, and an inverse that solves (r0 + r1 t) g' = 1 + qg.
# The oracles are the chain-built table, the chain inverse and the ring
# rule's term-by-term composition.


def _ode_coeffs(q, r0, r1, w):
    """f_1..f_w, the unit coefficients u_0..u_(w-1), of the delta series
    with (1 + qt) f' = r0 + r1 f: f_1 = r0, (m + 1) f_(m+1) = (r1 - qm) f_m."""
    out = [r0]
    for m in range(1, w):
        out.append((r1 - q * m) * out[-1] / (m + 1))
    return out


def _fits_two_term(u):
    """[DERIVED] whether the Fractions u_0..u_(w-1), u_0 != 0, solve
    (1 + rt) u' = cu: the first two steps force c = u_1/u_0 and, when
    u_1 != 0, r = c - 2 u_2/u_1 (else u vanishes past u_0 for every r)."""
    c = u[1] / u[0] if len(u) > 1 else 0
    r = c - 2 * u[2] / u[1] if len(u) > 2 and u[1] else 0
    return all((m + 1) * u[m + 1] == (c - r * m) * u[m] for m in range(len(u) - 1))


def _fits_ode(u):
    """[DERIVED] whether f = t u, Fractions u_0..u_(w-1), solves
    (1 + qt) f' = r0 + r1 f with r1 != q, as a member of the ODE class is
    read: f' fits the two-term rule, f_1 != 0 != f_2 and w >= 4."""
    return len(u) >= 4 and u[0] != 0 != u[1] and _fits_two_term([(m + 1) * x for m, x in enumerate(u)])


@st.composite
def ode_members(draw, min_w=4, max_w=40):
    """(q, r0, r1, w) with r1 != q, so f_2 != 0: e^(ht) - 1 and its
    multiples such as 1 - e^(-t) (q = 0), log(1 + ht)/h, t/(1 + ht), the
    polynomials ((1 + qt)^j - 1) r0/(jq) (r1 = jq), or any other triple."""
    w, h = draw(st.integers(min_w, max_w)), draw(nonzero_rat)
    kind = draw(st.sampled_from(("exp", "log", "bridge", "polynomial", "any")))
    if kind == "exp":
        return Rat(0), draw(st.just(h) | st.just(-h) | nonzero_rat), h, w
    if kind == "log":
        return h, Rat(1), Rat(0), w
    if kind == "bridge":
        return h, Rat(1), -h, w
    if kind == "polynomial":
        return h, draw(nonzero_rat), draw(st.integers(2, 5)) * h, w
    q = draw(small_rat)
    return q, draw(nonzero_rat), draw(small_rat.filter(lambda r1: r1 != q)), w


@st.composite
def ode_near_misses(draw):
    """A member's unit coefficients, with u_j off its rule for some j >= 4,
    so the first four fit: (coefficients, j)."""
    q, r0, r1, w = draw(ode_members(min_w=5, max_w=24))
    coeffs = _ode_coeffs(q, r0, r1, w)
    j = draw(st.integers(4, w - 1))
    coeffs[j] += draw(nonzero_rat)
    return coeffs, j


@st.composite
def outer_series(draw):
    """A Laurent outer series, sparse over t^-3..t^45 or dense to t^30,
    exact or truncated."""
    if draw(st.booleans()):
        fc = draw(st.dictionaries(st.integers(-3, 45), small_rat, min_size=1, max_size=6))
    else:
        lo, hi = draw(st.integers(0, 3)), draw(st.integers(5, 31))
        fc = {e: draw(small_rat) for e in range(lo, hi)}
    return TruncatedSeries(fc, draw(st.just(INF) | st.integers(1, 48)))


def _refuse(*args):
    raise AssertionError("this path was not to be taken")


def _falling_row(m):
    """[DERIVED] the coefficients of x(x - 1)...(x - m + 1)."""
    row = [Rat(1)]
    for i in range(m):
        row = [a - i * b for a, b in zip([Rat(0)] + row, row + [Rat(0)])]
    return row


class TestOdeRule:
    @given(ode_members())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_the_chain_at_every_k(self, case):
        q, r0, r1, w = case
        coeffs = _ode_coeffs(q, r0, r1, w)
        assert series._ode_rule(*_dense(coeffs)) is not None
        g = _unit_series(coeffs, v=w % 3 + 1)
        ks = range(-w, w + 1)
        assert _unit_powers(g, dict.fromkeys(ks, w)) == _chain_powers(g, w, ks)
        for first in (1, -w):  # the triangles the basic sequences read
            widths = _triangle(w, first)
            table, want = _unit_powers(g, widths), _chain_triangle(g, w, first)
            for k, width in widths.items():
                assert width <= len(table[k][0]) <= w
                assert _values(table[k])[:width] == _values(want[k])[:width], (k, first)

    @given(ode_members(max_w=24), outer_series())
    @settings(max_examples=40, deadline=None)
    def test_inverse_and_compose_match_the_oracles(self, case, f):
        q, r0, r1, w = case
        g = _unit_series(_ode_coeffs(q, r0, r1, w))
        assert compositional_inverse(g) == _chain_inverse(g)
        assert _outcome_of(compose, f, g, None) == _outcome_of(_ring_oracle, f, g, None)

    @given(ode_near_misses(), outer_series())
    @settings(max_examples=40, deadline=None)
    def test_near_misses_take_the_chain(self, case, f):
        coeffs, j = case
        w = len(coeffs)
        assert series._ode_rule(*_dense(coeffs[:j])) is not None
        assert series._ode_rule(*_dense(coeffs)) is None
        assert series._two_term_rule(*_dense(coeffs)) is None
        g = _unit_series(coeffs)
        ks = range(-w, w + 1)
        assert _unit_powers(g, dict.fromkeys(ks, w)) == _chain_powers(g, w, ks)
        assert compositional_inverse(g) == _chain_inverse(g)
        assert _outcome_of(compose, f, g, None) == _outcome_of(_ring_oracle, f, g, None)

    @given(ode_members(max_w=16), outer_series())
    @settings(max_examples=40, deadline=None)
    def test_exact_inputs_and_short_windows_keep_the_old_paths(self, case, f):
        # an exact series never consults the rule, and three coefficients,
        # which any q, r0 and r1 fit, are never taken for a member; compose
        # reads the rule of its outer alone, never of the exact inner
        q, r0, r1, w = case
        coeffs = _ode_coeffs(q, r0, r1, w)
        exact, short = _unit_series(coeffs, order=INF), _unit_series(coeffs[:3])
        assert series._ode_rule(*_dense(coeffs[:3])) is None
        with mock.patch.object(series, "_descent", _refuse):
            assert _unit_powers(short, dict.fromkeys(range(-3, 4), 3)) == _chain_powers(
                short, 3, range(-3, 4))
        with mock.patch.object(series, "_ode_rule", _refuse):
            ks = range(-w, w + 1)
            assert _unit_powers(exact, dict.fromkeys(ks, w)) == _chain_powers(exact, w, ks)
            assert compositional_inverse(exact, order=w + 1) == _chain_inverse(exact, order=w + 1)
        reads = []
        with mock.patch.object(series, "_ode_rule", lambda *u: reads.append(u)):
            got = _outcome_of(compose, f, exact, w + 1)
        assert all(u == _dense([f.coeffs.get(e, 0) for e in range(1, len(u[0]) + 1)]) for u in reads)
        assert got == _outcome_of(_ring_oracle, f, exact, w + 1)

    def test_difference_calls_step_across_rows(self, monkeypatch):
        # at N = 64 the inverse of the forward difference, the
        # backward-to-forward connection, shift(a) in forward differences
        # and the transfer rows of the forward difference run no chain and
        # no Brent-Kung, and at most one Miller pass on each side of zero
        from umbra.operators import catalog, expand_in_basis
        from umbra.sequences import connection_constants, generate_transfer

        n, a = 64, Rat(13, 17)
        fd, bd = catalog("forward_difference", order=n), catalog("backward_difference", order=n)
        shift = catalog("shift", {"a": a}, order=n)
        sides, power_row = [], series._power_row

        def counted(u, ud, k, w):
            sides.append(_sign(k))
            return power_row(u, ud, k, w)

        monkeypatch.setattr(series, "_chain", _refuse)
        monkeypatch.setattr(series, "_brent_kung", _refuse)
        monkeypatch.setattr(series, "_power_row", counted)
        results = []
        for call in (lambda: compositional_inverse(fd.series),
                     lambda: connection_constants(bd, fd, n - 2),
                     lambda: expand_in_basis(shift, fd, n - 2),
                     lambda: generate_transfer(fd, n - 2).terms(n - 2)):
            sides.clear()
            results.append(call())
            assert sides.count(1) <= 1 and sides.count(-1) <= 1, sides
        monkeypatch.undo()
        g, connect, expand, transfer = results
        # [DERIVED] log(1 + t); the signed Lah numbers C(m-1, k-1) m!/k!;
        # the falling factorials of a; the lower factorials
        assert g == TruncatedSeries({k: Rat((-1) ** (k + 1), k) for k in range(1, n)}, n)
        for m in range(1, n - 1):
            assert connect.row(m) == (0, *((-1) ** (m - k) * Rat(comb(m - 1, k - 1) * factorial(m),
                                                                 factorial(k))
                                           for k in range(1, m + 1))), m
        falling = [Rat(1)]
        for k in range(1, n - 1):
            falling.append(falling[-1] * (a - k + 1))
        assert expand == falling
        assert [list(p.coeffs) for p in transfer] == [_falling_row(m) for m in range(n - 1)]

    def test_forward_difference_solves_its_own_ode(self):
        # (e^t - 1)' = 1 + (e^t - 1), (1 - e^(-t))' = 1 - (1 - e^(-t)) and
        # (1 + t) log(1 + t)' = 1. abel's unit e^(bt) is outside: at j = 2,
        # 4 u_0 u_1 u_3 = 2b^4/3 against (2 u_1^2 + 2 (3 u_0 u_2 - 2 u_1^2)) u_2
        # = b^4/2, the fourth coefficient; it has the two-term rule instead
        fd = [1 / Rat(factorial(m + 1)) for m in range(64)]
        bd = [Rat((-1) ** m, factorial(m + 1)) for m in range(64)]
        log = [Rat((-1) ** m, m + 1) for m in range(64)]
        assert series._ode_rule(*_dense(fd)) == (0, 1, 1, 1)
        assert series._ode_rule(*_dense(bd)) == (0, 1, -1, 1)
        assert series._ode_rule(*_dense(log)) == (1, 1, 0, 1)
        b = Rat(13, 17)
        abel = [b**m / factorial(m) for m in range(64)]
        assert series._ode_rule(*_dense(abel[:3] + [Rat(0)])) is None
        assert series._ode_rule(*_dense(abel[:4])) is None
        assert series._ode_rule(*_dense(abel)) is None
        assert series._two_term_rule(*_dense(abel)) is not None


# -- the kernel read kept on a series -------------------------------------
#
# A series keeps its unit, the unit's rules and the table rows its one-row
# requests built, for the last width it was read at. A unit may fit a rule
# on a prefix and not on the whole window, so a read at one width must
# never answer for another.


@st.composite
def kernel_read_units(draw):
    """(coefficients, j): a unit whose first j coefficients fit the
    two-term or the ODE rule, all of them (j = w) for a member of either
    class, or up to u_(j-1) for a near miss."""
    kind = draw(st.sampled_from(("two-term", "ode", "near miss", "ode near miss")))
    if kind == "two-term":
        u0, c, r, w = draw(two_term_units(max_w=14).filter(lambda case: case[3] >= 3))
        return _two_term_coeffs(u0, c, r, w), w
    if kind == "ode":
        q, r0, r1, w = draw(ode_members(max_w=16))
        return _ode_coeffs(q, r0, r1, w), w
    return draw(near_misses() if kind == "near miss" else ode_near_misses())


def _kernel_reads_match_the_oracles(g, f):
    w = g.order - 1
    ks = range(-w, w + 1)
    assert _unit_powers(g, dict.fromkeys(ks, w)) == _chain_powers(g, w, ks)
    for first in (1, -w):
        assert _unit_powers(g, _triangle(w, first)) == _chain_triangle(g, w, first)
    assert compositional_inverse(g) == _chain_inverse(g)
    assert _outcome_of(compose, f, g, None) == _outcome_of(_ring_oracle, f, g, None)


@st.composite
def kept_row_requests(draw):
    """(coefficients, requests): an ODE member, a two-term unit, a unit
    that fits no rule, or an ODE near miss, and a run of one-row and table
    requests at two widths, interleaved: a short width (for a near miss,
    the prefix its rule fits) and the full one. Near misses, whose rule
    holds at one width only, are drawn twice as often."""
    kind = draw(st.sampled_from(("ode", "two-term", "chain", "ode near miss", "ode near miss")))
    if kind == "ode":
        q, r0, r1, w = draw(ode_members(max_w=16))
        coeffs, short = _ode_coeffs(q, r0, r1, w), draw(st.integers(1, w))
    elif kind == "two-term":
        u0, c, r, w = draw(two_term_units(max_w=14))
        coeffs, short = _two_term_coeffs(u0, c, r, w), draw(st.integers(1, w))
    elif kind == "chain":
        coeffs = [draw(nonzero_rat), *draw(st.lists(small_rat, min_size=1, max_size=13))]
        short = draw(st.integers(1, len(coeffs)))
    else:
        coeffs, short = draw(ode_near_misses())
    w = len(coeffs)
    rows = st.integers(-w - 3, w + 3)
    # a table, or one-row requests in turn, from the top row down as a run
    # of log windows in increasing degree reads them
    tables = st.sets(rows, min_size=2, max_size=4).map(lambda ks: [ks])
    runs = st.lists(rows, min_size=1, max_size=5).map(lambda ks: [{k} for k in sorted(ks)[::-1]])
    blocks = st.lists(st.tuples(st.sampled_from((short, w)), tables | runs), min_size=1, max_size=5)
    return coeffs, [(width, ks) for width, run in draw(blocks) for ks in run]


class TestKernelRead:
    @given(kept_row_requests())
    @settings(max_examples=200, deadline=None)
    def test_kept_rows_answer_as_a_fresh_series(self, case):
        # a series keeps the rows its one-row requests built, and steps a
        # row down from the nearest kept one above it; every request must
        # return the rows that a series with nothing kept returns
        coeffs, requests = case
        g = _unit_series(coeffs)
        for width, ks in requests:
            widths = dict.fromkeys(ks, width)
            fresh = TruncatedSeries(g.coeffs, g.order)
            assert _unit_powers(g, widths) == _unit_powers(fresh, widths), (width, widths)

    @given(near_misses() | ode_near_misses(), outer_series())
    @settings(max_examples=60, deadline=None)
    def test_a_rule_on_a_prefix_is_not_read_at_full_width(self, case, f):
        # one series read first at width j, where its unit fits a rule, and
        # then at its full width, where it does not: a perturbed unit that
        # lands on a member of either class, such as 1/2 (1 - 3t)^3 with its
        # t^3 term cut, is no near miss and is skipped
        coeffs, j = case
        assume(not _fits_two_term(coeffs) and not _fits_ode(coeffs))
        g = _unit_series(coeffs)
        short = dict.fromkeys(range(-j, j + 1), j)
        assert _unit_powers(g, short) == _chain_powers(g, j, short)
        assert compositional_inverse(g, order=j + 1) == _chain_inverse(g, order=j + 1)
        _, rule, ode = series._read(g, j)
        assert rule is not None or ode is not None
        _kernel_reads_match_the_oracles(g, f)
        assert series._read(g, len(coeffs))[1:] == (None, None)

    @given(kernel_read_units(), outer_series(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_an_extended_input_claims_no_more_than_it_did(self, case, f, data):
        # the input extended past its order by random coefficients, with
        # its kernel read at the old width already kept: each window is no
        # narrower, agrees on the old one, and a result stays a result
        coeffs, _ = case
        w = len(coeffs)
        tail = data.draw(st.lists(small_rat, min_size=1, max_size=6))
        g, longer = _unit_series(coeffs), _unit_series(coeffs + tail)
        calls = (lambda s, o: compositional_inverse(s, order=o),
                 lambda s, o: reciprocal(s, order=o),
                 lambda s, o: compose(f, s, o))
        want = []
        for call in calls:
            try:
                want.append(call(g, None))
            except PreconditionError:
                want.append(None)
        ks = range(-w, w + 1)
        rows = _unit_powers(g, dict.fromkeys(ks, w))
        assert _unit_powers(longer, dict.fromkeys(ks, w)) == rows
        assert compositional_inverse(longer, order=g.order) == want[0]
        for call, before in zip(calls, want):
            if before is not None:
                after = call(longer, None)
                assert after.order >= before.order and after.truncate(before.order) == before
        wide = _unit_powers(longer, dict.fromkeys(ks, len(coeffs + tail)))
        assert all(_values(wide[k])[:w] == _values(rows[k]) for k in ks)
        _kernel_reads_match_the_oracles(longer, f)

    def test_a_polynomial_member_extended_by_zeros_keeps_its_ode(self):
        # t + t^2 + t^3/3 = ((1 + t)^3 - 1)/3 is exact, so a zero tail still
        # fits (1 + t) f' = 1 + 3f, and its triangles are read by the descent
        coeffs = [Rat(1), Rat(1), Rat(1, 3), Rat(0)]
        longer = _unit_series(coeffs + [Rat(0)])
        assert series._read(longer, 5)[2] == (1, 1, 3, 1)
        _kernel_reads_match_the_oracles(longer, from_coeffs([0, 2, -1, 3], order=4))

    def test_a_cut_binomial_that_is_a_polynomial_member_reads_its_ode(self):
        # 1/2 (1 - 3t)^3 with u_3 cut to 0 fits its two-term rule on
        # u_0..u_2 only, but t u = (1 - (1 - 3t)^3)/18 solves
        # (1 - 3t) f' = 1/2 - 9 f: q, r0, r1 = -6/2, 1/2, -18/2
        coeffs = [Rat(1, 2), Rat(-3, 2), Rat(3, 2), Rat(0)]
        assert _fits_ode(coeffs) and not _fits_two_term(coeffs)
        g = _unit_series(coeffs)
        assert series._read(g, 3)[1] is not None
        assert series._read(g, 4)[1:] == (None, (-6, 1, -18, 2))
        _kernel_reads_match_the_oracles(g, monomial(5))

    def test_a_series_keeps_the_read_of_its_last_width(self):
        g = _unit_series([Rat(1, k) for k in range(1, 9)])
        first = series._read(g, 5)
        assert series._read(g, 5)[0] is first[0]
        assert series._read(g, 6)[0] is not first[0] and g._unit_read[0] == 6
        assert series._read(g, 5) == first and series._read(g, 5)[0] is not first[0]
        with pytest.raises(PreconditionError, match="coefficient beyond truncation order"):
            series._read(g, 9)
        assert g._unit_read[0] == 5

    def test_an_exact_series_has_no_ode_rule(self):
        # log(1 + t) to t^4 solves (1 + t) f' = 1 below t^5, but an exact
        # polynomial does not, however its prefix reads
        coeffs = {k: Rat((-1) ** (k + 1), k) for k in range(1, 5)}
        assert series._read(TruncatedSeries(coeffs, 5), 4)[2] is not None
        assert series._read(TruncatedSeries(coeffs), 4)[2] is None


# -- composition ---------------------------------------------------------

class TestCompose:
    def test_identity_substitution(self):
        f = from_coeffs([3, 1, 4, 1, 5], order=5)
        assert compose(f, identity()).agrees_with(f)

    def test_requires_positive_valuation(self):
        with pytest.raises(PreconditionError, match="positive valuation"):
            compose(t, from_coeffs([1, 1], order=6))

    def test_laurent_head(self):
        # [DERIVED] substituting g = t(1+t) into t^-1
        g = from_coeffs([1, 1], start=1, order=8)
        r = compose(monomial(-1), g)
        assert r.coefficient(-1) == 1
        assert r.coefficient(0) == -1
        assert r.coefficient(1) == 1

    def test_exp_log_roundtrip(self):
        f = exp_series(t, order=12) - constant(1)   # e^t - 1
        g = log_series(from_coeffs([1, 1], order=INF), order=12)  # log(1+t)
        r = compose(f, g)
        assert r.coefficient(1) == 1
        for k in range(2, int(r.order)):
            assert r.coefficient(k) == 0

    def test_order_formula(self):
        # order = min(order_g, order_f * val_g) for a power-series f
        f = from_coeffs([0, 1, 1, 1, 1], order=5)
        g = from_coeffs([1, 1], start=2, order=9)  # val 2
        assert compose(f, g).order == min(9, 5 * 2)

    def test_laurent_power_below_minus_one(self):
        # the first negative power is 1/g^3, not 1/g
        assert compose(monomial(-3), t) == monomial(-3)
        g = from_coeffs([1, 1, 2], start=1, order=9)
        for k in range(1, 5):
            assert compose(monomial(-k), g) == int_pow(reciprocal(g), k), k

    @given(
        series_strategy(min_val=1, max_val=2, min_order=4, max_order=9),
        st.dictionaries(st.integers(-4, 3), small_rat, min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_laurent_outer_matches_powers(self, g, fc):
        # f(g) = sum_e c_e g^e, negative e through powers of 1/g
        if g.is_zero:
            return
        r = reciprocal(g)
        want = zero()
        for e, c in fc.items():
            want = want + (int_pow(g, e) if e >= 0 else int_pow(r, -e)).scale(c)
        got = compose(TruncatedSeries(fc), g)
        assert got.agrees_with(want)
        assert got.order == want.order

    def test_terms_past_the_window_cost_no_products(self, monkeypatch):
        # g = log(1+t) is known below t^16, so g^3 is known below t^18 and
        # t^100000 reaches only exponents the result cannot claim: the
        # power table holds only u^3 for u = g/t, one pass of Miller's
        # recurrence on 15 coefficients and no product
        g = compositional_inverse(exp_series(t, order=16) - constant(1))
        want = int_pow(g, 3)
        assert want.order == 18
        calls, rows = [], []
        mul_trunc, power_row = series._mul_trunc, series._power_row

        def counted(*args):
            calls.append(1)
            return mul_trunc(*args)

        def counted_row(u, ud, k, w):
            rows.append((k, w))
            return power_row(u, ud, k, w)

        monkeypatch.setattr(series, "_mul_trunc", counted)
        monkeypatch.setattr(series, "_power_row", counted_row)
        monkeypatch.setattr(TruncatedSeries, "__mul__", None)
        assert compose(monomial(100000) + monomial(3), g) == want
        assert (len(calls), rows) == (0, [(3, 15)])

    @given(
        series_strategy(min_val=0, max_val=3, min_order=1, max_order=8),
        st.dictionaries(st.integers(0, 30), small_rat, min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_dropped_terms_change_nothing(self, g, fc):
        # against Horner over every exponent, at its own ring-rule order
        if not g.is_zero and g.valuation < 1:
            return
        f = TruncatedSeries(fc)
        acc = zero()
        for e in range(max(f.coeffs, default=-1), -1, -1):
            acc = acc * g
            if e in f.coeffs:
                acc = acc + constant(f.coeffs[e])
        assert compose(f, g) == acc

    @given(series_strategy(min_val=1, max_val=2, min_order=4, max_order=7))
    @settings(max_examples=20, deadline=None)
    def test_compose_linearity(self, g):
        f1 = from_coeffs([1, 2, 3], order=6)
        f2 = from_coeffs([0, 1, 1, 1], order=6)
        lhs = compose(f1 + f2, g)
        rhs = compose(f1, g) + compose(f2, g)
        assert lhs.agrees_with(rhs)


# -- composition against its two oracles ---------------------------------
#
# The ring rule: f(g) = sum_e f_e g^e, each power from int_pow, negative
# ones through reciprocal(g, order), cut where the unknown tail of f enters
# at order_f * val_g. And the Horner composition compose used before the
# power table, whose windows also stopped at order_g.


def _ring_oracle(f, g, order):
    if not g.is_zero and g.valuation < 1:
        raise PreconditionError("composition requires positive valuation")
    acc = zero()
    for e, c in f.coeffs.items():
        power = int_pow(g, e) if e >= 0 else int_pow(reciprocal(g, order), -e)
        acc = acc + power.scale(c)
    return acc.truncate(_mul_order(f.order, g.valuation))


def _horner_compose(f, g, order=None):
    if not g.is_zero and g.valuation < 1:
        raise PreconditionError("composition requires positive valuation")
    limit = -(-g.order // g.valuation) if g.order != INF and g.valuation > 0 else INF
    acc = zero()
    for e in range(max((e for e in f.coeffs if 0 <= e < limit), default=-1), -1, -1):
        acc = acc * g
        if e in f.coeffs:
            acc = acc + constant(f.coeffs[e])
    neg = sorted((e for e in f.coeffs if e < 0), reverse=True)
    if neg:
        r = reciprocal(g, order=order)
        rpow, power = constant(1), 0
        for e in neg:
            rpow, power = rpow * int_pow(r, -e - power), -e
            acc = acc + rpow.scale(f.coeffs[e])
    return acc.truncate(min(acc.order, g.order, _mul_order(f.order, g.valuation)))


@st.composite
def compose_cases(draw):
    """(f, g, order): a Laurent f over t^-4..t^8, exact or truncated; a g of
    valuation 1..3, exact or truncated; order None or 2..10."""
    fc = draw(st.dictionaries(st.integers(-4, 8), small_rat, min_size=1, max_size=5))
    f = TruncatedSeries(fc, draw(st.just(INF) | st.integers(-3, 10)))
    v = draw(st.integers(1, 3))
    gc = draw(st.lists(small_rat, min_size=1, max_size=5))
    gc[0] = gc[0] or Rat(1)
    g = TruncatedSeries(dict(enumerate(gc, start=v)), draw(st.just(INF) | st.integers(v + 1, v + 9)))
    return f, g, draw(st.none() | st.integers(2, 10))


class TestComposeRingRule:
    @given(compose_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_ring_oracle(self, case):
        # values, window and refusals
        f, g, order = case
        try:
            want = _ring_oracle(f, g, order)
        except PreconditionError as err:
            with pytest.raises(PreconditionError) as got:
                compose(f, g, order)
            assert str(got.value) == str(err)
        else:
            assert compose(f, g, order) == want

    @given(compose_cases(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_widened_window_is_determined(self, case, data):
        # Horner on g known 8 orders past the result's window (the new
        # coefficients arbitrary) agrees with the result on all of it
        f, g, order = case
        try:
            got = compose(f, g, order)
        except PreconditionError:
            return
        if g.order == INF or got.order == INF:
            return
        top = max(g.order, got.order + 8)
        tail = data.draw(st.lists(small_rat, min_size=top - g.order, max_size=top - g.order))
        longer = TruncatedSeries({**g.coeffs, **dict(enumerate(tail, start=g.order))}, top)
        want = _horner_compose(f, longer, order)
        assert want.order >= got.order
        assert got.agrees_with(want)

    def test_wider_than_horner_past_order_g(self):
        # [DERIVED] g = log(1+t) known below t^16: (g^2)'s window is
        # order_g + val_g = 17, Horner stopped at 16
        g = log_series(from_coeffs([1, 1], order=INF), order=16)
        got = compose(monomial(2), g)
        assert _horner_compose(monomial(2), g).order == 16
        assert got == int_pow(g, 2) and got.order == 17

    def test_one_high_outer_power_costs_few_products(self, monkeypatch):
        # [DERIVED] g^100000 for g known below t^16 is known below
        # t^100015; the table reaches u^100000 by repeated squaring
        g = compositional_inverse(exp_series(t, order=16) - constant(1))
        want = int_pow(g, 100000)
        calls = []
        mul_trunc = series._mul_trunc

        def counted(*args):
            calls.append(1)
            return mul_trunc(*args)

        monkeypatch.setattr(series, "_mul_trunc", counted)
        got = compose(monomial(100000), g)
        assert got == want and got.order == 100015
        assert len(calls) < 2 * 17

    def test_exact_inputs_give_an_exact_result(self):
        f = monomial(-2, 3) + monomial(0, 1) + monomial(3, -1)
        g = monomial(2, 5)
        assert compose(f, g) == monomial(-4, Rat(3, 25)) + constant(1) + monomial(6, -125)
        assert compose(from_coeffs([1, 2, 1]), t + monomial(2)) == _ring_oracle(
            from_coeffs([1, 2, 1]), t + monomial(2), None)

    def test_refusals(self):
        with pytest.raises(PreconditionError, match="positive valuation"):
            compose(t, constant(1) + t)
        with pytest.raises(PreconditionError, match="non-invertible"):
            compose(monomial(-1), zero(5))
        with pytest.raises(PreconditionError, match="explicit order"):
            compose(monomial(-1), t + monomial(2))
        assert compose(monomial(-1), t + monomial(2), 3) == _ring_oracle(
            monomial(-1), t + monomial(2), 3)


# -- Brent-Kung composition against the power table ------------------------
#
# Oracle: the row-per-exponent composition compose used before Brent-Kung,
# every term f_e t^(ev) u^e read off the signed power table of u = g/t^v.


def _table_compose(f, g, order=None):
    if not g.is_zero and g.valuation < 1:
        raise PreconditionError("composition requires positive valuation")
    v = g.valuation
    at = {e: _mul_order(e, v) for e in f.coeffs}
    window = _mul_order(f.order, v)
    if min(at, default=0) < 0:
        window = min(window, _recip_order(g, order) + _mul_order(min(at) + 1, v))
    if max(at, default=0) > 0:
        window = min(window, g.order + _mul_order(min(e for e in at if e > 0) - 1, v))
    kept = sorted(e for e in at if at[e] < window)
    if not kept:
        return zero(window)
    lo = at[kept[0]]
    top = window if window != INF else kept[-1] * max(g.coeffs, default=0) + 1
    table = _unit_powers(g, dict.fromkeys(kept, top - min((at[e] for e in kept if e), default=top)))
    weights, den = _dense([f.coeffs[e] / table[e][1] for e in kept])
    out = [0] * (top - lo)
    for e, x in zip(kept, weights):
        row, i = table[e][0], at[e] - lo
        out[i : i + len(row)] = map(
            operator.add, out[i : i + len(row)], map(operator.mul, row, repeat(x)))
    return TruncatedSeries({lo + i: Rat(c, den) for i, c in enumerate(out)}, window)


def _outcome_of(fn, *args):
    try:
        return _shape(fn(*args))
    except PreconditionError as err:
        return str(err)


def _matches_table_and_horner(f, g, order):
    # values, windows and refusal texts of the table oracle; values of
    # Horner on the overlap of the two windows
    got = _outcome_of(compose, f, g, order)
    assert got == _outcome_of(_table_compose, f, g, order)
    if isinstance(got, str):
        return
    try:
        want = _horner_compose(f, g, order)
    except PreconditionError:
        return
    assert compose(f, g, order).agrees_with(want)


@st.composite
def outer_and_inner(draw):
    """(f, g, order): f Laurent, sparse (t^3 + t^40 among them), dense to
    t^30 or zero; g of valuation 1..3 with up to five terms, or zero; each
    exact or truncated; order None or 2..12."""
    kind = draw(st.sampled_from(("laurent", "sparse", "dense", "zero")))
    if kind == "laurent":
        exponents = draw(st.lists(st.integers(-4, 8), min_size=1, max_size=5, unique=True))
    elif kind == "sparse":
        exponents = draw(st.just([3, 40]) | st.lists(
            st.integers(0, 45), min_size=1, max_size=3, unique=True))
    elif kind == "dense":
        exponents = range(draw(st.integers(0, 3)), draw(st.integers(5, 31)))
    else:
        exponents = ()
    f = TruncatedSeries({e: draw(small_rat) for e in exponents},
                        draw(st.just(INF) | st.integers(-3, 48)))
    v = draw(st.integers(1, 3))
    gc = draw(st.lists(small_rat, max_size=5))
    g = TruncatedSeries(dict(enumerate(gc, start=v)), draw(st.just(INF) | st.integers(v, 130)))
    return f, g, draw(st.none() | st.integers(2, 12))


class TestBrentKung:
    @given(outer_and_inner())
    @settings(max_examples=250, deadline=None)
    def test_matches_table_and_horner(self, case):
        _matches_table_and_horner(*case)

    def test_sparse_outer_takes_few_products(self, monkeypatch):
        # t^3 + t^40 over g = log(1 + t + t^2), whose unit fits neither
        # rule: Brent-Kung with m = 7 makes the powers g^2..g^7 and six
        # Horner steps, the first on an empty accumulator, where the table
        # would make 39 rows. Over log(1 + t), whose rows step across, the
        # table makes no product at all
        f = monomial(3) + monomial(40)
        calls = []
        mul_trunc = series._mul_trunc

        def counted(*args):
            calls.append(1)
            return mul_trunc(*args)

        for tail, products in (([1, 1, 1], 12), ([1, 1], 0)):
            g = log_series(from_coeffs(tail, order=INF), order=48)
            want = _table_compose(f, g)
            monkeypatch.setattr(series, "_mul_trunc", counted)
            assert compose(f, g) == want
            monkeypatch.undo()
            assert len(calls) == products
            calls.clear()

    def test_dense_outer_at_order_128_costs_few_products(self, monkeypatch):
        # [DERIVED] exp(log(1 + t + t^2)) - 1 = t + t^2 and
        # exp(log(1 + t)) - 1 = t: e^t - 1 solves f' = 1 + f, so each is one
        # pass of that ODE, with no product. e^(t + t^2) - 1, whose
        # derivative fits no two-term rule, takes Brent-Kung over
        # log(1 + t + t^2): m = 12 makes the powers g^2..g^12 and 11 Horner
        # steps
        f = exp_series(t, order=128) - constant(1)
        dense = exp_series(t + monomial(2), order=128) - constant(1)
        g = log_series(from_coeffs([1, 1, 1], order=INF), order=128)
        log = log_series(from_coeffs([1, 1], order=INF), order=128)
        want = _table_compose(dense, g)
        calls = []
        mul_trunc = series._mul_trunc

        def counted(*args):
            calls.append(1)
            return mul_trunc(*args)

        monkeypatch.setattr(series, "_mul_trunc", counted)
        assert compose(f, g) == (t + monomial(2)).truncate(128)
        assert compose(f, log) == t.truncate(128)
        assert len(calls) == 0
        assert compose(dense, g) == want
        assert 0 < len(calls) <= 2 * ceil(sqrt(128)) + 2


# -- composition under an outer that solves (1 + qt) f' = r0 + r1 f --------
#
# Outers of the ODE class, their near misses and the inners of every class,
# against the table oracle (values, windows, refusal texts) and Horner.


@st.composite
def ode_outers(draw):
    """An outer alpha + F: F = beta (e^(ct) - 1) (q = 0), (1 + qt)^a - 1,
    log(1 + qt) (r1 = 0), each truncated, or t + t^2 or
    ((1 + qt)^d - 1)/(qd), exact or truncated; alpha zero (valuation 1) or
    not (valuation 0). A near miss moves one coefficient off the rule, often
    the last one in the window; a few outers carry a Laurent term."""
    kind = draw(st.sampled_from(("exp", "power", "log", "t + t^2", "polynomial")))
    q, w = draw(nonzero_rat), draw(st.integers(4, 20))
    if kind == "exp":
        beta = draw(nonzero_rat)
        fc = _ode_coeffs(0, beta * q, q, w)
    elif kind == "power":
        a = draw(nonzero_rat)
        fc = _ode_coeffs(q, a * q, a * q, w)
    elif kind == "log":
        fc = _ode_coeffs(q, q, 0, w)
    elif kind == "t + t^2":
        fc = [Rat(1), Rat(1)]
    else:
        fc = _ode_coeffs(q, Rat(1), q * draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    polynomial = kind in ("t + t^2", "polynomial")
    exact = polynomial and draw(st.booleans())
    order = INF if exact else draw(st.integers(len(fc) + 1, 21)) if polynomial else len(fc) + 1
    coeffs = {0: draw(st.just(Rat(0)) | nonzero_rat), **dict(enumerate(fc, start=1))}
    if draw(st.booleans()):  # a near miss
        last = len(fc) + 5 if exact else order - 1
        j = draw(st.just(last) | st.integers(1, last))
        coeffs[j] = coeffs.get(j, Rat(0)) + draw(nonzero_rat)
    laurent = draw(st.sampled_from((0, 0, 0, -1, -3)))
    if laurent:
        coeffs[laurent] = draw(nonzero_rat)
    return TruncatedSeries(coeffs, order)


@st.composite
def inner_series(draw):
    """g = t^v u, v = 1..3, for u a two-term unit, a unit whose t u solves
    the ODE, a near miss of either, or any unit; exact or truncated."""
    kind = draw(st.sampled_from(("two-term", "ode", "near miss", "ode near miss", "any")))
    if kind == "two-term":
        u0, c, r, w = draw(two_term_units(max_w=14))
        coeffs = _two_term_coeffs(u0, c, r, w)
    elif kind == "ode":
        q, r0, r1, w = draw(ode_members(max_w=16))
        coeffs = _ode_coeffs(q, r0, r1, w)
    elif kind == "any":
        coeffs = [draw(nonzero_rat), *draw(st.lists(small_rat, max_size=13))]
    else:
        coeffs, _ = draw(near_misses() if kind == "near miss" else ode_near_misses())
    v = draw(st.integers(1, 3))
    return _unit_series(coeffs, v, order=draw(st.none() | st.just(INF)))


class TestOdeOuter:
    @given(ode_outers(), inner_series(), st.none() | st.integers(2, 12))
    @settings(max_examples=300, deadline=None)
    def test_matches_table_and_horner(self, f, g, order):
        _matches_table_and_horner(f, g, order)

    @given(ode_outers().filter(lambda f: f.order != INF), inner_series(),
           st.none() | st.integers(2, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_an_extended_outer_claims_no_more_than_it_did(self, f, g, order, data):
        # the outer extended 8 orders past its own by random coefficients,
        # which leave its rule: composed by compose and by Horner, it moves
        # none of the coefficients the result claimed, and the result's
        # window is the ring rule's, no wider
        tail = data.draw(st.lists(small_rat, min_size=8, max_size=8))
        longer = TruncatedSeries({**f.coeffs, **dict(enumerate(tail, start=f.order))}, f.order + 8)
        assume(not _fits_ode([longer.coeffs.get(e, Rat(0)) for e in range(1, longer.order)]))
        try:
            got = compose(f, g, order)
        except PreconditionError:
            return
        assert got.order == _ring_oracle(f, g, order).order
        after = compose(longer, g, order)
        assert after.order >= got.order and after.truncate(got.order) == got
        assert got.agrees_with(_horner_compose(longer, g, order))

    def test_rule_class_outers_build_no_power_and_make_no_product(self, monkeypatch):
        # e^t - 1 (q = 0), 1 + log(1 + t/2) (r1 = 0), (1 + 3t)^(2/3) - 1
        # (q != 0) and the exact t + t^2, over inners that fit neither rule,
        # the ODE rule and the two-term rule, and an exact one: each result
        # is one pass of the outer's ODE, with no row of the inner's power
        # table, no descent, no Brent-Kung and no product
        n = 48
        outers = [exp_series(t, order=n) - constant(1),
                  constant(1) + log_series(from_coeffs([1, Rat(1, 2)], order=INF), order=n),
                  exp_series(log_series(from_coeffs([1, 3], order=INF), order=n).scale(Rat(2, 3)))
                  - constant(1),
                  t + monomial(2)]
        inners = [log_series(from_coeffs([1, 1, 1], order=INF), order=n),
                  compositional_inverse(exp_series(t, order=n) - constant(1)),
                  t * exp_series(t.scale(Rat(13, 17)), order=n - 1),
                  t - monomial(3)]
        cases = [(f, g, _table_compose(f, g, n)) for f in outers for g in inners]
        for name in ("_unit_powers", "_descent", "_brent_kung", "_mul_trunc"):
            monkeypatch.setattr(series, name, _refuse)
        for f, g, want in cases:
            assert compose(f, g, n) == want


# -- compositional inverse ----------------------------------------------
#
# Oracle: the inverse by Newton iteration, g <- g - (f(g) - t)/f'(g), on
# dense Fraction lists over exponents [0, w). It shares no code with the
# library's Lagrange reversion; each round doubles the correct prefix.


def _dense_mul(a, b, w):
    out = [Rat(0)] * w
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= w:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _dense_recip(a, w):
    out = [Rat(0)] * w
    out[0] = 1 / a[0]
    for k in range(1, w):
        acc = Rat(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc / a[0]
    return out


def _dense_compose(fc, g, w):
    # Horner over the exponents of f (a dict), g a dense list with g[0] = 0.
    acc = [Rat(0)] * w
    for e in range(max(fc, default=-1), -1, -1):
        acc = _dense_mul(acc, g, w)
        if e in fc:
            acc[0] += fc[e]
    return acc


def _newton_inverse(f, n_out):
    """Inverse of the delta series f on the window [1, n_out)."""
    w = n_out
    fc = {e: c for e, c in f.coeffs.items() if 0 < e < w}
    fpc = {e - 1: e * c for e, c in fc.items()}
    g = [Rat(0)] * max(w, 2)
    g[1] = 1 / f.coeffs[1]
    correct = 1
    while correct < w - 1:
        fg = _dense_compose(fc, g, w)
        fg[1] -= 1  # f(g) - t
        update = _dense_mul(fg, _dense_recip(_dense_compose(fpc, g, w), w), w)
        g = [gi - ui for gi, ui in zip(g, update)]
        correct = min(2 * correct, w - 1)
    return TruncatedSeries({k: g[k] for k in range(1, w)}, n_out)


@st.composite
def delta_inputs(draw):
    """(f, order): a truncated delta series of order 3..24 with an optional
    result order, or an exact delta polynomial with an explicit order."""
    n = draw(st.integers(3, 24))
    linear = draw(small_rat.filter(lambda c: c != 0))
    if draw(st.booleans()):
        higher = draw(st.lists(small_rat, min_size=1, max_size=4))
        return from_coeffs([0, linear, *higher], order=INF), n
    higher = draw(st.lists(small_rat, min_size=n - 2, max_size=n - 2))
    return from_coeffs([0, linear, *higher]), draw(st.none() | st.integers(1, n))


def _chain_inverse(f, order=None):
    """The inverse by Lagrange reversion over every negative row of the
    chain-built power table, [t^k] g = [t^(k-1)] (t/f)^k / k: one
    full-width product per output coefficient, where the library projects
    onto baby and giant steps or reads a two-term rule."""
    if f.is_zero or f.valuation != 1:
        raise PreconditionError("not a delta series")
    if f.order == INF and len(f.coeffs) == 1:
        return monomial(1, 1 / f.coeffs[1])
    n_out = series._out_order(f.order, order, "compositional inverse")
    powers = _chain_powers(f, n_out - 1, range(-1, -n_out, -1))
    g = {k: Rat(powers[-k][0][k - 1], k * powers[-k][1]) for k in range(1, n_out)}
    return TruncatedSeries(g, n_out)


@st.composite
def inverse_cases(draw):
    """(f, order) of every shape the inverse meets: truncated delta series
    of order 2..41, exact delta polynomials and monomials, series that are
    not delta, and result orders -2..40 or none."""
    kind = draw(st.sampled_from(("truncated", "exact", "monomial", "other")))
    order = draw(st.none() | st.integers(-2, 40))
    linear = draw(small_rat.filter(bool))
    if kind == "truncated":
        n = draw(st.integers(2, 41))
        higher = draw(st.lists(small_rat, min_size=n - 2, max_size=n - 2))
        return from_coeffs([0, linear, *higher]), order
    if kind == "exact":
        higher = draw(st.lists(small_rat, min_size=1, max_size=4))
        return from_coeffs([0, linear, *higher], order=INF), order
    if kind == "monomial":
        return monomial(1, linear, order=draw(st.just(INF) | st.integers(2, 41))), order
    return draw(kernel_operands()), order


def _outcome(inverse, f, order):
    """The shape of an inverse, or the text of its refusal."""
    try:
        return _shape(inverse(f, order=order))
    except PreconditionError as err:
        return str(err)


class TestCompositionalInverse:
    @given(inverse_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_chain_oracle(self, case):
        f, order = case
        assert _outcome(compositional_inverse, f, order) == _outcome(_chain_inverse, f, order)

    def test_order_128_costs_few_products(self, monkeypatch):
        # t - t^3, whose unit fits neither rule: baby steps r^1..r^12 and
        # giant steps (r^12)^2..(r^12)^10 for the 127 coefficients, where a
        # chain over every row makes 126 products. [DERIVED] its inverse has
        # C(3j, j)/(2j + 1) at t^(2j+1), ternary trees. e^t - 1 solves
        # f' = 1 + f and its inverse log(1 + t) makes no product at all
        calls = []
        mul_trunc = series._mul_trunc

        def counted(a, b, w):
            calls.append(w)
            return mul_trunc(a, b, w)

        monkeypatch.setattr(series, "_mul_trunc", counted)
        g = compositional_inverse(from_coeffs([0, 1, 0, -1], order=128))
        assert 0 < len(calls) <= 24
        assert [g.coefficient(k) for k in (1, 2, 3, 127)] == [1, 0, 1, Rat(comb(189, 63), 127)]
        calls.clear()
        g = compositional_inverse(exp_series(t, order=128) - constant(1))
        assert len(calls) == 0
        assert [g.coefficient(k) for k in (1, 2, 127)] == [1, Rat(-1, 2), Rat(1, 127)]

    @given(delta_inputs())
    @settings(max_examples=40, deadline=None)
    def test_matches_newton_oracle(self, case):
        f, order = case
        g = compositional_inverse(f, order=order)
        if f.order == INF and len(f.coeffs) == 1:
            assert g == monomial(1, 1 / f.coeffs[1])
            return
        n_out = f.order if order is None else min(f.order, order)
        assert g == _newton_inverse(f, n_out)

    def test_closed_forms_at_order_128(self):
        # [DERIVED] the inverse of e^t - 1 is log(1+t), and the inverse of
        # t e^t has coefficients (-k)^(k-1)/k!
        g = compositional_inverse(exp_series(t, order=128) - constant(1))
        assert g.order == 128
        for k in range(1, 128):
            assert g.coefficient(k) == Rat((-1) ** (k + 1), k), k
        g = compositional_inverse(mul(t, exp_series(t, order=127)))
        assert g.order == 128
        for k in range(1, 128):
            assert g.coefficient(k) == Rat((-k) ** (k - 1), factorial(k)), k

    def test_exact_polynomial_with_order(self):
        # [DERIVED] t + t^2 inverts to (sqrt(1+4t) - 1)/2, whose
        # coefficients are signed Catalan numbers (-1)^(k-1) C_(k-1)
        g = compositional_inverse(from_coeffs([0, 1, 1], order=INF), order=9)
        assert g.order == 9
        assert [g.coefficient(k) for k in range(1, 9)] == [
            1, -1, 2, -5, 14, -42, 132, -429,
        ]
        with pytest.raises(PreconditionError, match="explicit order"):
            compositional_inverse(from_coeffs([0, 1, 1], order=INF))

    def test_mercator(self):
        # [DERIVED] the inverse of e^t - 1 is log(1+t) = sum (-1)^(k+1) t^k / k
        f = exp_series(t, order=12) - constant(1)
        g = compositional_inverse(f)
        assert g.order == 12
        for k in range(1, 12):
            assert g.coefficient(k) == Rat((-1) ** (k + 1), k)

    def test_tree_series(self):
        # [DERIVED] the inverse of t e^t has coefficients (-k)^(k-1)/k!
        f = mul(t, exp_series(t, order=9))
        g = compositional_inverse(f)
        for k in range(1, 9):
            assert g.coefficient(k) == Rat((-k) ** (k - 1), factorial(k)), k

    def test_roundtrip_both_sides(self):
        f = from_coeffs([0, 1, -2, 3, -4, 5, -6, 7], order=8)
        g = compositional_inverse(f)
        for r in (compose(f, g), compose(g, f)):
            assert r.coefficient(1) == 1
            for k in range(2, int(r.order)):
                assert r.coefficient(k) == 0

    def test_linear_exact(self):
        g = compositional_inverse(monomial(1, Rat(3)))
        assert g.order == INF
        assert g.coefficient(1) == Rat(1, 3)

    def test_not_delta_raises(self):
        with pytest.raises(PreconditionError, match="not a delta series"):
            compositional_inverse(from_coeffs([1, 1], order=6))
        with pytest.raises(PreconditionError, match="not a delta series"):
            compositional_inverse(from_coeffs([1], start=2, order=6))
        with pytest.raises(PreconditionError, match="not a delta series"):
            compositional_inverse(zero(6))

    @given(series_strategy(min_val=1, max_val=1, min_order=5, max_order=8))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, f):
        if f.coeffs.get(1) in (None, 0):
            return
        g = compositional_inverse(f)
        r = compose(g, f)
        assert r.coefficient(1) == 1
        for k in range(2, int(r.order)):
            assert r.coefficient(k) == 0


# -- exp, log, powers, derivative ----------------------------------------

def _recurrence_log(f, n_out):
    """log f on [1, n_out) by the Fraction recurrence
    n l_n = n f_n - sum_(0<j<n) j l_j f_(n-j), with no series product."""
    l = [Rat(0)] * max(n_out, 1)
    for n in range(1, n_out):
        acc = sum((j * l[j] * f.coeffs.get(n - j, 0) for j in range(1, n)), Rat(0))
        l[n] = f.coeffs.get(n, Rat(0)) - acc / n
    return TruncatedSeries(dict(enumerate(l)), n_out)


def _loop_exp(f, order=None):
    """exp f by the Fraction loop n y_n = sum_(1<=j<=n) j f_j y_(n-j) over
    every j, with the preconditions of exp_series."""
    if not f.is_zero and f.valuation < 1:
        raise PreconditionError("exp_series requires positive valuation")
    if f.is_zero and f.order == INF:
        return constant(1)
    if f.order == INF and order is None:
        raise PreconditionError("exp_series of an exact series requires an explicit order")
    n_out = f.order if order is None else min(f.order, order)
    if n_out <= 0:
        return zero(n_out)
    y = [Rat(1)]
    for n in range(1, n_out):
        acc = sum((j * f.coeffs[j] * y[n - j] for j in range(1, n + 1) if j in f.coeffs), Rat(0))
        y.append(acc / n)
    return TruncatedSeries(dict(enumerate(y)), n_out)


class TestTranscendental:
    def test_exp_coefficients(self):
        e = exp_series(t, order=10)
        for k in range(10):
            assert e.coefficient(k) == Rat(1, factorial(k))

    def test_log_of_geometric(self):
        # [DERIVED] log(1/(1-t)) = sum t^k / k
        f = reciprocal(from_coeffs([1, -1], order=INF), order=10)
        l = log_series(f)
        for k in range(1, 10):
            assert l.coefficient(k) == Rat(1, k)

    def test_exp_additivity(self):
        f = from_coeffs([0, 1, Rat(1, 2), -1], order=7)
        g = from_coeffs([0, -2, 0, Rat(1, 3)], order=7)
        lhs = exp_series(f + g)
        rhs = exp_series(f) * exp_series(g)
        assert lhs.agrees_with(rhs)

    def test_exp_log_inverse_pair(self):
        f = from_coeffs([0, 2, -1, Rat(3, 5), 0, 1], order=8)
        assert log_series(exp_series(f)).agrees_with(f)

    @given(kernel_operands() | sparse_operands(), st.none() | st.integers(-2, 14))
    @settings(max_examples=150, deadline=None)
    def test_exp_matches_loop_oracle(self, f, order):
        # values, windows and refusal texts
        assert _outcome_of(exp_series, f, order) == _outcome_of(_loop_exp, f, order)

    @given(c=small_rat.filter(bool), j=st.integers(1, 7),
           width=st.none() | st.integers(1, 40), order=st.integers(-2, 60))
    @settings(max_examples=150, deadline=None)
    def test_exp_of_one_term_is_the_exponential_series(self, c, j, width, order):
        f = TruncatedSeries({j: c}, INF if width is None else width)
        n_out = min(f.order, order)
        expected = {j * k: c**k / factorial(k) for k in range(max(n_out, 0)) if j * k < n_out}
        assert _shape(exp_series(f, order)) == _shape(TruncatedSeries(expected, n_out))

    @pytest.mark.parametrize("j", [1, 3])
    def test_exp_of_one_term_at_a_high_order(self, j):
        c = Rat(17, 29)
        e = exp_series(monomial(j, c), order=2000)
        assert e.coeffs == {j * k: c**k / factorial(k) for k in range(0, (1999 // j) + 1)}
        assert e.order == 2000

    def test_explicit_infinite_order_of_an_exact_series_is_refused(self):
        delta, unit = from_coeffs([0, 1, 1], order=INF), from_coeffs([1, 1], order=INF)
        for call, f in ((compositional_inverse, delta), (exp_series, delta),
                        (reciprocal, delta), (log_series, unit)):
            with pytest.raises(PreconditionError, match="explicit order"):
                call(f, order=INF)
            # a truncated input reads its own window
            cut = f.truncate(9)
            assert _shape(call(cut, order=INF)) == _shape(call(cut)), call.__name__
        # exact monomials keep their exact results
        assert _shape(reciprocal(monomial(2, 3), order=INF)) == _shape(monomial(-2, Rat(1, 3)))
        assert _shape(compositional_inverse(monomial(1, 3), order=INF)) == _shape(
            monomial(1, Rat(1, 3)))
        # 1/(t + t^2) is not a Laurent polynomial, so it has no exact composite
        with pytest.raises(PreconditionError, match="explicit order"):
            compose(TruncatedSeries({-1: 1, 1: 1}), delta, order=INF)

    def test_exp_preconditions(self):
        with pytest.raises(PreconditionError, match="positive valuation"):
            exp_series(from_coeffs([1, 1], order=5))
        with pytest.raises(PreconditionError, match="explicit order"):
            exp_series(monomial(2))

    @given(st.lists(small_rat, max_size=9), st.none() | st.integers(1, 10),
           st.none() | st.integers(-2, 12))
    @settings(max_examples=100, deadline=None)
    def test_log_matches_recurrence_oracle(self, tail, width, order):
        f = TruncatedSeries({0: 1, **dict(enumerate(tail, 1))}, INF if width is None else width)
        if f.order == INF and len(f.coeffs) > 1 and order is None:
            with pytest.raises(PreconditionError, match="explicit order"):
                log_series(f, order)
        elif f.order == INF and len(f.coeffs) == 1:
            assert _shape(log_series(f, order)) == _shape(zero())
        else:
            n_out = f.order if order is None else min(f.order, order)
            assert _shape(log_series(f, order)) == _shape(_recurrence_log(f, n_out))

    def test_log_preconditions(self):
        with pytest.raises(PreconditionError, match="constant term 1"):
            log_series(from_coeffs([2, 1], order=5))

    def test_int_pow_matches_repeated_mul(self):
        f = from_coeffs([0, 1, 1], order=8)
        p3 = int_pow(f, 3)
        assert p3.agrees_with(f * f * f)
        assert int_pow(f, 0).coefficient(0) == 1
        assert int_pow(f, 0).order == INF

    def test_int_pow_negative(self):
        # [DERIVED] (t(1+t))^-2 = t^-2 (1 - 2t + 3t^2 - ...)
        f = from_coeffs([1, 1], start=1, order=9)
        p = int_pow(f, -2)
        assert p.valuation == -2
        for k in range(5):
            assert p.coefficient(-2 + k) == (-1) ** k * (k + 1)

    def test_formal_derivative(self):
        f = from_coeffs([5, 3, 2], order=7)
        d = formal_derivative(f)
        assert d.coefficient(0) == 3
        assert d.coefficient(1) == 4
        assert d.order == 6

    def test_derivative_of_laurent(self):
        f = TruncatedSeries({-2: Rat(1), 0: Rat(4), 3: Rat(1, 3)}, order=6)
        d = formal_derivative(f)
        assert d.coefficient(-3) == -2
        assert d.coefficient(2) == 1
        assert d.coefficient(-1) == 0

    @given(series_strategy(), series_strategy())
    @settings(max_examples=30, deadline=None)
    def test_product_rule(self, f, g):
        lhs = formal_derivative(f * g)
        rhs = formal_derivative(f) * g + f * formal_derivative(g)
        assert lhs.agrees_with(rhs)

    def test_chain_rule(self):
        # (f o g)' = (f' o g) * g' on the common window
        f = from_coeffs([1, 1, Rat(1, 2), Rat(1, 6)], order=6)
        g = from_coeffs([0, 1, 1], order=6)
        lhs = formal_derivative(compose(f, g))
        rhs = compose(formal_derivative(f), g) * formal_derivative(g)
        assert lhs.agrees_with(rhs)
