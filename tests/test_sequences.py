# Tests for binomial-type sequences: generator agreement, closed forms,
# Taylor expansion, umbral composition, connection constants.
import gc
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction as Rat
from itertools import count, islice
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import operators, sequences, series, suites
from umbra.errors import PreconditionError
from umbra.logarithmic import (
    HarmonicLogSeries,
    LogBinomialSequence,
    log_conjugate_sequence,
    log_sequence,
    newton_expand,
)
from umbra.numbers import stirling_first, stirling_second
from umbra.operators import (
    DELTA_NAMES,
    DeltaOperator,
    Polynomial,
    _delta_series,
    apply_to_polynomial,
    catalog,
    expand_in_basis,
)
from umbra.sequences import (
    BinomialSequence,
    ConnectionMatrix,
    connection_constants,
    conjugate_sequence,
    generate_recurrence,
    generate_transfer,
    ramey_sequence,
    taylor_expand,
    umbral_compose,
    verify_binomial_identity,
)
from umbra.series import (
    compose,
    compositional_inverse,
    formal_derivative,
    int_pow,
    monomial,
    mul,
    reciprocal,
)
from test_series import _ode_coeffs, ode_members


def delta_catalog(order=16):
    for name in DELTA_NAMES:
        params = {"b": Rat(1, 2)} if name == "abel" else {}
        yield name, catalog(name, params, order=order)


def poly_product(factors):
    p = Polynomial([1])
    for f in factors:
        p = p * f
    return p


def abel_poly(n, b):
    # [PAPER] closed form x (x - nb)^(n-1)
    if n == 0:
        return Polynomial([1])
    return Polynomial([0, 1]) * poly_product(
        [Polynomial([-n * b, 1])] * (n - 1)
    )


def lower_factorial(n):
    return poly_product([Polynomial([-i, 1]) for i in range(n)]) if n else Polynomial([1])


def upper_factorial(n):
    return Polynomial([0, 1]) * poly_product(
        [Polynomial([i, 1]) for i in range(1, n)]
    ) if n else Polynomial([1])


# -- the Fraction grid that verify_binomial_identity replaced -------------
#
# An O(n^4) oracle: every polynomial is evaluated again with Fraction Horner
# at every grid point. It shares no arithmetic with the integer tables of
# the library's check.


def _fraction_grid(s, n):
    polys = s.terms(n)
    for xi in range(n + 1):
        for aj in range(n + 1):
            x = Rat(xi)
            a = Rat(aj)
            lhs = polys[n].evaluate(x + a)
            rhs = sum(
                comb(n, k) * polys[k].evaluate(a) * polys[n - k].evaluate(x)
                for k in range(n + 1)
            )
            if lhs != rhs:
                return False, {"n": n, "x": x, "a": a, "lhs": lhs, "rhs": rhs}
    return True, None


def _corrupt(seq, degree, c):
    """A copy of seq with the constant c added to its degree-th term."""

    def step(n):
        return seq[n] + Polynomial([c]) if n == degree else seq[n]

    return BinomialSequence(seq.operator, "corrupted", step)


small_rat = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def binomial_cases(draw):
    """(sequence, n) with n <= 9: a catalog basic sequence, or a copy with
    a rational constant added at one degree."""
    name = draw(st.sampled_from(("forward_difference", "abel", "laguerre")))
    params = {"b": draw(small_rat)} if name == "abel" else {}
    n = draw(st.integers(0, 9))
    seq = generate_transfer(catalog(name, params, order=16), n)
    if draw(st.booleans()):
        seq = _corrupt(seq, draw(st.integers(0, n)), draw(small_rat.filter(bool)))
    return seq, n


# -- the generators the power table replaced ------------------------------
#
# Oracles: the transfer formula, the Rodrigues recurrence and the conjugate
# loop over powers of g. The first two apply operators to polynomials and
# never form the compositional inverse; none of them shares the library's
# table of integer numerators. Each yields rows n = 0, 1, ... until the
# operator's window refuses one.


def _transfer_oracle(f):
    """p_n = f'(D) (f/D)^(-n-1) x^n."""
    fs = f.series
    fprime = formal_derivative(fs)
    ginv = reciprocal(mul(fs, monomial(-1)))
    yield Polynomial([1])
    power = ginv
    for n in count(1):
        power = power * ginv
        yield apply_to_polynomial(fprime * power, Polynomial.x_power(n))


def _recurrence_oracle(f):
    """p_n = x f'(D)^(-1) p_(n-1)."""
    inv_fprime = reciprocal(formal_derivative(f.series))
    p = Polynomial([1])
    while True:
        yield p
        p = apply_to_polynomial(inv_fprime, p).mul_x()


def _conjugate_oracle(g):
    """p_n = sum_k n! [t^n] g^k x^k / k!, one power of g at a time."""
    yield Polynomial([1])
    for n in count(1):
        coeffs = [Rat(0)]
        for k in range(1, n + 1):
            gk = int_pow(g, k)
            if gk.order <= n:
                raise PreconditionError("truncation too small for exact action")
            coeffs.append(factorial(n) * gk.coefficient(n) / factorial(k))
        yield Polynomial(coeffs)


def _take(rows, cap):
    """The rows an iterator yields before its window refuses, at most cap."""
    out = []
    try:
        out.extend(islice(rows, cap))
    except PreconditionError as err:
        assert "truncation too small" in str(err)
    return out


def _library_rows(seq):
    return (seq[n] for n in count())


@st.composite
def delta_operators(draw, lowest=3):
    """A catalog delta operator at order lowest..24; abel gets a random
    rational b."""
    name = draw(st.sampled_from(DELTA_NAMES))
    params = {"b": draw(small_rat)} if name == "abel" else {}
    return catalog(name, params, order=draw(st.integers(lowest, 24)))


CAP = 26  # rows asked of an operator whose window is unbounded


def _inverse_conjugate_rows(fs, n):
    """Rows 0..n as the conjugate sequence of the inverse g of f, known to
    order n + 2: the route that reads the transfer formula off g's own
    table instead of off the negative powers of f/t."""
    return conjugate_sequence(compositional_inverse(fs, order=n + 2)).terms(n)


@st.composite
def delta_series(draw):
    """A delta series: a catalog operator's series at order 3..24, a
    truncated random series of order 2..24, or an exact polynomial."""
    kind = draw(st.sampled_from(("catalog", "truncated", "exact")))
    if kind == "catalog":
        return draw(delta_operators()).series
    linear = draw(small_rat.filter(bool))
    if kind == "truncated":
        higher = draw(st.lists(small_rat, max_size=22))
        return series.from_coeffs([0, linear, *higher])
    higher = draw(st.lists(small_rat, max_size=4))
    return series.from_coeffs([0, linear, *higher], order=series.INF)


def _rows_or_refusal(rows, *args):
    try:
        return rows(*args)
    except PreconditionError as err:
        return str(err)


class TestGenerators:
    def test_derivative_gives_powers(self):
        seq = generate_transfer(catalog("derivative"), 6)
        for n in range(7):
            assert seq[n] == Polynomial.x_power(n)

    def test_lower_factorial_rows(self):
        # [DERIVED] (x)_3 = x^3 - 3x^2 + 2x; coefficients are Stirling
        # numbers of the first kind.
        seq = generate_transfer(catalog("forward_difference", order=16), 8)
        assert seq[3] == Polynomial([0, 2, -3, 1])
        for n in range(9):
            assert seq[n] == lower_factorial(n), n
            for k in range(n + 1):
                assert seq[n].coefficient(k) == stirling_first(n, k)

    def test_upper_factorial(self):
        # [DERIVED] basic sequence of the backward difference is
        # x(x+1)...(x+n-1)
        seq = generate_transfer(catalog("backward_difference", order=16), 8)
        for n in range(9):
            assert seq[n] == upper_factorial(n), n

    def test_abel_closed_form(self):
        # [PAPER] A_n(x; b) = x (x - nb)^(n-1)
        for b in (Rat(2), Rat(-1), Rat(1, 2)):
            seq = generate_transfer(catalog("abel", {"b": b}, order=16), 7)
            for n in range(8):
                assert seq[n] == abel_poly(n, b), (b, n)

    def test_laguerre_row(self):
        # [PAPER] L_3 = -x^3 + 6x^2 - 6x
        seq = generate_transfer(catalog("laguerre", order=16), 5)
        assert seq[3] == Polynomial([0, -6, 6, -1])

    def test_transfer_equals_recurrence(self):
        # the library's rows against the two generation formulas it replaced
        for name, op in delta_catalog():
            for generate in (generate_transfer, generate_recurrence):
                rows = generate(op, 8).terms(8)
                assert rows == _take(_transfer_oracle(op), 9), (name, generate)
                assert rows == _take(_recurrence_oracle(op), 9), (name, generate)

    @given(delta_operators())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_generator_oracles(self, op):
        # every row inside the window: n below the order of the series. The
        # recurrence has the same window; the transfer formula's is one row
        # shorter, since f' loses a coefficient the rows never read.
        rows = _take(_library_rows(generate_transfer(op)), CAP)
        assert len(rows) == min(op.series.order, CAP)
        assert rows == _take(_library_rows(generate_recurrence(op)), CAP)
        assert rows == _take(_recurrence_oracle(op), CAP)
        want = _take(_transfer_oracle(op), CAP)
        assert len(want) >= len(rows) - 1
        assert rows[: len(want)] == want

    @given(delta_series(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_transfer_read_matches_conjugate_of_inverse(self, fs, data):
        # rows 0..n, or the same refusal at row = order when n reaches it
        n = data.draw(st.integers(0, min(fs.order + 2, CAP)))
        got = _rows_or_refusal(lambda: generate_transfer(DeltaOperator(fs)).terms(n))
        assert got == _rows_or_refusal(_inverse_conjugate_rows, fs, n)

    @pytest.mark.parametrize(
        "name, order", [("abel", 48), ("forward_difference", 128), ("laguerre", 40)]
    )
    def test_transfer_inverts_nothing(self, monkeypatch, name, order):
        # rows 0..n_max, read in order, cost at most n_max^3 / 3 coefficient
        # pairs, counted as _mul_trunc makes them, and no inversion: at its
        # full width the table would make about n_max^3 / 2. The forward
        # difference reads one power table; abel and laguerre, whose units
        # fit the two-term rule, read none: each row is read off the rule
        op = catalog(name, {"b": Rat(17, 29)} if name == "abel" else {}, order=order)
        n_max = order - 2
        pairs = []
        mul_trunc = series._mul_trunc

        def counted(a, b, w):
            pairs.append(sum(min(len(b), w - i) for i, x in enumerate(a[:w]) if x))
            return mul_trunc(a, b, w)

        def refused(*args, **kwargs):
            raise AssertionError("the transfer read inverted its operator")

        monkeypatch.setattr(series, "_mul_trunc", counted)
        monkeypatch.setattr(series, "compositional_inverse", refused)
        monkeypatch.setattr(sequences, "compositional_inverse", refused)
        tables, reads = [], []
        unit_powers, transfer_read = sequences._unit_powers, sequences._transfer_read
        monkeypatch.setattr(sequences, "_unit_powers",
                            lambda *args: tables.append(args) or unit_powers(*args))
        monkeypatch.setattr(sequences, "_transfer_read",
                            lambda *args: reads.append(args[1]) or transfer_read(*args))
        seq = generate_transfer(op, n_max)
        assert [p.degree for p in seq.terms(n_max)] == list(range(n_max + 1))
        if name == "forward_difference":
            assert len(tables) == 1 and reads == list(range(1, n_max + 1))
        else:
            assert tables == [] and reads == []
        assert sum(pairs) <= n_max**3 // 3

    @given(delta_operators())
    @settings(max_examples=20, deadline=None)
    def test_conjugate_rows_match_power_loop(self, op):
        got = _take(_library_rows(conjugate_sequence(op.series)), CAP)
        assert got == _take(_conjugate_oracle(op.series), CAP)

    def test_defining_property(self):
        # f p_n = n p_{n-1}, p_0 = 1, p_n(0) = 0
        for name, op in delta_catalog():
            seq = generate_transfer(op, 8)
            assert seq[0] == Polynomial([1])
            for n in range(1, 9):
                assert seq[n].evaluate(0) == 0, (name, n)
                assert op(seq[n]) == seq[n - 1].scale(n), (name, n)

    def test_degree_and_lazy_growth(self):
        seq = generate_transfer(catalog("forward_difference", order=16), 2)
        # a row past n_max widens the table on its read
        assert seq[9].degree == 9

    def test_window_exhaustion_raises(self):
        seq = generate_transfer(catalog("forward_difference", order=5), 2)
        with pytest.raises(PreconditionError, match="truncation too small"):
            seq[6]

    @pytest.mark.parametrize("eager", [0, 3])
    def test_rows_are_paid_for_only_as_asked(self, monkeypatch, eager):
        # an order-200 operator asked for n <= 3 builds no product wider
        # than 8, whether n_max or each index sizes the table
        op = catalog("forward_difference", order=200)
        widths = []
        mul_trunc = series._mul_trunc

        def recorded(a, b, w):
            widths.append(w)
            return mul_trunc(a, b, w)

        monkeypatch.setattr(series, "_mul_trunc", recorded)
        seq = generate_transfer(op, eager)
        assert seq.terms(3) == [lower_factorial(n) for n in range(4)]
        assert widths and max(widths) <= 8


class TestWindows:
    """Row n is determined while n is below the order of the series. The
    last such row must agree with the operator known 8 orders further, and
    the next one must be refused."""

    @pytest.mark.parametrize("order", [3, 4, 16])
    @pytest.mark.parametrize("name", DELTA_NAMES[1:])
    def test_last_sequence_row(self, name, order):
        params = {"b": Rat(-2, 3)} if name == "abel" else {}
        op = catalog(name, params, order=order)
        deeper = catalog(name, params, order=order + 8)
        window = op.series.order
        for generate in (generate_transfer, lambda f: conjugate_sequence(f.series)):
            seq = generate(op)
            assert seq[window - 1] == generate(deeper)[window - 1]
            with pytest.raises(PreconditionError, match="truncation too small"):
                seq[window]

    @pytest.mark.parametrize("order", [3, 4, 16])
    @pytest.mark.parametrize(
        "pair",
        [("backward_difference", "forward_difference"), ("abel", "laguerre"),
         ("forward_difference", "abel"), ("derivative", "laguerre")],
    )
    def test_last_connection_row(self, pair, order):
        def op(name, shift):
            params = {"b": Rat(3, 5)} if name == "abel" else {}
            return catalog(name, params, order=order + shift)

        g, h = op(pair[0], 0), op(pair[1], 0)
        window = min(g.series.order, h.series.order)
        got = connection_constants(g, h, window - 1)
        deeper = connection_constants(op(pair[0], 8), op(pair[1], 8), window - 1)
        assert got.row(window - 1) == deeper.row(window - 1)
        with pytest.raises(PreconditionError, match="truncation too small"):
            connection_constants(g, h, window)


def _units(order):
    """A two-term unit (abel), an ODE unit (the forward difference) and a
    chain unit, e^t - 1 + t^2, which fits neither rule."""
    fd = catalog("forward_difference", order=order)
    return [catalog("abel", {"b": Rat(2, 7)}, order=order), fd,
            DeltaOperator(fd.series + monomial(2), name="chain")]


def _recorded_reads(monkeypatch):
    """Record, in sequences, the degree n of each _rule_read and
    _transfer_read, and each row a _unit_powers call asks for."""
    calls = {"_rule_read": [], "_transfer_read": [], "_unit_powers": []}
    for name in ("_rule_read", "_transfer_read"):
        monkeypatch.setattr(sequences, name, lambda first, n, depth, seen=calls[name],
                            read=getattr(sequences, name): seen.append(n) or read(first, n, depth))
    unit_powers = sequences._unit_powers
    monkeypatch.setattr(sequences, "_unit_powers", lambda g, widths: calls["_unit_powers"].extend(
        widths) or unit_powers(g, widths))
    return calls


class TestRowsOnDemand:
    """A row read first, or out of order, equals the same row of the whole
    triangle, whatever n_max sized the first table."""

    @pytest.mark.parametrize("unit", range(3))
    @pytest.mark.parametrize("generate", [generate_transfer,
                                          lambda f, n: conjugate_sequence(f.series, n)])
    def test_row_read_first(self, generate, unit):
        f = _units(24)[unit]
        full = generate(f, 22).terms(22)
        for n in (1, 9, 22):
            assert generate(f, 0)[n] == generate(f, n)[n] == full[n], n
        seq = generate(f, 0)
        reads = (9, 3, 22, 15, 0, 1)  # row 22 widens the table row 9 built
        assert [seq[n] for n in reads] == [full[n] for n in reads]

    @pytest.mark.parametrize("pair", [(0, 1), (2, 1), (0, 2)])
    def test_connection_row_of_a_smaller_table(self, pair):
        g, h = (_units(24)[i] for i in pair)
        full = connection_constants(g, h, 22)
        for n in (1, 9, 22):
            assert connection_constants(g, h, n).row(n) == full.row(n), n

    def test_a_row_read_first_is_the_one_row_read(self, monkeypatch):
        # reading row 30 of a fresh sequence reads no row below it: abel's
        # row is read off its two-term rule, the forward difference's off
        # the power table
        cases = ((catalog("abel", {"b": Rat(2, 7)}, order=32), "_rule_read"),
                 (catalog("forward_difference", order=32), "_transfer_read"))
        for f, runs in cases:
            calls = {"_rule_read": [], "_transfer_read": []}
            for name, seen in calls.items():
                monkeypatch.setattr(sequences, name, lambda first, n, depth, seen=seen,
                                    read=getattr(sequences, name): seen.append(n) or read(first, n, depth))
            row = generate_transfer(f, 30)[30]
            monkeypatch.undo()
            assert calls == {name: [30] if name == runs else [] for name in calls}, runs
            assert row == generate_transfer(f, 0).terms(30)[30]

    def test_a_log_window_chooses_its_read_where_a_sequence_row_does(self, monkeypatch):
        # log_sequence reads row -n through the reader generate_transfer
        # uses: abel's off its two-term rule, the forward difference's off
        # the power table
        calls = _recorded_reads(monkeypatch)
        cases = ((catalog("abel", {"b": Rat(2, 7)}, order=13), 5),
                 (catalog("forward_difference", order=13), -3))
        windows = [log_sequence(f, n, 12) for f, n in cases]
        monkeypatch.undo()
        assert calls["_rule_read"] == [5] and calls["_transfer_read"] == [-3]
        assert windows == [_oracle_window(f.series, n, 12) for f, n in cases]

    def test_widening_asks_for_each_table_row_once(self, monkeypatch):
        # from n_max = 3 the forward difference fits the two-term rule at
        # width 3, so rows 1 and 3 are read off it; rows 5, 9, 20 and 38
        # widen to 6, 12, 24 and 39, where it does not fit, and each
        # widening asks for the table rows past those already served
        calls = _recorded_reads(monkeypatch)
        seq = generate_transfer(catalog("forward_difference", order=40), 3)
        rows = [seq[n] for n in (1, 3, 5, 9, 20, 38)]
        monkeypatch.undo()
        assert sorted(calls["_unit_powers"]) == list(range(-39, -3))
        assert calls["_rule_read"] == [1, 3] and calls["_transfer_read"] == [5, 9, 20, 38]
        assert rows == [lower_factorial(n) for n in (1, 3, 5, 9, 20, 38)]

    @given(st.deferred(lambda: near_miss_coeffs()))  # defined with the two-term units below
    @settings(max_examples=40, deadline=None)
    def test_rows_past_the_last_width_that_fit_come_from_the_table(self, case):
        # rows 1..w read in order from n_max = 0 widen to 1, 2, 4, 8, ...
        # cut at w; the rule fits at each width s <= j, and the rows past
        # the last of those come from the table, each row asked for once
        coeffs, j = case
        w = len(coeffs)
        last = max(s for s in (min(2**i, w) for i in range(w.bit_length() + 1)) if s <= j)
        with pytest.MonkeyPatch.context() as mp:
            calls = _recorded_reads(mp)
            generate_transfer(DeltaOperator(_unit_delta(coeffs)), 0).terms(w)
        assert calls["_rule_read"] == list(range(1, last + 1))
        assert calls["_transfer_read"] == list(range(last + 1, w + 1))
        assert sorted(calls["_unit_powers"]) == list(range(-w, -last))

    def test_a_transfer_sequence_drops_each_table_row_once_read(self):
        # row -n of the power table serves row n alone, so once rows
        # 0..n_max are read the sequence holds little beyond the rows
        # themselves; kept, the table would hold about 2/3 as much again
        op = catalog("forward_difference", order=98)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            seq = generate_transfer(op, 96)
            rows = seq.terms(96)
            held = tracemalloc.get_traced_memory()[0] - before
            del seq
            gc.collect()
            rows_alone = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 97 and held - rows_alone < rows_alone / 20, (held, rows_alone)

    def test_a_negative_degree_is_refused_by_every_polynomial_sequence(self):
        fd = catalog("forward_difference", order=8)
        for seq in (
            generate_transfer(fd),
            conjugate_sequence(fd.series),
            umbral_compose([[1], [0, 1], [0, 0, 1]], generate_transfer(fd)),
            suites._corrupted_sequence(generate_transfer(fd), 2),
        ):
            for n in (-1, -3):
                with pytest.raises(PreconditionError,
                                   match=r"^binomial sequences are indexed by n >= 0$"):
                    seq[n]

    def test_a_log_sequence_is_refused_where_polynomial_rows_are_read(self):
        # a log window's coefficients are keyed by degree; read as a list
        # from degree 0 they would give a wrong polynomial, not an error
        f = catalog("abel", {"b": Rat(1, 2)}, order=8)
        log, poly = LogBinomialSequence(f, 4), generate_transfer(f)
        for read in (lambda: umbral_compose(log, poly)[3],
                     lambda: umbral_compose(poly, log)[3],
                     lambda: verify_binomial_identity(log, 3)):
            with pytest.raises(PreconditionError, match="polynomial sequence is needed"):
                read()


# -- two-term units ------------------------------------------------------
#
# A unit u = f/t with (1 + rt) u' = cu: u_0 e^(ct) for r = 0, else
# u_0 (1 + rt)^(c/r). The oracle reads row n off row -n of a power table
# built for any unit, u^(-1) (or u) by _power_row and a _chain of products
# away from zero, weighted by the falling product of Roman numbers.


def _two_term_coeffs(u0, c, r, w):
    """u_0..u_(w-1) of u_0 (1 + rt)^(c/r), or u_0 e^(ct) for r = 0."""
    out = [u0]
    for m in range(w - 1):
        out.append((c - r * m) * out[-1] / (m + 1))
    return out


def _unit_delta(coeffs, order=None):
    """f = t u for the given unit coefficients, known to 1 + len(coeffs)."""
    return series.from_coeffs([0, *coeffs], order=order)


def _chain_row(fs, n, w):
    """Row -n of the power table of u = f/t on w coefficients, n != 0."""
    u = series._dense([fs.coefficient(1 + e) for e in range(w)])
    step = series._power_row(*u, -1 if n > 0 else 1, w)
    return list(series._chain(step, *step, [w] * abs(n)))[-1]


def _oracle_read(fs, n, depth):
    """Degree n - k, k < depth and k != n: roman(n-1)!/roman(n-1-k)! [t^k] u^(-n)."""
    num, den = _chain_row(fs, n, depth)
    out, weight = {}, 1
    for k in range(depth):
        if k != n:
            out[n - k] = Rat(weight * num[k], den)
        weight *= (n - 1 - k) or 1
    return out


def _oracle_row(fs, n):
    read = _oracle_read(fs, n, n)
    return Polynomial([0, *(read[d] for d in range(1, n + 1))])


def _oracle_window(fs, n, depth):
    return HarmonicLogSeries(_oracle_read(fs, n, depth), n - depth + 1)


nonzero_rat = st.builds(Rat, st.integers(-9, 9).filter(bool), st.integers(1, 7))


@st.composite
def two_term_unit_coeffs(draw, max_w=24):
    """(coefficients, exact): e^(ct), a binomial of any rational exponent
    c/r, one of integer exponent c/r = j, so that row n terminates where
    -n j - k = 0, or an exact polynomial u_0 (1 + rt)^j, j = 0..3; u_0 is
    any nonzero rational."""
    w = draw(st.integers(1, max_w))
    u0, r = draw(nonzero_rat), draw(nonzero_rat)
    kind = draw(st.sampled_from(("exp", "binomial", "integer", "exact")))
    if kind == "exact":
        j = draw(st.integers(0, 3))
        return [u0 * comb(j, m) * r**m for m in range(j + 1)], True
    c = draw(small_rat) if kind != "integer" else draw(st.integers(-4, 4)) * r
    return _two_term_coeffs(u0, c, Rat(0) if kind == "exp" else r, w), False


@st.composite
def near_miss_coeffs(draw):
    """Unit coefficients that fit the two-term rule up to u_(j-1), with u_j
    off it: (coefficients, j)."""
    coeffs, _ = draw(two_term_unit_coeffs().filter(lambda case: not case[1] and len(case[0]) >= 4))
    j = draw(st.integers(3, len(coeffs) - 1))
    coeffs[j] += draw(nonzero_rat)
    return coeffs, j


class TestTwoTermTransferReads:
    """The transfer rows and log windows of a unit in the two-term class
    (abel, laguerre, exact units such as D + D^2) against the chain oracle:
    after a first read at any width, past a prefix that fits the rule, and
    with the input extended past its order."""

    @given(two_term_unit_coeffs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_and_windows_match_the_chain_oracle(self, case, data):
        coeffs, exact = case
        w = data.draw(st.integers(1, 24)) if exact else len(coeffs)
        fs = _unit_delta(coeffs, order=series.INF if exact else None)
        seq = generate_transfer(DeltaOperator(fs), data.draw(st.integers(0, w)))
        for n in data.draw(st.lists(st.integers(1, w), min_size=1, max_size=4)):
            assert seq[n] == _oracle_row(fs, n), n
        depth, n = data.draw(st.integers(1, w)), data.draw(st.integers(-30, 30).filter(bool))
        assert log_sequence(DeltaOperator(fs), n, depth) == _oracle_window(fs, n, depth)

    @given(two_term_unit_coeffs(), st.integers(-30, 30).filter(bool), st.data())
    @settings(max_examples=100, deadline=None)
    def test_the_rule_read_is_the_transfer_read_of_the_chain_row(self, case, n, data):
        coeffs, exact = case
        depth = data.draw(st.integers(1, 24 if exact else len(coeffs)))
        fs = _unit_delta(coeffs, order=series.INF if exact else None)
        rule = series._read(fs, depth)[1]
        assert rule is not None
        want = sequences._transfer_read(_chain_row(fs, n, depth), n, depth)
        assert sequences._rule_read(rule, n, depth) == want

    @pytest.mark.parametrize("coeffs, order, n, depth", [
        (_two_term_coeffs(Rat(1), Rat(-1, 2), Rat(0), 13), None, 5, 12),  # abel(1/2), 0 < n < depth
        (_two_term_coeffs(Rat(3, 2), Rat(-2), Rat(1), 13), None, 3, 12),  # (1 + t)^(-2): k = 7 ends the row
        ([Rat(1), Rat(2), Rat(1)], series.INF, -2, 9),  # exact (1 + t)^2: k = 5 ends the row
        ([Rat(1), Rat(1)], series.INF, 7, 12),  # D + D^2
        ([Rat(-2, 3), Rat(-2, 3)], series.INF, -4, 3),  # a row of width below its |n|
    ])
    def test_terminating_rows_and_the_roman_zero_weight(self, coeffs, order, n, depth):
        fs = _unit_delta(coeffs, order)
        assert log_sequence(DeltaOperator(fs), n, depth) == _oracle_window(fs, n, depth)
        top = min(depth, 12)
        assert generate_transfer(DeltaOperator(fs)).terms(top)[1:] == [
            _oracle_row(fs, m) for m in range(1, top + 1)]

    @given(near_miss_coeffs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_past_a_rule_prefix_match_the_oracle(self, case, data):
        # a row at or below j is read first, off the prefix that fits the
        # rule; every later row, at or past j, must not read it
        coeffs, j = case
        w = len(coeffs)
        fs = _unit_delta(coeffs)
        seq = generate_transfer(DeltaOperator(fs))
        first = data.draw(st.integers(1, j))
        assert seq[first] == _oracle_row(fs, first)
        for n in data.draw(st.permutations(range(1, w + 1))):
            assert seq[n] == _oracle_row(fs, n), n
        n = data.draw(st.integers(-30, 30).filter(bool))
        for depth in (j, w, data.draw(st.integers(1, w))):
            assert log_sequence(DeltaOperator(fs), n, depth) == _oracle_window(fs, n, depth), depth

    @given(two_term_unit_coeffs().filter(lambda case: not case[1]).map(lambda case: case[0])
           | ode_members(max_w=24).map(lambda member: _ode_coeffs(*member))
           | st.integers(4, 24).map(lambda w: [Rat(1, factorial(k + 1)) + (k == 1) for k in range(w)]),
           st.lists(small_rat, min_size=1, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_an_extended_unit_claims_the_same_rows_and_windows(self, coeffs, tail, data):
        # a two-term unit, an ODE member or the chain unit of e^t - 1 + t^2,
        # which fits neither rule, extended past its order by random
        # coefficients that push it off any rule it fits: the rows and
        # windows the shorter input claimed do not move, whichever path
        # reads them
        w, wide = len(coeffs), len(coeffs) + len(tail)
        f, longer = DeltaOperator(_unit_delta(coeffs)), DeltaOperator(_unit_delta(coeffs + tail))
        rows = generate_transfer(f, w).terms(w)
        assert generate_transfer(longer, wide).terms(w) == rows
        later = generate_transfer(longer)
        for m in data.draw(st.permutations(range(w + 1))):
            assert later[m] == rows[m], m
        n, depth = data.draw(st.integers(-30, 30)), data.draw(st.integers(1, w))
        window = log_sequence(f, n, depth)
        assert log_sequence(longer, n, depth) == window
        assert log_sequence(longer, n, wide).truncate_floor(n - depth + 1) == window


class TestBinomialIdentity:
    def test_certifies_catalog_sequences(self):
        for name, op in delta_catalog():
            seq = generate_transfer(op, 7)
            ok, witness = verify_binomial_identity(seq, 7)
            assert ok, (name, witness)

    def test_detects_corruption(self):
        # a constant slipped into p_2 breaks the identity and produces a
        # concrete witness
        good = generate_transfer(catalog("forward_difference", order=16), 4)

        def step(n):
            p = good[n]
            return p + Polynomial([1]) if n == 2 else p

        bad = BinomialSequence(good.operator, "corrupted", step)
        ok, witness = verify_binomial_identity(bad, 3)
        assert not ok
        assert witness["lhs"] != witness["rhs"]

    @pytest.mark.parametrize("n", [-1, -4])
    def test_negative_n_is_refused(self, n):
        # no vacuous pass after zero checks
        seq = generate_transfer(catalog("forward_difference", order=16), 2)
        with pytest.raises(PreconditionError, match=f"n = {n}"):
            verify_binomial_identity(seq, n)

    def test_degree_zero_checks_one_point(self):
        seq = generate_transfer(catalog("forward_difference", order=16), 0)
        assert verify_binomial_identity(seq, 0) == (True, None)
        bad = BinomialSequence(None, "corrupted", lambda n: Polynomial([2]))
        ok, witness = verify_binomial_identity(bad, 0)
        assert not ok
        assert witness == {"n": 0, "x": 0, "a": 0, "lhs": 2, "rhs": 4}

    def test_each_polynomial_evaluated_at_most_once_per_point(self, monkeypatch):
        seen = []
        evaluate = Polynomial.evaluate

        def counted(self, x):
            seen.append((id(self), Rat(x)))
            return evaluate(self, x)

        monkeypatch.setattr(Polynomial, "evaluate", counted)
        seq = generate_transfer(catalog("abel", {"b": Rat(2, 3)}, order=16), 9)
        assert verify_binomial_identity(seq, 9) == (True, None)
        assert len(seen) == len(set(seen))

    @given(binomial_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_grid_oracle(self, case):
        seq, n = case
        assert verify_binomial_identity(seq, n) == _fraction_grid(seq, n)


class TestFractionGridOracle:
    """The oracle itself: it passes a basic sequence and names the first
    failing point, x outer and a inner, of a corrupted one."""

    def test_passes_lower_factorials(self):
        seq = generate_transfer(catalog("forward_difference", order=16), 5)
        assert _fraction_grid(seq, 5) == (True, None)

    def test_first_witness_of_a_shifted_constant(self):
        # p_1 = x + 1 for n = 1: lhs = x + a + 1 against x + a + 2 at (0, 0)
        seq = _corrupt(generate_transfer(catalog("derivative"), 1), 1, Rat(1))
        assert _fraction_grid(seq, 1) == (
            False, {"n": 1, "x": 0, "a": 0, "lhs": 1, "rhs": 2}
        )


class TestConjugate:
    def test_conjugate_of_mercator_is_lower_factorial(self):
        # the conjugate sequence of g is basic for g^(-1); with
        # g = log(1+t) that inverse is e^t - 1
        fd = catalog("forward_difference", order=16)
        g = compositional_inverse(fd.series)
        conj = conjugate_sequence(g, 7)
        direct = generate_transfer(fd, 7)
        for n in range(8):
            assert conj[n] == direct[n], n

    def test_coefficient_formula(self):
        # [DERIVED] c_{nk} = n! [t^n] g^k / k! checked against an
        # independently computed power
        from umbra.series import int_pow

        ab = catalog("abel", {"b": 1}, order=16)
        conj = conjugate_sequence(ab.series, 6)
        g3 = int_pow(ab.series, 3)
        n = 5
        assert conj[n].coefficient(3) == factorial(n) * g3.coefficient(n) / factorial(3)

    def test_conjugate_is_binomial_type(self):
        ab = catalog("abel", {"b": -2}, order=16)
        conj = conjugate_sequence(ab.series, 6)
        ok, witness = verify_binomial_identity(conj, 6)
        assert ok, witness

    def test_operator_is_inverted_only_when_read(self, monkeypatch):
        # rows read g itself; g is inverted once, on the first read of
        # .operator, and umbral composition builds its operator from that
        # one on its own first read of .operator
        calls = []
        inverse = sequences.compositional_inverse

        def counted(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(sequences, "compositional_inverse", counted)
        g = catalog("forward_difference", order=200).series
        conj = conjugate_sequence(g, 3)
        # the exponential polynomials, rows of Stirling numbers of the second kind
        assert conj[3] == Polynomial([stirling_second(3, k) for k in range(4)])
        assert calls == []
        op = conj.operator
        assert op.series == inverse(g)
        assert conj.operator is op and len(calls) == 1
        small = conjugate_sequence(catalog("forward_difference", order=12).series, 3)
        composed = umbral_compose(small, small)
        assert len(calls) == 1  # composing the operators waits for .operator too
        assert composed.operator.series.agrees_with(
            compose(small.operator.series, small.operator.series)
        )
        assert len(calls) == 2

    def test_exact_polynomial_has_no_operator(self):
        # an exact non-monomial g has no inverse without an explicit order
        conj = conjugate_sequence(monomial(1) + monomial(2), 4)
        assert conj[2] == Polynomial([0, 2, 1])
        assert conj.operator is None


# -- Taylor coefficients and connection constants against their old routes --
#
# Oracles: d_k = (q^k p)(0) / k! by applying q to p once per coefficient, and
# the connection rows as the conjugate sequence of g(h^(-1)) with h inverted
# over its whole window.


def _taylor_by_actions(p, q):
    _delta_series(q)
    if p.is_zero:
        return [Rat(0)]
    out = []
    cur = p
    for k in range(p.degree + 1):
        out.append(cur.evaluate(0) / factorial(k))
        cur = apply_to_polynomial(q, cur)
    return out


def _whole_window_connection(g, h, n_max):
    bridge = compose(g.series, compositional_inverse(h.series))
    return [[p.coefficient(k) for k in range(n + 1)]
            for n, p in enumerate(conjugate_sequence(bridge, n_max).terms(n_max))]


def _outcome(call, *args):
    """The value of a call, or the type and text of its refusal."""
    try:
        return call(*args)
    except Exception as err:
        return type(err), str(err)


class TestRouteOracles:
    @given(delta_operators(lowest=2), st.lists(small_rat, max_size=27))
    @settings(max_examples=60, deadline=None)
    def test_taylor_matches_actions(self, q, coeffs):
        p = Polynomial(coeffs)
        got, want = _outcome(taylor_expand, p, q), _outcome(_taylor_by_actions, p, q)
        if isinstance(want, tuple):
            n = p.degree
            assert got == (want[0], f"truncation too small for exact action: row {n} "
                                    f"needs order {n + 1}, given {q.series.order}")
            assert want[1].startswith("truncation too small for exact action")
        else:
            assert got == want

    @given(delta_operators(lowest=2), delta_operators(lowest=2), st.integers(0, 26))
    @settings(max_examples=40, deadline=None)
    def test_connection_matches_whole_window(self, g, h, n_max):
        got = _outcome(connection_constants, g, h, n_max)
        if not isinstance(got, tuple):
            got = [list(got.row(n)) for n in range(n_max + 1)]
        assert got == _outcome(_whole_window_connection, g, h, n_max)

    @pytest.mark.parametrize("n_max", [0, 1, 5, 15])
    def test_bridge_inverts_to_the_width_it_reads(self, monkeypatch, n_max):
        # rows 0..n_max read g(h^(-1)) below t^(n_max + 1)
        asked = []

        def recorded(f, order=None):
            asked.append(order)
            return compositional_inverse(f, order=order)

        monkeypatch.setattr(operators, "compositional_inverse", recorded)
        bd = catalog("backward_difference", order=16)
        fd = catalog("forward_difference", order=16)
        connection_constants(bd, fd, n_max)
        assert asked == ([n_max + 1] if n_max else [])


def _slice(rows, top):
    """Degree -> nonzero coefficient of each row n = 1..top, as log windows
    hold them."""
    return {n: {d: c for d, c in enumerate(rows[n].coeffs) if c} for n in range(1, top + 1)}


class TestClassicalRowsAreTheLogSlice:
    """The classical rows are the nonnegative-degree slice of the
    logarithmic windows: row n is degrees n..1 of the window of depth n.
    The oracles are the log layer's windows, one power table each, where
    the polynomial rows share one table per triangle. The operators are
    catalog ones, whose units fit one of the kernel's rules, and random
    delta series, whose units mostly fit none."""

    @given(delta_operators(lowest=2) | delta_series())
    @settings(max_examples=60, deadline=None)
    def test_transfer_rows(self, f):
        top = min(_delta_series(f).order - 1, CAP)
        want = {n: log_sequence(f, n, n).coeffs for n in range(1, top + 1)}
        assert _slice(generate_transfer(f, top).terms(top), top) == want

    @given(delta_operators(lowest=2) | delta_series())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_rows(self, g):
        top = min(_delta_series(g).order - 1, CAP)
        want = {n: log_conjugate_sequence(g, n, n).coeffs for n in range(1, top + 1)}
        assert _slice(conjugate_sequence(g, top).terms(top), top) == want

    @given(st.lists(small_rat, max_size=15), small_rat.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_taylor_is_newton(self, lower, lead):
        p = Polynomial([*lower, lead])
        got = taylor_expand(p, catalog("forward_difference"))
        s = HarmonicLogSeries(dict(enumerate(p.coeffs)))
        assert dict(enumerate(got)) == newton_expand(s, p.degree + 1)


class TestTaylor:
    def test_powers_in_lower_factorials(self):
        # [DERIVED] x^n = sum_k S(n,k) (x)_k
        fd = catalog("forward_difference", order=16)
        for n in range(9):
            d = taylor_expand(Polynomial.x_power(n), fd)
            assert d == [stirling_second(n, k) for k in range(n + 1)], n

    def test_basic_sequence_is_dual(self):
        # expanding p_n of Q in the basis of Q gives the indicator
        fd = catalog("forward_difference", order=16)
        seq = generate_transfer(fd, 6)
        for n in range(7):
            d = taylor_expand(seq[n], fd)
            assert d == [Rat(int(k == n)) for k in range(n + 1)], n

    def test_reconstruction(self):
        fd = catalog("forward_difference", order=16)
        seq = generate_transfer(fd, 8)
        p = Polynomial([3, 0, -2, 0, Rat(1, 7), 1])
        d = taylor_expand(p, fd)
        acc = Polynomial()
        for k, c in enumerate(d):
            acc = acc + seq[k].scale(c)
        assert acc == p

    def test_refusal_names_the_orders(self):
        fd = catalog("forward_difference", order=6)
        with pytest.raises(PreconditionError, match="row 8 needs order 9, given 6$") as info:
            taylor_expand(Polynomial.x_power(8), fd)
        assert (info.value.needed, info.value.available) == (9, 6)

    def test_ordinary_taylor(self):
        d = catalog("derivative")
        p = Polynomial([5, -1, Rat(2, 3)])
        assert taylor_expand(p, d) == [Rat(5), Rat(-1), Rat(2, 3)]


def lah(n, k):
    # [DERIVED] Lah numbers C(n-1, k-1) n!/k! connect the factorial bases
    if n == k == 0:
        return Rat(1)
    if k == 0 or k > n:
        return Rat(0)
    return Rat(comb(n - 1, k - 1) * factorial(n), factorial(k))


class TestConnectionConstants:
    def test_upper_in_lower_is_lah(self):
        fd = catalog("forward_difference", order=16)
        bd = catalog("backward_difference", order=16)
        c = connection_constants(fd, bd, 8)
        for n in range(9):
            for k in range(n + 1):
                assert c.entry(n, k) == lah(n, k), (n, k)

    def test_lower_in_upper_is_signed_lah(self):
        fd = catalog("forward_difference", order=16)
        bd = catalog("backward_difference", order=16)
        c = connection_constants(bd, fd, 8)
        for n in range(9):
            for k in range(n + 1):
                assert c.entry(n, k) == (-1) ** (n - k) * lah(n, k), (n, k)

    def test_semantics(self):
        # target_n = sum_k c_{nk} source_k for an asymmetric pair
        g = catalog("abel", {"b": 1}, order=16)
        h = catalog("forward_difference", order=16)
        c = connection_constants(g, h, 6)
        src = generate_transfer(g, 6)
        tgt = generate_transfer(h, 6)
        for n in range(7):
            acc = Polynomial()
            for k in range(n + 1):
                acc = acc + src[k].scale(c.entry(n, k))
            assert acc == tgt[n], n

    def test_triangular_with_unit_diagonal_scale(self):
        g = catalog("laguerre", order=16)
        h = catalog("forward_difference", order=16)
        c = connection_constants(g, h, 6)
        for n in range(7):
            assert len(c.row(n)) == n + 1
            assert c.entry(n, n) != 0

    def test_powers_to_lower_factorial_is_stirling(self):
        # [DERIVED] connection from x^k to (x)_n recovers Stirling numbers
        d = catalog("derivative")
        fd = catalog("forward_difference", order=16)
        c = connection_constants(d, fd, 7)
        for n in range(8):
            for k in range(n + 1):
                assert c.entry(n, k) == stirling_first(n, k), (n, k)

    @given(delta_operators(), delta_operators())
    @settings(max_examples=20, deadline=None)
    def test_rows_match_bridge_transfer(self, g, h):
        # every row the transfer formula gives on the bridge h(g^(-1))
        bridge = DeltaOperator(compose(h.series, compositional_inverse(g.series)))
        want = _take(_transfer_oracle(bridge), CAP)
        n = len(want) - 1
        got = connection_constants(g, h, n)
        assert [list(got.row(m)) for m in range(n + 1)] == [
            [want[m].coefficient(k) for k in range(m + 1)] for m in range(n + 1)
        ]

    def test_identity_connection(self):
        fd = catalog("forward_difference", order=16)
        c = connection_constants(fd, fd, 5)
        for n in range(6):
            for k in range(n + 1):
                assert c.entry(n, k) == (1 if n == k else 0)


class TestUmbralCompose:
    def test_rows_and_matrix_inputs_agree(self):
        fd = catalog("forward_difference", order=16)
        bd = catalog("backward_difference", order=16)
        c = connection_constants(bd, fd, 5)
        upper = generate_transfer(bd, 5)
        via_matrix = umbral_compose(c, upper)
        via_rows = umbral_compose([list(c.row(n)) for n in range(6)], upper)
        lower = generate_transfer(fd, 5)
        for n in range(6):
            assert via_matrix[n] == lower[n]
            assert via_rows[n] == lower[n]

    def test_sequence_input_composes_operators(self):
        # r = q(p) is basic for f(g(D)) when q is basic for f, p for g
        fd = catalog("forward_difference", order=16)
        q = generate_transfer(fd, 6)
        p = generate_transfer(fd, 6)
        r = umbral_compose(q, p)
        composed = DeltaOperator(compose(fd.series, fd.series))
        direct = generate_transfer(composed, 6)
        for n in range(7):
            assert r[n] == direct[n], n
        assert r.operator is not None
        assert r.operator.series.agrees_with(composed.series)

    def test_powers_are_identity_element(self):
        # substituting x^k leaves any sequence unchanged
        ab = catalog("abel", {"b": 3}, order=16)
        seq = generate_transfer(ab, 5)
        powers = generate_transfer(catalog("derivative"), 5)
        r = umbral_compose(seq, powers)
        for n in range(6):
            assert r[n] == seq[n]


class TestRamey:
    def test_shift_of_forward_difference_is_upper_factorial(self):
        # [DERIVED] E^(-1)(E - 1) = 1 - E^(-1), whose basic sequence is
        # the upper factorial
        fd = catalog("forward_difference", order=16)
        seq = ramey_sequence(fd, -1, 6)
        for n in range(7):
            assert seq[n] == upper_factorial(n), n

    def test_gould_closed_form(self):
        # [DERIVED] basic sequence of E^b (E-1): G_n = x (x - bn - 1)_{n-1}
        b = Rat(2)
        fd = catalog("forward_difference", order=16)
        seq = ramey_sequence(fd, b, 6)
        for n in range(1, 7):
            closed = Polynomial([0, 1]) * poly_product(
                [Polynomial([-b * n - 1 - i, 1]) for i in range(n - 1)]
            )
            assert seq[n] == closed, n

    def test_zero_shift_is_identity(self):
        ab = catalog("abel", {"b": 1}, order=16)
        seq = ramey_sequence(ab, 0, 5)
        direct = generate_transfer(ab, 5)
        for n in range(6):
            assert seq[n] == direct[n]

    def test_is_binomial_type(self):
        fd = catalog("forward_difference", order=16)
        seq = ramey_sequence(fd, Rat(1, 2), 6)
        ok, witness = verify_binomial_identity(seq, 6)
        assert ok, witness

    @pytest.mark.parametrize("b", [Rat(2, 3), Rat(-5), Rat(13, 17)])
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_shift_of_the_derivative_is_abel(self, b, n):
        # E^b D = D e^(bD), whose basic sequence is x (x - nb)^(n-1); the
        # exact D gets the least working order that determines row n
        seq = ramey_sequence(catalog("derivative"), b, n)
        assert seq.operator.series.order == max(n, 1) + 1
        assert seq.terms(n) == [abel_poly(k, b) for k in range(n + 1)]
        with pytest.raises(PreconditionError):
            seq[max(n, 1) + 1]


# -- closed forms at the benchmark's working order ------------------------
#
# Each oracle expands its closed form in plain integer or Fraction
# arithmetic, with no series and no umbra polynomial product, so it shares
# nothing with the power table the rows are read from.

ORDER = 48
ROWS = range(ORDER - 1)  # n <= 46


def _factorial_rows(sign):
    """Integer coefficient lists of x(x + sign)(x + 2 sign)...(x + (n-1) sign),
    n = 0, 1, ...: the rising factorial for sign = 1, the falling for -1."""
    row = [1]
    for n in count():
        yield row
        shifted = [0] + row  # x * row
        row = [a + sign * n * b for a, b in zip(shifted, row + [0])]


class TestClosedFormsAtWorkingOrder:
    def test_abel(self):
        # [PAPER] A_n(x; b) = x (x - nb)^(n-1) = sum_j C(n-1, j) (-nb)^(n-1-j) x^(j+1)
        b = Rat(17, 29)
        seq = generate_transfer(catalog("abel", {"b": b}, order=ORDER), ROWS[-1])
        assert seq[0] == Polynomial([1])
        for n in ROWS[1:]:
            want = [0] + [comb(n - 1, j) * (-n * b) ** (n - 1 - j) for j in range(n)]
            assert seq[n].coeffs == tuple(want), n

    @pytest.mark.parametrize("name, sign", [("forward_difference", -1),
                                            ("backward_difference", 1)])
    def test_factorials(self, name, sign):
        # [DERIVED] (x)_n for the forward difference, x^(n) for the backward
        seq = generate_transfer(catalog(name, order=ORDER), ROWS[-1])
        for n, want in zip(ROWS, _factorial_rows(sign)):
            assert seq[n].coeffs == tuple(want), n

    def test_laguerre(self):
        # [PAPER] L_n(x) = sum_k (-1)^k (n!/k!) C(n-1, k-1) x^k
        seq = generate_transfer(catalog("laguerre", order=ORDER), ROWS[-1])
        assert seq[0] == Polynomial([1])
        for n in ROWS[1:]:
            want = [0] + [(-1) ** k * factorial(n) // factorial(k) * comb(n - 1, k - 1)
                          for k in range(1, n + 1)]
            assert seq[n].coeffs == tuple(want), n

    @pytest.mark.parametrize("pair, signed", [(("forward_difference", "backward_difference"), False),
                                              (("backward_difference", "forward_difference"), True)])
    def test_lah_connection(self, pair, signed):
        # [DERIVED] x^(n) = sum_k L(n, k) (x)_k and (x)_n = sum_k (-1)^(n-k) L(n, k) x^(k)
        n_max = 30
        g, h = (catalog(name, order=n_max + 2) for name in pair)
        c = connection_constants(g, h, n_max)
        for n in range(n_max + 1):
            want = [(-1) ** (n - k) * lah(n, k) if signed else lah(n, k) for k in range(n + 1)]
            assert c.row(n) == tuple(want), n

    def test_touchard_conjugate(self):
        # [DERIVED] the conjugate sequence of e^t - 1 is the Touchard
        # polynomials sum_k S(n, k) x^k, S(n+1, k) = k S(n, k) + S(n, k-1)
        n_max = 40
        seq = conjugate_sequence(catalog("forward_difference", order=n_max + 2), n_max)
        s = [1]  # S(n, 0..n)
        for n in range(n_max + 1):
            assert seq[n].coeffs == tuple(s), n
            s = [0] + [k * a + b for k, (a, b) in enumerate(zip(s[1:] + [0], s), start=1)]

    def test_shift_in_forward_difference(self):
        # [DERIVED] e^(at) = (1 + (e^t - 1))^a, so c_k = (a)_k = a(a-1)...(a-k+1)
        a, k_max = Rat(19, 29), 30
        shift = catalog("shift", {"a": a}, order=k_max + 2)
        fd = catalog("forward_difference", order=k_max + 2)
        want, c = [], Rat(1)
        for k in range(k_max + 1):
            want.append(c)
            c *= a - k
        assert expand_in_basis(shift.series, fd.series, k_max=k_max) == want


class TestClosedFormsAtOrder128:
    # abel and laguerre have units e^(bt) and -1/(1 - t), whose powers the
    # kernel reads off a two-term rule; these pin that path at working size
    def test_abel_inverse(self):
        # [DERIVED] t e^(bt) inverts to W(bt)/b: [t^k] = (-kb)^(k-1)/k!
        b = Rat(13, 17)
        g = compositional_inverse(catalog("abel", {"b": b}, order=128).series)
        assert g.order == 129  # abel at order N is t e^(bt) known to t^(N+1)
        for k in range(1, 129):
            assert g.coefficient(k) == (-k * b) ** (k - 1) / factorial(k), k

    def test_laguerre_is_its_own_inverse(self):
        # [DERIVED] t/(t - 1) composed with itself is t
        f = catalog("laguerre", order=128).series
        assert compositional_inverse(f) == f

    def test_abel_row_126(self):
        # [PAPER] A_n(x; b) = x (x - nb)^(n-1)
        b, n = Rat(17, 29), 126
        seq = generate_transfer(catalog("abel", {"b": b}, order=128), n)
        assert seq[n].coeffs == tuple([0] + [comb(n - 1, j) * (-n * b) ** (n - 1 - j) for j in range(n)])

    def test_abel_inverse_at_order_200_is_cheap(self):
        # about 0.02 s on a 2-core x86-64 VM; Miller's recurrence with
        # baby and giant steps took 1.7-2.2 s there
        f = catalog("abel", {"b": Rat(13, 17)}, order=200).series
        start = time.perf_counter()
        g = compositional_inverse(f)
        assert time.perf_counter() - start < 0.2
        assert g.coefficient(199) == (-199 * Rat(13, 17)) ** 198 / factorial(199)


# -- coercion and refusals ------------------------------------------------


class _RatSub(Rat):
    """A Fraction subclass: coercion must not keep it."""


OTHER_NUMBERS = [3, "3/4", 0.375, Decimal("-1.25"), _RatSub(5, 6)]


class TestCoercion:
    def test_connection_matrix_keeps_fractions(self):
        rows = [[Rat(1)], [Rat(0), Rat(-2, 3)], [Rat(0), Rat(5, 7), Rat(9)]]
        m = ConnectionMatrix(rows)
        for got, given in zip(m.entries, rows):
            assert all(a is b for a, b in zip(got, given))

    @pytest.mark.parametrize("c", OTHER_NUMBERS)
    def test_connection_matrix_makes_fractions(self, c):
        m = ConnectionMatrix([[1], [0, c]])
        assert type(m.entry(1, 1)) is Rat
        assert m.entry(1, 1) == Rat(c)
        assert type(m.entry(0, 0)) is Rat

    def test_basic_sequence_rows_are_plain_fractions(self):
        op = catalog("abel", {"b": Rat(3, 7)}, order=8)
        for seq in (generate_transfer(op, 7), conjugate_sequence(op.series, 7)):
            assert all(type(c) is Rat for n in range(8) for c in seq[n].coeffs)
        c = connection_constants(op, catalog("laguerre", order=8), 7)
        assert all(type(v) is Rat for row in c.entries for v in row)

    def _scales(self, monkeypatch, rows):
        """The coefficients umbral_compose scales p's rows by, in order."""
        seen, scale = [], Polynomial.scale

        def spy(poly, c):
            seen.append(c)
            return scale(poly, c)

        monkeypatch.setattr(Polynomial, "scale", spy)
        powers = generate_transfer(catalog("derivative"), len(rows))
        r = umbral_compose(rows, powers)
        got = [r[n] for n in range(len(rows))]
        return got, seen

    def test_umbral_rows_keep_fractions(self, monkeypatch):
        rows = [[Rat(1)], [Rat(0), Rat(-2, 3)], [Rat(0), Rat(5, 7), Rat(9)]]
        got, seen = self._scales(monkeypatch, rows)
        assert got == [Polynomial(row) for row in rows]
        given = [c for row in rows for c in row if c != 0]
        assert len(seen) == len(given) and all(a is b for a, b in zip(seen, given))

    @pytest.mark.parametrize("c", OTHER_NUMBERS)
    def test_umbral_rows_make_fractions(self, monkeypatch, c):
        got, seen = self._scales(monkeypatch, [[1], [0, c]])
        assert got[1] == Polynomial([0, Rat(c)])
        assert all(type(v) is Rat for v in seen)
        assert seen[-1] == Rat(c)


class TestAccessorRanges:
    def _matrix(self):
        fd = catalog("forward_difference", order=8)
        return connection_constants(catalog("backward_difference", order=8), fd, 3)

    @pytest.mark.parametrize("n", [-1, -4, 4, 9])
    def test_row_outside_the_matrix_is_refused(self, n):
        m = self._matrix()
        with pytest.raises(PreconditionError, match=rf"n = {n}\b.*size 4"):
            m.row(n)
        with pytest.raises(PreconditionError, match=rf"n = {n}\b.*size 4"):
            m.entry(n, 0)

    def test_entries_off_the_triangle_read_zero(self):
        m = self._matrix()
        assert m.entry(3, 3) == 1
        for k in (-1, 4, 7):
            assert m.entry(3, k) == 0
        assert m.entry(0, 1) == 0
        assert m.row(3) == m.entries[3]

    def test_empty_matrix_refuses_every_row(self):
        with pytest.raises(PreconditionError, match="size 0"):
            ConnectionMatrix([]).entry(0, 0)
