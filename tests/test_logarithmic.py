# Tests for harmonic logarithms: windowed coefficient algebra, the roman
# shift, logarithmic basic sequences with their Laurent tails, Newton
# expansion, and the numeric evaluation boundary. The window generators
# read coefficients of powers; the operator-action routes they replaced are
# kept here as oracles, and so is the dict-based window class that the
# reflected truncated series replaced.
import decimal
import operator
import re
import time
from decimal import Decimal
from fractions import Fraction as Rat
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import logarithmic, numbers, sequences, series
from umbra.errors import PreconditionError
from umbra.logarithmic import (
    NEG_INF,
    HarmonicLogSeries,
    LogBinomialSequence,
    apply_operator,
    augmentation,
    evaluate_numeric,
    harmonic_log,
    log_conjugate_sequence,
    log_lower_factorial,
    log_sequence,
    monomial_expansion,
    newton_expand,
    roman_shift,
    skip,
    tail_bound,
)
from umbra.numbers import (
    bernoulli,
    bernoulli_higher,
    roman_coefficient,
    roman_factorial,
    roman_number,
)
from umbra.operators import DELTA_NAMES, Polynomial, catalog
from umbra.sequences import taylor_expand
from umbra.series import (
    INF,
    TruncatedSeries,
    constant,
    exp_series,
    formal_derivative,
    from_coeffs,
    int_pow,
    monomial,
    mul,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda q: q != 0)


def harmonic_number(n):
    return sum(Rat(1, i) for i in range(1, n + 1))


class TestMonomialExpansion:
    def test_order_one_nonnegative(self):
        # [DERIVED] lambda_n^(1) = x^n (log x - H_n): differentiating
        # x^n (log x - H_n) gives n x^(n-1) (log x - H_(n-1)) by the
        # harmonic-number recurrence, and n = 0 gives log x.
        for n in range(0, 7):
            assert monomial_expansion(n, 1) == (
                {1: 1, 0: -harmonic_number(n)} if n else {1: 1}
            )

    def test_order_one_negative(self):
        # [DERIVED] lambda_(-m)^(1) = x^(-m) with no log factor: the
        # roman factorial (-1)^(m-1)/(m-1)! cancels the Stirling value
        # s(m, 1) = (-1)^(m-1) (m-1)!.
        for m in range(1, 8):
            assert monomial_expansion(-m, 1) == {0: 1}

    def test_order_zero_is_monomial(self):
        for n in range(0, 6):
            assert monomial_expansion(n, 0) == {0: 1}

    def test_order_two_samples(self):
        # [DERIVED] by hand from the closed form: lambda_0^(2) = (log x)^2,
        # lambda_1^(2) = x((log x)^2 - 2 log x + 2), and
        # lambda_(-1)^(2) = 2 log(x)/x.
        assert monomial_expansion(0, 2) == {2: 1}
        assert monomial_expansion(1, 2) == {2: 1, 1: -2, 0: 2}
        assert monomial_expansion(-1, 2) == {1: 2}


class TestWindowAlgebra:
    def test_construction_drops_zero_and_below_floor(self):
        s = HarmonicLogSeries({2: 1, 0: 0, -3: 5}, floor=-2)
        assert s.coeffs == {2: Rat(1)}
        assert s.floor == -2
        assert s.top == 2

    def test_order_zero_drops_negative_degrees(self):
        s = HarmonicLogSeries({1: 2, -1: 7}, floor=-4, order_t=0)
        assert s.coeffs == {1: Rat(2)}
        assert s.floor == NEG_INF

    def test_empty_window_top(self):
        s = HarmonicLogSeries({}, floor=3)
        assert s.is_empty
        assert s.top == 2

    def test_coefficient_below_floor_raises(self):
        s = HarmonicLogSeries({0: 1}, floor=-2)
        assert s.coefficient(-2) == 0
        with pytest.raises(PreconditionError, match="below window floor"):
            s.coefficient(-3)

    def test_truncate_floor_only_rises(self):
        s = HarmonicLogSeries({1: 1, -1: 2}, floor=-3)
        t = s.truncate_floor(-1)
        assert t.coeffs == {1: Rat(1), -1: Rat(2)}
        assert t.floor == -1
        with pytest.raises(PreconditionError, match="truncation too small"):
            s.truncate_floor(-5)

    def test_truncate_floor_refuses_an_exact_floor_under_a_window(self):
        # a floor of -infinity would claim every degree below the window is
        # zero; it is only a no-op on a window that is already exact
        s = log_sequence(catalog("forward_difference"), -1, 4)
        with pytest.raises(PreconditionError, match="truncation too small"):
            s.truncate_floor(NEG_INF)
        assert harmonic_log(2).truncate_floor(NEG_INF) == harmonic_log(2)

    def test_add_same_order(self):
        a = HarmonicLogSeries({1: 1, 0: 2}, floor=-2)
        b = HarmonicLogSeries({0: -2, -1: 3}, floor=-1)
        c = a + b
        assert c.coeffs == {1: Rat(1), -1: Rat(3)}
        assert c.floor == -1

    def test_add_different_orders_raises(self):
        with pytest.raises(PreconditionError, match="different orders"):
            harmonic_log(0, 1) + harmonic_log(0, 2)

    def test_scale_zero_gives_exact_zero(self):
        s = HarmonicLogSeries({1: 1}, floor=-5)
        z = s.scale(0)
        assert z.is_empty and z.is_exact

    def test_agrees_with_respects_windows(self):
        deep = HarmonicLogSeries({0: 1, -1: 2, -2: 3}, floor=-2)
        shallow = HarmonicLogSeries({0: 1, -1: 2}, floor=-1)
        other = HarmonicLogSeries({0: 1, -1: 5}, floor=-1)
        assert deep.agrees_with(shallow)
        assert not deep.agrees_with(other)

    def test_skip_relabels_order(self):
        s = HarmonicLogSeries({1: 2, -1: 3}, floor=-4)
        up = skip(s, 2)
        assert up.order_t == 2 and up.coeffs == s.coeffs
        down = skip(s, 0)
        # moving to order zero forgets the negative-degree tail entirely
        assert down.coeffs == {1: Rat(2)}
        assert down.is_exact


class TestDerivativeAction:
    def test_derivative_lowers_degree_by_roman_number(self):
        # [DERIVED] d/dx of x^n (log x - H_n) is n x^(n-1) (log x - H_(n-1))
        # for n >= 1, 1/x for n = 0, and -m x^(-m-1) for degree -m; all
        # three cases read D lambda_n = roman(n) lambda_(n-1).
        D = catalog("derivative")
        for n in range(-5, 6):
            img = apply_operator(D, harmonic_log(n, 1))
            assert img == harmonic_log(n - 1, 1).scale(roman_number(n))

    def test_repeated_derivative_roman_ratio(self):
        D = catalog("derivative")
        for n in range(-4, 5):
            s = harmonic_log(n, 1)
            for k in range(1, 5):
                s = apply_operator(D, s)
                want = roman_factorial(n) / roman_factorial(n - k)
                assert s == harmonic_log(n - k, 1).scale(want)

    def test_one_term_action_skips_the_dense_kernel(self, monkeypatch):
        # D on L_3: one term times one term, multiplied term by term
        calls = []
        monkeypatch.setattr(series, "_dense", lambda *args: calls.append(args))
        image = apply_operator(catalog("derivative"), harmonic_log(3))
        assert image.coeffs == {2: 3} and calls == []

    def test_exact_operator_preserves_exactness(self):
        img = apply_operator(catalog("derivative"), harmonic_log(3, 2))
        assert img.is_exact

    def test_nothing_annihilated_at_positive_order(self):
        D = catalog("derivative")
        for t in (1, 2):
            img = apply_operator(D, harmonic_log(0, t))
            assert not img.is_empty


class TestWindowRules:
    def test_finite_order_operator_sets_floor(self):
        # an order-N series in D determines N coefficients below the top
        fd = catalog("forward_difference", order=6)
        img = apply_operator(fd, harmonic_log(2, 1))
        assert img.top == 1
        assert img.floor == 2 - 6 + 1

    def test_floor_shifts_by_valuation(self):
        s = HarmonicLogSeries({0: 1}, floor=-3)
        img = apply_operator(monomial(2), s)  # the operator D^2
        assert img.floor == -5
        assert img.top == -2

    def test_floor_combines_both_limits(self):
        s = HarmonicLogSeries({0: 1}, floor=-10)
        fd = catalog("forward_difference", order=4)
        img = apply_operator(fd, s)
        # tail limit 0 - 4 + 1 = -3 dominates the floor limit -11
        assert img.floor == -3


class TestRomanShift:
    def test_shift_raises_degree(self):
        for n in (-4, -2, 0, 1, 3):
            assert roman_shift(harmonic_log(n, 1)) == harmonic_log(n + 1, 1)

    def test_shift_annihilates_degree_minus_one(self):
        img = roman_shift(harmonic_log(-1, 1))
        assert img.is_empty and img.is_exact

    def test_commutator_with_derivative_is_identity(self):
        # [DERIVED] D sigma - sigma D = 1 on every basis element: both
        # sides evaluated on lambda_n give roman(n+1) resp. roman(n)
        # copies of lambda_n, and roman(n+1) - roman(n) is 1 except at
        # n = -1, 0 where the annihilation resp. roman(0) = 1 adjust it.
        D = catalog("derivative")
        for t in (1, 2):
            for n in range(-6, 7):
                s = harmonic_log(n, t)
                lhs = apply_operator(D, roman_shift(s)) - roman_shift(
                    apply_operator(D, s)
                )
                assert lhs == s

    def test_commutator_with_higher_powers(self):
        # [DERIVED] D^k sigma - sigma D^k = k D^(k-1), the Pincherle
        # derivative of D^k seen on the logarithmic basis.
        for k in range(1, 5):
            Dk = monomial(k)
            Dk1 = monomial(k - 1, Rat(k))
            for n in range(-5, 6):
                s = harmonic_log(n, 1)
                lhs = apply_operator(Dk, roman_shift(s)) - roman_shift(
                    apply_operator(Dk, s)
                )
                assert lhs == apply_operator(Dk1, s)

    def test_shift_floor_bookkeeping(self):
        s = HarmonicLogSeries({1: 1}, floor=-2)
        assert roman_shift(s).floor == -1
        # a floor at zero stays at zero: the only source of degree zero
        # is the annihilated degree -1
        s0 = HarmonicLogSeries({1: 1}, floor=0)
        assert roman_shift(s0).floor == 0


class TestLogBinomialTheorem:
    @given(a=rationals, n=st.integers(min_value=-4, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_shift_expands_with_roman_coefficients(self, a, n):
        # the binomial theorem for harmonic logarithms:
        # E^a lambda_n = sum_k roman(n|k) a^k lambda_(n-k)
        E = catalog("shift", {"a": a}, order=12)
        img = apply_operator(E, harmonic_log(n, 1))
        for k in range(0, 12):
            assert img.coefficient(n - k) == roman_coefficient(n, k) * a**k

    def test_degree_zero_shift_is_log_of_ratio(self):
        # [DERIVED] E^1 log x = log(x + 1) = log x + sum (-1)^(k+1)/k x^-k
        E = catalog("shift", {"a": 1}, order=10)
        img = apply_operator(E, harmonic_log(0, 1))
        assert img.coefficient(0) == 1
        for k in range(1, 10):
            assert img.coefficient(-k) == Rat((-1) ** (k + 1), k)


class TestAugmentation:
    def test_augmentation_picks_degree_zero(self):
        s = HarmonicLogSeries({2: 5, 0: 7, -1: 3}, floor=-2)
        assert augmentation(s) == 7

    def test_augmentation_other_order_is_zero(self):
        assert augmentation(harmonic_log(0, 1), t=2) == 0

    def test_augmentation_outside_window_raises(self):
        s = HarmonicLogSeries({3: 1}, floor=2)
        with pytest.raises(PreconditionError, match="augmentation outside window"):
            augmentation(s)


class TestLogSequences:
    def test_derivative_sequence_is_basis(self):
        for n in (-3, 0, 2):
            s = log_sequence(catalog("derivative"), n, depth=6)
            assert s.coeffs == {n: Rat(1)}
            assert s.floor == n - 5

    def test_recurrence_forward_difference(self):
        # defining property: FD p_n = roman(n) p_(n-1) on the window overlap
        fd = catalog("forward_difference", order=24)
        seq = LogBinomialSequence(fd, depth=10)
        for n in range(-3, 5):
            img = apply_operator(fd, seq[n])
            assert img.agrees_with(seq[n - 1].scale(roman_number(n)))

    def test_recurrence_abel(self):
        ab = catalog("abel", {"b": Rat(1, 2)}, order=24)
        seq = LogBinomialSequence(ab, depth=8)
        for n in range(-2, 4):
            img = apply_operator(ab, seq[n])
            assert img.agrees_with(seq[n - 1].scale(roman_number(n)))

    def test_augmentation_is_kronecker_delta(self):
        fd = catalog("forward_difference", order=24)
        for n in range(-3, 5):
            assert augmentation(log_sequence(fd, n, depth=10)) == (
                1 if n == 0 else 0
            )

    def test_positive_part_matches_classical_polynomials(self):
        # for n >= 0 the coefficients in degrees 0..n are the classical
        # falling-factorial coefficients (Stirling numbers of the first kind)
        from umbra.numbers import stirling_first

        fd = catalog("forward_difference", order=20)
        for n in range(0, 5):
            s = log_sequence(fd, n, depth=8)
            for k in range(0, n + 1):
                assert s.coefficient(k) == stirling_first(n, k)

    def test_lower_factorial_degree_three_window(self):
        # [DERIVED] frozen window: the classical polynomial x^3 - 3x^2 + 2x
        # continues into an infinite Laurent tail
        s = log_lower_factorial(3, depth=10)
        assert s.coefficient(3) == 1
        assert s.coefficient(2) == -3
        assert s.coefficient(1) == 2
        assert s.coefficient(0) == 0
        assert s.coefficient(-1) == Rat(-19, 120)
        assert s.coefficient(-2) == Rat(-1, 40)
        assert s.coefficient(-3) == Rat(4, 315)
        assert s.coefficient(-4) == Rat(1, 84)
        assert s.coefficient(-5) == Rat(-19, 5040)
        assert s.coefficient(-6) == Rat(-1, 80)

    def test_degree_zero_is_digamma_series(self):
        # [DERIVED] the degree-0 term has the asymptotic expansion of the
        # digamma function at x + 1: log x + 1/(2x) - sum B_2k/(2k x^2k)
        s = log_lower_factorial(0, depth=16)
        assert s.coefficient(0) == 1
        assert s.coefficient(-1) == Rat(1, 2)
        for k in range(1, 8):
            assert s.coefficient(-2 * k) == -bernoulli(2 * k) / (2 * k)
        for k in range(2, 8):
            assert s.coefficient(-(2 * k - 1)) == 0

    def test_residual_forward_difference_is_geometric(self):
        # [DERIVED] (x)_(-1) = 1/(x + 1) = sum (-1)^k x^(-1-k)
        s = log_sequence(catalog("forward_difference", order=20), -1, depth=10)
        for k in range(0, 10):
            assert s.coefficient(-1 - k) == (-1) ** k

    def test_residual_backward_difference_is_all_ones(self):
        # [DERIVED] the backward-difference residual is E^(-1) x^(-1)
        # = 1/(x - 1) = sum x^(-1-k)
        bd = catalog("backward_difference", order=20)
        s = log_sequence(bd, -1, depth=10)
        for k in range(0, 10):
            assert s.coefficient(-1 - k) == 1

    def test_lower_factorial_degree_minus_two(self):
        # [DERIVED] partial fractions of 1/((x+1)(x+2)) give coefficients
        # (-1)^k (2^(k+1) - 1) at degree -2-k
        s = log_lower_factorial(-2, depth=8)
        for k in range(0, 8):
            assert s.coefficient(-2 - k) == (-1) ** k * (2 ** (k + 1) - 1)

    def test_bernoulli_route_matches_transfer(self):
        # (D/(e^D - 1))^(n+1) = sum_k B_{k,n+1} D^k / k!, so the transfer
        # operator E (D/(e^D - 1))^(n+1) of the forward difference can be
        # built from higher-order Bernoulli numbers instead of a reciprocal
        # power of (e^D - 1)/D
        depth = 16
        for n in range(0, 8):
            result = log_lower_factorial(n, depth)
            order = depth + n + 2
            bern = TruncatedSeries(
                {k: Rat(bernoulli_higher(k, n + 1), factorial(k)) for k in range(order)},
                order,
            )
            shift = exp_series(monomial(1, 1), order=order)
            alt = apply_operator(mul(shift, bern), harmonic_log(n, 1))
            assert alt.floor <= result.floor
            assert alt.truncate_floor(result.floor) == result, n

    @pytest.mark.parametrize("depth", [0, -3])
    def test_nonpositive_depth_raises(self, depth):
        fd = catalog("forward_difference", order=12)
        with pytest.raises(PreconditionError, match=f"depth >= 1, got {depth}"):
            log_sequence(fd, 0, depth)

    @pytest.mark.parametrize("depth", [0, -2])
    def test_nonpositive_depth_raises_everywhere(self, depth):
        # the log conjugate and Newton windows refuse it as log_sequence
        # does, instead of an empty window with its floor above its top
        fd = catalog("forward_difference", order=24)
        with pytest.raises(PreconditionError, match=f"log_conjugate_sequence needs depth >= 1, got {depth}"):
            log_conjugate_sequence(fd, 3, depth)
        with pytest.raises(PreconditionError, match=f"newton_expand needs depth >= 1, got {depth}"):
            newton_expand(harmonic_log(-1), depth)

    def test_sequence_caches_terms(self):
        seq = LogBinomialSequence(catalog("forward_difference", order=20), depth=6)
        a = seq[2]
        assert seq[2] is a

    def test_sequence_terms_are_log_sequence_windows(self):
        for op in (catalog("forward_difference", order=12), catalog("abel", {"b": Rat(2, 7)}, order=9)):
            d = op.series.order - 1
            seq = LogBinomialSequence(op, d)
            assert seq[-4] == log_sequence(op, -4, d)  # a negative degree first
            assert seq.terms(6) == [log_sequence(op, n, d) for n in range(7)]

    def test_sequence_refuses_what_log_sequence_refuses_at_construction(self):
        fd = catalog("forward_difference", order=10)
        with pytest.raises(PreconditionError, match="log_sequence needs depth >= 1, got 0"):
            LogBinomialSequence(fd, depth=0)
        with pytest.raises(PreconditionError, match="depth 12 needs order 13, given 10") as err:
            LogBinomialSequence(fd, depth=12)
        assert (err.value.needed, err.value.available) == (13, 10)
        assert LogBinomialSequence(fd, depth=9)[-3] == log_sequence(fd, -3, 9)

    def test_non_delta_rejected(self):
        with pytest.raises(PreconditionError, match="not a delta series"):
            log_sequence(catalog("weierstrass", order=10), 0)
        with pytest.raises(PreconditionError, match="not a delta series"):
            LogBinomialSequence(catalog("shift", {"a": 1}, order=10))

    def test_window_exhaustion_raises(self):
        fd = catalog("forward_difference", order=6)
        with pytest.raises(PreconditionError, match="truncation too small"):
            log_sequence(fd, 0, depth=12)


class TestAbelLogSequence:
    def test_degree_zero_terminates(self):
        # [DERIVED] transfer f'(f/t)^(-1) = (1 + bD): the degree-0 term is
        # exactly log x + b/x with a window of known zeros below
        ab = catalog("abel", {"b": Rat(2)}, order=24)
        s = log_sequence(ab, 0, depth=8)
        assert s.coefficient(0) == 1
        assert s.coefficient(-1) == 2
        for d in range(-2, -8, -1):
            assert s.coefficient(d) == 0

    def test_degree_one_tail(self):
        # [DERIVED] A_1 = lambda_1 - sum_(j>=2) (b^j / j) lambda_(1-j)
        b = Rat(2)
        s = log_sequence(catalog("abel", {"b": b}, order=24), 1, depth=8)
        assert s.coefficient(1) == 1
        assert s.coefficient(0) == 0
        for j in range(2, 8):
            assert s.coefficient(1 - j) == -(b**j) / j

    def test_negative_degrees_closed_form(self):
        # [DERIVED] A_(-k)(x) = x / (x + kb)^(k+1), whose expansion has
        # coefficient C(j+k, k) (-kb)^j at degree -k-j
        b = Rat(2)
        ab = catalog("abel", {"b": b}, order=28)
        for k in (1, 2, 3):
            s = log_sequence(ab, -k, depth=8)
            for j in range(0, 7):
                assert s.coefficient(-k - j) == comb(j + k, k) * (-k * b) ** j


class TestLaguerreLogSequence:
    def test_degree_zero_factorial_tail(self):
        # [DERIVED] L_0 = log x + sum_(j>=1) (-1)^(j-1) (j-1)! x^(-j):
        # the tail grows factorially, the signature of a divergent
        # asymptotic expansion
        s = log_sequence(catalog("laguerre", order=24), 0, depth=9)
        assert s.coefficient(0) == 1
        for j in range(1, 9):
            assert s.coefficient(-j) == (-1) ** (j - 1) * factorial(j - 1)


class TestGoldenIdentity:
    def test_inverse_difference_residues(self):
        # [DERIVED] <FD^(-m) x^(-1)> = (-1)^(m+1)
        fd = catalog("forward_difference", order=24)
        lam = harmonic_log(-1, 1)
        for m in range(1, 8):
            img = apply_operator(int_pow(fd.series, -m), lam)
            assert augmentation(img) == (-1) ** (m + 1)

    def test_newton_coefficients_of_inverse_x(self):
        # [DERIVED] 1/x = sum_(m>=1) (m-1)! (x)_(-m): Newton coefficients
        # a_(-m) = (m-1)!
        coeffs = newton_expand(harmonic_log(-1, 1), depth=8)
        for m in range(1, 9):
            assert coeffs[-m] == factorial(m - 1)

    def test_resummation_telescopes(self):
        # [DERIVED] with (x)_(-m) = 1/((x+1)...(x+m)) the partial sums of
        # sum (m-1)! (x)_(-m) telescope to 1/x - M!/(x (x+1)...(x+M))
        x = Rat(2)
        total = Rat(0)
        for m in range(1, 13):
            term = Rat(factorial(m - 1))
            for i in range(1, m + 1):
                term /= x + i
            total += term
        remainder = Rat(factorial(12))
        for i in range(1, 13):
            remainder /= x + i
        assert total == 1 / x - remainder / x

    def test_newton_reconstructs_window(self):
        # resumming the Newton coefficients against the lower factorial
        # windows reproduces 1/x through 12 inverse powers
        depth = 12
        coeffs = newton_expand(harmonic_log(-1, 1), depth=depth)
        acc = HarmonicLogSeries({}, floor=-depth, order_t=1)
        for m in range(1, depth + 1):
            acc = acc + log_lower_factorial(-m, depth=depth).truncate_floor(
                -depth
            ).scale(coeffs[-m])
        assert acc.agrees_with(harmonic_log(-1, 1).truncate_floor(-depth))


class TestLogConjugate:
    def test_conjugate_of_forward_difference(self):
        # [DERIVED] expanding x^(-1) over the conjugate ladder of FD gives
        # the same (m-1)! ladder as the Newton expansion
        fd = catalog("forward_difference", order=30)
        s = log_conjugate_sequence(fd, -1, depth=6)
        for m in range(1, 7):
            assert s.coefficient(-m) == factorial(m - 1)


class TestNumericBoundary:
    def test_pure_power_evaluates_exactly(self):
        v = evaluate_numeric(harmonic_log(-2, 1), Rat(1, 4), 20)
        assert v == Decimal(16)

    def test_log_at_one_vanishes(self):
        assert evaluate_numeric(harmonic_log(0, 1), 1, 20) == 0

    def test_at_one_only_the_log_free_term_survives(self):
        # at x = 1 every (log x)^i with i >= 1 vanishes and (log x)^0 is 1
        for t in range(3):
            for n in range(-4, 5):
                want = Rat(monomial_expansion(n, t).get(0, 0))
                got = evaluate_numeric(harmonic_log(n, t), 1)
                assert got == Decimal(want.numerator) / Decimal(want.denominator), (n, t)

    def test_order_two_element(self):
        # lambda_(-1)^(2) = 2 log(x)/x
        import decimal

        x = Rat(5)
        v = evaluate_numeric(harmonic_log(-1, 2), x, 25)
        with decimal.localcontext() as ctx:
            ctx.prec = 30
            want = 2 * Decimal(5).ln() / 5
        assert abs(v - want) < Decimal("1e-24")

    def test_digamma_value(self):
        # [DERIVED] psi(11) = 2.35175258906672110764745616389 (independent
        # high-precision digamma evaluation); the depth-20 window at x = 10
        # agrees to its tail bound of about 1.6e-20
        s = log_lower_factorial(0, depth=20)
        v = evaluate_numeric(s, 10, 25)
        ref = Decimal("2.35175258906672110764745616389")
        assert abs(v - ref) < Decimal("1e-18")

    def test_windowed_recurrence_numerically(self):
        # FD p_1 evaluated from the window equals p_0 evaluated from its
        # window, far below the size of either tail
        p0 = log_lower_factorial(0, depth=16)
        p1 = log_lower_factorial(1, depth=16)
        v = evaluate_numeric(p1, 21, 30) - evaluate_numeric(p1, 20, 30)
        w = evaluate_numeric(p0, 20, 30)
        assert abs(v - w) < Decimal("1e-15")

    def test_residual_value_within_tail_bound(self):
        # (x)_(-1) = 1/(x+1): the window evaluation at x = 10 differs from
        # 1/11 by less than the reported geometric tail bound
        s = log_sequence(catalog("forward_difference", order=24), -1, depth=12)
        x = Rat(10)
        v = evaluate_numeric(s, x, 25)
        truth = Decimal(1) / Decimal(11)
        bound = tail_bound(s, x, 25)
        assert bound is not None and bound > 0
        assert abs(v - truth) <= bound

    def test_tail_bound_exact_series_is_zero(self):
        assert tail_bound(harmonic_log(2, 1), 3) == Decimal(0)

    def test_tail_bound_refuses_divergent_point(self):
        # the Laguerre tail grows factorially; inside its growth radius no
        # geometric continuation is safe
        s = log_sequence(catalog("laguerre", order=24), 0, depth=12)
        assert tail_bound(s, 5) is None
        assert tail_bound(s, 100) is not None

    def test_underflow_is_refused(self):
        # 10^(-2000000) is below the decimal range: refused, not summed as 0
        with pytest.raises(PreconditionError, match="degree -2000000 at x0 = 10 underflows"):
            evaluate_numeric(harmonic_log(-2 * 10**6), 10)
        s = HarmonicLogSeries({-2 * 10**6: 1, -2 * 10**6 + 1: 1}, -2 * 10**6)
        with pytest.raises(PreconditionError, match="floor -2000000 at x0 = 10 underflows"):
            tail_bound(s, 10)
        # the floor's term is in range, but head * q / (1 - q) falls below it
        s = HarmonicLogSeries({-999999: 1, -999998: 1}, -999999)
        assert evaluate_numeric(s, 10) == Decimal("1.1E-999998")
        with pytest.raises(PreconditionError, match="floor -999999 at x0 = 10 underflows"):
            tail_bound(s, 10)
        # a tiny value inside the range is still a value
        assert evaluate_numeric(harmonic_log(-900000), 10, 5) == Decimal("1E-900000")

    def test_overflow_in_the_final_rounding_is_refused(self):
        # 9.99999999999 * 10^999999 is in range at the working 15 digits, but
        # rounds to 1.0000E+1000000 at 5, past the decimal range
        s = HarmonicLogSeries({999999: Rat(10**12 - 1, 10**11)}, NEG_INF, 0)
        with pytest.raises(PreconditionError, match="degree 999999 at x0 = 10 overflows"):
            evaluate_numeric(s, 10, 5)
        assert evaluate_numeric(s, 10, 12) == Decimal("9.99999999999E+999999")

    @pytest.mark.parametrize("precision", [0, -3, 2.5, "28", None])
    def test_precision_must_be_a_positive_integer(self, precision):
        s = log_sequence(catalog("forward_difference", order=5), -1, 3)
        for call, window in ((evaluate_numeric, s), (tail_bound, s), (tail_bound, harmonic_log(2))):
            with pytest.raises(PreconditionError, match=f"precision must be a positive integer, "
                                                        f"got {re.escape(repr(precision))}"):
                call(window, 2, precision)

    def test_a_deep_positive_degree_reads_its_harmonic_number(self):
        # H_n = log n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4) - ..., the
        # next term below 10^(-26) at n = 10^4
        n = 10**4
        start = time.perf_counter()
        m = monomial_expansion(n, 1)
        assert time.perf_counter() - start < 1
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            gamma = Decimal("0.5772156649015328606065120900824024310422")
            h = Decimal(n).ln() + gamma + Decimal(1) / (2 * n) - Decimal(1) / (12 * n**2) \
                + Decimal(1) / (120 * n**4)
            got = Decimal(-m[0].numerator) / Decimal(m[0].denominator)
        assert list(m) == [1, 0] and m[1] == 1
        assert abs(got - h) < Decimal("1e-25")

    def test_nonpositive_point_rejected(self):
        with pytest.raises(PreconditionError, match="requires x0 > 0"):
            evaluate_numeric(harmonic_log(0, 1), 0)
        with pytest.raises(PreconditionError, match="requires x0 > 0"):
            tail_bound(harmonic_log(0, 1), Rat(-3))


# -- the operator-action routes, kept as oracles ---------------------------


def _action_oracle(T, s):
    """apply_operator by the double loop over window and operator terms,
    with the window rule stated by hand rather than read off a product."""
    ts = getattr(T, "series", T)
    out = {}
    for j, c in s.coeffs.items():
        rj = roman_factorial(j)
        for k, a in ts.coeffs.items():
            d = j - k
            out[d] = out.get(d, Rat(0)) + c * a * rj / roman_factorial(d)
    if ts.is_zero and ts.order == INF:
        return type(s)({}, NEG_INF, s.order_t)
    # infinite orders and floors carry through as -infinity
    new_floor = max(s.floor - ts.valuation, s.top - ts.order + 1)
    return type(s)(out, new_floor, s.order_t)


def _transfer_oracle(f, n, depth):
    """log_sequence by applying f'(D) (f/D)^(-n-1) to lambda_n at the
    operator's full order, then cutting to the window."""
    fs = getattr(f, "series", f)
    transfer = mul(formal_derivative(fs), int_pow(mul(fs, monomial(-1)), -n - 1))
    s = _action_oracle(transfer, harmonic_log(n, 1))
    target = n - depth + 1
    if s.floor != NEG_INF and s.floor > target:
        raise PreconditionError("truncation too small for exact action")
    return s.truncate_floor(target)


def _fprime_read(f, n, depth):
    """log_sequence as it read every degree before the one-row read: f'
    times row -(n+1) of the power table of f/t, in one integer product."""
    fs = logarithmic._known_to(f, depth + 1, depth)
    row, rd = series._unit_powers(fs, {-n - 1: depth})[-n - 1]
    fprime, fd = series._dense([k * fs.coefficient(k) for k in range(1, depth + 1)])
    transfer = series._mul_trunc(fprime, row, depth)
    window = {k - n: Rat(r * x, fd * rd)
              for k, (r, x) in enumerate(zip(numbers._falling(n, range(depth)), transfer))}
    return logarithmic._window(TruncatedSeries(window, depth - n), 1)


def _per_degree_oracle(T, s, ks):
    """<T^k s> / roman(k)! for k in ks: one int_pow, one operator action
    and one augmentation per degree."""
    out = {}
    for k in ks:
        image = _action_oracle(int_pow(T, k), s)
        if image.floor != NEG_INF and image.floor > 0:
            raise PreconditionError("truncation too small for exact action")
        out[k] = augmentation(image) / roman_factorial(k)
    return out


def _log_conjugate_oracle(g, n, depth):
    g = getattr(g, "series", g)
    out = _per_degree_oracle(g, harmonic_log(n, 1), range(n, n - depth, -1))
    return HarmonicLogSeries(out, n - depth + 1, 1)


def _newton_oracle(s, depth):
    if s.is_empty:
        return {}
    top = s.top
    fd = exp_series(monomial(1, 1), order=2 * depth + abs(top) + 6) - constant(1)
    return _per_degree_oracle(fd, s, range(top, top - depth, -1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as err:
        assert "truncation too small" in str(err)
        return "refused"


@st.composite
def delta_operators(draw):
    """A catalog delta operator at order 2..24 (the derivative is exact);
    abel gets a random rational b."""
    name = draw(st.sampled_from(DELTA_NAMES))
    params = {"b": draw(rationals)} if name == "abel" else {}
    return catalog(name, params, order=draw(st.integers(2, 24)))


@st.composite
def log_windows(draw, tops=st.integers(-8, 8)):
    """A window of order 1 or 2 with its top drawn from ``tops``, exact or
    with a floor up to 14 degrees below the top."""
    top = draw(tops)
    lo = top - draw(st.integers(0, 14))
    coeffs = {d: draw(st.fractions(-9, 9, max_denominator=5)) for d in range(lo, top)}
    coeffs[top] = draw(rationals)
    floor = draw(st.sampled_from([NEG_INF, lo]))
    return HarmonicLogSeries(coeffs, floor, draw(st.sampled_from([1, 2])))


degrees = st.integers(-8, 8)
depths = st.integers(1, 12)


@st.composite
def laurent_operators(draw):
    """A series in D of valuation -3..4 with up to six terms (zeros among
    them), exact or truncated just past its terms or further; a zero
    series when it has no terms."""
    val = draw(st.integers(-3, 4))
    n = draw(st.integers(0, 6))
    order = draw(st.just(INF) | st.integers(val + n, val + n + 3))
    return TruncatedSeries({val + i: draw(st.fractions(-4, 4, max_denominator=6))
                            for i in range(n)}, order)


# windows of order 0, 1 or 2: exact, with a floor, or empty
action_windows = st.one_of(
    log_windows(),
    log_windows().map(lambda s: skip(s, 0)),
    st.builds(HarmonicLogSeries, st.just({}), st.sampled_from([NEG_INF, -3, 0, 4]),
              st.sampled_from([0, 1, 2])),
)


class TestActionMatchesDoubleLoop:
    @given(T=laurent_operators(), s=action_windows)
    @settings(max_examples=120, deadline=None)
    def test_apply_operator(self, T, s):
        assert apply_operator(T, s) == _action_oracle(T, s)

    @given(T=laurent_operators(), s=log_windows(tops=st.integers(-300, 300)),
           far=st.integers(-300, 300), c=rationals)
    @settings(max_examples=60, deadline=None)
    def test_apply_operator_far_from_degree_zero(self, T, s, far, c):
        # high tops, and a lone degree far from the rest of the window
        s = s + harmonic_log(far, s.order_t).scale(c)
        assert apply_operator(T, s) == _action_oracle(T, s)

    def test_a_deep_degree_acts_without_factorials(self):
        # roman(10^5)! has about 456,000 digits; the action needs roman(10^5)
        start = time.perf_counter()
        image = apply_operator(catalog("derivative"), harmonic_log(10**5))
        assert time.perf_counter() - start < 0.05
        assert image == harmonic_log(10**5 - 1).scale(10**5)

    def test_degrees_far_apart_take_no_long_loop(self):
        # the scale of degree -n is a product of 2n roman numbers: about 0.3 s
        # by math.perm, more than 3 s multiplied one factor at a time
        n = 5 * 10**4
        start = time.perf_counter()
        image = apply_operator(catalog("derivative"), harmonic_log(n) + harmonic_log(-n))
        assert time.perf_counter() - start < 2
        assert image.coeffs == {n - 1: n, -n - 1: -n}

    def test_catalog_operators_on_sequence_windows(self):
        s = log_sequence(catalog("laguerre", order=14), -2, 10)
        for name in ("forward_difference", "abel", "shift", "weierstrass", "bernoulli_op"):
            for order in (2, 4, 9, 14):
                T = catalog(name, {"a": Rat(7, 2), "b": Rat(17, 29)}, order=order)
                assert apply_operator(T, s) == _action_oracle(T, s), (name, order)


class TestReadsMatchOperatorActions:
    @given(op=delta_operators(), n=degrees, depth=depths)
    @settings(max_examples=80, deadline=None)
    def test_log_sequence(self, op, n, depth):
        assert _outcome(log_sequence, op, n, depth) == _outcome(_transfer_oracle, op, n, depth)

    @given(op=delta_operators(), n=degrees, depth=depths)
    @settings(max_examples=80, deadline=None)
    def test_log_conjugate_sequence(self, op, n, depth):
        assert _outcome(log_conjugate_sequence, op, n, depth) == _outcome(
            _log_conjugate_oracle, op, n, depth
        )

    @given(s=log_windows(), depth=depths)
    @settings(max_examples=60, deadline=None)
    def test_newton_expand(self, s, depth):
        assert _outcome(newton_expand, s, depth) == _outcome(_newton_oracle, s, depth)

    def test_lower_factorials(self):
        fd = catalog("forward_difference", order=40)
        for n in range(-8, 9):
            assert log_lower_factorial(n, 14) == _transfer_oracle(fd, n, 14), n

    def test_exact_polynomial_delta(self):
        # an exact D + D^2 is read at the order the window needs (the
        # operator route needs an explicit order for its reciprocal); the
        # windows equal the oracle's on the series known 8 orders further
        exact = monomial(1) + monomial(2)
        cut = exact.truncate(8 + 9)
        for n in range(-5, 6):
            assert log_sequence(exact, n, 8) == _transfer_oracle(cut, n, 8), n
            assert log_conjugate_sequence(exact, n, 8) == _log_conjugate_oracle(cut, n, 8), n

    def test_no_operator_action_on_the_read_path(self, monkeypatch):
        calls = []

        def count(owner, attr, name):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        for name in ("apply_operator", "augmentation", "_unit_powers"):
            count(logarithmic, name, name)
        # newton_expand reaches the table through the expansion read
        count(sequences, "_unit_powers", "_unit_powers")
        # the series product is counted wherever it is reached from
        for name in ("int_pow", "mul", "formal_derivative"):
            count(series, name, name)
        for attr in ("__mul__", "__rmul__"):
            count(TruncatedSeries, attr, "mul")
        fd = catalog("forward_difference", order=24)
        window = log_sequence(fd, -1, 12)
        log_conjugate_sequence(fd, 3, 12)
        log_conjugate_sequence(fd, -3, 12)
        newton_expand(window, 12)
        log_lower_factorial(2, 12)
        # one read of the power table per window, nothing per degree and
        # no series product
        assert calls == ["_unit_powers"] * 5


@st.composite
def unit_parts(draw):
    """u_0, u_1, ... of u = f/t for a delta series f, with rational
    u_0 != 0, 1, -1, so that every power of u has rows of real height."""
    u = [draw(rationals.filter(lambda q: abs(q) != 1))]
    return u + draw(st.lists(st.fractions(-9, 9, max_denominator=7), max_size=33))


class TestOneRowRead:
    """Degree n != 0 reads row -n of the power table of f/t alone; the f'
    product it replaced is the oracle."""

    @given(u=unit_parts(), n=st.just(0) | st.integers(-40, 40), depth=st.integers(1, 30),
           known=st.none() | st.integers(-2, 4))
    @settings(max_examples=300, deadline=None)
    def test_log_sequence_matches_the_fprime_product(self, u, n, depth, known):
        # f exact, or known to depth + 1 (the least the window needs), a
        # little further, or short of it and refused
        order = INF if known is None else max(depth + 1 + known, 2)
        f = TruncatedSeries(dict(enumerate(u, 1)), order)
        assert _outcome(log_sequence, f, n, depth) == _outcome(_fprime_read, f, n, depth)

    def test_catalog_windows(self):
        for name in DELTA_NAMES:
            op = catalog(name, {"b": Rat(17, 29)}, order=25)
            for n in range(-25, 25):
                assert log_sequence(op, n, 24) == _fprime_read(op.series, n, 24), (name, n)


class TestKeptRows:
    """A window of a forward difference reads its row off the rows its
    series keeps, or steps it down from the nearest kept row above it. The
    series are fresh copies of the catalog's, so no earlier test has left
    rows on them."""

    def test_windows_in_increasing_degree_run_one_miller_pass_a_side(self, monkeypatch):
        depth, degrees = 24, range(-30, 31)

        def fresh(name):
            s = catalog(name, {"b": Rat(13, 17)} if name == "abel" else {}, order=depth + 1).series
            return TruncatedSeries(s.coeffs, s.order)

        sides, power_row = [], series._power_row

        def counted(u, ud, k, w):
            sides.append((k > 0) - (k < 0))
            return power_row(u, ud, k, w)

        monkeypatch.setattr(series, "_power_row", counted)
        fd = fresh("forward_difference")
        windows = [log_sequence(fd, n, depth) for n in degrees]
        assert sides.count(1) <= 1 and sides.count(-1) <= 1, sides
        sides.clear()
        assert [log_sequence(fd, n, depth) for n in degrees] == windows
        for name in ("abel", "laguerre"):
            g = fresh(name)
            for n in degrees:
                log_sequence(g, n, depth)
        assert sides == []
        monkeypatch.undo()
        for n, window in zip(degrees, windows):
            assert window == _fprime_read(fresh("forward_difference"), n, depth), n


class TestExactWindowRules:
    """Each window is determined exactly as far as its docstring says: at
    that order it equals the window of the operator known 8 orders
    further, and one order less is refused with the order it needed."""

    @pytest.mark.parametrize("depth", [2, 5, 12])
    @pytest.mark.parametrize("name", DELTA_NAMES[1:])
    def test_log_sequence_needs_order_depth_plus_one(self, name, depth):
        params = {"b": Rat(-2, 3)} if name == "abel" else {}
        f = catalog(name, params, order=depth + 9).series
        for n in range(-6, 7):
            assert log_sequence(f.truncate(depth + 1), n, depth) == log_sequence(f, n, depth)
            with pytest.raises(PreconditionError, match=f"needs order {depth + 1}, given {depth}") as err:
                log_sequence(f.truncate(depth), n, depth)
            assert (err.value.needed, err.value.available) == (depth + 1, depth)

    @pytest.mark.parametrize("depth", [2, 5, 12])
    @pytest.mark.parametrize("name", DELTA_NAMES[1:])
    def test_log_conjugate_needs_order_depth_plus_one(self, name, depth):
        params = {"b": Rat(5, 7)} if name == "abel" else {}
        g = catalog(name, params, order=depth + 9).series
        for n in range(-6, 13):
            deeper = log_conjugate_sequence(g, n, depth)
            assert log_conjugate_sequence(g.truncate(depth + 1), n, depth) == deeper
            short = g.truncate(depth)
            if n == depth - 1:
                # the window ends at degree 0, whose coefficient is exact
                assert log_conjugate_sequence(short, n, depth) == deeper
            else:
                with pytest.raises(PreconditionError, match=f"needs order {depth + 1}, given {depth}"):
                    log_conjugate_sequence(short, n, depth)

    @pytest.mark.parametrize("depth", [2, 6, 12])
    def test_newton_needs_the_window_down_to_its_lowest_degree(self, depth):
        deep = log_sequence(catalog("laguerre", order=40), 2, 30)
        lo = 2 - depth + 1
        assert newton_expand(deep.truncate_floor(lo), depth) == newton_expand(deep, depth)
        with pytest.raises(PreconditionError, match=f"down to degree {lo}, given floor {lo + 1}"):
            newton_expand(deep.truncate_floor(lo + 1), depth)


# -- the dict-based window, kept as oracle ---------------------------------


class _DictWindow:
    """A window as {degree: coefficient} with its own floor arithmetic: the
    representation HarmonicLogSeries held before it became a reflected
    TruncatedSeries. Every window operation is compared against it."""

    __slots__ = ("order_t", "coeffs", "floor")

    def __init__(self, coeffs=(), floor=NEG_INF, order_t=1):
        if not (isinstance(order_t, int) and order_t >= 0):
            raise PreconditionError("order t must be a nonnegative integer")
        if not (floor == NEG_INF or isinstance(floor, int)):
            raise PreconditionError("floor must be an integer or -infinity")
        clean = {}
        for d, c in dict(coeffs).items():
            if d < floor:
                continue
            if order_t == 0 and d < 0:
                continue
            c = Rat(c)
            if c != 0:
                clean[int(d)] = c
        if order_t == 0 and floor <= 0:
            floor = NEG_INF
        self.order_t = order_t
        self.coeffs = clean
        self.floor = floor

    @property
    def top(self):
        if self.coeffs:
            return max(self.coeffs)
        return self.floor - 1 if self.floor != NEG_INF else NEG_INF

    @property
    def is_exact(self):
        return self.floor == NEG_INF

    @property
    def is_empty(self):
        return not self.coeffs

    def coefficient(self, d):
        if self.floor != NEG_INF and d < self.floor:
            raise PreconditionError("coefficient below window floor")
        return self.coeffs.get(d, Rat(0))

    def truncate_floor(self, new_floor):
        if new_floor < self.floor:
            raise PreconditionError("truncation too small for exact action")
        return _DictWindow({d: c for d, c in self.coeffs.items() if d >= new_floor},
                           new_floor, self.order_t)

    def __add__(self, other):
        if self.order_t != other.order_t:
            raise PreconditionError("cannot add series of different orders")
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, Rat(0)) + c
        return _DictWindow(out, max(self.floor, other.floor), self.order_t)

    def __neg__(self):
        return _DictWindow({d: -c for d, c in self.coeffs.items()}, self.floor, self.order_t)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Rat(c)
        if c == 0:
            return _DictWindow({}, NEG_INF, self.order_t)
        return _DictWindow({d: c * v for d, v in self.coeffs.items()}, self.floor, self.order_t)

    def __eq__(self, other):
        return (self.order_t, self.floor, self.coeffs) == (other.order_t, other.floor, other.coeffs)

    def __hash__(self):
        return hash((self.order_t, self.floor, frozenset(self.coeffs.items())))

    def agrees_with(self, other):
        lo = max(self.floor, other.floor)
        return self.order_t == other.order_t and all(
            self.coeffs.get(d) == other.coeffs.get(d)
            for d in self.coeffs.keys() | other.coeffs.keys()
            if d >= lo
        )

    def __repr__(self):
        body = " + ".join(f"{self.coeffs[d]}*L[{d}]" for d in sorted(self.coeffs, reverse=True))
        tail = "" if self.floor == NEG_INF else f" (floor {self.floor})"
        return f"<order-{self.order_t} log series: {body or '0'}{tail}>"


def _dict_shift(s):
    out = {j + 1: c for j, c in s.coeffs.items() if j != -1}
    if s.floor == NEG_INF:
        floor = NEG_INF
    elif s.floor == 0:
        floor = 0
    else:
        floor = s.floor + 1
    return _DictWindow(out, floor, s.order_t)


def _dict_augmentation(s, t=None):
    if t is None:
        t = s.order_t
    if t != s.order_t:
        return Rat(0)
    if s.floor != NEG_INF and s.floor > 0:
        raise PreconditionError("augmentation outside window")
    return s.coeffs.get(0, Rat(0))


def _dict_skip(s, to_t):
    return _DictWindow(s.coeffs, s.floor, to_t)


def _run(fn, *args):
    """fn(*args), or the text of the refusal it raised."""
    try:
        return fn(*args)
    except PreconditionError as err:
        return f"refused: {err}"


def _views(x):
    """Everything a window shows, for either representation; other results
    (a coefficient, a refusal) as they are."""
    if isinstance(x, (HarmonicLogSeries, _DictWindow)):
        return (x.order_t, x.coeffs, x.floor, x.top, x.is_exact, x.is_empty, repr(x))
    return x


# floors of -infinity, at most 0 and above 0, with 0 and 1 drawn often
floors = st.sampled_from([NEG_INF, 0, 1]) | st.integers(-6, 6)


@st.composite
def window_data(draw):
    """Constructor arguments of a window of order 0, 1 or 2, with zero
    coefficients and degrees below the floor among the coefficients."""
    coeffs = draw(st.dictionaries(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=5),
                                  max_size=7))
    return coeffs, draw(floors), draw(st.sampled_from([0, 1, 2]))


class TestWindowMatchesDictOracle:
    @given(a=window_data(), b=window_data(), same=st.booleans(), c=st.just(0) | rationals)
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_and_comparison(self, a, b, same, c):
        b = a if same else b
        x, y, dx, dy = HarmonicLogSeries(*a), HarmonicLogSeries(*b), _DictWindow(*a), _DictWindow(*b)
        assert x.series == TruncatedSeries({-d: v for d, v in dx.coeffs.items()}, 1 - dx.floor)
        assert _views(x) == _views(dx)
        for op in (operator.add, operator.sub):
            assert _views(_run(op, x, y)) == _views(_run(op, dx, dy))
        assert _views(-x) == _views(-dx)
        assert _views(x.scale(c)) == _views(dx.scale(c))
        assert (x == y, x.agrees_with(y)) == (dx == dy, dx.agrees_with(dy))
        cut, dcut = _run(x.truncate_floor, 2), _run(dx.truncate_floor, 2)
        if not isinstance(cut, str):
            assert (x.agrees_with(cut), cut.agrees_with(y)) == (dx.agrees_with(dcut), dcut.agrees_with(dy))
        # hash agrees with == : equal windows collapse in a set
        again = HarmonicLogSeries(*a)
        assert hash(again) == hash(x)
        assert len({x, again, y}) == len({dx, _DictWindow(*a), dy})

    @given(a=window_data(), new_floor=floors | st.just(Rat(1, 2)))
    @settings(max_examples=150, deadline=None)
    def test_truncate_floor_and_coefficient(self, a, new_floor):
        x, dx = HarmonicLogSeries(*a), _DictWindow(*a)
        assert _views(_run(x.truncate_floor, new_floor)) == _views(_run(dx.truncate_floor, new_floor))
        for d in range(-8, 9):
            assert _run(x.coefficient, d) == _run(dx.coefficient, d)

    @pytest.mark.parametrize("floor, order_t", [
        (Rat(1, 2), 1), (INF, 2), (3.0, 1), (0, -1), (0, 1.0), (Rat(1, 2), -1)])
    def test_constructor_refusals(self, floor, order_t):
        refusal = _run(HarmonicLogSeries, {1: 2}, floor, order_t)
        assert refusal.startswith("refused: ")
        assert refusal == _run(_DictWindow, {1: 2}, floor, order_t)

    @given(T=laurent_operators(), a=window_data())
    @settings(max_examples=150, deadline=None)
    def test_apply_operator(self, T, a):
        assert _views(apply_operator(T, HarmonicLogSeries(*a))) == _views(
            _action_oracle(T, _DictWindow(*a)))

    @given(a=window_data(), t=st.sampled_from([None, 0, 1, 2]), to_t=st.sampled_from([0, 1, 2, -1]))
    @settings(max_examples=150, deadline=None)
    def test_shift_skip_augmentation(self, a, t, to_t):
        x, dx = HarmonicLogSeries(*a), _DictWindow(*a)
        assert _views(roman_shift(x)) == _views(_dict_shift(dx))
        assert _views(_run(skip, x, to_t)) == _views(_run(_dict_skip, dx, to_t))
        assert _run(augmentation, x, t) == _run(_dict_augmentation, dx, t)


# -- roman-factorial ratios as falling products -----------------------------


class TestRomanFallingProducts:
    @given(n=st.integers(-40, 40), ks=st.lists(st.integers(0, 40)).map(sorted))
    @settings(max_examples=200, deadline=None)
    def test_falling_product_is_the_factorial_ratio(self, n, ks):
        assert numbers._falling(n, ks) == [
            roman_factorial(n) / roman_factorial(n - k) for k in ks]

    @given(op=delta_operators(), n=st.integers(-40, 40), depth=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_windows_match_the_factorial_oracles(self, op, n, depth):
        assert _outcome(log_sequence, op, n, depth) == _outcome(_transfer_oracle, op, n, depth)
        assert _outcome(log_conjugate_sequence, op, n, depth) == _outcome(
            _log_conjugate_oracle, op, n, depth)

    @given(s=log_windows(tops=st.integers(-40, 40)), depth=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_newton_matches_the_factorial_oracle(self, s, depth):
        assert _outcome(newton_expand, s, depth) == _outcome(_newton_oracle, s, depth)

    @pytest.mark.parametrize("n", [10**6, -10**6])
    @pytest.mark.parametrize("read", [
        lambda fd, n: log_sequence(fd, n, 3),
        lambda fd, n: log_conjugate_sequence(fd, n, 3),
        lambda fd, n: newton_expand(log_sequence(fd, n, 3), 3),
    ], ids=["log_sequence", "log_conjugate_sequence", "newton_expand"])
    def test_a_deep_degree_costs_no_factorial(self, read, n):
        # roman(10^6)! has about 5.6 million digits; a depth-3 window needs
        # products of at most two roman numbers
        fd = catalog("forward_difference", order=4)
        start = time.perf_counter()
        read(fd, n)
        assert time.perf_counter() - start < 1

    def test_deep_lower_factorial_window(self):
        # (x)_n = x^n - C(n, 2) x^(n-1) + C(n, 3) (3n - 1)/4 x^(n-2) - ...
        n = 10**6
        s = log_sequence(catalog("forward_difference", order=4), n, 3)
        assert s.coeffs == {n: 1, n - 1: -comb(n, 2), n - 2: comb(n, 3) * (3 * n - 1) // 4}


# -- the log layer's per-degree numbers against their Fraction forms --------


def _stirling_route(n, t):
    """monomial_expansion by a Roman factorial times a Stirling row."""
    out = {}
    for k, falling in enumerate(numbers._falling(t, range(t + 1))):
        coeff = roman_factorial(n) * falling * numbers.stirling_first(-n, k, order=t + 2)
        if coeff != 0:
            out[t - k] = coeff
    return out


def _tail_bound_oracle(s, x0, precision=28):
    """tail_bound with every ratio a Fraction and rho their max."""
    x0 = Rat(x0)
    if s.is_exact:
        return Decimal(0)
    if s.is_empty:
        return None
    coeffs = s.coeffs
    ratios = [abs(coeffs[d]) / abs(coeffs[d + 1]) for d in coeffs if d + 1 in coeffs]
    if not ratios:
        return None
    rho = max(ratios)
    if rho >= x0:
        return None
    anchor = abs(coeffs.get(s.floor, Rat(0))) or max(abs(c) for c in coeffs.values())
    with decimal.localcontext() as ctx:
        ctx.prec = precision + 10
        xv = Decimal(x0.numerator) / Decimal(x0.denominator)
        q = Decimal(rho.numerator) / Decimal(rho.denominator) / xv
        head = Decimal(anchor.numerator) / Decimal(anchor.denominator) * xv ** int(s.floor)
        bound = head * q / (1 - q)
        if s.order_t >= 1 and s.floor > 0:
            bound *= max(Decimal(1), abs(xv.ln())) ** s.order_t
        ctx.prec = precision
        return +bound


def _expand_read_oracle(coeffs, g, ks):
    """a_k = sum_(j >= k) c_j roman(j)!/roman(k)! [t^(j-k)] (g/t)^k, each
    term a Fraction added to a Fraction sum, the powers by int_pow."""
    top = max(ks)
    u = TruncatedSeries({e - 1: c for e, c in g.coeffs.items()}, g.order - 1)
    out = {}
    for k in ks:
        w = top - k + 1
        row = int_pow(u.truncate(w) if w < u.order else u, k, order=w)
        out[k] = sum((c * roman_factorial(j) / roman_factorial(k) * row.coefficient(j - k)
                      for j, c in coeffs.items() if k <= j <= top), Rat(0))
    return out


@st.composite
def tail_windows(draw):
    """A window with a floor: random coefficients, coefficients from a small
    set (so ratios tie), a geometric run, or an empty window."""
    t = draw(st.sampled_from([0, 1, 2]))
    top = draw(st.integers(-8, 8))
    lo = top - draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["random", "ties", "geometric", "empty"]))
    if kind == "empty":
        return HarmonicLogSeries({}, lo, t)
    if kind == "geometric":
        c, q = draw(rationals), draw(rationals)
        coeffs = {d: c * q ** (d - lo) for d in range(lo, top + 1)}
    else:
        values = rationals if kind == "random" else st.sampled_from([1, -1, 2, Rat(1, 2)])
        coeffs = {d: draw(st.just(0) | values) for d in range(lo, top + 1)}
    return HarmonicLogSeries(coeffs, lo, t)


class TestHarmonicNumbers:
    def test_order_one_is_the_harmonic_number(self):
        # lambda_d^(1) = x^d (log x - H_d), H_d the stdlib sum of 1/j; a
        # negative degree carries no log factor
        for d in range(0, 301):
            h = sum((Rat(1, j) for j in range(1, d + 1)), Rat(0))
            got = monomial_expansion(d, 1)
            assert got == ({1: 1, 0: -h} if d else {1: 1}), d
            assert list(got) == ([1, 0] if d else [1])
        for d in range(-300, 0):
            assert monomial_expansion(d, 1) == {0: 1}, d

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_matches_the_stirling_route(self, t):
        # same values and the same key order, descending powers of log x
        for d in range(-40, 41):
            got, want = monomial_expansion(d, t), _stirling_route(d, t)
            assert list(got.items()) == list(want.items()), (d, t)


class TestTailBoundMatchesFractionMax:
    @given(s=tail_windows(), x0=st.fractions(Rat(1, 7), 20, max_denominator=7),
           precision=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_random_windows(self, s, x0, precision):
        assert tail_bound(s, x0, precision) == _tail_bound_oracle(s, x0, precision)

    def test_ties_and_edges(self):
        cases = [
            (HarmonicLogSeries({0: 1, 1: 1, 2: 1, 3: 1}, 0), 2),  # every ratio 1
            (HarmonicLogSeries({-2: 4, -1: -2, 0: 1}, -2), 3),  # every ratio 2
            (HarmonicLogSeries({-2: 4, -1: -2, 0: 1}, -2), 2),  # rho = x0: no bound
            (HarmonicLogSeries({0: 1, 2: 1}, 0), 2),  # no adjacent pair
            (HarmonicLogSeries({}, 3), 2),  # empty
            (HarmonicLogSeries({5: Rat(-7, 3), 6: Rat(7, 3), 7: Rat(1, 9)}, 4, 2), 50),
        ]
        for s, x0 in cases:
            assert tail_bound(s, x0) == _tail_bound_oracle(s, x0), s


class TestExpandReadMatchesFractionSums:
    @given(s=log_windows(tops=st.integers(-30, -1)), depth=depths)
    @settings(max_examples=80, deadline=None)
    def test_newton_expand_below_degree_zero(self, s, depth):
        top = s.top
        depth = depth if s.is_exact else min(depth, top - s.floor + 1)
        fd = catalog("forward_difference", order=depth + 1)
        want = _expand_read_oracle(s.coeffs, fd.series, range(top, top - depth, -1))
        assert list(newton_expand(s, depth).items()) == list(want.items())

    @given(q=delta_operators(), coeffs=st.lists(rationals | st.just(0), max_size=23))
    @settings(max_examples=80, deadline=None)
    def test_taylor_expand(self, q, coeffs):
        p = Polynomial(coeffs)
        n = max(p.degree, 0)
        if n + 1 > q.series.order:
            return
        want = _expand_read_oracle(dict(enumerate(p.coeffs)), q.series, range(n + 1))
        assert taylor_expand(p, q) == list(want.values())
