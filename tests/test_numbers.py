# Oracle tests for the combinatorial number engines.
#
# Tags on frozen values:
#   [TRIVIAL]  immediate from the definition, asserted directly
#   [PAPER]    printed in the source material and transcribed here
#   [DERIVED]  computed by an independent method (brute force enumeration,
#              a different recurrence, or a classical identity) and frozen
from fractions import Fraction as Rat
import time
from functools import reduce
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.numbers import (
    _bernoulli_gen_power,
    _stirling_first_row,
    bernoulli,
    bernoulli_higher,
    elementary_symmetric,
    roman_coefficient,
    roman_factorial,
    roman_number,
    stirling_first,
    stirling_second,
)
from umbra.series import INF, constant, from_coeffs, int_pow, mul, reciprocal


class TestRomanFactorial:
    def test_nonnegative_is_factorial(self):
        # [TRIVIAL]
        for n in range(10):
            assert roman_factorial(n) == factorial(n)

    def test_negative_values(self):
        # [PAPER] the table of Roman factorials for small negative n:
        # |-1]! = 1, |-2]! = -1, |-3]! = 1/2, |-4]! = -1/6, |-5]! = 1/24
        assert roman_factorial(-1) == 1
        assert roman_factorial(-2) == -1
        assert roman_factorial(-3) == Rat(1, 2)
        assert roman_factorial(-4) == Rat(-1, 6)
        assert roman_factorial(-5) == Rat(1, 24)

    def test_quotient_is_roman_number(self):
        # Defining property: |n]! / |n-1]! = |n] for every integer n.
        for n in range(-50, 51):
            assert roman_factorial(n) / roman_factorial(n - 1) == roman_number(n)

    def test_roman_number(self):
        # [TRIVIAL]
        assert roman_number(0) == 1
        assert roman_number(7) == 7
        assert roman_number(-7) == -7


class TestRomanCoefficient:
    def test_matches_binomial_for_nonnegative(self):
        # [TRIVIAL] |j @ k] = C(j, k) in the classical range
        for j in range(9):
            for k in range(j + 1):
                assert roman_coefficient(j, k) == comb(j, k)

    def test_small_values(self):
        # [DERIVED] by hand from the definition: |j @ k] is the quotient
        # |j]! / (|k]! |j-k]!)
        assert roman_coefficient(5, 2) == 10
        assert roman_coefficient(-1, 3) == -1       # 1 / (6 * (-1/6))
        assert roman_coefficient(-2, 1) == -2       # -1 / (1 * 1/2)
        assert roman_coefficient(3, 5) == Rat(-1, 20)  # 6 / (120 * -1)

    def test_row_zero_alternating_harmonic(self):
        # [PAPER] |0 @ k] = (-1)^(k+1) / k for k > 0
        for k in range(1, 12):
            assert roman_coefficient(0, k) == Rat((-1) ** (k + 1), k)

    def test_edge_columns(self):
        # [TRIVIAL] k = 0 and k = j give 1, for any integer j
        for j in range(-10, 11):
            assert roman_coefficient(j, 0) == 1
            assert roman_coefficient(j, j) == 1

    @given(st.integers(-25, 25), st.integers(-25, 25))
    @settings(max_examples=80)
    def test_symmetry(self, j, k):
        # invariant: |j @ k] = |j @ j-k]
        assert roman_coefficient(j, k) == roman_coefficient(j, j - k)


def falling_factorial_coeffs(n):
    # Independent expansion of y(y-1)...(y-n+1) used as a test oracle.
    coeffs = [Rat(1)]
    for i in range(n):
        new = [Rat(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] += c
            new[d] += -i * c
        coeffs = new
    return coeffs


class TestStirlingFirst:
    def test_nonnegative_rows_do_not_depend_on_the_order(self):
        # for n >= 0 the row is (y)_n, of width n + 1, at every order: it
        # reads 0 past the row, for k >= order too
        for n in range(12):
            row = falling_factorial_coeffs(n)
            for k in range(n + 4):
                want = row[k] if k <= n else 0
                for order in (0, 1, 2, n, n + 1, n + 5, 32):
                    assert stirling_first(n, k, order) == want, (n, k, order)

    def test_row_three(self):
        # [DERIVED] (y)_3 = y^3 - 3y^2 + 2y
        assert stirling_first(3, 0) == 0
        assert stirling_first(3, 1) == 2
        assert stirling_first(3, 2) == -3
        assert stirling_first(3, 3) == 1

    def test_cycle_counting(self):
        # [DERIVED] |s(n, k)| counts permutations of n letters with k
        # cycles, and the sign is (-1)^(n-k); brute force over S_n.
        def cycles(p):
            seen = [False] * len(p)
            count = 0
            for i in range(len(p)):
                if not seen[i]:
                    count += 1
                    j = i
                    while not seen[j]:
                        seen[j] = True
                        j = p[j]
            return count

        for n in range(1, 7):
            tally = {}
            for p in permutations(range(n)):
                k = cycles(p)
                tally[k] = tally.get(k, 0) + 1
            for k in range(1, n + 1):
                expected = Rat((-1) ** (n - k) * tally[k])
                assert stirling_first(n, k) == expected, (n, k)

    def test_negative_one_row(self):
        # [PAPER] s(-1, k) = (-1)^k
        for k in range(12):
            assert stirling_first(-1, k, order=16) == (-1) ** k

    def test_negative_two_row_start(self):
        # [DERIVED] 1/((y+1)(y+2)) = 1/2 - 3/4 y + 7/8 y^2 - 15/16 y^3 + ...
        assert stirling_first(-2, 0, order=8) == Rat(1, 2)
        assert stirling_first(-2, 1, order=8) == Rat(-3, 4)
        assert stirling_first(-2, 2, order=8) == Rat(7, 8)
        assert stirling_first(-2, 3, order=8) == Rat(-15, 16)

    def test_boundary_recurrence(self):
        # invariant: s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k) for all
        # integers n, crossing the degree-zero boundary.
        def s(n, k):
            if k < 0:
                return Rat(0)
            return stirling_first(n, k, order=24)

        for n in range(-8, 9):
            for k in range(9):
                assert s(n, k) == s(n - 1, k - 1) - (n - 1) * s(n - 1, k), (n, k)

    def test_matches_polynomial_expansion(self):
        # [DERIVED] compare every coefficient against an independent
        # expansion of the falling factorial.
        for n in range(13):
            expected = falling_factorial_coeffs(n)
            for k in range(n + 1):
                assert stirling_first(n, k) == expected[k]

    def test_preconditions(self):
        with pytest.raises(ValueError, match="k >= 0"):
            stirling_first(3, -1)
        with pytest.raises(ValueError, match="k < order"):
            stirling_first(-2, 8, order=8)

    def test_rows_match_series_product_oracle(self):
        # the integer-list rows against the series-product rows they replaced
        for n in range(-40, 41):
            for order in range(1, 11):
                assert _stirling_first_row(n, order) == _series_stirling_row(n, order), (n, order)

    def test_deep_negative_row_is_fast(self):
        # the product is cut at y^order before it is inverted; the full
        # product of 2000 factors took about 30 s
        start = time.perf_counter()
        got = stirling_first(-2000, 1, order=3)
        assert time.perf_counter() - start < 1
        # [DERIVED] 1/((y+1)...(y+n)) = (1 - H_n y + ...)/n!
        harmonic = sum(Rat(1, r) for r in range(1, 2001))
        assert got == -harmonic / factorial(2000)


def _series_stirling_row(n, order):
    """The Stirling row as it was built before: the falling factorial as an
    exact product of linear series, inverted in full for n < 0 by the
    Fraction recurrence r_k = -(u_1 r_(k-1) + ... + u_k r_0) / u_0."""
    roots = range(n) if n >= 0 else range(-1, n - 1, -1)
    prod = reduce(mul, (from_coeffs([-r, 1], order=INF) for r in roots), constant(1))
    if n >= 0:
        return tuple(prod.coefficient(d) for d in range(n + 1))
    u = [prod.coefficient(d) for d in range(order)]
    r = [1 / u[0]]
    for k in range(1, order):
        r.append(-sum(u[j] * r[k - j] for j in range(1, k + 1)) / u[0])
    return tuple(r)


def set_partitions(items):
    # Brute-force generator of all set partitions, used as a test oracle.
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


class TestStirlingSecond:
    def test_small_values(self):
        # [TRIVIAL]
        assert stirling_second(3, 2) == 3
        assert stirling_second(4, 2) == 7
        assert stirling_second(0, 0) == 1
        assert stirling_second(5, 5) == 1
        assert stirling_second(5, 0) == 0

    def test_set_partition_counts(self):
        # [DERIVED] S(n, k) counts partitions of an n-set into k blocks.
        for n in range(1, 8):
            tally = {}
            for p in set_partitions(list(range(n))):
                tally[len(p)] = tally.get(len(p), 0) + 1
            for k in range(1, n + 1):
                assert stirling_second(n, k) == tally[k], (n, k)

    def test_inverts_falling_factorials(self):
        # invariant: sum_k S(n, k) (x)_k = x^n as polynomials.
        for n in range(11):
            total = [Rat(0)] * (n + 1)
            for k in range(n + 1):
                c = stirling_second(n, k)
                for d, v in enumerate(falling_factorial_coeffs(k)):
                    total[d] += c * v
            assert total == [Rat(0)] * n + [Rat(1)], n

    def test_matches_the_triangular_recurrence(self):
        # [DERIVED] S(n, k) = k S(n-1, k) + S(n-1, k-1), S(0, 0) = 1, row by row
        row = [1]
        for n in range(60):
            assert [stirling_second(n, k) for k in range(60)] == row + [0] * (60 - len(row)), n
            row = [k * c + p for k, (c, p) in enumerate(zip(row + [0], [0] + row))]

    def test_deep_degree_has_the_closed_form(self):
        # [DERIVED] S(n, 3) = (3^n - 3 2^n + 3) / 6 by inclusion-exclusion; the
        # triangular recurrence would recurse 2000 frames deep
        assert stirling_second(2000, 3) == (3**2000 - 3 * 2**2000 + 3) // 6

    def test_preconditions(self):
        with pytest.raises(ValueError):
            stirling_second(-1, 0)
        with pytest.raises(ValueError):
            stirling_second(3, -1)


class TestBernoulli:
    def test_classical_table(self):
        # [DERIVED] classical values, cross-checked against the defining
        # recurrence below.
        table = {
            0: Rat(1),
            1: Rat(-1, 2),
            2: Rat(1, 6),
            4: Rat(-1, 30),
            6: Rat(1, 42),
            8: Rat(-1, 30),
            10: Rat(5, 66),
            12: Rat(-691, 2730),
        }
        for k, v in table.items():
            assert bernoulli(k) == v

    def test_odd_vanish(self):
        for k in range(3, 15, 2):
            assert bernoulli(k) == 0

    def test_defining_recurrence(self):
        # [DERIVED] sum_{k<n} C(n, k) B_k = 0 for n >= 2.
        for n in range(2, 21):
            assert sum(comb(n, k) * bernoulli(k) for k in range(n)) == 0

    def test_higher_order_one(self):
        # B_{k,1} is the ordinary Bernoulli number.
        for k in range(11):
            assert bernoulli_higher(k, 1) == bernoulli(k)

    def test_higher_order_values(self):
        # [DERIVED] B_{0,n} = 1 and B_{1,n} = -n/2 from the series power.
        for n in range(1, 8):
            assert bernoulli_higher(0, n) == 1
            assert bernoulli_higher(1, n) == Rat(-n, 2)

    def test_higher_order_convolution(self):
        # [DERIVED] powers multiply: B_{k,n+m} = sum_j C(k,j) B_{j,n} B_{k-j,m}.
        for n, m in [(1, 1), (1, 2), (2, 3)]:
            for k in range(8):
                lhs = bernoulli_higher(k, n + m)
                rhs = sum(
                    comb(k, j) * bernoulli_higher(j, n) * bernoulli_higher(k - j, m)
                    for j in range(k + 1)
                )
                assert lhs == rhs, (k, n, m)

    @given(n=st.integers(1, 11), order=st.integers(1, 39))
    @settings(max_examples=60, deadline=None)
    def test_generating_power_matches_series_route(self, n, order):
        # the power read off the signed power table equals the reciprocal
        # of (e^t - 1)/t raised by repeated series products
        base = from_coeffs([Rat(1, factorial(k + 1)) for k in range(order)])
        power = int_pow(reciprocal(base), n)
        assert _bernoulli_gen_power(n, order) == tuple(power.coefficient(d) for d in range(order))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bernoulli(-1)
        with pytest.raises(ValueError):
            bernoulli_higher(2, 0)


class TestElementarySymmetric:
    def test_small(self):
        # [TRIVIAL] e_2(1,2,3) = 1*2 + 1*3 + 2*3 = 11
        assert elementary_symmetric(2, [1, 2, 3]) == 11
        assert elementary_symmetric(0, [5, 7]) == 1
        assert elementary_symmetric(3, [1, 2]) == 0

    def test_brute_force(self):
        # [DERIVED] sum over all k-subsets of the values.
        values = [Rat(1), Rat(-2), Rat(1, 3), Rat(5), Rat(-1, 7)]
        for k in range(len(values) + 2):
            expected = sum(
                (Rat(1) if not c else Rat(1) * _prod(c))
                for c in combinations(values, k)
            ) if k <= len(values) else Rat(0)
            assert elementary_symmetric(k, values) == expected


def _prod(xs):
    out = Rat(1)
    for x in xs:
        out *= x
    return out
