# Combinatorial number engines: Roman factorials and coefficients, Stirling
# numbers for all integer degrees, Bernoulli and higher-order Bernoulli
# numbers, elementary symmetric functions.
#
# Everything returns exact rationals (fractions.Fraction, aliased Rat).
# Results are memoized; all functions are pure, so the caches are safe to
# share between threads.
from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import comb, factorial, perm
from typing import Iterable

from .series import _power_row, constant, from_coeffs, mul

Rat = Fraction


@cache
def roman_factorial(n: int) -> Rat:
    """Roman factorial: n! for n >= 0, (-1)^(n-1)/(-n-1)! for n < 0."""
    if n >= 0:
        return Rat(factorial(n))
    sign = -1 if n % 2 == 0 else 1
    return Rat(sign, factorial(-n - 1))


def roman_number(n: int) -> int:
    """Roman number: n for n != 0, and 1 for n = 0."""
    return n if n != 0 else 1


def _falling(n: int, ks: Iterable[int]) -> list:
    """roman(n)!/roman(n-k)! for each k of the nondecreasing ks >= 0: the
    product of roman(n - i) over i < k, grown one run of factors at a time,
    so no factorial is formed and only the products asked for are kept.
    A run of one factor, every step of a dense window, skips _roman_run's
    two perm calls: that path alone costs the log_windows benchmark about
    4% more wall time."""
    out, acc, done = [], 1, 0
    for k in ks:
        if k == done + 1:
            acc *= roman_number(n - done)
        else:
            acc *= _roman_run(n - k + 1, n - done)
        done = k
        out.append(acc)
    return out


def _roman_run(lo: int, hi: int) -> int:
    """The product of roman(v) over lo <= v <= hi: one math.perm on each side
    of zero, so a long run (a sparse window) costs no loop in Python."""
    up = max(hi - max(lo, 1) + 1, 0)
    down = max(min(hi, -1) - lo + 1, 0)
    return perm(max(hi, 0), up) * (-1) ** down * perm(max(-lo, 0), down)


@cache
def roman_coefficient(j: int, k: int) -> Rat:
    """Roman coefficient: roman_factorial(j) / (roman_factorial(k) * roman_factorial(j-k))."""
    return roman_factorial(j) / (roman_factorial(k) * roman_factorial(j - k))


# Stirling numbers of the first kind for all integer degrees n.  s(n, k) is
# the coefficient of y^k in the falling factorial (y)_n.  For n >= 0 the
# falling factorial is the polynomial y(y-1)...(y-n+1).  For n < 0 it is
# 1/((y+1)(y+2)...(y-n)), whose coefficients form an infinite series; the
# caller supplies the working order, and the product is cut there and inverted.
@cache
def _stirling_first_row(n: int, order: int) -> tuple[Rat, ...]:
    prod = [1] + [0] * (n if n >= 0 else order - 1)  # integer coefficients
    for r in range(n) if n >= 0 else range(-1, n - 1, -1):  # times (y - r)
        prod = [a - r * b for a, b in zip([0, *prod], prod)]
    if n >= 0:
        return tuple(map(Rat, prod + [0] * (order - n - 1)))
    row, den = _power_row(prod, 1, -1, order)
    return tuple(Rat(x, den) for x in row)


def stirling_first(n: int, k: int, order: int = 32) -> Rat:
    """Coefficient of y^k in the falling factorial (y)_n, any integer n."""
    if k < 0:
        raise ValueError("stirling_first requires k >= 0")
    if n < 0 and k >= order:
        raise ValueError("stirling_first requires k < order")
    row = _stirling_first_row(n, order)
    return row[k] if k < len(row) else Rat(0)


@cache
def stirling_second(n: int, k: int) -> Rat:
    """Stirling number of the second kind, by inclusion-exclusion:
    S(n, k) = sum_j (-1)^(k-j) C(k, j) j^n / k!."""
    if n < 0 or k < 0:
        raise ValueError("stirling_second requires n, k >= 0")
    if k > n:
        return Rat(0)
    return Rat(sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1)) // factorial(k))


# Bernoulli numbers B_k are the Hurwitz coefficients of D/(e^D - 1); the
# higher-order numbers B_{k,n} come from the n-th power of that series.
@cache
def _bernoulli_gen_power(n: int, order: int) -> tuple[Rat, ...]:
    # (t/(e^t - 1))^n as plain coefficients: ((e^t - 1)/t)^(-n), 1/(k+1)! over order!
    u = [factorial(order) // factorial(k + 1) for k in range(order)]
    row, den = _power_row(u, factorial(order), -n, order)
    return tuple(Rat(x, den) for x in row)


def bernoulli(k: int) -> Rat:
    """Bernoulli number B_k, with B_1 = -1/2."""
    if k < 0:
        raise ValueError("bernoulli requires k >= 0")
    return _bernoulli_gen_power(1, k + 1)[k] * factorial(k)


def bernoulli_higher(k: int, n: int) -> Rat:
    """Higher-order Bernoulli number B_{k,n}: k! times the D^k coefficient of (D/(e^D-1))^n."""
    if k < 0:
        raise ValueError("bernoulli_higher requires k >= 0")
    if n < 1:
        raise ValueError("bernoulli_higher requires n >= 1")
    return _bernoulli_gen_power(n, k + 1)[k] * factorial(k)


def elementary_symmetric(n: int, values: Iterable[Rat]) -> Rat:
    """Coefficient of y^n in the product of (1 + x_k y) over the given values."""
    if n < 0:
        raise ValueError("elementary_symmetric requires n >= 0")
    factors = (from_coeffs([1, v], order=n + 1) for v in values)
    return reduce(mul, factors, constant(1)).coefficient(n)
