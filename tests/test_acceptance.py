"""Acceptance gate: thirteen end-to-end criteria, one test each.

Run with -v for one PASSED/FAILED line per criterion. Configuration for
the whole gate: working order 16, grids to N = 10, window depth 12, and
the full file must finish in under 60 seconds. Tolerances are stated per
criterion; everything else is exact rational equality against oracles
computed here with plain integer arithmetic wherever a closed form is
derivable by hand.
"""
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as Rat
from math import comb, factorial

import pytest

from umbra.operators import (
    DELTA_NAMES,
    Polynomial,
    catalog,
    expand_in_basis,
    lagrange_inversion,
)
from umbra.logarithmic import log_sequence
from umbra.sequences import (
    connection_constants,
    conjugate_sequence,
    generate_transfer,
    verify_binomial_identity,
)
from umbra.series import (
    compositional_inverse,
    constant,
    formal_derivative,
    int_pow,
    monomial,
    mul,
    reciprocal,
)
from umbra.suites import run_suite

_T0 = time.monotonic()


def _abel_closed_form(n: int, b: Rat) -> Polynomial:
    # [DERIVED] p_n(x) = x (x - n b)^(n-1), expanded by the binomial
    # theorem with integer arithmetic only
    if n == 0:
        return Polynomial([1])
    coeffs = [Rat(0)] * (n + 1)
    for j in range(n):
        coeffs[j + 1] = comb(n - 1, j) * (-n * b) ** (n - 1 - j)
    return Polynomial(coeffs)


def _falling(x, n: int):
    out = Rat(x) ** 0 if isinstance(x, Rat) else 1
    for i in range(n):
        out *= x - i
    return out


def test_criterion_01_abel_identity_grid():
    # Bivariate grid certification of binomial type for the Abel family,
    # n <= 8, b in {-1, 1, 1/2}, plus the hand-expanded closed form.
    for b in (Rat(-1), Rat(1), Rat(1, 2)):
        seq = generate_transfer(catalog("abel", {"b": b}, order=12), 8)
        for n in range(9):
            assert seq[n] == _abel_closed_form(n, b), (b, n)
            ok, witness = verify_binomial_identity(seq, n)
            assert ok, (b, n, witness)


def test_criterion_02_vandermonde_lower_factorials():
    # [DERIVED] integer falling factorials convolve on a brute grid
    for n in range(11):
        for x in range(11):
            for a in range(11):
                lhs = _falling(x + a, n)
                rhs = sum(
                    comb(n, k) * _falling(x, k) * _falling(a, n - k)
                    for k in range(n + 1)
                )
                assert lhs == rhs, (n, x, a)
    # engine: the lower factorial sequence passes grid certification and
    # agrees with the integer oracle pointwise
    seq = generate_transfer(catalog("forward_difference", order=14), 10)
    for n in range(11):
        ok, witness = verify_binomial_identity(seq, n)
        assert ok, (n, witness)
        for x in range(11):
            assert seq[n].evaluate(x) == _falling(x, n), (n, x)


def test_criterion_03_expansion_round_trips():
    # E^a in the forward difference: k-th normalized coefficient is the
    # falling factorial (a)_k. [DERIVED] oracle: direct product.
    fd = catalog("forward_difference")
    for a in (Rat(3), Rat(-2), Rat(1, 2)):
        shift = catalog("shift", {"a": a})
        coeffs = expand_in_basis(shift.series, fd.series, k_max=12)
        for k, c in enumerate(coeffs):
            assert c == _falling(a, k), (a, k)
    # Laguerre operator in D: t/(t-1) = -(t + t^2 + ...) so the k!-scaled
    # coefficients are 0, -1!, -2!, -3!, ... [DERIVED] geometric series.
    lag = catalog("laguerre")
    coeffs = expand_in_basis(lag.series, monomial(1), k_max=12)
    assert coeffs[0] == 0
    for k in range(1, 13):
        assert coeffs[k] == -factorial(k), k
    # (e^t - 1)/t in D: k!-scaled coefficient k!/(k+1)! = 1/(k+1).
    bern = catalog("bernoulli_op")
    coeffs = expand_in_basis(bern.series, monomial(1), k_max=12)
    for k in range(13):
        assert coeffs[k] == Rat(1, k + 1), k


def test_criterion_04_lagrange_matches_newton_to_order_20():
    # Two routes to the inverse must agree: lagrange_inversion, read off
    # the composite t(f^(-1)), vs the residue formula
    # [t^k] f^(-1) = [t^(-1)] t f' f^(-1-k), formed here from products of
    # Laurent series without the inverse; compositional_inverse must match
    # both (test_series checks it against a Newton-iteration oracle).
    cases = [
        ("forward_difference", None),
        ("abel", Rat(1)),
        ("abel", Rat(-1)),
        ("abel", Rat(1, 2)),
        ("laguerre", None),
    ]
    for name, b in cases:
        params = {} if b is None else {"b": b}
        op = catalog(name, params, order=24)
        lag = lagrange_inversion(op.series, monomial(1), 20)
        newton = compositional_inverse(op.series)
        base = monomial(1) * formal_derivative(op.series)
        finv = reciprocal(op.series)
        for k in range(1, 21):
            residue = (base * int_pow(finv, k + 1)).coefficient(-1)
            assert lag[k - 1] == residue == newton.coefficient(k), (name, b, k)


def test_criterion_05_generating_function_bidegree_8():
    # sum_n p_n(x) t^n / n! = exp(x f^(-1)(t)) compared coefficientwise
    # for x-degree and t-degree both up to 8, for every catalog delta.
    for name in DELTA_NAMES:
        params = {"b": Rat(1, 2)} if name == "abel" else {}
        op = catalog(name, params, order=16)
        seq = generate_transfer(op, 8)
        finv = compositional_inverse(op.series)
        power = constant(1)
        for m in range(9):
            if m:
                power = mul(power, finv)
            # coefficient of x^m t^j on both sides
            for j in range(9):
                lhs = Rat(seq[j].coefficient(m), factorial(j))
                rhs = power.coefficient(j) / factorial(m)
                assert lhs == rhs, (name, m, j)


def test_criterion_06_stirling_conjugate_vs_set_partitions():
    # [DERIVED] brute force: enumerate every set partition of {1..n} as a
    # restricted growth string and tally by block count; the conjugate
    # sequence of the forward difference must reproduce the tallies.
    seq = conjugate_sequence(catalog("forward_difference", order=14), 10)
    for n in range(11):
        tally = [0] * (n + 1)

        def place(i, used):
            if i == n:
                tally[used] += 1
                return
            for _ in range(used):
                place(i + 1, used)
            place(i + 1, used + 1)

        place(0, 0)
        got = [seq[n].coefficient(k) for k in range(n + 1)]
        assert got == tally, n


def test_criterion_07_factorial_connection_closed_form():
    # Lower factorials written in the upper factorial basis have entries
    # c_{n, n-k} = (-1)^k C(n-1, k) n!/(n-k)!
    bd = catalog("backward_difference", order=16)
    fd = catalog("forward_difference", order=16)
    matrix = connection_constants(bd, fd, 10)
    assert matrix.entry(0, 0) == 1
    for n in range(1, 11):
        for k in range(n + 1):
            want = Rat((-1) ** k * comb(n - 1, k) * factorial(n), factorial(n - k))
            assert matrix.entry(n, n - k) == want, (n, k)


def test_criterion_08_residual_windows():
    # Degree -1 elements and the Laguerre degree-0 element, depth 12.
    # [DERIVED] forward difference: 1/(x+1) = sum (-1)^j x^(-1-j)
    fd = catalog("forward_difference", order=16)
    w = log_sequence(fd, -1, depth=12)
    assert w.floor <= -12
    for j in range(12):
        assert w.coefficient(-1 - j) == (-1) ** j, j
    # [DERIVED] abel: x(x+b)^(-2) = sum (j+1)(-b)^j x^(-1-j)
    for b in (Rat(1), Rat(-1), Rat(1, 2)):
        op = catalog("abel", {"b": b}, order=16)
        w = log_sequence(op, -1, depth=12)
        for j in range(12):
            assert w.coefficient(-1 - j) == (j + 1) * (-b) ** j, (b, j)
    # Laguerre degree-0 window starts log x + 1/x - 1/x^2 + 2/x^3 - 6/x^4
    # and continues with (-1)^(j-1) (j-1)! [DERIVED from t/(t-1)]
    lag = catalog("laguerre", order=16)
    w = log_sequence(lag, 0, depth=12)
    assert w.coefficient(0) == 1
    assert [w.coefficient(-j) for j in range(1, 5)] == [1, -1, 2, -6]
    for j in range(1, 12):
        assert w.coefficient(-j) == (-1) ** (j - 1) * factorial(j - 1), j


def test_criterion_09_pincherle_commutators():
    # [sigma, D] identities on harmonic logarithms, |n| <= 6, t <= 2,
    # powers k <= 5: 3*13 commutator checks + 5*13 power-rule checks.
    report = run_suite("pincherle")
    assert report["status"] == "pass", report["witness"]
    assert report["checks"] == 104


def test_criterion_10_logarithmic_binomial_windows():
    # shifted harmonic logs match roman-coefficient windows for
    # n in {-5..-1} at depth 12, a in {1, 1/2}
    report = run_suite("logbinomial", depth=12)
    assert report["status"] == "pass", report["witness"]
    assert report["checks"] == 120


def test_criterion_11_golden_identity_twelve_powers():
    # residues, Newton coefficients (m-1)!, and the window-exact
    # resummation of 1/x, through 12 inverse powers
    report = run_suite("golden", depth=12)
    assert report["status"] == "pass", report["witness"]
    assert report["checks"] == 25


def test_criterion_12_numeric_abel_check():
    # a = 1, b = 2, x = 5: 12-term shifted-log expansion within 1e-7 of
    # ln(x+a) + b/(x+a), plus the corrected two-sided identity with an
    # adaptive term count collapsing window-exactly (difference 0).
    report = run_suite("abel_numeric", depth=12)
    assert report["status"] == "pass", report["witness"]
    assert Decimal(report["difference_1"]) < Decimal("1e-7")
    assert Decimal(report["difference_2"]) < Decimal("1e-7")
    assert Decimal(report["tolerance"]) == Decimal("1e-7")


@pytest.mark.usefixtures("src_on_pythonpath")
def test_criterion_13_negative_controls():
    # corrupted data must fail verification with exit code 4; a truncated
    # expression must fail parsing with exit code 2 and a position
    corrupt = subprocess.run(
        [sys.executable, "-m", "umbra.cli",
         "verify", "--suite", "vandermonde", "--corrupt", "--n", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert corrupt.returncode == 4, corrupt.stderr
    broken = subprocess.run(
        [sys.executable, "-m", "umbra.cli", "seq", "--op", "exp("],
        capture_output=True, text=True, timeout=120,
    )
    assert broken.returncode == 2
    assert "position 5" in broken.stderr
    # whole-gate runtime budget
    assert time.monotonic() - _T0 < 60

