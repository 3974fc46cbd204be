"""Named identity suites for the verify command.

Each suite certifies one family of identities with exact arithmetic (or,
for the numeric suite, against a stated tolerance). A suite is a generator
of (checks, witness) pairs, the witness None for a pass; run_suite is the
one loop that adds up the checks, stops at the first witness and returns
the report dict: suite name, a one-line statement of the identity, the
number of checks performed, status "pass" or "fail", and the witness of
the first failure. Every suite builds its operators at the order its
checks read, so no working order is passed in. The corrupt flag
deliberately perturbs the object under test before certification; a
healthy installation must then report failure, which gives the
command-line negative control for exit code 4.
"""
from __future__ import annotations

from decimal import localcontext
from fractions import Fraction as Rat
from math import comb, factorial
from typing import Mapping, Optional

from .errors import PreconditionError
from .logarithmic import (
    LogBinomialSequence,
    _dec,
    apply_operator,
    augmentation,
    evaluate_numeric,
    harmonic_log,
    log_lower_factorial,
    newton_expand,
    roman_shift,
)
from .numbers import roman_coefficient
from .operators import Polynomial, catalog
from .sequences import (
    BinomialSequence,
    connection_constants,
    generate_transfer,
    verify_binomial_identity,
)
from .series import int_pow, monomial

DEFAULT_TOLERANCE = Rat(1, 10**7)


def run_suite(
    name: str,
    parameters: Optional[Mapping[str, Rat]] = None,
    n_max: Optional[int] = None,
    depth: int = 12,
    corrupt: bool = False,
) -> dict:
    """Run one named suite and return its report. A suite yields
    (checks, witness) pairs; the first witness that is not None ends it."""
    if n_max is not None and n_max < 1:
        raise PreconditionError(f"n_max must be a positive integer, got {n_max}")
    params = {k: Rat(v) for k, v in dict(parameters or {}).items()}
    if name not in _SUITES:
        raise PreconditionError(f"unknown suite {name!r}")
    # each suite sets the identity first, and may add fields as it computes them
    report = {
        "suite": name,
        "identity": None,
        "checks": 0,
        "status": "pass",
        "witness": None,
    }
    for checks, witness in _SUITES[name](report, params, n_max, depth, corrupt):
        report["checks"] += checks
        if witness is not None:
            report.update(status="fail", witness=witness)
            break
    return report


def _corrupted_sequence(seq, degree: int):
    """A copy of seq with a constant slipped into the given degree."""

    def step(n, _polys):
        p = seq[n]
        return p + Polynomial([1]) if n == degree else p

    return BinomialSequence(seq.operator, "corrupted", step)


def _transfer_rows(name, params, n_max, corrupt):
    """Rows 0..n_max of the basic sequence of a catalog operator, built at
    order n_max + 1 (row n reads order n + 1), corrupted in row min(2, n_max)."""
    seq = generate_transfer(catalog(name, params, order=n_max + 1), n_max)
    return _corrupted_sequence(seq, min(2, n_max)) if corrupt else seq


# -- exact polynomial suites ----------------------------------------------


def _suite_abel(report, params, n_max, depth, corrupt):
    b = params.get("b", Rat(1))
    report["identity"] = f"Abel identity: x(x+a-nb)^(n-1) convolves binomially, b={b}"
    n_max = n_max or 8
    seq = _transfer_rows("abel", {"b": b}, n_max, corrupt)
    for n in range(n_max + 1):
        # closed form x (x - nb)^(n-1) for n >= 1
        closed = Polynomial([1])
        if n >= 1:
            closed = Polynomial([0, 1])
            for _ in range(n - 1):
                closed = closed * Polynomial([-n * b, 1])
        if seq[n] != closed:
            yield 0, {"n": n, "kind": "closed form", "got": repr(seq[n])}
        yield n + 1, verify_binomial_identity(seq, n)[1]


def _suite_vandermonde(report, params, n_max, depth, corrupt):
    report["identity"] = "Vandermonde convolution for falling factorials"
    n_max = n_max or 10
    seq = _transfer_rows("forward_difference", {}, n_max, corrupt)
    for n in range(n_max + 1):
        yield (n + 1) ** 2, verify_binomial_identity(seq, n)[1]


def _suite_connection(report, params, n_max, depth, corrupt):
    report["identity"] = "falling factorials over rising: (-1)^k C(n-1,k) n!/(n-k)!"
    n_max = n_max or 10
    rising = catalog("backward_difference", order=n_max + 1)
    falling = catalog("forward_difference", order=n_max + 1)
    matrix = connection_constants(rising, falling, n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            want = (
                Rat(1)
                if n == 0
                else Rat((-1) ** k * comb(n - 1, k) * factorial(n), factorial(n - k))
            )
            got = matrix.entry(n, n - k)
            if corrupt and (n, k) == (min(2, n_max), 0):
                got = got + 1
            if got != want:
                yield 1, {"n": n, "k": n - k, "got": str(got), "want": str(want)}
            yield 1, None


# -- harmonic-logarithm suites --------------------------------------------


def _suite_pincherle(report, params, n_max, depth, corrupt):
    report["identity"] = "commutators [D^k, sigma] = k D^(k-1) on harmonic logarithms"
    D = catalog("derivative")
    for t in (0, 1, 2):
        for n in range(-6, 7):
            s = harmonic_log(n, t)
            lhs = apply_operator(D, roman_shift(s)) - roman_shift(
                apply_operator(D, s)
            )
            if corrupt and (t, n) == (1, 0):
                lhs = lhs + s
            yield 1, None if lhs == s else {"t": t, "n": n, "kind": "commutator"}
    for k in range(1, 6):
        for n in range(-6, 7):
            s = harmonic_log(n, 1)
            lhs = apply_operator(monomial(k), roman_shift(s)) - roman_shift(
                apply_operator(monomial(k), s)
            )
            rhs = apply_operator(monomial(k - 1, Rat(k)), s)
            yield 1, None if lhs == rhs else {"k": k, "n": n, "kind": "power rule"}


def _suite_logbinomial(report, params, n_max, depth, corrupt):
    report["identity"] = "shifted harmonic logs expand with roman coefficients"
    values = [params["a"]] if "a" in params else [Rat(1), Rat(1, 2)]
    for a in values:
        shift = catalog("shift", {"a": a}, order=depth + 1)
        for n in range(-5, 0):
            img = apply_operator(shift, harmonic_log(n, 1))
            for k in range(depth):
                want = roman_coefficient(n, k) * a**k
                if corrupt and (a, n, k) == (values[0], -1, 1):
                    want = want + 1
                got = img.coefficient(n - k)
                if got != want:
                    yield 1, {
                        "a": str(a),
                        "n": n,
                        "k": k,
                        "got": str(got),
                        "want": str(want),
                    }
                yield 1, None


def _suite_golden(report, params, n_max, depth, corrupt):
    report["identity"] = "1/x resums as sum of (m-1)! over falling-factorial tails"
    # FD^(-m) on lambda_(-1) keeps degree 0 known for m <= depth at this order
    fd = catalog("forward_difference", order=depth + 1).series
    lam = harmonic_log(-1, 1)
    for m in range(1, depth + 1):
        got = augmentation(apply_operator(int_pow(fd, -m), lam))
        if got != (-1) ** (m + 1):
            yield 1, {"m": m, "kind": "residue", "got": str(got)}
        yield 1, None
    coeffs = newton_expand(lam, depth=depth)
    for m in range(1, depth + 1):
        want = factorial(m - 1) + (1 if corrupt and m == 2 else 0)
        if coeffs[-m] != want:
            yield 1, {"m": m, "kind": "newton", "got": str(coeffs[-m])}
        yield 1, None
    # resummation: 1/x = sum (m-1)! (x)_(-m) window-exactly
    acc = None
    for m in range(1, depth + 1):
        term = log_lower_factorial(-m, depth=depth).truncate_floor(-depth)
        term = term.scale(factorial(m - 1))
        acc = term if acc is None else acc + term
    if acc != lam.truncate_floor(-depth):
        yield 1, {"kind": "resummation", "got": repr(acc)}
    yield 1, None


# -- numeric suite --------------------------------------------------------


def _suite_abel_numeric(report, params, n_max, depth, corrupt):
    a = params.get("a", Rat(1))
    b = params.get("b", Rat(2))
    x = params.get("x", Rat(5))
    tol = params.get("tol", DEFAULT_TOLERANCE)
    report["identity"] = (
        f"shifted-log expansion and b/x^2 resummation at x={x}, a={a}, b={b}"
    )
    if not x > abs(b) > 0:
        raise PreconditionError("abel_numeric requires x0 > |b| > 0")
    if tol <= 0:
        raise PreconditionError(f"abel_numeric requires tol > 0, got {tol}")
    tol = _dec(tol)

    def tails(d):
        # the Abel log basic sequence at depth d, from its operator at order d + 1
        return LogBinomialSequence(catalog("abel", {"b": b}, order=d + 1), depth=d)

    # identity 1: log(x+a) + b/(x+a) expands over the Abel tails with
    # coefficients roman(0|k) a(a-bk)^(k-1); certified exactly on the
    # window, then evaluated at x
    seq = tails(depth + 2)
    rhs = seq[0].truncate_floor(-depth)
    for k in range(1, depth + 1):
        w = roman_coefficient(0, k) * a * (a - b * k) ** (k - 1)
        rhs = rhs + seq[-k].truncate_floor(-depth).scale(w)
    if corrupt:
        rhs = rhs + harmonic_log(-1, 1).truncate_floor(-depth).scale(Rat(1, 10**5))
    bad = None
    for m in range(1, depth + 1):
        want = (-1) ** (m - 1) * a ** (m - 1) * (b + Rat(a, m))
        if not corrupt and rhs.coefficient(-m) != want:
            bad = m
            break
    with localcontext() as ctx:
        ctx.prec = 40
        lhs_val = (_dec(x) + _dec(a)).ln() + _dec(Rat(b) / (x + a))
    diff1 = abs(evaluate_numeric(rhs, x, 30) - lhs_val)
    report.update(
        difference_1=str(diff1), difference_2=None, tolerance=str(tol), terms=depth
    )
    # a window-coefficient failure still counts the numeric check
    if bad is not None:
        yield bad + 1, {"identity": 1, "m": bad, "kind": "window coefficient"}
    if diff1 >= tol:
        yield depth + 1, {"identity": 1, "kind": "numeric", "difference": str(diff1)}
    yield depth + 1, None

    # identity 2: b/x^2 resums over the Abel tails with coefficients
    # b(m-1)(mb)^(m-2); the window collapses to the single term b x^(-2),
    # with the term count doubled until the floor is below the tolerance.
    # The window at t terms has floor -t - 1, so the term counts are known
    # before any window is built, and so is a count past 256.
    counts = [depth]
    while _dec(x) ** (-counts[-1] - 1) >= tol:
        counts.append(2 * counts[-1])
        if counts[-1] > 256:
            report["terms"] = counts[-1]
            yield 0, {"identity": 2, "kind": "no convergence"}
            return
    for terms in counts:
        report["terms"] = terms
        deep = tails(terms + 2)
        acc = None
        for m in range(2, terms + 2):
            w = b * (m - 1) * (m * b) ** (m - 2)
            term = deep[-m].truncate_floor(-terms - 1).scale(w)
            acc = term if acc is None else acc + term
        if acc.coeffs != {-2: b}:
            yield 1, {"identity": 2, "kind": "window collapse", "got": repr(acc)}
        diff2 = abs(evaluate_numeric(acc, x, 30) - _dec(Rat(b) / x**2))
        report["difference_2"] = str(diff2)
        if terms < counts[-1]:
            yield 1, None
        elif diff2 >= tol:
            yield 2, {"identity": 2, "kind": "numeric", "difference": str(diff2)}
        else:
            yield 2, None


_SUITES = {
    "abel": _suite_abel,
    "vandermonde": _suite_vandermonde,
    "pincherle": _suite_pincherle,
    "logbinomial": _suite_logbinomial,
    "connection_upper_lower": _suite_connection,
    "golden": _suite_golden,
    "abel_numeric": _suite_abel_numeric,
}
SUITE_NAMES = tuple(_SUITES)
