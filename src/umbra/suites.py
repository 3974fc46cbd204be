"""Named identity suites for the verify command.

Each suite certifies one family of identities with exact arithmetic (or,
for the numeric suite, against a stated tolerance) and returns a report
dict: suite name, a one-line statement of the identity, the number of
checks performed, status "pass" or "fail", and a witness for the first
failure. The corrupt flag deliberately perturbs the object under test
before certification; a healthy installation must then report failure,
which gives the command-line negative control for exit code 4.
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

SUITE_NAMES = (
    "abel",
    "vandermonde",
    "pincherle",
    "logbinomial",
    "connection_upper_lower",
    "golden",
    "abel_numeric",
)

DEFAULT_TOLERANCE = Rat(1, 10**7)


def run_suite(
    name: str,
    parameters: Optional[Mapping[str, Rat]] = None,
    n_max: Optional[int] = None,
    depth: int = 12,
    order: int = 16,
    corrupt: bool = False,
) -> dict:
    """Run one named suite and return its report."""
    if n_max is not None and n_max < 1:
        raise PreconditionError(f"n_max must be a positive integer, got {n_max}")
    params = {k: Rat(v) for k, v in dict(parameters or {}).items()}
    if name == "abel":
        return _suite_abel(params, n_max or 8, order, corrupt)
    if name == "vandermonde":
        return _suite_vandermonde(n_max or 10, order, corrupt)
    if name == "pincherle":
        return _suite_pincherle(corrupt)
    if name == "logbinomial":
        return _suite_logbinomial(params, depth, corrupt)
    if name == "connection_upper_lower":
        return _suite_connection(n_max or 10, corrupt)
    if name == "golden":
        return _suite_golden(depth, corrupt)
    if name == "abel_numeric":
        return _suite_abel_numeric(params, depth, corrupt)
    raise PreconditionError(f"unknown suite {name!r}")


def _report(name, identity, checks, witness=None, **extra):
    out = {
        "suite": name,
        "identity": identity,
        "checks": checks,
        "status": "pass" if witness is None else "fail",
        "witness": witness,
    }
    out.update(extra)
    return out


def _corrupted_sequence(seq, degree: int):
    """A copy of seq with a constant slipped into the given degree."""

    def step(n, _polys):
        p = seq[n]
        return p + Polynomial([1]) if n == degree else p

    return BinomialSequence(seq.operator, "corrupted", step)


# -- exact polynomial suites ----------------------------------------------


def _suite_abel(params, n_max, order, corrupt):
    b = params.get("b", Rat(1))
    op = catalog("abel", {"b": b}, order=max(order, n_max + 2))
    seq = generate_transfer(op, n_max)
    if corrupt:
        seq = _corrupted_sequence(seq, min(2, n_max))
    checks = 0
    witness = None
    for n in range(n_max + 1):
        # closed form x (x - nb)^(n-1) for n >= 1
        closed = Polynomial([1])
        if n >= 1:
            closed = Polynomial([0, 1])
            for _ in range(n - 1):
                closed = closed * Polynomial([-n * b, 1])
        if seq[n] != closed:
            witness = {"n": n, "kind": "closed form", "got": repr(seq[n])}
            break
        ok, w = verify_binomial_identity(seq, n)
        checks += n + 1
        if not ok:
            witness = w
            break
    return _report(
        "abel",
        f"Abel identity: x(x+a-nb)^(n-1) convolves binomially, b={b}",
        checks,
        witness,
    )


def _suite_vandermonde(n_max, order, corrupt):
    op = catalog("forward_difference", order=max(order, n_max + 2))
    seq = generate_transfer(op, n_max)
    if corrupt:
        seq = _corrupted_sequence(seq, min(2, n_max))
    checks = 0
    witness = None
    for n in range(n_max + 1):
        ok, w = verify_binomial_identity(seq, n)
        checks += (n + 1) ** 2
        if not ok:
            witness = w
            break
    return _report(
        "vandermonde",
        "Vandermonde convolution for falling factorials",
        checks,
        witness,
    )


def _suite_connection(n_max, corrupt):
    order = n_max + 6
    rising = catalog("backward_difference", order=order)
    falling = catalog("forward_difference", order=order)
    matrix = connection_constants(rising, falling, n_max)
    checks = 0
    witness = None
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
            checks += 1
            if got != want:
                witness = {"n": n, "k": n - k, "got": str(got), "want": str(want)}
                break
        if witness:
            break
    return _report(
        "connection_upper_lower",
        "falling factorials over rising: (-1)^k C(n-1,k) n!/(n-k)!",
        checks,
        witness,
    )


# -- harmonic-logarithm suites --------------------------------------------


def _suite_pincherle(corrupt):
    D = catalog("derivative")
    checks = 0
    witness = None
    for t in (0, 1, 2):
        for n in range(-6, 7):
            s = harmonic_log(n, t)
            lhs = apply_operator(D, roman_shift(s)) - roman_shift(
                apply_operator(D, s)
            )
            if corrupt and (t, n) == (1, 0):
                lhs = lhs + s
            checks += 1
            if lhs != s:
                witness = {"t": t, "n": n, "kind": "commutator"}
                break
        if witness:
            break
    if witness is None:
        for k in range(1, 6):
            for n in range(-6, 7):
                s = harmonic_log(n, 1)
                lhs = apply_operator(monomial(k), roman_shift(s)) - roman_shift(
                    apply_operator(monomial(k), s)
                )
                rhs = apply_operator(monomial(k - 1, Rat(k)), s)
                checks += 1
                if lhs != rhs:
                    witness = {"k": k, "n": n, "kind": "power rule"}
                    break
            if witness:
                break
    return _report(
        "pincherle",
        "commutators [D^k, sigma] = k D^(k-1) on harmonic logarithms",
        checks,
        witness,
    )


def _suite_logbinomial(params, depth, corrupt):
    values = [params["a"]] if "a" in params else [Rat(1), Rat(1, 2)]
    checks = 0
    witness = None
    for a in values:
        shift = catalog("shift", {"a": a}, order=depth + 1)
        for n in range(-5, 0):
            img = apply_operator(shift, harmonic_log(n, 1))
            for k in range(depth):
                want = roman_coefficient(n, k) * a**k
                if corrupt and (a, n, k) == (values[0], -1, 1):
                    want = want + 1
                checks += 1
                if img.coefficient(n - k) != want:
                    witness = {
                        "a": str(a),
                        "n": n,
                        "k": k,
                        "got": str(img.coefficient(n - k)),
                        "want": str(want),
                    }
                    break
            if witness:
                break
        if witness:
            break
    return _report(
        "logbinomial",
        "shifted harmonic logs expand with roman coefficients",
        checks,
        witness,
    )


def _suite_golden(depth, corrupt):
    op = catalog("forward_difference", order=2 * depth + 8)
    lam = harmonic_log(-1, 1)
    checks = 0
    witness = None
    for m in range(1, depth + 1):
        got = augmentation(apply_operator(int_pow(op.series, -m), lam))
        want = Rat((-1) ** (m + 1))
        checks += 1
        if got != want:
            witness = {"m": m, "kind": "residue", "got": str(got)}
            break
    if witness is None:
        coeffs = newton_expand(lam, depth=depth)
        for m in range(1, depth + 1):
            want = Rat(factorial(m - 1))
            if corrupt and m == 2:
                want = want + 1
            checks += 1
            if coeffs[-m] != want:
                witness = {"m": m, "kind": "newton", "got": str(coeffs[-m])}
                break
    if witness is None:
        # resummation: 1/x = sum (m-1)! (x)_(-m) window-exactly
        acc = None
        for m in range(1, depth + 1):
            term = log_lower_factorial(-m, depth=depth).truncate_floor(-depth)
            term = term.scale(factorial(m - 1))
            acc = term if acc is None else acc + term
        checks += 1
        if acc != lam.truncate_floor(-depth):
            witness = {"kind": "resummation", "got": repr(acc)}
    return _report(
        "golden",
        "1/x resums as sum of (m-1)! over falling-factorial tails",
        checks,
        witness,
    )


# -- numeric suite --------------------------------------------------------


def _suite_abel_numeric(params, depth, corrupt):
    a = params.get("a", Rat(1))
    b = params.get("b", Rat(2))
    x = params.get("x", Rat(5))
    tol = params.get("tol", DEFAULT_TOLERANCE)
    if not x > abs(b) > 0:
        raise PreconditionError("abel_numeric requires x0 > |b| > 0")
    if tol <= 0:
        raise PreconditionError(f"abel_numeric requires tol > 0, got {tol}")
    tol = _dec(tol)
    op = catalog("abel", {"b": b}, order=3 * depth + 10)
    seq = LogBinomialSequence(op, depth=depth + 2)
    checks = 0
    witness = None

    # identity 1: log(x+a) + b/(x+a) expands over the Abel tails with
    # coefficients roman(0|k) a(a-bk)^(k-1); certified exactly on the
    # window, then evaluated at x
    rhs = seq[0].truncate_floor(-depth)
    for k in range(1, depth + 1):
        w = roman_coefficient(0, k) * a * (a - b * k) ** (k - 1)
        rhs = rhs + seq[-k].truncate_floor(-depth).scale(w)
    if corrupt:
        rhs = rhs + harmonic_log(-1, 1).truncate_floor(-depth).scale(Rat(1, 10**5))
    for m in range(1, depth + 1):
        want = (-1) ** (m - 1) * a ** (m - 1) * (b + Rat(a, m))
        checks += 1
        if not corrupt and rhs.coefficient(-m) != want:
            witness = {"identity": 1, "m": m, "kind": "window coefficient"}
            break
    with localcontext() as ctx:
        ctx.prec = 40
        lhs_val = (_dec(x) + _dec(a)).ln() + _dec(Rat(b) / (x + a))
    diff1 = abs(evaluate_numeric(rhs, x, 30) - lhs_val)
    checks += 1
    if witness is None and diff1 >= tol:
        witness = {"identity": 1, "kind": "numeric", "difference": str(diff1)}

    # identity 2: b/x^2 resums over the Abel tails with coefficients
    # b(m-1)(mb)^(m-2); the window collapses to the single term b x^(-2),
    # with the term count grown until the floor is below the tolerance
    terms = depth
    diff2 = None
    while witness is None:
        deep = LogBinomialSequence(op, depth=terms + 2)
        acc = None
        for m in range(2, terms + 2):
            w = b * (m - 1) * (m * b) ** (m - 2)
            term = deep[-m].truncate_floor(-terms - 1).scale(w)
            acc = term if acc is None else acc + term
        checks += 1
        if acc.coeffs != {-2: b}:
            witness = {"identity": 2, "kind": "window collapse", "got": repr(acc)}
            break
        diff2 = abs(evaluate_numeric(acc, x, 30) - _dec(Rat(b) / x**2))
        if _dec(x) ** acc.floor < tol:
            checks += 1
            if diff2 >= tol:
                witness = {"identity": 2, "kind": "numeric", "difference": str(diff2)}
            break
        terms *= 2
        if terms > 256:
            witness = {"identity": 2, "kind": "no convergence"}
            break

    return _report(
        "abel_numeric",
        f"shifted-log expansion and b/x^2 resummation at x={x}, a={a}, b={b}",
        checks,
        witness,
        difference_1=str(diff1),
        difference_2=None if diff2 is None else str(diff2),
        tolerance=str(tol),
        terms=terms,
    )
