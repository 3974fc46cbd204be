"""Polynomial sequences of binomial type and their connection constants.

Every delta operator f(D) owns a unique basic sequence p_0, p_1, ... with
p_0 = 1, p_n(0) = 0 for n >= 1, and f p_n = n p_{n-1}. These sequences
satisfy the binomial identity

    p_n(x + a) = sum_k C(n, k) p_k(a) p_{n-k}(x),

which is certified here on an exact rational grid large enough to pin down
the bivariate polynomial. Every basic sequence is built one way: by
Rota's transfer formula p_n(x) = x (D/f(D))^n x^(n-1), which Lagrange
inversion turns into a read of the negative powers of f/t, so f is never
inverted. Three reads turn rows of the kernel's signed power table into
coefficients, here and in the logarithmic module alike, whose classical
coefficients are the nonnegative-degree slice of its logarithmic ones
(Loeb-Rota): _transfer_read for the basic sequence of f, _conjugate_read
for the conjugate sequence of g, and _expand_read for the coefficients
over the basic sequence of g. A unit f/t in the two-term class (abel,
laguerre, D + D^2) needs no table for the first: _rule_read makes each
transfer row straight off its rule. Connection constants are conjugate
rows; umbral composition completes the module.
"""
from __future__ import annotations

import operator
from fractions import Fraction as Rat
from itertools import islice
from math import comb
from typing import Sequence

from .errors import PreconditionError, require_order
from .numbers import _falling
from .operators import (
    DeltaOperator,
    Polynomial,
    ShiftInvariantOperator,
    _delta_series,
    _under_inverse,
)
from .series import (
    INF,
    _dense,
    _rat,
    _read,
    _unit_powers,
    compose,
    compositional_inverse,
    exp_series,
    monomial,
    mul,
)


class BinomialSequence:
    """Lazy basic sequence of a delta operator, keyed by degree: step(n)
    computes degree n on its first read, and it is kept. The step fixes the
    degrees and the row type, a Polynomial for n >= 0 here and a log window
    for any n in the logarithmic module, and raises PreconditionError for a
    degree it cannot determine. umbral_compose and verify_binomial_identity
    take polynomial sequences and refuse a row of any other type."""

    __slots__ = ("_operator", "generation_method", "_rows", "_step")

    def __init__(self, operator, generation_method, step):
        self._operator = operator  # or a function building it on first read
        self.generation_method = generation_method
        self._rows = {}
        self._step = step

    @property
    def operator(self):
        if callable(self._operator) and not isinstance(self._operator, ShiftInvariantOperator):
            self._operator = self._operator()
        return self._operator

    def __getitem__(self, n: int):
        if n not in self._rows:
            self._rows[n] = self._step(n)
        return self._rows[n]

    def terms(self, n_max: int) -> list:
        return [self[n] for n in range(n_max + 1)]

    def __repr__(self):
        label = self.generation_method
        op = getattr(self.operator, "name", None) or "?"
        return f"<basic sequence of {op} via {label}, {len(self._rows)} cached>"


def _nonnegative(n):  # the refusal of a polynomial sequence's step
    if n < 0:
        raise PreconditionError("binomial sequences are indexed by n >= 0")


def _polynomial_row(seq, n):
    """Row n of seq, refused unless it is a Polynomial (not a log window)."""
    if not isinstance(row := seq[n], Polynomial):
        raise PreconditionError(f"a polynomial sequence is needed: row {n} is a {type(row).__name__}")
    return row


def _transfer_read(row, n, depth):
    """Degree n - k of the basic sequence of f, roman(n)!/roman(n-k)! (n-k)/n
    [t^k] u^(-n), for each k < depth, off ``row`` = u^(-n), u = f/t, n != 0:
    weight roman(n-1)!/roman(n-1-k)!; k = n, weight 0, is left out."""
    num, den = row
    return {n - k: _rat(r * num[k], den) for k, r in enumerate(_falling(n - 1, range(depth))) if k != n}


def _rule_read(rule, n, depth):
    """_transfer_read of u^(-n) for a unit u with _two_term_rule ``rule``,
    made off the rule alone: u^(-n) solves (1 + rt) p' = -nc p, so the
    weighted coefficient c_k = roman(n-1)!/roman(n-1-k)! [t^k] u^(-n) steps
    c_(k+1) = c_k roman(n-1-k) (-n cn - rn k) / (L (k+1)) from u_0^(-n), one
    _rat per coefficient from the last one's reduced numerator p and
    denominator q, carried as ints. It is not _rule_row followed by
    _transfer_read: that row is built over den(u_0^(-n)) L^(w-1) (w-1)!,
    which a gcd over the whole row then cancels, and each weighted
    coefficient is cancelled again."""
    u0, cn, rn, L = rule
    x, a = u0**-n, -n * cn
    out, p, q = {n: x}, x.numerator, x.denominator
    for k in range(depth - 1):
        x = _rat(p * ((n - 1 - k) or 1) * (a - rn * k), q * L * (k + 1))
        p, q = x._numerator, x._denominator  # the slots _rat filled: no property call
        if k + 1 != n:
            out[n - k - 1] = x
    return out


def _conjugate_read(powers, n, js):
    """Degree n - j of the conjugate sequence of g, roman(n)!/roman(n-j)!
    [t^j] u^(n-j), for each j of the nondecreasing js, off the power table
    of u = g/t."""
    return {n - j: _rat(r * powers[n - j][0][j], powers[n - j][1])
            for j, r in zip(js, _falling(n, js))}


def _expand_read(coeffs, g, ks):
    """a_k = sum_(j >= k) c_j roman(j)!/roman(k)! [t^(j-k)] u^k, u = g/t, for
    each k of ks: the coefficients of sum_j c_j x^j (or of harmonic logs)
    over the basic sequence of g itself, for coeffs = {j: c_j}, j <= max(ks)."""
    top, lo = max(ks), min(ks)
    powers = _unit_powers(g, {k: top - k + 1 for k in ks})
    # roman(j)!/roman(k)! = falling[top - k] / falling[top - j]: weights c_j/falling[top - j]
    falling = _falling(top, range(top - lo + 1))
    cs = (coeffs.get(j, 0) for j in range(lo, top + 1))  # Fractions, or the int 0
    weights, wd = _dense([_rat(c.numerator, c.denominator * f) for c, f in zip(cs, reversed(falling))])
    return {k: _rat(sum(map(operator.mul, weights[k - lo:], powers[k][0])) * falling[top - k],
                    wd * powers[k][1]) for k in ks}


def _conjugate(operator, method, source, window, n_max, transfer=False) -> BinomialSequence:
    """The conjugate sequence p_n(x) = sum_k n! [t^n] g^k x^k / k! of the
    delta series g that ``source(w)`` gives determined below t^w; row n
    needs order n + 1 and is computed when it is read. Rows n <= s are
    _conjugate_read off one power table of u = g/t, u^k on its first
    s - k + 1 coefficients, which the first read builds at s = max(n, n_max);
    a later row rebuilds it at least twice as wide. With ``transfer``,
    ``source(w)`` gives f and its inverse g is never built: row n is the
    transfer read of u^(-n), u = f/t, as [t^n] g^k = (k/n) [t^(n-k)] (f/t)^(-n).
    Row -n serves row n alone, so it is built on its own n coefficients, only
    for rows past those served, and dropped once read. A unit whose kernel
    read at width s has a _two_term_rule needs no table for rows n <= s:
    each is _rule_read off the rule, and a later row past s checks the rule
    again at the wider s; where it stops fitting, the rows past the last
    width that fit come from the table."""
    powers = {}
    extent = ruled = 0  # rows 1..extent are served; with transfer, 1..ruled off ``rule``
    rule = None

    def step(n):
        nonlocal extent, ruled, rule
        _nonnegative(n)
        if n == 0:
            return Polynomial([1])
        require_order(f"truncation too small for exact action: row {n}", n + 1, window)
        if n > extent:
            s = min(max(n, n_max, 2 * extent), window - 1)
            g = source(s + 1)
            if not transfer:  # rows 1..s, u^k on s - k + 1 coefficients
                powers.update(_unit_powers(g, {1 + i: s - i for i in range(s)}))
            elif ruled == extent and (fit := _read(g, s)[1]):
                rule, ruled = fit, s
            else:  # rows -extent-1..-s, u^(-m) on m coefficients
                powers.update(_unit_powers(g, {-m: m for m in range(extent + 1, s + 1)}))
            extent = s
        if not transfer:
            row = _conjugate_read(powers, n, range(n))
        elif n <= ruled:
            row = _rule_read(rule, n, n)
        else:
            row = _transfer_read(powers.pop(-n), n, n)
        return Polynomial([0, *reversed(row.values())])  # the read runs degree n down to 1

    require_order(f"truncation too small for exact action: row {n_max}", n_max + 1, window)
    return BinomialSequence(operator, method, step)


def generate_transfer(f: DeltaOperator, n_max: int = 0) -> BinomialSequence:
    """Basic sequence of f by Rota's transfer formula,
    p_n(x) = x (D/f(D))^n x^(n-1), the transfer read of the negative powers
    of f/t; f is never inverted. Row n is determined while n is below the
    order of f.

    A row is computed when it is read; n_max sizes the power table the first
    read builds, so rows 0..n_max read one table, whose rows are dropped as
    they are read. A unit f/t in the two-term class builds none: each row
    is read off its rule. Later rows stay available.
    """
    fs = _delta_series(f)
    return _conjugate(f, "transfer", lambda w: fs, fs.order, n_max, transfer=True)


def generate_recurrence(f: DeltaOperator, n_max: int = 0) -> BinomialSequence:
    """Basic sequence of f; the same sequence generate_transfer builds."""
    return generate_transfer(f, n_max)


def conjugate_sequence(g, n_max: int = 0) -> BinomialSequence:
    """Conjugate sequence of a delta series g: the polynomials

        p_n(x) = sum_k (n! [t^n] g(t)^k / k!) x^k,

    which form the basic sequence of the compositional inverse of g."""
    gs = _delta_series(g)

    def operator():  # inverting g is paid for only when .operator is read
        try:
            return DeltaOperator(compositional_inverse(gs), name="conjugate")
        except PreconditionError:
            return None

    return _conjugate(operator, "conjugate", lambda w: gs, gs.order, n_max)


def taylor_expand(p: Polynomial, q: DeltaOperator) -> list:
    """Generalized Taylor coefficients d_k = (q^k p)(0) / k!, so that
    p = sum_k d_k q_k with q_k the basic sequence of q: the expansion read,
    d_k = sum_(j >= k) p_j j!/k! [t^(j-k)] (q/t)^k."""
    qs = _delta_series(q)
    n = max(p.degree, 0)  # the zero polynomial has the one coefficient 0
    require_order(f"truncation too small for exact action: row {n}", n + 1, qs.order)
    return list(_expand_read(dict(enumerate(p.coeffs)), qs, range(n + 1)).values())


class ConnectionMatrix:
    """Lower-triangular constants c_{nk} expressing one basic sequence in
    another: target_n(x) = sum_k c_{nk} source_k(x).

    ``entries`` is a tuple of row tuples. An entry whose type is exactly
    Fraction is kept as the same object; anything else becomes Fraction(c).
    Rows are indexed 0..size - 1; a row outside that range is refused, and
    entry(n, k) reads 0 for k outside row n."""

    __slots__ = ("entries", "source", "target")

    def __init__(self, entries: Sequence[Sequence[Rat]], source="source", target="target"):
        self.entries = tuple(tuple(c if type(c) is Rat else Rat(c) for c in row) for row in entries)
        self.source = source
        self.target = target

    def entry(self, n: int, k: int) -> Rat:
        row = self.row(n)
        return row[k] if 0 <= k < len(row) else Rat(0)

    def row(self, n: int):
        if not 0 <= n < len(self.entries):
            raise PreconditionError(
                f"connection matrix row n = {n} is out of range for size {len(self.entries)}"
            )
        return self.entries[n]

    @property
    def size(self):
        return len(self.entries)

    def __repr__(self):
        return (
            f"<connection constants: {self.target} in terms of {self.source}, "
            f"{self.size} rows>"
        )


def connection_constants(g: DeltaOperator, h: DeltaOperator, n_max: int) -> ConnectionMatrix:
    """Constants c_{nk} with h-basic_n = sum_k c_{nk} g-basic_k.

    They are the coefficients of the basic sequence of h(g^(-1)(D)): the
    umbral map sending the g-sequence to the h-sequence is polynomial
    substitution into that sequence. That sequence is the conjugate
    sequence of g(h^(-1)(t)), so its rows come from one inversion, of h."""
    gs, hs = _delta_series(g), _delta_series(h)
    bridge = _conjugate(None, "conjugate", lambda w: _under_inverse(gs, hs, w - 1),
                        min(gs.order, hs.order), n_max)
    entries = [p.coeffs + (Rat(0),) * (n + 1 - len(p.coeffs))
               for n, p in enumerate(bridge.terms(n_max))]
    return ConnectionMatrix(
        entries,
        source=getattr(g, "name", None) or "g",
        target=getattr(h, "name", None) or "h",
    )


def umbral_compose(q, p: BinomialSequence) -> BinomialSequence:
    """Umbral composition r_n = q_n(p): substitute the sequence p into the
    coefficient rows of q. When q is the basic sequence of f and p the
    basic sequence of g, the result is the basic sequence of f(g(D)).

    q may be a BinomialSequence, a ConnectionMatrix, or bare coefficient
    rows."""
    q_seq = q if isinstance(q, BinomialSequence) else None
    if q_seq is None:
        rows = (q if isinstance(q, ConnectionMatrix) else ConnectionMatrix(q)).entries

    def step(n):
        _nonnegative(n)
        if q_seq is None and n >= len(rows):
            raise PreconditionError("umbral composition beyond supplied rows")
        acc = Polynomial()
        for k, c in enumerate(rows[n] if q_seq is None else _polynomial_row(q_seq, n).coeffs):
            if c != 0:
                acc = acc + _polynomial_row(p, k).scale(c)
        return acc

    def operator():  # composing the two operators is paid for only when read
        if q_seq.operator is None or p.operator is None:
            return None
        return DeltaOperator(compose(q_seq.operator.series, p.operator.series), name="umbral")

    return BinomialSequence(operator if q_seq is not None else None, "umbral", step)


def ramey_sequence(f: DeltaOperator, b, n_max: int = 0) -> BinomialSequence:
    """Basic sequence of the shifted operator E^b f(D); for the forward
    difference this produces the Gould polynomials. A truncated f keeps its
    order, so rows past n_max stay available below it; an exact f gets the
    least order that determines row max(n_max, 1), and a later row raises
    PreconditionError."""
    fs = f.series
    b = Rat(b)
    # row n_max needs the shifted series below t^(n_max + 1), and a delta
    # series below t^2 at least: by the window rule of mul, e^(bt) below
    # t^max(n_max, 1) times an exact f of valuation one
    order = fs.order if fs.order != INF else max(n_max, 1)
    shifted = mul(exp_series(monomial(1, b), order=order), fs)
    op = DeltaOperator(
        shifted, name="ramey", parameters={"b": b, "base": getattr(f, "name", None)}
    )
    return generate_transfer(op, n_max)


def _int_values(coeffs, top: int) -> list:
    """c(0), c(1), ..., c(top) by Horner, for integer coefficients c."""
    out = []
    for v in range(top + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * v + c
        out.append(acc)
    return out


def verify_binomial_identity(s: BinomialSequence, n: int):
    """Certify p_n(x+a) = sum_k C(n,k) p_k(a) p_{n-k}(x) on an exact
    (n+1) x (n+1) integer grid, which pins down the bivariate polynomial
    identity. Returns (True, None) or (False, witness dict) for the first
    failing point, x outer and a inner.

    p_0..p_n are put over one common denominator L and evaluated once at
    each integer point they meet, by Horner on integer numerators: p_k on
    0..n, and p_n on 0..2n for the left side. Each point then compares
    L^2 p_n(x+a) with sum_k C(n,k) (L p_k(a)) (L p_{n-k}(x)) in plain ints,
    O(n) per point and O(n^3) per call."""
    if n < 0:
        raise PreconditionError(f"the binomial identity needs n >= 0, got n = {n}")
    polys = [_polynomial_row(s, k) for k in range(n + 1)]
    flat, den = _dense([c for p in polys for c in p.coeffs])
    run = iter(flat)
    vals = [
        _int_values(list(islice(run, len(p.coeffs))), 2 * n if k == n else n)
        for k, p in enumerate(polys)
    ]
    for x in range(n + 1):
        for a in range(n + 1):
            lhs = den * vals[n][x + a]
            rhs = sum(comb(n, k) * vals[k][a] * vals[n - k][x] for k in range(n + 1))
            if lhs != rhs:
                sq = den * den
                return False, {
                    "n": n, "x": Rat(x), "a": Rat(a), "lhs": Rat(lhs, sq), "rhs": Rat(rhs, sq)
                }
    return True, None
