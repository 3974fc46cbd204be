"""Harmonic logarithms and the logarithmic extension of binomial sequences.

The harmonic logarithms of order t are the functions spanned, for integer
degree n, by x^n (log x)^j. They extend the monomials (order 0, degrees
n >= 0) to a basis on which every Laurent series in D acts: the derivative
maps the degree-n element to roman(n) times the degree n-1 element, with
no degree ever annihilated (for t >= 1), so negative powers of D act as
well.

A HarmonicLogSeries is a window sum c_d lambda_d known exactly from its
floor up and known zero above its top stored degree, held as the
reflected truncated series sum c_d t^(-d), known below t^(1 - floor); a
floor of -infinity means the series is exact. Its arithmetic is the
series' arithmetic. Scaled by roman(d)!, degree d is moved by D^k to
t^(k-d), so an operator T acts by one series product, and the product
rule for the series' order is the window rule:

    top'   = top - valuation(T)
    floor' = max(floor - valuation(T), top - order(T) + 1)

Delta operators have logarithmic basic sequences extending their classical
ones to all integer degrees. Every window here is read, not computed by an
operator action: degree n - k is roman(n)!/roman(n-k)!, the falling product
roman(n) roman(n-1) ... roman(n-k+1), times one coefficient of a power of
one series (Loeb-Rota logarithmic Lagrange inversion), read off the
kernel's signed power table by the sequences module's reads, of which
the classical rows are the slice n >= 0: the transfer read of row -n of
the table of f(t)/t (degree 0 alone reads f'(t) times row -1), the
conjugate read of the rows of g/t, and the expansion read of (e^t - 1)/t.
"""
from __future__ import annotations

from decimal import Decimal, Overflow, localcontext
from fractions import Fraction as Rat
from functools import cache
from typing import Mapping, Optional

from .errors import PreconditionError, require_order
from .numbers import _falling, roman_factorial, stirling_first
from .operators import DeltaOperator, _act, _delta_series, _series_of, catalog
from .sequences import _conjugate_read, _expand_read, _transfer_read
from .series import INF, TruncatedSeries, _dense, _mul_trunc, _unit_powers

NEG_INF = float("-inf")


class HarmonicLogSeries:
    """A window of harmonic-logarithm coefficients of a fixed order t, held
    as the reflected ``series``: c_d at t^(-d), known below t^(1 - floor).
    coeffs maps degree -> nonzero rational coefficient; degrees below
    ``floor`` are unknown."""

    __slots__ = ("order_t", "series")

    def __init__(self, coeffs: Mapping[int, Rat] = (), floor=NEG_INF, order_t: int = 1):
        if not (isinstance(order_t, int) and order_t >= 0):
            raise PreconditionError("order t must be a nonnegative integer")
        _check_floor(floor)
        self._hold(TruncatedSeries({-d: c for d, c in dict(coeffs).items()}, 1 - floor), order_t)

    def _hold(self, series: TruncatedSeries, order_t: int) -> "HarmonicLogSeries":
        if order_t == 0 and series.order >= 1:
            # harmonic logarithms of order zero vanish in negative degree, so
            # at a floor <= 0 everything below degree zero is known zero
            series = TruncatedSeries({e: c for e, c in series.coeffs.items() if e <= 0})
        self.order_t = order_t
        self.series = series
        return self

    # -- structure queries ------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """degree -> nonzero coefficient, read off the series on each call."""
        return {-e: c for e, c in self.series.coeffs.items()}

    @property
    def floor(self):
        """Lowest known degree; -infinity for an exact series."""
        return 1 - self.series.order

    @property
    def top(self):
        """Highest known nonzero degree; floor - 1 for an empty window."""
        return -self.series.valuation

    @property
    def is_exact(self) -> bool:
        return self.series.order == INF

    @property
    def is_empty(self) -> bool:
        return self.series.is_zero

    def coefficient(self, d: int) -> Rat:
        if -d >= self.series.order:
            raise PreconditionError("coefficient below window floor")
        return self.series.coefficient(-d)

    def truncate_floor(self, new_floor: int) -> "HarmonicLogSeries":
        """Forget coefficients below new_floor (floors can only rise: an
        exact floor of -infinity is refused for a window that has a floor)."""
        if new_floor < self.floor:
            raise PreconditionError("truncation too small for exact action")
        return _window(self.series.truncate(1 - _check_floor(new_floor)), self.order_t)

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "HarmonicLogSeries") -> "HarmonicLogSeries":
        if not isinstance(other, HarmonicLogSeries):
            return NotImplemented
        if self.order_t != other.order_t:
            raise PreconditionError("cannot add series of different orders")
        return _window(self.series + other.series, self.order_t)

    def __neg__(self):
        return _window(-self.series, self.order_t)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HarmonicLogSeries":
        return _window(self.series.scale(c), self.order_t)

    def __eq__(self, other):
        if not isinstance(other, HarmonicLogSeries):
            return NotImplemented
        return self.order_t == other.order_t and self.series == other.series

    def __hash__(self):
        return hash((self.order_t, self.series))

    def agrees_with(self, other: "HarmonicLogSeries") -> bool:
        """Coefficient equality on the overlap of the known windows."""
        return self.order_t == other.order_t and self.series.agrees_with(other.series)

    def __repr__(self):
        body = " + ".join(f"{c}*L[{-e}]" for e, c in sorted(self.series.coeffs.items()))
        tail = "" if self.is_exact else f" (floor {self.floor})"
        return f"<order-{self.order_t} log series: {body or '0'}{tail}>"


def _check_floor(floor):
    if not (floor == NEG_INF or isinstance(floor, int)):
        raise PreconditionError("floor must be an integer or -infinity")
    return floor


def _window(series: TruncatedSeries, order_t: int) -> HarmonicLogSeries:
    """The window of order t held by a reflected series."""
    return HarmonicLogSeries.__new__(HarmonicLogSeries)._hold(series, order_t)


# -- basis elements ------------------------------------------------------


def harmonic_log(n: int, t: int = 1) -> HarmonicLogSeries:
    """The single basis element of degree n and order t (exact)."""
    return HarmonicLogSeries({n: Rat(1)}, NEG_INF, t)


@cache
def monomial_expansion(n: int, t: int):
    """The degree-n order-t harmonic logarithm as a polynomial in log x:

        lambda_n^(t) = x^n sum_i m_i (log x)^i

    returned as the mapping {i: m_i}, m_(t-k) = roman(n)! (t)_k s(-n, k): the
    falling factorials (t)_k of numbers._falling, Stirling numbers of degree -n."""
    out = {}
    for k, falling in enumerate(_falling(t, range(t + 1))):
        coeff = roman_factorial(n) * falling * stirling_first(-n, k, order=t + 2)
        if coeff != 0:
            out[t - k] = coeff
    return out


# -- operator action -----------------------------------------------------


def apply_operator(T, s: HarmonicLogSeries) -> HarmonicLogSeries:
    """Apply a (possibly Laurent) series in D to a harmonic-log window.

    Each D^k sends degree j to roman(j)!/roman(j-k)! times degree j-k; no
    term is annihilated for order t >= 1, so negative k acts as well. The
    action is one series product (operators._act) of T with the reflected
    window, known below t^(1 - floor); the result's floor is one minus that
    product's order, which is the window rule

        top' = top - val(T),  floor' = max(floor - val(T), top - order(T) + 1).
    """
    return _window(_act(_series_of(T), s.series), s.order_t)


def roman_shift(s: HarmonicLogSeries) -> HarmonicLogSeries:
    """The shift degree n -> n+1 that annihilates degree -1 (the map
    sigma); together with D it satisfies the commutation rule
    [D, sigma] = identity on every order t >= 1. On the reflected series
    it drops t^1 (degree -1) and shifts the rest by t^(-1)."""
    w = s.series
    # at floor 0, degree 0 of the image comes only from degree -1, which is
    # annihilated, so it is known zero even though -1 is below floor
    order = w.order if w.order == 1 else w.order - 1
    return _window(TruncatedSeries({e - 1: c for e, c in w.coeffs.items() if e != 1}, order), s.order_t)


def augmentation(s: HarmonicLogSeries, t: Optional[int] = None) -> Rat:
    """The degree-zero coefficient functional of order t. Series of a
    different order have augmentation zero; asking for the coefficient of
    an unknown degree raises."""
    if t is None:
        t = s.order_t
    if t != s.order_t:
        return Rat(0)
    if s.floor > 0:
        raise PreconditionError("augmentation outside window")
    return s.series.coefficient(0)


def skip(s: HarmonicLogSeries, to_t: int) -> HarmonicLogSeries:
    """Relabel the window to another order with identical coefficients
    (the degree-preserving isomorphism between log orders; moving to order
    zero forgets the negative-degree tail)."""
    return HarmonicLogSeries(s.coeffs, s.floor, to_t)


# -- logarithmic basic sequences ------------------------------------------


def _known_to(s, needed: int, depth: int):
    """s itself, refused when it is not known to order ``needed``. It is not
    cut there: the power table reads only the coefficients it needs."""
    require_order(f"truncation too small for exact action: depth {depth}", needed, s.order)
    return s


def _transfer_input(f, depth: int):
    """f's delta series, refused for a depth below 1 or when not known to
    order depth + 1, the least a window of ``depth`` coefficients needs."""
    if depth < 1:
        raise PreconditionError(f"log_sequence needs depth >= 1, got {depth}")
    return _known_to(_delta_series(f), depth + 1, depth)


def log_sequence(f, n: int, depth: int = 12) -> HarmonicLogSeries:
    """Degree-n term of the logarithmic basic sequence of f, as a window
    of ``depth`` coefficients [n-depth+1, n] over the order-1 basis.

    Uses the transfer formula p_n = f'(D) (f/D)^(-n-1) lambda_n, valid for
    every integer n; the classical polynomials reappear for n >= 0. With
    u = f/t, degree n - k is roman(n)!/roman(n-k)! [t^k] f' u^(-n-1). For
    n != 0 that is roman(n)!/roman(n-k)! (n-k)/n [t^k] u^(-n), since
    f' = u + t u' and t u' u^(-n-1) = -(t/n) (u^(-n))': the transfer read of
    row -n of f's power table cut to order depth + 1, as generate_transfer.
    Degree 0 alone reads f' times row -1 in one integer product. The window
    is exact when f is known to order depth + 1, and refused otherwise."""
    fs = _transfer_input(f, depth)
    if n:
        read = _transfer_read(_unit_powers(fs, {-n: depth})[-n], n, range(depth))
        return HarmonicLogSeries(read, n - depth + 1)
    row, rd = _unit_powers(fs, {-1: depth})[-1]
    fprime, fd = _dense([k * fs.coefficient(k) for k in range(1, depth + 1)])
    row, rd = _mul_trunc(fprime, row, depth), fd * rd
    window = {k: Rat(r * x, rd) for k, (r, x) in enumerate(zip(_falling(0, range(depth)), row))}
    return _window(TruncatedSeries(window, depth), 1)


class LogBinomialSequence:
    """Lazily computed logarithmic basic sequence of a delta operator,
    indexed by any integer degree. A depth or an operator that log_sequence
    refuses is refused here, at construction."""

    __slots__ = ("operator", "depth", "_terms")

    def __init__(self, operator: DeltaOperator, depth: int = 12):
        _transfer_input(operator, depth)
        self.operator = operator
        self.depth = depth
        self._terms = {}

    def __getitem__(self, n: int) -> HarmonicLogSeries:
        if n not in self._terms:
            self._terms[n] = log_sequence(self.operator, n, self.depth)
        return self._terms[n]

    def __repr__(self):
        op = getattr(self.operator, "name", None) or "?"
        return f"<log basic sequence of {op}, depth {self.depth}>"


def log_lower_factorial(n: int, depth: int = 12) -> HarmonicLogSeries:
    """Degree-n logarithmic lower factorial (x)_n^(1): the log basic
    sequence of the forward difference, as a window of ``depth``
    coefficients."""
    return log_sequence(catalog("forward_difference", order=depth + 1), n, depth)


def log_conjugate_sequence(g, n: int, depth: int = 12) -> HarmonicLogSeries:
    """Degree-n term of the logarithmic conjugate sequence of g: the
    window sum_k c_k lambda_k^(1) with c_k = <g^k lambda_n> / roman(k)!.

    Degree n - j is the conjugate read roman(n)!/roman(n-j)! [t^j] u^(n-j),
    u = g/t. The window [n-depth+1, n] is exact when g is known to order depth + 1
    (to order depth when it ends at degree 0, whose coefficient is exact),
    and refused otherwise."""
    if depth < 1:
        raise PreconditionError(f"log_conjugate_sequence needs depth >= 1, got {depth}")
    # row n - j is read on its first j + 1 coefficients; when the widest,
    # j = depth - 1, is row 0 = 1, u is read on depth - 1 only
    gs = _known_to(_delta_series(g), depth + (n != depth - 1), depth)
    powers = _unit_powers(gs, {n - j: j + 1 for j in range(depth)})
    return HarmonicLogSeries(_conjugate_read(powers, n, range(depth)), n - depth + 1)


def newton_expand(s: HarmonicLogSeries, depth: int = 12) -> dict:
    """Newton coefficients a_k of s over the logarithmic lower factorials,
    a_k = <FD^k s> / roman(k)!, for the ``depth`` degrees below the top of
    s: the expansion read over FD, one dot product per k over the powers
    of FD/t, exact when s is known down to the lowest k, top - depth + 1; a
    shallower window is refused."""
    if depth < 1:
        raise PreconditionError(f"newton_expand needs depth >= 1, got {depth}")
    if s.is_empty:
        return {}
    top = s.top
    lo = top - depth + 1
    if s.floor > lo:
        raise PreconditionError(f"truncation too small for exact action: depth {depth} "
                                f"needs the window down to degree {lo}, given floor {s.floor}")
    return _expand_read(s.coeffs, catalog("forward_difference", order=depth + 1).series,
                        range(top, lo - 1, -1))


# -- numeric boundary ----------------------------------------------------


def evaluate_numeric(s: HarmonicLogSeries, x0, precision: int = 28) -> Decimal:
    """Evaluate the known window at a positive rational point using
    decimal arithmetic with the requested number of digits."""
    x0 = Rat(x0)
    if x0 <= 0:
        raise PreconditionError("evaluate_numeric requires x0 > 0")
    with localcontext() as ctx:
        ctx.prec = precision + 10
        xv = Decimal(x0.numerator) / Decimal(x0.denominator)
        lv = xv.ln()
        total = Decimal(0)
        try:
            for d, c in sorted(s.coeffs.items()):
                base = _dec(c) * xv**d
                for i, m in monomial_expansion(d, s.order_t).items():
                    # (log x)^0 is 1 even at x = 1, where Decimal refuses 0**0
                    total += base * _dec(m) * (lv**i if i else 1)
        except Overflow:
            raise PreconditionError(f"degree {d} at x0 = {x0} overflows the decimal range") from None
        ctx.prec = precision
        return +total


def tail_bound(s: HarmonicLogSeries, x0, precision: int = 28) -> Optional[Decimal]:
    """Estimate of the unknown tail below the window floor at x0, assuming
    the coefficients continue at the growth rate seen inside the window
    (geometric-type continuation). Returns None when no safe estimate is
    available (growth rate at or above x0), and 0 for exact series."""
    x0 = Rat(x0)
    if x0 <= 0:
        raise PreconditionError("tail_bound requires x0 > 0")
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
    with localcontext() as ctx:
        ctx.prec = precision + 10
        xv = Decimal(x0.numerator) / Decimal(x0.denominator)
        q = _dec(rho) / xv
        head = _dec(anchor) * xv ** int(s.floor)
        bound = head * q / (1 - q)
        if s.order_t >= 1 and s.floor > 0:
            # tail terms may still carry log factors
            lv = abs(xv.ln())
            bound *= max(Decimal(1), lv) ** s.order_t
        ctx.prec = precision
        return +bound


def _dec(q: Rat) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)
