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
the table of f(t)/t through _transfer_reader (degree 0 alone reads f'(t)
times row -1), the conjugate read of the rows of g/t, and the expansion
read of (e^t - 1)/t.
Evaluated, degree d is x^d times a polynomial in log x whose coefficients
are symmetric functions of 1, 1/2, ..., 1/|d|, never a factorial.
"""
from __future__ import annotations

from decimal import MAX_PREC, Decimal, Overflow, Subnormal, Underflow, getcontext, localcontext
from fractions import Fraction as Rat
from functools import cache, cmp_to_key
from typing import Mapping, Optional

from .errors import PreconditionError, require_order
from .numbers import _falling, _linear_product
from .operators import DeltaOperator, _act, _delta_series, _series_of, catalog
from .sequences import BinomialSequence, _conjugate_read, _expand_read, _transfer_reader
from .series import INF, TruncatedSeries, _dense, _mul_trunc, _power_row, _rat, _unit_powers

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

    returned as {i: m_i}, descending i. m_(t-k) = (t)_k roman(n)! s(-n, k) is
    (t)_k [y^k] prod_(j<=n) 1/(1 + y/j) for n >= 0 and (t)_k [y^(k-1)]
    prod_(r<|n|) (1 - y/r) for n < 0 (Roman, JCTA 63, 1993), read off the |n|
    integer linear factors cut at y^(t+1): lambda_n^(1) = x^n (log x - H_n)
    for n >= 0, and x^n for n < 0, where no product is formed."""
    sign = 1 if n >= 0 else -1
    w = t + (sign > 0)  # y^0..y^t are read, y^0..y^(t-1) for n < 0
    row, den = [1][:w], 1  # below width 2, only the constant term 1
    if w > 1:
        prod = _linear_product(1, abs(n) + (sign > 0), sign, w)
        row, den = _power_row(prod, prod[0], -sign, w)
    row = row if sign > 0 else [0, *row]  # m_(t-k) reads [y^(k-1)] for n < 0
    return {t - k: _rat(f * row[k], den) for k, f in enumerate(_falling(t, range(t + 1))) if row[k]}



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
    row -n of f's power table at depth, through _transfer_reader as in
    generate_transfer. Degree 0 alone reads f' times row -1 in one integer
    product. The window is exact when f is known to order depth + 1, and
    refused otherwise."""
    fs = _transfer_input(f, depth)
    if n:
        return HarmonicLogSeries(_transfer_reader(fs)(n, depth, {-n: depth}), n - depth + 1)
    row, rd = _unit_powers(fs, {-1: depth})[-1]
    fprime, fd = _dense([k * fs.coefficient(k) for k in range(1, depth + 1)])
    row, rd = _mul_trunc(fprime, row, depth), fd * rd
    window = {k: _rat(r * x, rd) for k, (r, x) in enumerate(zip(_falling(0, range(depth)), row))}
    return _window(TruncatedSeries(window, depth), 1)


class LogBinomialSequence(BinomialSequence):
    """Logarithmic basic sequence of a delta operator, keyed by any integer
    degree: step n is log_sequence(operator, n, depth). A depth or an
    operator that log_sequence refuses is refused here, at construction."""

    __slots__ = ("depth",)

    def __init__(self, operator: DeltaOperator, depth: int = 12):
        _transfer_input(operator, depth)
        super().__init__(operator, f"log transfer at depth {depth}",
                         lambda n: log_sequence(operator, n, depth))
        self.depth = depth


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
    """Evaluate the known window at a positive rational point with the requested
    number of decimal digits; a term past the decimal range is refused."""
    x0 = Rat(x0)
    if x0 <= 0:
        raise PreconditionError("evaluate_numeric requires x0 > 0")
    with _context(precision) as ctx:
        xv = Decimal(x0.numerator) / Decimal(x0.denominator)
        lv = xv.ln()
        total = Decimal(0)
        try:
            bases = {}
            for d, c in sorted(s.coeffs.items()):  # every power before any expansion
                bases[d] = _dec(c) * xv**d
            for d, base in bases.items():
                for i, m in monomial_expansion(d, s.order_t).items():
                    # (log x)^0 is 1 even at x = 1, where Decimal refuses 0**0
                    total += base * _dec(m) * (lv**i if i else 1)
            ctx.prec = precision
            return +total
        except (Overflow, Subnormal) as err:
            side = "over" if isinstance(err, Overflow) else "under"
            raise PreconditionError(f"degree {d} at x0 = {x0} {side}flows the decimal range") from None


def tail_bound(s: HarmonicLogSeries, x0, precision: int = 28) -> Optional[Decimal]:
    """Estimate of the unknown tail below the window floor at x0, assuming
    the coefficients continue at the growth rate seen inside the window
    (geometric-type continuation). Returns None when no safe estimate is
    available (growth rate at or above x0), and 0 for exact series. The rate
    rho = max |c_d|/|c_(d+1)| is found by integer cross-products."""
    x0 = Rat(x0)
    if x0 <= 0:
        raise PreconditionError("tail_bound requires x0 > 0")
    context = _context(precision)
    if s.is_exact:
        return Decimal(0)
    if s.is_empty:
        return None
    coeffs = s.coeffs
    ratios = [(abs(c.numerator) * b.denominator, c.denominator * abs(b.numerator))
              for d, c in coeffs.items() if (b := coeffs.get(d + 1)) is not None]
    if not ratios:
        return None
    rho = Rat(*max(ratios, key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])))
    if rho >= x0:
        return None
    anchor = abs(coeffs.get(s.floor, Rat(0))) or max(abs(c) for c in coeffs.values())
    with context as ctx:
        try:
            xv = Decimal(x0.numerator) / Decimal(x0.denominator)
            q = _dec(rho) / xv
            bound = _dec(anchor) * xv ** int(s.floor) * q / (1 - q)
            if s.order_t >= 1 and s.floor > 0:
                # tail terms may still carry log factors
                bound *= max(Decimal(1), abs(xv.ln())) ** s.order_t
            ctx.prec = precision
            return +bound
        except (Overflow, Subnormal) as err:
            side = "over" if isinstance(err, Overflow) else "under"
            raise PreconditionError(f"floor {s.floor} at x0 = {x0} {side}flows the decimal range") from None


def _context(precision):
    """A local decimal context of precision + 10 digits trapping underflow."""
    if not (isinstance(precision, int) and 1 <= precision <= MAX_PREC - 10):
        raise PreconditionError(f"precision must be a positive integer, got {precision!r}")
    ctx = getcontext().copy()
    ctx.prec = precision + 10
    ctx.traps[Underflow] = ctx.traps[Subnormal] = True
    return localcontext(ctx)


def _dec(q: Rat) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)
