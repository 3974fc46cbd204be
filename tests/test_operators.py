# Tests for polynomials, shift-invariant operators, the operator catalog,
# expansion in a delta basis, and Lagrange inversion.
import time
from decimal import Decimal
from fractions import Fraction as Rat
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import operators
from umbra.errors import PreconditionError, require_order
from umbra.operators import (
    CATALOG_NAMES,
    DELTA_NAMES,
    DeltaOperator,
    Polynomial,
    ShiftInvariantOperator,
    _delta_series,
    _series_of,
    apply_to_polynomial,
    catalog,
    expand_in_basis,
    lagrange_inversion,
    pincherle_derivative,
)
from umbra.series import (
    INF,
    TruncatedSeries,
    compose,
    compositional_inverse,
    constant,
    exp_series,
    formal_derivative,
    from_coeffs,
    identity,
    int_pow,
    monomial,
    mul,
    reciprocal,
)


class _RatSub(Rat):
    """A Fraction subclass: coercion must not keep it."""


def lower_factorial(n):
    # x(x-1)...(x-n+1), expanded independently for oracle use.
    p = Polynomial([1])
    for i in range(n):
        p = p * Polynomial([-i, 1])
    return p


class TestPolynomial:
    def test_basic_algebra(self):
        p = Polynomial([1, 2, 1])           # (1+x)^2
        q = Polynomial([-1, 1])             # x - 1
        assert (p * q).coeffs == (Rat(-1), Rat(-1), Rat(1), Rat(1))
        assert (p + q).coefficient(0) == 0
        assert p.evaluate(Rat(3, 2)) == Rat(25, 4)

    def test_shift(self):
        p = Polynomial([0, 0, 1])           # x^2
        assert p.shift(1) == Polynomial([1, 2, 1])
        assert p.shift(Rat(-1, 2)) == Polynomial([Rat(1, 4), -1, 1])

    def test_derivative_and_degree(self):
        p = Polynomial([5, 0, 0, 2])
        assert p.derivative() == Polynomial([0, 0, 6])
        assert p.degree == 3
        assert Polynomial().degree == -1
        assert Polynomial([0, 0]).is_zero

    def test_mul_x(self):
        assert Polynomial([1, 1]).mul_x() == Polynomial([0, 1, 1])

    def test_fraction_coefficients_are_kept(self):
        cs = [Rat(3, 4), Rat(-5), Rat(0), Rat(7, 11)]
        p = Polynomial(cs)
        assert all(got is c for got, c in zip(p.coeffs, cs))

    @pytest.mark.parametrize("c", [3, "3/4", 0.375, Decimal("-1.25"), _RatSub(5, 6)])
    def test_other_coefficients_become_fractions(self, c):
        p = Polynomial([c, 1])
        assert type(p.coeffs[0]) is Rat
        assert p.coeffs[0] == Rat(c)

    def test_trailing_zeros_are_stripped(self):
        assert Polynomial([1, Rat(0), 0, "0", 0.0]).coeffs == (Rat(1),)
        assert Polynomial([Rat(0), Decimal(0)]).coeffs == ()

    def test_x_power_refuses_a_negative_degree(self):
        assert Polynomial.x_power(0) == Polynomial([1])
        with pytest.raises(PreconditionError, match="n = -1"):
            Polynomial.x_power(-1)


class TestApply:
    def test_derivative_action(self):
        d = catalog("derivative")
        assert d(Polynomial.x_power(3)) == Polynomial([0, 0, 3])

    def test_forward_difference_action(self):
        # [DERIVED] (x+1)^2 - x^2 = 2x + 1
        fd = catalog("forward_difference", order=8)
        assert fd(Polynomial.x_power(2)) == Polynomial([1, 2])

    def test_shift_action(self):
        # E^a p = p(x + a)
        e2 = catalog("shift", {"a": 2}, order=8)
        p = Polynomial([1, -3, 0, 1])
        assert e2(p) == p.shift(2)

    def test_shift_invariance(self):
        # T commutes with every shift: T(p(x+a)) = (Tp)(x+a)
        p = Polynomial([2, 0, -1, 0, 1])
        for name in CATALOG_NAMES:
            params = {"a": Rat(1, 2), "b": Rat(-2)}
            T = catalog(name, params, order=10)
            for a in (1, Rat(-1, 3)):
                assert T(p.shift(a)) == T(p).shift(a), name

    def test_delta_annihilates_constants(self):
        for name in DELTA_NAMES:
            T = catalog(name, {"b": 1}, order=6)
            assert T(Polynomial([7])).is_zero, name

    def test_degree_lowering(self):
        # a delta operator sends degree n to degree n-1 exactly
        for name in DELTA_NAMES:
            T = catalog(name, {"b": Rat(1, 2)}, order=9)
            q = T(Polynomial.x_power(5))
            assert q.degree == 4, name

    def test_truncation_guard(self):
        fd = catalog("forward_difference", order=4)
        with pytest.raises(PreconditionError, match="truncation too small"):
            fd(Polynomial.x_power(4))
        # degree 3 is fine at order 4
        fd(Polynomial.x_power(3))

    def test_truncation_guard_names_the_orders(self):
        # [TRIVIAL] x^5 meets D^0..D^5, so the window must reach order 6
        with pytest.raises(PreconditionError, match="^truncation too small for exact action") as info:
            apply_to_polynomial(catalog("forward_difference", order=3), Polynomial.x_power(5))
        assert (info.value.needed, info.value.available) == (6, 3)

    def test_integer_powers_are_repeated_products(self):
        # [TRIVIAL] T^3 = T*T*T and T^-2 = (1/T)*(1/T); for the shift E^a,
        # T^-2 is E^(-2a)
        p = Polynomial([2, 0, -1, 0, 1])
        shift = catalog("shift", {"a": Rat(1, 2)}, order=10)
        for T in (shift, ShiftInvariantOperator(from_coeffs([3, -1, Rat(2, 5), 0, 7], order=9))):
            inv = ShiftInvariantOperator(reciprocal(T.series))
            assert (T**3).series == (T * T * T).series
            assert (T**-2).series == (inv * inv).series
            assert (T**3)(p) == T(T(T(p)))
            assert (T**-2)(T(T(p))) == p
        assert (shift**-2)(p) == p.shift(-1)

    def test_negative_powers_rejected(self):
        s = monomial(-1)
        with pytest.raises(PreconditionError, match="negative powers of D"):
            apply_to_polynomial(s, Polynomial([1, 1]))
        with pytest.raises(PreconditionError, match="negative powers of D"):
            ShiftInvariantOperator(s)


class TestPincherle:
    def test_forward_difference_prime_is_shift(self):
        # [DERIVED] the Pincherle derivative of e^D - 1 is e^D
        fd = catalog("forward_difference", order=10)
        e1 = catalog("shift", {"a": 1}, order=10)
        prime = pincherle_derivative(fd)
        assert prime.series.agrees_with(e1.series)

    def test_derivative_prime_is_identity_operator(self):
        d = catalog("derivative")
        prime = pincherle_derivative(d)
        assert prime.series.coefficient(0) == 1
        assert len(prime.series.coeffs) == 1

    def test_product_rule(self):
        # (ST)' = S'T + ST' as operators
        s = catalog("shift", {"a": 2}, order=9)
        f = catalog("forward_difference", order=9)
        lhs = pincherle_derivative(s * f).series
        rhs = (pincherle_derivative(s) * f + s * pincherle_derivative(f)).series
        assert lhs.agrees_with(rhs)


class TestExpandInBasis:
    def test_taylor_is_expansion_in_derivative(self):
        # E^a = sum a^k D^k / k!
        e = catalog("shift", {"a": 3}, order=10)
        d = catalog("derivative")
        cs = expand_in_basis(e, d, k_max=9)
        assert cs == [Rat(3) ** k for k in range(10)]

    def test_derivative_in_forward_difference(self):
        # [DERIVED] D = log(1 + FD): Hurwitz coefficients (-1)^(k+1) (k-1)!
        fd = catalog("forward_difference", order=12)
        d = catalog("derivative")
        cs = expand_in_basis(d, fd)
        assert cs[0] == 0
        for k in range(1, len(cs)):
            assert cs[k] == Rat((-1) ** (k + 1) * factorial(k - 1))

    def test_matches_augmentation_of_basic_polynomials(self):
        # The same constants arise as (T p_k)(0) with p_k the basic
        # sequence of the expansion basis; for the forward difference the
        # basic polynomials are the lower factorials.
        fd = catalog("forward_difference", order=12)
        d = catalog("derivative")
        cs = expand_in_basis(d, fd)
        for k in range(len(cs)):
            assert cs[k] == d(lower_factorial(k)).evaluate(0), k

    def test_forward_difference_in_derivative(self):
        fd = catalog("forward_difference", order=10)
        d = catalog("derivative")
        cs = expand_in_basis(fd, d)
        assert cs == [Rat(0)] + [Rat(1)] * (len(cs) - 1)

    def test_requires_delta_basis(self):
        e = catalog("shift", {"a": 1}, order=8)
        d = catalog("derivative")
        with pytest.raises(PreconditionError, match="not a delta series"):
            expand_in_basis(d, e)

    def test_k_max_beyond_window(self):
        fd = catalog("forward_difference", order=6)
        d = catalog("derivative")
        with pytest.raises(PreconditionError, match="exceeds determined window"):
            expand_in_basis(d, fd, k_max=10)


# Oracle: the catalog as series arithmetic built it before its closed forms,
# with products, reciprocals and sums of the one-term exponentials.

catalog_rationals = (st.sampled_from([0, 1, -1, 2, -3]) | st.integers(-9, 9)
                     | st.fractions(min_value=-5, max_value=5, max_denominator=40))


def _catalog_by_arithmetic(name, parameters, order):
    t = identity()
    if name == "derivative":
        return DeltaOperator(t, name)
    if name == "shift":
        a = Rat(parameters["a"])
        return ShiftInvariantOperator(exp_series(monomial(1, a), order=order), name, {"a": a})
    if name == "forward_difference":
        return DeltaOperator(exp_series(t, order=order) - constant(1), name)
    if name == "backward_difference":
        return DeltaOperator(constant(1) - exp_series(monomial(1, -1), order=order), name)
    if name == "abel":
        b = Rat(parameters["b"])
        return DeltaOperator(mul(t, exp_series(monomial(1, b), order=order)), name, {"b": b})
    if name == "laguerre":
        return DeltaOperator(mul(t, reciprocal(from_coeffs([-1, 1], order=INF), order=order)), name)
    if name == "weierstrass":
        return ShiftInvariantOperator(exp_series(monomial(2, Rat(1, 2)), order=order), name)
    assert name == "bernoulli_op"
    return ShiftInvariantOperator(mul(exp_series(t, order=order) - constant(1), monomial(-1)), name)


def _built(build, name, parameters, order):
    """What a catalog build gives: the operator's class, name, parameters,
    coefficients and order, or the refusal it raises."""
    try:
        op = build(name, parameters, order)
    except PreconditionError as err:
        return str(err)
    return type(op), op.name, op.parameters, op.series.coeffs, op.series.order


class TestCatalog:
    def test_all_names_build(self):
        params = {"a": 1, "b": Rat(1, 2)}
        for name in CATALOG_NAMES:
            T = catalog(name, params, order=8)
            assert T.name == name
            if name in DELTA_NAMES:
                assert isinstance(T, DeltaOperator)
            else:
                assert not isinstance(T, DeltaOperator)

    def test_series_heads(self):
        # [DERIVED] leading windows of each catalog series
        fd = catalog("forward_difference", order=9).series
        for k in range(1, 9):
            assert fd.coefficient(k) == Rat(1, factorial(k))
        bd = catalog("backward_difference", order=9).series
        for k in range(1, 9):
            assert bd.coefficient(k) == Rat(-((-1) ** k), factorial(k))
        ab = catalog("abel", {"b": 2}, order=9).series
        for k in range(1, 9):
            assert ab.coefficient(k) == Rat(2 ** (k - 1), factorial(k - 1))
        lg = catalog("laguerre", order=9).series
        for k in range(1, 9):
            assert lg.coefficient(k) == -1
        w = catalog("weierstrass", order=9).series
        assert w.coefficient(0) == 1
        assert w.coefficient(2) == Rat(1, 2)
        assert w.coefficient(4) == Rat(1, 8)
        assert w.coefficient(3) == 0
        bo = catalog("bernoulli_op", order=9).series
        for k in range(8):
            assert bo.coefficient(k) == Rat(1, factorial(k + 1))

    def test_missing_parameter(self):
        with pytest.raises(PreconditionError, match="requires parameter 'b'"):
            catalog("abel")
        with pytest.raises(PreconditionError, match="requires parameter 'a'"):
            catalog("shift")

    def test_unknown_name(self):
        with pytest.raises(PreconditionError, match="unknown catalog operator"):
            catalog("euler")

    def test_derivative_is_exact(self):
        assert catalog("derivative").series.order == INF

    def test_equal_calls_share_the_series_of_fresh_operators(self):
        for name in CATALOG_NAMES:
            first = catalog(name, {"a": Rat(1, 3), "b": Rat(2, 5)}, order=12)
            second = catalog(name, {"b": Rat(2, 5), "a": Rat(1, 3)}, order=12)
            assert first is not second and first.series is second.series, name
            assert first.parameters is not second.parameters, name
            assert type(first) is type(second) and first.parameters == second.parameters

    def test_changing_an_operator_does_not_reach_the_next_call(self):
        op = catalog("abel", {"b": Rat(3, 7)}, order=10)
        op.name, op.parameters["b"] = "renamed", Rat(5)
        op.parameters["extra"] = 1
        again = catalog("abel", {"b": Rat(3, 7)}, order=10)
        assert again.name == "abel" and again.parameters == {"b": Rat(3, 7)}
        op.parameters = {}
        assert catalog("abel", {"b": Rat(3, 7)}, order=10).parameters == {"b": Rat(3, 7)}

    def test_unhashable_parameters_still_build(self):
        class Unhashable(Rat):
            __hash__ = None

        for _ in range(2):
            abel = catalog("abel", {"b": Unhashable(2, 3)}, order=9)
            assert abel.parameters == {"b": Rat(2, 3)} and type(abel.parameters["b"]) is Rat
            assert abel.series == catalog("abel", {"b": Rat(2, 3)}, order=9).series
            shift = catalog("shift", {"a": 2, "tags": []}, order=9)
            assert shift.series == catalog("shift", {"a": 2}, order=9).series

    def test_refusals_are_never_kept(self):
        # each refusal twice, and after an equal value that builds: 0.5 and
        # 0.5 + 0j are equal keys but Fraction refuses the complex one, and
        # 16 and Fraction(16) equal orders but only the int is an order
        def raised(call, *args):
            try:
                call(*args)
            except Exception as err:
                return type(err), str(err)

        catalog("abel", {"b": 0.5}, order=8)
        catalog("shift", {"a": 1}, order=16)
        cases = [
            ("abel", {}, 8, "operator 'abel' requires parameter 'b'"),
            ("shift", {"b": 1}, 8, "operator 'shift' requires parameter 'a'"),
            ("abel", {"b": "x"}, 8, raised(Rat, "x")),
            ("abel", {"b": [1]}, 8, raised(Rat, [1])),
            ("abel", {"b": 0.5 + 0j}, 8, raised(Rat, 0.5 + 0j)),
            ("shift", {"a": 1}, Rat(16), "order must be an integer or infinity"),
            ("forward_difference", {}, 1, "not a delta series"),
            ("euler", {}, 8, "unknown catalog operator 'euler'"),
        ]
        for name, parameters, order, want in cases:
            if isinstance(want, str):
                want = PreconditionError, want
            for _ in range(2):
                assert raised(catalog, name, parameters, order) == want, (name, parameters, order)

    def test_the_memo_keeps_the_last_keys(self):
        kept = operators._catalog_kept
        kept.cache_clear()
        built = [catalog("shift", {"a": k}, order=6) for k in range(kept.cache_info().maxsize + 1)]
        assert kept.cache_info().currsize == kept.cache_info().maxsize == 8
        assert catalog("shift", {"a": 1}, order=6).series is built[1].series
        assert catalog("shift", {"a": 0}, order=6).series is not built[0].series
        assert catalog("shift", {"a": 0}, order=6).series == built[0].series

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @given(a=catalog_rationals, b=catalog_rationals)
    @settings(max_examples=15, deadline=None)
    def test_closed_forms_match_series_arithmetic(self, name, a, b):
        # the same coeffs and order, or the same refusal, at every order
        for order in range(-1, 65):
            assert _built(catalog, name, {"a": a, "b": b}, order) == \
                _built(_catalog_by_arithmetic, name, {"a": a, "b": b}, order), order


# -- Lagrange inversion against the residue formula it replaced ----------
#
# Oracle: [t^k] g(f^(-1)) = [t^(-1)] g f' f^(-1-k), by products of Laurent
# series; it never forms the compositional inverse of f.


def _residue_lagrange(f, g, cap):
    """Coefficients of g(f^(-1)) from exponent val(g) up, until the window
    of the residue refuses one or cap of them are found."""
    base = g * formal_derivative(f)
    finv = reciprocal(f)
    m = g.valuation + 1
    h = int_pow(finv, m) if m >= 0 else int_pow(f, -m)
    out = []
    while len(out) < cap:
        prod = base * h
        if prod.order <= -1:
            break
        out.append(prod.coefficient(-1))
        h = h * finv
    return out


rat = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def lagrange_cases(draw):
    """(name, params, order, coeffs, g_order): a catalog delta operator at
    order 3..24, and a Laurent g of valuation -3..3 given by a few exact
    coefficients, truncated at g_order or exact (None)."""
    name = draw(st.sampled_from(DELTA_NAMES))
    params = {"b": draw(rat)} if name == "abel" else {}
    d = draw(st.integers(-3, 3))
    coeffs = {d: draw(rat.filter(bool))}
    for e in range(d + 1, d + draw(st.integers(1, 4))):
        coeffs[e] = draw(rat)
    g_order = draw(st.none() | st.integers(d + 1, d + 12))
    return name, params, draw(st.integers(3, 24)), coeffs, g_order


class TestLagrangeInversion:
    @given(lagrange_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_residue_oracle(self, case):
        # equal on the residue's window; one coefficient further is either
        # refused or equal to the same call with f and g known 8 orders
        # further
        name, params, order, coeffs, g_order = case

        def inputs(extra):
            f = catalog(name, params, order=order + extra)
            return f, TruncatedSeries(coeffs, INF if g_order is None else g_order + extra)

        f, g = inputs(0)
        d = g.valuation
        want = _residue_lagrange(f.series, g, cap=30)
        top = d + len(want)
        if want:
            assert lagrange_inversion(f, g, top - 1) == want
        try:
            got = lagrange_inversion(f, g, top)
        except PreconditionError as err:
            assert "exceeds determined window" in str(err)
        else:
            assert got == lagrange_inversion(*inputs(8), top)
            assert got[:-1] == want

    def test_valuation_above_one_keeps_its_window(self):
        # [t^k] g(f^(-1)) for g = t^2 + 3t^5 is determined to k = order,
        # one past the inverse's own window
        f = catalog("forward_difference", order=6)
        g = monomial(2) + monomial(5, 3)
        assert lagrange_inversion(f, g, 6) == _residue_lagrange(f.series, g, cap=5)
        deeper = catalog("forward_difference", order=14)
        assert lagrange_inversion(f, g, 6) == lagrange_inversion(deeper, g, 6)
        with pytest.raises(PreconditionError, match="exceeds determined window"):
            lagrange_inversion(f, g, 7)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("name", ["forward_difference", "abel", "laguerre"])
    def test_valuation_above_one_reads_one_composite(self, name, d):
        # g(f^(-1)) for g of valuation d is read from one composite, with
        # no (f^(-1))^(d-1) split: the residue formula's window and values,
        # one coefficient further refused
        f = catalog(name, {"b": Rat(2, 3)} if name == "abel" else {}, order=10)
        g = monomial(d, 2) + monomial(d + 1, -1) + monomial(d + 3, Rat(1, 3))
        want = _residue_lagrange(f.series, g, cap=30)
        assert lagrange_inversion(f, g, d + len(want) - 1) == want
        with pytest.raises(PreconditionError, match="exceeds determined window"):
            lagrange_inversion(f, g, d + len(want))

    def test_laurent_below_minus_one(self):
        # [DERIVED] 1/log(1+t)^2 = t^-2 + t^-1 + 1/12 - t^2/240 + t^3/240
        f = catalog("forward_difference", order=14)
        cs = lagrange_inversion(f, monomial(-2), 3)
        assert cs == [1, 1, Rat(1, 12), 0, Rat(-1, 240), Rat(1, 240)]

    def test_tree_series(self):
        # [DERIVED] inverse of t e^t has coefficients (-k)^(k-1)/k!
        f = catalog("abel", {"b": 1}, order=12)
        cs = lagrange_inversion(f, identity(), 8)
        for i, k in enumerate(range(1, 9)):
            assert cs[i] == Rat((-k) ** (k - 1), factorial(k)), k

    def test_matches_compositional_inverse(self):
        f = catalog("forward_difference", order=12)
        cs = lagrange_inversion(f, identity(), 9)
        g = compositional_inverse(f.series)
        for i, k in enumerate(range(1, 10)):
            assert cs[i] == g.coefficient(k)

    def test_laurent_observable(self):
        # [DERIVED] 1/log(1+t) = t^-1 + 1/2 - t/12 + t^2/24 - 19 t^3/720 + ...
        f = catalog("forward_difference", order=14)
        cs = lagrange_inversion(f, monomial(-1), 3)
        assert cs == [Rat(1), Rat(1, 2), Rat(-1, 12), Rat(1, 24), Rat(-19, 720)]
        # and the engine's own composite agrees
        direct = reciprocal(compositional_inverse(f.series))
        for i, k in enumerate(range(-1, 4)):
            assert direct.coefficient(k) == cs[i]

    def test_window_guard(self):
        f = catalog("forward_difference", order=6)
        with pytest.raises(PreconditionError, match="exceeds determined window"):
            lagrange_inversion(f, identity(), 12)

    def test_requires_delta(self):
        e = catalog("shift", {"a": 1}, order=8)
        with pytest.raises(PreconditionError, match="not a delta series"):
            lagrange_inversion(e, identity(), 3)


# -- g(f^(-1)) against the composite over the whole window ----------------
#
# Oracle: the expansion theorem composing T with the inverse of Q over Q's
# whole window, and Lagrange inversion reading that same composite. Asking
# the inverse only as far as t^k_max needs must change no value and no
# refusal.


def _whole_window_expand(T, Q, k_max=None):
    """Hurwitz coefficients c_k with T = sum c_k Q^k / k!, read off T
    composed with the inverse of Q over Q's whole window."""
    ts = _series_of(T)
    qs = _delta_series(Q)
    comp = compose(ts, compositional_inverse(qs))
    if k_max is None:
        if comp.order == INF:
            raise PreconditionError(
                "expansion of exact series requires an explicit k_max"
            )
        k_max = comp.order - 1
    require_order(f"expansion order exceeds determined window: coefficient {k_max} of "
                  "the composite", k_max + 1, comp.order)
    return [factorial(k) * comp.coefficient(k) for k in range(k_max + 1)]


def _whole_window_lagrange(f, g, k_max):
    """Coefficients val(g)..k_max of g composed with the inverse of f over
    f's whole window."""
    comp = compose(g, compositional_inverse(_delta_series(f)))
    require_order(f"k_max exceeds determined window: coefficient {k_max} of the composite",
                  k_max + 1, comp.order)
    return [comp.coefficient(k) for k in range(g.valuation, k_max + 1)]


def _outcome(call, *args):
    """The value of a call, or the type and text of its refusal."""
    try:
        return call(*args)
    except Exception as err:
        return type(err), str(err)


@st.composite
def composite_cases(draw):
    """(f, g, k_max): a catalog delta operator at order 2..24; a Laurent g of
    valuation d in -3..3 given by a few coefficients, truncated or exact;
    and k_max from d - 1 to past every window."""
    name = draw(st.sampled_from(DELTA_NAMES))
    f = catalog(name, {"b": draw(rat)} if name == "abel" else {}, order=draw(st.integers(2, 24)))
    d = draw(st.integers(-3, 3))
    coeffs = {d: draw(rat.filter(bool))}
    for e in range(d + 1, d + draw(st.integers(1, 4))):
        coeffs[e] = draw(rat)
    g_order = draw(st.just(INF) | st.integers(d + 1, d + 12))
    return f, TruncatedSeries(coeffs, g_order), draw(st.integers(d - 1, d + 27))


class TestCompositeOracles:
    @given(composite_cases())
    @settings(max_examples=80, deadline=None)
    def test_lagrange_matches_whole_window(self, case):
        f, g, k_max = case
        assert _outcome(lagrange_inversion, f, g, k_max) == _outcome(
            _whole_window_lagrange, f, g, k_max)

    @given(composite_cases(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_expansion_matches_whole_window(self, case, whole):
        f, T, k_max = case
        k_max = None if whole else k_max
        assert _outcome(expand_in_basis, T, f, k_max) == _outcome(
            _whole_window_expand, T, f, k_max)

    def test_expand_probe_inverts_only_what_it_reads(self):
        # shift(3) in forward differences, both known to order 300: four
        # coefficients read the inverse to order 5, not 300
        shift = catalog("shift", {"a": 3}, order=300)
        fd = catalog("forward_difference", order=300)
        start = time.perf_counter()
        assert expand_in_basis(shift, fd, k_max=3) == [1, 3, 6, 6]
        assert time.perf_counter() - start < 0.05

    def test_inverse_orders_asked(self, monkeypatch):
        asked = []

        def recorded(f, order=None):
            asked.append(order)
            return compositional_inverse(f, order=order)

        monkeypatch.setattr(operators, "compositional_inverse", recorded)
        f = catalog("forward_difference", order=16)
        shift = catalog("shift", {"a": 3}, order=16)
        lagrange_inversion(f, identity(), 8)
        expand_in_basis(shift, f, 3)
        expand_in_basis(shift, f)
        lagrange_inversion(f, monomial(-2), 3)
        assert asked == [9, 5, None, 7]

    def test_exact_basis_is_inverted_to_k_max(self):
        # D in the exact basis D + D^2, whose inverse (sqrt(1 + 4t) - 1)/2 =
        # t - t^2 + 2t^3 - 5t^4 + ...; without k_max nothing bounds the inverse
        q = from_coeffs([0, 1, 1], order=INF)
        assert expand_in_basis(identity(), q, 4) == [0, 1, -2, 12, -120]
        with pytest.raises(PreconditionError, match="requires an explicit order"):
            expand_in_basis(identity(), q)


# -- the polynomial action against the loops it replaced -------------------
#
# Oracles: a_k D^k p summed over successive derivatives, and p(x + a) by
# Horner's rule in x + a. Neither goes through the product that the library
# acts by.


def _derivative_oracle(T, p):
    s = getattr(T, "series", T)
    acc, deriv = Polynomial(), p
    for k in range(p.degree + 1):
        c = s.coeffs.get(k)
        if c is not None:
            acc = acc + deriv.scale(c)
        deriv = deriv.derivative()
    return acc


def _horner_shift(p, a):
    acc, xa = Polynomial(), Polynomial([a, 1])
    for c in reversed(p.coeffs):
        acc = acc * xa + Polynomial([c])
    return acc


@st.composite
def polynomial_actions(draw):
    """(T, p): a polynomial of degree up to 8 and a series in D with up to
    six terms, exact or known just far enough (order > deg p) or further;
    zero series included."""
    p = Polynomial(draw(st.lists(rat, max_size=9)))
    order = draw(st.just(INF) | st.integers(p.degree + 1, p.degree + 5))
    exponents = draw(st.lists(st.integers(0, 12), max_size=6, unique=True))
    return TruncatedSeries({e: draw(rat) for e in exponents}, order), p


class TestActionOracles:
    @given(polynomial_actions())
    @settings(max_examples=100, deadline=None)
    def test_polynomial_action_matches_derivative_loop(self, case):
        T, p = case
        assert apply_to_polynomial(T, p) == _derivative_oracle(T, p)

    def test_product_spans_only_the_degrees_kept(self, monkeypatch):
        # the forward difference known to order 25 on a degree-6 polynomial:
        # T is cut to order 7 first, so the product's window [v, order)
        # holds at most the 7 degrees kept, not the 24 the whole T reaches
        T = catalog("forward_difference", order=25)
        p = Polynomial([3, 0, -1, 2, Rat(5, 7), -7, 1])
        widths = []
        mul = TruncatedSeries.__mul__

        def spied(a, b):
            out = mul(a, b)
            widths.append(out.order - a.valuation - b.valuation)
            return out

        monkeypatch.setattr(TruncatedSeries, "__mul__", spied)
        assert apply_to_polynomial(T, p) == _derivative_oracle(T, p)
        assert widths and max(widths) <= p.degree + 1

    @given(st.lists(rat, max_size=14), rat)
    @settings(max_examples=100, deadline=None)
    def test_shift_matches_horner(self, coeffs, a):
        p = Polynomial(coeffs)
        assert p.shift(a) == _horner_shift(p, a)

    def test_operators_act_through_the_same_product(self):
        p = Polynomial([3, 0, -1, 2])
        for name in CATALOG_NAMES:
            T = catalog(name, {"a": Rat(5, 3), "b": Rat(-2, 7)}, order=6)
            assert T(p) == _derivative_oracle(T, p), name
