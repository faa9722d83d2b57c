"""Series ring: arithmetic contracts, oracles, and hypothesis properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crjets.rational import ComplexRational as CR
from crjets.series import (
    CompositionError,
    DivisorOrderExceedsDividend,
    NoContraction,
    NonmonomialLeadingForm,
    RootNotInField,
    SupportNotKthPower,
    TruncatedSeries as TS,
    UnknownOrder,
    ZeroSeriesRoot,
    implicit_solve,
    kth_root,
    max_coefficient_difference,
    solve_composition,
    to_float,
)

I = CR(0, 1)


def u_series(order, coeffs):
    return TS(("u",), order, {(k,): c for k, c in coeffs.items()})


def zxt(order, coeffs):
    return TS(("z", "x", "t"), order, coeffs)


# ----------------------------------------------------------------------
# add / mul


def test_add_disjoint_supports():
    tau = zxt(8, {(0, 0, 1): 1})
    cross = zxt(8, {(1, 1, 0): 2 * I})
    out = tau + cross
    assert out == zxt(8, {(0, 0, 1): 1, (1, 1, 0): 2 * I})


def test_add_inverse_cancels():
    a = zxt(6, {(1, 0, 0): Fraction(3, 7), (0, 2, 1): I})
    assert (a + (-a)).is_zero


def test_add_cancellation_keeps_order():
    one_plus = u_series(3, {0: 1, 1: 1})
    one_minus = u_series(3, {0: 1, 1: -1})
    assert one_plus + one_minus == u_series(3, {0: 2})


def test_mul_unit_difference():
    a = u_series(4, {0: 1, 1: 1})
    b = u_series(4, {0: 1, 1: -1})
    assert a * b == u_series(4, {0: 1, 2: -1})


def test_mul_monomials():
    z = TS.variable("z", ("z", "x", "t"), 5)
    x = TS.variable("x", ("z", "x", "t"), 5)
    assert z * x == zxt(5, {(1, 1, 0): 1})


def test_mul_matches_polynomial_oracle():
    # oracle: convolve coefficient lists of two dense univariate polynomials
    pa = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)]
    pb = [Fraction(2), Fraction(0), Fraction(5)]
    conv = [Fraction(0)] * 6
    for i, ca in enumerate(pa):
        for j, cb in enumerate(pb):
            conv[i + j] += ca * cb
    a = u_series(5, dict(enumerate(pa)))
    b = u_series(5, dict(enumerate(pb)))
    assert a * b == u_series(5, dict(enumerate(conv)))


def test_mixed_order_takes_minimum():
    a = u_series(6, {0: 1, 5: 1})
    b = u_series(3, {0: 1})
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a + b) == u_series(3, {0: 2})


# ----------------------------------------------------------------------
# divide


def test_divide_geometric_oracle():
    # oracle: (1+u)/(1-u) = (1+u) * sum_k u^k, coefficients 1,2,2,2,...
    a = u_series(3, {0: 1, 1: 1})
    b = u_series(3, {0: 1, 1: -1})
    expected = u_series(3, {0: 1, 1: 2, 2: 2, 3: 2})
    assert a / b == expected
    assert (a / b) * b == a


def test_divide_by_one():
    a = zxt(5, {(1, 1, 0): 2 * I, (0, 0, 2): Fraction(1, 3)})
    one = TS.constant(1, ("z", "x", "t"), 5)
    assert a / one == a


def test_divide_monomial_factor():
    zx = zxt(6, {(1, 1, 0): 1})
    num = zxt(6, {(1, 1, 0): 1, (2, 2, 0): 1})
    out = num / zx
    assert out == zxt(4, {(0, 0, 0): 1, (1, 1, 0): 1})
    # multiply-back check on the common order
    assert (out * zx).truncate(4) == num.truncate(4)


def test_divide_rejects_nonmonomial_lead():
    b = zxt(4, {(1, 0, 0): 1, (0, 1, 0): 1})
    a = zxt(4, {(2, 0, 0): 1})
    with pytest.raises(NonmonomialLeadingForm):
        a / b


def test_divide_rejects_insufficient_dividend():
    b = zxt(4, {(1, 1, 0): 1})
    a = zxt(4, {(1, 0, 0): 1})
    with pytest.raises(DivisorOrderExceedsDividend):
        a / b


# ----------------------------------------------------------------------
# derivative


def test_derivative_monomial_rule():
    a = zxt(6, {(0, 0, 1): 1, (2, 2, 0): 2 * I})
    out = a.partial_derivative("z")
    assert out == TS(("z", "x", "t"), 5, {(1, 2, 0): 4 * I})


def test_derivative_of_linear():
    t = TS.variable("t", ("z", "x", "t"), 4)
    assert t.partial_derivative("t") == TS(("z", "x", "t"), 3, {(0, 0, 0): 1})


def test_mixed_derivative_infinite_type_model():
    # tau * (1 + 2 i z x - 2 z^2 x^2 - ...): d_z d_t picks up 2 i x + O(x^2 z)
    q = zxt(6, {(0, 0, 1): 1, (1, 1, 1): 2 * I, (2, 2, 1): -2})
    out = q.partial_derivative("z").partial_derivative("t")
    assert out.coefficient((0, 1, 0)) == 2 * I
    assert out.coefficient((1, 2, 0)) == -4


# ----------------------------------------------------------------------
# compose


def test_compose_dilation():
    # q'(x') = 4 i x'^2 with x' <- lam * x
    lam = CR(3, 2)
    outer = TS(("x",), 6, {(2,): 4 * I})
    sub = TS(("x",), 6, {(1,): lam})
    out = outer.compose({"x": sub})
    assert out == TS(("x",), 6, {(2,): 4 * I * lam * lam})


def test_compose_identity():
    f = zxt(5, {(1, 1, 0): 2 * I, (0, 0, 2): 1})
    subs = {v: TS.variable(v, ("z", "x", "t"), 5) for v in ("z", "x", "t")}
    assert f.compose(subs) == f


def test_compose_binomial():
    outer = u_series(2, {2: 1})
    z = TS.variable("z", ("z", "w"), 2)
    w = TS.variable("w", ("z", "w"), 2)
    out = outer.compose({"u": z + w})
    assert out == TS(("z", "w"), 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_compose_rejects_constant_term():
    outer = u_series(3, {1: 1})
    bad = TS(("z", "w"), 3, {(0, 0): 1})
    with pytest.raises(CompositionError):
        outer.compose({"u": bad})


def test_compose_associative():
    f = u_series(6, {1: 2, 2: 1, 3: Fraction(-1, 3)})
    g = u_series(6, {1: 1, 2: -1})
    h = u_series(6, {1: Fraction(1, 2), 3: 1})
    left = f.compose({"u": g}).compose({"u": h})
    right = f.compose({"u": g.compose({"u": h})})
    assert left == right


def test_values_are_immutable():
    a = u_series(3, {1: 1})
    with pytest.raises(AttributeError):
        a.order = 5
    c = CR(1, 2)
    with pytest.raises(AttributeError):
        c.re = 0


# ----------------------------------------------------------------------
# conjugate


def test_conjugate_flips_imaginary():
    a = zxt(4, {(1, 1, 0): 2 * I})
    assert a.conjugate() == zxt(4, {(1, 1, 0): -2 * I})


def test_conjugate_involution():
    a = zxt(4, {(1, 1, 0): CR(Fraction(1, 2), 3), (0, 0, 1): 7})
    assert a.conjugate().conjugate() == a


def test_conjugate_fixes_real_series():
    a = zxt(4, {(1, 0, 0): Fraction(5, 3), (0, 2, 0): -2})
    assert a.conjugate() == a


def test_lift_merging_variables_adds_like_rename():
    a = TS(("a", "b"), 3, {(1, 0): 1, (0, 1): 1, (2, 0): 3, (1, 1): -3})
    lifted = a.lift(("c",), {"a": "c", "b": "c"})
    assert lifted == TS(("c",), 3, {(1,): 2})
    assert a.rename_variables({"b": "a"}) == TS(("a", "b"), 3, {(1, 0): 2})


# ----------------------------------------------------------------------
# vanishing order


def test_vanishing_order_in_variable():
    q = TS(("x",), 8, {(2,): 4 * I})
    assert q.vanishing_order("x") == 2


def test_vanishing_order_total():
    a = u_series(5, {0: 1, 1: 1})
    assert a.vanishing_order() == 0


def test_vanishing_order_zero_series():
    z = TS.zero(("x",), 8)
    out = z.vanishing_order()
    assert out == UnknownOrder(at_least=9)


# ----------------------------------------------------------------------
# kth_root


def test_kth_root_binomial_oracle():
    # oracle: (1+2u)^(1/2) via the rational binomial series
    a = u_series(4, {0: 1, 1: 2})
    want = {}
    alpha = Fraction(1, 2)
    coeff = Fraction(1)
    binom = Fraction(1)
    for j in range(5):
        if j:
            binom *= (alpha - (j - 1)) / j
        want[j] = binom * Fraction(2) ** j
    r = kth_root(a, 2)
    assert r == u_series(4, want)
    assert r * r == a


def test_kth_root_principal_monomial():
    import cmath

    a = to_float(TS(("x",), 6, {(2,): 4 * I}))
    r = kth_root(a, 2)
    root = cmath.exp(cmath.log(4j) / 2)  # 2 e^{i pi/4}
    assert abs(r.coefficient((1,)) - root) < 1e-12
    assert max_coefficient_difference(r * r, a) < 1e-12


def test_kth_root_round_trip():
    a = u_series(5, {0: 1, 1: Fraction(1, 3), 3: -2})
    assert kth_root(a.pow(3), 3) == a
    # the first root is the series itself, whatever its leading form
    b = zxt(4, {(1, 0, 0): 3 * I, (0, 1, 0): 1, (1, 1, 1): Fraction(1, 2)})
    assert kth_root(b, 1) == b


def test_kth_root_rejections():
    with pytest.raises(ZeroSeriesRoot):
        kth_root(TS.zero(("u",), 4), 2)
    with pytest.raises(SupportNotKthPower):
        kth_root(u_series(4, {1: 1}), 2)
    with pytest.raises(RootNotInField):
        kth_root(u_series(4, {0: 2}), 2)


# ----------------------------------------------------------------------
# implicit_solve


def test_implicit_solve_heisenberg():
    # w = t + 2 i z x  (w does not actually occur: closed form)
    rhs = TS(("z", "x", "t", "w"), 8, {(0, 0, 1, 0): 1, (1, 1, 0, 0): 2 * I})
    q = implicit_solve(rhs, "w")
    assert q == zxt(8, {(0, 0, 1): 1, (1, 1, 0): 2 * I})


def test_implicit_solve_quartic_model():
    rhs = TS(("z", "x", "t", "w"), 8, {(0, 0, 1, 0): 1, (2, 2, 0, 0): 2 * I})
    q = implicit_solve(rhs, "w")
    assert q == zxt(8, {(0, 0, 1): 1, (2, 2, 0): 2 * I})


def test_implicit_solve_infinite_type_model():
    # w = t + i z x (w + t); closed form t (1 + i z x)/(1 - i z x)
    rhs = TS(
        ("z", "x", "t", "w"),
        8,
        {(0, 0, 1, 0): 1, (1, 1, 0, 1): I, (1, 1, 1, 0): I},
    )
    q = implicit_solve(rhs, "w")
    izx = zxt(8, {(1, 1, 0): I})
    tau = zxt(8, {(0, 0, 1): 1})
    closed = (tau * (1 + izx)) / (1 - izx)
    assert q == closed
    # back-substitution check
    subs = {v: TS.variable(v, ("z", "x", "t"), 8) for v in ("z", "x", "t")}
    again = rhs.compose({**subs, "w": q})
    assert again == q


def test_implicit_solve_rejects_pure_unknown():
    rhs = TS(("z", "w"), 5, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(NoContraction):
        implicit_solve(rhs, "w")


# ----------------------------------------------------------------------
# solve_composition


def test_solve_composition_reversion():
    outer = u_series(8, {1: 2, 2: 1})
    rhs = u_series(8, {1: 1})
    g = solve_composition(outer, rhs)
    assert outer.compose({"u": g}) == rhs


# ----------------------------------------------------------------------
# float backend agreement


def test_float_backend_agrees_with_exact():
    a = zxt(6, {(1, 1, 0): CR(Fraction(7, 3), -2), (0, 0, 2): 5})
    b = zxt(6, {(0, 0, 1): 1, (2, 1, 0): CR(0, Fraction(1, 4))})
    exact = a * b + a
    floats = to_float(a) * to_float(b) + to_float(a)
    assert max_coefficient_difference(exact, floats) < 1e-10


# ----------------------------------------------------------------------
# hypothesis: ring axioms and structural properties

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
scalars = st.builds(CR, small_rationals, small_rationals)


@st.composite
def random_series(draw, variables=("z", "x"), order=None, max_terms=5):
    order = draw(st.integers(min_value=2, max_value=6)) if order is None else order
    n = len(variables)
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mi = tuple(
            draw(st.integers(min_value=0, max_value=order)) for _ in range(n)
        )
        if sum(mi) <= order:
            coeffs[mi] = draw(scalars)
    return TS(variables, order, coeffs)


@settings(max_examples=40, deadline=None)
@given(random_series(order=5), random_series(order=5), random_series(order=5))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(random_series(order=5), random_series(order=5))
def test_divide_multiplies_back(a, b):
    try:
        q = a / b
    except (DivisorOrderExceedsDividend, NonmonomialLeadingForm):
        return
    assert (q * b).truncate(q.order) == a.truncate(q.order)


@settings(max_examples=40, deadline=None)
@given(random_series(order=5), random_series(order=5))
def test_conjugate_is_ring_hom(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=25, deadline=None)
@given(random_series(order=4))
def test_compose_identity_is_identity(a):
    subs = {v: TS.variable(v, a.variables, a.order) for v in a.variables}
    assert a.compose(subs) == a


@settings(max_examples=25, deadline=None)
@given(random_series(order=4), random_series(order=4))
def test_float_agreement_property(a, b):
    exact = a * b
    floats = to_float(a) * to_float(b)
    assert max_coefficient_difference(exact, floats) < 1e-10
