"""TruncatedSeries.compose and the solves built on it, against sympy.

sympy is a test-only dependency: it expands the substituted polynomial
independently of crjets, and the expansion truncated at the composed
series' order must agree coefficient by coefficient.  The cases cover the
substitutions compose moves as exponents instead of multiplying (one-term
series ``c*m``, bare variables among them, and zero), and general slots
whose powers are shared between outer monomials.

The solves have unique solutions, so checking their defining identity in
sympy checks the solution: ``implicit_solve`` (u = rhs(vars, u)),
``solve_composition`` (outer(g) = rhs) and ``TruncatedSeries.inverse``
(s * s^-1 = 1), each through the returned order.
"""

import random
from fractions import Fraction

import pytest

from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS
from crjets.series import implicit_solve, solve_composition

sympy = pytest.importorskip("sympy")


def random_series(rng, variables, order, terms, min_degree=0):
    coeffs = {}
    for _ in range(terms):
        mi = [0] * len(variables)
        for _ in range(rng.randint(min_degree, order)):
            mi[rng.randrange(len(variables))] += 1
        coeffs[tuple(mi)] = CR(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
    coeffs.pop((0,) * len(variables), None)
    return TS(variables, order, coeffs)


def to_sympy(s):
    symbols = sympy.symbols(s.variables)
    expr = sympy.Integer(0)
    for mi, c in s.coefficients.items():
        term = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )
        for sym, e in zip(symbols, mi):
            term *= sym**e
        expr += term
    return expr


def from_sympy(expr, variables, order):
    """The expansion of a polynomial expression, truncated at the order."""
    expanded = sympy.expand(expr)
    coeffs = {}
    if expanded != 0:
        poly = sympy.Poly(expanded, *sympy.symbols(variables))
        for mi, c in poly.terms():
            if sum(mi) <= order:
                re, im = c.as_real_imag()
                coeffs[mi] = CR(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return TS(variables, order, coeffs)


def oracle(outer, substitutions):
    """compose by sympy: substitute simultaneously, expand, truncate."""
    target = next(iter(substitutions.values()))
    order = min([outer.order] + [s.order for s in substitutions.values()])
    mapping = {sympy.Symbol(v): to_sympy(substitutions[v]) for v in outer.variables}
    return from_sympy(to_sympy(outer).xreplace(mapping), target.variables, order)


SEEDS = range(4)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_bare_and_general_substitutions(seed):
    rng = random.Random(seed)
    outer = random_series(rng, ("a", "b", "c"), 6, 12)
    zx = ("z", "x")
    subs = {
        "a": TS.variable("z", zx, 6),
        "b": random_series(rng, zx, 6, 4, min_degree=1),
        "c": TS.variable("x", zx, 6),
    }
    assert outer.compose(subs) == oracle(outer, subs)


@pytest.mark.parametrize("seed", SEEDS)
def test_two_bare_slots_into_one_variable(seed):
    rng = random.Random(seed)
    outer = random_series(rng, ("a", "b", "c"), 5, 10)
    zx = ("z", "x")
    subs = {
        "a": TS.variable("z", zx, 5),
        "b": TS.variable("z", zx, 5),
        "c": random_series(rng, zx, 5, 3, min_degree=1),
    }
    assert outer.compose(subs) == oracle(outer, subs)


@pytest.mark.parametrize("seed", SEEDS)
def test_swap_of_z_and_x(seed):
    rng = random.Random(seed)
    zxt = ("z", "x", "t")
    outer = random_series(rng, zxt, 6, 12)
    subs = {
        "z": TS.variable("x", zxt, 6),
        "x": TS.variable("z", zxt, 6),
        "t": TS.variable("t", zxt, 6),
    }
    out = outer.compose(subs)
    assert out == oracle(outer, subs)
    assert out == outer.rename_variables({"z": "x", "x": "z"})


@pytest.mark.parametrize("seed", SEEDS)
def test_outer_variables_differ_from_target(seed):
    # the shape of implicit_solve: rhs(z, x, t, w) with w <- u(z, x, t)
    rng = random.Random(seed)
    zxt = ("z", "x", "t")
    rhs = random_series(rng, ("z", "x", "t", "w"), 5, 14)
    subs = {v: TS.variable(v, zxt, 5) for v in zxt}
    subs["w"] = random_series(rng, zxt, 5, 5, min_degree=1)
    assert rhs.compose(subs) == oracle(rhs, subs)


@pytest.mark.parametrize("seed", SEEDS)
def test_bare_substitution_below_outer_order(seed):
    rng = random.Random(seed)
    zw = ("z", "w")
    outer = random_series(rng, zw, 7, 12)
    subs = {"z": TS.variable("z", zw, 3), "w": random_series(rng, zw, 7, 4, min_degree=1)}
    out = outer.compose(subs)
    assert out.order == 3
    assert out == oracle(outer, subs)


def test_scaled_variable_is_not_bare():
    zw = ("z", "w")
    outer = TS(zw, 4, {(2, 1): 1, (1, 0): CR(0, 1)})
    subs = {"z": TS(zw, 4, {(1, 0): 2}), "w": TS.variable("w", zw, 4)}
    assert outer.compose(subs) == oracle(outer, subs)
    assert outer.compose(subs) == TS(zw, 4, {(2, 1): 4, (1, 0): CR(0, 2)})


def monomial(variables, order, mi, c):
    return TS(variables, order, {mi: c})


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_one_term_substitutions(seed):
    rng = random.Random(seed)
    outer = random_series(rng, ("a", "b", "c"), 7, 14)
    zx = ("z", "x")
    subs = {
        "a": monomial(zx, 7, (1, 1), CR(Fraction(1, 2), -1)),
        "b": monomial(zx, 7, (0, 1), CR(0, 3)),
        "c": monomial(zx, 7, (2, 1), CR(-2, Fraction(1, 3))),
    }
    assert outer.compose(subs) == oracle(outer, subs)


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_substitution(seed):
    rng = random.Random(seed)
    outer = random_series(rng, ("a", "b", "c"), 6, 12)
    zx = ("z", "x")
    subs = {
        "a": TS.zero(zx, 6),
        "b": random_series(rng, zx, 6, 4, min_degree=1),
        "c": monomial(zx, 6, (0, 1), CR(2, 1)),
    }
    out = outer.compose(subs)
    assert out == oracle(outer, subs)
    assert out == outer.zero_out("a").compose(subs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("slots", [2, 3])
def test_general_slots_sharing_first_exponents(seed, slots):
    rng = random.Random(seed)
    outer_vars = ("a", "b", "c")[:slots] + ("d",)
    coeffs = {}
    for first in (0, 1, 2):  # several keys under each first exponent
        for _ in range(4):
            rest = [rng.randint(0, 2) for _ in range(len(outer_vars) - 1)]
            coeffs[(first, *rest)] = CR(rng.randint(-3, 3), rng.randint(-2, 2))
    coeffs.pop((0,) * len(outer_vars), None)
    outer = TS(outer_vars, 6, coeffs)
    zx = ("z", "x")
    subs = {v: random_series(rng, zx, 6, 3, min_degree=1) for v in outer_vars[:slots]}
    subs["d"] = TS.variable("x", zx, 6)
    assert outer.compose(subs) == oracle(outer, subs)


def test_one_term_substitution_beyond_the_order():
    zx = ("z", "x")
    outer = TS(("a", "b"), 8, {(1, 0): 1, (2, 0): 3, (1, 1): CR(0, 1), (0, 2): 2, (0, 1): 5})
    subs = {
        # moved degrees 3 and 6: a^2 leaves the order-5 result
        "a": monomial(zx, 5, (2, 1), CR(Fraction(1, 2))),
        # its only term has degree 7 > 5: a zero substitution at this order
        "b": monomial(zx, 9, (4, 3), CR(1, 1)),
    }
    out = outer.compose(subs)
    assert out.order == 5
    assert out == oracle(outer, subs)
    assert out == TS(zx, 5, {(2, 1): Fraction(1, 2)})


def test_dilation_of_a_dense_surface_makes_no_series_product(monkeypatch):
    rng = random.Random(3)
    zxt = ("z", "x", "t")
    q = random_series(rng, zxt, 8, 80, min_degree=1)
    lam = CR(2, -1)
    subs = {
        "z": monomial(zxt, 8, (1, 0, 0), CR(1) / lam),
        "x": monomial(zxt, 8, (0, 1, 0), CR(1) / lam.conjugate()),
        "t": monomial(zxt, 8, (0, 0, 1), CR(Fraction(1, 5))),
    }
    products = []
    mul = TS.__mul__

    def counting(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(TS, "__mul__", counting)
    out = q.compose(subs)
    monkeypatch.undo()
    assert products == []
    assert out == oracle(q, subs)


# ----------------------------------------------------------------------
# solves


def implicit_residual(rhs, unknown, u):
    """rhs(vars, u) - u by sympy, through u's order."""
    expr = to_sympy(rhs).xreplace({sympy.Symbol(unknown): to_sympy(u)}) - to_sympy(u)
    return from_sympy(expr, u.variables, u.order)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rate", [1, 2])
def test_implicit_solve_against_sympy(seed, rate):
    rng = random.Random(seed)
    zxw = ("z", "x", "w")
    coeffs = {(1, 0, 0): CR(1, 1), (0, 1, 0): 2, (1, 1, 0): CR(0, 1)}
    for _ in range(6):  # monomials with the unknown and known degree >= rate
        a = rng.randint(0, rate)
        mi = (a, rate - a + rng.randint(0, 1), rng.randint(1, 2))
        coeffs[mi] = CR(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))
    coeffs[(rate, 0, 1)] = 1  # attains the rate
    rhs = TS(zxw, 5, coeffs)
    u = implicit_solve(rhs, "w")
    assert u.order == 5
    assert implicit_residual(rhs, "w", u).is_zero


def test_implicit_solve_graph_form_against_sympy():
    # w = t + 2i * phi(z, x, (w + t)/2): the dense-graph shape, rate 2
    zxtw = ("z", "x", "t", "w")
    s = TS(zxtw, 7, {(0, 0, 1, 0): Fraction(1, 2), (0, 0, 0, 1): Fraction(1, 2)})
    zx = TS(zxtw, 7, {(1, 1, 0, 0): 1})
    phi = zx + zx * s * CR(1, -1) + zx * zx * CR(0, 3) + zx * s * s
    rhs = TS.variable("t", zxtw, 7) + phi * CR(0, 2)
    u = implicit_solve(rhs, "w")
    assert implicit_residual(rhs, "w", u).is_zero


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_composition_against_sympy(seed):
    rng = random.Random(seed)
    outer = random_series(rng, ("x",), 5, 4, min_degree=2) + TS(("x",), 5, {(1,): CR(2, 1)})
    rhs = random_series(rng, ("x",), 5, 4, min_degree=1)
    g = solve_composition(outer, rhs)
    assert g.constant_term().is_zero
    assert oracle(outer, {"x": g}) == rhs


@pytest.mark.parametrize("seed", SEEDS)
def test_series_inverse_against_sympy(seed):
    rng = random.Random(seed)
    zx = ("z", "x")
    s = random_series(rng, zx, 6, 8, min_degree=1) + CR(Fraction(3, 2), -1)
    inv = s.inverse()
    product = from_sympy(to_sympy(s) * to_sympy(inv), zx, 6)
    assert product == TS.constant(1, zx, 6)
