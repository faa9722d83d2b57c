"""TruncatedSeries.compose against sympy substitution and expansion.

sympy is a test-only dependency: it expands the substituted polynomial
independently of crjets, and the expansion truncated at the composed
series' order must agree coefficient by coefficient.  The cases cover
bare-variable substitutions (one target variable, coefficient 1), which
compose moves as exponents instead of multiplying.
"""

import random
from fractions import Fraction

import pytest

from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS

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


def oracle(outer, substitutions):
    """compose by sympy: substitute simultaneously, expand, truncate."""
    target = next(iter(substitutions.values()))
    order = min([outer.order] + [s.order for s in substitutions.values()])
    mapping = {sympy.Symbol(v): to_sympy(substitutions[v]) for v in outer.variables}
    expanded = sympy.expand(to_sympy(outer).xreplace(mapping))
    coeffs = {}
    if expanded != 0:
        poly = sympy.Poly(expanded, *sympy.symbols(target.variables))
        for mi, c in poly.terms():
            if sum(mi) <= order:
                re, im = c.as_real_imag()
                coeffs[mi] = CR(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return TS(target.variables, order, coeffs)


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
