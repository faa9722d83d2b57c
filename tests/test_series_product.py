"""The series product kernel against schoolbook products.

The exact reference keeps each coefficient as a ``(re, im)`` pair of
``Fraction`` objects and multiplies term by term; it does no arithmetic on
crjets scalars.  On packed tables, the kernel's content pass, which stops
at the first unit, must give the table and denominator that dividing by
``gcd(d, *every numerator)`` at once gives.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crjets import series as series_module
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS

NAMES = ("a", "b", "c", "d")


def pairs(s: TS) -> dict:
    """The coefficients of an exact series as (re, im) Fraction pairs."""
    return {mi: (c.re, c.im) for mi, c in s.coefficients.items()}


def schoolbook(a: dict, b: dict, order: int, box=None) -> dict:
    """Product of two tables of (re, im) pairs through ``order``; ``box``
    maps slots to their largest exponent."""
    out: dict = {}
    for mi, (ar, ai) in a.items():
        for mj, (br, bi) in b.items():
            mk = tuple(x + y for x, y in zip(mi, mj))
            if sum(mk) > order or any(mk[j] > bound for j, bound in (box or {}).items()):
                continue
            re, im = out.get(mk, (0, 0))
            out[mk] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return {mk: v for mk, v in out.items() if v != (0, 0)}


def assert_exact_product(got: TS, want: dict):
    assert pairs(got) == want
    # canonical: the stored triple is the one the constructor makes
    assert all(c == CR(*want[mi]) for mi, c in got.coefficients.items())


fractions = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=6)
)
gaussian = st.builds(CR, fractions, fractions | st.just(Fraction(0)))


@st.composite
def series(draw, variables, order, min_degree=0, min_terms=0):
    n = len(variables)
    monomial = st.tuples(*[st.integers(min_value=0, max_value=order)] * n).filter(
        lambda mi: min_degree <= sum(mi) <= order
    )
    terms = draw(st.dictionaries(monomial, gaussian, min_size=min_terms, max_size=8))
    return TS(variables, order, terms)


@st.composite
def operands(draw):
    variables = NAMES[: draw(st.integers(min_value=1, max_value=4))]
    a = draw(series(variables, draw(st.integers(min_value=0, max_value=9))))
    b = draw(series(variables, draw(st.integers(min_value=0, max_value=9))))
    return a, b


@settings(max_examples=150, deadline=None)
@given(operands())
def test_product_matches_schoolbook(ab):
    a, b = ab
    order = min(a.order, b.order)
    got = a * b
    assert got.order == order
    assert_exact_product(got, schoolbook(pairs(a), pairs(b), order))
    # the kept rows of b serve a second product, and b as the left operand
    assert_exact_product(a * b, schoolbook(pairs(a), pairs(b), order))
    assert_exact_product(b * a, schoolbook(pairs(b), pairs(a), order))


def test_cancelling_terms_leave_the_table():
    xy = ("x", "y")
    a = TS(xy, 6, {(1, 0): 1, (0, 1): CR(0, 1)})  # x + i*y
    b = TS(xy, 6, {(1, 0): 1, (0, 1): CR(0, -1)})  # x - i*y
    assert (a * b).coefficients == {(2, 0): CR(1), (0, 2): CR(1)}
    half = TS(xy, 6, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    third = TS(xy, 6, {(1, 0): Fraction(2, 3), (0, 1): -1})
    # 1/3 x^2 - 1/2 xy + 2/9 xy - 1/3 y^2: every coefficient over 18
    assert (half * third).coefficients == {
        (2, 0): CR(Fraction(1, 3)),
        (1, 1): CR(Fraction(-5, 18)),
        (0, 2): CR(Fraction(-1, 3)),
    }
    assert (a - a) * b == TS.zero(xy, 6)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("edge", [0, 1])
def test_exponents_at_the_packing_width_edge(bits, edge):
    # order 2**bits - 1 fills a field of `bits` bits; 2**bits needs one more
    order = 2**bits - 1 + edge
    xyz = ("x", "y", "z")
    a = TS(xyz, order, {(0, 0, 0): 1, (0, order, 0): 2, (0, 0, order): 3, (1, 0, 0): CR(0, 1)})
    b = TS(xyz, order, {(0, e, 0): e + 1 for e in range(order + 1)})
    b = b + TS(xyz, order, {(0, 0, order): -1, (order - 1, 1, 0): 5, (order - 1, 0, 0): 7})
    got = a * b
    assert_exact_product(got, schoolbook(pairs(a), pairs(b), order))
    # each slot reaches the order, next to a zero field
    assert all(got.coefficient(mi) for mi in [(order, 0, 0), (0, order, 0), (0, 0, order)])


@st.composite
def boxed_operands(draw):
    variables = NAMES[: draw(st.integers(min_value=1, max_value=3))]
    order = draw(st.integers(min_value=1, max_value=8))
    a = draw(series(variables, order, min_degree=1, min_terms=2))
    b = draw(series(variables, order, min_degree=1, min_terms=2))
    slots = draw(st.lists(st.integers(min_value=0, max_value=len(variables) - 1), unique=True))
    box = {j: draw(st.integers(min_value=0, max_value=order)) for j in slots}
    return a, b, box


@settings(max_examples=100, deadline=None)
@given(boxed_operands())
def test_boxed_products_through_compose(abbox):
    a, b, box = abbox
    outer = TS(("u", "v"), a.order, {(1, 1): 1})
    names = {a.variables[j]: bound for j, bound in box.items()}
    got = outer.compose({"u": a, "v": b}, box=names)
    assert_exact_product(got, schoolbook(pairs(a), pairs(b), a.order, box))


@settings(max_examples=60, deadline=None)
@given(operands())
def test_kept_rows_never_go_stale(ab):
    a, b = ab
    a.pow(2) * b  # fills the rows kept on b
    a * b
    derived = [
        (b.with_variables(("p", "q", "r", "s")[: len(b.variables)]), 0),
        (b.truncate(b.order), 0),
        (b.truncate(b.order // 2), 0),
        (b.lift(b.variables + ("e",)), 1),
        (b.conjugate(), 0),
    ]
    for s, extra in derived:
        left = TS(s.variables, a.order, {mi + (0,) * extra: c for mi, c in a.coefficients.items()})
        fresh = TS(s.variables, s.order, s.coefficients)
        assert left * s == left * fresh
        assert left * s == left * fresh  # once more, from the kept rows of s


# ----------------------------------------------------------------------
# the content pass on packed tables


def full_content_product(a: dict, da: int, b, order: int):
    """``a`` (over ``da``) times the packed ``b`` through ``order`` by the
    schoolbook loop, its content divided out with one ``gcd(d, *every
    numerator)``: the rule the kernel's early-exit pass must reproduce."""
    top = b.layout.top
    out: dict = {}
    for ka, (ra, ia) in a.items():
        for kb, (rb, ib) in b.table.items():
            k = ka + kb
            if k >> top <= order:
                re, im = out.get(k, (0, 0))
                out[k] = [re + ra * rb - ia * ib, im + ra * ib + ia * rb]
    d = da * b.denominator
    g = gcd(d, *chain.from_iterable(out.values()))
    return {k: [re // g, im // g] for k, (re, im) in out.items()}, d // g, g


def packed_case(rng: random.Random, kind: str):
    """Seeded operands ``(a, da, b, order)`` of the product kernel whose
    full-rule content is 1 over a denominator above 1 (``unit``), above 1
    (``content``), or whose product holds a cancelled zero (``cancel``)."""
    n, order = rng.randint(1, 3), rng.randint(4, 12)
    layout = series_module._layout(max(order.bit_length(), 1), n)

    def key(degree):
        mi = [0] * n
        for _ in range(degree):
            mi[rng.randrange(n)] += 1
        return sum(map(mul, mi, layout.scale))

    def gaussian():
        return rng.randint(-20, 20), rng.randint(-20, 20)

    if kind == "cancel":
        # (r*m1 - r*m2) * (s*m1 + s*m2): the m1*m2 terms cancel
        m1, m2 = key(rng.randint(1, order // 2)), key(rng.randint(1, order // 2))
        while m2 == m1:
            m2 = key(rng.randint(1, order // 2))
        r, s = rng.randint(1, 9), rng.randint(1, 9)
        a, b = {m1: (r, 0), m2: (-r, 0)}, {m1: (s, 0), m2: (s, 0)}
        da, db = rng.randint(1, 30), rng.randint(1, 30)
    else:
        a = {key(rng.randint(1, order)): gaussian() for _ in range(rng.randint(2, 12))}
        b = {key(rng.randint(1, order)): gaussian() for _ in range(rng.randint(2, 12))}
        da, db = rng.randint(2, 30), rng.randint(2, 30)
        if kind == "unit":
            # 1 at the least key of each side: the least product key gets 1
            a[min(a)], b[min(b)] = (1, 0), (1, 0)
        else:
            c = rng.choice([2, 3, 4, 6, 10, 12])
            a = {k: (re * c, im * c) for k, (re, im) in a.items()}
            da *= c
    return a, da, series_module._Packed(layout, order, b, db), order


@pytest.mark.parametrize("kind", ["unit", "content", "cancel"])
@pytest.mark.parametrize("seed", range(8))
def test_early_exit_content_pass_matches_the_full_rule(kind, seed):
    a, da, b, order = packed_case(random.Random(1000 * seed + len(kind)), kind)
    want, want_d, g = full_content_product(a, da, b, order)
    if kind == "unit":
        assert g == 1 and want_d > 1
    elif kind == "content":
        assert g > 1
    else:
        assert [0, 0] in want.values()
    table, d = series_module._product(dict(a), da, b, order)
    # the same terms in the same order, over the same denominator
    assert list(table.items()) == list(want.items()) and d == want_d
    assert series_module._content(d, table) == 1
    assert series_module._content(da * b.denominator, {}) == da * b.denominator
