"""TruncatedSeries.compose and the solves built on it, against sympy.

sympy is a test-only dependency: it expands the substituted polynomial
independently of crjets, and the expansion truncated at the composed
series' order must agree coefficient by coefficient.  The cases cover the
substitutions compose moves as exponents instead of multiplying (one-term
series ``c*m``, bare variables among them, and zero), and general slots
whose powers are shared between outer monomials, on each side of the
test that sums the innermost general slot by Horner's rule; a boxed
composition must equal the full one restricted to the box, and the powers
kept on a substitution must not leak between compositions.

The solves have unique solutions, so checking their defining identity in
sympy checks the solution: ``implicit_solve`` (u = rhs(vars, u)),
``solve_composition`` (outer(g) = rhs), ``TruncatedSeries.inverse`` (s *
s^-1 = 1) and ``kth_root`` (root^k = s), each through the returned order.
The last three are also checked at order 12, where sympy multiplies in its
sparse ring over Q(i) with every product cut at the total degree.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from crjets import series
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS
from crjets.series import implicit_solve, kth_root, solve_composition

sympy = pytest.importorskip("sympy")
from sympy.polys.rings import ring  # noqa: E402
from sympy.polys.ring_series import rs_mul, rs_pow  # noqa: E402


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


def scalar(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def to_sympy(s):
    symbols = sympy.symbols(s.variables)
    expr = sympy.Integer(0)
    for mi, c in s.coefficients.items():
        term = scalar(c)
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
    moves = dict(subs, c=TS.variable("x", zx, 5))  # moves only: coefficients pass through
    assert outer.compose(moves) == oracle(outer, moves)
    cancel = TS(("a", "b", "c"), 5, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert cancel.compose(moves).coefficients == {}


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


def gapped_outer(rng, exponents, order):
    """Outer series in (a, b) whose b-exponents are exactly ``exponents``."""
    coeffs = {}
    for e in exponents:
        for _ in range(3):
            mi = (rng.randint(0 if e else 1, 3), e)
            coeffs[mi] = CR(rng.randint(-3, 3) or 1, rng.randint(-2, 2))
    return TS(("a", "b"), order, coeffs)


def spy_on_horner(monkeypatch):
    calls = []
    horner = series._horner

    def spy(*args):
        calls.append(args[2])  # the valuation of the substitution
        return horner(*args)

    monkeypatch.setattr(series, "_horner", spy)
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_substitution_with_few_groups_takes_horner(seed, monkeypatch):
    rng = random.Random(seed)
    zx = ("z", "x")
    dense_b = [(1, 1), (0, 2), (2, 1), (0, 4), (3, 1)]
    outer = gapped_outer(rng, (0, 1, 3), 7)  # gapped: b^2 is absent
    subs = {
        "a": random_series(rng, zx, 7, 2, min_degree=1),
        # valuation 2, more terms than b has groups in the outer
        "b": TS(zx, 7, {mi: CR(rng.randint(1, 3), rng.randint(-2, 2)) for mi in dense_b}),
    }
    calls = spy_on_horner(monkeypatch)
    out = outer.compose(subs)
    assert calls and min(calls) == 2
    assert out == oracle(outer, subs)


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_substitution_with_many_groups_keeps_powers(seed, monkeypatch):
    rng = random.Random(seed)
    zx, zxt = ("z", "x"), ("z", "x", "t")
    outer = gapped_outer(rng, (0, 1, 2, 4, 5, 7), 10)
    # valuation 2, and the quadric's t + 2i*z*x; neither is one monomial's series
    for b in [
        TS(zx, 10, {(1, 1): CR(0, 2), (0, 3): CR(rng.randint(1, 3))}),
        TS(zxt, 10, {(0, 0, 1): 1, (1, 1, 0): CR(0, 2)}),
    ]:
        subs = {"a": TS.variable("z", b.variables, 10), "b": b}
        calls = spy_on_horner(monkeypatch)
        out = outer.compose(subs)
        monkeypatch.undo()
        assert calls == []
        assert out == oracle(outer, subs)


def ring_oracle(outer, substitutions):
    """compose in sympy's sparse ring over Q(i) (see :func:`graded`): the
    powers of each substitution and every product of the outer's terms cut
    at the total degree by ``rs_mul``, for orders where the untruncated
    expansion of :func:`oracle` is too large."""
    order = min([outer.order] + [s.order for s in substitutions.values()])
    rows = []
    for v in outer.variables:
        gs, e = graded(substitutions[v])
        row = [gs.ring.one]
        for _ in range(order):  # every substitution vanishes at 0
            row.append(rs_mul(row[-1], gs, e, order + 1))
        rows.append(row)
    total, domain = gs.ring.zero, gs.ring.domain
    for mi, c in outer.coefficients.items():
        if sum(mi) <= order:
            term = gs.ring(domain.from_sympy(scalar(c)))
            for row, k in zip(rows, mi):
                term = rs_mul(term, row[k], e, order + 1)
            total += term
    return total


def dense_in(slot, rng, variables, order, terms):
    """A random series with ``terms`` terms plus one term at every exponent
    1..order of ``slot``, so it has a group at each of them there."""
    n = len(variables)
    s = random_series(rng, variables, order, terms)
    for e in range(1, order + 1):
        mi = tuple(e if j == slot else 0 for j in range(n))
        s = s + TS(variables, order, {mi: CR(rng.randint(1, 3), rng.randint(-2, 2))})
    return s


def one_monomial_case(shape, rng, order):
    """An outer with a group at every exponent of its last slot, and
    substitutions whose last one is a series in one monomial with fewer
    terms than that: Newton's iterate of a ``MapGerm.inverse`` step, ``K =
    (c*z/(1 - a*w), b*w/(1 - a*w))`` exact through half the order and
    carried at the order, or a scaled ``z^2 + z^4``."""
    if shape == "newton":
        zw = ("z", "w")
        a, b, c = [
            CR(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2)) for _ in range(3)
        ]
        half = order // 2
        subs = {
            "z": TS(zw, order, {(1, j): c * a**j for j in range(half)}),
            "w": TS(zw, order, {(0, j + 1): b * a**j for j in range(half)}),
        }
        return dense_in(1, rng, zw, order, 8), subs, 1
    zx = ("z", "x")
    ray = TS(zx, order, {(2, 0): CR(rng.randint(1, 3), 1), (4, 0): CR(Fraction(1, 2), -1)})
    subs = {"a": random_series(rng, zx, order, 3, min_degree=1), "b": ray}
    return dense_in(1, rng, ("a", "b"), order, 6), subs, 2


@pytest.mark.parametrize("order", [6, 12, 20])
@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("shape", ["newton", "z^2+z^4"])
def test_series_in_one_monomial_takes_horner(shape, seed, order, monkeypatch):
    # every key of the substitution is a multiple of its lowest, so its
    # powers share one support and a Horner accumulator cannot fill in
    outer, subs, valuation = one_monomial_case(shape, random.Random(seed), order)
    calls = spy_on_horner(monkeypatch)
    out = outer.compose(subs)
    assert calls and set(calls) == {valuation}  # once per group of the first slot
    assert graded(out)[0] == ring_oracle(outer, subs)
    if order == 6:
        assert out == oracle(outer, subs)


def restrict(s, bounds):
    """``s`` without the monomials above a bound (slot -> largest exponent)."""
    inside = lambda mi: all(mi[j] <= b for j, b in bounds.items())  # noqa: E731
    return TS(s.variables, s.order, {mi: c for mi, c in s.coefficients.items() if inside(mi)})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("box", [{"z": 1}, {"z": 2, "t": 3}, {"t": 0}, {"x": 1, "t": 2}])
def test_boxed_composition_is_the_full_one_restricted(seed, box):
    rng = random.Random(seed)
    zxt = ("z", "x", "t")
    outer = random_series(rng, ("a", "b", "c", "d"), 7, 20)
    subs = {
        "a": TS.variable("z", zxt, 7),
        "b": random_series(rng, zxt, 7, 10, min_degree=1),
        "c": random_series(rng, zxt, 7, 3, min_degree=1),
        "d": monomial(zxt, 7, (0, 1, 1), CR(2, -1)),
    }
    full = outer.compose(subs)
    boxed = outer.compose(subs, box=box)
    assert boxed == restrict(full, {zxt.index(v): b for v, b in box.items()})
    assert full == outer.compose({v: TS(zxt, 7, s.coefficients) for v, s in subs.items()})


def test_box_names_a_target_variable():
    zx = ("z", "x")
    with pytest.raises(series.UnknownVariable):
        TS.variable("a", ("a",), 3).compose({"a": TS.variable("z", zx, 3)}, box={"w": 1})


@pytest.mark.parametrize("seed", SEEDS)
def test_kept_powers_equal_fresh_compositions(seed):
    rng = random.Random(seed)
    zx = ("z", "x")
    outside = TS(zx, 8, {(0, 2): 1, (1, 2): CR(0, 1)})  # outside the box x <= 1
    subs = {
        "a": random_series(rng, zx, 8, 5, min_degree=1) + outside,
        "b": random_series(rng, zx, 8, 9, min_degree=1) + outside,
    }
    first, second = (random_series(rng, ("a", "b"), 8, 14) for _ in range(2))
    # one substitution throughout: a box before the full composition, a
    # lower order before a higher one, and two outers
    for outer, box in [
        (first.truncate(5), {"x": 1}),
        (first.truncate(5), None),
        (first, None),
        (second, None),
        (second.truncate(3), None),
        (second, {"z": 1}),
    ]:
        fresh = {v: TS(zx, s.order, s.coefficients) for v, s in subs.items()}
        assert outer.compose(subs, box=box) == outer.compose(fresh, box=box)


def test_order_16_inverse_makes_few_products(monkeypatch):
    # rotation, dilation and a w-Moebius factor: 16 terms in each of F, G
    from crjets.mapjets import dilation, w_mobius

    h = dilation(CR(Fraction(3, 5), Fraction(4, 5)), 2, 16).compose(w_mobius(Fraction(1, 2), 16))
    counts = {"series": 0, "scalar": 0, "kernel": 0}
    mul, scalar_mul, product = TS.__mul__, CR.__mul__, series._product

    def counting(a, b):
        counts["series"] += isinstance(b, TS)
        return mul(a, b)

    def scalar_counting(a, b):
        counts["scalar"] += 1
        return scalar_mul(a, b)

    def kernel_counting(*args):
        counts["kernel"] += 1
        return product(*args)

    monkeypatch.setattr(TS, "__mul__", counting)
    monkeypatch.setattr(CR, "__mul__", scalar_counting)
    monkeypatch.setattr(series, "_product", kernel_counting)
    inv = h.inverse()
    monkeypatch.undo()
    # 180 series and 3452 scalar products when every composition rebuilt
    # its powers and summed every general slot by powers
    assert counts["series"] <= 140
    assert counts["scalar"] <= 2000
    # 129 kernel products when w's slot, a series in w alone, took powers
    assert counts["kernel"] <= 104
    assert h.compose(inv) == dilation(1, 1, 16)


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


def graded(s):
    """``s`` in sympy's sparse ring over Q(i) with one more generator ``e``,
    each monomial times ``e^degree``, and that ``e``: a product truncated
    in ``e`` by ``rs_mul`` is cut at the total degree."""
    r = ring(",".join(s.variables) + ",e", sympy.QQ_I)[0]
    terms = {mi + (sum(mi),): r.domain.from_sympy(scalar(c)) for mi, c in s.coefficients.items()}
    return r(terms), r.gens[-1]


ZXT12 = (("z", "x", "t"), 12)  # the order-12 case of each solve, beside its low one


@pytest.mark.parametrize(
    "seed,order",
    [pytest.param(seed, 5, id=f"{seed}") for seed in SEEDS]
    + [pytest.param(seed, 12, id=f"order12-{seed}") for seed in SEEDS],
)
def test_solve_composition_against_sympy(seed, order):
    rng = random.Random(seed)
    outer = random_series(rng, ("x",), order, 4, min_degree=2) + TS(("x",), order, {(1,): CR(2, 1)})
    rhs = random_series(rng, ("x",), order, 4, min_degree=1)
    g = solve_composition(outer, rhs)
    assert g.constant_term().is_zero and g.order == order
    # outer(g) by Horner's rule, every product cut at the order
    gg, e = graded(g)
    lhs, domain = gg.ring.zero, gg.ring.domain
    for j in range(order, 0, -1):
        lhs = rs_mul(lhs + domain.from_sympy(scalar(outer.coefficient((j,)))), gg, e, order + 1)
    assert lhs == graded(rhs)[0]
    if order == 5:
        assert oracle(outer, {"x": g}) == rhs


@pytest.mark.parametrize(
    "seed,variables,order",
    [pytest.param(seed, ("z", "x"), 6, id=f"{seed}") for seed in SEEDS]
    + [pytest.param(seed, *ZXT12, id=f"zxt12-{seed}") for seed in SEEDS],
)
def test_series_inverse_against_sympy(seed, variables, order):
    rng = random.Random(seed)
    s = random_series(rng, variables, order, 8, min_degree=1) + CR(Fraction(3, 2), -1)
    inv = s.inverse()
    assert inv.order == order
    (gs, e), gi = graded(s), graded(inv)[0]
    assert rs_mul(gs, gi, e, order + 1) == gs.ring.one


@pytest.mark.parametrize(
    "k,seed,variables,order",
    [pytest.param(k, seed, ("z", "x"), 7, id=f"{k}-{seed}") for k in (2, 3) for seed in SEEDS]
    + [pytest.param(k, seed, *ZXT12, id=f"zxt12-{k}-{seed}") for k in (2, 3) for seed in SEEDS],
)
def test_kth_root_against_sympy(k, seed, variables, order):
    rng = random.Random(seed)
    n = len(variables)
    unit = random_series(rng, variables, order, 8, min_degree=1) + 1
    lead = (1,) + (0,) * (n - 1) if seed % 2 else (1, 1) + (0,) * (n - 2)
    s = unit.shift_up(tuple(k * e for e in lead)).truncate(order)
    root = kth_root(s, k)
    assert root.coefficient(lead) == CR(1)
    (gr, e), gs = graded(root), graded(s)[0]
    assert rs_pow(gr, k, e, s.order + 1) == gs


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(TS, name)

    def spy(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(TS, name, spy)
    return calls


@pytest.mark.parametrize("order", [2, 6, 12])
def test_solve_composition_composes_once(order, monkeypatch):
    # the table of g^j solves every degree; the one composition is the check
    rng = random.Random(order)
    outer = random_series(rng, ("x",), order, 6, min_degree=2) + TS(("x",), order, {(1,): CR(1, 1)})
    rhs = random_series(rng, ("x",), order, 6, min_degree=1)
    compositions = count_calls(monkeypatch, "compose")
    products = count_calls(monkeypatch, "__mul__")
    g = solve_composition(outer, rhs)
    assert len(compositions) == 1 and products == []
    monkeypatch.undo()
    assert outer.compose({"x": g}) == rhs


def test_division_and_roots_make_no_series_product(monkeypatch):
    rng = random.Random(5)
    zxt = ("z", "x", "t")
    unit = random_series(rng, zxt, 10, 8, min_degree=1) + CR(2, -1)
    num = random_series(rng, zxt, 10, 8)
    monic = (random_series(rng, zxt, 10, 8, min_degree=1) + 1).shift_up((2, 0, 0)).truncate(10)
    products = count_calls(monkeypatch, "__mul__")
    inv, quotient, root = unit.inverse(), num / unit, kth_root(monic, 2)
    shifted = num.shift_up((0, 1, 0)) / unit.shift_up((0, 1, 0))
    assert products == []
    monkeypatch.undo()
    assert inv * unit == TS.constant(1, zxt, 10)
    assert quotient * unit == num and shifted == quotient
    assert root * root == monic.truncate(root.order)


# ----------------------------------------------------------------------
# the packed kernel: exponents at `width = max(order.bit_length(), 1)` bits
# a slot with the degree in a top field, Gaussian integers over one
# denominator, content divided out after each product


def assert_lowest_terms(s):
    """Each coefficient is stored as (a + b*i) / d with gcd(a, b, d) == 1."""
    for c in s.coefficients.values():
        assert c._d > 0 and gcd(c._a, c._b, c._d) == 1


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 15, 16])
def test_orders_at_the_field_width_edges(order):
    # order 2**k - 1 fills a field of k bits; 2**k needs one more.  Every
    # slot and the degree field reach the order: a^order becomes z^order
    zx = ("z", "x")
    outer = TS(
        ("a", "b", "c"),
        order,
        {
            (order, 0, 0): CR(Fraction(1, 3), 1),
            (0, order, 0): CR(2, Fraction(-1, 7)),
            (0, 0, order): 5,
            (order // 2, order - order // 2, 0): CR(0, Fraction(1, 2)),
            (1, 0, 0): 1,
            (0, 0, 1): CR(-1, 1),
        },
    )
    subs = {
        "a": TS(zx, order, {(1, 0): 1, (0, 2): CR(Fraction(2, 3), -1)}),
        "b": TS(zx, order, {(0, 1): CR(1, Fraction(1, 5)), (1, 1): Fraction(-1, 2), (2, 1): 3}),
        "c": monomial(zx, order, (0, 1), CR(Fraction(1, 2), Fraction(1, 2))),
    }
    full = outer.compose(subs)
    assert full == oracle(outer, subs)
    assert full.coefficient((order, 0)) and full.coefficient((0, order))
    assert_lowest_terms(full)
    for box in ({"z": 1}, {"x": 2, "z": 3}, {"z": order, "x": order}):
        boxed = outer.compose(subs, box=box)
        assert boxed == restrict(full, {zx.index(v): b for v, b in box.items()})
        assert_lowest_terms(boxed)


@pytest.mark.parametrize("seed", SEEDS)
def test_denominators_that_do_not_cancel(seed):
    # coprime denominators in the outer, the substitutions and a scaled
    # one-term move: the result's denominators are their products, which
    # the content step must keep while it divides out common factors
    rng = random.Random(seed)
    primes = [7, 11, 13, 17, 19, 23]
    zx = ("z", "x")

    def gaussian():
        re = Fraction(rng.randint(1, 9), rng.choice(primes))
        return CR(re, Fraction(rng.randint(-9, 9), rng.choice(primes)))

    slots = [(1, 0, 0), (0, 1, 0), (2, 1, 0), (1, 2, 1), (0, 3, 2), (3, 0, 1), (2, 2, 2), (0, 0, 4)]
    outer = TS(("a", "b", "c"), 6, {mi: gaussian() for mi in slots})
    subs = {
        "a": TS(zx, 6, {(1, 0): CR(Fraction(1, 3), Fraction(1, 5)), (1, 1): CR(0, Fraction(2, 9))}),
        "b": TS(zx, 6, {(0, 1): Fraction(4, 25), (2, 0): CR(Fraction(-1, 27), 1)}),
        "c": monomial(zx, 6, (1, 1), CR(Fraction(2, 29), Fraction(-3, 31))),
    }
    subs["b"] = subs["b"] + TS(zx, 6, {(0, 3): gaussian()})
    out = outer.compose(subs)
    assert out == oracle(outer, subs)
    assert_lowest_terms(out)
    assert max(c.re.denominator for c in out.coefficients.values()) > 29 * 31


def truncated(outer, substitutions):
    """compose by schoolbook arithmetic on (re, im) Fraction pairs, each
    product truncated at the order: for a chain too long for sympy's
    expansion, which does not truncate."""
    target = next(iter(substitutions.values()))
    order = min([outer.order] + [s.order for s in substitutions.values()])
    one = {(0,) * len(target.variables): (Fraction(1), Fraction(0))}

    def times(a, b):
        out = {}
        for mi, (ar, ai) in a.items():
            for mj, (br, bi) in b.items():
                mk = tuple(x + y for x, y in zip(mi, mj))
                if sum(mk) <= order:
                    re, im = out.get(mk, (0, 0))
                    out[mk] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        return out

    powers = {}
    for v in outer.variables:
        s = {mi: (c.re, c.im) for mi, c in substitutions[v].coefficients.items()}
        powers[v] = [one]
        for _ in range(order):
            powers[v].append(times(powers[v][-1], s))
    total = {}
    for mi, c in outer.coefficients.items():
        if sum(mi) > order:
            continue
        term = {k: (c.re * re - c.im * im, c.re * im + c.im * re) for k, (re, im) in one.items()}
        for v, e in zip(outer.variables, mi):
            term = times(term, powers[v][e])
        for mk, (re, im) in term.items():
            r0, i0 = total.get(mk, (0, 0))
            total[mk] = (r0 + re, i0 + im)
    return TS(target.variables, order, {mk: CR(re, im) for mk, (re, im) in total.items()})


def test_a_long_horner_chain(monkeypatch):
    # 16 exponent groups over a 19-term substitution: Horner's rule takes
    # 15 products, each left operand the previous step's packed result
    order = 16
    zx = ("z", "x")
    dense = {(1, 0): 1, (0, 1): CR(0, Fraction(1, 2)), (1, 1): Fraction(1, 3)}
    dense[(2, 1)] = Fraction(2, 3)
    for e in range(2, order):
        dense[(e, 0)] = CR(Fraction(1, e), Fraction(-1, e + 1))
    s = TS(zx, order, dense)
    outer = TS(("a", "b"), order, {(e % 2, e): CR(Fraction(1, e + 1), e % 3) for e in range(order)})
    subs = {"a": TS.variable("x", zx, order), "b": s}
    calls = spy_on_horner(monkeypatch)
    out = outer.compose(subs)
    assert calls == [1]
    assert out == truncated(outer, subs)
    assert_lowest_terms(out)
    # the two oracles agree where sympy's expansion is small enough
    small = outer.truncate(5)
    subs = {v: s.truncate(5) for v, s in subs.items()}
    assert truncated(small, subs) == oracle(small, subs)


@pytest.mark.parametrize("seed", SEEDS)
def test_products_and_powers_stay_in_lowest_terms(seed):
    rng = random.Random(seed)
    zxt = ("z", "x", "t")
    outer = random_series(rng, ("a", "b", "c"), 5, 10)
    subs = {v: random_series(rng, zxt, 5, 3, min_degree=1) for v in ("a", "b", "c")}
    out = outer.compose(subs)
    assert out == oracle(outer, subs)
    assert_lowest_terms(out)
    assert_lowest_terms(subs["a"] * subs["b"])
