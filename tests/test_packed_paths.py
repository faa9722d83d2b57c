"""The packed hand-offs of the series kernel against the public operations.

``MapGerm.inverse`` keeps each Newton residual packed and updates K in one
pass per component; ``verify_mapping`` differences the two sides of the
mapping identity as packed tables; ``_Packed.fitting`` lists the terms that
fit a degree budget as a prefix of a table kept in key order.  Each is
checked here against the same computation written with the public series
operations (``compose``, ``partial_derivative``, ``*``, ``+``, ``-``), which
unpack every intermediate result, or against the plain filter.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crjets import mapjets
from crjets import series as series_module
from crjets.hypersurface import SURFACE_VARS, heisenberg, infinite_type_model, quartic_model
from crjets.mapjets import MAP_VARS, MapError, MapGerm, dilation, identity_map, verify_mapping
from crjets.mapjets import w_mobius
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS


def gaussian(rng):
    """A Gaussian rational with small numerators and denominators."""
    re, im = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
    return CR(re, im)


def dense_terms(rng, order, through, extra):
    """Every monomial of degree 2 to ``through`` and ``extra`` more of
    degree at most the order, with Gaussian rational coefficients."""
    coeffs = {
        (i, j): gaussian(rng)
        for i in range(order + 1)
        for j in range(order + 1 - i)
        if 2 <= i + j <= through
    }
    for _ in range(extra):
        i = rng.randint(0, order)
        coeffs[(i, rng.randint(0, order - i))] = gaussian(rng)
    coeffs.pop((0, 0), None)
    return coeffs


def dense_germ(rng, order, through=4, extra=8):
    """Dense terms with an invertible linear part whose four entries are
    all nonzero: F_w(0) != 0 and G_z(0) != 0, so the germ is not
    triangular."""
    while True:
        lin = [gaussian(rng) for _ in range(4)]
        if all(lin) and not (lin[0] * lin[3] - lin[1] * lin[2]).is_zero:
            break
    comps = []
    for a, b in ((lin[0], lin[1]), (lin[2], lin[3])):
        coeffs = {**dense_terms(rng, order, through, extra), (1, 0): a, (0, 1): b}
        comps.append(TS(MAP_VARS, order, coeffs))
    return MapGerm(*comps)


def tangent_germ(rng, order):
    """The identity plus dense terms: Newton's first iterate is (z, w), so
    the first residuals come from a composition by unscaled moves alone."""
    f, g = ({**dense_terms(rng, order, 4, 8), (1, 0): a, (0, 1): b} for a, b in ((1, 0), (0, 1)))
    return MapGerm(TS(MAP_VARS, order, f), TS(MAP_VARS, order, g))


def sheared_linear(rng, order):
    """A linear map after the shear (z + c*w^2, w): its inverse is a
    polynomial of degree 2, so the Newton residual vanishes from the second
    step on."""
    while True:
        a, b, c, d = (gaussian(rng) for _ in range(4))
        if all((a, b, c, d)) and not (a * d - b * c).is_zero:
            break
    z, w = (TS.variable(v, MAP_VARS, order) for v in MAP_VARS)
    linear = MapGerm(z * a + w * b, z * c + w * d)
    return MapGerm(z + w * w * gaussian(rng), w).compose(linear)


def public_newton(h):
    """Newton's inverse written with the public operations, every residual
    and product unpacked: the update ``K - (K_z E_f + K_w E_g)`` the packed
    one-pass update must reproduce."""
    a, b = h.f.coefficient((1, 0)), h.f.coefficient((0, 1))
    c, d = h.g.coefficient((1, 0)), h.g.coefficient((0, 1))
    inv_det = CR(1) / (a * d - b * c)
    zg, wg = (TS.variable(v, MAP_VARS, h.order) for v in MAP_VARS)
    kf = (zg * d - wg * b) * inv_det
    kg = (wg * a - zg * c) * inv_det
    prec = 1
    while prec < h.order:
        prec = min(2 * prec, h.order)
        kf = TS(MAP_VARS, prec + 1, kf.coefficients)
        kg = TS(MAP_VARS, prec + 1, kg.coefficients)
        subs = {"z": kf, "w": kg}
        ef = h.f.truncate(prec).compose(subs) - zg
        eg = h.g.truncate(prec).compose(subs) - wg
        kf = kf - (kf.partial_derivative("z") * ef + kf.partial_derivative("w") * eg)
        kg = kg - (kg.partial_derivative("z") * ef + kg.partial_derivative("w") * eg)
    return MapGerm(kf, kg)


GERMS = {
    "dense": dense_germ,
    "sparse": lambda rng, order: dense_germ(rng, order, 2, 3),
    "sheared": sheared_linear,
    "tangent": tangent_germ,
}


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 8, 9, 12, 16])
@pytest.mark.parametrize("kind", sorted(GERMS))
@pytest.mark.parametrize("seed", [0, 1])
def test_packed_newton_equals_the_public_update(order, kind, seed):
    h = GERMS[kind](random.Random(1000 * order + 10 * seed + len(kind)), order)
    inv = h.inverse()
    want = public_newton(h)
    assert inv == want and inv.order == want.order == order
    assert h.compose(inv) == identity_map(order)
    assert inv.compose(h) == identity_map(order)


def test_sheared_residual_vanishes_at_an_early_step(monkeypatch):
    h = sheared_linear(random.Random(5), 16)
    sizes = []
    update = series_module._newton_update

    def recording(k, residuals):
        sizes.append([len(e.table) for e in residuals])
        return update(k, residuals)

    monkeypatch.setattr(mapjets, "_newton_update", recording)
    inv = h.inverse()
    # precisions 2, 4, 8, 16, two components each: after the step at 2 the
    # iterate is the exact polynomial inverse, and every residual is empty
    assert len(sizes) == 8 and any(sizes[0])
    assert all(size == [0, 0] for size in sizes[2:])
    assert inv == public_newton(h)


@pytest.mark.parametrize("drop", [0, 1])
def test_an_update_that_drops_a_term_fails_the_closing_probe(monkeypatch, drop):
    h = dense_germ(random.Random(7), 9)
    update = series_module._newton_update

    def dropping(k, residuals):
        return update(k, residuals[:drop] + residuals[drop + 1 :])

    monkeypatch.setattr(mapjets, "_newton_update", dropping)
    with pytest.raises(MapError, match="failed to close"):
        h.inverse()


def public_residual(source, target, h):
    """G(z, Q) - Q'(F(z, Q), Fbar, Gbar) with public compositions and a
    public difference."""
    order = min(source.order, target.order, h.order)
    subs = {"z": TS.variable("z", SURFACE_VARS, order), "w": source.q}
    f_on_m, g_on_m = (TS(MAP_VARS, order, c.coefficients).compose(subs) for c in (h.f, h.g))
    fbar, gbar = (
        c.conjugate().lift(SURFACE_VARS, {"z": "x", "w": "t"}).truncate(order) for c in (h.f, h.g)
    )
    return g_on_m - target.q.compose({"z": f_on_m, "x": fbar, "t": gbar})


SURFACES = {"quadric": heisenberg, "quartic": quartic_model, "infinite_type": infinite_type_model}


@pytest.mark.parametrize("source", sorted(SURFACES))
@pytest.mark.parametrize("seed", range(4))
def test_packed_residual_equals_the_public_difference(source, seed):
    rng = random.Random(100 * seed + len(source))
    surface_order, map_order = rng.choice([(6, 6), (8, 5), (5, 8), (9, 9)])
    s = SURFACES[source](surface_order)
    t = SURFACES[rng.choice(sorted(SURFACES))](surface_order)
    h = dense_germ(rng, map_order, 3, 4)
    got = verify_mapping(s, t, h)
    want = public_residual(s, t, h)
    assert not want.is_zero  # the nonzero-residual path
    assert got == want and got.order == want.order == min(surface_order, map_order)


@pytest.mark.parametrize(
    "surface, h",
    [
        (heisenberg(10), w_mobius(Fraction(1, 3), 10)),
        (heisenberg(10), identity_map(10)),
        (quartic_model(8), dilation(CR(Fraction(3, 5), Fraction(4, 5)), 1, 8)),
        (heisenberg(10), dilation(2, 4, 7)),
    ],
)
def test_a_passing_map_leaves_an_empty_residual_at_the_common_order(surface, h):
    got = verify_mapping(surface, surface, h)
    assert got.is_zero and got == public_residual(surface, surface, h)
    assert got.order == min(surface.order, h.order)


def test_a_difference_of_two_layouts_is_refused():
    a = TS(("z",), 4, {(1,): 1})._compose({"z": TS(("z",), 4, {(1,): 2})})
    b = TS(("z",), 8, {(1,): 1})._compose({"z": TS(("z",), 8, {(1,): 2})})
    with pytest.raises(series_module.SeriesError):
        series_module._difference(a, b)


@st.composite
def packed_tables(draw):
    n, order = draw(st.integers(1, 3)), draw(st.integers(0, 20))
    layout = series_module._layout(max(order.bit_length(), 1), n)
    mis = draw(st.lists(st.lists(st.integers(0, order), min_size=n, max_size=n), max_size=40))
    values = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    table = {}
    for mi in mis:
        if sum(mi) <= order:
            table[sum(e * s for e, s in zip(mi, layout.scale))] = draw(values)
    return series_module._Packed(layout, order, table, draw(st.integers(1, 30)))


@settings(max_examples=150, deadline=None)
@given(packed=packed_tables(), budgets=st.lists(st.integers(0, 24), min_size=1, max_size=6))
def test_prefix_partner_lists_equal_the_filtered_lists(packed, budgets):
    top = packed.layout.top
    for budget in budgets + [packed.order, packed.order + 1, packed.order + 5]:
        want = [(k, re, im) for k, (re, im) in packed.table.items() if k >> top <= budget]
        got = packed.fitting(budget)
        # the same multiset, and in the table's order too
        assert sorted(got) == sorted(want) and got == want
    assert list(packed.table) == sorted(packed.table)
