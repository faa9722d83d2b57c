"""Normal form construction, validity checks, invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS, implicit_solve
from crjets.hypersurface import (
    GRAPH_VARS,
    SURFACE_VARS,
    InfiniteUpTo,
    NormalFormSurface,
    RealGraph,
    SurfaceError,
    UnknownAbove,
    from_real_graph,
    heisenberg,
    infinite_type_model,
    levi_flat_model,
    quartic_model,
)

I = CR(0, 1)


def graph(order, coeffs):
    return RealGraph(TS(GRAPH_VARS, order, coeffs))


def test_from_real_graph_heisenberg():
    surf = from_real_graph(graph(8, {(1, 1, 0): 1}))
    assert surf == heisenberg(8)


def test_from_real_graph_quartic():
    surf = from_real_graph(graph(8, {(2, 2, 0): 1}))
    assert surf == quartic_model(8)


def test_from_real_graph_infinite_type():
    surf = from_real_graph(graph(8, {(1, 1, 1): 1}))
    assert surf == infinite_type_model(8)
    # closed-form check: Q = t (1 + i z x) / (1 - i z x)
    izx = TS(SURFACE_VARS, 8, {(1, 1, 0): I})
    t = TS.variable("t", SURFACE_VARS, 8)
    assert surf.q == (t * (1 + izx)) / (1 - izx)


def test_from_real_graph_rejects_non_normal_input():
    with pytest.raises(SurfaceError):
        from_real_graph(graph(6, {(1, 0, 0): 1}))


def test_check_normal_pass_and_fail():
    assert heisenberg(10).check_normal().passed
    assert levi_flat_model(6).check_normal().passed
    bad = NormalFormSurface(
        TS(SURFACE_VARS, 6, {(0, 0, 1): 1, (1, 0, 0): 1})
    )
    report = bad.check_normal()
    assert not report.passed
    assert report.violations[0][1] == (1, 0, 0)


def test_check_reality_pass():
    assert heisenberg(10).check_reality().passed
    assert levi_flat_model(6).check_reality().passed


def test_check_reality_detects_missing_i():
    bad = NormalFormSurface(TS(SURFACE_VARS, 6, {(0, 0, 1): 1, (1, 1, 0): 1}))
    report = bad.check_reality()
    assert not report.passed
    # brute-force oracle: Q(z,x,Qbar(x,z,w)) - w = (w + zx) + zx - w = 2 z x
    assert report.residual == TS(("z", "x", "w"), 6, {(1, 1, 0): 2})


def q_functions(surf, max_m):
    """Every q function with 1 <= alpha, alpha + mu <= max_m."""
    return {
        (m - mu, mu): surf.q_function(m - mu, mu)
        for m in range(1, max_m + 1)
        for mu in range(m)
    }


def test_q_function_heisenberg():
    table = q_functions(heisenberg(10), 4)
    assert table[(1, 0)] == TS(("x",), 9, {(1,): 2 * I})
    assert all(s.is_zero for key, s in table.items() if key != (1, 0))


def test_q_function_quartic():
    surf = quartic_model(10)
    assert surf.q_function(2, 0) == TS(("x",), 8, {(2,): 4 * I})
    assert surf.q_function(1, 0).is_zero and surf.q_function(1, 1).is_zero


def test_q_function_infinite_type():
    surf = infinite_type_model(10)
    assert surf.q_function(1, 1) == TS(("x",), 8, {(1,): 2 * I})
    assert surf.q_function(1, 0).is_zero and surf.q_function(2, 0).is_zero


def test_q_vanishes_at_origin():
    for surf in (heisenberg(8), quartic_model(8), infinite_type_model(8)):
        for (alpha, mu), series in q_functions(surf, 5).items():
            assert alpha >= 1
            assert series.coefficient((0,)).is_zero


def test_invariants_heisenberg():
    inv = heisenberg(12).compute_invariants()
    assert inv.tuple() == (1, 1, 0, 1, 1)
    assert inv.finite_type is True
    assert inv.levi_flat is False


def test_invariants_quartic():
    inv = quartic_model(12).compute_invariants()
    assert inv.tuple() == (2, 2, 0, 2, 2)
    assert inv.finite_type is True


def test_invariants_infinite_type():
    inv = infinite_type_model(12).compute_invariants()
    assert (inv.m0, inv.alpha0, inv.mu0, inv.ell) == (2, 1, 1, 1)
    assert inv.beta0 is None
    assert inv.finite_type is False
    assert inv.levi_flat is False


def test_invariants_levi_flat():
    inv = levi_flat_model(12).compute_invariants()
    assert inv.m0 == InfiniteUpTo(12)
    assert inv.levi_flat == UnknownAbove(12)
    assert inv.finite_type is False
    assert inv.alpha0 is None and inv.mu0 is None


def test_ell_at_least_alpha0_on_corpus():
    for surf in (heisenberg(12), quartic_model(12), infinite_type_model(12)):
        inv = surf.compute_invariants()
        assert not inv.ell_below_alpha0


# ----------------------------------------------------------------------
# invariance under normal-form-preserving dilations (z,w) -> (lam z, rho w)


def dilate_surface(surf, lam: CR, rho: Fraction) -> NormalFormSurface:
    n = surf.order
    inv_rho = CR(Fraction(1) / rho)
    zg = TS.variable("z", SURFACE_VARS, n)
    xg = TS.variable("x", SURFACE_VARS, n)
    tg = TS.variable("t", SURFACE_VARS, n)
    pulled = surf.q.compose(
        {"z": zg * (CR(1) / lam), "x": xg * (CR(1) / lam.conjugate()), "t": tg * inv_rho}
    )
    return NormalFormSurface(pulled * CR(rho))


@pytest.mark.parametrize(
    "lam,rho",
    [
        (CR(2), Fraction(3)),
        (CR(0, 1), Fraction(1, 2)),
        (CR(Fraction(3, 5), Fraction(4, 5)), Fraction(-2)),
    ],
)
def test_invariants_stable_under_dilations(lam, rho):
    for make in (heisenberg, quartic_model, infinite_type_model):
        surf = make(10)
        moved = dilate_surface(surf, lam, rho)
        moved.validate()
        assert moved.compute_invariants().tuple() == surf.compute_invariants().tuple()


# ----------------------------------------------------------------------
# random admissible graphs: construction always lands in normal form

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)


@st.composite
def admissible_graphs(draw):
    order = draw(st.integers(min_value=4, max_value=7))
    base = {}
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a = draw(st.integers(min_value=1, max_value=3))
        b = draw(st.integers(min_value=1, max_value=3))
        m = draw(st.integers(min_value=0, max_value=2))
        if a + b + m > order:
            continue
        base[(a, b, m)] = CR(draw(small_rationals), draw(small_rationals))
    rho = TS(GRAPH_VARS, order, base)
    phi = rho + rho.conjugate().rename_variables({"z": "x", "x": "z"})
    return RealGraph(phi)


@settings(max_examples=20, deadline=None)
@given(admissible_graphs())
def test_from_real_graph_always_normal_and_real(g):
    surf = from_real_graph(g)
    assert surf.check_normal().passed
    assert surf.check_reality().passed


# ----------------------------------------------------------------------
# the one-pass vanishing pattern against a slot-by-slot scan


def scanned_pattern(surf) -> tuple:
    """(m0, alpha0, mu0, ell, beta0) read slot by slot from q_function and
    r_function, in the order the definitions state them."""
    n = surf.order
    lead = None
    for m in range(1, n + 1):
        for mu in range(0, m):  # ties resolved by minimal mu
            if not surf.q_function(m - mu, mu).is_zero:
                lead = (m, m - mu, mu)
                break
        if lead is not None:
            break
    beta0 = next((b for b in range(1, n + 1) if not surf.r_function(b).is_zero), None)
    if lead is None:
        return (InfiniteUpTo(n), None, None, None, beta0)
    m0, alpha0, mu0 = lead
    return (m0, alpha0, mu0, surf.q_function(alpha0, mu0).vanishing_order("x"), beta0)


def assert_pattern_matches_scan(surf):
    report = surf._vanishing_pattern()
    expected = scanned_pattern(surf)
    assert report.tuple() == expected
    assert report.finite_type == (expected[4] is not None)
    finite = not isinstance(expected[0], InfiniteUpTo)
    assert report.levi_flat == (False if finite else UnknownAbove(surf.order))
    assert report.ell_below_alpha0 == (finite and expected[3] < expected[1])
    assert report.certified_order == surf.order


@pytest.mark.parametrize("order", range(13))
def test_vanishing_pattern_matches_scan_on_models(order):
    for make in (heisenberg, quartic_model, infinite_type_model, levi_flat_model):
        assert_pattern_matches_scan(make(order))


def seeded_dense_graph(rng, order) -> RealGraph:
    base = {}
    for a in range(1, order):
        for b in range(1, order - a + 1):
            for m in range(order - a - b + 1):
                if rng.random() < 0.4:
                    base[(a, b, m)] = CR(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                         Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    rho = TS(GRAPH_VARS, order, base)
    return RealGraph(rho + rho.conjugate().rename_variables({"z": "x", "x": "z"}))


def test_vanishing_pattern_matches_scan_on_dense_graphs():
    import random

    rng = random.Random(13)
    for _ in range(40):
        assert_pattern_matches_scan(from_real_graph(seeded_dense_graph(rng, rng.randint(2, 6))))


def test_from_real_graph_on_a_dense_graph_at_order_12():
    # every sweep of implicit_solve composes a dense iterate into a dense
    # phi; the surface must pass validate, and agree with the same graph
    # at order 7, whose packed fields are a bit narrower
    import random

    graph = seeded_dense_graph(random.Random(12), 12)
    surf = from_real_graph(graph)
    surf.validate()
    assert surf.check_normal().passed and surf.check_reality().passed
    low = from_real_graph(RealGraph(graph.phi.truncate(7)))
    assert surf.q.truncate(7) == low.q


def test_vanishing_pattern_matches_scan_on_random_q():
    """Random Q = t + monomials z^a x^b t^c: in normal form (a, b >= 1), and
    with monomials off it (x^0, z^0) to reach ell = 0 and every slot."""
    import random

    rng = random.Random(1313)
    for trial in range(400):
        order = rng.randint(0, 9)
        normal = trial % 4 != 0
        coeffs = {(0, 0, 1): 1}
        for _ in range(rng.randint(0, 6)):
            a = rng.randint(1 if normal else 0, order + 1)
            b = rng.randint(1 if normal else 0, order + 1)
            c = rng.randint(0, order + 1)
            coeffs[(a, b, c)] = CR(rng.randint(-2, 2), rng.randint(-1, 1))
        assert_pattern_matches_scan(NormalFormSurface(TS(SURFACE_VARS, order, coeffs)))


# ----------------------------------------------------------------------
# from_real_graph solves for Re w: the same Q as solving for w


def solved_for_w(phi: TS) -> TS:
    """The w route: Q = implicit_solve(t + 2i phi(z, x, (w + t)/2), w)."""
    n = phi.order
    solve_vars = ("z", "x", "t", "w")
    z, x, t, w = (TS.variable(v, solve_vars, n) for v in solve_vars)
    substituted = phi.compose({"z": z, "x": x, "s": (w + t) * CR(Fraction(1, 2))})
    return implicit_solve(t + substituted * CR(0, 2), "w")


@pytest.mark.parametrize("order", range(2, 11))
def test_solving_for_re_w_gives_the_q_of_solving_for_w(order):
    import random

    rng = random.Random(2400 + order)
    for _ in range(3 if order < 9 else 1):
        graph = seeded_dense_graph(rng, order)
        assert from_real_graph(graph).q == solved_for_w(graph.phi)


@pytest.mark.parametrize(
    "coeffs",
    [
        # no s at all: one sweep
        {(1, 1, 0): 1, (2, 1, 0): CR(1, 2), (1, 2, 0): CR(1, -2), (2, 2, 0): 3},
        # lowest s-monomials of degree 4 and 5: rates 3 and 4
        {(1, 1, 0): 1, (2, 1, 1): CR(1, 1), (1, 2, 1): CR(1, -1), (2, 2, 2): Fraction(1, 3)},
        {(2, 2, 0): 2, (2, 2, 1): 1, (3, 3, 1): 5},
    ],
)
def test_solving_for_re_w_at_rates_one_pass_and_above_two(coeffs):
    phi = TS(GRAPH_VARS, 9, coeffs)
    assert from_real_graph(RealGraph(phi)).q == solved_for_w(phi)


@pytest.mark.parametrize(
    "coeffs,message",
    [
        ({(1, 1, 0): I}, "phi is not real-valued (conjugate-swap mismatch)"),
        ({(1, 0, 0): 1}, "phi is not real-valued (conjugate-swap mismatch); "
                         "phi(z, 0, s) does not vanish"),
        ({(1, 0, 1): 1, (0, 1, 1): 1}, "phi(z, 0, s) does not vanish; "
                                       "phi(0, x, s) does not vanish"),
        ({(2, 1, 0): 1, (0, 0, 2): 1}, "phi is not real-valued (conjugate-swap mismatch); "
                                       "phi(z, 0, s) does not vanish; "
                                       "phi(0, x, s) does not vanish"),
    ],
)
def test_a_graph_failing_its_check_raises_the_same_error(coeffs, message):
    with pytest.raises(SurfaceError) as caught:
        from_real_graph(graph(6, coeffs))
    assert str(caught.value) == message


# ----------------------------------------------------------------------
# the one-pass checks against the constructions they replace


def normality_by_restriction(surf) -> tuple:
    """Q(z,0,t) - t, then Q(0,x,t) - t, built as series, term by term."""
    t = TS.variable("t", SURFACE_VARS, surf.order)
    return tuple(
        (name, mi, c)
        for name in ("x", "z")
        for mi, c in (surf.q.zero_out(name) - t).terms()
    )


def graph_check_by_construction(g) -> list:
    problems = []
    if g.phi.conjugate().rename_variables({"z": "x", "x": "z"}) != g.phi:
        problems.append("phi is not real-valued (conjugate-swap mismatch)")
    if not g.phi.zero_out("x").is_zero:
        problems.append("phi(z, 0, s) does not vanish")
    if not g.phi.zero_out("z").is_zero:
        problems.append("phi(0, x, s) does not vanish")
    return problems


gaussian = st.builds(CR, small_rationals, small_rationals)


@st.composite
def tables(draw, order):
    """Coefficient tables in three variables through ``order``, some with a
    zero exponent in the first or second slot."""
    table = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        mi = tuple(draw(st.integers(min_value=0, max_value=order)) for _ in range(3))
        if sum(mi) <= order:
            table[mi] = draw(gaussian)
    return table


@st.composite
def surfaces(draw):
    """Q with t missing, t with coefficient 1 or another one, at orders 0..5."""
    order = draw(st.integers(min_value=0, max_value=5))
    table = draw(tables(order))
    t_coeff = draw(st.one_of(st.just(None), st.just(CR(1)), gaussian))
    table.pop((0, 0, 1), None)
    if t_coeff is not None:
        table[(0, 0, 1)] = t_coeff
    return NormalFormSurface(TS(SURFACE_VARS, order, table))


@st.composite
def graphs(draw):
    """phi real (a table plus its conjugate-swap) or not, at orders 0..5."""
    order = draw(st.integers(min_value=0, max_value=5))
    rho = TS(GRAPH_VARS, order, draw(tables(order)))
    if draw(st.booleans()):
        rho = rho + rho.conjugate().rename_variables({"z": "x", "x": "z"})
    return RealGraph(rho)


@settings(max_examples=200, deadline=None)
@given(surfaces())
def test_one_pass_normality_report_equals_the_restrictions(surf):
    assert surf.check_normal().violations == normality_by_restriction(surf)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_one_pass_graph_check_equals_the_constructions(g):
    assert g.check() == graph_check_by_construction(g)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_normality_report_at_the_edges(order):
    for table in ({}, {(0, 0, 1): 1}, {(0, 0, 1): CR(2, 1)}, {(0, 0, 0): 1, (1, 0, 2): 3}):
        surf = NormalFormSurface(TS(SURFACE_VARS, order, table))
        assert surf.check_normal().violations == normality_by_restriction(surf)
