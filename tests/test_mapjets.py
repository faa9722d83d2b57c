"""Mapping verification, Segre-jet reconstruction vs the direct oracle."""

import dataclasses
import gc
import importlib.util
import json
import pathlib
import random
import re
import weakref
from fractions import Fraction
from math import factorial

import pytest

from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS
from crjets.hypersurface import (
    GRAPH_VARS,
    SURFACE_VARS,
    NormalFormSurface,
    RealGraph,
    from_real_graph,
    heisenberg,
    infinite_type_model,
    levi_flat_model,
    quartic_model,
)
from crjets.mapjets import (
    DivisibilityObstruction,
    InconsistentJet,
    JetArityError,
    LeviFlatInput,
    MapError,
    MapGerm,
    PreconditionError,
    PremiseFailure,
    TruncationLimit,
    _Reconstruction,
    determination_experiment,
    dilation,
    dynamics_check,
    identity_map,
    invariance_check,
    segre_jet_reconstruct,
    segre_restriction_direct,
    verify_mapping,
    w_mobius,
)

I = CR(0, 1)
ORDER = 12


def mk(f_coeffs, g_coeffs, order=ORDER):
    return MapGerm(
        TS(("z", "w"), order, f_coeffs), TS(("z", "w"), order, g_coeffs)
    )


def moved(jet, name, ij, step):
    """The jet with the (i, j) derivative at 0 of F or G moved by ``step``:
    its Taylor coefficient moves by step / (i! j!)."""
    i, j = ij
    bump = TS(("z", "w"), jet.order, {ij: CR.coerce(step) / (factorial(i) * factorial(j))})
    return MapGerm(jet.f + bump, jet.g) if name == "F" else MapGerm(jet.f, jet.g + bump)


def test_jet_invariants_enforced():
    # a germ of order 2 is a 2-jet: one shape rule checks it in jet() and in
    # the reconstruction it is handed to
    m = heisenberg(8)
    not_invertible = "jet is not invertible: F_z(0) G_w(0) = 0"
    for f, g, message in (
        ({(1, 0): 1}, {(0, 1): 1, (1, 0): 1}, "jet violates triangularity: G_z(0) != 0"),
        ({(1, 0): 1}, {}, not_invertible),
        ({(0, 1): 1}, {(0, 1): 1}, not_invertible),
        ({(1, 0): 1}, {(1, 1): 1}, not_invertible),
    ):
        germ = mk(f, g, order=2)
        for k in (1, 2):
            with pytest.raises(PreconditionError, match=re.escape(message)):
                germ.jet(k)
        with pytest.raises(PreconditionError, match=re.escape(message)):
            segre_jet_reconstruct(m, m, germ, 1)
    assert segre_jet_reconstruct(m, m, identity_map(2), 1).agrees_with(
        segre_restriction_direct(identity_map(8), 1)
    )


# ----------------------------------------------------------------------
# verify_mapping


@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(-2)])
def test_mobius_family_preserves_heisenberg(a):
    h = w_mobius(a, ORDER)
    assert verify_mapping(heisenberg(ORDER), heisenberg(ORDER), h).is_zero


def test_dilation_preserves_heisenberg():
    h = dilation(Fraction(3), Fraction(9), ORDER)
    assert verify_mapping(heisenberg(ORDER), heisenberg(ORDER), h).is_zero


def test_quartic_dilation_scalings():
    lam = Fraction(2)
    good = dilation(lam, lam**4, ORDER)
    assert verify_mapping(quartic_model(ORDER), quartic_model(ORDER), good).is_zero
    bad = dilation(lam, lam**2, ORDER)
    residual = verify_mapping(quartic_model(ORDER), quartic_model(ORDER), bad)
    assert not residual.is_zero
    # lowest witness monomial: hand expansion gives -24 i z^2 x^2
    lowest = min(residual.coefficients, key=lambda mi: (sum(mi), mi))
    assert lowest == (2, 2, 0)
    assert residual.coefficients[lowest] == -24 * I


def test_rotation_preserves_infinite_type_model():
    u = CR(Fraction(3, 5), Fraction(4, 5))  # unit modulus
    h = dilation(u, Fraction(1), ORDER)
    m = infinite_type_model(ORDER)
    assert verify_mapping(m, m, h).is_zero


def test_inverse_roundtrip_and_swapped_residual():
    h = w_mobius(Fraction(1, 2), ORDER).compose(dilation(Fraction(2), Fraction(4), ORDER))
    inv = h.inverse()
    assert h.compose(inv) == identity_map(ORDER)
    m = heisenberg(ORDER)
    assert verify_mapping(m, m, h).is_zero
    assert verify_mapping(m, m, inv).is_zero


def dense_germ(seed, order):
    """Seeded germ: four nonzero Gaussian linear entries and twelve random
    nonlinear terms."""
    rng = random.Random(seed)

    def gaussian():
        re = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return CR(re, Fraction(rng.randint(-4, 4) or 1, 2))

    while True:
        lin = [gaussian() for _ in range(4)]
        if not (lin[0] * lin[3] - lin[1] * lin[2]).is_zero:
            break
    comps = []
    for a, b in ((lin[0], lin[1]), (lin[2], lin[3])):
        coeffs = {(1, 0): a, (0, 1): b}
        for _ in range(12):
            i = rng.randint(0, order)
            j = rng.randint(0, order - i)
            if i + j >= 2:
                coeffs[(i, j)] = gaussian()
        comps.append(coeffs)
    return mk(*comps, order=order)


@pytest.mark.parametrize("order", [1, 2, 5, 9, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_inverse_is_two_sided_on_dense_germs(order, seed):
    h = dense_germ(seed, order)
    inv = h.inverse()
    assert inv.order == order
    assert h.compose(inv) == identity_map(order)
    assert inv.compose(h) == identity_map(order)


@pytest.mark.parametrize("order", [8, 16, 20])
def test_inverse_of_a_sheared_family_member(order):
    # rotation, dilation and w-Moebius shear of the quadric composed, the
    # germs whose inverses the benchmark times; orders 8 and 16 sit at the
    # edge of a packed field of 3 and 4 bits
    rotation = dilation(CR(Fraction(3, 5), Fraction(4, 5)), 1, order)
    scaling = dilation(CR(Fraction(3, 2)), CR(Fraction(9, 4)), order)
    h = rotation.compose(scaling).compose(w_mobius(Fraction(-1, 3), order))
    inv = h.inverse()
    assert inv.order == order
    assert h.compose(inv) == identity_map(order)
    assert inv.compose(h) == identity_map(order)
    m = heisenberg(order)
    assert verify_mapping(m, m, inv).is_zero


def test_inverse_of_singular_linear_part_raises():
    # F = z + w + z^2, G = 2z + 2w: rank-one linear part
    h = mk({(1, 0): 1, (0, 1): 1, (2, 0): 1}, {(1, 0): 2, (0, 1): 2}, order=6)
    with pytest.raises(MapError, match="singular"):
        h.inverse()


def test_inverse_compose_budget(monkeypatch):
    # Newton doubling at order 16: four steps of two compositions each, plus
    # the closing check's two.  A fixed-point sweep gains one degree per two
    # compositions on this germ, which has quadratic terms.
    calls = []
    compose = TS.compose

    def counted(self, substitutions):
        calls.append(self.order)
        return compose(self, substitutions)

    h = w_mobius(Fraction(1, 2), 16).compose(dilation(CR(2, 1), CR(5), 16))
    monkeypatch.setattr(TS, "compose", counted)
    inv = h.inverse()
    monkeypatch.undo()
    assert len(calls) <= 12
    assert h.compose(inv) == identity_map(16)


def test_swapped_residual_nonzero_for_non_preserving_map():
    # a map failing M -> M2 has an inverse failing M2 -> M
    m2 = quartic_model(ORDER)
    bad = dilation(Fraction(2), Fraction(4), ORDER)
    assert not verify_mapping(m2, m2, bad).is_zero
    assert not verify_mapping(m2, m2, bad.inverse()).is_zero


# ----------------------------------------------------------------------
# segre_restriction_direct


def test_direct_restriction_mobius():
    h = w_mobius(Fraction(1, 2), 10)
    r0 = segre_restriction_direct(h, 0)
    assert r0.f_wk == TS(("z",), 10, {(1,): 1})
    assert r0.g_wk.is_zero
    r1 = segre_restriction_direct(h, 1)
    # F = z sum (a w)^k gives F_w(z, 0) = a z; G_w(z, 0) = 1
    assert r1.f_wk == TS(("z",), 9, {(1,): Fraction(1, 2)})
    assert r1.g_wk == TS(("z",), 9, {(0,): 1})


def test_direct_restriction_dilation():
    h = dilation(Fraction(5), Fraction(25), 8)
    r1 = segre_restriction_direct(h, 1)
    assert r1.f_wk.is_zero
    assert r1.g_wk == TS(("z",), 7, {(0,): 25})


# ----------------------------------------------------------------------
# reconstruction: base cases


def test_reconstruct_k0_mobius_on_heisenberg():
    m = heisenberg(ORDER)
    h = w_mobius(Fraction(1), ORDER)
    out = segre_jet_reconstruct(m, m, h.jet(2), 0)
    assert out.f_wk == TS(("z",), out.f_wk.order, {(1,): 1})
    assert out.f_wk.order >= 10
    assert out.g_wk.is_zero


def test_reconstruct_k1_mobius_on_heisenberg():
    m = heisenberg(ORDER)
    a = Fraction(1)
    h = w_mobius(a, ORDER)
    out = segre_jet_reconstruct(m, m, h.jet(2), 1)
    assert out.agrees_with(segre_restriction_direct(h, 1))


def test_reconstruct_k0_quartic_dilation():
    m = quartic_model(ORDER)
    lam = Fraction(3)
    h = dilation(lam, lam**4, ORDER)
    out = segre_jet_reconstruct(m, m, h.jet(1), 0)
    assert out.f_wk == TS(("z",), out.f_wk.order, {(1,): lam})
    assert out.g_wk.is_zero


def test_reconstruct_levi_flat_rejected():
    m = levi_flat_model(8)
    with pytest.raises(LeviFlatInput) as exc:
        segre_jet_reconstruct(m, m, identity_map(8).jet(1), 0)
    assert exc.value.order == 8
    with pytest.raises(LeviFlatInput) as exc:
        dynamics_check(m, identity_map(8))
    assert exc.value.order == 8


def test_reconstruct_jet_arity():
    m = heisenberg(8)
    with pytest.raises(JetArityError):
        segre_jet_reconstruct(m, m, identity_map(8).jet(1), 1)


def test_reconstruct_rejects_cross_surface_jet():
    with pytest.raises(InconsistentJet):
        segre_jet_reconstruct(
            heisenberg(10), quartic_model(10), identity_map(10).jet(2), 0
        )


def test_reconstruct_names_every_differing_invariant():
    # the quadric and the quartic differ in all but mu0; s|z|^2 and
    # s|z|^2 + |z|^6 share (m0, alpha0, mu0, ell) = (2, 1, 1, 1), not beta0
    def graph(terms):
        return from_real_graph(RealGraph(TS(GRAPH_VARS, 8, terms)))

    horn, horn6 = graph({(1, 1, 1): 1}), graph({(1, 1, 1): 1, (3, 3, 0): 1})
    cases = [
        (heisenberg(8), quartic_model(8), {"m0", "alpha0", "ell", "beta0"}),
        (horn, horn6, {"beta0"}),
        (horn6, horn, {"beta0"}),
    ]
    for source, target, differing in cases:
        with pytest.raises(InconsistentJet) as info:
            segre_jet_reconstruct(source, target, identity_map(8).jet(2), 0)
        assert set(re.findall(r"(\w+) \S+ != ", str(info.value))) == differing


def test_reconstruct_flags_bad_order_m0_entry():
    # a jet with G_zz(0) != 0 cannot come from a self-map of the quartic model
    m = quartic_model(10)
    jet = mk({(1, 0): 1}, {(0, 1): 1, (2, 0): Fraction(1, 2)}, order=2)
    with pytest.raises(InconsistentJet):
        segre_jet_reconstruct(m, m, jet, 0)


def test_reconstruct_obstruction_for_unrealizable_jet():
    # on the quartic model the axis value q'(F(x,0)) forces F_w-compatible
    # growth; an order-2 jet with a wild F_w entry fails the vanishing split
    m = quartic_model(10)
    jet = mk({(1, 0): 1, (0, 1): 1, (1, 1): 7}, {(0, 1): 1}, order=2)
    with pytest.raises((DivisibilityObstruction, InconsistentJet)):
        segre_jet_reconstruct(m, m, jet, 1)


# ----------------------------------------------------------------------
# oracle equivalence across the corpus


def heisenberg_maps():
    yield w_mobius(Fraction(1), ORDER)
    yield w_mobius(Fraction(1, 2), ORDER)
    yield w_mobius(Fraction(-2), ORDER)
    yield dilation(Fraction(2), Fraction(4), ORDER)
    yield dilation(CR(Fraction(3, 5), Fraction(4, 5)), Fraction(1), ORDER)
    yield w_mobius(Fraction(1, 2), ORDER).compose(dilation(Fraction(2), Fraction(4), ORDER))
    yield dilation(Fraction(-1), Fraction(1), ORDER).compose(w_mobius(Fraction(1), ORDER))


def assert_reconstructs(source, target, h, k_max):
    assert verify_mapping(source, target, h).is_zero
    for k in range(0, k_max + 1):
        recon = segre_jet_reconstruct(source, target, h.jet(k + 1), k)
        assert recon.agrees_with(segre_restriction_direct(h, k)), k


def test_agrees_with_compares_exactly_through_the_common_order():
    m = heisenberg(ORDER)
    h = w_mobius(Fraction(1, 2), ORDER)
    recon = segre_jet_reconstruct(m, m, h.jet(2), 1)
    direct = segre_restriction_direct(h, 1)
    assert recon.f_wk.order < direct.f_wk.order
    assert recon.agrees_with(direct) and direct.agrees_with(recon)
    order = direct.f_wk.order
    beyond = TS(("z",), order, {(order,): 1})
    assert recon.agrees_with(dataclasses.replace(direct, f_wk=direct.f_wk + beyond))
    tiny = TS(("z",), order, {(1,): Fraction(1, 10**30)})
    assert not recon.agrees_with(dataclasses.replace(direct, g_wk=direct.g_wk + tiny))
    assert not recon.agrees_with(segre_restriction_direct(h, 0))


def test_oracle_equivalence_heisenberg_exact():
    m = heisenberg(ORDER)
    for h in heisenberg_maps():
        assert_reconstructs(m, m, h, 4)


def test_oracle_equivalence_quartic_exact():
    # ell = 2 and the x^2 coefficient 4i has no square root in Q(i); the
    # complex and unimodular dilations check that no branch is chosen
    m = quartic_model(ORDER)
    for lam in (
        CR(2),
        CR(Fraction(1, 2)),
        CR(-3),
        CR(1, 1),
        I,
        CR(Fraction(3, 5), Fraction(4, 5)),
    ):
        assert_reconstructs(m, m, dilation(lam, lam.norm2() ** 2, ORDER), 4)


def test_oracle_equivalence_infinite_type_exact():
    m = infinite_type_model(ORDER)
    maps = [
        dilation(CR(0, 1), Fraction(1), ORDER),
        dilation(CR(Fraction(3, 5), Fraction(4, 5)), Fraction(2), ORDER),
    ]
    for h in maps:
        assert_reconstructs(m, m, h, 4)


def test_oracle_equivalence_cubic_surface_m0_one_exact():
    # Im w = Re(z * zbar^2): m0 = 1 with ell = 2, so the root factorization
    # and the gauge root run inside the m0 = 1 pipeline
    from crjets.hypersurface import GRAPH_VARS, RealGraph, from_real_graph

    phi = TS(GRAPH_VARS, ORDER, {(1, 2, 0): 1, (2, 1, 0): 1})
    surf = from_real_graph(RealGraph(phi))
    assert surf.compute_invariants().tuple() == (1, 1, 0, 2, 1)
    for lam in (Fraction(2), Fraction(1, 2)):
        assert_reconstructs(surf, surf, dilation(lam, lam**3, ORDER), 3)


def test_segre_scan_script_passes(capsys):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "segre_scan.py"
    spec = importlib.util.spec_from_file_location("segre_scan", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--order", "8", "--k-max", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 * 5  # seven cases, k = 0..4
    verdicts = {(i // 5, i % 5): line.split(maxsplit=2)[2] for i, line in enumerate(lines)}
    # at order 8 only the Möbius maps at k = 4 and the quartic dilations at
    # k = 3, 4 run past the truncation; every other (case, k) reconstructs
    undecided = {(0, 4), (1, 4), (2, 4), (4, 3), (4, 4), (5, 3), (5, 4)}
    for key, verdict in verdicts.items():
        expected = "indeterminate (certified order 8)" if key in undecided else "ok"
        assert verdict == expected, key


def test_order_sweep_script_writes_a_record(capsys, tmp_path):
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "order_sweep.py"
    spec = importlib.util.spec_from_file_location("order_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pairs = tmp_path / "pairs.json"
    pairs.write_text('[{"seed": 1}]', encoding="utf-8")
    out = tmp_path / "sweep.json"
    argv = ["--orders", "8", "--repeat", "1", "--out", str(out), "--pairs", str(pairs)]
    assert script.main(argv) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record["order_sweep_ms"]) == {"8"}
    columns = {"inverse_ms", "graph_ms", "reality_ms", "segre_ms", "segre_sweep_ms", "ode_ms"}
    assert set(record["order_sweep_ms"]["8"]) == columns
    assert record["perfbench_pairs"] == [{"seed": 1}]
    assert capsys.readouterr().out.startswith("order  8")


# ----------------------------------------------------------------------
# the Chern-Moser isotropy group of the quadric as an oracle family


def chern_moser(lam, a, r, order=10):
    """The isotropy map of the quadric Im w = |z|^2 (Q = t + 2i zx) with
    parameters lam != 0, complex a and real r (Chern & Moser, Acta Math. 133,
    1974): H = (lam (z + a w), |lam|^2 w) / delta with
    delta = 1 - 2i conj(a) z - (r + i |a|^2) w.  Its 2-jet carries all three."""
    lam, a = CR.coerce(lam), CR.coerce(a)
    z, w = (TS.variable(v, ("z", "w"), order) for v in ("z", "w"))
    delta = 1 - z * (2 * I * a.conjugate()) - w * (CR.coerce(r) + I * a.norm2())
    return MapGerm((z + w * a) * lam / delta, w * lam.norm2() / delta)


CM_A = CR(Fraction(1, 3), Fraction(2, 3))
CHERN_MOSER = [
    (1, CM_A, 0),
    (1, CM_A, 1),
    (CR(Fraction(3, 5), Fraction(4, 5)), CR(Fraction(1, 2), -1), Fraction(-2)),
    (CR(1, 1), I, Fraction(1, 3)),
    (2, -1, Fraction(1, 2)),
]


@pytest.mark.parametrize("lam,a,r", CHERN_MOSER)
def test_chern_moser_maps_reconstruct_from_their_jets(lam, a, r):
    # at order 10 each w-derivative costs two orders of certification, and
    # k = 5 reads past the truncation
    m = heisenberg(10)
    h = chern_moser(lam, a, r)
    assert verify_mapping(m, m, h).is_zero
    for k, certified in enumerate((9, 7, 5, 3, 1)):
        recon = segre_jet_reconstruct(m, m, h.jet(k + 1), k)
        assert min(recon.f_wk.order, recon.g_wk.order) == certified, k
        assert recon.agrees_with(segre_restriction_direct(h, k)), k
    with pytest.raises(TruncationLimit):
        segre_jet_reconstruct(m, m, h.jet(6), 5)
    # at order 8 the same steps certify less of the same series
    m8, h8 = heisenberg(8), chern_moser(lam, a, r, order=8)
    for k in range(4):
        recon = segre_jet_reconstruct(m8, m8, h8.jet(k + 1), k)
        assert recon.agrees_with(segre_jet_reconstruct(m, m, h.jet(k + 1), k)), k


def test_chern_moser_maps_are_told_apart_by_their_2_jets_not_their_1_jets():
    m = heisenberg(10)
    h0, h1 = chern_moser(1, CM_A, 0), chern_moser(1, CM_A, 1)
    # r enters at order 2: F_ww(0)/2 = a (r + i|a|^2)
    verdict = determination_experiment(m, h0, h1, 1)
    assert (verdict.jets_agree, verdict.maps_agree) == (True, False)
    assert verdict.first_difference == ("F", (0, 2), -CM_A)
    assert not verdict.passed
    assert determination_experiment(m, h0, h1, 2).vacuous
    maps = [chern_moser(*params) for params in CHERN_MOSER]
    for h in maps:
        for other in maps:
            verdict = determination_experiment(m, h, other, 2)
            assert verdict.passed and verdict.jets_agree == (h is other)


def test_k0_depends_only_on_linear_f_data():
    # perturbing any jet entry other than F_z(0), F_w(0) leaves k = 0 output
    # bit-identical
    m = heisenberg(ORDER)
    h = w_mobius(Fraction(1, 2), ORDER)
    base_jet = h.jet(2)
    base = segre_jet_reconstruct(m, m, base_jet, 0)
    for name, entry in (
        ("G", (0, 1)),
        ("G", (0, 2)),
        ("G", (1, 1)),
        ("F", (2, 0)),
        ("F", (1, 1)),
        ("F", (0, 2)),
    ):
        jet = moved(base_jet, name, entry, Fraction(5, 7))
        perturbed = segre_jet_reconstruct(m, m, jet, 0)
        assert perturbed.f_wk == base.f_wk
        assert perturbed.g_wk == base.g_wk


def test_g_derivative_at_minimal_orders_vanishes():
    # G_{z^alpha0 w^mu0}(0) = 0 for every verified corpus self-map
    cases = [
        (heisenberg(ORDER), list(heisenberg_maps())),
        (quartic_model(ORDER), [dilation(Fraction(2), Fraction(16), ORDER)]),
        (infinite_type_model(ORDER), [dilation(CR(0, 1), Fraction(1), ORDER)]),
    ]
    for surface, maps in cases:
        inv = surface.compute_invariants()
        for h in maps:
            assert verify_mapping(surface, surface, h).is_zero
            jet = h.jet(inv.m0)
            assert jet.g.coefficient((inv.alpha0, inv.mu0)).is_zero


# ----------------------------------------------------------------------
# resuming the target's last reconstruction


def dense_graph_pair(seed, order=6):
    """A seeded real graph with a z*x term, its surface, and the image of
    that surface under a Gaussian dilation (z, w) -> (lam z, |lam|^2 w)."""
    rng = random.Random(seed)
    slots = [
        (a, b, m)
        for a in range(1, order)
        for b in range(1, order)
        for m in range(0, order - a - b + 1)
        if (a, b, m) != (1, 1, 0)
    ]
    coeffs = {(1, 1, 0): CR(Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2])))}
    for slot in rng.sample(slots, 6):
        coeffs[slot] = CR(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    rho = TS(GRAPH_VARS, order, coeffs)
    phi = rho + rho.conjugate().rename_variables({"z": "x", "x": "z"})
    source = from_real_graph(RealGraph(phi))
    lam = CR(rng.randint(1, 3), rng.randint(-2, 2))
    z, x, t = (TS.variable(v, SURFACE_VARS, order) for v in SURFACE_VARS)
    inner = {"z": z * (1 / lam), "x": x * (1 / lam.conjugate()), "t": t * (1 / lam.norm2())}
    target = NormalFormSurface(source.q.compose(inner) * lam.norm2())
    return source, target, dilation(lam, lam.norm2(), order)


def resume_cases():
    """(source, target, map): every corpus pair, then seeded dense graphs."""
    heis = heisenberg(ORDER)
    for h in (
        w_mobius(Fraction(1), ORDER),
        w_mobius(Fraction(1, 2), ORDER),
        w_mobius(Fraction(-2), ORDER),
        dilation(Fraction(2), Fraction(4), ORDER),
        dilation(CR(Fraction(3, 5), Fraction(4, 5)), Fraction(1), ORDER),
    ):
        yield heis, heis, h
    z4 = quartic_model(ORDER)
    yield z4, z4, dilation(Fraction(2), Fraction(16), ORDER)
    horn = infinite_type_model(ORDER)
    yield horn, horn, dilation(CR(Fraction(3, 5), Fraction(4, 5)), Fraction(1), ORDER)
    for seed in range(3):
        yield dense_graph_pair(seed)


def outcome(source, target, jet, k):
    """The reconstructed series, or the type and message of the error."""
    try:
        recon = segre_jet_reconstruct(source, target, jet, k)
    except MapError as exc:
        return type(exc), str(exc)
    return recon.f_wk, recon.g_wk


def fresh_outcome(source, target, jet, k):
    fresh_source = NormalFormSurface(source.q)
    fresh_target = fresh_source if target is source else NormalFormSurface(target.q)
    return outcome(fresh_source, fresh_target, jet, k)


def perturbed(jet, rng):
    """The jet with one seeded derivative entry moved; the linear part stays
    valid."""
    slots = [
        (name, (i, j))
        for name in ("F", "G")
        for i in range(jet.order + 1)
        for j in range(jet.order + 1 - i)
        if i + j >= 1 and (name, (i, j)) not in {("F", (1, 0)), ("G", (1, 0)), ("G", (0, 1))}
    ]
    name, ij = rng.choice(slots)
    return moved(jet, name, ij, Fraction(rng.randint(1, 5), rng.randint(1, 3)))


def raised(jet):
    """The same terms as a jet one order higher: on surfaces with m0 >= 2
    only the pin of the top coefficient tells the two apart."""
    return MapGerm(*(TS(("z", "w"), jet.order + 1, c.coefficients) for c in (jet.f, jet.g)))


def test_resumed_reconstruction_equals_a_fresh_one():
    rng = random.Random(11)
    for source, target, h in resume_cases():
        ks = list(range(min(5, h.order)))
        rng.shuffle(ks)
        for k in ks:
            for order in sorted({k + 1, rng.randint(k + 1, h.order - 1)}):
                jet = h.jet(order)
                wild = perturbed(jet, rng)
                for probe in (jet, wild, raised(wild), jet, raised(jet)):
                    expected = fresh_outcome(source, target, probe, k)
                    assert outcome(source, target, probe, k) == expected, (k, probe.order)


def counting(monkeypatch, name):
    calls = []
    original = getattr(_Reconstruction, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_Reconstruction, name, counted)
    return calls


def test_a_k_sweep_runs_each_step_once(monkeypatch):
    axis = counting(monkeypatch, "solve_axis_f")
    steps = counting(monkeypatch, "solve_u")
    m = heisenberg(ORDER)
    h = w_mobius(Fraction(1, 2), ORDER)
    for k in range(4):
        segre_jet_reconstruct(m, m, h.jet(k + 1), k)
    assert len(axis) == 1
    assert steps == [(1,), (2,), (3,)]


def test_a_raising_call_leaves_the_kept_reconstruction():
    m = quartic_model(10)
    h = dilation(Fraction(2), Fraction(16), 10)
    segre_jet_reconstruct(m, m, h.jet(3), 2)
    kept = m.last_reconstruction
    wild = mk({(1, 0): 2, (0, 1): 1, (1, 1): 7}, {(0, 1): 16}, order=2)
    with pytest.raises((DivisibilityObstruction, InconsistentJet)):
        segre_jet_reconstruct(m, m, wild, 1)
    assert m.last_reconstruction is kept
    for k in (1, 2, 3):
        assert outcome(m, m, h.jet(k + 1), k) == fresh_outcome(m, m, h.jet(k + 1), k)


def test_the_kept_reconstruction_holds_no_surface_alive():
    target = heisenberg(8)
    source = heisenberg(8)
    segre_jet_reconstruct(source, target, w_mobius(Fraction(1), 8).jet(3), 2)
    assert target.last_reconstruction is not None
    gone = weakref.ref(source)
    del source
    gc.collect()
    assert gone() is None
    # a self-map keeps the surface without a reference cycle
    m = heisenberg(8)
    segre_jet_reconstruct(m, m, w_mobius(Fraction(1), 8).jet(3), 2)
    gone = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert gone() is None
    finally:
        gc.enable()


def test_truncation_limits_are_typed():
    m = heisenberg(4)
    with pytest.raises(TruncationLimit) as exc:
        segre_jet_reconstruct(m, m, w_mobius(Fraction(1), 4).jet(4), 3)
    assert exc.value.work == 4
    z4 = quartic_model(6)
    with pytest.raises(TruncationLimit) as exc:
        segre_jet_reconstruct(z4, z4, w_mobius(Fraction(1, 2), 6).jet(2), 1)
    assert exc.value.work == 6


# ----------------------------------------------------------------------
# the coefficient of each Segre unknown, read once per reconstruction


def two_read_gain(recon, s):
    """The right side at z^alpha0 t^(mu0+s) read with u_s = 1, minus the
    same read with u_s = 0."""
    slot = {"z": recon.alpha0, "t": recon.mu0 + s}
    reads = [
        recon._identity(slot, recon.us + [TS.constant(u, ("x",), recon.work)], recon.vs)[1]
        for u in (1, 0)
    ]
    return reads[0] - reads[1]


def corpus_pairs():
    """(surface, map) for every corpus surface of finite m0 and every corpus
    map that sends it into itself."""
    from crjets.cli import _build

    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    built = {
        kind: [_build(str(p), p.read_text(), kind, None)[1] for p in sorted(corpus.glob(f"*.{ext}"))]
        for kind, ext in (("surface", "surf"), ("map", "map"))
    }
    for surface in built["surface"]:
        if isinstance(surface.compute_invariants().m0, int):
            for h in built["map"]:
                if verify_mapping(surface, surface, h).is_zero:
                    yield surface, h


def test_the_one_read_gain_equals_the_two_reads_at_every_step(monkeypatch):
    checked = []
    original = _Reconstruction.solve_u

    def compared(self, s):
        try:
            expected = two_read_gain(self, s)
        except TruncationLimit:
            return original(self, s)
        assert self.gain.truncate(expected.order) == expected, (self.m0, self.mu0, s)
        checked.append((self.m0, self.mu0, self.ell))
        return original(self, s)

    monkeypatch.setattr(_Reconstruction, "solve_u", compared)
    cases = list(corpus_pairs())
    cases += [(heisenberg(10), chern_moser(*params)) for params in CHERN_MOSER]
    horn = infinite_type_model(ORDER)
    cases += [(horn, dilation(CR(0, 1), Fraction(1), ORDER))]
    z4 = quartic_model(ORDER)
    cases += [(z4, dilation(lam, lam**4, ORDER)) for lam in (Fraction(2), Fraction(-1, 3))]
    for surface, h in cases:
        for k in range(5):
            try:
                segre_jet_reconstruct(surface, surface, h.jet(k + 1), k)
            except TruncationLimit:
                pass
    assert {(1, 0, 1), (2, 1, 1), (2, 0, 2)} <= set(checked)
    assert len(checked) >= 4 * len(cases)


# ----------------------------------------------------------------------
# invariance


def test_invariance_mobius_on_heisenberg():
    m = heisenberg(ORDER)
    report = invariance_check(m, m, w_mobius(Fraction(1), ORDER))
    assert report.passed
    assert report.beta_identity_holds is True


def test_invariance_quartic_dilation():
    m = quartic_model(ORDER)
    report = invariance_check(m, m, dilation(Fraction(2), Fraction(16), ORDER))
    assert report.passed


def test_invariance_cross_surface_obstruction():
    report = invariance_check(heisenberg(ORDER), quartic_model(ORDER), identity_map(ORDER))
    assert not report.passed
    assert not report.residual_zero
    assert ("m0", 1, 2) in report.mismatches


# ----------------------------------------------------------------------
# determination


def test_determination_different_parameters_vacuous():
    m = heisenberg(ORDER)
    verdict = determination_experiment(
        m, w_mobius(Fraction(1), ORDER), w_mobius(Fraction(1, 2), ORDER), 2
    )
    assert verdict.vacuous
    assert verdict.passed
    # their 2-jets differ in F_zw(0) = a
    assert w_mobius(Fraction(1), ORDER).jet(2).f.coefficient((1, 1)) == CR(1)


def test_determination_same_map():
    m = heisenberg(ORDER)
    h = w_mobius(Fraction(1), ORDER)
    verdict = determination_experiment(m, h, h, 2)
    assert verdict.jets_agree and verdict.maps_agree


def test_determination_same_jet_same_map():
    m = heisenberg(ORDER)
    h1 = w_mobius(Fraction(1), ORDER).compose(dilation(Fraction(1), Fraction(1), ORDER))
    h2 = w_mobius(Fraction(1), ORDER)
    verdict = determination_experiment(m, h1, h2, 2)
    assert verdict.jets_agree
    assert verdict.maps_agree


def test_determination_names_the_germ_that_breaks_the_premise():
    m = heisenberg(ORDER)
    bad = dilation(Fraction(2), Fraction(16), ORDER)  # sends t + 2i zx to 16t + 8i zx
    with pytest.raises(PremiseFailure) as info:
        determination_experiment(m, w_mobius(Fraction(1), ORDER), bad, 2)
    assert info.value.germ == 2
    assert not info.value.residual.is_zero
    assert info.value.residual == verify_mapping(m, m, bad)


# ----------------------------------------------------------------------
# dynamics


def test_dynamics_mobius_family():
    m = heisenberg(ORDER)
    for a in (Fraction(1), Fraction(1, 2), Fraction(-2)):
        verdict = dynamics_check(m, w_mobius(a, ORDER))
        assert verdict.passed


def test_dynamics_identity():
    verdict = dynamics_check(heisenberg(8), identity_map(8))
    assert verdict.passed


def test_dynamics_on_a_map_off_the_surface_raises_its_residual():
    m = heisenberg(8)
    h = mk({(1, 0): 1, (2, 0): 1}, {(0, 1): 1}, 8)  # tangent to the identity
    with pytest.raises(PremiseFailure) as info:
        dynamics_check(m, h)
    assert info.value.germ is None
    assert not info.value.residual.is_zero
    assert info.value.residual == verify_mapping(m, m, h)


def test_dynamics_rejects_non_tangent():
    with pytest.raises(PreconditionError):
        dynamics_check(heisenberg(8), dilation(Fraction(2), Fraction(4), 8))
