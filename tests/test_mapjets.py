"""Mapping verification, Segre-jet reconstruction vs the direct oracle."""

import dataclasses
import importlib.util
import pathlib
from fractions import Fraction

import pytest

from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS
from crjets.hypersurface import heisenberg, infinite_type_model, levi_flat_model, quartic_model
from crjets.mapjets import (
    DivisibilityObstruction,
    InconsistentJet,
    JetArityError,
    LeviFlatInput,
    MapError,
    MapGerm,
    MapJet,
    PreconditionError,
    determination_experiment,
    dilation,
    dynamics_check,
    identity_map,
    invariance_check,
    normal_preservation_checks,
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


def test_jet_invariants_enforced():
    with pytest.raises(MapError):
        MapJet(2, {(1, 0): CR(1)}, {(0, 1): CR(1), (1, 0): CR(1)})
    with pytest.raises(MapError):
        MapJet(2, {(1, 0): CR(1)}, {(0, 1): CR(0)})


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


def test_swapped_residual_nonzero_for_non_preserving_map():
    # a map failing M -> M2 has an inverse failing M2 -> M
    m2 = quartic_model(ORDER)
    bad = dilation(Fraction(2), Fraction(4), ORDER)
    assert not verify_mapping(m2, m2, bad).is_zero
    assert not verify_mapping(m2, m2, bad.inverse()).is_zero


# ----------------------------------------------------------------------
# normal_preservation_checks


def test_checks_pass_for_mobius():
    report = normal_preservation_checks(w_mobius(1, 8), mapping_verified=True)
    assert report.passed
    assert report.g_w_real


def test_checks_fail_for_swap():
    swapped = mk({(0, 1): 1}, {(1, 0): 1})
    report = normal_preservation_checks(swapped)
    assert not report.triangular
    assert not report.passed


def test_checks_fail_for_degenerate():
    squash = mk({(1, 0): 1}, {(0, 2): 1})
    report = normal_preservation_checks(squash)
    assert not report.local_biholomorphism


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
    assert out.provenance == "reconstructed"


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
    with pytest.raises(LeviFlatInput):
        segre_jet_reconstruct(m, m, identity_map(8).jet(1), 0)


def test_reconstruct_jet_arity():
    m = heisenberg(8)
    with pytest.raises(JetArityError):
        segre_jet_reconstruct(m, m, identity_map(8).jet(1), 1)


def test_reconstruct_rejects_cross_surface_jet():
    with pytest.raises(InconsistentJet):
        segre_jet_reconstruct(
            heisenberg(10), quartic_model(10), identity_map(10).jet(2), 0
        )


def test_reconstruct_flags_bad_order_m0_entry():
    # a jet with G_zz(0) != 0 cannot come from a self-map of the quartic model
    m = quartic_model(10)
    jet = MapJet(2, {(1, 0): CR(1)}, {(0, 1): CR(1), (2, 0): CR(1)})
    with pytest.raises(InconsistentJet):
        segre_jet_reconstruct(m, m, jet, 0)


def test_reconstruct_obstruction_for_unrealizable_jet():
    # on the quartic model the axis value q'(F(x,0)) forces F_w-compatible
    # growth; an order-2 jet with a wild F_w entry fails the vanishing split
    m = quartic_model(10)
    jet = MapJet(
        2,
        {(1, 0): CR(1), (0, 1): CR(1), (1, 1): CR(7)},
        {(0, 1): CR(1)},
    )
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
    assert script.main(["--order", "8", "--k-max", "2"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_k0_depends_only_on_linear_f_data():
    # perturbing any jet entry other than F_z(0), F_w(0) leaves k = 0 output
    # bit-identical
    m = heisenberg(ORDER)
    h = w_mobius(Fraction(1, 2), ORDER)
    base_jet = h.jet(2)
    base = segre_jet_reconstruct(m, m, base_jet, 0)
    for table, entry in (
        ("mu", (0, 1)),
        ("mu", (0, 2)),
        ("mu", (1, 1)),
        ("lam", (2, 0)),
        ("lam", (1, 1)),
        ("lam", (0, 2)),
    ):
        lam = dict(base_jet.lam)
        mu = dict(base_jet.mu)
        target = lam if table == "lam" else mu
        target[entry] = target.get(entry, CR(0)) + CR(Fraction(5, 7))
        perturbed = segre_jet_reconstruct(m, m, MapJet(2, lam, mu), 0)
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
            assert jet.entry("mu", inv.alpha0, inv.mu0).is_zero


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
    assert w_mobius(Fraction(1), ORDER).jet(2).entry("lam", 1, 1) == CR(1)


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


def test_dynamics_rejects_non_tangent():
    with pytest.raises(PreconditionError):
        dynamics_check(heisenberg(8), dilation(Fraction(2), Fraction(4), 8))
