"""CLI subcommands: golden reports, determinism, exit codes."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from crjets import cli
from crjets.cli import main
from crjets.dsl import parse_document
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS, format_series

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("analyze_heisenberg.txt", ("analyze", CORPUS / "heisenberg.surf")),
        ("analyze_z4.txt", ("analyze", CORPUS / "z4.surf")),
        ("analyze_infinite_type.txt", ("analyze", CORPUS / "infinite_type.surf")),
        ("ode_res2_determine.txt", ("ode", CORPUS / "res2.ode", "determine")),
        (
            "segre_mobius_half_k2.txt",
            (
                "segre",
                CORPUS / "heisenberg.surf",
                CORPUS / "heisenberg.surf",
                CORPUS / "h_mobius_half.map",
                "2",
            ),
        ),
    ],
)
def test_golden_reports(capsys, golden, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "analyze", CORPUS / "z4.surf")
    _, second = run(capsys, "analyze", CORPUS / "z4.surf")
    assert first == second


def test_parallel_schedule_matches_sequential(tmp_path):
    # pure immutable values: a threaded sweep must yield bit-identical reports
    from concurrent.futures import ThreadPoolExecutor

    surfaces = ["heisenberg.surf", "z4.surf", "infinite_type.surf"]

    def analyze(tag, name):
        out = tmp_path / f"{tag}_{name}.txt"
        code = main(["analyze", str(CORPUS / name), "--out", str(out)])
        return code, out.read_bytes()

    sequential = [analyze("seq", name) for name in surfaces]
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(lambda n: analyze("par", n), surfaces))
    assert sequential == threaded


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, shown = run(capsys, "analyze", CORPUS / "heisenberg.surf", "--out", out_path)
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == shown


def test_analyze_levi_flat_is_indeterminate(capsys):
    code, out = run(capsys, "analyze", CORPUS / "leviflat.surf")
    assert code == 3
    assert "verdict: indeterminate" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("segre", CORPUS / "leviflat.surf", CORPUS / "leviflat.surf", CORPUS / "identity.map", "1"),
        ("dynamics", CORPUS / "leviflat.surf", CORPUS / "identity.map"),
    ],
)
def test_levi_flat_reconstruction_is_indeterminate(capsys, argv):
    # the derivative data vanish through the whole truncation, as for analyze
    code, out, err = run_err(capsys, *argv)
    assert code == 3
    assert err == ""
    assert out.endswith(
        "m0: infinite (no witness through order 12)\n"
        "certified_order: 12\nverdict: indeterminate\n"
    )
    code, out, err = run_err(capsys, *argv, "--order", "6")
    assert code == 3
    assert out.endswith("certified_order: 6\nverdict: indeterminate\n")


def test_segre_past_the_truncation_of_a_true_map_is_indeterminate(capsys):
    # k = 3 reads the t^3 slot of a series certified only below it at order 4
    heis = CORPUS / "heisenberg.surf"
    argv = ("segre", heis, heis, CORPUS / "h_mobius_1.map", "3", "--order", "4")
    code, out, err = run_err(capsys, *argv)
    assert (code, err) == (3, "")
    assert out.endswith("k: 3\ncertified_order: 4\nverdict: indeterminate\n")


def test_segre_past_the_truncation_of_a_false_map_fails_with_a_residual(capsys):
    # the unknown's coefficient vanishes to the working order; the map does
    # not send z4 into itself, and the mapping residual is the witness
    z4 = CORPUS / "z4.surf"
    argv = ("segre", z4, z4, CORPUS / "h_mobius_half.map", "1", "--order", "6")
    code, out, err = run_err(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.endswith(
        "k: 1\ncertified_order: 6\nresidual_lowest_term: -2*i*z^2*x^2*t\nverdict: fail\n"
    )


@pytest.mark.parametrize(
    "surface,components,k,witness",
    [
        # the order-2 G entry of the jet must vanish on the quartic
        *(("z4.surf", "F: z\nG: w + z^2\n", k, "-x^2") for k in (1, 2, 3)),
        # the order-1 value of conj F_w disagrees with the jet
        ("heisenberg.surf", "F: z + w\nG: w + z*w\n", 1, "-2*i*t^2"),
    ],
)
def test_a_stopped_segre_run_fails_with_the_residual_of_its_premise(
    capsys, tmp_path, surface, components, k, witness
):
    doc = tmp_path / "off.map"
    doc.write_text("kind: map\norder: 12\n" + components, encoding="utf-8")
    code, out, err = run_err(capsys, "segre", CORPUS / surface, CORPUS / surface, doc, k)
    assert (code, err) == (1, "")
    assert out.endswith(
        f"k: {k}\ncertified_order: 12\nresidual_lowest_term: {witness}\nverdict: fail\n"
    )


def test_determine_and_dynamics_fail_with_the_residual_of_their_premise(capsys):
    # the quartic's dilation does not send the quadric into itself
    heis, dil = CORPUS / "heisenberg.surf", CORPUS / "dilation_z4.map"
    witness = "certified_order: 12\nresidual_lowest_term: 24*i*z*x\nverdict: fail\n"
    code, out, err = run_err(capsys, "determine", heis, CORPUS / "identity.map", dil, "1")
    assert (code, err) == (1, "")
    assert out.endswith("k: 1\nfailing_map: map2\n" + witness)
    code, out, err = run_err(capsys, "determine", heis, dil, dil, "1")
    assert out.endswith("k: 1\nfailing_map: map\n" + witness)
    code, out, err = run_err(capsys, "dynamics", heis, dil)
    assert (code, err) == (1, "")
    assert out.endswith(witness) and "failing_map" not in out


def test_an_obstruction_under_the_premise_is_a_failure(capsys, monkeypatch):
    # no corpus or written map reaches it: the jet of a map that keeps the
    # surface is realizable, so only the report's shape is checked here
    def stopped(*args):
        raise cli.InconsistentJet("order-1 value at the origin disagrees with the supplied jet")

    monkeypatch.setattr(cli, "segre_jet_reconstruct", stopped)
    heis = CORPUS / "heisenberg.surf"
    code, out, err = run_err(capsys, "segre", heis, heis, CORPUS / "h_mobius_1.map", "1")
    assert (code, err) == (1, "")
    assert out.endswith(
        "k: 1\nobstruction: order-1 value at the origin disagrees with the supplied jet\n"
        "verdict: fail\n"
    )


def test_analyze_accepts_graph_form(capsys, tmp_path):
    doc = tmp_path / "graph.surf"
    doc.write_text("vars: z x s\norder: 8\nphi: z*x\n", encoding="utf-8")
    code, out = run(capsys, "analyze", doc)
    assert code == 0
    assert "m0: 1" in out and "beta0: 1" in out


def test_analyze_rejects_bad_surface(capsys, tmp_path):
    bad = tmp_path / "bad.surf"
    bad.write_text("vars: z x t\norder: 6\nQ: t + z\n", encoding="utf-8")
    code, out = run(capsys, "analyze", bad)
    assert code == 1
    assert "normal_check: fail" in out


def test_analyze_on_a_map_document_is_input_error(capsys):
    code, out, err = run_err(capsys, "analyze", CORPUS / "identity.map")
    assert (code, out) == (2, "")
    assert err == f"input error: {CORPUS / 'identity.map'}: expected a surface document, got map\n"


def test_verify_pass_and_fail(capsys):
    code, out = run(
        capsys,
        "verify",
        CORPUS / "heisenberg.surf",
        CORPUS / "heisenberg.surf",
        CORPUS / "h_mobius_1.map",
    )
    assert code == 0
    assert "residual: 0" in out
    code, out = run(
        capsys,
        "verify",
        CORPUS / "heisenberg.surf",
        CORPUS / "z4.surf",
        CORPUS / "identity.map",
    )
    assert code == 1
    assert "invariant_obstruction: m0: 1 != 2" in out


def test_segre_on_quartic_is_exact(capsys):
    # ell = 2 on the quartic model: the reconstruction takes a square root
    # and still no branch; the whole report is pinned byte for byte
    code, out = run(
        capsys,
        "segre",
        CORPUS / "z4.surf",
        CORPUS / "z4.surf",
        CORPUS / "dilation_z4.map",
        "1",
    )
    z4 = "input: z4.surf sha256=0fb699b0c9dbba2b3e487e1379f08f8335bbabb0ffbc91308c169576c8db636d\n"
    assert code == 0
    assert out == (
        "command: segre\n"
        + z4
        + z4
        + "input: dilation_z4.map "
        "sha256=ee48159e889a1ea7461d54231729d4952b329bc1da88d3b6c9bba5b19b9bd579\n"
        "k: 1\n"
        "backend: exact\n"
        "reconstructed_F: 0\n"
        "reconstructed_G: 16\n"
        "certified_order: 5\n"
        "direct_F: 0\n"
        "direct_G: 16\n"
        "comparison: exact\n"
        "verdict: pass\n"
    )


@pytest.mark.parametrize("flag", ["--jobs", "--backend", "--tolerance"])
def test_removed_flags_are_argument_errors(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(CORPUS / "heisenberg.surf"), flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_dropped_monomials_are_reported(capsys, tmp_path):
    surf = tmp_path / "dropped.surf"
    surf.write_text("vars: z x t\norder: 3\nQ: t + 2*i*z*x + z^5*x\n")
    code, out = run(capsys, "analyze", surf)
    assert code == 0
    warnings = [line for line in out.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: dropped.surf: monomial of degree 6 exceeds declared order 3; "
        "dropped (line 3, column 18)"
    ]
    assert out.index("input: dropped.surf") < out.index("warning: dropped.surf")


@pytest.mark.parametrize("command,extra", [("verify", ()), ("segre", ("1",))])
def test_a_surface_named_twice_is_parsed_once(capsys, monkeypatch, command, extra):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_document(text)

    monkeypatch.setattr(cli, "parse_document", counting)
    heis = CORPUS / "heisenberg.surf"
    code, out = run(capsys, command, heis, heis, CORPUS / "h_mobius_1.map", *extra)
    assert code == 0
    assert len(calls) == 2  # the surface once, the map once
    assert out.count("input: heisenberg.surf ") == 2


def test_a_copy_under_the_same_name_gives_the_same_report(capsys, tmp_path):
    heis = CORPUS / "heisenberg.surf"
    copy = tmp_path / "heisenberg.surf"
    copy.write_bytes(heis.read_bytes())
    mobius = CORPUS / "h_mobius_1.map"
    for argv in (("verify", heis, "{}", mobius), ("segre", heis, "{}", mobius, "1")):
        same = run(capsys, *[str(a).format(heis) for a in argv])
        copied = run(capsys, *[str(a).format(copy) for a in argv])
        assert same == copied and same[0] == 0


def test_a_surface_named_twice_warns_after_each_input(capsys, tmp_path):
    surf = tmp_path / "dropped.surf"
    surf.write_text("vars: z x t\norder: 3\nQ: t + 2*i*z*x + z^5*x\n")
    code, out = run(capsys, "verify", surf, surf, CORPUS / "identity.map")
    assert code == 0
    warning = (
        "warning: dropped.surf: monomial of degree 6 exceeds declared order 3; "
        "dropped (line 3, column 18)"
    )
    lines = out.splitlines()
    inputs = [i for i, line in enumerate(lines) if line.startswith("input: dropped.surf ")]
    assert len(inputs) == 2
    assert [lines[i + 1] for i in inputs] == [warning, warning]
    assert lines.count(warning) == 2


def test_segre_jet_only(capsys):
    code, out = run(
        capsys,
        "segre",
        CORPUS / "heisenberg.surf",
        CORPUS / "heisenberg.surf",
        CORPUS / "h_mobius_1.map",
        "0",
        "--jet-only",
    )
    assert code == 0
    assert "direct_F" not in out


def test_determine_same_and_different(capsys):
    code, out = run(
        capsys,
        "determine",
        CORPUS / "heisenberg.surf",
        CORPUS / "h_mobius_1.map",
        CORPUS / "h_mobius_1.map",
        "2",
    )
    assert code == 0
    assert "jets_agree: true" in out
    code, out = run(
        capsys,
        "determine",
        CORPUS / "heisenberg.surf",
        CORPUS / "h_mobius_1.map",
        CORPUS / "h_mobius_half.map",
        "2",
    )
    assert code == 0
    assert "pass (vacuous)" in out


def test_determine_on_chern_moser_maps(capsys, tmp_path):
    # the quadric's isotropy maps H = (z + a w, w) / delta with
    # delta = 1 - 2i conj(a) z - (r + i|a|^2) w differ in r from order 2 on
    a, i = CR(Fraction(1, 3), Fraction(2, 3)), CR(0, 1)
    z, w = (TS.variable(v, ("z", "w"), 10) for v in ("z", "w"))
    paths = []
    for r in (0, 1):
        delta = 1 - z * (2 * i * a.conjugate()) - w * (CR(r) + i * a.norm2())
        path = tmp_path / f"cm_r{r}.map"
        f, g = (z + w * a) / delta, w / delta
        path.write_text(
            f"kind: map\norder: 10\nF: {format_series(f)}\nG: {format_series(g)}\n",
            encoding="utf-8",
        )
        paths.append(path)
    heis = CORPUS / "heisenberg.surf"
    code, out, err = run_err(capsys, "determine", heis, *paths, "1")
    assert (code, err) == (1, "")
    assert out.endswith(
        "k: 1\njets_agree: true\nmaps_agree: false\n"
        "first_difference: F at exponents (0, 2)\nverdict: fail\n"
    )
    code, out = run(capsys, "determine", heis, *paths, "2")
    assert code == 0
    assert out.endswith("k: 2\njets_agree: false\nverdict: pass (vacuous)\n")
    code, out = run(capsys, "determine", heis, paths[1], paths[1], "2")
    assert code == 0
    assert out.endswith("jets_agree: true\nmaps_agree: true\nverdict: pass\n")


def test_dynamics_pass_and_precondition(capsys):
    code, out = run(
        capsys, "dynamics", CORPUS / "heisenberg.surf", CORPUS / "h_mobius_neg2.map"
    )
    assert code == 0
    assert "verdict: pass" in out
    code, _ = run(
        capsys, "dynamics", CORPUS / "heisenberg.surf", CORPUS / "dilation_heis.map"
    )
    assert code == 2  # not tangent to the identity: input precondition


def test_ode_solve_reports_free_order(capsys):
    code, out = run(capsys, "ode", CORPUS / "res2.ode", "solve", "--order", "10")
    assert code == 3
    assert "free_orders: 2" in out
    assert "opaque_orders" not in out  # a linear equation leaves nothing out


def test_ode_solve_reports_opaque_orders(capsys, tmp_path):
    # x y' = y + y^2: a_2 = a_1^2 and every later equation hold a product of
    # the free a_1, so they are left out and must be named
    ode = tmp_path / "opaque.ode"
    ode.write_text("kind: ode\ngamma: 0\nvars: x y\norder: 12\np: y + y^2\nq: 1\n")
    code, out = run(capsys, "ode", ode, "solve")
    assert code == 3
    assert "opaque_orders: 2,3,4,5,6,7,8,9,10,11,12\n" in out
    code, out = run(capsys, "ode", ode, "determine")
    assert code == 0
    assert "determination_order: 1\n" in out


def test_ode_solve_reports_its_theta_values(capsys, tmp_path):
    ode = tmp_path / "theta.ode"
    ode.write_text(
        "kind: ode\ngamma: 0\nvars: x y\norder: 6\np: theta1*y + theta2*y^2\nq: 1\n"
        "theta: 3/2 -2\n"
    )
    code, out = run(capsys, "ode", ode, "solve")
    assert code == 0
    assert "\ngamma: 0\nn_target: 6\ntheta: 3/2 -2\norder_1: " in out


def test_ode_chain(capsys):
    code, out = run(capsys, "ode", CORPUS / "gamma1.ode", "chain")
    assert code == 0
    assert "ker_q0_dim: 0" in out


def _chain_lines(out):
    return [line for line in out.splitlines() if line.startswith(("ker_q0_dim:", "r_"))]


@pytest.mark.parametrize("gamma_two", [False, True])
def test_ode_chain_is_truncation_independent(capsys, tmp_path, gamma_two):
    # x^3 y' = (x + x^3) y: Q0 has a kernel, so Q1 needs Phi_1..Phi_3
    doc = CORPUS / "gamma1.ode"
    if gamma_two:
        doc = tmp_path / "gamma2.ode"
        doc.write_text("kind: ode\ngamma: 2\nvars: x y\norder: 12\np: x*y + x^3*y\nq: 1\n")
    code, full = run(capsys, "ode", doc, "chain")
    assert code == 0
    passed = 0
    for order in range(7):
        code, out = run(capsys, "ode", doc, "chain", "--order", order)
        if code == 0:
            passed += 1
            assert _chain_lines(out) == _chain_lines(full), order
        else:
            # a Phi beyond the data is named, never read as zero
            assert code == 3, order
            assert out.endswith("verdict: indeterminate\n")
            unknown = int(out.split("unknown_phi_order: ")[1].split("\n")[0])
            assert unknown >= order
            assert f"certified_order: {order}\n" in out
    assert passed == (3 if gamma_two else 6)


def test_ode_chain_of_a_two_dimensional_system(capsys, tmp_path):
    # Q0 = [[0, 0], [2, 0]], so ker Q0 = im Q0 = span{e2}; A1 = 3I - Phi1 =
    # [[3, 0], [-2, 2]] sends e2 to (0, 1/2), which lies in the kernel, so the
    # chain dies at the second step: dims [1, 1, 0]
    doc = tmp_path / "chain2.ode"
    doc.write_text(
        "kind: ode\ngamma: 1\nvars: x y1 y2\norder: 12\n"
        "p: 3/2*x^2*y1 ; 2*y1 + x*y2 - 3/2*x*y1^2*y2\nq: 1 - x\n"
    )
    code, out = run(capsys, "ode", doc, "chain", "--r-max", "2")
    assert code == 0
    assert _chain_lines(out) == [
        "ker_q0_dim: 1",
        "r_1: dims=[1,1,0] terminated_at=2",
        "r_2: dims=[1,1,0] terminated_at=2",
    ]


def test_ode_chain_on_order_0_data_is_indeterminate(capsys):
    code, out = run(capsys, "ode", CORPUS / "gamma1.ode", "chain", "--order", "0")
    assert code == 3
    assert out.endswith(
        "n_target: 0\ncertified_order: 0\nunknown_phi_order: 0\nverdict: indeterminate\n"
    )


def test_missing_file_is_input_error(capsys):
    code, _ = run(capsys, "analyze", CORPUS / "no_such_file.surf")
    assert code == 2


def test_parse_error_is_input_error(capsys, tmp_path):
    bad = tmp_path / "broken.surf"
    bad.write_text("vars: z x t\norder: 6\nQ: t + + z\n", encoding="utf-8")
    code, _ = run(capsys, "analyze", bad)
    assert code == 2


def test_order_flag_cannot_raise(capsys):
    code, _ = run(capsys, "analyze", CORPUS / "heisenberg.surf", "--order", "40")
    assert code == 2


def run_err(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("k", ["-1", "20"])
def test_segre_k_outside_the_stored_jet_is_input_error(capsys, k):
    heis = CORPUS / "heisenberg.surf"
    code, out, err = run_err(capsys, "segre", heis, heis, CORPUS / "h_mobius_1.map", k)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_segre_k_at_the_stored_order_is_input_error(capsys):
    # K + 1 = 12 is the last order the map stores; K = 11 is the largest K
    heis = CORPUS / "heisenberg.surf"
    code, _, err = run_err(capsys, "segre", heis, heis, CORPUS / "h_mobius_1.map", "12")
    assert code == 2
    assert "stored order 12" in err


def test_segre_on_disagreeing_invariants_reports_obstruction(capsys):
    code, out, err = run_err(
        capsys, "segre", CORPUS / "heisenberg.surf", CORPUS / "z4.surf",
        CORPUS / "identity.map", "1",
    )
    assert code == 1
    assert err == ""
    assert "invariant_obstruction: m0: 1 != 2" in out
    assert out.endswith("verdict: fail\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("ode", CORPUS / "res2.ode", "determine", "--order", "-3"),
        ("analyze", CORPUS / "heisenberg.surf", "--order", "-2"),
    ],
)
def test_negative_order_flag_is_input_error(capsys, argv):
    code, out, err = run_err(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --order must be nonnegative")


@pytest.mark.parametrize("k", ["-1", "0", "13"])
def test_determine_k_outside_the_stored_jet_is_input_error(capsys, k):
    heis, h = CORPUS / "heisenberg.surf", CORPUS / "h_mobius_1.map"
    code, out, err = run_err(capsys, "determine", heis, h, h, k)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_determine_k_at_the_stored_order_passes(capsys):
    heis, h = CORPUS / "heisenberg.surf", CORPUS / "h_mobius_1.map"
    code, out = run(capsys, "determine", heis, h, h, "12")
    assert code == 0
    assert "maps_agree: true" in out


@pytest.mark.parametrize("r_max", ["0", "-2"])
def test_ode_chain_needs_a_positive_r_max(capsys, r_max):
    code, out, err = run_err(capsys, "ode", CORPUS / "gamma1.ode", "chain", "--r-max", r_max)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --r-max must be at least 1")


def test_surface_with_a_constant_term_is_input_error(capsys, tmp_path):
    doc = tmp_path / "const.surf"
    doc.write_text("kind: surface\nvars: z x t\norder: 6\nQ: i + 2*i*z^2*x^2\n", encoding="utf-8")
    code, out, err = run_err(capsys, "analyze", doc)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {doc}: Q must vanish at the origin")


def test_ode_chain_on_gamma_zero_is_input_error(capsys):
    code, out, err = run_err(capsys, "ode", CORPUS / "res2.ode", "chain")
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {CORPUS / 'res2.ode'}: kernel chain analysis")


def test_map_not_fixing_the_origin_is_input_error(capsys, tmp_path):
    text = (CORPUS / "h_mobius_half.map").read_text(encoding="utf-8")
    doc = tmp_path / "moved.map"
    doc.write_text(text.replace("G: ", "G: 1 + "), encoding="utf-8")
    code, out, err = run_err(capsys, "dynamics", CORPUS / "heisenberg.surf", doc)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {doc}: G must vanish at the origin")


def test_ode_at_the_truncation_edge_is_indeterminate(capsys, tmp_path):
    # x^2 y' = x*y stored at order 8: a_8 is pinned by the order-9 equation
    doc = tmp_path / "edge.ode"
    doc.write_text("kind: ode\ngamma: 1\nvars: x y\norder: 8\np: x*y\nq: 1\n", encoding="utf-8")
    code, out = run(capsys, "ode", doc, "solve")
    assert code == 3
    # no equation of order 9 was examined, so the row has no rank or kernel
    assert (
        "order_7: rank=1 kernel=0 resolved\norder_8: unknown\n"
        "free_orders: 1\nunknown_orders: 8\n"
    ) in out
    code, out = run(capsys, "ode", doc, "determine")
    assert code == 3
    assert out.endswith(
        "determination_order: indeterminate (at most 8)\n"
        "unknown_orders: 8\nverdict: indeterminate\n"
    )


def test_ode_solve_without_a_formal_solution_names_the_contradiction(capsys, tmp_path):
    # x y' = y + x: the order-1 equation reads a_1 = a_1 + 1
    doc = tmp_path / "inconsistent.ode"
    doc.write_text("kind: ode\ngamma: 0\nvars: x y\norder: 8\np: y + x\nq: 1\n", encoding="utf-8")
    code, out, err = run_err(capsys, "ode", doc, "solve")
    assert code == 1
    assert err == ""
    assert out.startswith("command: ode\n")
    assert out.endswith("n_target: 8\ninconsistent_order: 1\nverdict: fail\n")


@pytest.mark.parametrize("mode", ["solve", "determine", "chain"])
def test_ode_on_a_renamed_independent_variable(capsys, tmp_path, mode):
    reports = []
    for x in ("x", "ix"):
        doc = tmp_path / f"{x}.ode"
        doc.write_text(
            f"kind: ode\ngamma: 1\nvars: {x} y\norder: 8\np: {x}*y\nq: 1\n", encoding="utf-8"
        )
        code, out, err = run_err(capsys, "ode", doc, mode)
        assert code in (0, 3) and err == ""
        # the same report apart from the input line
        reports.append([line for line in out.splitlines() if not line.startswith("input:")])
    assert reports[0] == reports[1]
    assert reports[1][-1].startswith("verdict: ")


@pytest.mark.parametrize("gamma", [0, 1])
def test_ode_determine_off_a_solution_is_input_error(capsys, tmp_path, gamma):
    doc = tmp_path / "off.ode"
    text = f"kind: ode\ngamma: {gamma}\nvars: x y\norder: 8\np: -y + x\nq: 1\n"
    doc.write_text(text, encoding="utf-8")
    code, out, err = run_err(capsys, "ode", doc, "determine")
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {doc}: y = 0 does not solve the equation")


def test_ode_chain_off_a_solution_is_input_error(capsys, tmp_path):
    # the chain reads f_y along y = 0, which solves nothing here
    doc = tmp_path / "off.ode"
    doc.write_text("kind: ode\ngamma: 1\nvars: x y\norder: 8\np: -y + x\nq: 1\n", encoding="utf-8")
    code, out, err = run_err(capsys, "ode", doc, "chain")
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {doc}: y = 0 does not solve the equation")
    # the argument and gamma checks come first, with their own messages
    code, out, err = run_err(capsys, "ode", doc, "chain", "--r-max", "0")
    assert (code, out) == (2, "")
    assert err.startswith("input error: --r-max must be at least 1")
    doc.write_text("kind: ode\ngamma: 0\nvars: x y\norder: 8\np: -y + x\nq: 1\n", encoding="utf-8")
    code, out, err = run_err(capsys, "ode", doc, "chain")
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {doc}: kernel chain analysis applies to gamma >= 1")


@pytest.mark.parametrize("mode", ["solve", "determine", "chain"])
def test_ode_with_a_vanishing_denominator_is_input_error(capsys, tmp_path, mode):
    doc = tmp_path / "singular.ode"
    doc.write_text("kind: ode\ngamma: 1\nvars: x y\norder: 8\np: y\nq: x\n", encoding="utf-8")
    code, out, err = run_err(capsys, "ode", doc, mode)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {doc}: q(0, 0) must be nonzero")


def test_dynamics_without_a_1_jet_is_input_error(capsys):
    code, out, err = run_err(
        capsys, "dynamics", CORPUS / "heisenberg.surf", CORPUS / "identity.map", "--order", "0"
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {CORPUS / 'identity.map'}: dynamics needs the 1-jet")


@pytest.mark.parametrize(
    "command,components,message",
    [
        ("segre", "F: z\nG: w + z\n", "jet violates triangularity"),
        ("segre", "F: w\nG: w\n", "jet is not invertible"),
        ("determine", "F: 0\nG: 0\n", "jet is not invertible"),  # preserves the quadric
    ],
)
def test_a_degenerate_linear_part_is_input_error(capsys, tmp_path, command, components, message):
    doc = tmp_path / "degenerate.map"
    doc.write_text("kind: map\norder: 4\n" + components, encoding="utf-8")
    heis = CORPUS / "heisenberg.surf"
    argv = (heis, heis, doc) if command == "segre" else (heis, doc, CORPUS / "identity.map")
    code, out, err = run_err(capsys, command, *argv, "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {message}")


@pytest.mark.parametrize(
    "text", ["order: 4\nQ: t + {}*z*x\n", "order: 4\nQ: t + z^{}\n", "order: {}\nQ: t\n"]
)
def test_a_number_of_more_than_4300_digits_is_input_error(capsys, tmp_path, text):
    doc = tmp_path / "long.surf"
    doc.write_text("vars: z x t\n" + text.format("1" * 5000), encoding="utf-8")
    code, out, err = run_err(capsys, "analyze", doc)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {doc}: number has more than 4300 digits (line ")


@pytest.mark.parametrize("p", ["theta1*y", "y"])
def test_a_theta_value_outside_the_number_rule_is_input_error(capsys, tmp_path, p):
    # 1e5000 used to reach Fraction() and fail later on the 4300-digit limit
    doc = tmp_path / "big.ode"
    doc.write_text(f"gamma: 0\nvars: x y\norder: 4\np: {p}\nq: 1\ntheta: 1e5000\n")
    code, out, err = run_err(capsys, "ode", doc, "solve")
    assert (code, out) == (2, "")
    assert err == f"input error: {doc}: bad rational '1e5000' (line 6, column 8)\n"


@pytest.mark.parametrize(
    "literal", ["Q: t + ²*z*x", "Q: t + 2*i*z*x^²", "Q: t + 1/²*z*x", "Q: t + ٣*i*z*x"]
)
def test_a_non_ascii_digit_is_input_error(capsys, tmp_path, literal):
    doc = tmp_path / "digits.surf"
    doc.write_text(f"vars: z x t\norder: 4\n{literal}\n", encoding="utf-8")
    code, out, err = run_err(capsys, "analyze", doc)
    assert code == 2
    assert out == ""
    assert err.startswith(f"input error: {doc}: digits must be ASCII 0-9") and "(line 3, column" in err


HEIS, MOBIUS = CORPUS / "heisenberg.surf", CORPUS / "h_mobius_1.map"


@pytest.mark.parametrize(
    "argv,argument",
    [
        (("analyze", HEIS, "--order", "٣"), "--order"),
        (("segre", HEIS, HEIS, CORPUS / "h_mobius_half.map", "٣"), "k"),
        (("determine", HEIS, MOBIUS, MOBIUS, "٣"), "k"),
        (("ode", CORPUS / "gamma1.ode", "chain", "--r-max", "٣"), "--r-max"),
        (("analyze", HEIS, "--order", "+3"), "--order"),
        (("analyze", HEIS, "--order", "1_0"), "--order"),
        (("determine", HEIS, MOBIUS, MOBIUS, "²"), "k"),
    ],
)
def test_a_non_ascii_digit_in_an_argument_is_an_argument_error(capsys, argv, argument):
    # integer arguments follow the rule for documents: -?[0-9]+
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: argument {argument}: invalid int value: {argv[-1]!r}" in captured.err
    assert "Traceback" not in captured.err


def run_fresh(argv, **env):
    """The same call as a fresh ``python -m crjets`` process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    proc = subprocess.run(
        [sys.executable, "-m", "crjets", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_missing_key_is_named_alike_under_every_hash_seed(tmp_path):
    # the document lacks both 'vars' and 'order'; the first in document order is named
    doc = tmp_path / "keys.surf"
    doc.write_text("kind: surface\nQ: t\n")
    runs = [run_fresh(["analyze", str(doc)], PYTHONHASHSEED=str(seed)) for seed in range(1, 7)]
    err = f"input error: {doc}: surface document is missing 'vars' (line 1, column 1)\n"
    assert runs == [(2, "", err)] * 6


def run_shared(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_shared_parser_carries_no_state_between_calls(capsys):
    heis = str(CORPUS / "heisenberg.surf")
    segre = ["segre", heis, heis, str(CORPUS / "h_mobius_half.map"), "2"]
    gamma1 = str(CORPUS / "gamma1.ode")
    calls = [
        segre + ["--jet-only"],
        segre,
        ["analyze", heis, "--order", "4"],
        ["analyze", heis],
        ["ode", gamma1, "chain", "--r-max", "2"],
        ["ode", gamma1, "chain"],
        segre[:-1] + ["two"],
        segre,
    ]
    shared = cli.build_parser()  # the parser every main call uses
    results = [run_shared(capsys, argv) for argv in calls]
    assert cli.build_parser() is shared
    golden = (GOLDEN / "segre_mobius_half_k2.txt").read_text(encoding="utf-8")
    assert results[1] == results[7] == (0, golden, "")
    assert results[6][0] == 2 and "invalid int value: 'two'" in results[6][2]
    for argv, result in zip(calls, results):
        assert result == run_fresh(argv), argv


def test_an_unwritable_out_or_a_non_utf8_input_is_input_error(capsys, tmp_path):
    heis = str(CORPUS / "heisenberg.surf")
    missing = tmp_path / "missing" / "r.txt"
    code, out, err = run_err(capsys, "analyze", heis, "--out", missing)
    assert (code, out) == (2, "") and err.startswith(f"input error: cannot write {missing}: ")
    code, out, err = run_err(capsys, "analyze", heis, "--out", tmp_path)  # a directory
    assert (code, out) == (2, "") and err.startswith(f"input error: cannot write {tmp_path}: ")
    assert sorted(tmp_path.iterdir()) == []  # no PATH.tmp left behind
    doc = tmp_path / "latin1.surf"
    doc.write_bytes(b"vars: z x t\norder: 4\nQ: t + 2*i*z*x \xff\n")
    code, out, err = run_err(capsys, "analyze", doc)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read {doc}: ") and "position 36" in err


VERDICT_CODES = {"pass": 0, "pass (vacuous)": 0, "indeterminate": 3, "fail": 1}
SHAPES = {  # subcommand -> its document arguments and its K, if any
    "analyze": (("surf",), ()),
    "verify": (("surf", "surf", "map"), ()),
    "segre": (("surf", "surf", "map"), range(5)),
    "determine": (("surf", "map", "map"), range(1, 4)),
    "dynamics": (("surf", "map"), ()),
    "ode": (("ode",), ("solve", "determine", "chain")),
}


def _mutated(rng, source: pathlib.Path, target: pathlib.Path) -> str:
    """``source`` after 1-3 line edits, written to ``target``.  No edit adds a
    digit, so a mutated document never declares a higher order."""
    lines = source.read_text(encoding="utf-8").split("\n")
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(len(lines))
        edit = rng.randrange(4)
        if edit == 0 and len(lines) > 1:
            del lines[j]
        elif edit == 1:
            lines.insert(j, lines[j])
        elif edit == 2:
            lines[j] = lines[j][: rng.randrange(len(lines[j]) + 1)]
        elif lines[j]:
            c = rng.randrange(len(lines[j]))
            lines[j] = lines[j][:c] + rng.choice("+-*/^()zxtwi: ²") + lines[j][c + 1 :]
    target.write_text("\n".join(lines), encoding="utf-8")
    return str(target)


def test_every_call_ends_in_a_verdict_or_an_input_error(capsys, tmp_path):
    # exit 0 or 3 with a passing or indeterminate report, exit 1 with verdict:
    # fail, or exit 2 with one error line and no report; never a traceback
    rng = random.Random(7)
    docs = {ext: sorted(CORPUS.glob(f"*.{ext}")) for ext in ("surf", "map", "ode")}
    calls = []
    for n in range(400):
        command = rng.choice(sorted(SHAPES))
        exts, last = SHAPES[command]
        paths = [rng.choice(docs[ext]) for ext in exts]
        if n >= 300:  # mutate each input of the last 100 calls with probability 1/2
            paths = [
                _mutated(rng, p, tmp_path / f"{n}_{i}{p.suffix}") if rng.random() < 0.5 else p
                for i, p in enumerate(paths)
            ]
        argv = [command, *map(str, paths), *([str(rng.choice(last))] if last else [])]
        order = rng.choice([None, 1, 2, 3, 4, 6, 8, 12])
        if order is not None:
            argv += ["--order", str(order)]
        calls.append(argv)
    heis = str(CORPUS / "heisenberg.surf")
    latin1 = tmp_path / "latin1.surf"
    latin1.write_bytes(b"vars: z x t\norder: 4\nQ: t + 2*i*z*x \xff\n")
    calls += [
        ["analyze", str(latin1)],
        ["verify", heis, heis, str(latin1)],
        ["analyze", heis, "--out", str(tmp_path / "missing" / "r.txt")],
        ["analyze", heis, "--order", "٣"],
    ]
    codes = set()
    for argv in calls:
        code, out, err = run_shared(capsys, argv)
        codes.add(code)
        assert "Traceback" not in err and "failure:" not in err, argv
        if code == 2:
            errors = [ln for ln in err.splitlines() if ln.startswith("input error: ") or ": error: " in ln]
            assert out == "" and errors == err.splitlines()[-1:], argv
            continue
        *_, last = out.splitlines()
        assert err == "" and last.startswith("verdict: ") and out.count("\nverdict: ") == 1, argv
        assert VERDICT_CODES[last.removeprefix("verdict: ")] == code, argv
    assert codes == {0, 1, 2, 3}


COEFFICIENTS = ("1", "2", "1/2", "3", "i", "2*i", "(1+i)", "(1/2-i)")
HIGHER = ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
# a line of a failing report that shows why it fails
WITNESSES = (
    "residual_lowest_term: ",
    "invariant_obstruction: ",
    "obstruction: ",
    "first_difference: ",
    "comparison: ",
    "reconstructed_fixes_axis: false",
    "stored_fixes_axis: false",
)


def _written_map(rng, path: pathlib.Path) -> pathlib.Path:
    """A map of degree at most 3 with G_z(0) = 0 and F_z(0) G_w(0) != 0."""

    def term(monomial: str) -> str:
        return f"{rng.choice('+-')} {rng.choice(COEFFICIENTS)}*{monomial}"

    components = [[term("z")] + [term("w")] * (rng.random() < 0.5), [term("w")]]
    for terms in components:
        for _ in range(rng.randint(0, 2)):
            i, j = rng.choice(HIGHER)
            terms.append(term("*".join("z" * i + "w" * j)))
    f, g = (" ".join(terms).removeprefix("+ ") for terms in components)
    path.write_text(f"kind: map\norder: 12\nF: {f}\nG: {g}\n", encoding="utf-8")
    return path


def test_written_maps_end_in_a_verdict_or_an_input_error(capsys, tmp_path):
    # most of these maps do not send the surface into itself: segre,
    # determine and dynamics then fail with the mapping residual as witness
    rng = random.Random(20)
    maps = [_written_map(rng, tmp_path / f"m{n}.map") for n in range(24)]
    calls = []
    for order in ([], ["--order", "4"], ["--order", "8"]):
        for surface in map(str, sorted(CORPUS.glob("*.surf"))):
            for n, m in enumerate(map(str, maps)):
                calls += [["segre", surface, surface, m, str(k), *order] for k in range(4)]
                other = str(maps[n - 1]) if n % 2 else m
                calls.append(["determine", surface, m, other, str(1 + n % 2), *order])
                calls.append(["dynamics", surface, m, *order])
    codes = set()
    for argv in calls:
        code, out, err = run_shared(capsys, argv)
        codes.add(code)
        assert "Traceback" not in err and "failure:" not in err, argv
        if code == 2:
            assert out == "" and err.startswith("input error: ") and err.count("\n") == 1, argv
            continue
        lines = out.splitlines()
        assert err == "" and lines[-1].startswith("verdict: ") and out.count("verdict: ") == 1, argv
        assert VERDICT_CODES[lines[-1].removeprefix("verdict: ")] == code, argv
        if code == 1:
            assert any(line.startswith(WITNESSES) for line in lines), argv
    assert codes == {0, 1, 2, 3}


SERIES_KEYS =("Q", "phi", "F", "G", "p", "q")


def _terms(literal: str) -> list:
    """The top-level terms of a series literal as ``(sign, body)`` pairs."""
    text = literal.strip()
    sign = "+"
    if text.startswith("-"):
        sign, text = "-", text[1:]
    terms, body, depth = [], "", 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in "+-":
            terms.append((sign, body.strip()))
            sign, body = ch, ""
        else:
            body += ch
    return terms + [(sign, body.strip())]


def _rewritten(rng, rewrite, literal, variables, order) -> str:
    """``literal`` with the same value: its terms shuffled, one term ``c*m``
    split into ``c*m - 1/3*c*m + 1/3*c*m``, or ``+ m - m`` put in for a
    monomial ``m`` of degree at most ``order``."""
    terms = _terms(literal)
    if rewrite == "shuffle":
        rng.shuffle(terms)
    elif rewrite == "split":
        j = rng.randrange(len(terms))
        sign, body = terms[j]
        terms[j + 1 : j + 1] = [("-" if sign == "+" else "+", f"1/3*{body}"), (sign, f"1/3*{body}")]
    else:
        exps = [0] * len(variables)
        for _ in range(rng.randint(1, order)):
            exps[rng.randrange(len(variables))] += 1
        m = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)
        j = rng.randrange(len(terms) + 1)
        terms[j:j] = [("+", m), ("-", m)]
    (sign, body), *rest = terms
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)


def _rewrite_document(rng, source: pathlib.Path, target: pathlib.Path) -> str:
    """``source`` with one kind of rewrite applied to each of its series,
    written to ``target``."""
    text = source.read_text(encoding="utf-8")
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    variables, order = fields["vars"].split(), int(fields["order"])
    rewrite = rng.choice(("shuffle", "split", "cancel"))
    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in SERIES_KEYS:
            parts = value.split(";")
            value = " ; ".join(_rewritten(rng, rewrite, v, variables, order) for v in parts)
        lines.append(key + sep + value)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(target)


def _without_inputs(report: str) -> str:
    lines = report.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("input: "))


def test_rewrites_that_keep_the_series_keep_the_report(capsys, tmp_path):
    # shuffled terms, split coefficients and cancelling pairs change only the
    # input: lines (their sha256); the exit code and every other byte stay
    rng = random.Random(11)
    docs = {ext: sorted(CORPUS.glob(f"*.{ext}")) for ext in ("surf", "map", "ode")}
    for command in sorted(SHAPES):
        exts, last = SHAPES[command]
        for n in range(80):
            paths = [rng.choice(docs[ext]) for ext in exts]
            tail = [str(rng.choice(last))] if last else []
            order = rng.choice([None, 1, 2, 3, 4, 6, 8, 12])
            tail += [] if order is None else ["--order", str(order)]
            rewritten = [
                _rewrite_document(rng, p, tmp_path / f"{command}{n}_{i}" / p.name)
                for i, p in enumerate(paths)
            ]
            code, out, err = run_shared(capsys, [command, *map(str, paths), *tail])
            got = run_shared(capsys, [command, *rewritten, *tail])
            for path, new in zip(paths, rewritten):
                err = err.replace(str(path), new)
            want = (code, _without_inputs(out), err)
            assert (got[0], _without_inputs(got[1]), got[2]) == want, (command, rewritten)
