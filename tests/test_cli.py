"""CLI subcommands: golden reports, determinism, exit codes."""

import pathlib

import pytest

from crjets.cli import main

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
    # ell = 2 on the quartic model: the reconstruction still takes no branch
    code, out = run(
        capsys,
        "segre",
        CORPUS / "z4.surf",
        CORPUS / "z4.surf",
        CORPUS / "dilation_z4.map",
        "1",
    )
    assert code == 0
    assert "backend: exact\n" in out
    assert "reconstructed_G: 16\n" in out
    assert "comparison: exact\n" in out
    assert "verdict: pass" in out


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


def test_ode_chain(capsys):
    code, out = run(capsys, "ode", CORPUS / "gamma1.ode", "chain")
    assert code == 0
    assert "ker_q0_dim: 0" in out


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
