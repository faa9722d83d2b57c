"""Tests of the benchmark itself: generators, oracles, tracing, the runner.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from crjets import cli, mapjets  # noqa: E402
from crjets.rational import ComplexRational as CR  # noqa: E402
from crjets.series import TruncatedSeries as TS, to_float  # noqa: E402


def build(name, seed, tmp_path):
    return W.build(name, seed, ROOT, tmp_path / f"work-{name}-{seed}")


def first_ops(workload, n):
    return list(itertools.islice(workload.operations(), n))


def generated_files(tmp_path, name, seed):
    work = tmp_path / f"work-{name}-{seed}"
    return {p.name: p.read_text() for p in sorted(work.glob("*"))} if work.exists() else {}


@pytest.mark.parametrize("name,n", [("corpus_cli", 60), ("map_sweep", 16), ("dense_solve", 6)])
def test_generators_are_deterministic_under_a_seed(tmp_path, name, n):
    specs = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        sub = tmp_path / tag
        workload = build(name, seed, sub)
        specs[tag] = ([op.spec for op in first_ops(workload, n)], generated_files(sub, name, seed))
    assert specs["a"] == specs["b"]
    assert specs["a"] != specs["c"]


def test_corpus_cli_covers_every_corpus_file_and_subcommand(tmp_path):
    calls = build("corpus_cli", 1, tmp_path).calls
    used = {pathlib.PurePath(a).name for call in calls for a in call.argv}
    corpus = {p.name for p in (ROOT / "corpus").iterdir()}
    assert corpus <= used
    assert {call.argv[0] for call in calls} == {
        "analyze", "verify", "segre", "determine", "dynamics", "ode",
    }
    modes = {call.argv[2] for call in calls if call.argv[0] == "ode" and call.exit_code != 2}
    assert {"solve", "determine", "chain"} <= modes
    assert {call.golden for call in calls if call.golden} == {
        p.name for p in (ROOT / "tests" / "golden").glob("*.txt")
    }


# ----------------------------------------------------------------------
# oracles reject perturbed results


def test_series_oracle_rejects_one_changed_coefficient():
    s = TS(("z",), 6, {(1,): CR(1, 2), (3,): CR(5)})
    W.series_agree(s, s, "same")
    with pytest.raises(W.OracleFailure):
        W.series_agree(s + TS(("z",), 6, {(3,): CR(1)}), s, "changed")
    with pytest.raises(W.OracleFailure):
        W.series_agree(s + TS(("z",), 6, {(6,): CR(0, 1)}), s, "extra")


def test_series_oracle_float_tolerance():
    s = TS(("z",), 6, {(1,): CR(1, 2), (3,): CR(5)})
    near = to_float(s) + TS(("z",), 6, {(3,): 1e-12}, tolerance=1e-15)
    far = to_float(s) + TS(("z",), 6, {(3,): 1e-6}, tolerance=1e-15)
    W.series_agree(near, s, "near")
    with pytest.raises(W.OracleFailure):
        W.series_agree(far, s, "far")


def test_map_sweep_oracle_rejects_perturbed_reconstruction(tmp_path):
    ops = first_ops(build("map_sweep", 3, tmp_path), 8)
    for op in ops:
        verdict, chain = op.run()
        assert op.check((verdict, chain)) == W.OK
        k, recon = chain[2]
        one = TS.constant(1, ("z",), recon.f_wk.order, recon.f_wk.tolerance)
        bumped = dataclasses.replace(recon, f_wk=recon.f_wk + one)
        bad_chain = chain[:2] + [(k, bumped)] + chain[3:]
        with pytest.raises(W.OracleFailure):
            op.check((verdict, bad_chain))
        flipped = dataclasses.replace(verdict, jets_agree=not verdict.jets_agree)
        with pytest.raises(W.OracleFailure):
            op.check((flipped, chain))


def test_dense_oracles_reject_perturbed_results(tmp_path):
    workload = build("dense_solve", 2, tmp_path)
    ops = {op.name: op for op in first_ops(workload, 3)}
    ode = ops["ode"]
    k, resonances = ode.run()
    assert ode.check((k, resonances)) == W.OK
    with pytest.raises(W.OracleFailure):
        ode.check((k + 1, resonances))
    with pytest.raises(W.OracleFailure):
        ode.check((k, resonances | {25}))

    inverse = ops["inverse"]
    inv = inverse.run()
    assert inverse.check(inv) == W.OK
    z2 = TS(mapjets.MAP_VARS, inv.order, {(2, 0): CR(1, 1)})
    with pytest.raises(W.OracleFailure):
        inverse.check(mapjets.MapGerm(inv.f + z2, inv.g))

    graph = ops["graph"]
    invariants, residual, chain = graph.run()
    assert graph.check((invariants, residual, chain)) == W.OK
    nonzero = residual + TS(residual.variables, residual.order, {(1, 1, 1): CR(1)})
    with pytest.raises(W.OracleFailure):
        graph.check((invariants, nonzero, chain))


def test_cli_oracle(tmp_path):
    workload = build("corpus_cli", 1, tmp_path)
    golden = next(c for c in workload.calls if c.golden)
    code, out, err = W.run_cli(golden.argv)
    assert W.check_cli(golden, workload.goldens, (code, out, err)) == W.OK
    with pytest.raises(W.OracleFailure):
        W.check_cli(golden, workload.goldens, (code, out.replace("pass", "pas"), err))
    with pytest.raises(W.OracleFailure):
        W.check_cli(golden, workload.goldens, (1, out, err))
    defect = next(c for c in workload.calls if c.defect)
    plain = next(c for c in workload.calls if c.exit_code == 2 and not c.defect)
    broken = (1, "", "failure: jet order 21 exceeds stored order 12\n")
    assert W.check_cli(defect, workload.goldens, broken) == W.KNOWN_DEFECT
    assert W.check_cli(defect, workload.goldens, (2, "", "input error: K\n")) == W.OK
    with pytest.raises(W.OracleFailure):
        W.check_cli(plain, workload.goldens, broken)


# ----------------------------------------------------------------------
# tracing


def test_wrappers_reach_every_binding_and_are_removed(tmp_path):
    originals = (cli.verify_mapping, W.verify_mapping, TS.__rmul__, TS.__mul__, cli.main)
    assert not tracing.wrapped_bindings([W])
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[W])
    try:
        for fn in (cli.verify_mapping, W.verify_mapping, mapjets.verify_mapping,
                   TS.__mul__, TS.__rmul__, mapjets.MapGerm.inverse, cli.main):
            assert getattr(fn, tracing.MARK, False)
        op = next(build("corpus_cli", 4, tmp_path).operations())
        tracer.active = True
        op.check(op.run())
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.calls["cli.main"] == 1
    assert not tracing.wrapped_bindings([W])
    assert originals == (cli.verify_mapping, W.verify_mapping, TS.__rmul__, TS.__mul__, cli.main)
    assert cli.verify_mapping is mapjets.verify_mapping

    counter = tracing.ScalarCounter()
    counter.install(extra_modules=[W])
    counter.uninstall()
    assert not tracing.wrapped_bindings([W])


def _instrumented(instrument, name, seed, n, tmp_path):
    ops = first_ops(build(name, seed, tmp_path), n)
    instrument.install(extra_modules=[W])
    try:
        for op in ops:
            instrument.active = True
            result = op.run()
            instrument.active = False
            assert op.check(result) == W.OK
    finally:
        instrument.uninstall()
    return instrument.metrics()


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    runs = [_instrumented(tracing.ScalarCounter(), "map_sweep", 5, 3, tmp_path / str(i))
            for i in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["rational.calls"] > 0 and runs[0]["rational.coeff_bits_max"] > 0
    traced = [_instrumented(tracing.Tracer(), "map_sweep", 5, 3, tmp_path / f"t{i}")
              for i in range(2)]
    exact = [k for k in traced[0] if not k.endswith("self_s")]
    assert [traced[0][k] for k in exact] == [traced[1][k] for k in exact]
    assert traced[0]["series.solve_composition.compose_calls"] > 0


def test_self_times_exclude_children(tmp_path):
    tracer = tracing.Tracer()
    metrics = _instrumented(tracer, "map_sweep", 6, 2, tmp_path)
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    roots = [s for s in tracer.spans if s[1] is None]
    assert roots and all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(sum(s[4] - s[3] for s in roots), rel=1e-6)


# ----------------------------------------------------------------------
# the runner


def test_tail_percentile_keeps_ten_samples_and_one_percent_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    value, pct = run.tail([float(i) for i in range(4000)])
    assert value == 3959.0 and pct == 99.0


def test_end_to_end_reads_kind_medians_at_reference_speed():
    # kind "a" has one slow outlier, as when a burst of load hits one call;
    # the host ran the reference work at half its nominal speed
    nominal = run.REFERENCE_NOMINAL_S
    ops = [["a", 0.01], ["b", 0.1], ["a", 0.05], ["b", 0.1], ["a", 0.01], ["b", 0.1]]
    result = {
        "ops": [[kind, latency, i] for i, (kind, latency) in enumerate(ops)],
        "reference_s": [2 * nominal] * 6,
        "peak_rss_kb": 1024,
    }
    metrics = run.end_to_end([0.2, 0.1, 0.3], result)
    assert metrics["ops_per_s"][0] == pytest.approx(2 * 6 / 0.33)
    assert metrics["latency_p50_ms"][0] == pytest.approx(55.0 / 2)
    assert metrics["latency_tail_ms"][0] == pytest.approx(100.0 / 2)
    assert metrics["setup_s"][0] == 0.2


def test_each_latency_is_scaled_by_the_host_speed_around_it():
    nominal, w = run.REFERENCE_NOMINAL_S, run.REFERENCE_WINDOW
    # the host runs at nominal speed, then at a third of it
    reference = [nominal] * (4 * w) + [3 * nominal] * (4 * w)
    result = {"ops": [["x", 0.01, w], ["x", 0.03, 7 * w]], "reference_s": reference}
    assert [t for _, t in run.at_reference_speed(result)] == pytest.approx([0.01, 0.01])


def test_reference_work_calls_no_crjets_code():
    import worker

    files = set()
    sys.setprofile(lambda frame, event, arg: files.add(frame.f_code.co_filename))
    try:
        worker.reference_work()
    finally:
        sys.setprofile(None)
    assert files and not any("crjets" in f for f in files)


def test_runner_refuses_a_directory_without_crjets(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
