"""The pair driver's summary, recomputed from a checked-in benchmark file.

``BENCH_29.json`` keeps every run of its ten alternating pairs per workload
in ``perfbench_pairs`` beside the ``summary`` written from them; the
driver's summariser must give that summary back, starting no process.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((ROOT / "BENCH_29.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


@pytest.fixture(scope="module")
def summary():
    return bench_pairs.summarise(RECORD["perfbench_pairs"], BENCHMARK)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("workload", ["corpus_cli", "dense_solve"])
def test_summary_of_bench_29_pairs_reproduces_its_summary(summary, workload, metric):
    got, want = summary[workload][metric], RECORD["summary"][workload][metric]
    for field in ("parent_q1_median_q3", "change_q1_median_q3", "change_wins", "median_ratio"):
        assert got[field] == want[field], field
    assert got["bound"] == want["bound"]
    assert got["parent_runs"] == want["parent_runs"] and got["change_runs"] == want["change_runs"]


@pytest.mark.parametrize("workload", ["corpus_cli", "dense_solve"])
def test_summary_counts_seeds_and_operations(summary, workload):
    for field in ("seeds", "attempted", "failed"):
        assert summary[workload][field] == RECORD["summary"][workload][field]


def test_one_pair_is_its_own_quartiles():
    pair = RECORD["perfbench_pairs"][:1]
    cell = bench_pairs.summarise(pair, BENCHMARK)[pair[0]["workload"]]["ops_per_s"]
    value = round(pair[0]["parent"]["metrics"]["ops_per_s"]["value"], 4)
    assert cell["parent_q1_median_q3"] == [value] * 3 and cell["change_wins"] in ("0/1", "1/1")


def test_kind_medians_cover_kinds_that_only_some_runs_drew():
    runs = []
    for seed, kinds in ((1, {"a": 1.0, "b": 4.0}), (2, {"a": 3.0}), (3, {"a": 2.0, "c": 5.0})):
        side = {"correct": True, "attempted": 1, "failed": 0, "kind_medians_ms": kinds,
                "metrics": {m: {"value": 1.0} for m in METRICS}}
        runs.append({"workload": "w", "seed": seed, "first": "parent",
                     "parent": side, "change": side})
    cell = bench_pairs.summarise(runs, BENCHMARK)["w"]
    assert cell["kind_medians_ms"]["parent"] == {"a": 2.0, "b": 4.0, "c": 5.0}
    assert cell["ops_per_s"]["change_wins"] == "0/3"
