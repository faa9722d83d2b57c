"""Smoke test of scripts/equivalence_sweep.py: each grid still runs, and runs the same way twice."""

import importlib.util
import itertools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("equivalence_sweep", ROOT / "scripts" / "equivalence_sweep.py")
SWEEP = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(SWEEP)


@pytest.mark.parametrize(
    "family", [SWEEP.calls, SWEEP.outcomes, SWEEP.records, SWEEP.chains], ids=lambda f: f.__name__
)
def test_each_family_yields_the_same_first_records_twice(family, monkeypatch):
    # the grids' generators come from this checkout, as under main()
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT))
    first = list(itertools.islice(family(), 6))
    assert len(first) == 6
    assert first == list(itertools.islice(family(), 6))


def test_corpus_calls_name_their_inputs_relative_to_the_checkout():
    argv, out, err, code = next(SWEEP.calls())
    assert argv[0] == "analyze" and argv[1].startswith("corpus/") and argv[1].endswith(".surf")
    assert (out.splitlines()[-1], err, code) == ("verdict: pass", "", 0)
