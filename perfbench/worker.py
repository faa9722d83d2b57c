"""One measuring process: set up a workload, then run its operations.

Started by ``run.py`` from a fresh interpreter.  It prints ``READY`` once the
imports, the input generation and one warm-up operation are done, so the
parent can time set-up from process start, then prints one JSON line with
the results.  Modes:

* ``setup``: stop after ``READY``;
* ``plain``: time operations, never patched;
* ``trace``: the same operations under the span tracer;
* ``count``: the same operations under the scalar counter.

``--seconds`` bounds a pass by time; ``--ops`` fixes its length instead,
which is what makes traced and counted numbers repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import itertools
import json
import os
import pathlib
import resource
import sys
import time
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 20
REFERENCE_SHARE = 0.05


def reference_work():
    """Fixed interpreter work that calls no crjets code: fractions, string
    formatting, a dict and a sort, the kinds of work crjets does.  Timed
    after every operation, it tracks the speed of the host through the run;
    ``run.py`` scales each latency by the timings around it."""
    total = Fraction(0)
    names = {}
    for i in range(1, 120):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        total = (total + q * q) % 3
        names[f"k{i}"] = str(q)
    return sorted(names.values())[-1], total


def run_pass(workload, ops, deadline, instrument):
    done = []  # per verified operation: kind, latency, index into reference
    reference = []
    failures = []
    defects = {}
    attempted = failed = 0
    clock = time.perf_counter
    for op in ops:
        if deadline is not None and clock() >= deadline:
            break
        attempted += 1
        if instrument is not None:
            instrument.active = True
        start = clock()
        try:
            result = op.run()
            end = clock()
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            if instrument is not None:
                instrument.active = False
        try:
            status = op.check(result)
        except workloads.OracleFailure as exc:
            failed += 1
            failures.append(f"{op.name}: {exc}")
            continue
        if status == workloads.KNOWN_DEFECT:
            defects[op.name] = defects.get(op.name, 0) + 1
        else:
            done.append([op.name, end - start, len(reference)])
        # after every operation, at least one timing of the reference work
        # and about REFERENCE_SHARE of the operation's time; the collector is
        # off so that the program's heap does not slow the reference
        gc.disable()
        spent = 0.0
        while spent == 0.0 or spent < REFERENCE_SHARE * (end - start):
            t0 = clock()
            reference_work()
            reference.append(clock() - t0)
            spent += reference[-1]
        gc.enable()
    return {
        "ops": done,
        "reference_s": reference,
        "attempted": attempted,
        "failed": failed,
        "known_defects": defects,
        "failures": failures[:MAX_FAILURES_SHOWN],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace", "count"), default="plain")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--spans-out", help="write the traced spans here (gzip JSON)")
    args = parser.parse_args(argv)

    workdir = ROOT / "perfbench" / "_work" / str(os.getpid())
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, workdir)
        workload.warmup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        instrument = None
        if args.mode == "trace":
            instrument = tracing.Tracer()
        elif args.mode == "count":
            instrument = tracing.ScalarCounter()
        if instrument is not None:
            instrument.install(extra_modules=[workloads])
        ops = workload.operations()
        deadline = None
        if args.ops is not None:
            ops = itertools.islice(ops, args.ops)
        else:
            deadline = time.perf_counter() + args.seconds
        try:
            out = run_pass(workload, ops, deadline, instrument)
        finally:
            if instrument is not None:
                instrument.uninstall()
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if instrument is not None:
            out["per_layer"] = instrument.metrics()
        if args.mode == "trace" and args.spans_out:
            with gzip.open(args.spans_out, "wt", encoding="utf-8") as fh:
                json.dump(
                    {"fields": ["id", "parent", "name", "start", "end"],
                     "spans": instrument.spans},
                    fh,
                )
        print(json.dumps(out), flush=True)
        return 0
    finally:
        workloads.remove_workdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
