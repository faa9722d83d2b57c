#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent revision and the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH.json
    python3 scripts/bench_pairs.py --parent HEAD --pairs 1 --seconds 3 --out /tmp/pairs.json

It makes ``git archive`` copies of ``--parent`` and of the working tree
(tracked and untracked files, as ``git add -A`` would stage them, without
touching the index) in a temporary directory, each with its own bytecode
prefix.  Each copy is warmed once, with ``PYTHONDONTWRITEBYTECODE`` unset,
by a one-second run of every workload, so no timed run compiles anything.
Then, for each workload of ``BENCHMARK.json``, it runs ``--pairs``
alternating pairs of ``perfbench/run.py --trace 0``, one run at a time:
pair ``i`` (from 0) runs both sides on the fresh seed ``--seed + workload
index * pairs + i``, the parent first when ``i`` is even and the change
first when it is odd.

The output file holds ``perfbench_pairs``, the last output line of every
run with its workload, seed and which side ran first (plus, per side, the
median latency of each operation kind, raw and divided by the run's
median reference time, read from the run's record), and ``summary``, one
schema per workload and end-to-end metric: the seeds, the operations
attempted and failed on each side, each side's quartiles by
``statistics.quantiles(n=4)``, how many pairs the change won (ties count
for neither), the ratio of the medians (change over parent), the bound
from ``BENCHMARK.json`` and every run's value, then the median over the
runs of each kind's medians.  The file is rewritten after every pair with
the pairs so far, so an interrupted run keeps them.  It exits 2 when the
parent revision is unknown or a run fails to report.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def working_tree() -> str:
    """A tree object of the working tree, staged in a scratch index."""
    with tempfile.TemporaryDirectory() as scratch:
        index = pathlib.Path(scratch) / "index"
        shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), index)
        env = dict(os.environ, GIT_INDEX_FILE=str(index))
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree_ish: str, dest: pathlib.Path):
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", tree_ish], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, ["git", "archive", tree_ish])


def side_env(copy: pathlib.Path) -> dict:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(copy.parent / f"{copy.name}-pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def run(copy: pathlib.Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its last output line, with
    the kind medians of its record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=side_env(copy), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{copy.name} {workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    record = copy / "perfbench" / "_out" / f"{workload}-seed{seed}-trace0.json"
    result["kind_medians_ms"] = kind_medians(json.loads(record.read_text()))
    return result


def kind_medians(record: dict) -> dict:
    """Each kind's median latency in ms, and that median divided by the
    run's median reference time in ms (1.0 is the nominal host)."""
    by_kind: dict = {}
    for kind, latency, _ in record["ops_kind_latency_s_reference_index"]:
        by_kind.setdefault(kind, []).append(latency)
    reference_ms = 1000 * statistics.median(record["reference_s"])
    out = {}
    for kind, latencies in sorted(by_kind.items()):
        raw = 1000 * statistics.median(latencies)
        out[kind] = round(raw, 4)
        out[f"{kind}_per_reference_ms"] = round(raw / reference_ms, 4)
    return out


def summarise(pairs: list, benchmark: dict) -> dict:
    """The summary of ``pairs`` (entries of ``perfbench_pairs``) by workload
    and end-to-end metric; starts no process."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        cell = {
            "seeds": [p["seed"] for p in runs],
            "attempted": {s: sum(p[s]["attempted"] for p in runs) for s in SIDES},
            "failed": {s: sum(p[s]["failed"] for p in runs) for s in SIDES},
        }
        for name, metric in metrics.items():
            values = {s: [p[s]["metrics"][name]["value"] for p in runs] for s in SIDES}
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            cell[name] = {
                "parent_q1_median_q3": quartiles(values["parent"]),
                "change_q1_median_q3": quartiles(values["change"]),
                "change_wins": f"{wins}/{len(runs)}",
                "median_ratio": round(
                    statistics.median(values["change"]) / statistics.median(values["parent"]), 4
                ),
                "bound": metric["bound"],
                "parent_runs": [round(v, 4) for v in values["parent"]],
                "change_runs": [round(v, 4) for v in values["change"]],
            }
        if all("kind_medians_ms" in p[s] for p in runs for s in SIDES):
            cell["kind_medians_ms"] = {s: kind_summary([p[s] for p in runs]) for s in SIDES}
        summary[workload] = cell
    return summary


def kind_summary(sides: list) -> dict:
    """The median over runs of each kind's medians, over the runs that made
    operations of that kind: a seed can draw kinds that another does not."""
    kinds = sorted({kind for side in sides for kind in side["kind_medians_ms"]})
    return {
        kind: round(statistics.median(
            [side["kind_medians_ms"][kind] for side in sides if kind in side["kind_medians_ms"]]
        ), 4)
        for kind in kinds
    }


def quartiles(values: list) -> list:
    """Q1, median and Q3 (``statistics.quantiles(n=4)``, exclusive method);
    one value is its own quartiles."""
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def host() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.partition(":")[2].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpu_model": model,
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in benchmark["workloads"]]
    base = pathlib.Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        copies = {"parent": base / "parent", "change": base / "change"}
        export(parent, copies["parent"])
        export(working_tree(), copies["change"])
        for side in SIDES:
            for workload in workloads:
                run(copies[side], workload, 0, 1)
        pairs = []
        for w, workload in enumerate(workloads):
            for i in range(args.pairs):
                seed = args.seed + w * args.pairs + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                entry = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    entry[side] = run(copies[side], workload, seed, args.seconds)
                pairs.append(entry)
                # the pairs so far, so that an interrupted run keeps them
                args.out.write_text(json.dumps({"perfbench_pairs": pairs}, indent=1) + "\n")
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{s} {entry[s]['metrics']['latency_p50_ms']['value']:.4f} ms p50"
                    for s in SIDES
                ), flush=True)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    record = {
        "host": host(),
        "how": (
            f"scripts/bench_pairs.py: {args.pairs} alternating {args.seconds} s "
            f"perfbench/run.py --trace 0 pairs per workload, parent {parent}, change the "
            f"working tree on HEAD {git('rev-parse', 'HEAD')}"
        ),
        "summary": summarise(pairs, benchmark),
        "perfbench_pairs": pairs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
