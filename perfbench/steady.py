#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and compare spreads.

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of that
median, next to the metric's bound in BENCHMARK.json.  ``--against`` also
compares the medians with an earlier set of runs saved by this script.

    python3 perfbench/steady.py --workloads map_sweep --seeds 5
    python3 perfbench/steady.py --seeds 10 --save perfbench/_out/set1.json
    python3 perfbench/steady.py --seeds 10 --against perfbench/_out/set1.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect results")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the raw values here")
    parser.add_argument("--against", help="compare medians with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(pathlib.Path(args.against).read_text()) if args.against else {}
    values: dict = {}
    steady = True
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(spec, workload, seed))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        values[workload] = {name: [r[name] for r in runs] for name in bounds}
        for name, metric in bounds.items():
            vals = values[workload][name]
            median, share = statistics.median(vals), spread(vals)
            line = f"{workload:12s} {name:16s} median {median:12.5g} spread {share:7.4f}"
            ok = name == "setup_s" or share <= metric["bound"]
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                worse = (median - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f" drift {worse:+7.4f}"
                ok = ok and worse <= metric["bound"]
            line += f" bound {metric['bound']:.3f} {'ok' if ok else 'OUT'}"
            steady = steady and ok
            print(line, flush=True)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
