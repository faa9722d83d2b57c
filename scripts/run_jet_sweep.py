#!/usr/bin/env python3
"""Determination sweep: random pairs from the quadric automorphism family.

Pairs that share their full 2-jet at the origin must agree as germs through
the working order; the sweep counts vacuous pairs and verifies every
non-vacuous one.  Exact arithmetic throughout.
"""

import argparse
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE / "src"), str(HERE)]

from crjets.hypersurface import heisenberg
from crjets.mapjets import determination_experiment
from perfbench.workloads import ARRANGEMENTS, LAMBDAS, SHEARS, UNITS, family_member


def draw_member(rng, order, cache):
    """A seeded member of the quadric automorphism family, built once per key."""
    key = tuple(rng.randrange(n) for n in (len(UNITS), len(LAMBDAS), len(SHEARS), ARRANGEMENTS))
    if key not in cache:
        cache[key] = family_member(key, order)
    return cache[key]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--order", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1311)
    args = parser.parse_args()

    surface = heisenberg(args.order)
    rng = random.Random(args.seed)
    cache = {}
    vacuous = coincident = 0
    for index in range(args.pairs):
        h1 = draw_member(rng, args.order, cache)
        h2 = draw_member(rng, args.order, cache)
        verdict = determination_experiment(surface, h1, h2, 2)
        if verdict.vacuous:
            vacuous += 1
        else:
            coincident += 1
            if not verdict.maps_agree:
                print(f"pair {index}: SAME 2-JET, DIFFERENT GERMS -- {verdict}")
                return 1
    print(
        f"{args.pairs} pairs at order {args.order}: "
        f"{vacuous} vacuous, {coincident} coincident, 0 violations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
