#!/usr/bin/env python3
"""Time the series kernels as the truncation order grows.

For each order it times, in one process and with the median of
``--repeat`` runs:

* ``inverse``: ``MapGerm.inverse`` of a sheared quadric automorphism
  (rotation, dilation and w-Moebius factor composed);
* ``graph``: ``from_real_graph`` on a seeded real graph with a fixed
  number of monomials z^a x^b s^m;
* ``reality``: ``check_reality`` on that graph's surface, the residual of
  Q(z, x, Qbar(x, z, w)) = w, on a fresh surface object each run;
* ``segre``: one ``segre_jet_reconstruct`` of that automorphism on a
  fresh quadric at k = 2, so that no earlier reconstruction is resumed;
* ``segre_sweep``: k = 0, 1, 2 on one fresh quadric, each k with its
  (k+1)-jet, so that each call resumes the one before it;
* ``ode``: ``determination_order`` of the zero solution plus
  ``resonance_set`` of a planted 2x2 system x y' = A y stored at the order,
  with its resonance at order - 2 and n_target the order.

It prints one line per order and writes a JSON record.  ``--pairs FILE``
copies a JSON list of benchmark pairs (parent and change runs of
``perfbench/run.py``) into the record unchanged, so that the sweep and the
pairs it was measured with stay in one file.

    python3 scripts/order_sweep.py --out BENCH.json
    python3 scripts/order_sweep.py --orders 8 --repeat 1 --out /tmp/sweep.json
"""

import argparse
import json
import pathlib
import platform
import random
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from crjets.hypersurface import NormalFormSurface, RealGraph, from_real_graph, heisenberg
from crjets.linalg import invert, mat_mul
from crjets.mapjets import dilation, segre_jet_reconstruct, w_mobius
from crjets.odejets import SingularODE, determination_order, resonance_set, zero_solution
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries

GRAPH_TERMS = 10


def sheared_automorphism(order: int):
    rotation = dilation(CR(Fraction(3, 5), Fraction(4, 5)), Fraction(1), order)
    scaling = dilation(Fraction(2), Fraction(4), order)
    return rotation.compose(scaling).compose(w_mobius(Fraction(1, 2), order))


def seeded_graph(order: int, seed: int = 8) -> RealGraph:
    """phi = z*x plus GRAPH_TERMS seeded monomials z^a x^b s^m (a, b >= 1)
    of degree at most 8, made real by adding the conjugate swap."""
    rng = random.Random(seed)
    slots = [
        (a, b, m)
        for a in range(1, 8)
        for b in range(1, 8)
        for m in range(0, 9 - a - b)
        if (a, b, m) != (1, 1, 0)
    ]
    coeffs = {(1, 1, 0): CR(Fraction(1, 2))}
    for slot in rng.sample(slots, GRAPH_TERMS):
        coeffs[slot] = CR(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
    rho = TruncatedSeries(("z", "x", "s"), order, coeffs)
    return RealGraph(rho + rho.conjugate().rename_variables({"z": "x", "x": "z"}))


def planted_ode(order: int) -> SingularODE:
    """x y' = A y with A = S diag(order - 2, -3/2) S^-1, stored at ``order``."""
    s = [[CR(2), CR(1)], [CR(1), CR(1)]]
    diag = [[CR(order - 2), CR(0)], [CR(0), CR(Fraction(-3, 2))]]
    a = mat_mul(mat_mul(s, diag), invert(s))
    variables = ("x", "y1", "y2")
    p = [TruncatedSeries(variables, order, {(0, 1, 0): row[0], (0, 0, 1): row[1]}) for row in a]
    return SingularODE(0, p, TruncatedSeries(variables, order, {(0, 0, 0): CR(1)}))


def determine(ode: SingularODE, order: int):
    return determination_order(ode, zero_solution(ode, order), order), resonance_set(ode, order)


def segre_fresh(q, jet):
    heis = NormalFormSurface(q)
    return segre_jet_reconstruct(heis, heis, jet, 2)


def segre_sweep(q, germ, k_max: int):
    heis = NormalFormSurface(q)
    return [segre_jet_reconstruct(heis, heis, germ.jet(k + 1), k) for k in range(k_max + 1)]


def median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(1000 * statistics.median(times), 2)


def sweep(orders, repeat: int) -> dict:
    rows = {}
    for order in orders:
        germ = sheared_automorphism(order)
        graph = seeded_graph(order)
        surface = from_real_graph(graph)
        q = heisenberg(order).q
        jet = germ.jet(3)
        ode = planted_ode(order)
        rows[str(order)] = {
            "inverse_ms": median_ms(germ.inverse, repeat),
            "graph_ms": median_ms(lambda: from_real_graph(graph), repeat),
            "reality_ms": median_ms(lambda: NormalFormSurface(surface.q).check_reality(), repeat),
            "segre_ms": median_ms(lambda: segre_fresh(q, jet), repeat),
            "segre_sweep_ms": median_ms(lambda: segre_sweep(q, germ, 2), repeat),
            "ode_ms": median_ms(lambda: determine(ode, order), repeat),
        }
        cells = "  ".join(f"{k} {v:9.2f}" for k, v in rows[str(order)].items())
        print(f"order {order:2d}  {cells}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", type=int, nargs="+", default=[8, 12, 16, 20])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", required=True, help="path of the JSON record")
    parser.add_argument("--pairs", help="JSON list of benchmark pairs to record")
    args = parser.parse_args(argv)
    if args.repeat < 1 or any(order < 3 for order in args.orders):
        parser.error("--repeat must be positive and every order at least 3")
    record = {
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "repeat": args.repeat,
        "order_sweep_ms": sweep(args.orders, args.repeat),
    }
    if args.pairs:
        record["perfbench_pairs"] = json.loads(pathlib.Path(args.pairs).read_text())
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
