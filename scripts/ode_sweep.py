#!/usr/bin/env python3
"""Run the ODE engine over seeded systems in process and print one digest.

The grid: 400 nonlinear systems drawn from ``random.Random(11)`` by the
generator of ``tests/test_odejets.py`` (so the test dependencies must be
installed), with ``n_max`` in {6, 8, 10, 12}, ``n`` in {1, 2}, ``gamma`` in
{0, 1, 2} and the truncation order ``n_max + {0, 2, 6}``.  For each draw
``j`` it records ``determination_order`` on the zero base and on the zero
table with a 1 at order ``1 + j % n_max``, each as a value or as the error
it raises, and the ``formal_coefficients`` run with no seed through
``n_max``.  Then the ``formal_coefficients`` run of the 24 planted 2x2
systems of the benchmark's ``ode`` kind through order 24.  Every outcome
goes into one sha256, so two checkouts whose engines agree print the same
line:

    python scripts/ode_sweep.py                 # this checkout
    python scripts/ode_sweep.py --root OTHER    # another checkout's src/

CI compares the line with ``scripts/sweep_digests.txt``, as it does for
``scripts/corpus_sweep.py``.
"""

import argparse
import hashlib
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
PLANTED_TARGET = 24


def outcomes():
    from crjets import odejets
    from perfbench.workloads import ODE_RESONANCES, planted_system
    from test_odejets import random_nonlinear_system, wrong_base

    def determine(ode, base, n_max):
        try:
            return ("k", odejets.determination_order(ode, base, n_max))
        except odejets.InconsistentSeed as exc:
            return ("InconsistentSeed", exc.order)
        except odejets.IndeterminateAtTruncation as exc:
            return ("IndeterminateAtTruncation", exc.at_most, exc.unknown_orders)

    rng = random.Random(11)
    for j in range(400):
        n_max = rng.choice([6, 8, 10, 12])
        n, gamma = rng.choice([1, 2]), rng.choice([0, 1, 2])
        order = n_max + rng.choice([0, 2, 6])
        ode = random_nonlinear_system(rng, n, gamma, order)
        yield determine(ode, odejets.zero_solution(ode, n_max), n_max)
        yield determine(ode, wrong_base(ode, n_max, 1 + j % n_max), n_max)
        yield odejets.formal_coefficients(ode, {}, n_max)
    for s in range(24):
        ode, _ = planted_system(random.Random(s), ODE_RESONANCES[s % 4], s % 3)
        yield odejets.formal_coefficients(ode, {}, PLANTED_TARGET)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(HERE))
    args = parser.parse_args(argv)
    # the grid's generators come from this checkout, the engine from --root
    sys.path[:0] = [str(pathlib.Path(args.root).resolve() / "src"), str(HERE), str(HERE / "tests")]
    digest, count = hashlib.sha256(), 0
    for outcome in outcomes():
        digest.update(repr(outcome).encode())
        count += 1
    print(f"{count} outcomes sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
