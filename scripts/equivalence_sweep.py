#!/usr/bin/env python3
"""Run the engine over four seeded grids in process and print one digest each.

- calls: every subcommand over ``corpus/`` with ``--order`` unset, 2, 4, 8.
- outcomes: ``determination_order`` and ``formal_coefficients`` on 400
  systems from ``tests/test_odejets.py``'s generator (the test dependencies
  must be installed) and on the benchmark's 24 planted ``ode`` systems, and
  ``resonance_set`` on each of them with gamma = 0.
- records: 60 dense graphs of the benchmark's ``graph`` kind through
  ``from_real_graph``, the checks, the invariants, a dilated image,
  ``verify_mapping`` and ``segre_jet_reconstruct`` k = 0..3.  Its orders
  start at 6: ``perfbench/workloads.py::dense_graph`` fails below that.
- chains: ``kernel_chain_diagnostic`` over the zero solution of 400 two-
  dimensional systems from ``tests/test_odejets.py``'s generator, gamma 1
  or 2 at order 12: each report, or the error it raises.

``--root OTHER`` selects only the engine, ``OTHER/src``.  Every input
(``corpus/``, ``perfbench/workloads.py``, ``tests/test_odejets.py``) comes
from this checkout, so two checkouts whose engines agree print the same lines:

    python scripts/equivalence_sweep.py | diff scripts/sweep_digests.txt -
    python scripts/equivalence_sweep.py --root OTHER | diff scripts/sweep_digests.txt -

A change that alters output on purpose updates the manifest and names the
calls it changed.
"""

import argparse
import contextlib
import hashlib
import io
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
PREFIX = str(HERE) + "/"


def grid(corpus: pathlib.Path, orders):
    surfaces, maps, odes = (sorted(map(str, corpus.glob(f"*.{k}"))) for k in ("surf", "map", "ode"))
    for order in orders:
        opt = [] if order is None else ["--order", str(order)]
        for s in surfaces:
            yield ["analyze", s, *opt]
            for m in maps:
                yield ["verify", s, s, m, *opt]
                yield ["dynamics", s, m, *opt]
                for k in range(5):
                    yield ["segre", s, s, m, str(k), *opt]
                for m2 in maps:
                    for k in (1, 2, 3):
                        yield ["determine", s, m, m2, str(k), *opt]
        for f in odes:
            for mode in ("solve", "determine", "chain"):
                yield ["ode", f, mode, *opt]


def calls():
    from crjets import cli

    for call in grid(HERE / "corpus", (None, 2, 4, 8)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call)
        yield [a.replace(PREFIX, "") for a in call], out.getvalue(), err.getvalue(), code


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
        if gamma == 0:
            yield sorted(odejets.resonance_set(ode, n_max))
    for s in range(24):
        ode, _ = planted_system(random.Random(s), ODE_RESONANCES[s % 4], s % 3)
        yield odejets.formal_coefficients(ode, {}, 24)
        yield sorted(odejets.resonance_set(ode, 24))


def records():
    from crjets import mapjets
    from crjets.hypersurface import RealGraph, from_real_graph
    from perfbench.workloads import GAUSSIAN_DILATIONS, GRAPH_TERMS, dense_graph, dilated_image

    rng = random.Random(24)
    for order in (6, 8, 10):
        for lam in GAUSSIAN_DILATIONS:
            h = mapjets.dilation(lam, lam.norm2(), order)
            for _ in range(4):
                source = from_real_graph(RealGraph(dense_graph(rng, order, GRAPH_TERMS)))
                yield str(source.q), source.check_normal().violations
                yield str(source.check_reality().residual), repr(source.compute_invariants())
                target = dilated_image(source, lam, lam.norm2())
                yield str(target.q), str(mapjets.verify_mapping(source, target, h))
                for k in range(4):
                    try:
                        recon = mapjets.segre_jet_reconstruct(source, target, h.jet(k + 1), k)
                        yield k, str(recon.f_wk), str(recon.g_wk)
                    except mapjets.MapError as exc:
                        yield k, type(exc).__name__, str(exc)


def chains():
    from crjets import odejets
    from test_odejets import random_nonlinear_system

    rng = random.Random(26)
    for _ in range(400):
        ode = random_nonlinear_system(rng, 2, rng.choice([1, 2]), 12)
        try:
            yield odejets.kernel_chain_diagnostic(ode, odejets.zero_solution(ode, 12).coefficients)
        except odejets.OdeError as exc:
            yield type(exc).__name__, str(exc)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(HERE))
    args = parser.parse_args(argv)
    sys.path[:0] = [str(pathlib.Path(args.root).resolve() / "src"), str(HERE), str(HERE / "tests")]
    for family in (calls, outcomes, records, chains):
        digest, count = hashlib.sha256(), 0
        for record in family():
            # a corpus report names its inputs relative to this checkout
            digest.update(repr(record).replace(PREFIX, "").encode())
            count += 1
        print(f"{count} {family.__name__} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
