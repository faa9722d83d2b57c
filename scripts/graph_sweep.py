#!/usr/bin/env python3
"""Run the graph-form path over seeded dense graphs and print one digest.

The corpus holds no ``phi:`` surface, so neither ``corpus_sweep.py`` nor
``ode_sweep.py`` reaches ``from_real_graph``.  The grid: at orders 6, 8 and
10, four graphs per Gaussian dilation ``lam`` of the benchmark's ``graph``
kind, drawn from ``random.Random(24)`` by its generator (``z*x`` plus about
30 monomials z^a x^b s^m with a, b >= 1, made real).  For each it records
the surface ``from_real_graph`` builds, its normal-form and reality
reports, its invariants, its image under (z, w) -> (lam z, |lam|^2 w), the
residual of ``verify_mapping`` for that dilation, and
``segre_jet_reconstruct`` for k = 0..3, each as its value or as the error it
raises.  Every record goes into one sha256, so two checkouts whose engines
agree print the same line:

    python scripts/graph_sweep.py                 # this checkout
    python scripts/graph_sweep.py --root OTHER    # another checkout's src/

CI compares the line with ``scripts/sweep_digests.txt``, as it does for
``scripts/corpus_sweep.py``.
"""

import argparse
import hashlib
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(HERE))
    args = parser.parse_args(argv)
    # the grid's generator comes from this checkout, the engine from --root
    sys.path[:0] = [str(pathlib.Path(args.root).resolve() / "src"), str(HERE)]
    digest, count = hashlib.sha256(), 0
    for record in records():
        digest.update(repr(record).encode())
        count += 1
    print(f"{count} records sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
