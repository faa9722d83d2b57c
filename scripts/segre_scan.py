#!/usr/bin/env python3
"""Scan the corpus: reconstruct H_{w^k}(z, 0) from origin jets and compare
against the stored maps for every k up to a bound."""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from crjets.hypersurface import heisenberg, infinite_type_model, quartic_model
from crjets.mapjets import (
    dilation,
    segre_jet_reconstruct,
    segre_restriction_direct,
    verify_mapping,
    w_mobius,
)
from crjets.rational import ComplexRational as CR


def cases(order):
    heis = heisenberg(order)
    for a in (Fraction(1), Fraction(1, 2), Fraction(-2)):
        yield "quadric", heis, w_mobius(a, order)
    yield "quadric", heis, dilation(Fraction(2), Fraction(4), order)
    quartic = quartic_model(order)
    for lam in (Fraction(2), Fraction(1, 2)):
        yield "quartic", quartic, dilation(lam, lam**4, order)
    horn = infinite_type_model(order)
    yield "infinite-type", horn, dilation(CR(0, 1), Fraction(1), order)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12)
    parser.add_argument("--k-max", type=int, default=4)
    args = parser.parse_args(argv)

    failures = 0
    for label, surface, germ in cases(args.order):
        assert verify_mapping(surface, surface, germ).is_zero
        for k in range(args.k_max + 1):
            recon = segre_jet_reconstruct(surface, surface, germ.jet(k + 1), k)
            ok = recon.agrees_with(segre_restriction_direct(germ, k))
            failures += 0 if ok else 1
            print(f"{label:14s} k={k}  {'ok' if ok else 'MISMATCH'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
