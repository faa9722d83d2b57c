"""Command-line front end.

Subcommands: analyze, verify, segre, determine, dynamics, ode.  Reports are
plain key/value text with a stable field order, so identical inputs produce
byte-identical output.  Exit codes: 0 all verdicts pass, 1 mathematical
failure (with witness), 2 input error, 3 verdict indeterminate at the
stored truncation order.
"""

from __future__ import annotations

import argparse
import os
import sys

# The interpreter's builtin SHA-256, as the random module takes its SHA-512:
# hashlib would load OpenSSL, about 3.5 MB of resident memory per process.
try:
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

from . import odejets
from .dsl import Document, ParseError, parse_document
from .hypersurface import InfiniteUpTo, NormalFormSurface, SurfaceError, UnknownAbove
from .mapjets import (
    MapError,
    MapGerm,
    PreconditionError,
    determination_experiment,
    dynamics_check,
    invariance_check,
    invariant_mismatches,
    segre_jet_reconstruct,
    segre_restriction_direct,
    verify_mapping,  # noqa: F401  re-exported; perfbench's tracer patches it here
)
from .rational import format_fraction
from .series import SeriesError, TruncatedSeries, format_series

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3


class InputError(Exception):
    pass


class Report:
    """Ordered key/value lines; deterministic text rendering."""

    def __init__(self, command: str):
        self.lines: list[tuple[str, str]] = [("command", command)]

    def add(self, key: str, value):
        self.lines.append((key, str(value)))

    def add_input(self, path: str, text: str, warnings):
        name = os.path.basename(path)
        self.add("input", f"{name} sha256={sha256(text.encode()).hexdigest()}")
        for message in warnings:
            self.add("warning", f"{name}: {message}")

    def render(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.lines)


def _emit(report: Report, out_path: str | None):
    text = report.render()
    sys.stdout.write(text)
    if out_path:
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)


def _load(path: str, expect_kind: str, order_flag: int | None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    doc = parse_document(text)
    if doc.kind != expect_kind:
        raise InputError(f"{path}: expected a {expect_kind} document, got {doc.kind}")
    if order_flag is not None:
        if order_flag > doc.body["order"]:
            raise InputError(
                f"{path}: cannot raise order to {order_flag} beyond declared "
                f"{doc.body['order']}"
            )
        _truncate_document(doc, order_flag)
    return doc, text


def _truncate_document(doc: Document, order: int):
    doc.body["order"] = order
    for key, value in list(doc.body.items()):
        if hasattr(value, "truncate"):
            doc.body[key] = value.truncate(order)
        elif isinstance(value, list) and value and hasattr(value[0], "truncate"):
            doc.body[key] = [v.truncate(order) for v in value]


def _surface(doc: Document) -> NormalFormSurface:
    if "Q" in doc.body:
        return NormalFormSurface(doc.body["Q"].with_variables(("z", "x", "t")))
    from .hypersurface import RealGraph, from_real_graph

    graph = RealGraph(doc.body["phi"].with_variables(("z", "x", "s")))
    return from_real_graph(graph)


def _map(doc: Document) -> MapGerm:
    return MapGerm(
        doc.body["F"].with_variables(("z", "w")),
        doc.body["G"].with_variables(("z", "w")),
    )


def _ode(doc: Document) -> odejets.SingularODE:
    return odejets.SingularODE(
        doc.body["gamma"], doc.body["p"], doc.body["q"], doc.body.get("theta", ())
    )


def _fmt_invariant(value) -> str:
    if isinstance(value, InfiniteUpTo):
        return f"infinite (no witness through order {value.order})"
    if isinstance(value, UnknownAbove):
        return f"unknown above order {value.order}"
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _lowest_witness(series) -> str:
    mi = min(series.coefficients, key=lambda m: (sum(m), m))
    single = TruncatedSeries(
        series.variables, series.order, {mi: series.coefficients[mi]}, series.tolerance
    )
    return format_series(single)


# ----------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    doc, text = _load(args.surface, "surface", args.order)
    report = Report("analyze")
    report.add_input(args.surface, text, doc.warnings)
    surface = _surface(doc)
    report.add("order", surface.order)
    normal = surface.check_normal()
    reality = surface.check_reality()
    report.add("normal_check", "pass" if normal.passed else "fail")
    report.add("reality_check", "pass" if reality.passed else "fail")
    if not normal.passed:
        name, mi, _ = normal.violations[0]
        report.add("normal_witness", f"axis {name}, monomial exponents {mi}")
    if not reality.passed:
        report.add("reality_witness", _lowest_witness(reality.residual))
    if not (normal.passed and reality.passed):
        report.add("verdict", "fail")
        _emit(report, args.out)
        return EXIT_FAIL
    inv = surface.compute_invariants()
    report.add("m0", _fmt_invariant(inv.m0))
    report.add("alpha0", _fmt_invariant(inv.alpha0))
    report.add("mu0", _fmt_invariant(inv.mu0))
    report.add("ell", _fmt_invariant(inv.ell))
    report.add("beta0", _fmt_invariant(inv.beta0))
    report.add("finite_type", "true" if inv.finite_type else "false")
    report.add("levi_flat", _fmt_invariant(inv.levi_flat))
    report.add("certified_order", inv.certified_order)
    if inv.ell_below_alpha0:
        report.add("warning", "ell is smaller than alpha0")
    indeterminate = isinstance(inv.m0, InfiniteUpTo)
    report.add("verdict", "indeterminate" if indeterminate else "pass")
    _emit(report, args.out)
    return EXIT_INDETERMINATE if indeterminate else EXIT_PASS


def cmd_verify(args) -> int:
    doc1, text1 = _load(args.surface, "surface", args.order)
    doc2, text2 = _load(args.surface2, "surface", args.order)
    docm, textm = _load(args.map, "map", args.order)
    report = Report("verify")
    report.add_input(args.surface, text1, doc1.warnings)
    report.add_input(args.surface2, text2, doc2.warnings)
    report.add_input(args.map, textm, docm.warnings)
    source, target, germ = _surface(doc1), _surface(doc2), _map(docm)
    inv_report = invariance_check(source, target, germ)
    residual = inv_report.residual
    report.add("certified_order", residual.order)
    if residual.is_zero:
        report.add("residual", "0")
        report.add("invariants_match", "true" if inv_report.invariants_match else "false")
        for name, a, b in inv_report.mismatches:
            report.add("mismatch", f"{name}: {_fmt_invariant(a)} != {_fmt_invariant(b)}")
        if inv_report.beta_identity_holds is not None:
            report.add(
                "beta_identity",
                "holds" if inv_report.beta_identity_holds else "fails",
            )
        passed = inv_report.passed
        report.add("verdict", "pass" if passed else "fail")
        _emit(report, args.out)
        return EXIT_PASS if passed else EXIT_FAIL
    report.add("residual_lowest_term", _lowest_witness(residual))
    return _fail_with_obstructions(report, inv_report.mismatches, args.out)


def _fail_with_obstructions(report: Report, mismatches, out_path) -> int:
    for name, a, b in mismatches:
        report.add(
            "invariant_obstruction",
            f"{name}: {_fmt_invariant(a)} != {_fmt_invariant(b)}",
        )
    report.add("verdict", "fail")
    _emit(report, out_path)
    return EXIT_FAIL


def cmd_segre(args) -> int:
    doc1, text1 = _load(args.surface, "surface", args.order)
    doc2, text2 = _load(args.surface2, "surface", args.order)
    docm, textm = _load(args.map, "map", args.order)
    report = Report("segre")
    report.add_input(args.surface, text1, doc1.warnings)
    report.add_input(args.surface2, text2, doc2.warnings)
    report.add_input(args.map, textm, docm.warnings)
    report.add("k", args.k)
    source, target, germ = _surface(doc1), _surface(doc2), _map(docm)
    if args.k < 0:
        raise InputError(f"segre: K must be nonnegative, got {args.k}")
    if args.k + 1 > germ.order:
        raise InputError(
            f"{args.map}: segre K={args.k} needs the {args.k + 1}-jet, beyond the "
            f"map's stored order {germ.order}"
        )
    mismatches = invariant_mismatches(source, target)
    if mismatches:
        return _fail_with_obstructions(report, mismatches, args.out)
    jet = germ.jet(args.k + 1)
    recon = segre_jet_reconstruct(source, target, jet, args.k)
    report.add("backend", "exact")
    report.add("reconstructed_F", format_series(recon.f_wk))
    report.add("reconstructed_G", format_series(recon.g_wk))
    report.add("certified_order", min(recon.f_wk.order, recon.g_wk.order))
    if args.jet_only:
        report.add("verdict", "pass")
        _emit(report, args.out)
        return EXIT_PASS
    direct = segre_restriction_direct(germ, args.k)
    report.add("direct_F", format_series(direct.f_wk))
    report.add("direct_G", format_series(direct.g_wk))
    match = recon.agrees_with(direct)
    report.add("comparison", "exact")
    report.add("verdict", "pass" if match else "fail")
    _emit(report, args.out)
    return EXIT_PASS if match else EXIT_FAIL


def cmd_determine(args) -> int:
    doc1, text1 = _load(args.surface, "surface", args.order)
    docm, textm = _load(args.map, "map", args.order)
    docm2, textm2 = _load(args.map2, "map", args.order)
    report = Report("determine")
    report.add_input(args.surface, text1, doc1.warnings)
    report.add_input(args.map, textm, docm.warnings)
    report.add_input(args.map2, textm2, docm2.warnings)
    report.add("k", args.k)
    surface = _surface(doc1)
    verdict = determination_experiment(surface, _map(docm), _map(docm2), args.k)
    report.add("jets_agree", "true" if verdict.jets_agree else "false")
    if verdict.vacuous:
        report.add("verdict", "pass (vacuous)")
        _emit(report, args.out)
        return EXIT_PASS
    report.add("maps_agree", "true" if verdict.maps_agree else "false")
    if verdict.first_difference is not None:
        name, mi, c = verdict.first_difference
        report.add("first_difference", f"{name} at exponents {mi}")
    report.add("verdict", "pass" if verdict.passed else "fail")
    _emit(report, args.out)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_dynamics(args) -> int:
    doc1, text1 = _load(args.surface, "surface", args.order)
    docm, textm = _load(args.map, "map", args.order)
    report = Report("dynamics")
    report.add_input(args.surface, text1, doc1.warnings)
    report.add_input(args.map, textm, docm.warnings)
    verdict = dynamics_check(_surface(doc1), _map(docm))
    report.add(
        "reconstructed_fixes_axis",
        "true" if verdict.reconstructed_fixes_axis else "false",
    )
    report.add("stored_fixes_axis", "true" if verdict.stored_fixes_axis else "false")
    report.add("verdict", "pass" if verdict.passed else "fail")
    _emit(report, args.out)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_ode(args) -> int:
    doc, text = _load(args.ode, "ode", args.order)
    report = Report("ode")
    report.add_input(args.ode, text, doc.warnings)
    report.add("mode", args.mode)
    ode = _ode(doc)
    n_target = args.order if args.order is not None else min(ode.order, 24)
    report.add("gamma", ode.gamma)
    report.add("n_target", n_target)
    if ode.theta:
        report.add("theta", " ".join(format_fraction(t) for t in ode.theta))
    if args.mode == "solve":
        run = odejets.formal_coefficients(ode, {}, n_target)
        for entry in run.obstruction_ledger:
            report.add(
                f"order_{entry.order}",
                f"rank={entry.rank} kernel={entry.kernel_dim} {entry.status}",
            )
        report.add("free_orders", ",".join(map(str, run.free_orders)) or "none")
        for s in sorted(run.coefficients):
            vec = run.coefficients[s]
            report.add(
                f"a_{s}", " ".join(str(c) for c in vec)
            )
        verdict = "pass" if run.fully_determined else "indeterminate"
        report.add("verdict", verdict)
        _emit(report, args.out)
        return EXIT_PASS if run.fully_determined else EXIT_INDETERMINATE
    if args.mode == "determine":
        base = odejets.zero_solution(ode, n_target)
        k = odejets.determination_order(ode, base, n_target)
        if isinstance(k, odejets.Undetermined):
            report.add("determination_order", f"undetermined at order {k.order}")
            report.add("verdict", "indeterminate")
            _emit(report, args.out)
            return EXIT_INDETERMINATE
        report.add("determination_order", k)
        report.add("verdict", "pass")
        _emit(report, args.out)
        return EXIT_PASS
    # chain
    base = {0: tuple([0] * ode.n)}
    chain = odejets.kernel_chain_diagnostic(ode, base, r_max=args.r_max)
    report.add("ker_q0_dim", chain.ker_q0_dim)
    report.add("termination_bound", chain.bound)
    for row in chain.rows:
        step = row.terminated_at if row.terminated_at is not None else "open"
        dims = ",".join(map(str, row.dims))
        report.add(f"r_{row.r}", f"dims=[{dims}] terminated_at={step}")
    report.add("verdict", "pass" if chain.terminated else "indeterminate")
    _emit(report, args.out)
    return EXIT_PASS if chain.terminated else EXIT_INDETERMINATE


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--order", type=int, default=None, help="truncate inputs to this order"
    )
    common.add_argument("--out", default=None, help="also write the report to this path")

    parser = argparse.ArgumentParser(
        prog="crjets",
        description="Exact jet calculus for hypersurface germs in C^2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="normal-form checks and invariants")
    p.add_argument("surface")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", parents=[common], help="mapping identity residual")
    p.add_argument("surface")
    p.add_argument("surface2")
    p.add_argument("map")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("segre", parents=[common], help="jet reconstruction along {w = 0}")
    p.add_argument("surface")
    p.add_argument("surface2")
    p.add_argument("map")
    p.add_argument("k", type=int)
    p.add_argument(
        "--jet-only",
        action="store_true",
        help="use only the (k+1)-jet of the map; skip the direct comparison",
    )
    p.set_defaults(func=cmd_segre)

    p = sub.add_parser("determine", parents=[common], help="same k-jet forces the same germ")
    p.add_argument("surface")
    p.add_argument("map")
    p.add_argument("map2")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_determine)

    p = sub.add_parser(
        "dynamics", parents=[common], help="tangent-to-identity maps fix {w = 0}"
    )
    p.add_argument("surface")
    p.add_argument("map")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("ode", parents=[common], help="formal solutions of x^(g+1) y' = p/q")
    p.add_argument("ode")
    p.add_argument("mode", choices=("solve", "determine", "chain"))
    p.add_argument("--r-max", type=int, default=6)
    p.set_defaults(func=cmd_ode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SurfaceError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MapError, SeriesError, odejets.OdeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
