"""Command-line front end.

Subcommands: analyze, verify, segre, determine, dynamics, ode.  Reports are
plain key/value text with a stable field order, so identical inputs produce
byte-identical output.  Every report ends in one ``verdict:`` line, and
the exit code is read off it: 0 pass, 1 mathematical failure (with
witness), 3 indeterminate at the stored truncation order.  An input error,
such as an input that is not UTF-8 or an unwritable ``--out``, exits 2 with
a located message and no report.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import cache

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
from .hypersurface import (
    InfiniteUpTo,
    NormalFormSurface,
    RealGraph,
    SurfaceError,
    UnknownAbove,
    from_real_graph,
)
# verify_mapping stays bound here: perfbench's tracer test wraps it under this name
from .mapjets import (
    DivisibilityObstruction,
    InconsistentJet,
    LeviFlatInput,
    MapError,
    MapGerm,
    PreconditionError,
    PremiseFailure,
    TruncationLimit,
    determination_experiment,
    dynamics_check,
    invariance_check,
    invariant_mismatches,
    require_premise,
    segre_jet_reconstruct,
    segre_restriction_direct,
    verify_mapping,
)
from .rational import format_fraction, format_scalar
from .series import TruncatedSeries, format_series

EXIT_INPUT = 2
# the one place a verdict becomes an exit code
EXIT_CODES = {"pass": 0, "pass (vacuous)": 0, "fail": 1, "indeterminate": 3}
# the one place an engine outcome becomes report lines and a verdict:
# exception class -> (its lines, its verdict)
OUTCOMES = {
    # MAP does not send SURFACE into SURFACE2; the residual is the witness
    PremiseFailure: (
        lambda exc: [
            *([("failing_map", "map" if exc.germ == 1 else "map2")] if exc.germ else []),
            ("certified_order", exc.residual.order),
            ("residual_lowest_term", _lowest_witness(exc.residual)),
        ],
        "fail",
    ),
    # the premise holds, but reconstruction needs data beyond the truncation
    TruncationLimit: (lambda exc: [("certified_order", exc.work)], "indeterminate"),
    # no derivative data through the truncation
    LeviFlatInput: (
        lambda exc: [
            ("m0", _fmt_invariant(InfiniteUpTo(exc.order))),
            ("certified_order", exc.order),
        ],
        "indeterminate",
    ),
    # the premise holds, yet the jet contradicts the reconstruction
    InconsistentJet: (lambda exc: [("obstruction", exc)], "fail"),
    DivisibilityObstruction: (lambda exc: [("obstruction", exc)], "fail"),
    # no formal solution: the witness is the first contradicting order
    odejets.InconsistentSeed: (lambda exc: [("inconsistent_order", exc.order)], "fail"),
    odejets.IndeterminateAtTruncation: (
        lambda exc: [
            ("determination_order", f"indeterminate (at most {exc.at_most})"),
            ("unknown_orders", ",".join(map(str, exc.unknown_orders))),
        ],
        "indeterminate",
    ),
}


class InputError(Exception):
    pass


class Report:
    """Ordered key/value lines; deterministic text rendering."""

    def __init__(self, command: str):
        self.lines: list[tuple[str, str]] = [("command", command)]
        # (text, kind, order) -> (warnings, built input): a document named
        # twice in one call is parsed, built and validated once
        self.inputs: dict = {}

    def add(self, key: str, value):
        self.lines.append((key, str(value)))

    def add_input(self, path: str, text: str, warnings):
        name = os.path.basename(path)
        self.add("input", f"{name} sha256={sha256(text.encode()).hexdigest()}")
        for message in warnings:
            self.add("warning", f"{name}: {message}")

    def render(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.lines)


def _emit(report: Report, verdict: str, out_path: str | None) -> int:
    """Close the report with its verdict, write it, to ``out_path`` first,
    and return the verdict's exit code."""
    report.add("verdict", verdict)
    text = report.render()
    if out_path:
        tmp, opened = out_path + ".tmp", False
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                opened = True
                fh.write(text)
            os.replace(tmp, out_path)
        except OSError as exc:
            if opened:  # remove only a file this call wrote
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise InputError(f"cannot write {out_path}: {exc}") from None
    sys.stdout.write(text)
    return EXIT_CODES[verdict]


def _load(report: Report, path: str, kind: str, order: int | None):
    """Read one input, add its ``input:`` and ``warning:`` lines to the
    report, and return the surface, map or ODE it describes.  The document
    is parsed, truncated and built on its first reading in this report; a
    later argument with the same text, kind and order gets the same object."""
    if order is not None and order < 0:
        raise InputError(f"--order must be nonnegative, got {order}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    key = (text, kind, order)
    if key not in report.inputs:
        report.inputs[key] = _build(path, text, kind, order)
    warnings, built = report.inputs[key]
    report.add_input(path, text, warnings)
    return built


def _build(path: str, text: str, kind: str, order: int | None):
    """Parse, truncate and build one document: ``(warnings, built input)``."""
    try:
        doc = parse_document(text)
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from None
    if doc.kind != kind:
        raise InputError(f"{path}: expected a {kind} document, got {doc.kind}")
    if order is not None:
        if order > doc.body["order"]:
            raise InputError(
                f"{path}: cannot raise order to {order} beyond declared {doc.body['order']}"
            )
        _truncate_document(doc, order)
    return doc.warnings, {"surface": _surface, "map": _map, "ode": _ode}[kind](doc, path)


def _truncate_document(doc: Document, order: int):
    doc.body["order"] = order
    for key, value in list(doc.body.items()):
        if hasattr(value, "truncate"):
            doc.body[key] = value.truncate(order)
        elif isinstance(value, list) and value and hasattr(value[0], "truncate"):
            doc.body[key] = [v.truncate(order) for v in value]


def _require_vanishing(path: str, key: str, series):
    c = series.constant_term()
    if not c.is_zero:
        raise InputError(
            f"{path}: {key} must vanish at the origin, has constant term {format_scalar(c)}"
        )


def _surface(doc: Document, path: str) -> NormalFormSurface:
    if "Q" in doc.body:
        _require_vanishing(path, "Q", doc.body["Q"])
        return NormalFormSurface(doc.body["Q"].with_variables(("z", "x", "t")))
    graph = RealGraph(doc.body["phi"].with_variables(("z", "x", "s")))
    return from_real_graph(graph)


def _map(doc: Document, path: str) -> MapGerm:
    for key in ("F", "G"):
        _require_vanishing(path, key, doc.body[key])
    return MapGerm(
        doc.body["F"].with_variables(("z", "w")),
        doc.body["G"].with_variables(("z", "w")),
    )


def _ode(doc: Document, path: str) -> odejets.SingularODE:
    try:
        return odejets.SingularODE(
            doc.body["gamma"], doc.body["p"], doc.body["q"], doc.body.get("theta", ())
        )
    except odejets.OdeError as exc:  # malformed data, such as q(0, 0) = 0
        raise InputError(f"{path}: {exc}") from None


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
    single = TruncatedSeries(series.variables, series.order, {mi: series.coefficients[mi]})
    return format_series(single)


# ----------------------------------------------------------------------
# subcommands


def cmd_analyze(args, report: Report) -> str:
    surface = _load(report, args.surface, "surface", args.order)
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
        return "fail"
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
    return "indeterminate" if isinstance(inv.m0, InfiniteUpTo) else "pass"


def cmd_verify(args, report: Report) -> str:
    source = _load(report, args.surface, "surface", args.order)
    target = _load(report, args.surface2, "surface", args.order)
    germ = _load(report, args.map, "map", args.order)
    inv_report = invariance_check(source, target, germ)
    residual = inv_report.residual
    report.add("certified_order", residual.order)
    if not residual.is_zero:
        report.add("residual_lowest_term", _lowest_witness(residual))
        return _fail_with_obstructions(report, inv_report.mismatches)
    report.add("residual", "0")
    report.add("invariants_match", "true" if inv_report.invariants_match else "false")
    for name, a, b in inv_report.mismatches:
        report.add("mismatch", f"{name}: {_fmt_invariant(a)} != {_fmt_invariant(b)}")
    if inv_report.beta_identity_holds is not None:
        report.add("beta_identity", "holds" if inv_report.beta_identity_holds else "fails")
    return "pass" if inv_report.passed else "fail"


def _fail_with_obstructions(report: Report, mismatches) -> str:
    for name, a, b in mismatches:
        report.add(
            "invariant_obstruction",
            f"{name}: {_fmt_invariant(a)} != {_fmt_invariant(b)}",
        )
    return "fail"


def cmd_segre(args, report: Report) -> str:
    source = _load(report, args.surface, "surface", args.order)
    target = _load(report, args.surface2, "surface", args.order)
    germ = _load(report, args.map, "map", args.order)
    report.add("k", args.k)
    if args.k < 0:
        raise InputError(f"segre: K must be nonnegative, got {args.k}")
    if args.k + 1 > germ.order:
        raise InputError(
            f"{args.map}: segre K={args.k} needs the {args.k + 1}-jet, beyond the "
            f"map's stored order {germ.order}"
        )
    mismatches = invariant_mismatches(source, target)
    if mismatches:
        return _fail_with_obstructions(report, mismatches)
    jet = germ.jet(args.k + 1)
    try:
        recon = segre_jet_reconstruct(source, target, jet, args.k)
    except MapError:  # a stopped reconstruction: first the premise it assumed
        require_premise(source, target, germ)
        raise
    report.add("backend", "exact")
    report.add("reconstructed_F", format_series(recon.f_wk))
    report.add("reconstructed_G", format_series(recon.g_wk))
    report.add("certified_order", min(recon.f_wk.order, recon.g_wk.order))
    if args.jet_only:
        return "pass"
    direct = segre_restriction_direct(germ, args.k)
    report.add("direct_F", format_series(direct.f_wk))
    report.add("direct_G", format_series(direct.g_wk))
    report.add("comparison", "exact")
    return "pass" if recon.agrees_with(direct) else "fail"


def cmd_determine(args, report: Report) -> str:
    surface = _load(report, args.surface, "surface", args.order)
    germs = tuple(_load(report, path, "map", args.order) for path in (args.map, args.map2))
    report.add("k", args.k)
    if args.k < 1:
        raise InputError(f"determine: K must be at least 1, got {args.k}")
    for path, germ in zip((args.map, args.map2), germs):
        if args.k > germ.order:
            raise InputError(
                f"{path}: determine K={args.k} needs the {args.k}-jet, beyond the "
                f"map's stored order {germ.order}"
            )
    verdict = determination_experiment(surface, *germs, args.k)
    report.add("jets_agree", "true" if verdict.jets_agree else "false")
    if verdict.vacuous:
        return "pass (vacuous)"
    report.add("maps_agree", "true" if verdict.maps_agree else "false")
    if verdict.first_difference is not None:
        name, mi, c = verdict.first_difference
        report.add("first_difference", f"{name} at exponents {mi}")
    return "pass" if verdict.passed else "fail"


def cmd_dynamics(args, report: Report) -> str:
    surface = _load(report, args.surface, "surface", args.order)
    germ = _load(report, args.map, "map", args.order)
    if germ.order < 1:
        raise InputError(
            f"{args.map}: dynamics needs the 1-jet, beyond the map's stored order {germ.order}"
        )
    verdict = dynamics_check(surface, germ)
    report.add(
        "reconstructed_fixes_axis",
        "true" if verdict.reconstructed_fixes_axis else "false",
    )
    report.add("stored_fixes_axis", "true" if verdict.stored_fixes_axis else "false")
    return "pass" if verdict.passed else "fail"


def cmd_ode(args, report: Report) -> str:
    ode = _load(report, args.ode, "ode", args.order)
    report.add("mode", args.mode)
    n_target = args.order if args.order is not None else min(ode.order, 24)
    report.add("gamma", ode.gamma)
    report.add("n_target", n_target)
    if ode.theta:
        report.add("theta", " ".join(format_fraction(t) for t in ode.theta))
    if args.mode == "solve":
        run = odejets.formal_coefficients(ode, {}, n_target)
        for entry in run.obstruction_ledger:
            # no rank or kernel for a row whose equation lies beyond the data
            measured = "" if entry.rank is None else f"rank={entry.rank} kernel={entry.kernel_dim} "
            report.add(f"order_{entry.order}", measured + entry.status)
        report.add("free_orders", ",".join(map(str, run.free_orders)) or "none")
        if run.unknown_orders:
            report.add("unknown_orders", ",".join(map(str, run.unknown_orders)))
        if run.opaque_orders:  # left out, so the orders they would pin may show as free
            report.add("opaque_orders", ",".join(map(str, run.opaque_orders)))
        for s in sorted(run.coefficients):
            report.add(f"a_{s}", " ".join(str(c) for c in run.coefficients[s]))
        return "pass" if run.fully_determined else "indeterminate"
    if args.mode == "determine":
        try:
            base = odejets.zero_solution(ode, n_target)
        except odejets.OdeError as exc:  # p(x, 0) != 0: the base is not a solution
            raise InputError(f"{args.ode}: {exc}") from None
        report.add("determination_order", odejets.determination_order(ode, base, n_target))
        return "pass"
    # chain
    if args.r_max < 1:
        raise InputError(f"--r-max must be at least 1, got {args.r_max}")
    if ode.gamma < 1:
        raise InputError(
            f"{args.ode}: kernel chain analysis applies to gamma >= 1, got gamma {ode.gamma}"
        )
    base = {0: tuple([0] * ode.n)}
    chain = odejets.kernel_chain_diagnostic(ode, base, r_max=args.r_max)
    report.add("ker_q0_dim", chain.ker_q0_dim)
    report.add("termination_bound", chain.bound)
    for row in chain.rows:
        step = row.terminated_at if row.terminated_at is not None else "open"
        dims = ",".join(map(str, row.dims))
        report.add(f"r_{row.r}", f"dims=[{dims}] terminated_at={step}")
    return "pass" if chain.terminated else "indeterminate"


# ----------------------------------------------------------------------

def _integer(text: str) -> int:
    """An integer argument by the rule for documents, ``-?[0-9]+``: ``int``
    alone would also read ``٣`` as 3, and ``+3`` and ``1_0``."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r} (ASCII digits 0-9 only)")
    return int(text)


@cache  # one parser per process, built by the first main call; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--order", type=_integer, default=None, help="truncate inputs to this order"
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
    p.add_argument("k", type=_integer)
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
    p.add_argument("k", type=_integer)
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
    p.add_argument("--r-max", type=_integer, default=6)
    p.set_defaults(func=cmd_ode)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = Report(args.command)
    try:
        try:
            verdict = args.func(args, report)
        except tuple(OUTCOMES) as exc:
            lines, verdict = OUTCOMES[type(exc)]
            for key, value in lines(exc):
                report.add(key, value)
        return _emit(report, verdict, args.out)
    except (InputError, SurfaceError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
