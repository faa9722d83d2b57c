"""Inputs, operations and oracles of the three benchmark workloads.

Each workload is built from a seed alone: the seed drives the input
generators and the order in which operations run.  An operation is one call
into the public API of ``crjets``; its oracle checks the result and is not
part of the timed call.  Oracles are written here, independently of the
library's own comparison helpers: exact equality on the exact backend and at
most ``FLOAT_TOL`` per coefficient where a root forces the float backend.

Workloads keep the mix of operation kinds fixed and let the seed choose the
parameters and the order inside each block, so that runs with different seeds
do the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from crjets import cli
from crjets.hypersurface import (
    GRAPH_VARS,
    SURFACE_VARS,
    NormalFormSurface,
    RealGraph,
    from_real_graph,
    heisenberg,
    infinite_type_model,
    quartic_model,
)
from crjets.linalg import invert, mat_mul
from crjets.mapjets import (
    MAP_VARS,
    MapGerm,
    determination_experiment,
    dilation,
    segre_jet_reconstruct,
    segre_restriction_direct,
    verify_mapping,
    w_mobius,
)
from crjets.odejets import SingularODE, determination_order, resonance_set, zero_solution
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS

FLOAT_TOL = 1e-9

OK = "ok"
KNOWN_DEFECT = "known_defect"


class OracleFailure(Exception):
    """An operation's result disagrees with its oracle."""


@dataclass
class Operation:
    """One timed call and the oracle for its result.

    ``check`` returns OK, or KNOWN_DEFECT when the result reproduces a
    documented defect exactly; any other disagreement raises OracleFailure.
    """

    name: str
    spec: str  # describes the generated inputs; tests compare it across seeds
    run: Callable[[], object]
    check: Callable[[object], str]


# ----------------------------------------------------------------------
# series oracles, independent of crjets.series helpers


def _as_complex(c) -> complex:
    return c.to_complex() if isinstance(c, CR) else complex(c)


def series_agree(got: TS, want: TS, what: str):
    """Coefficientwise agreement through the common certified order."""
    if got.variables != want.variables:
        raise OracleFailure(f"{what}: variables {got.variables} != {want.variables}")
    order = min(got.order, want.order)
    a = {mi: c for mi, c in got.coefficients.items() if sum(mi) <= order}
    b = {mi: c for mi, c in want.coefficients.items() if sum(mi) <= order}
    if got.tolerance is None and want.tolerance is None:
        if a != b:
            diff = sorted(set(a.items()) ^ set(b.items()), key=lambda kv: kv[0])[0][0]
            raise OracleFailure(f"{what}: exact mismatch at exponents {diff}")
        return
    for mi in set(a) | set(b):
        gap = abs(_as_complex(a.get(mi, 0)) - _as_complex(b.get(mi, 0)))
        if not gap <= FLOAT_TOL:
            raise OracleFailure(f"{what}: coefficient {mi} off by {gap!r}")


def _low_jet(h: MapGerm, k: int):
    return tuple(
        {mi: c for mi, c in comp.coefficients.items() if 1 <= sum(mi) <= k}
        for comp in (h.f, h.g)
    )


def check_determination(verdict, h1: MapGerm, h2: MapGerm, k: int):
    jets_agree = _low_jet(h1, k) == _low_jet(h2, k)
    if verdict.jets_agree != jets_agree:
        raise OracleFailure(f"jets_agree {verdict.jets_agree}, expected {jets_agree}")
    if jets_agree:
        same = h1.f == h2.f and h1.g == h2.g
        if verdict.maps_agree is not same or not same:
            raise OracleFailure(f"maps_agree {verdict.maps_agree} for equal {k}-jets")
    if not verdict.passed:
        raise OracleFailure("determination verdict failed")


def check_segre(pairs, what: str):
    for k, recon, direct in pairs:
        series_agree(recon.f_wk, direct.f_wk, f"{what} F_w^{k}")
        series_agree(recon.g_wk, direct.g_wk, f"{what} G_w^{k}")


def segre_chain(source, target, h: MapGerm, k_max: int):
    return [
        (k, segre_jet_reconstruct(source, target, h.jet(k + 1), k))
        for k in range(k_max + 1)
    ]


def with_direct(h: MapGerm, chain):
    return [(k, recon, segre_restriction_direct(h, k)) for k, recon in chain]


# ----------------------------------------------------------------------
# the quadric automorphism family (as in scripts/run_jet_sweep.py)

UNITS = [
    CR(1),
    CR(-1),
    CR(0, 1),
    CR(Fraction(3, 5), Fraction(4, 5)),
    CR(Fraction(5, 13), Fraction(-12, 13)),
]
LAMBDAS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3)]
SHEARS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(1, 3)]
ARRANGEMENTS = 4


def family_member(key, order: int, regroup: bool = False) -> MapGerm:
    """rotation, dilation and w-Moebius factor composed in one of four
    arrangements; ``regroup`` composes the same factors with the other
    bracketing, which yields the same germ by another route."""
    u, lam, a, arrangement = key
    rot = dilation(UNITS[u], Fraction(1), order)
    dil = dilation(LAMBDAS[lam], LAMBDAS[lam] ** 2, order)
    mob = w_mobius(SHEARS[a], order)
    p, q, r = {
        0: (rot, dil, mob),
        1: (dil, rot, mob),
        2: (mob, rot, dil),
        3: (rot, mob, dil),
    }[arrangement]
    if regroup:
        return p.compose(q.compose(r))
    return p.compose(q).compose(r)


class Deck:
    """Draws from a fixed multiset without replacement, reshuffling when it
    runs out: every run meets the same cost factors, the seed sets their
    order."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class KeyDeck:
    """Keys of sheared family members, each factor from its own deck."""

    def __init__(self, rng: random.Random):
        self.units = Deck(rng, range(len(UNITS)))
        self.lambdas = Deck(rng, range(len(LAMBDAS)))
        self.shears = Deck(rng, range(1, len(SHEARS)))
        self.arrangements = Deck(rng, range(ARRANGEMENTS))

    def draw(self):
        return (
            self.units.draw(),
            self.lambdas.draw(),
            self.shears.draw(),
            self.arrangements.draw(),
        )


# ----------------------------------------------------------------------
# corpus_cli


@dataclass(frozen=True)
class CliCall:
    """One in-process ``crjets.cli.main`` call and its documented result.

    ``defect`` names a known breach of the exit-code contract: the README
    promises ``exit_code`` (with a report when that is 1), but the call
    exits 1 with only a ``failure:`` line today.
    """

    argv: tuple
    exit_code: int
    verdict: str | None = None
    golden: str | None = None
    contains: str | None = None
    defect: str | None = None

    @property
    def name(self) -> str:
        return " ".join(pathlib.PurePath(a).name if "/" in a else a for a in self.argv)


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _verdict_line(report: str):
    lines = [ln for ln in report.splitlines() if ln.startswith("verdict: ")]
    return lines[-1][len("verdict: "):] if lines else None


def check_cli(call: CliCall, goldens: dict, result) -> str:
    code, out, err = result
    if call.defect and code == 1 and not out and err.startswith("failure:"):
        return KNOWN_DEFECT
    if code != call.exit_code:
        raise OracleFailure(f"exit {code}, expected {call.exit_code}: {err.strip()[:120]}")
    if "Traceback" in err:
        raise OracleFailure("traceback on stderr")
    if code == 2:
        if out or "error" not in err:
            raise OracleFailure("input error must print only a located message")
        return OK
    if call.golden is not None:
        if out != goldens[call.golden]:
            raise OracleFailure(f"report differs from golden {call.golden}")
        return OK
    if _verdict_line(out) != call.verdict:
        raise OracleFailure(f"verdict {_verdict_line(out)!r}, expected {call.verdict!r}")
    if call.contains is not None and call.contains not in out:
        raise OracleFailure(f"report lacks {call.contains!r}")
    return OK


def corpus_calls(corpus: str) -> list[CliCall]:
    """Valid commands over every corpus file, argument errors, and the
    known exit-code defects."""
    c = lambda name: f"{corpus}/{name}"  # noqa: E731
    heis, z4, inf = c("heisenberg.surf"), c("z4.surf"), c("infinite_type.surf")
    return [
        CliCall(("analyze", heis), 0, golden="analyze_heisenberg.txt"),
        CliCall(("analyze", z4), 0, golden="analyze_z4.txt"),
        CliCall(("analyze", inf), 0, golden="analyze_infinite_type.txt"),
        CliCall(("analyze", c("leviflat.surf")), 3, "indeterminate"),
        CliCall(("verify", heis, heis, c("h_mobius_1.map")), 0, "pass"),
        CliCall(("verify", heis, heis, c("h_mobius_neg2.map")), 0, "pass"),
        CliCall(("verify", heis, heis, c("dilation_heis.map")), 0, "pass"),
        CliCall(("verify", heis, heis, c("rotation_heis.map")), 0, "pass"),
        CliCall(("verify", z4, z4, c("dilation_z4.map")), 0, "pass", contains="beta_identity: holds"),
        CliCall(("verify", inf, inf, c("rotation_heis.map")), 0, "pass"),
        CliCall(
            ("verify", heis, z4, c("identity.map")), 1, "fail",
            contains="invariant_obstruction: m0: 1 != 2",
        ),
        CliCall(
            ("segre", heis, heis, c("h_mobius_half.map"), "2"), 0,
            golden="segre_mobius_half_k2.txt",
        ),
        CliCall(("segre", heis, heis, c("h_mobius_1.map"), "0", "--jet-only"), 0, "pass"),
        CliCall(("segre", z4, z4, c("dilation_z4.map"), "1"), 0, "pass"),
        CliCall(("segre", inf, inf, c("rotation_heis.map"), "1"), 0, "pass"),
        CliCall(
            ("determine", heis, c("h_mobius_1.map"), c("h_mobius_1.map"), "2"), 0, "pass",
            contains="maps_agree: true",
        ),
        CliCall(
            ("determine", heis, c("h_mobius_1.map"), c("h_mobius_half.map"), "2"), 0,
            "pass (vacuous)",
        ),
        CliCall(("dynamics", heis, c("h_mobius_half.map")), 0, "pass"),
        CliCall(("dynamics", heis, c("identity.map")), 0, "pass"),
        CliCall(("ode", c("res2.ode"), "determine"), 0, golden="ode_res2_determine.txt"),
        CliCall(("ode", c("res2.ode"), "solve"), 3, "indeterminate", contains="free_orders: 2"),
        CliCall(("ode", c("gamma1.ode"), "solve"), 0, "pass"),
        CliCall(("ode", c("gamma1.ode"), "chain"), 0, "pass", contains="ker_q0_dim: 0"),
        CliCall(("ode", c("zero_rhs.ode"), "determine"), 0, "pass"),
        # argument and input errors: documented exit 2
        CliCall(("analyze", c("no_such_file.surf")), 2),
        CliCall(("analyze", heis, "--order", "40"), 2),
        CliCall(("analyze", c("identity.map")), 2),
        CliCall(("dynamics", heis, c("dilation_heis.map")), 2),
        CliCall(("ode", c("res2.ode"), "frobnicate"), 2),
        CliCall(("segre", heis, heis, c("identity.map"), "two"), 2),
        # known defects: README promises exit 2 (argument error) or a witness
        CliCall(
            ("segre", heis, heis, c("h_mobius_1.map"), "20"), 2,
            defect="segre with K beyond the stored order exits 1",
        ),
        CliCall(
            ("segre", heis, heis, c("h_mobius_1.map"), "-1"), 2,
            defect="segre with negative K exits 1",
        ),
        CliCall(
            ("segre", heis, z4, c("identity.map"), "1"), 1, "fail",
            contains="invariant_obstruction",
            defect="segre on surfaces with disagreeing invariants exits 1 without a report",
        ),
    ]


def _graph_surface_text(rng: random.Random) -> str:
    a = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
    b = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    re, im = rng.randint(-2, 2), rng.randint(1, 3)
    return (
        "vars: z x s\norder: 6\n"
        f"phi: {a}*z*x + ({b})*z^2*x^2 + ({re}+{im}*i)*z^2*x + ({re}-{im}*i)*z*x^2"
        " + z*x*s\n"
    )


def _malformed(rng: random.Random, corpus: pathlib.Path) -> tuple[str, str]:
    """A corpus document with one seeded defect the parser must reject."""
    name = rng.choice(sorted(p.name for p in corpus.iterdir() if p.is_file()))
    lines = (corpus / name).read_text(encoding="utf-8").splitlines()
    index = rng.randrange(len(lines))
    key = lines[index].partition(":")[0]
    mutation = rng.randrange(5)
    if mutation == 0:  # duplicate key
        lines.insert(index, lines[index])
    elif mutation == 1:  # missing required key
        lines = [ln for ln in lines if not ln.startswith("order:")]
    elif mutation == 2:  # negative order
        lines = [f"order: -{rng.randint(1, 9)}" if ln.startswith("order:") else ln for ln in lines]
    elif mutation == 3:  # stray character in the last value
        text = lines[-1]
        col = rng.randrange(text.index(":") + 2, len(text) + 1)
        lines[-1] = text[:col] + rng.choice("$@!?") + text[col:]
    else:  # line without a key
        lines.insert(index, f"{key} {rng.randint(0, 9)}")
    return name, "\n".join(lines) + "\n"


class CorpusCli:
    """Short CLI calls through ``crjets.cli.main`` on every corpus file."""

    name = "corpus_cli"

    def __init__(self, seed: int, root: pathlib.Path, workdir: pathlib.Path):
        self.rng = random.Random(seed)
        corpus = root / "corpus"
        golden_dir = root / "tests" / "golden"
        self.goldens = {
            p.name: p.read_text(encoding="utf-8") for p in sorted(golden_dir.glob("*.txt"))
        }
        calls = corpus_calls(corpus.as_posix())
        for call in calls:
            for arg in call.argv[1:]:
                if "/" in arg and "no_such_file" not in arg and not pathlib.Path(arg).exists():
                    raise FileNotFoundError(arg)
        workdir.mkdir(parents=True, exist_ok=True)
        work = workdir.as_posix()
        graph = workdir / "graph.surf"
        graph.write_text(_graph_surface_text(self.rng), encoding="utf-8")
        calls.append(CliCall(("analyze", f"{work}/graph.surf"), 0, "pass", contains="m0: 1"))
        bad = workdir / "not_normal.surf"
        bad.write_text(
            f"vars: z x t\norder: 6\nQ: t + 2*i*z*x + {self.rng.randint(1, 9)}*z\n",
            encoding="utf-8",
        )
        calls.append(CliCall(("analyze", f"{work}/not_normal.surf"), 1, "fail",
                             contains="normal_check: fail"))
        for j in range(4):
            src, text = _malformed(self.rng, corpus)
            path = workdir / f"malformed_{j}{pathlib.PurePath(src).suffix}"
            path.write_text(text, encoding="utf-8")
            command = {
                ".surf": ("analyze",),
                ".map": ("dynamics", f"{corpus.as_posix()}/heisenberg.surf"),
                ".ode": ("ode",),
            }[path.suffix]
            tail = ("solve",) if path.suffix == ".ode" else ()
            calls.append(CliCall(command + (f"{work}/{path.name}",) + tail, 2))
        self.calls = calls

    def warmup(self):
        call = self.calls[0]
        check_cli(call, self.goldens, run_cli(call.argv))

    def _op(self, call: CliCall) -> Operation:
        return Operation(
            call.name,
            call.name,
            lambda: run_cli(call.argv),
            lambda result: check_cli(call, self.goldens, result),
        )

    def operations(self):
        """Passes over every call, each pass in a fresh seeded order."""
        while True:
            order = list(self.calls)
            self.rng.shuffle(order)
            for call in order:
                yield self._op(call)


# ----------------------------------------------------------------------
# map_sweep

SWEEP_ORDER = 12
QUARTIC_LAMBDAS = [CR(2), CR(Fraction(1, 2)), CR(-3), CR(1, 1), CR(Fraction(3, 5), Fraction(4, 5))]


class MapSweep:
    """Determination and reconstruction on seeded automorphism pairs.

    Each block of eight operations holds six quadric-family pairs (one of
    them a pair of equal germs built along two routes), one quartic-model
    dilation pair (ell = 2, float roots) and one infinite-type rotation pair
    (m0 = 2), in seeded order.
    """

    name = "map_sweep"
    BLOCK = ("quadric",) * 5 + ("quadric_same", "quartic", "infinite")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.keys = KeyDeck(self.rng)
        self.quartic = Deck(self.rng, QUARTIC_LAMBDAS)
        self.rotations = Deck(self.rng, UNITS)
        self.surfaces = {
            "quadric": heisenberg(SWEEP_ORDER),
            "quartic": quartic_model(SWEEP_ORDER),
            "infinite": infinite_type_model(SWEEP_ORDER),
        }
        self.members: dict = {}

    def _member(self, key, regroup=False):
        if (key, regroup) not in self.members:
            self.members[(key, regroup)] = family_member(key, SWEEP_ORDER, regroup)
        return self.members[(key, regroup)]

    def _pair(self, kind):
        if kind == "quadric":
            return "quadric", self._member(self.keys.draw()), self._member(self.keys.draw())
        if kind == "quadric_same":
            key = self.keys.draw()
            return "quadric", self._member(key), self._member(key, regroup=True)
        if kind == "quartic":
            lam1, lam2 = self.quartic.draw(), self.quartic.draw()
            return (
                "quartic",
                dilation(lam1, lam1.norm2() ** 2, SWEEP_ORDER),
                dilation(lam2, lam2.norm2() ** 2, SWEEP_ORDER),
            )
        u1, u2 = self.rotations.draw(), self.rotations.draw()
        return (
            "infinite",
            dilation(u1, Fraction(1), SWEEP_ORDER),
            dilation(u2, Fraction(1), SWEEP_ORDER),
        )

    def _op(self, kind) -> Operation:
        surface_kind, h1, h2 = self._pair(kind)
        surface = self.surfaces[surface_kind]

        def run():
            verdict = determination_experiment(surface, h1, h2, 2)
            return verdict, segre_chain(surface, surface, h1, 3)

        def check(result):
            verdict, chain = result
            check_determination(verdict, h1, h2, 2)
            check_segre(with_direct(h1, chain), surface_kind)
            return OK

        return Operation(kind, repr((surface_kind, h1, h2)), run, check)

    def warmup(self):
        h = family_member((3, 1, 2, 0), SWEEP_ORDER)
        surface = self.surfaces["quadric"]
        check_determination(determination_experiment(surface, h, h, 2), h, h, 2)
        check_segre(with_direct(h, segre_chain(surface, surface, h, 3)), "warmup")

    def operations(self):
        while True:
            block = list(self.BLOCK)
            self.rng.shuffle(block)
            for kind in block:
                yield self._op(kind)


# ----------------------------------------------------------------------
# dense_solve

GRAPH_ORDER = 8
GRAPH_TERMS = 30
INVERSE_ORDER = 16
ODE_TARGET = 24
ODE_ORDER = 30
GAUSSIAN_DILATIONS = [CR(1, 1), CR(2, -1), CR(Fraction(1, 2), 1), CR(-1, 2), CR(3, 1)]
ODE_RESONANCES = [14, 16, 18, 20]


def dense_graph(rng: random.Random, order: int, terms: int) -> TS:
    """Real graph phi with a nonzero z*x term and about ``terms`` further
    seeded monomials z^a x^b s^m (a, b >= 1) with small Gaussian
    coefficients, the same number in every run for each total degree."""
    slots = [
        (a, b, m)
        for a in range(1, order)
        for b in range(1, order)
        for m in range(0, order - a - b + 1)
        if (a, b, m) != (1, 1, 0)
    ]
    chosen = []
    for degree in range(2, order + 1):
        layer = [slot for slot in slots if sum(slot) == degree]
        chosen += rng.sample(layer, round(terms * len(layer) / len(slots)))
    coeffs = {(1, 1, 0): CR(Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2])))}
    for slot in chosen:
        coeffs[slot] = CR(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
    rho = TS(GRAPH_VARS, order, coeffs)
    return rho + rho.conjugate().rename_variables({"z": "x", "x": "z"})


def dilated_image(surface: NormalFormSurface, lam: CR, rho: Fraction) -> NormalFormSurface:
    """Image of the surface under (z, w) -> (lam z, rho w):
    Q'(z, x, t) = rho Q(z / lam, x / conj(lam), t / rho)."""
    n = surface.order
    z, x, t = (TS.variable(v, SURFACE_VARS, n) for v in SURFACE_VARS)
    inner = {
        "z": z * (CR(1) / lam),
        "x": x * (CR(1) / lam.conjugate()),
        "t": t * CR(Fraction(1) / rho),
    }
    return NormalFormSurface(surface.q.compose(inner) * CR(rho))


def planted_system(rng: random.Random, e1: int, e2_kind: int):
    """2x2 system x y' = A y with A similar to diag(e1, e2).

    e1 is the integer resonance that sets the determination order; by
    ``e2_kind``, e2 is a smaller positive integer, a half-integer or a
    negative integer, so the largest planted resonance is always e1.
    """
    if e2_kind == 0:
        e2 = Fraction(rng.randint(1, e1 - 1))
    elif e2_kind == 1:
        e2 = Fraction(2 * rng.randint(0, 20) + 1, 2)
    else:
        e2 = Fraction(-rng.randint(1, 6))
    e1 = Fraction(e1)
    while True:
        s = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if s[0][0] * s[1][1] - s[0][1] * s[1][0] != 0:
            break
    a = mat_mul(mat_mul(s, [[CR(e1), CR(0)], [CR(0), CR(e2)]]), invert(s))
    variables = ("x", "y1", "y2")
    ps = []
    for i in range(2):
        coeffs = {}
        for j in range(2):
            c = CR.coerce(a[i][j])
            if not c.is_zero:
                coeffs[tuple(1 if v == j + 1 else 0 for v in range(3))] = c
        ps.append(TS(variables, ODE_ORDER, coeffs))
    ode = SingularODE(0, ps, TS(variables, ODE_ORDER, {(0, 0, 0): 1}))
    planted = {int(e) for e in (e1, e2) if e.denominator == 1 and 1 <= e <= ODE_TARGET}
    return ode, planted


class DenseSolve:
    """Long operations: dense graphs, germ inverses, ODE determination.

    Each round runs one operation of each kind in seeded order; orders are
    fixed so that every round costs about the same.
    """

    name = "dense_solve"
    ROUND = ("graph", "inverse", "ode")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.keys = KeyDeck(self.rng)
        self.dilations = Deck(self.rng, GAUSSIAN_DILATIONS)
        self.resonances = Deck(self.rng, ODE_RESONANCES)
        self.e2_kinds = Deck(self.rng, range(3))

    def _graph(self, phi: TS, lam: CR) -> Operation:
        rho = lam.norm2()
        h = dilation(lam, rho, GRAPH_ORDER)

        def run():
            source = from_real_graph(RealGraph(phi))
            invariants = source.compute_invariants()
            target = dilated_image(source, lam, rho)
            residual = verify_mapping(source, target, h)
            return invariants, residual, segre_chain(source, target, h, 2)

        def check(result):
            invariants, residual, chain = result
            if (invariants.m0, invariants.alpha0, invariants.mu0, invariants.ell) != (1, 1, 0, 1):
                raise OracleFailure(f"invariants {invariants.tuple()} for a z*x graph")
            if not residual.is_zero:
                raise OracleFailure("dilation residual is not zero")
            check_segre(with_direct(h, chain), "graph")
            return OK

        return Operation("graph", f"phi={phi} lam={lam}", run, check)

    def _inverse(self, key) -> Operation:
        h = family_member(key, INVERSE_ORDER)
        surface = heisenberg(INVERSE_ORDER)

        def check(inv):
            if not verify_mapping(surface, surface, inv).is_zero:
                raise OracleFailure("inverse does not preserve the quadric")
            zg, wg = (TS.variable(v, MAP_VARS, INVERSE_ORDER) for v in MAP_VARS)
            back = h.compose(inv)
            if back.f != zg or back.g != wg:
                raise OracleFailure("h o inverse is not the identity")
            return OK

        return Operation("inverse", f"key={key} order={INVERSE_ORDER}", h.inverse, check)

    def _ode(self, ode: SingularODE, planted: set) -> Operation:
        def run():
            base = zero_solution(ode, ODE_TARGET)
            return determination_order(ode, base, ODE_TARGET), resonance_set(ode, ODE_TARGET)

        def check(result):
            k, resonances = result
            if k != max(planted, default=0):
                raise OracleFailure(f"determination order {k}, planted {sorted(planted)}")
            if resonances != planted:
                raise OracleFailure(f"resonances {sorted(resonances)}, planted {sorted(planted)}")
            return OK

        return Operation("ode", f"p={[str(p) for p in ode.p]} planted={sorted(planted)}", run, check)

    def _make(self, kind) -> Operation:
        if kind == "graph":
            phi = dense_graph(self.rng, GRAPH_ORDER, GRAPH_TERMS)
            return self._graph(phi, self.dilations.draw())
        if kind == "inverse":
            return self._inverse(self.keys.draw())
        return self._ode(*planted_system(self.rng, self.resonances.draw(), self.e2_kinds.draw()))

    def warmup(self):
        op = self._ode(*planted_system(random.Random(0), ODE_RESONANCES[0], 0))
        op.check(op.run())

    def operations(self):
        while True:
            block = list(self.ROUND)
            self.rng.shuffle(block)
            for kind in block:
                yield self._make(kind)


WORKLOADS = {cls.name: cls for cls in (CorpusCli, MapSweep, DenseSolve)}


def build(name: str, seed: int, root: pathlib.Path, workdir: pathlib.Path):
    if name == CorpusCli.name:
        return CorpusCli(seed, root, workdir)
    return WORKLOADS[name](seed)


def remove_workdir(workdir: pathlib.Path):
    shutil.rmtree(workdir, ignore_errors=True)
