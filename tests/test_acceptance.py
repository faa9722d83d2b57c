"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every comparison is exact equality over the Gaussian rationals,
including the reconstructions that take ell-th roots (ell > 1).
"""

import functools
import pathlib
import random
import time
from fractions import Fraction

from crjets.cli import main as cli_main
from crjets.dsl import ParseError, parse_document
from crjets.hypersurface import (
    GRAPH_VARS,
    RealGraph,
    from_real_graph,
    heisenberg,
    infinite_type_model,
    quartic_model,
)
from crjets.linalg import invert, mat_mul
from crjets.mapjets import (
    determination_experiment,
    dilation,
    dynamics_check,
    identity_map,
    invariance_check,
    segre_jet_reconstruct,
    segre_restriction_direct,
    verify_mapping,
    w_mobius,
)
from crjets.odejets import (
    SingularODE,
    determination_order,
    formal_coefficients,
    residual,
    resonance_set,
    zero_solution,
)
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
ORDER = 12
I = CR(0, 1)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL - {description}")
                raise
            print(f"[criterion {number}] PASS - {description}")
            return result

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# 1. invariant goldens


@criterion(1, "invariant goldens on the three-surface corpus, < 1 s each")
def test_invariant_goldens(capsys):
    expected = {
        "heisenberg.surf": ((1, 1, 0, 1, 1), True),
        "z4.surf": ((2, 2, 0, 2, 2), True),
        "infinite_type.surf": ((2, 1, 1, 1, None), False),
    }
    for name, (tup, finite) in expected.items():
        start = time.monotonic()
        code = cli_main(["analyze", str(CORPUS / name)])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0, name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
        m0, a0, mu0, ell, b0 = tup
        assert f"m0: {m0}" in out
        assert f"alpha0: {a0}" in out
        assert f"mu0: {mu0}" in out
        assert f"ell: {ell}" in out
        assert ("beta0: none" in out) if b0 is None else (f"beta0: {b0}" in out)
        assert f"finite_type: {'true' if finite else 'false'}" in out
        assert "order: 12" in out


# ----------------------------------------------------------------------
# 2. reality/normality of constructed surfaces


@criterion(2, "from_real_graph yields exact normal form on 20 random graphs, < 10 s")
def test_reality_normality_random():
    rng = random.Random(20260808)
    start = time.monotonic()
    for trial in range(20):
        order = rng.randint(4, 8)
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            m = rng.randint(0, 2)
            if a + b + m > order:
                continue
            coeffs[(a, b, m)] = CR(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
        rho = TS(GRAPH_VARS, order, coeffs)
        phi = rho + rho.conjugate().rename_variables({"z": "x", "x": "z"})
        surface = from_real_graph(RealGraph(phi))
        assert surface.check_normal().passed, f"trial {trial}"
        assert surface.check_reality().passed, f"trial {trial}"
    assert time.monotonic() - start < 10.0


# ----------------------------------------------------------------------
# 3. Segre oracle equivalence


def _heisenberg_corpus():
    maps = [
        w_mobius(Fraction(1), ORDER),
        w_mobius(Fraction(1, 2), ORDER),
        w_mobius(Fraction(-2), ORDER),
        dilation(Fraction(2), Fraction(4), ORDER),
        dilation(Fraction(-1, 3), Fraction(1, 9), ORDER),
    ]
    maps.append(maps[0].compose(maps[3]))
    maps.append(maps[3].compose(maps[1]))
    maps.append(maps[2].compose(maps[4]))
    return maps


@criterion(3, "Segre reconstruction matches the direct oracle for k = 0..4")
def test_segre_oracle_equivalence():
    m = heisenberg(ORDER)
    for h in _heisenberg_corpus():
        assert verify_mapping(m, m, h).is_zero
        for k in range(5):
            recon = segre_jet_reconstruct(m, m, h.jet(k + 1), k)
            assert recon.agrees_with(segre_restriction_direct(h, k))
    q = quartic_model(ORDER)
    for lam in (Fraction(2), Fraction(1, 2), Fraction(-3)):
        h = dilation(lam, lam**4, ORDER)
        assert verify_mapping(q, q, h).is_zero
        for k in range(5):
            recon = segre_jet_reconstruct(q, q, h.jet(k + 1), k)
            assert recon.agrees_with(segre_restriction_direct(h, k))


# ----------------------------------------------------------------------
# 4. dynamics


@criterion(4, "tangent-to-identity corpus maps fix {w = 0} pointwise, exactly")
def test_dynamics_family():
    m = heisenberg(ORDER)
    for a in (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(0)):
        h = w_mobius(a, ORDER) if a else identity_map(ORDER)
        verdict = dynamics_check(m, h)
        assert verdict.reconstructed_fixes_axis
        assert verdict.stored_fixes_axis


# ----------------------------------------------------------------------
# 5. 2-jet determination sweep


_UNITS = [
    CR(1),
    CR(-1),
    CR(0, 1),
    CR(Fraction(3, 5), Fraction(4, 5)),
    CR(Fraction(5, 13), Fraction(-12, 13)),
]
_LAMBDAS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3)]
_AS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(1, 3)]


@functools.lru_cache(maxsize=None)
def _family_member(u_idx, lam_idx, a_idx, arrangement):
    rot = dilation(_UNITS[u_idx], Fraction(1), ORDER)
    dil = dilation(_LAMBDAS[lam_idx], _LAMBDAS[lam_idx] ** 2, ORDER)
    mob = w_mobius(_AS[a_idx], ORDER)
    parts = {
        0: (rot, dil, mob),
        1: (dil, rot, mob),
        2: (mob, rot, dil),
        3: (rot, mob, dil),
    }[arrangement]
    return parts[0].compose(parts[1]).compose(parts[2])


@criterion(5, "2-jet determination over 200 random automorphism pairs")
def test_two_jet_determination_sweep():
    m = heisenberg(ORDER)
    rng = random.Random(1311)
    pairs = []
    # constructed coincidences: same map assembled along different routes
    lam = Fraction(2)
    for a, b in ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(-2)),
                 (Fraction(1, 3), Fraction(1, 3))):
        pairs.append(
            (w_mobius(a, ORDER).compose(w_mobius(b, ORDER)), w_mobius(a + b, ORDER))
        )
    pairs.append(
        (
            dilation(CR(0, 1), Fraction(1), ORDER).compose(
                dilation(lam, lam**2, ORDER)
            ),
            dilation(lam, lam**2, ORDER).compose(dilation(CR(0, 1), Fraction(1), ORDER)),
        )
    )
    a = Fraction(1, 2)
    pairs.append(
        (
            dilation(lam, lam**2, ORDER).compose(w_mobius(a, ORDER)),
            w_mobius(a / lam**2, ORDER).compose(dilation(lam, lam**2, ORDER)),
        )
    )
    while len(pairs) < 200:
        left = _family_member(
            rng.randrange(len(_UNITS)),
            rng.randrange(len(_LAMBDAS)),
            rng.randrange(len(_AS)),
            rng.randrange(4),
        )
        right = _family_member(
            rng.randrange(len(_UNITS)),
            rng.randrange(len(_LAMBDAS)),
            rng.randrange(len(_AS)),
            rng.randrange(4),
        )
        pairs.append((left, right))
    non_vacuous = 0
    for h1, h2 in pairs:
        verdict = determination_experiment(m, h1, h2, 2)
        assert verdict.passed, verdict
        if not verdict.vacuous:
            non_vacuous += 1
            assert verdict.maps_agree
    assert non_vacuous >= 5, f"only {non_vacuous} coincidence pairs"


# ----------------------------------------------------------------------
# 6. invariance


@criterion(6, "invariance holds on verified pairs; cross-surface m0 obstruction")
def test_invariance():
    cases = [
        (heisenberg(ORDER), heisenberg(ORDER), w_mobius(Fraction(1), ORDER)),
        (heisenberg(ORDER), heisenberg(ORDER), dilation(Fraction(3), Fraction(9), ORDER)),
        (quartic_model(ORDER), quartic_model(ORDER), dilation(Fraction(2), Fraction(16), ORDER)),
        (
            infinite_type_model(ORDER),
            infinite_type_model(ORDER),
            dilation(CR(Fraction(3, 5), Fraction(4, 5)), Fraction(1), ORDER),
        ),
    ]
    for source, target, h in cases:
        report = invariance_check(source, target, h)
        assert report.residual_zero
        assert report.passed
    cross = invariance_check(heisenberg(ORDER), quartic_model(ORDER), identity_map(ORDER))
    assert not cross.passed
    assert ("m0", 1, 2) in cross.mismatches


# ----------------------------------------------------------------------
# 7. singular ODE suite


def _scalar_ode(gamma, p_coeffs, order=30):
    variables = ("x", "y")
    return SingularODE(
        gamma,
        [TS(variables, order, p_coeffs)],
        TS(variables, order, {(0, 0): 1}),
    )


def _matrix_ode(a, order=30):
    n = len(a)
    variables = ("x",) + tuple(f"y{i + 1}" for i in range(n))
    ps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            c = CR.coerce(a[i][j])
            if not c.is_zero:
                coeffs[tuple(1 if t == j + 1 else 0 for t in range(n + 1))] = c
        ps.append(TS(variables, order, coeffs))
    return SingularODE(0, ps, TS(variables, order, {(0,) * (n + 1): 1}))


N_ODE = 24
_RESULT_POOL = []


def _populate_pool():
    if _RESULT_POOL:
        return
    resonant = _scalar_ode(0, {(0, 1): 2})
    _RESULT_POOL.append(
        (resonant, formal_coefficients(resonant, {2: (Fraction(1),)}, N_ODE))
    )
    chain = _scalar_ode(1, {(0, 1): 1})
    _RESULT_POOL.append((chain, formal_coefficients(chain, {}, N_ODE)))
    flat = _scalar_ode(1, {})
    _RESULT_POOL.append((flat, formal_coefficients(flat, {1: (Fraction(0),)}, N_ODE)))
    for ode in _random_linear_systems():
        _RESULT_POOL.append((ode, formal_coefficients(ode, {}, 8)))


def _random_linear_systems():
    rng = random.Random(57721)
    out = []
    for _ in range(10):
        # plant eigenvalues through an exact similarity, then read them back
        planted = (
            Fraction(rng.randint(-6, 26)),
            Fraction(rng.randint(-6, 26), rng.choice([1, 1, 2, 3])),
        )
        s = [
            [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))],
            [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))],
        ]
        if (s[0][0] * s[1][1] - s[0][1] * s[1][0]) == 0:
            s[0][0] += 7
        d = [[CR(planted[0]), CR(0)], [CR(0), CR(planted[1])]]
        ode = _matrix_ode(mat_mul(mat_mul(s, d), invert(s)))
        ode.planted_eigenvalues = planted
        out.append(ode)
    return out


@criterion(7, "ODE determination orders and resonance sets, exact, < 30 s")
def test_ode_suite():
    start = time.monotonic()
    resonant = _scalar_ode(0, {(0, 1): 2})
    base = zero_solution(resonant, N_ODE)
    assert determination_order(resonant, base, N_ODE) == 2

    chain = _scalar_ode(1, {(0, 1): 1})
    assert determination_order(chain, zero_solution(chain, N_ODE), N_ODE) == 0

    flat = _scalar_ode(1, {})
    assert determination_order(flat, zero_solution(flat, N_ODE), N_ODE) == 0

    for trial, ode in enumerate(_random_linear_systems()):
        expected = {
            int(e)
            for e in ode.planted_eigenvalues
            if e.denominator == 1 and 1 <= e <= N_ODE
        }
        assert resonance_set(ode, N_ODE) == expected, f"trial {trial}"
    _populate_pool()
    assert time.monotonic() - start < 30.0


# ----------------------------------------------------------------------
# 8. back-substitution


@criterion(8, "every recursion result back-substitutes to a zero residual")
def test_back_substitution():
    _populate_pool()
    for ode, run in _RESULT_POOL:
        if run.free_orders:
            pinned = dict(run.coefficients)
            seeded = {s: pinned[s] for s in range(min(run.free_orders))}
            seeded.update({s: tuple([Fraction(0)] * ode.n) for s in run.free_orders})
            run = formal_coefficients(ode, {**seeded}, run.n_target)
            assert not run.free_orders
        for comp in residual(ode, run):
            assert comp.is_zero


# ----------------------------------------------------------------------
# 9. parser corpus


def _golden_documents():
    docs = []
    for name in (
        "heisenberg.surf",
        "z4.surf",
        "infinite_type.surf",
        "leviflat.surf",
        "identity.map",
        "h_mobius_1.map",
        "h_mobius_half.map",
        "h_mobius_neg2.map",
        "dilation_heis.map",
        "rotation_heis.map",
        "dilation_z4.map",
        "res2.ode",
        "gamma1.ode",
        "zero_rhs.ode",
    ):
        docs.append((CORPUS / name).read_text(encoding="utf-8"))
    series_bodies = [
        "0",
        "t",
        "z*x",
        "-z + x",
        "1/2*z^2 - 1/2*z^2",
        "(1/2+3/4*i)*z*x*t",
        "2*i*z^3*x^3 - 7/5*t^2",
        "t + 2*i*z*x + z^2*x^2*t",
        "3*z*x*t - 3*z*x*t + t",
        "(2-1/3*i)*x^2*z^2 + (1/9)*t^3",
        "t - i*z*x",
        "12/7*z*x^4",
        "t + (1+1/2*i)*z^2*x + (1-1/2*i)*z*x^2",
        "-1/3*t^4 + z^2*x^2",
        "9*z*x*t^2 - i*t",
    ]
    for body in series_bodies:
        docs.append(f"kind: surface\nvars: z x t\norder: 9\nQ: {body}\n")
    map_bodies = [
        ("z", "w"),
        ("z + z*w", "w + w^2"),
        ("2*z - i*z*w^2", "4*w"),
        ("z*w + z", "w - 1/2*w^3"),
        ("-z", "w"),
        ("z + 1/2*z*w + 1/4*z*w^2", "w + 1/2*w^2"),
        ("i*z", "w + w^4"),
        ("z - z*w", "w - w^2 + w^3"),
        ("3/2*z", "9/4*w"),
        ("z + (1/5+2/5*i)*z*w", "w"),
    ]
    for f_body, g_body in map_bodies:
        docs.append(f"kind: map\nvars: z w\norder: 8\nF: {f_body}\nG: {g_body}\n")
    ode_bodies = [
        ("0", "2*y", "1"),
        ("0", "y + y^2", "1"),
        ("1", "y", "1"),
        ("1", "x", "1"),
        ("0", "y", "1 + x"),
        ("2", "x*y", "3"),
        ("0", "theta1*y", "1"),
        ("1", "y - x^2", "2 - x"),
        ("0", "-y", "1"),
        ("3", "0", "1"),
        ("0", "5*y + x^3", "1 - x^2"),
    ]
    for gamma, p_body, q_body in ode_bodies:
        theta = "theta: 1/3\n" if "theta1" in p_body else ""
        docs.append(
            f"kind: ode\ngamma: {gamma}\nvars: x y\norder: 10\n"
            f"p: {p_body}\nq: {q_body}\n{theta}"
        )
    return docs


_MALFORMED = [
    "",
    "kind: widget\nvars: z x t\norder: 4\nQ: t\n",
    "vars: z x t\norder: 4\n",
    "vars: z x\norder: 4\nQ: t\n",
    "vars: z x t\norder: -4\nQ: t\n",
    "vars: z x t\norder: four\nQ: t\n",
    "vars: z x t\norder: 4\nQ: t +\n",
    "vars: z x t\norder: 4\nQ: t ++ z\n",
    "vars: z x t\norder: 4\nQ: q\n",
    "vars: z x t\norder: 4\nQ: z^\n",
    "vars: z x t\norder: 4\nQ: z^x\n",
    "vars: z x t\norder: 4\nQ: (1/2\n",
    "vars: z x t\norder: 4\nQ: 1/0*z\n",
    "vars: z x t\norder: 4\nQ: t $ z\n",
    "vars: z x t\norder: 4\nQ: t\nQ: t\n",
    "vars: z z t\norder: 4\nQ: t\n",
    "vars: z i t\norder: 4\nQ: t\n",
    "kind: map\nvars: z w\norder: 4\nF: z\n",
    "kind: ode\ngamma: 1\nvars: x y\norder: 4\np: y ; y\nq: 1\n",
    "kind: ode\ngamma: 1\nvars: x y\norder: 4\np: y\nq: 1\ntheta: huh\n",
]


@criterion(9, "50 documents round-trip; 20 malformed give located diagnostics")
def test_parser_corpus():
    docs = _golden_documents()
    assert len(docs) == 50
    for text in docs:
        doc = parse_document(text)
        assert parse_document(doc.print()) == doc
    assert len(_MALFORMED) == 20
    for text in _MALFORMED:
        try:
            parse_document(text)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1
        else:
            raise AssertionError(f"malformed document accepted: {text!r}")
