"""Formal ODE coefficients, resonances, determination orders, kernel chains."""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crjets import odejets
from crjets.dsl import parse_document
from crjets.rational import ComplexRational as CR
from crjets.series import TruncatedSeries as TS
from crjets.linalg import det, invert, mat_mul, rref
from crjets.odejets import (
    InconsistentSeed,
    IndeterminateAtTruncation,
    JetRecursionResult,
    OdeError,
    SingularODE,
    WrongGamma,
    determination_order,
    formal_coefficients,
    kernel_chain_diagnostic,
    linearization_at_origin,
    residual,
    resonance_set,
    zero_solution,
)

ORDER = 24
CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def scalar_ode(gamma, p_coeffs, q_coeffs=None, order=ORDER + 6):
    variables = ("x", "y")
    p = TS(variables, order, p_coeffs)
    q = TS(variables, order, q_coeffs or {(0, 0): 1})
    return SingularODE(gamma, [p], q)


def system_ode(gamma, matrix, order=ORDER + 8):
    """Linear right-hand side p = A y, q = 1."""
    n = len(matrix)
    variables = ("x",) + tuple(f"y{i + 1}" for i in range(n))
    ps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            a = CR.coerce(matrix[i][j])
            if not a.is_zero:
                mi = tuple(1 if k == j + 1 else 0 for k in range(n + 1))
                coeffs[mi] = a
        ps.append(TS(variables, order, coeffs))
    q = TS(variables, order, {(0,) * (n + 1): 1})
    return SingularODE(gamma, ps, q)


# ----------------------------------------------------------------------
# formal_coefficients


def test_resonant_scalar_gamma0():
    # x y' = 2 y: every order except 2 forces zero; order 2 stays free
    ode = scalar_ode(0, {(0, 1): 2})
    run = formal_coefficients(ode, {}, 10)
    assert run.free_orders == (2,)
    entry = next(e for e in run.obstruction_ledger if e.order == 2)
    assert entry.status == "free"
    assert entry.kernel_dim == 1
    for s in range(11):
        if s != 2:
            assert run.coefficients[s] == (CR(0),)


def test_resonant_scalar_seeded():
    ode = scalar_ode(0, {(0, 1): 2})
    run = formal_coefficients(ode, {2: (Fraction(5),)}, 10)
    assert run.fully_determined
    assert run.coefficients[2] == (CR(5),)
    assert all(run.coefficients[s] == (CR(0),) for s in range(11) if s != 2)
    # back-substitution: y = 5 x^2 solves x y' = 2 y exactly
    assert all(r.is_zero for r in residual(ode, run))


def test_gamma1_chain_forces_zero():
    # x^2 y' = y: a_0 = 0 forced, then (s-1) a_{s-1} = a_s chain gives 0
    ode = scalar_ode(1, {(0, 1): 1})
    run = formal_coefficients(ode, {}, 12)
    assert run.fully_determined
    assert all(run.coefficients[s] == (CR(0),) for s in range(13))


def test_zero_rhs_extends_by_zeros():
    ode = scalar_ode(1, {})
    run = formal_coefficients(ode, {1: (Fraction(0),)}, 8)
    assert run.fully_determined
    assert all(run.coefficients[s] == (CR(0),) for s in range(9))


def test_inconsistent_seed_detected():
    # x^2 y' = y with a_1 = 1 contradicts the chain at later orders
    ode = scalar_ode(1, {(0, 1): 1})
    with pytest.raises(InconsistentSeed):
        formal_coefficients(ode, {1: (Fraction(1),)}, 12)


def test_nonzero_y0_rejected():
    ode = scalar_ode(0, {(0, 1): 1})
    with pytest.raises(OdeError):
        formal_coefficients(ode, {0: (Fraction(1),)}, 4)


def test_target_beyond_the_equation_order_is_an_ode_error():
    ode = scalar_ode(0, {(0, 1): 2}, order=6)
    with pytest.raises(OdeError, match="exceeds the equation's truncation order 6"):
        formal_coefficients(ode, {}, 10)
    with pytest.raises(OdeError, match="exceeds the equation's truncation order 6"):
        determination_order(ode, zero_solution(ode, 10), 10)


# ----------------------------------------------------------------------
# resonance_set


def test_resonance_simple():
    assert resonance_set(scalar_ode(0, {(0, 1): 2}), 24) == {2}
    assert resonance_set(scalar_ode(0, {(0, 1): -1}), 24) == set()
    assert resonance_set(scalar_ode(0, {}), 24) == set()


def test_resonance_requires_gamma0():
    with pytest.raises(WrongGamma):
        resonance_set(scalar_ode(1, {(0, 1): 1}), 10)


def test_resonance_with_denominator():
    # f = 3 y / (3 - x): f_y(0,0) = 1
    ode = scalar_ode(0, {(0, 1): 3}, {(0, 0): 3, (1, 0): -1})
    assert linearization_at_origin(ode) == [[CR(1)]]
    assert resonance_set(ode, 10) == {1}


def test_resonance_2x2_constructed():
    # conjugated diagonal matrices with known eigenvalues
    s = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    s_inv = invert(s)
    eigs = (Fraction(3), Fraction(7, 2))
    d = [[CR(eigs[0]), CR(0)], [CR(0), CR(eigs[1])]]
    a = mat_mul(mat_mul(s, d), s_inv)
    ode = system_ode(0, a)
    assert resonance_set(ode, 24) == {3}


def test_linear_system_defer_orders_match_resonances():
    a = [[Fraction(4), Fraction(1)], [Fraction(0), Fraction(-2)]]
    ode = system_ode(0, a)
    run = formal_coefficients(ode, {}, 12)
    defer = {e.order for e in run.obstruction_ledger if e.status != "resolved"}
    assert defer == resonance_set(ode, 12)


# ----------------------------------------------------------------------
# determination_order


def test_determination_resonant():
    ode = scalar_ode(0, {(0, 1): 2})
    base = zero_solution(ode, ORDER)
    assert determination_order(ode, base, ORDER) == 2


def test_determination_gamma1():
    ode = scalar_ode(1, {(0, 1): 1})
    base = zero_solution(ode, ORDER)
    assert determination_order(ode, base, ORDER) == 0


def test_determination_zero_rhs():
    ode = scalar_ode(1, {})
    base = zero_solution(ode, ORDER)
    assert determination_order(ode, base, ORDER) == 0


def test_determination_below_k_leaves_freedom():
    ode = scalar_ode(0, {(0, 1): 2})
    run = formal_coefficients(ode, {1: (Fraction(0),)}, 12)
    assert 2 in run.free_orders


def scan_determination_order(ode, base, n_max):
    """Reference: the first k = 0, 1, 2, ... whose seeded run pins every
    order to the base values."""
    for k in range(n_max + 1):
        run = formal_coefficients(ode, {s: base.coefficients[s] for s in range(k + 1)}, n_max)
        if run.fully_determined and all(
            run.coefficients[s] == base.coefficients[s] for s in range(n_max + 1)
        ):
            return k
    raise AssertionError("the run seeded through n_max pins every order")


def planted_system(rng, e1, e2):
    """x y' = A y with A = S diag(e1, e2) S^-1 for a seeded integer S."""
    while True:
        s = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if det(s) != 0:
            break
    diag = [[CR(e1), CR(0)], [CR(0), CR(e2)]]
    return system_ode(0, mat_mul(mat_mul(s, diag), invert(s)))


def random_nonlinear_system(rng, n, gamma, order):
    """p(x, 0) = 0, so y = 0 is a solution; y-degrees up to 3 make opaque
    equations (products of still-deferred coefficients) common."""
    variables = ("x", "y") if n == 1 else ("x", "y1", "y2")
    ps = []
    for comp in range(n):
        coeffs = {}
        for j in range(n):
            if gamma == 0 and j == comp:
                c = rng.choice([rng.randint(1, 8), rng.randint(-3, 3), Fraction(rng.randint(1, 9), 2)])
            else:
                c = rng.choice([0, rng.randint(-2, 2)])
            if c:
                coeffs[(0,) + tuple(int(t == j) for t in range(n))] = c
        for _ in range(rng.randint(0, 4)):
            ys = [0] * n
            degree = rng.randint(1, 3)
            for _ in range(degree):
                ys[rng.randrange(n)] += 1
            x_power = rng.randint(0 if degree >= 2 else 1, 2)
            coeffs[(x_power, *ys)] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
        ps.append(TS(variables, order, coeffs))
    q_coeffs = {(0,) * (n + 1): 1}
    if rng.random() < 0.5:
        q_coeffs[(1,) + (0,) * n] = rng.choice([-2, -1, 1, 2])
    if rng.random() < 0.5:
        q_coeffs[(0, 1) + (0,) * (n - 1)] = rng.choice([-2, -1, 1, 2])
    return SingularODE(gamma, ps, TS(variables, order, q_coeffs))


@pytest.mark.parametrize("name", ["res2.ode", "gamma1.ode", "zero_rhs.ode"])
def test_determination_matches_scan_on_corpus(name):
    ode = corpus_ode(name)
    base = zero_solution(ode, ORDER)
    assert determination_order(ode, base, ORDER) == scan_determination_order(ode, base, ORDER)


@pytest.mark.parametrize("e1", [14, 16, 18, 20])
@pytest.mark.parametrize("e2_kind", ["integer", "half", "negative"])
def test_determination_matches_scan_on_planted_systems(e1, e2_kind):
    rng = random.Random(e1 * 10 + len(e2_kind))
    e2 = {
        "integer": Fraction(rng.randint(1, e1 - 1)),
        "half": Fraction(2 * rng.randint(0, 20) + 1, 2),
        "negative": Fraction(-rng.randint(1, 6)),
    }[e2_kind]
    ode = planted_system(rng, e1, e2)
    base = zero_solution(ode, ORDER)
    assert determination_order(ode, base, ORDER) == scan_determination_order(ode, base, ORDER) == e1


def test_determination_matches_scan_on_random_nonlinear_systems():
    rng = random.Random(7)
    n_max = 10
    with_opaque = 0
    for _ in range(72):
        ode = random_nonlinear_system(
            rng, rng.choice([1, 2]), rng.choice([0, 1]), n_max + 6
        )
        if formal_coefficients(ode, {}, n_max).opaque_orders:
            with_opaque += 1
        base = zero_solution(ode, n_max)
        assert determination_order(ode, base, n_max) == scan_determination_order(
            ode, base, n_max
        )
    assert 24 <= with_opaque < 72


def test_determination_nonzero_resonant_base():
    ode = scalar_ode(0, {(0, 1): 2})
    base = formal_coefficients(ode, {2: (Fraction(3, 4),)}, ORDER)
    assert determination_order(ode, base, ORDER) == 2


def test_determination_of_a_wrong_base_raises_as_the_scan_does():
    # a_3 = 1 is no solution of x y' = 2 y: the run seeded through 2 pins
    # every order to 0, and the scan then stops at k = 3 on the contradiction
    ode = scalar_ode(0, {(0, 1): 2})
    table = {s: (CR(int(s == 3)),) for s in range(ORDER + 1)}
    base = JetRecursionResult(table, (), (), ORDER)
    with pytest.raises(InconsistentSeed) as scan_error:
        scan_determination_order(ode, base, ORDER)
    with pytest.raises(InconsistentSeed) as error:
        determination_order(ode, base, ORDER)
    assert error.value.order == scan_error.value.order


def test_determination_of_resonance_20_takes_one_formal_run(monkeypatch):
    runs = []

    def counted(*args):
        runs.append(args[2])
        return formal_coefficients(*args)

    ode = planted_system(random.Random(20), 20, Fraction(-3))
    base = zero_solution(ode, ORDER)
    monkeypatch.setattr(odejets, "formal_coefficients", counted)
    assert determination_order(ode, base, ORDER) == 20
    assert len(runs) <= 1


def test_determination_of_resonance_20_measures_no_frontier_kernel(monkeypatch):
    # the frontier kernels feed only the ledger, which determination_order
    # never prints, so its elimination resolves no value
    eliminating, measured = [], []
    eliminate, value = odejets._System.eliminate, odejets._LinearSolver.value

    def flagged(system):
        eliminating.append(True)
        try:
            return eliminate(system)
        finally:
            eliminating.pop()

    def counted(solver, aff):
        if eliminating:
            measured.append(aff)
        return value(solver, aff)

    monkeypatch.setattr(odejets._System, "eliminate", flagged)
    monkeypatch.setattr(odejets._LinearSolver, "value", counted)
    ode = planted_system(random.Random(20), 20, Fraction(-3))
    assert determination_order(ode, zero_solution(ode, ORDER), ORDER) == 20
    assert measured == []


def test_determination_of_an_opaque_system_takes_no_formal_run(monkeypatch):
    # x y' = y + y^2: a_2 = a_1^2 is opaque at k = 0, and seeding a_1 = 0
    # pins every order, so the one k = 0 system answers 1
    runs = []

    def counted(*args):
        runs.append(args[2])
        return formal_coefficients(*args)

    ode = scalar_ode(0, {(0, 1): 1, (0, 2): 1}, order=12)
    assert formal_coefficients(ode, {}, 10).opaque_orders
    base = zero_solution(ode, 10)
    monkeypatch.setattr(odejets, "formal_coefficients", counted)
    assert determination_order(ode, base, 10) == 1
    assert runs == []


# ----------------------------------------------------------------------
# seeded probes: the k = 0 elimination restricted by a_s = base_s, s <= k


def corpus_ode(name):
    body = parse_document((CORPUS / name).read_text(encoding="utf-8")).body
    return SingularODE(body["gamma"], body["p"], body["q"], body.get("theta", ()))


def planted_systems():
    """The twelve planted systems of the determination-order tests."""
    for e1 in (14, 16, 18, 20):
        for e2_kind in ("integer", "half", "negative"):
            rng = random.Random(e1 * 10 + len(e2_kind))
            e2 = {
                "integer": Fraction(rng.randint(1, e1 - 1)),
                "half": Fraction(2 * rng.randint(0, 20) + 1, 2),
                "negative": Fraction(-rng.randint(1, 6)),
            }[e2_kind]
            yield planted_system(rng, e1, e2)


def random_systems(n_max):
    """The 48 seeded random systems of the probe tests."""
    rng = random.Random(7)
    for _ in range(48):
        yield random_nonlinear_system(rng, rng.choice([1, 2]), rng.choice([0, 1]), n_max + 6)


def wrong_base(ode, n_max, order):
    """The zero table with a 1 at ``order``, a solution of no system here."""
    table = {s: tuple(CR(int(s == order)) for _ in range(ode.n)) for s in range(n_max + 1)}
    return JetRecursionResult(table, (), (), n_max)


def snapshot(affs):
    return [(aff.const, dict(aff.lin), aff.opaque) for aff in affs]


def check_scan_steps(ode, base, n_max):
    """The steps of determination_order's scan: one k = 0 system, the seed
    equations a_k = base_k added upward and the system settled, each step
    against the seeded formal_coefficients run.  Returns the order of the
    first inconsistent step, or None; the table's forms must come out
    unchanged."""
    system = odejets._System(ode, {0: base.coefficients[0]}, n_max)
    forms = [aff for s in system.a for aff in system.a[s]]
    before = snapshot(forms)
    system.eliminate()
    for k in range(n_max + 1):
        seed = {s: base.coefficients[s] for s in range(k + 1)}
        seeded = all(
            system.add(odejets._Aff(aff.const - value, aff.lin), k, i)
            for i, (aff, value) in enumerate(zip(system.a[k], base.coefficients[k]))
        )
        if not (seeded and system.settle()):
            with pytest.raises(InconsistentSeed):
                formal_coefficients(ode, seed, n_max)
            break
        expected = formal_coefficients(ode, seed, n_max)
        coefficients, free_orders, unknown_orders = system.read()
        assert coefficients == expected.coefficients, k
        assert free_orders == expected.free_orders, k
        assert unknown_orders == expected.unknown_orders, k
        assert tuple(sorted({order for order, _ in system.left_out})) == expected.opaque_orders, k
    else:
        k = None
    assert snapshot(forms) == before
    return k


@pytest.mark.parametrize("name", ["res2.ode", "gamma1.ode", "zero_rhs.ode"])
def test_probes_match_seeded_runs_on_corpus(name):
    ode = corpus_ode(name)
    assert check_scan_steps(ode, zero_solution(ode, ORDER), ORDER) is None
    assert check_scan_steps(ode, wrong_base(ode, ORDER, 3), ORDER) is not None


def test_probes_match_seeded_runs_on_planted_systems():
    for ode in planted_systems():
        assert check_scan_steps(ode, zero_solution(ode, ORDER), ORDER) is None
    ode = next(planted_systems())
    assert check_scan_steps(ode, wrong_base(ode, ORDER, 15), ORDER) is not None


def test_probes_match_seeded_runs_on_random_systems():
    n_max = 10
    for j, ode in enumerate(random_systems(n_max)):
        assert check_scan_steps(ode, zero_solution(ode, n_max), n_max) is None
        wrong = wrong_base(ode, n_max, 1 + j % n_max)
        assert check_scan_steps(ode, wrong, n_max) is not None


def test_wrong_base_on_opaque_random_systems_raises_at_the_scanned_order():
    n_max = 10
    opaque = 0
    for j, ode in enumerate(random_systems(n_max)):
        if not formal_coefficients(ode, {}, n_max).opaque_orders:
            continue
        opaque += 1
        base = wrong_base(ode, n_max, 1 + j % n_max)
        with pytest.raises(InconsistentSeed) as scan_error:
            scan_determination_order(ode, base, n_max)
        with pytest.raises(InconsistentSeed) as error:
            determination_order(ode, base, n_max)
        assert error.value.order == scan_error.value.order
    assert opaque >= 5


def test_probes_at_the_truncation_edge():
    ode = scalar_ode(1, {(1, 1): 1}, order=8)
    assert check_scan_steps(ode, zero_solution(ode, 8), 8) is None
    with pytest.raises(IndeterminateAtTruncation):
        determination_order(ode, zero_solution(ode, 8), 8)


def nonreal(rng):
    """A seeded Gaussian rational with a nonzero imaginary part."""
    re, im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.choice([-2, -1, 1, 2]), 2)
    return CR(re, im)


def gaussian_linear_system(rng, n, gamma, k, order):
    """x^(gamma+1) y' = p/q, linear in y, with Gaussian-rational coefficients.
    p_i holds d_i x^gamma y_i, d_0 = k and the other d_i nonreal, and random
    x^e y_j terms with e > gamma; q = 1 + c_1 x + c_2 x^2.  Every term takes
    one of the equation's degree-at-most-1 reads, and the only resonance is
    k, in component 0."""
    variables = ("x", "y") if n == 1 else ("x", "y1", "y2")

    def monomial(e, j):
        return (e,) + tuple(int(t == j) for t in range(n))

    ps = []
    for i in range(n):
        coeffs = {monomial(gamma, i): CR(k) if i == 0 else CR(Fraction(rng.randint(-5, 5), 2), 1)}
        for _ in range(rng.randint(1, 3)):
            e, j = rng.randint(gamma + 1, gamma + 2), rng.randrange(n)
            coeffs[monomial(e, j)] = coeffs.get(monomial(e, j), CR(0)) + nonreal(rng)
        ps.append(TS(variables, order, coeffs))
    one, x, x2 = monomial(0, None), monomial(1, None), monomial(2, None)
    q = TS(variables, order, {one: 1, x: nonreal(rng), x2: nonreal(rng)})
    return SingularODE(gamma, ps, q)


@pytest.mark.parametrize("gamma", [0, 1, 2])
def test_gaussian_linear_terms_back_substitute(gamma):
    n_max = 10
    rng = random.Random(280 + gamma)
    for n in (1, 2, 1, 2):
        k = rng.randint(1, 4)
        ode = gaussian_linear_system(rng, n, gamma, k, n_max + 4)
        run = formal_coefficients(ode, {}, n_max)
        # a_k is free, and every later order is pinned in terms of it
        assert run.free_orders == tuple(range(k, n_max + 1))
        assert all(run.coefficients[s] == (CR(0),) * n for s in range(k))
        assert check_scan_steps(ode, zero_solution(ode, n_max), n_max) is None
        seeded = formal_coefficients(ode, {k: (nonreal(rng),) + (0,) * (n - 1)}, n_max)
        assert seeded.fully_determined
        assert any(not c.is_zero for s in range(k + 1, n_max + 1) for c in seeded.coefficients[s])
        assert all(r.is_zero for r in residual(ode, seeded))
        assert check_scan_steps(ode, seeded, n_max) is None
        assert determination_order(ode, seeded, n_max) == k


def test_determination_leaves_formal_coefficients_unchanged():
    rng = random.Random(7)
    systems = list(planted_systems())[:3] + [
        random_nonlinear_system(rng, rng.choice([1, 2]), rng.choice([0, 1]), 16)
        for _ in range(12)
    ]
    for ode in systems:
        n_max = min(ORDER, ode.order - 6)
        before = formal_coefficients(ode, {}, n_max)
        determination_order(ode, zero_solution(ode, n_max), n_max)
        assert formal_coefficients(ode, {}, n_max) == before


def test_wrong_base_on_a_planted_system_raises_at_the_scanned_order():
    ode = next(planted_systems())
    base = wrong_base(ode, ORDER, 15)
    with pytest.raises(InconsistentSeed) as scan_error:
        scan_determination_order(ode, base, ORDER)
    with pytest.raises(InconsistentSeed) as error:
        determination_order(ode, base, ORDER)
    assert error.value.order == scan_error.value.order is not None


def test_determination_of_a_quadratic_resonance():
    # x y' = 2y + y^2: a_1 = 0, and with a_2 = 0 the equation
    # (m - 2) a_m = sum a_s a_(m-s) forces every a_m to 0, so k = 2; a_3^2
    # at order 6 is linear once a_3 is pinned at order 3
    ode = scalar_ode(0, {(0, 1): 2, (0, 2): 1}, order=20)
    assert determination_order(ode, zero_solution(ode, 20), 20) == 2
    # unseeded, a_2 is free and the odd orders are 0; a_4 = a_2^2 / 2 and
    # the other even orders are not constants, so they stay unpinned
    run = formal_coefficients(ode, {}, 20)
    assert run.free_orders == tuple(range(2, 21, 2))
    assert all(run.coefficients[s] == (0,) for s in range(1, 20, 2))


def test_an_opaque_equation_is_used_once_a_later_order_pins_its_factor():
    # x y1' = y1 + y1^2, x y2' = 3 y2 + x^2 y1: the y1 block is singular at
    # order 1 and the y2 block at order 3, whose equation 0 = a_1 pins the
    # y1 part of a_1 to 0.  The y1 equations at orders 2 and 3, which hold
    # a_1^2 and a_1 a_2, are then linear and pin a_2 and a_3 of y1, so only
    # the y2 part of a_3 (y2 = c x^3) stays free
    variables = ("x", "y1", "y2")
    p = [
        TS(variables, 10, {(0, 1, 0): 1, (0, 2, 0): 1}),
        TS(variables, 10, {(0, 0, 1): 3, (2, 1, 0): 1}),
    ]
    ode = SingularODE(0, p, TS(variables, 10, {(0, 0, 0): 1}))
    run = formal_coefficients(ode, {}, 8)
    assert run.free_orders == (3,)
    assert run.opaque_orders == ()
    assert all(run.coefficients[s] == (0, 0) for s in (1, 2, 4, 5, 6, 7, 8))
    status = {e.order: e.status for e in run.obstruction_ledger}
    assert (status[1], status[2], status[3], status[4]) == ("deferred", "deferred", "free", "resolved")
    assert determination_order(ode, zero_solution(ode, 8), 8) == 3


def test_back_substitution_of_nonzero_solution():
    # x y' = 2 y has solutions c x^2; check the recursion reproduces one
    ode = scalar_ode(0, {(0, 1): 2})
    run = formal_coefficients(ode, {2: (Fraction(3, 4),)}, 16)
    assert all(r.is_zero for r in residual(ode, run))


# ----------------------------------------------------------------------
# the linear solver, against row ranks from linalg


def gaussian(rng):
    return CR(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.choice([0, 0, rng.randint(-2, 2)]), rng.randint(1, 2)),
    )


def affine_equations(rng, count, symbols=8):
    """Affine forms over at most ``symbols`` symbols: mostly sparse random
    ones, some combinations of two earlier forms (redundant when both were
    added) and some of those with the constant moved (inconsistent then)."""
    out = []
    for _ in range(count):
        if len(out) >= 2 and rng.random() < 0.4:
            u, v = rng.sample(out, 2)
            cu, cv = gaussian(rng), gaussian(rng)
            lin = {
                s: u.lin.get(s, CR(0)) * cu + v.lin.get(s, CR(0)) * cv
                for s in sorted(u.lin.keys() | v.lin.keys())
            }
            const = u.const * cu + v.const * cv + CR(int(rng.random() < 0.3))
            out.append(odejets._Aff(const, {s: c for s, c in lin.items() if not c.is_zero}))
            continue
        lin = {}
        for s in rng.sample(range(symbols), rng.randint(1, 3)):
            c = gaussian(rng)
            if not c.is_zero:
                lin[s] = c
        out.append(odejets._Aff(gaussian(rng), lin))
    return out


def stacked_rank(rows, symbols, with_const):
    """The row rank of the forms' coefficient rows, from linalg.rref."""
    matrix = [
        [aff.lin.get(s, CR(0)) for s in range(symbols)] + ([aff.const] if with_const else [])
        for aff in rows
    ]
    return len(rref(matrix)[1]) if matrix else 0


@pytest.mark.parametrize("seed", range(40))
def test_solver_keeps_reduced_rows_and_the_rank_of_its_equations(seed):
    rng = random.Random(seed)
    equations = affine_equations(rng, 14)
    probes = [odejets._Aff.symbol(s) for s in range(8)] + affine_equations(rng, 6)
    before = snapshot(equations + probes)
    solver, added, seen = odejets._LinearSolver(), [], []
    for eq in equations:
        status = solver.add_equation(eq)
        rank = stacked_rank(added, 8, False)
        if stacked_rank(added + [eq], 8, False) > rank:
            assert status[0] == "pivot"
        elif stacked_rank(added + [eq], 8, True) > rank:
            assert status == "inconsistent"
        else:
            assert status == "redundant"
        if status != "inconsistent":
            added.append(eq)
        seen.append(eq)
        assert len(solver.pivots) == stacked_rank(seen, 8, False)
        # eager back-substitution: no row mentions a pivot symbol
        assert not any(s in solver.pivots for row in solver.pivots.values() for s in row.lin)
        assert solver.open == {s for s, row in solver.pivots.items() if row.lin}
        for aff in added:
            assert solver.reduce(aff).is_zero
        for aff in probes + seen:
            red = solver.reduce(aff)
            assert solver.value(aff) == (None if red.lin else red.const)
    assert snapshot(equations + probes) == before


# ----------------------------------------------------------------------
# kernel chain


def test_chain_invertible_q0():
    ode = scalar_ode(1, {(0, 1): 1})
    report = kernel_chain_diagnostic(ode, {0: (0,)}, r_max=4)
    assert report.ker_q0_dim == 0
    assert all(row.terminated_at == 0 for row in report.rows)


def test_chain_singular_q0_one_step():
    # x^2 y' = x: Q0 = f_y(0,0) = 0, kernel R; first elimination step kills it
    ode = scalar_ode(1, {(1, 0): 1})
    report = kernel_chain_diagnostic(ode, {0: (0,)}, r_max=4)
    assert report.ker_q0_dim == 1
    for row in report.rows:
        assert row.terminated_at == 1
        assert row.dims == (1, 0)


def test_chain_termination_bound_scalar():
    # n = 1: the chain must terminate within n * gamma steps on the corpus
    for gamma, p in ((1, {(0, 1): 1}), (1, {(1, 0): 1})):
        ode = scalar_ode(gamma, p)
        report = kernel_chain_diagnostic(ode, {0: (0,)}, r_max=3)
        assert report.bound == gamma
        assert all(
            row.terminated_at is not None and row.terminated_at <= gamma
            for row in report.rows
        )


def test_chain_requires_gamma_positive():
    with pytest.raises(WrongGamma):
        kernel_chain_diagnostic(scalar_ode(0, {(0, 1): 1}), {0: (0,)})


# ----------------------------------------------------------------------
# properties


@settings(max_examples=15, deadline=None)
@given(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3),
    st.integers(min_value=1, max_value=4),
)
def test_seeded_runs_back_substitute(c, k):
    ode = scalar_ode(0, {(0, 1): 2})
    seed = {2: (c,)}
    run = formal_coefficients(ode, seed, 10 + k)
    assert all(r.is_zero for r in residual(ode, run))


def similar_system_3(rng, diagonal):
    """n = 3, f_y(0, 0) = S diag(diagonal) S^-1 for a seeded Gaussian-rational
    S.  p(0, 0) != 0 and q has y terms, so the linearization reads every
    part of f_y = (p_y q0 - p0 q_y) / q0^2.  Returns the system and the
    matrix."""
    while True:
        s = [[nonreal(rng) for _ in range(3)] for _ in range(3)]
        if not det(s).is_zero:
            break
    d = [[CR.coerce(diagonal[i]) if i == j else CR(0) for j in range(3)] for i in range(3)]
    m = mat_mul(mat_mul(s, d), invert(s))
    q0, qy, p0 = nonreal(rng), [nonreal(rng) for _ in range(3)], CR(1, -1)
    variables = ("x", "y1", "y2", "y3")
    unit = [tuple(int(k == j + 1) for k in range(4)) for j in range(3)]
    ps = []
    for i in range(3):
        coeffs = {(0,) * 4: p0 * (i + 1)}
        for j in range(3):
            coeffs[unit[j]] = (m[i][j] * q0 * q0 + p0 * (i + 1) * qy[j]) / q0
        ps.append(TS(variables, 4, coeffs))
    q = TS(variables, 4, {(0,) * 4: q0, **dict(zip(unit, qy))})
    return SingularODE(0, ps, q), m


def test_resonance_set_matches_the_determinant_scan():
    rng = random.Random(28)
    similar = []
    for j, k in enumerate((1, 6, 11, 17, 23, 24)):
        diagonal = (k, Fraction(5, 2), CR(1, 1)) if j % 2 else (k, -3, CR(2, -1))
        ode, m = similar_system_3(rng, diagonal)
        assert linearization_at_origin(ode) == m
        assert resonance_set(ode, ORDER) == {k}
        similar.append(ode)
    odes = [corpus_ode("res2.ode"), *planted_systems(), *similar]
    for ode in odes:
        m = linearization_at_origin(ode)
        scan = {
            k
            for k in range(1, ORDER + 1)
            if det([[m[i][j] - CR(k * (i == j)) for j in range(ode.n)] for i in range(ode.n)])
            .is_zero
        }
        assert resonance_set(ode, ORDER) == scan
    assert {max(resonance_set(ode, ORDER)) for ode in planted_systems()} == {14, 16, 18, 20}


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=-3, max_value=5),
    st.integers(min_value=-3, max_value=5),
)
def test_resonances_are_integer_eigenvalues(e1, e2):
    d = [[Fraction(e1), Fraction(0)], [Fraction(1), Fraction(e2)]]
    ode = system_ode(0, d)
    expected = {e for e in (e1, e2) if 1 <= e <= 20}
    assert resonance_set(ode, 20) == expected


# ----------------------------------------------------------------------
# the truncation edge: a_s is pinned at its own order by the equation at
# order s + gamma, which lies beyond the data when s > order - gamma


def test_unpinned_order_beyond_the_data_is_unknown():
    # x^2 y' = x*y: a_1 is free; a_8 would be pinned by the order-9 equation
    ode = scalar_ode(1, {(1, 1): 1}, order=8)
    run = formal_coefficients(ode, {}, 8)
    assert run.free_orders == (1,)
    assert run.unknown_orders == (8,)
    assert not run.fully_determined
    assert {e.order: e.status for e in run.obstruction_ledger}[8] == "unknown"
    with pytest.raises(IndeterminateAtTruncation) as info:
        determination_order(ode, zero_solution(ode, 8), 8)
    assert info.value.at_most == 8
    assert info.value.unknown_orders == (8,)
    # stored one order further, the same equation certifies the answer 1
    longer = scalar_ode(1, {(1, 1): 1}, order=10)
    assert determination_order(longer, zero_solution(longer, 8), 8) == 1


def edge_system(rng, n, gamma):
    """x^(gamma+1) y' = p/q with every monomial of p of x-degree >= gamma
    and of positive y-degree: the equation at order m has the frontier
    a_(m-gamma), y = 0 is a solution, and the diagonal x^gamma y block
    allows one resonance at most, from the integer lam.  Returns the
    monomial tables, so the same equation can be stored at any order."""
    lam = rng.randint(1, 7)
    other = Fraction(rng.choice([-3, -1, 1, 3, 5]), 2)
    p = [{} for _ in range(n)]
    for i, value in enumerate([lam, other][:n]):
        p[i][(gamma,) + tuple(int(j == i) for j in range(n))] = value
    for comp in range(n):
        for _ in range(rng.randint(1, 4)):
            ys = [0] * n
            for _ in range(rng.randint(1, 2)):
                ys[rng.randrange(n)] += 1
            x_power = gamma + rng.randint(0 if sum(ys) >= 2 else 1, 3)
            p[comp][(x_power, *ys)] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
    q = {(0,) * (n + 1): rng.choice([1, 2]), (1,) + (0,) * n: rng.randint(-2, 2)}
    return p, q


def stored(n, gamma, p, q, order):
    variables = ("x", "y") if n == 1 else ("x", "y1", "y2")
    return SingularODE(gamma, [TS(variables, order, c) for c in p], TS(variables, order, q))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.integers(min_value=3, max_value=9),
)
# draws where an equation built with a product of two coefficients, one of
# them pinned by a lower order, was left out at the shorter truncation
@example(seed=226, n=2, gamma=1, order=3)
@example(seed=524287, n=2, gamma=1, order=6)
@example(seed=4259, n=2, gamma=1, order=5)
@example(seed=23, n=2, gamma=2, order=8)
@example(seed=837, n=2, gamma=2, order=6)
@example(seed=1182, n=2, gamma=2, order=7)
def test_truncation_edge_agrees_with_a_longer_truncation(seed, n, gamma, order):
    p, q = edge_system(random.Random(seed), n, gamma)
    short = formal_coefficients(stored(n, gamma, p, q, order), {}, order)
    long = formal_coefficients(stored(n, gamma, p, q, order + gamma + 1), {}, order)
    assert not long.unknown_orders
    assert all(s > order - gamma for s in short.unknown_orders)
    for s, values in short.coefficients.items():
        assert long.coefficients[s] == values
    assert set(short.free_orders) <= set(long.free_orders)
    status = {e.order: e.status for e in long.obstruction_ledger}
    for entry in short.obstruction_ledger:
        if entry.status != "unknown":
            assert status[entry.order] == entry.status
