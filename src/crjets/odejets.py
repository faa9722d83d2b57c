"""Formal power-series solutions of x^(gamma+1) y' = p(x, y)/q(x, y).

Coefficients are matched order by order after clearing the denominator:
the x^m coefficient of q(x,y) x^(gamma+1) y' - p(x,y) couples the frontier
unknown vectors a_{m-gamma} and a_m linearly, with everything lower-order
entering polynomially.  Unknown coefficients are tracked as affine forms in
deferred scalar symbols and the accumulated equations are row-reduced
incrementally, so a coefficient skipped at its own order (a resonance, or a
singular frontier block) is revisited automatically when later equations
constrain it.  Coefficients that no equation ever pins are reported free.
The equation at order ``s + gamma`` is the one that pins ``a_s`` at its own
order; for ``s > order - gamma`` it lies beyond the stored truncation, so an
unpinned coefficient there is reported unknown, not free.

Products of two still-deferred symbols would leave the linear regime, so
each order's equations are evaluated against the solver, with what the
lower orders have pinned put in.  An equation that still holds a product
of two unpinned forms is left out (recorded as opaque) and evaluated again
whenever the solver gains a pivot.  So x y' = 2y + y^2, which pins a_3 at
order 3, uses its order-6 equation with a_3^2 = 0.  A left-out equation can
leave an order free that the full equation pins.  The linear test corpus
never produces one.  ``determination_order`` builds and eliminates the
system once and scans k = 0, 1, 2, ..., adding the seed equations
a_k = base_k to that one system at each step and evaluating its left-out
equations again.

Each system lists the terms of p and q once, with their y-degrees and the
coefficients of p negated.  A term of degree at most 1 in y reads the
table of unknowns directly; only products of y go through ``power``.  No
form is changed in place, so constant forms and scalars are shared, and a
form with no pivot symbol is not reduced.  The solver back-substitutes a
new pivot only into the rows that still hold a symbol, which it keeps in
an index; forms are summed in one pass into one accumulator.
``resonance_set`` runs Horner's rule on Gaussian integers over one common
denominator.  The frontier kernels (how many components of a_s stay
unpinned once its own equation is in) feed only the ledger, so
``formal_coefficients``, which prints it, measures them as the elimination
yields each settled order, and ``determination_order`` does not.

Coefficients are stored Taylor-normalized (a_s = y^(s)(0)/s!), which keeps
the integers small and absorbs the binomial bookkeeping of the derivative
formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from . import linalg
from .rational import ComplexRational as CR, numerators
from .series import TruncatedSeries


class OdeError(Exception):
    pass


class WrongGamma(OdeError):
    pass


class IndeterminateAtTruncation(OdeError):
    """The answer depends on orders whose pinning equation is beyond the data.

    ``at_most`` is the answer certified as an upper bound; ``unknown_orders``
    are the orders the truncation leaves undecided.
    """

    def __init__(self, at_most, unknown_orders):
        orders = ",".join(map(str, unknown_orders))
        super().__init__(
            f"indeterminate at this truncation: at most {at_most}, orders {orders} unknown"
        )
        self.at_most = at_most
        self.unknown_orders = tuple(unknown_orders)


class ChainBeyondData(OdeError):
    """The kernel chain needs Phi_``order``, the x^order coefficient of f_y
    along the base solution, which data of order ``data`` leave unknown:
    f_y loses one order, so they certify Phi_d for d < data only."""

    def __init__(self, order, data):
        super().__init__(f"kernel chain needs Phi_{order}, uncertified by order-{data} data")
        self.order = order
        self.data = data


class InconsistentSeed(OdeError):
    """``order`` is the first equation order that contradicts the seed."""

    def __init__(self, order):
        super().__init__(f"no formal solution extends the seed (order {order})")
        self.order = order


class SingularODE:
    """Data (gamma, p, q) with any parameters already substituted.

    ``p`` is a list of series, one per unknown component, in variables
    (x, y1, ..., yn); ``q`` is a scalar series in the same variables with
    q(0, 0) != 0.  ``theta`` records the substituted parameter values.
    """

    def __init__(self, gamma: int, p, q: TruncatedSeries, theta=()):
        if gamma < 0:
            raise OdeError("gamma must be nonnegative")
        self.gamma = gamma
        self.p = list(p)
        self.q = q
        self.theta = tuple(Fraction(t) for t in theta)
        if not self.p:
            raise OdeError("empty right-hand side")
        variables = self.p[0].variables
        for comp in self.p:
            if comp.variables != variables:
                raise OdeError("p components disagree on variables")
        if q.variables != variables:
            raise OdeError("q disagrees with p on variables")
        if len(self.p) != len(variables) - 1:
            raise OdeError("p needs one component per unknown")
        orders = {comp.order for comp in self.p} | {q.order}
        if len(orders) != 1:
            raise OdeError("p and q truncation orders must be equal")
        if q.constant_term().is_zero:
            raise OdeError("q(0, 0) must be nonzero")
        self.variables = variables
        self.n = len(variables) - 1
        self.order = q.order


# ----------------------------------------------------------------------
# affine scalars over deferred symbols

_ZERO, _ONE, _MINUS_ONE = CR(0), CR(1), CR(-1)


class _Aff:
    """An affine form const + sum lin[sym] * sym, or an opaque value.  It is
    never changed in place, so operations may return an operand itself."""

    __slots__ = ("const", "lin", "opaque")

    def __init__(self, const=_ZERO, lin=None, opaque=False):
        self.const = const
        self.lin = lin or {}
        self.opaque = opaque

    @classmethod
    def symbol(cls, sym):
        return cls(_ZERO, {sym: _ONE})

    def scale(self, c: CR):
        if c.is_zero:
            return _ZERO_FORM
        if self.opaque or c == 1:
            return self
        return _Aff(self.const * c, {s: v * c for s, v in self.lin.items()})

    def mul(self, other):
        if self.opaque or other.opaque or (self.lin and other.lin):
            return _OPAQUE
        if other.lin:
            return other.scale(self.const)
        return self.scale(other.const)

    @property
    def is_zero(self):
        return not self.opaque and self.const.is_zero and not self.lin


# shared constant forms: no form is changed in place
_ZERO_FORM, _OPAQUE = _Aff(), _Aff(opaque=True)


def _put(lin: dict, sym, c: CR):
    """Add c to the coefficient of ``sym`` in the accumulator ``lin``, in
    place, dropping a zero."""
    acc = lin.get(sym)
    if acc is None:
        lin[sym] = c
    else:
        acc = acc + c
        if acc.is_zero:
            del lin[sym]
        else:
            lin[sym] = acc


def _add_scaled(const, lin: dict, aff: _Aff, c: CR):
    """const + c * aff for a non-opaque ``aff``: its linear part is summed
    into ``lin`` and the new constant is returned; ``_ONE`` multiplies nothing."""
    unit = c is _ONE
    if not aff.const.is_zero:
        const = const + (aff.const if unit else aff.const * c)
    for s, v in aff.lin.items():
        _put(lin, s, v if unit else c if v is _ONE else v * c)
    return const


def _terms(series: TruncatedSeries, negate: bool) -> list:
    """Each term of ``series`` as (x exponent, y exponents, y degree, the y
    slot of a linear term, coefficient), the coefficient negated on request."""
    return [
        (mi[0], mi[1:], degree, mi.index(1, 1) - 1 if degree == 1 else None, -c if negate else c)
        for mi, c in series.coefficients.items()
        for degree in (sum(mi[1:]),)
    ]


class _Evaluation:
    """The x^m coefficients of q x^(gamma+1) y' - p along the table ``a``,
    evaluated against ``solver``: a product of two forms that both hold a
    symbol is taken after the solver has put in its pivots, so it is opaque
    only while both factors still hold an unpinned symbol.  The result
    agrees with the full equation on the solution set of the equations
    already added.  The x^c coefficients of the powers y^d are kept; an
    opaque one is computed again once the solver has gained a pivot."""

    def __init__(self, ode: SingularODE, a, solver):
        self.ode, self.a, self.solver = ode, a, solver
        self.powers: dict[tuple, tuple] = {}  # (d, c) -> (pivot count, form)
        self.p_terms = [_terms(comp, True) for comp in ode.p]
        self.q_terms = _terms(ode.q, False)

    def _times(self, u: _Aff, v: _Aff) -> _Aff:
        if u.lin and v.lin:
            u = self.solver.reduce(u)
            if u.lin:
                v = self.solver.reduce(v)
        return u.mul(v)

    def power(self, d: tuple, c: int) -> _Aff:
        """The x^c coefficient of prod_i y_i^d_i, for d != 0."""
        total = sum(d)  # every caller passes c >= total: below it, y(0) = 0 gives zero
        i = next(k for k, e in enumerate(d) if e)
        if total == 1:
            return self.a[c][i]
        stamp = len(self.solver.pivots)
        kept = self.powers.get((d, c))
        if kept is not None and (kept[0] == stamp or not kept[1].opaque):
            return kept[1]
        rest = d[:i] + (d[i] - 1,) + d[i + 1 :]
        const, lin = _ZERO, {}
        for j in range(1, c - total + 2):
            term = self._times(self.a[j][i], self.power(rest, c - j))
            if term.opaque:
                acc = term
                break
            const = _add_scaled(const, lin, term, _ONE)
        else:
            acc = _Aff(const, lin)
        self.powers[(d, c)] = (stamp, acc)
        return acc

    def equation(self, m: int, i: int) -> _Aff:
        """Component i of the x^m coefficient of q x^(gamma+1) y' - p,
        summed in one pass; opaque as soon as one term is."""
        a, const, lin = self.a, _ZERO, {}
        for e, d, degree, slot, coeff in self.p_terms[i]:
            c = m - e  # the x^c coefficient of y^d, zero for c < degree as y(0) = 0
            if degree > 1 and c >= degree:
                term = self.power(d, c)
                if term.opaque:
                    return term
                const = _add_scaled(const, lin, term, coeff)
            elif degree == 1 and c >= 1:
                const = _add_scaled(const, lin, a[c][slot], coeff)
            elif degree == 0 == c:
                const = const + coeff
        for e, d, degree, slot, coeff in self.q_terms:
            # x^e y^d of q, the x^c coefficient of y^d and s a_s x^(s+gamma)
            # of x^(gamma+1) y'_i, with e + c + s + gamma = m
            top = m - self.ode.gamma - e
            if degree == 0 and top >= 1:  # y^0 = 1 meets only s = top
                const = _add_scaled(const, lin, a[top][i], coeff * top)
            for s in range(1, top - degree + 1) if degree else ():
                y_part = a[top - s][slot] if degree == 1 else self.power(d, top - s)
                if not y_part.is_zero:
                    term = self._times(y_part, a[s][i])
                    if term.opaque:
                        return term
                    const = _add_scaled(const, lin, term, coeff * s)
        return _Aff(const, lin)


class _LinearSolver:
    """Incremental exact row reduction with eager back-substitution.

    Pivot rows never reference pivot symbols, so resolving a value is a
    single substitution pass.  Back-substitution finds its rows through
    ``open``, the pivots whose row still holds a symbol: a row that is a
    constant stays one, and on a linear system almost every row is.
    Adding an equation stores new rows and never changes an _Aff, so the
    solver shares the equations' forms safely.
    """

    def __init__(self):
        self.pivots: dict[int, _Aff] = {}
        self.open: set[int] = set()

    def reduce(self, aff: _Aff) -> _Aff:
        if aff.opaque or self.pivots.keys().isdisjoint(aff.lin):
            return aff
        const, lin = aff.const, {}
        for sym, c in aff.lin.items():
            row = self.pivots.get(sym)
            if row is None:
                _put(lin, sym, c)
            else:
                const = _add_scaled(const, lin, row, c)
        return _Aff(const, lin)

    def add_equation(self, aff: _Aff):
        aff = self.reduce(aff)
        if not aff.lin:
            return "redundant" if aff.const.is_zero else "inconsistent"
        sym = max(aff.lin)
        inv = _MINUS_ONE / aff.lin[sym]
        const = _ZERO if aff.const.is_zero else aff.const * inv
        expr = _Aff(const, {s: c * inv for s, c in aff.lin.items() if s != sym})
        for other in [o for o in self.open if sym in self.pivots[o].lin]:
            row = self.pivots[other]
            lin = dict(row.lin)
            const = _add_scaled(row.const, lin, expr, lin.pop(sym))
            self.pivots[other] = _Aff(const, lin)
            if not lin:
                self.open.discard(other)
        self.pivots[sym] = expr
        if expr.lin:
            self.open.add(sym)
        return ("pivot", sym)

    def value(self, aff: _Aff):
        """Numeric value if fully determined, else None.  When every symbol
        is pinned to a constant it is summed directly; otherwise the form
        is reduced, since the linear parts of the rows can cancel."""
        const = aff.const  # only table forms are read here, and those are never opaque
        for sym, c in aff.lin.items():
            row = self.pivots.get(sym)
            if row is None or row.lin:
                red = self.reduce(aff)
                return None if red.lin else red.const
            const = const + (row.const if c is _ONE else row.const * c)
        return const


# ----------------------------------------------------------------------
# results


@dataclass(frozen=True)
class LedgerEntry:
    order: int
    rank: int | None  # None when the frontier equation lies beyond the data
    kernel_dim: int | None
    status: str  # resolved | deferred | free | unknown


@dataclass(frozen=True)
class JetRecursionResult:
    coefficients: dict  # s -> tuple of CR, fully determined entries only
    free_orders: tuple
    obstruction_ledger: tuple
    n_target: int
    opaque_orders: tuple = ()
    unknown_orders: tuple = ()  # unpinned, with their pinning equation beyond the data

    @property
    def fully_determined(self) -> bool:
        return not self.free_orders and not self.unknown_orders


class _System:
    """The unknowns and equations of a seeded run, reduced by one solver.

    The table ``a`` holds the seed's constants at a seeded order and one
    deferred symbol per component at any other; ``n_eq`` is the last order
    whose equations the run uses.  An equation is added in the form that
    ``_Evaluation`` gives it against the solver; an opaque one is left out
    and evaluated again by ``settle``.  ``orders`` is the one elimination
    loop: it yields each settled order, so a caller measures what it needs
    there, and ``eliminate`` runs it measuring nothing.
    """

    def __init__(self, ode: SingularODE, seed, n_target: int):
        n = ode.n
        if n_target > ode.order:
            raise OdeError(
                f"n_target {n_target} exceeds the equation's truncation order {ode.order}"
            )
        seed = {s: [CR.coerce(x) for x in vec] for s, vec in seed.items()}
        if 0 in seed and any(not x.is_zero for x in seed[0]):
            raise OdeError("solutions are germs with y(0) = 0")
        seed.setdefault(0, [_ZERO] * n)
        self.ode, self.seed, self.n_target = ode, seed, n_target
        self.n_eq = min(ode.order, n_target + ode.gamma + n * ode.gamma + 4)
        self.a: dict[int, list[_Aff]] = {}
        next_sym = 0
        for s in range(0, self.n_eq + 1):
            if s in seed:
                self.a[s] = [_Aff(c) for c in seed[s]]
            else:
                self.a[s] = [_Aff.symbol(next_sym + i) for i in range(n)]
                next_sym += n
        self.solver = _LinearSolver()
        self.evaluation = _Evaluation(ode, self.a, self.solver)
        self.left_out: list[tuple[int, int]] = []  # (order, component)
        self.tried = 0  # the pivot count when they were last evaluated

    def add(self, eq: _Aff, order: int, i: int) -> bool:
        """Add equation ``eq`` (component i at ``order``) to the solver, or
        leave it out while it is opaque; false if it contradicts."""
        if eq.opaque:
            self.left_out.append((order, i))
            return True
        return self.solver.add_equation(eq) != "inconsistent"

    def settle(self) -> bool:
        """Evaluate the left-out equations again for as long as the solver
        gains pivots, a new pivot being the only way a factor gets pinned;
        false if one contradicts."""
        while self.left_out and self.tried != len(self.solver.pivots):
            self.tried = len(self.solver.pivots)
            left_out, self.left_out = self.left_out, []
            for order, i in left_out:
                if not self.add(self.evaluation.equation(order, i), order, i):
                    return False
        return True

    def orders(self):
        """Add the equations order by order, settling after each order, and
        yield each order once it is settled.  Raises ``InconsistentSeed`` at
        the first order that contradicts."""
        for m in range(self.n_eq + 1):
            for i in range(self.ode.n):
                if not self.add(self.evaluation.equation(m, i), m, i):
                    raise InconsistentSeed(m)
            if not self.settle():
                raise InconsistentSeed(m)
            yield m

    def eliminate(self):
        """Add every equation, measuring nothing on the way."""
        for _ in self.orders():
            pass

    def read(self):
        """Pinned coefficients, free orders and unknown orders through n_target."""
        coefficients = {}
        free_orders = []
        unknown_orders = []
        for s in range(0, self.n_target + 1):
            values = [self.solver.value(aff) for aff in self.a[s]]
            if all(v is not None for v in values):
                coefficients[s] = tuple(values)
            elif s + self.ode.gamma > self.ode.order:
                unknown_orders.append(s)
            else:
                free_orders.append(s)
        return coefficients, tuple(free_orders), tuple(unknown_orders)


def formal_coefficients(ode: SingularODE, seed, n_target: int) -> JetRecursionResult:
    """Extend a seed to a formal solution table through order ``n_target``.

    ``seed`` maps orders to coefficient vectors (Taylor-normalized); order 0
    defaults to the zero vector and must be zero when given.
    """
    system = _System(ode, seed, n_target)
    # the frontier kernel of a_s: its components still unpinned once its
    # own equation, at order s + gamma, is added (only orders in the data)
    frontier_kernel: dict[int, int] = {}
    for m in system.orders():
        s = m - ode.gamma
        if 0 <= s <= n_target and s not in system.seed:
            frontier_kernel[s] = sum(1 for aff in system.a[s] if system.solver.value(aff) is None)
    coefficients, free_orders, unknown_orders = system.read()
    ledger = []
    for s in range(0, n_target + 1):
        if s in system.seed:
            continue
        kernel = frontier_kernel.get(s)
        if kernel == 0:
            status = "resolved"
        elif s in coefficients:
            status = "deferred"
        else:
            status = "unknown" if s in unknown_orders else "free"
        rank = None if kernel is None else ode.n - kernel
        ledger.append(LedgerEntry(order=s, rank=rank, kernel_dim=kernel, status=status))

    return JetRecursionResult(
        coefficients=coefficients,
        free_orders=free_orders,
        obstruction_ledger=tuple(ledger),
        n_target=n_target,
        opaque_orders=tuple(sorted({order for order, _ in system.left_out})),
        unknown_orders=unknown_orders,
    )


# ----------------------------------------------------------------------
# plain-series helpers


def _on_solution(ode: SingularODE, table, order: int) -> dict:
    """The substitution of (x, y(x)) into the equation's series, each
    component of y a series in the independent variable x."""
    x = ode.variables[0]
    subs = {x: TruncatedSeries.variable(x, (x,), order)}
    for i, name in enumerate(ode.variables[1:]):
        coeffs = {}
        for s, vec in table.items():
            if s <= order and not CR.coerce(vec[i]).is_zero:
                coeffs[(s,)] = CR.coerce(vec[i])
        subs[name] = TruncatedSeries((x,), order, coeffs)
    return subs


def residual(ode: SingularODE, result: JetRecursionResult) -> list[TruncatedSeries]:
    """Back-substitution residual x^(gamma+1) y' - p/q through n_target - gamma - 1."""
    order = result.n_target
    subs = _on_solution(ode, result.coefficients, order)
    q_comp = ode.q.compose(subs)
    check_order = order - ode.gamma - 1
    out = []
    for i in range(ode.n):
        x, y = ode.variables[0], ode.variables[i + 1]
        dy = subs[y].partial_derivative(x).shift_up((ode.gamma + 1,))
        rhs = ode.p[i].compose(subs) / q_comp
        out.append((dy - rhs).truncate(check_order))
    return out


# ----------------------------------------------------------------------
# resonances (gamma = 0)


def linearization_at_origin(ode: SingularODE):
    """f_y(0, 0) for f = p/q, an exact n x n matrix."""
    q0 = ode.q.constant_term()
    mi_zero = (0,) * len(ode.variables)
    rows = []
    for i in range(ode.n):
        p0 = ode.p[i].coefficient(mi_zero)
        row = []
        for j in range(ode.n):
            mi = tuple(1 if k == j + 1 else 0 for k in range(len(ode.variables)))
            py = ode.p[i].coefficient(mi)
            qy = ode.q.coefficient(mi)
            row.append((py * q0 - p0 * qy) / (q0 * q0))
        rows.append(row)
    return rows


def _characteristic_polynomial(m) -> list:
    """Coefficients c_0, ..., c_n of det(kI - M) = sum c_j k^j, by
    Faddeev-LeVerrier: with B_1 = I, c_(n-j) = -tr(M B_j) / j and
    B_(j+1) = M B_j + c_(n-j) I."""
    n = len(m)
    coeffs = [_ZERO] * n + [_ONE]
    b = linalg.identity(n)
    for j in range(1, n + 1):
        mb = linalg.mat_mul(m, b)
        c = -sum((mb[i][i] for i in range(n)), _ZERO) / CR(j)
        coeffs[n - j] = c
        b = [[x + c if i == col else x for col, x in enumerate(row)] for i, row in enumerate(mb)]
    return coeffs


def resonance_set(ode: SingularODE, n_max: int) -> set[int]:
    """Positive integers k <= n_max that are eigenvalues of f_y(0, 0): the
    roots of its characteristic polynomial, its coefficients put over one
    denominator so that Horner's rule runs on Gaussian integers."""
    if ode.gamma != 0:
        raise WrongGamma("resonance analysis applies to gamma = 0")
    coeffs, _ = numerators(_characteristic_polynomial(linearization_at_origin(ode)))
    out = set()
    for k in range(1, n_max + 1):
        re = im = 0
        for a, b in reversed(coeffs):
            re, im = re * k + a, im * k + b
        if not re and not im:
            out.add(k)
    return out


# ----------------------------------------------------------------------
# determination order


def determination_order(ode: SingularODE, base: JetRecursionResult, n_max: int) -> int:
    """Minimal k such that seeding with the base solution through order k
    pins every coefficient through n_max to the base values.

    Call the run seeded through k settled when it raises
    ``InconsistentSeed`` or pins every order to the base values.  The
    search scans k = 0, 1, 2, ... and returns the first settled k, or
    re-raises its ``InconsistentSeed``, which names the order of the
    contradiction.  At k = n_max every reported order is seeded, so the
    scan ends there at the latest.

    The formal system is built and eliminated once, at k = 0.  Step k adds
    the seed equations a_k = base_k to that same system and settles it (the
    left-out equations are evaluated again while the solver gains pivots).
    A component the solver already pins needs no equation: its seed
    equation is redundant if the pinned value is base_k and contradicts
    otherwise, so the values are compared, and only the rest are added.
    This cuts out the solution set of the run seeded through k, because the
    reduced form of each equation is canonical: the solver pivots on the
    largest symbol and back-substitutes at once, so its rows are the unique
    reduced row echelon form of the subspace they cut out, and an equation
    evaluated against them depends on that subspace alone.  Opacity can only
    go away as pivots are added.  So after ``settle`` the set of added
    equations is the same least fixed point whichever order the equations
    and the seed equations arrive in, and the step and the seeded run are
    consistent or inconsistent together and pin each coefficient to the same
    value.  A contradicted step reruns that one seeded
    ``formal_coefficients`` run for the order it names.  A left-out
    equation can leave orders free that the full equation pins, so on a
    system with one the answer can exceed the least k.

    An unknown order (its pinning equation beyond the truncation) is never
    pinned, so it keeps a run from settling.  If run k - 1 fails to settle
    only through unknown orders, the minimal k is not certified:
    ``IndeterminateAtTruncation`` is raised with k as the upper bound.
    """
    if not base.fully_determined:
        raise OdeError("base solution is not fully determined")
    for s in range(0, n_max + 1):
        if s not in base.coefficients:
            raise OdeError("base solution table is incomplete")

    system = _System(ode, {0: base.coefficients[0]}, n_max)
    system.eliminate()

    def seed(aff: _Aff, value, k: int, i: int) -> bool:
        # a table form is never opaque nor changed, so the equation shares its lin
        pinned = system.solver.value(aff)
        if pinned is not None:
            return pinned == value
        return system.add(_Aff(aff.const - value, aff.lin), k, i)

    top = min(n_max, ode.order - ode.gamma)  # the orders that can be free
    below = ()  # the unknown orders that alone kept run k - 1 from settling
    unpinned = 1  # no order in k + 1 .. unpinned - 1 has a free component
    for k in range(0, n_max + 1):
        # a[0] holds the seed's constants, so step 0 adds nothing
        seeded = all(
            seed(aff, value, k, i)
            for i, (aff, value) in enumerate(zip(system.a[k], base.coefficients[k]))
        )
        if not (seeded and system.settle()):
            formal_coefficients(ode, {s: base.coefficients[s] for s in range(k + 1)}, n_max)
            raise AssertionError("the seeded run extends a contradicted seed")
        # pins only accumulate, so the lowest unpinned order only moves up
        unpinned = max(unpinned, k + 1)
        while unpinned <= top and all(
            system.solver.value(aff) is not None for aff in system.a[unpinned]
        ):
            unpinned += 1
        if unpinned <= top:
            below = ()  # a free order: not settled
            continue
        coefficients, _, unknown_orders = system.read()
        if any(v != base.coefficients[s] for s, v in coefficients.items()):
            below = ()
        elif unknown_orders:
            below = unknown_orders
        elif below:
            raise IndeterminateAtTruncation(k, below)
        else:
            return k
    raise AssertionError("the run seeded through n_max pins every order")


def zero_solution(ode: SingularODE, n_target: int) -> JetRecursionResult:
    """The zero coefficient table, validated as a formal solution."""
    for comp in ode.p:
        if not comp.zero_out(*ode.variables[1:]).is_zero:
            raise OdeError("y = 0 does not solve the equation: p(x, 0) != 0")
    table = {s: tuple([_ZERO] * ode.n) for s in range(n_target + 1)}
    return JetRecursionResult(
        coefficients=table,
        free_orders=(),
        obstruction_ledger=(),
        n_target=n_target,
    )


# ----------------------------------------------------------------------
# kernel chain diagnostics (gamma >= 1)


@dataclass(frozen=True)
class ChainRow:
    r: int
    dims: tuple  # (dim ker Q0, dim of step-1 and step-2 intersections) as available
    terminated_at: object  # step index or None


@dataclass(frozen=True)
class ChainReport:
    rows: tuple
    ker_q0_dim: int
    bound: int  # n * gamma, the termination bound

    @property
    def terminated(self) -> bool:
        return all(row.terminated_at is not None for row in self.rows)


def _phi_series(ode: SingularODE, table, order: int):
    """Matrix x-series of f_y(x, y(x)) composed with the base solution."""
    subs = _on_solution(ode, table, order)
    q_comp = ode.q.compose(subs)
    entries = []
    for i in range(ode.n):
        p_comp = ode.p[i].compose(subs)
        row = []
        for j in range(ode.n):
            name = ode.variables[j + 1]
            py = ode.p[i].partial_derivative(name).compose(subs)
            qy = ode.q.partial_derivative(name).compose(subs)
            row.append((py * q_comp - p_comp * qy) / (q_comp * q_comp))
        entries.append(row)
    return entries


def _q_block(entries, j: int, gamma: int, n: int, data: int):
    """gamma*n square block: d! * Phi_d at offset d = j*gamma + i - i';
    ChainBeyondData if it needs a Phi_d that order-``data`` data leave unknown."""
    size = gamma * n
    block = [[CR(0)] * size for _ in range(size)]
    for i in range(1, gamma + 1):
        for ip in range(1, gamma + 1):
            d = j * gamma + i - ip
            if d < 0:
                continue
            if d >= data:
                raise ChainBeyondData(d, data)
            fac = factorial(d)
            for bi, row in enumerate(entries):
                for bj, entry in enumerate(row):
                    block[(i - 1) * n + bi][(ip - 1) * n + bj] = entry.coefficient((d,)) * fac
    return block


def _c_matrix(r: int, gamma: int, n: int):
    size = gamma * n
    out = [[CR(0)] * size for _ in range(size)]
    for i in range(1, gamma + 1):
        c = CR(comb(r * gamma + i, gamma + 1))
        for bi in range(n):
            out[(i - 1) * n + bi][(i - 1) * n + bi] = c
    return out


def kernel_chain_diagnostic(
    ode: SingularODE, base_table, r_max: int = 8
) -> ChainReport:
    """Kernel/image chain dimensions for the block systems at gamma >= 1.

    ``base_table`` maps orders to coefficient vectors of the reference
    solution (only low orders are consumed).  For each r the report lists
    dim ker Q0 and the intersection dimensions after one and two elimination
    steps, stopping at the step where the intersection dies.  Q1 and Q2 are
    built when a row first needs them; a block that needs Phi_d beyond the
    data raises ChainBeyondData, since reading it as zero could change the
    verdict.
    """
    if ode.gamma < 1:
        raise WrongGamma("kernel chain analysis applies to gamma >= 1")
    gamma, n = ode.gamma, ode.n
    l_order = 3 * gamma  # Phi_0 .. Phi_(l_order - 1) fill the blocks Q0, Q1, Q2
    # order-0 data certify no Phi, and f_y has no series to build
    entries = _phi_series(ode, base_table, min(ode.order, l_order)) if ode.order else None
    block = cache(lambda j: _q_block(entries, j, gamma, n, ode.order))
    q0 = block(0)
    ker = linalg.kernel_basis(q0)
    ker_dim = len(ker)
    rows = []
    for r in range(1, r_max + 1):
        if ker_dim == 0:
            rows.append(ChainRow(r, (0,), terminated_at=0))
            continue
        dims = [ker_dim]
        d1 = linalg.mat_sub(_c_matrix(r + 1, gamma, n), block(1))  # C(r+1) - Q1
        a1_next = linalg.invert(d1)
        if a1_next is None:
            rows.append(ChainRow(r, tuple(dims), None))  # step-1 matrix singular
            continue
        im_q0 = linalg.image_basis(q0)
        v1_r = [linalg.mat_vec(a1_next, v) for v in im_q0]
        inter1 = linalg.span_intersection(ker, v1_r)
        dims.append(len(inter1))
        if not inter1:
            rows.append(ChainRow(r, tuple(dims), terminated_at=1))
            continue
        a1_next2 = linalg.invert(linalg.mat_sub(_c_matrix(r + 2, gamma, n), block(1)))
        if a1_next2 is None:
            rows.append(ChainRow(r, tuple(dims), None))  # step-2 shift singular
            continue
        d2 = linalg.mat_sub(d1, linalg.mat_mul(linalg.mat_mul(q0, a1_next2), block(2)))
        a2 = linalg.invert(d2)
        if a2 is None:
            rows.append(ChainRow(r, tuple(dims), None))  # step-2 matrix singular
            continue
        v1_r1 = [linalg.mat_vec(a1_next2, v) for v in im_q0]
        v2_r = [linalg.mat_vec(a2, linalg.mat_vec(q0, v)) for v in v1_r1]
        inter2 = linalg.span_intersection(ker, v2_r)
        dims.append(len(inter2))
        rows.append(ChainRow(r, tuple(dims), terminated_at=2 if not inter2 else None))
    return ChainReport(rows=tuple(rows), ker_q0_dim=ker_dim, bound=n * gamma)
