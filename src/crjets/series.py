"""Truncated multivariate formal power series.

A :class:`TruncatedSeries` is a sparse table of monomial coefficients
together with the total degree ``order`` through which the coefficients are
certified.  Coefficients beyond ``order`` are *unknown*, not zero, so every
operation propagates certification honestly: binary operations take the
minimum order, differentiation lowers it, dividing out a monomial factor
lowers it by the factor's degree.  Nothing ever raises an order except
multiplication by an exactly-known monomial.

Coefficients are Gaussian rationals: each is a ``ComplexRational`` stored
as ``(a + b*i) / d`` over Python ints in lowest terms, and equality and zero
tests are exact.  A series built with a ``tolerance`` holds ``complex``
coefficients instead, any of magnitude below the tolerance normalized to
absent.  Such a float series is a container for oracles outside the
package: it can be built (directly or by :func:`to_float`), added,
subtracted, negated, compared, printed and mapped structurally, but every
product-based operation refuses it with :class:`BackendMismatch`.

Every series product runs one kernel, :func:`_product`, on packed tables:
the exponents of a monomial and its total degree packed into one int
(Monagan & Pearce, CASC 2007; see :class:`_Layout`), and the coefficients
written as Gaussian integers over one common denominator (as FLINT's
``fmpq_poly`` does), so the real and imaginary parts of each result
coefficient are sums of plain int products.  ``__mul__`` packs its left
operand, multiplies and unpacks.  A composition runs in a packed core,
:meth:`TruncatedSeries._compose`: it packs its leaves, stays packed
through every inner product and sum, dividing out the content after each
product, and returns the packed table ``(layout, order, {key: (re, im)},
d)`` on every path.  Only public results are unpacked, each coefficient
reduced once, so they are the canonical values term-by-term arithmetic
gives: :meth:`TruncatedSeries.compose` unpacks the core's table, while the
Newton steps of ``MapGerm.inverse`` and the mapping residual go on
computing with it (:func:`_minus_variable`, :func:`_newton_update`,
:func:`_difference`).  A series keeps one packed cache, its powers keyed
by order and box, the first of which is its right operand of ``*``; each
packed table is in key order, so the terms that fit a degree budget are a
prefix of it: Horner accumulators, power lists and Newton steps multiply
by one series many times.

Composition makes each series product its result needs once: one-term
substitutions ``c*m`` (bare variables among them) and zero substitutions
move or drop exponents without any product; the innermost remaining slot
is summed by truncated Horner's rule when the outer has at most as many
exponent groups there as its substitution has terms or the substitution is
a series in one monomial, and by powers otherwise, since the powers of a
sparse substitution stay sparse where a Horner accumulator fills in; the
powers are kept on the substituted series for every later composition at
the same order.  A box on the target exponents drops every monomial above
it from the substitutions and every product, for callers that read one
coefficient slot.  :func:`implicit_solve` composes each step only at the
degree that step certifies, and closes with one composition at the full
order.

Division, inverses and k-th roots make no series product: one pass,
:func:`_graded`, makes the result homogeneous layer by homogeneous layer
from the layers below it, by the division recurrence or by J.C.P. Miller's
power recurrence.  :func:`solve_composition` solves ``outer(g) = rhs`` one
degree at a time from a table of the coefficients of the powers of ``g``;
its one composition is the closing check.

The public constructor checks every multi-index and coerces every
coefficient.  Ring results skip those checks, since their inputs were
checked when they were built, and each drops only what it can make: a sum
a zero where two terms collide and the monomials above a lower order, a
truncation the monomials above its order, and a lift and the parser a
zero where terms merge, through the trusted path.  Every other ring
result makes neither and is wrapped as it is; a product or a composition
unpacks its packed result without its zeros.

Mixing exact and float series is refused.  K-th roots are taken of monic
series only: the unit part's leading coefficient must be 1, so the root is
a binomial series over Q(i) and no branch is ever chosen; callers divide
the leading coefficient out first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Mapping

from .rational import ComplexRational, _reduced, format_scalar, numerators

MultiIndex = tuple[int, ...]


def grlex_key(mi: MultiIndex):
    """Graded-lexicographic sort key; fixes the deterministic term order."""
    return (sum(mi), mi)


def lowest_term(*series: "TruncatedSeries") -> tuple | None:
    """(position, multi-index, coefficient) of the grlex-least term among
    the given series, the earlier series winning a tie; None if all are zero."""
    found = [(grlex_key(mi), pos) for pos, s in enumerate(series) for mi in s.coefficients]
    if not found:
        return None
    (_, mi), pos = min(found)
    return pos, mi, series[pos].coefficients[mi]


class SeriesError(Exception):
    """Base class for series-ring failures."""


class VariableMismatch(SeriesError):
    pass


class BackendMismatch(SeriesError):
    pass


class UnknownVariable(SeriesError):
    pass


class DivisorOrderExceedsDividend(SeriesError):
    """The dividend is not divisible by the divisor's monomial factor."""


class NonmonomialLeadingForm(SeriesError):
    """Divisor's lowest-degree form is not a monomial times a unit."""


class SupportNotKthPower(SeriesError):
    pass


class ZeroSeriesRoot(SeriesError):
    pass


class RootNotInField(SeriesError):
    """The root is not taken: the series is not monic."""


class NoContraction(SeriesError):
    """Implicit solve cannot converge order by order."""


class CompositionError(SeriesError):
    pass


@dataclass(frozen=True)
class UnknownOrder:
    """Vanishing order not witnessed below the truncation: certified >= at_least."""

    at_least: int


class TruncatedSeries:
    # _powers: {(order, box limits): [S, S^2, ...]} packed (see _powers_of),
    # filled when this series is a right factor of * or substituted into a
    # general slot of compose
    __slots__ = ("variables", "order", "coefficients", "tolerance", "_powers")

    def __init__(self, variables, order, coefficients=None, tolerance=None):
        variables = tuple(variables)
        if order < 0:
            raise SeriesError("truncation order must be nonnegative")
        clean = {}
        n = len(variables)
        if coefficients:
            for mi, c in coefficients.items():
                mi = tuple(mi)
                if len(mi) != n:
                    raise SeriesError(f"multi-index {mi} has wrong arity for {variables}")
                if any(e < 0 for e in mi):
                    raise SeriesError(f"negative exponent in {mi}")
                if sum(mi) > order:
                    continue
                if tolerance is None:
                    c = ComplexRational.coerce(c)
                    if c.is_zero:
                        continue
                else:
                    c = complex(c.to_complex() if isinstance(c, ComplexRational) else c)
                    if abs(c) < tolerance:
                        continue
                if mi in clean:
                    raise SeriesError(f"duplicate multi-index {mi}")
                clean[mi] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "_powers", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables, order):
        return cls(variables, order, {})

    @classmethod
    def constant(cls, value, variables, order, tolerance=None):
        variables = tuple(variables)
        return cls(variables, order, {(0,) * len(variables): value}, tolerance)

    @classmethod
    def variable(cls, name, variables, order):
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(name)
        mi = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, order, {mi: 1})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, mi: MultiIndex):
        mi = tuple(mi)
        if len(mi) != len(self.variables):
            raise SeriesError("multi-index arity mismatch")
        return self.coefficients.get(mi, ComplexRational(0))

    def constant_term(self):
        return self.coefficient((0,) * len(self.variables))

    def terms(self):
        """Deterministic (multi-index, coefficient) iteration in grlex order."""
        for mi in sorted(self.coefficients, key=grlex_key):
            yield mi, self.coefficients[mi]

    def _check_partner(self, other: "TruncatedSeries"):
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")
        if (self.tolerance is None) != (other.tolerance is None):
            raise BackendMismatch("cannot mix exact and float series")

    def _check_exact(self):
        if self.tolerance is not None:
            raise BackendMismatch("a float series is a container: it has no products")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.variables, self.order, self.tolerance)
        self._check_partner(other)
        order, tolerance = min(self.order, other.order), self.tolerance
        # only a higher order leaves monomials to cut, and only a collision a zero
        out = _cut(self, order)
        for mi, c in _cut(other, order).items():
            if mi in out:
                c = out[mi] + c
                if (abs(c) < tolerance) if tolerance is not None else not c:
                    del out[mi]
                    continue
            out[mi] = c
        return _series(self.variables, order, out, tolerance)

    __radd__ = __add__

    def __neg__(self):
        out = {mi: -c for mi, c in self.coefficients.items()}
        return _series(self.variables, self.order, out, self.tolerance)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.variables, self.order, self.tolerance)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        self._check_exact()
        if not isinstance(other, TruncatedSeries):
            scal = ComplexRational.coerce(other)
            out = {mi: c * scal for mi, c in self.coefficients.items()} if scal else {}
            return _series(self.variables, self.order, out, None)
        self._check_partner(other)
        order = min(self.order, other.order)
        b = _powers_of(other, other.order, (), other.coefficients.items())[0]
        table, d = _product(*b.layout.pack(self.coefficients.items(), order), b, order)
        return _series(self.variables, order, b.layout.unpack(table, d), None)

    __rmul__ = __mul__

    def pow(self, k: int):
        if k < 0:
            raise SeriesError("negative powers need an explicit divide")
        self._check_exact()
        result = TruncatedSeries.constant(1, self.variables, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    __pow__ = pow

    def truncate(self, new_order: int) -> "TruncatedSeries":
        if new_order > self.order:
            raise SeriesError("cannot raise a certification order by truncation")
        if new_order == self.order:
            return self  # immutable, and keeps the cached powers
        return _series(self.variables, new_order, _cut(self, new_order), self.tolerance)

    # ------------------------------------------------------------------
    # division

    def _monomial_gcd(self) -> MultiIndex:
        it = iter(self.coefficients)
        g = list(next(it))
        for mi in it:
            for i, e in enumerate(mi):
                if e < g[i]:
                    g[i] = e
        return tuple(g)

    def _shift_down(self, g: MultiIndex) -> "TruncatedSeries":
        out = {}
        for mi, c in self.coefficients.items():
            if any(e < ge for e, ge in zip(mi, g)):
                raise DivisorOrderExceedsDividend(
                    f"monomial {mi} not divisible by factor {g}"
                )
            out[tuple(e - ge for e, ge in zip(mi, g))] = c
        return _series(self.variables, self.order - sum(g), out, self.tolerance)

    def shift_up(self, g: MultiIndex) -> "TruncatedSeries":
        """Multiply by the exactly-known monomial with exponents ``g``."""
        g = tuple(g)
        out = {tuple(map(add, mi, g)): c for mi, c in self.coefficients.items()}
        return _series(self.variables, self.order + sum(g), out, self.tolerance)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit (nonzero constant term): ``1``
        divided by it (see :meth:`divide`)."""
        self._check_exact()
        if self.constant_term().is_zero:
            raise NonmonomialLeadingForm("inverse of a non-unit")
        return TruncatedSeries.constant(1, self.variables, self.order).divide(self)

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient q with other * q == self through the certified order.

        The divisor must factor as monomial * unit; the dividend must be
        divisible by that monomial.  With ``N`` and ``U`` the dividend and
        the divisor with the monomial divided out, the quotient is found
        layer by layer, ``Q_d = (N_d - sum_{k>=1} U_k Q_{d-k}) / U_0`` (see
        :func:`_graded`), with no inverse series and no product.
        """
        self._check_exact()
        if not isinstance(other, TruncatedSeries):
            return self * (ComplexRational(1) / ComplexRational.coerce(other))
        self._check_partner(other)
        if other.is_zero:
            raise DivisorOrderExceedsDividend(
                f"zero divisor (vanishing order certified only >= {other.order + 1})"
            )
        g = other._monomial_gcd()
        unit = other._shift_down(g) if sum(g) else other
        c0 = unit.constant_term()
        if c0.is_zero:
            raise NonmonomialLeadingForm(
                "divisor's lowest-degree form is not a monomial times a unit"
            )
        num = self._shift_down(g) if sum(g) else self
        inv = ComplexRational(1) / c0
        return _graded(unit, num, min(num.order, unit.order), lambda d, k: -1, lambda d: inv)

    def __truediv__(self, other):
        return self.divide(other)

    # ------------------------------------------------------------------
    # calculus and structure maps

    def partial_derivative(self, var: str) -> "TruncatedSeries":
        """The derivative in ``var``, certified through ``order - 1``.  An
        order-0 series certifies no derivative coefficient, and no series
        has a negative order, so it raises SeriesError."""
        if var not in self.variables:
            raise UnknownVariable(var)
        if not self.order:
            raise SeriesError("an order-0 series has no certified derivative")
        idx = self.variables.index(var)
        out = {}
        for mi, c in self.coefficients.items():
            e = mi[idx]
            if e:
                out[mi[:idx] + (e - 1,) + mi[idx + 1 :]] = c * e
        return _series(self.variables, self.order - 1, out, self.tolerance)

    def conjugate(self) -> "TruncatedSeries":
        """Coefficientwise complex conjugate (same support)."""
        out = {mi: c.conjugate() for mi, c in self.coefficients.items()}
        return _series(self.variables, self.order, out, self.tolerance)

    def compose(
        self,
        substitutions: Mapping[str, "TruncatedSeries"],
        *,
        box: Mapping[str, int] | None = None,
    ) -> "TruncatedSeries":
        """Substitute a series for every variable.

        Each substituted series must have zero constant term (shift the
        outer series explicitly otherwise), and all substitutions must live
        in one common variable set.

        ``box`` maps target variables to the largest exponent kept: every
        monomial above a bound is dropped from the result, and the
        coefficients inside the box are those of the full composition.
        Exponents only add under substitution, so no term outside the box
        ever reaches one inside it, and the terms outside are dropped from
        the substitutions, the moved monomials and every product.

        The set-up filters a substitution only when a box or a lower order
        can drop a term, and finds a constant term by key lookup: a table
        holds no zero and no monomial above its order.  One scan of the
        outer keeps each monomial whose degree, weighted by slot (a move's
        degree, 1, or ``order + 1`` for zero), fits the order and whose
        moved key fits the box.

        Only the products the result needs are made, each once:

        * a substitution with one term ``c*m`` below the order costs no
          series product: an outer exponent ``e`` in its slot adds ``e``
          times the packed key of ``m`` to the target key and multiplies
          the coefficient by ``c^e`` (Gaussian integer powers of ``c``
          computed once per call), and a monomial whose moved degree
          exceeds the order is skipped; a bare variable is the case
          ``c = 1``;
        * a zero substitution drops every outer monomial that has a
          positive exponent in its slot;
        * the kept terms are grouped by their exponents in the general
          slots, one nesting level per slot.  A group at exponent
          ``e`` in a slot substituted by ``S`` of valuation ``v`` is
          evaluated over the later slots only through the degree left after
          ``S^e``, ``e*v`` below its own, and then multiplied once by
          ``S^e``.  The powers ``[S, S^2, ...]`` are kept on ``S``, keyed by
          the order and the box, so every composition that substitutes the
          same ``S`` at that order (``F`` and ``G`` of a germ over one
          inner germ, say) builds each power once.
        * the innermost general slot is summed by Horner's rule instead
          (Brent & Kung, J. ACM 25, 1978, section 2) when the outer has at
          most as many exponent groups in that slot as ``S`` has terms, or
          when ``S`` is a series in one monomial ``m``, every packed key of
          ``S`` a multiple of its lowest: ``acc_e = Q_e + S * acc_{e+1}``,
          with ``acc_e`` cut at the degree left after ``S^e``.  With the
          degree in the top field of the layout, ``key(m^j) = j * key(m)``
          and no field overflows within the order, so that test is exact.
          The powers of such an ``S`` and every sum of them share one
          support, so an accumulator cannot fill in, and Horner makes one
          product per exponent where the powers make about two: Newton's
          ``c*w/(1 - a*w)`` in ``MapGerm.inverse`` is one, carried at a
          precision where it has fewer terms than the outer has groups.
          The group test keeps the powers where ``S`` is sparse and the
          outer has many groups: the powers of ``t + 2i*z*x``, which is
          not one monomial's series, stay sparse while a Horner
          accumulator fills in, and Horner in every slot made
          ``verify_mapping`` for ``h_mobius_1.map`` on the quadric (13
          groups of ``z/(1-w)`` over that 2-term ``Q``) about 1.5x slower
          than powers, while with the test it runs at 0.7-0.9x of powers
          alone.  A dense substitution with few groups, such as the
          iterate of :func:`implicit_solve` or the inner series of the
          reality identity, takes Horner, which needs one product per
          exponent and no powers.

        All of it runs on packed tables ``{key: (re, im)}`` over one
        denominator, in the :class:`_Layout` of ``width =
        max(order.bit_length(), 1)`` bits per target slot with the total
        degree in a top field.  The leaves are built packed, the outer
        coefficients and the factors ``c^e`` of scaled moves over one
        common denominator; the powers kept on ``S`` are packed; every
        inner product calls :func:`_product`, which divides out the content
        of its result, not ``__mul__``; sums add numerators over the least
        common denominator.  :meth:`_compose` returns that packed result on
        every path, and this method unpacks it once and reduces each of its
        coefficients once.
        """
        packed = self._compose(substitutions, box)
        return _unpacked(substitutions[self.variables[0]].variables, packed)

    def _compose(self, substitutions, box=None) -> tuple:
        """:meth:`compose`'s result as the packed ``(layout, order, {key:
        (re, im)}, d)``, which may hold zeros that cancelled: for callers
        that go on computing with it, such as the Newton steps of
        ``MapGerm.inverse`` and the residual of ``verify_mapping``, and
        unpack only what they return."""
        self._check_exact()
        missing = [v for v in self.variables if v not in substitutions]
        if missing:
            raise CompositionError(f"no substitution for variables {missing}")
        subs = [substitutions[v] for v in self.variables]
        target = subs[0]
        if target.tolerance is not None:
            raise BackendMismatch("cannot mix exact and float series")
        for s in subs:
            target._check_partner(s)
            if (0,) * len(s.variables) in s.coefficients:  # a table holds no zero
                raise CompositionError("substitution has nonzero constant term")
        order = min([self.order] + [s.order for s in subs])
        variables = target.variables
        layout = _layout(max(order.bit_length(), 1), len(variables))
        limits = ()  # (target slot, largest exponent kept) of each boxed variable
        if box:
            for v in box:
                if v not in variables:
                    raise UnknownVariable(v)
            limits = tuple(sorted((variables.index(v), bound) for v, bound in box.items()))
        steps = [0] * len(subs)  # packed monomial of each one-term move, else 0
        weights = [1] * len(subs)  # least degree an outer exponent 1 brings in each slot
        scaled = []  # (outer slot, c) of one-term moves c*m with c != 1
        general = []  # (outer slot, packed [S, S^2, ...]) of the remaining slots
        for pos, s in enumerate(subs):
            terms = s.coefficients.items()
            if s.order > order or limits:  # a table holds no monomial above its own order
                terms = [(mi, c) for mi, c in terms if sum(mi) <= order]
                for j, b in limits:
                    terms = [(mi, c) for mi, c in terms if mi[j] <= b]
            if not terms:  # a zero substitution: any positive exponent exceeds the order
                weights[pos] = order + 1
            elif len(terms) > 1:
                general.append((pos, _powers_of(s, order, limits, terms)))
            else:
                (mi, c), = terms
                steps[pos] = sum(map(mul, mi, layout.scale))
                weights[pos] = sum(mi)
                if c != 1:
                    scaled.append((pos, c))
        fields, mask = [(layout.width * j, b) for j, b in limits], layout.mask
        kept = []  # (outer exponents, packed moved monomial, coefficient)
        for mi, c in self.coefficients.items():
            # every substitution has valuation >= 1, so this bounds the degree
            if sum(map(mul, mi, weights)) <= order:
                key = sum(map(mul, mi, steps))
                for shift, b in fields:
                    if key >> shift & mask > b:
                        break
                else:
                    kept.append((mi, key, c))
        nums, d = numerators([c for _, _, c in kept])
        # a scaled slot contributes c^e = (a + b*i)^e / dc^e; written over
        # dc^emax as (a + b*i)^e * dc^(emax - e), every leaf keeps one denominator
        factors = []
        for pos, c in scaled:
            ((a, b),), dc = numerators([c])
            emax = max((mi[pos] for mi, _, _ in kept), default=0)
            pw = [(1, 0)]
            for _ in range(emax):
                x, y = pw[-1]
                pw.append((x * a - y * b, x * b + y * a))
            if dc != 1:
                pw = [(x * dc ** (emax - e), y * dc ** (emax - e)) for e, (x, y) in enumerate(pw)]
                d *= dc**emax
            factors.append((pos, pw))
        # nested groups: one level per general slot, keyed by its exponent;
        # the leaves map packed moved monomials to numerators over d
        root: dict = {}
        for (mi, key, _), (re, im) in zip(kept, nums):
            for pos, pw in factors:
                x, y = pw[mi[pos]]
                re, im = re * x - im * y, re * y + im * x
            node = root
            for pos, _ in general:
                node = node.setdefault(mi[pos], {})
            if key in node:
                x, y = node[key]
                node[key] = (x + re, y + im)
            else:
                node[key] = (re, im)
        if not general:  # moves only: no product
            return layout, order, root, d
        slots = [(powers, min(k >> layout.top for k in powers[0].table)) for _, powers in general]
        pos, powers = general[-1]
        keys = powers[0].table
        low = min(keys)
        horner = len({mi[pos] for mi in self.coefficients}) <= len(keys) or not any(
            k % low for k in keys
        )
        return (layout, order, *_substitute(root, d, slots, 0, order, horner, limits))

    def rename_variables(self, mapping: Mapping[str, str]) -> "TruncatedSeries":
        """Rename argument slots within the same variable universe.

        ``mapping[v] = w`` means the slot previously fed by ``v`` is now fed
        by ``w``; exponents of merged targets add up.
        """
        for w in mapping.values():
            if w not in self.variables:
                raise UnknownVariable(w)
        return self.lift(self.variables, mapping)

    def with_variables(self, new_variables) -> "TruncatedSeries":
        """Reinterpret the slots positionally under new names (same arity)."""
        new_variables = tuple(new_variables)
        if len(new_variables) != len(self.variables):
            raise VariableMismatch("arity changed")
        return _series(new_variables, self.order, dict(self.coefficients), self.tolerance)

    def lift(self, new_variables, var_map: Mapping[str, str] | None = None) -> "TruncatedSeries":
        """Embed into a larger variable set; absent variables get exponent 0.

        ``var_map[v] = w`` feeds the slot of ``v`` into ``w``; as in
        :meth:`rename_variables`, merged exponents and coefficients add up.
        """
        new_variables = tuple(new_variables)
        var_map = var_map or {}
        pos = {}
        for v in self.variables:
            w = var_map.get(v, v)
            if w not in new_variables:
                raise UnknownVariable(w)
            pos[v] = new_variables.index(w)
        out = {}
        for mi, c in self.coefficients.items():
            mk = [0] * len(new_variables)
            for i, e in enumerate(mi):
                mk[pos[self.variables[i]]] += e
            mk = tuple(mk)
            out[mk] = out[mk] + c if mk in out else c
        return _trusted(new_variables, self.order, out, self.tolerance)

    def zero_out(self, *names: str) -> "TruncatedSeries":
        """Set the named variables to zero (drop monomials containing them)."""
        idxs = [self.variables.index(n) for n in names]
        out = {
            mi: c
            for mi, c in self.coefficients.items()
            if all(mi[i] == 0 for i in idxs)
        }
        return _series(self.variables, self.order, out, self.tolerance)

    def extract(self, fixed: Mapping[str, int], keep) -> "TruncatedSeries":
        """Coefficient series: fix exponents of some variables, keep the rest.

        Raw Taylor coefficients, no factorial normalization.  The result is
        certified to ``order - sum(fixed exponents)``.
        """
        keep = tuple(keep)
        if set(fixed) | set(keep) != set(self.variables) or set(fixed) & set(keep):
            raise SeriesError("fixed and kept variables must partition the variable set")
        new_order = self.order - sum(fixed.values())
        if new_order < 0:
            raise SeriesError("extraction beyond the certified order")
        # one comparison per monomial; the empty slice makes every read a tuple
        fixed_slots = itemgetter(*[self.variables.index(v) for v in fixed], slice(0))
        want = fixed_slots(tuple([fixed.get(v) for v in self.variables]))
        keep_idx = [self.variables.index(v) for v in keep]
        out = {
            tuple([mi[i] for i in keep_idx]): c
            for mi, c in self.coefficients.items()
            if fixed_slots(mi) == want
        }
        # a kept monomial has degree at most the order less the fixed degree
        return _series(keep, new_order, out, self.tolerance)

    def vanishing_order(self, var: str | None = None):
        """Minimal total degree (or minimal exponent of ``var``) in the support.

        Returns :class:`UnknownOrder` when the series is the zero truncation:
        the true order is then certified only to be at least ``order + 1``.
        """
        if self.is_zero:
            return UnknownOrder(self.order + 1)
        if var is None:
            return min(sum(mi) for mi in self.coefficients)
        if var not in self.variables:
            raise UnknownVariable(var)
        idx = self.variables.index(var)
        return min(mi[idx] for mi in self.coefficients)

    # ------------------------------------------------------------------
    # comparisons, formatting

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.order == other.order
            and (self.tolerance is None) == (other.tolerance is None)
            and self.coefficients == other.coefficients
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"<series[{','.join(self.variables)}] order={self.order} "
            f"{format_series(self)}>"
        )

    def __str__(self):
        return format_series(self)


def _trusted(variables, order, coefficients, tolerance) -> TruncatedSeries:
    """Build a ring result that may hold a zero without the public
    constructor's checks.

    The caller guarantees well-formed multi-indices for ``variables``, no
    duplicates, no monomial above ``order``, and coefficients already on the
    backend (``ComplexRational`` when exact, ``complex`` on floats).  Only
    zeros are dropped.
    """
    if tolerance is None:
        clean = {mi: c for mi, c in coefficients.items() if c}
    else:
        clean = {mi: c for mi, c in coefficients.items() if not abs(c) < tolerance}
    return _series(variables, order, clean, tolerance)


def _cut(s: TruncatedSeries, order: int) -> dict:
    """A new table of the terms of ``s`` of degree at most ``order``."""
    if s.order <= order:
        return dict(s.coefficients)
    return {mi: c for mi, c in s.coefficients.items() if sum(mi) <= order}


def _series(variables, order, clean, tolerance) -> TruncatedSeries:
    """A series over the table ``clean``, which has no zero coefficient and
    no monomial above ``order``, as it is."""
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "variables", variables)
    object.__setattr__(s, "order", order)
    object.__setattr__(s, "coefficients", clean)
    object.__setattr__(s, "tolerance", tolerance)
    object.__setattr__(s, "_powers", None)
    return s


def _unpacked(variables, packed: tuple) -> TruncatedSeries:
    """The series of a packed result ``(layout, order, table, d)``: each
    coefficient reduced once, zeros dropped."""
    layout, order, table, d = packed
    return _series(variables, order, layout.unpack(table, d), None)


class _Layout:
    """How a monomial in ``n`` variables packs into one int key.

    Slot ``i`` takes ``width`` bits at bit ``width * i``, and the total
    degree takes a top field at bit ``top = width * n``, so a key is
    ``sum(map(mul, mi, scale))``, a product monomial is one int addition,
    a degree budget is ``key >> top`` and a box bound one shift and mask
    (Monagan & Pearce, CASC 2007).  Callers take ``width =
    max(order.bit_length(), 1)`` and read only monomials of degree at most
    ``order``, so no field overflows.  One layout per ``(width, n)`` is
    kept for the process, with the multi-index of every key it has
    unpacked.
    """

    __slots__ = ("width", "top", "mask", "scale", "shifts", "monomials")

    def __init__(self, width: int, n: int):
        self.width, self.top, self.mask = width, width * n, (1 << width) - 1
        self.scale = [1 << width * i | 1 << width * n for i in range(n)]
        self.shifts = range(0, width * n, width)
        self.monomials = {}  # key -> multi-index

    def slot(self, key: int, j: int) -> int:
        return key >> self.width * j & self.mask

    def pack(self, items, order) -> tuple[dict, int]:
        """The terms ``(mi, c)`` of degree at most ``order`` as a packed
        table ``{key: (re, im)}`` over one denominator."""
        top, scale = self.top, self.scale
        keys, values = [], []
        for mi, c in items:
            # the top field reads at least the degree, so a carry out of a
            # slot above the order cannot bring a monomial back in
            key = sum(map(mul, mi, scale))
            if key >> top <= order:
                keys.append(key)
                values.append(c)
        nums, d = numerators(values)
        return dict(zip(keys, nums)), d

    def unpack(self, table, d) -> dict:
        """The coefficient table of a packed table over ``d``: each value
        ``(re, im)`` reduced once to its canonical ``ComplexRational``, zeros
        dropped."""
        monomials, mask, shifts = self.monomials, self.mask, self.shifts
        out = {}
        for k, (x, y) in table.items():
            if not (x or y):
                continue
            mk = monomials.get(k)
            if mk is None:
                mk = monomials[k] = tuple([k >> shift & mask for shift in shifts])
            out[mk] = _reduced(x, y, d)
        return out


@cache
def _layout(width: int, n: int) -> _Layout:
    """The one layout of ``n`` slots of ``width`` bits."""
    return _Layout(width, n)


class _Packed:
    """A packed table, the right operand of :func:`_product`: its layout
    (``width`` bits per slot and the total degree in the top field, see
    :class:`_Layout`), the order through which it is exact, and ``{key:
    (re, im)}`` with Gaussian integer values over one ``denominator``, kept
    in key order.

    A series keeps its packed powers on it (:func:`_powers_of`), the first
    of them its right operand of ``*``, so Horner accumulators, power lists
    and Newton steps pack each right operand once; the residuals of a
    Newton step are built packed (:func:`_minus_variable`).
    """

    __slots__ = ("layout", "order", "table", "denominator", "partners", "ranked")

    def __init__(self, layout, order, table, denominator):
        self.layout, self.order = layout, order
        # in key order, so by degree first: see fitting
        self.table, self.denominator = dict(sorted(table.items())), denominator
        self.partners = {}  # degree budget -> [(key, re, im)] that fit it
        self.ranked = None  # every (key, re, im), in the table's order

    def fitting(self, budget) -> list:
        """The ``(key, re, im)`` that fit ``budget``: a degree, or
        ``(limits, degree, room in each boxed slot)``.

        The degree is the top field of a key and the table is kept in key
        order, so the terms that fit a degree are a prefix of the table, in
        its order: the one sort made when the table was built serves every
        degree budget.  A boxed budget filters the table."""
        top = self.layout.top
        if type(budget) is int:
            ranked = self.ranked
            if ranked is None:
                ranked = self.ranked = [(k, re, im) for k, (re, im) in self.table.items()]
            # (k,) sorts before (k, re, im): the prefix ends at the first key of degree budget + 1
            return ranked[: bisect_left(ranked, ((budget + 1) << top,))]
        limits, room, *rest = budget
        slot = self.layout.slot
        return [
            (k, re, im)
            for k, (re, im) in self.table.items()
            if k >> top <= room and all(slot(k, j) <= r for (j, _), r in zip(limits, rest))
        ]


def _powers_of(s: TruncatedSeries, order: int, limits: tuple, terms) -> list:
    """The packed powers ``[S, S^2, ...]`` of ``s`` through ``order`` in the
    box ``limits``, kept on ``s``; ``terms``, the terms of ``s`` that fit
    both, start the list the first time.  ``__mul__`` reads ``S`` at the
    series' own order with no box, as ``compose`` does there, so a series
    that is multiplied and then substituted at its own order is packed
    once."""
    cache = s._powers
    if cache is None:
        cache = {}
        object.__setattr__(s, "_powers", cache)
    powers = cache.get((order, limits))
    if powers is None:
        layout = _layout(max(order.bit_length(), 1), len(s.variables))
        powers = cache[order, limits] = [_Packed(layout, order, *layout.pack(terms, order))]
    return powers


def _product(a: dict, da, b: _Packed, order: int, limits=()) -> tuple[dict, int]:
    """The packed table ``a`` (over ``da``) times ``b`` through ``order``,
    as a packed table and its denominator: the one product kernel, which
    ``__mul__`` and every product inside a composition call directly.

    ``a`` is in the layout of ``b`` and ``b.order >= order``; ``limits``
    holds the (slot, largest exponent) pairs of a box (see
    :meth:`TruncatedSeries.compose`).  The result, ``{key: [re, im]}``,
    has no monomial above ``order`` or outside the box, but may hold a
    zero that cancelled.  Its content is divided out (see
    :func:`_content`, which stops at the first unit), so integers do not
    grow along a chain of products.
    Nothing is reduced per coefficient here: :meth:`_Layout.unpack` does
    that once, for the table a caller returns.

    Exponents are packed into one int per monomial (Monagan & Pearce, CASC
    2007), so a product monomial is one int addition; each operand is
    written as Gaussian integers over one common denominator, as in
    FLINT's ``fmpq_poly``, so the real and imaginary parts of each product
    coefficient are sums of plain int products, and a real term of ``a``
    skips half of them.

    Each term of ``a`` meets only the terms of ``b`` that fit its degree
    budget and its room in the box, listed once per budget in ``b``'s key
    order (see :meth:`_Packed.fitting`).  The result's terms come in the
    order of their first products, as in a schoolbook loop over ``a`` and
    then ``b``.
    """
    top, slot, partners = b.layout.top, b.layout.slot, b.partners
    out: dict = {}  # key -> [re, im]
    get = out.get
    for ka, (ra, ia) in a.items():
        budget = order - (ka >> top)
        if budget < 0:
            continue
        if limits:  # the box is part of the key of the partner lists
            budget = (limits, budget, *[bound - slot(ka, j) for j, bound in limits])
            if min(budget[1:]) < 0:
                continue
        fits = partners.get(budget)
        if fits is None:
            fits = partners[budget] = b.fitting(budget)
        if ia:
            for kb, rb, ib in fits:
                k = ka + kb
                v = get(k)
                if v is None:
                    out[k] = [ra * rb - ia * ib, ra * ib + ia * rb]
                else:
                    v[0] += ra * rb - ia * ib
                    v[1] += ra * ib + ia * rb
        else:
            for kb, rb, ib in fits:
                k = ka + kb
                v = get(k)
                if v is None:
                    out[k] = [ra * rb, ra * ib]
                else:
                    v[0] += ra * rb
                    v[1] += ra * ib
    d = da * b.denominator
    g = _content(d, out)
    if g != 1:
        for v in out.values():
            v[0] //= g
            v[1] //= g
        d //= g
    return out, d


def _content(d: int, table: dict) -> int:
    """``gcd(d, *numerators of table)``, folded one term at a time and
    stopped at the first unit.  Once ``g`` is small each step is one cheap
    reduction, so the fold beats one call over every numerator even when
    the content is above 1, and builds no argument tuple."""
    g = d
    for re, im in table.values():
        if g == 1:
            break
        g = gcd(g, re, im)
    return g


def _add(acc: dict, da, part: dict, dp) -> tuple[dict, int]:
    """``acc + part`` over their least common denominator.  Either table
    may be taken over and changed: each is a product's fresh result or a
    leaf of the nested groups, which is read once."""
    if not part:
        return acc, da
    if not acc:
        return part, dp
    if da != dp:
        m = lcm(da, dp)
        if m != da:
            s = m // da
            acc = {k: (x * s, y * s) for k, (x, y) in acc.items()}
        if m != dp:
            s = m // dp
            part = {k: (x * s, y * s) for k, (x, y) in part.items()}
        da = m
    for k, (x, y) in part.items():
        prev = acc.get(k)
        acc[k] = (x, y) if prev is None else (prev[0] + x, prev[1] + y)
    return acc, da


def _difference(a: tuple, b: tuple) -> tuple:
    """``a - b`` of two packed results ``(layout, order, table, d)`` of one
    layout and order, over the least common denominator; zeros that cancel
    stay.  Both tables are taken over."""
    layout, order, ta, da = a
    if b[:2] != (layout, order):
        raise SeriesError("packed operands of a difference must share layout and order")
    tb, db = b[2:]
    return (layout, order, *_add(ta, da, {k: (-x, -y) for k, (x, y) in tb.items()}, db))


def _minus_variable(packed: tuple, j: int) -> _Packed:
    """``packed - v_j``, ``v_j`` the ``j``-th variable of the layout, as a
    right operand of :func:`_product`: the variable's key subtracted in the
    table, and every zero dropped."""
    layout, order, table, d = packed
    key = layout.scale[j]
    re, im = table.get(key, (0, 0))
    table[key] = (re - d, im)
    return _Packed(layout, order, {k: v for k, v in table.items() if v[0] or v[1]}, d)


def _newton_update(k: TruncatedSeries, residuals: list) -> TruncatedSeries:
    """``K - sum_j (dK/dv_j) * E_j`` through the order of the residuals
    ``E_j`` (each a :class:`_Packed`, all in one layout), in one pass.

    ``K`` is packed once in the residuals' layout; the partial derivative in
    slot ``j`` is read off its keys, the exponent ``e`` from the slot's
    field and the key lowered by the slot's step ``scale[j]``, its value
    ``e`` times K's and negated.  Each partial meets its residual in one
    :func:`_product`, the products are added to K's table by :func:`_add`,
    and only the sum is unpacked.  Terms of ``K`` above the order are left
    out: a partial of one has degree at least the order, and every
    residual vanishes at 0."""
    layout, order = residuals[0].layout, residuals[0].order
    table, dk = layout.pack(k.coefficients.items(), order)
    width, mask, scale = layout.width, layout.mask, layout.scale
    partials = [{} for _ in residuals]
    for key, (re, im) in table.items():
        for j, partial in enumerate(partials):
            e = key >> width * j & mask
            if e:
                partial[key - scale[j]] = (-e * re, -e * im)
    parts = [_product(partial, dk, r, order) for partial, r in zip(partials, residuals)]
    for part, dp in parts:
        table, dk = _add(table, dk, part, dp)
    return _unpacked(k.variables, (layout, order, table, dk))


def _substitute(node, d, slots, level, top, horner, limits) -> tuple[dict, int]:
    """The nested groups ``node`` of :meth:`TruncatedSeries.compose`, with
    leaves over ``d``, with the general slots from ``level`` on
    substituted, exact through degree ``top``, as a packed table and its
    denominator.  ``slots[i]`` is the packed power list and valuation of
    slot ``i``.  Terms above ``top`` may remain; the caller's product
    drops them."""
    if level == len(slots):
        return node, d
    powers, valuation = slots[level]
    if horner and level == len(slots) - 1:
        return _horner(node, powers[0], valuation, top, d, limits)
    acc, da = {}, 1
    for e, child in node.items():
        room = top - e * valuation
        if room < 0:
            continue
        part, dp = _substitute(child, d, slots, level + 1, room, horner, limits)
        if e and part:
            s = powers[0]
            while len(powers) < e:
                last = _product(powers[-1].table, powers[-1].denominator, s, s.order, limits)
                powers.append(_Packed(s.layout, s.order, *last))
            part, dp = _product(part, dp, powers[e - 1], top, limits)
        acc, da = _add(acc, da, part, dp)
    return acc, da


def _horner(node, s, valuation, top, d, limits) -> tuple[dict, int]:
    """``sum_e node[e] * s^e`` through degree ``top`` by Horner's rule:
    ``acc_e = node[e] + s * acc_{e+1}``, with ``acc_e`` exact through
    ``top - e * valuation`` because it is multiplied by ``s^e``.  The
    leaves are over ``d``; the result is a packed table and its
    denominator."""
    acc, da = {}, 1
    for e in range(max(node, default=-1), -1, -1):
        cut = top - e * valuation
        if cut < 0:
            continue
        if acc:
            acc, da = _product(acc, da, s, cut, limits)
        acc, da = _add(acc, da, node.get(e, {}), d)
    return acc, da


def _graded(unit, dividend, order, weight, scale) -> TruncatedSeries:
    """The series ``R`` through ``order`` whose homogeneous layers (its forms
    of degree ``d``) are, one after the other,

        R_d = scale(d) * (N_d + sum_{k=1..d} weight(d, k) * U_k * R_{d-k}),

    ``U_k`` and ``N_d`` the layers of ``unit`` and ``dividend``, ``weight``
    an int and ``scale`` a scalar.  Each layer reads only the lower ones, so
    one pass makes the whole result for about the cost of one product by
    ``unit``.  Division (weight -1, scale ``1 / U_0``) and the k-th root
    (Miller's recurrence, see :func:`kth_root`) are its two cases.

    The layers are packed (see :class:`_Layout`): those of ``U`` over one
    denominator, each layer of ``R`` over its own with its content divided
    out, so a layer's products are int products over the least common
    denominator of the layers they read.  Each result coefficient is
    reduced once, when it is unpacked.
    """
    layout = _layout(max(order.bit_length(), 1), len(unit.variables))
    units = [[] for _ in range(order + 1)]  # degree -> [(key, re, im)] over du
    table, du = layout.pack(unit.coefficients.items(), order)
    for key, (re, im) in table.items():
        units[key >> layout.top].append((key, re, im))
    given = [{} for _ in range(order + 1)]  # degree -> {key: (re, im)} over dn
    table, dn = layout.pack(dividend.coefficients.items(), order)
    for key, num in table.items():
        given[key >> layout.top][key] = num
    layers, out = [], {}  # layers[d]: ({key: (re, im)}, denominator), no zero value
    for d in range(order + 1):
        parts = [(weight(d, k), units[k], *layers[d - k]) for k in range(1, d + 1)]
        parts = [part for part in parts if part[0] and part[1] and part[2]]
        # a part is over du times its layer's denominator, N_d over dn
        den = du * lcm(*[part[3] for part in parts])
        if given[d]:
            den = lcm(den, dn)
        f = den // dn
        acc = {k: [re * f, im * f] for k, (re, im) in given[d].items()}
        get = acc.get
        for w, terms, low, dl in parts:
            f = w * (den // (du * dl))
            for ka, ra, ia in terms:
                ra, ia = ra * f, ia * f
                for kb, (rb, ib) in low.items():
                    k = ka + kb
                    v = get(k)
                    if v is None:
                        acc[k] = [ra * rb - ia * ib, ra * ib + ia * rb]
                    else:
                        v[0] += ra * rb - ia * ib
                        v[1] += ra * ib + ia * rb
        c = ComplexRational.coerce(scale(d))
        a, b, den = c._a, c._b, den * c._d
        layer = {k: (x * a - y * b, x * b + y * a) for k, (x, y) in acc.items() if x or y}
        g = _content(den, layer)
        layers.append(({k: (x // g, y // g) for k, (x, y) in layer.items()}, den // g))
        out.update(layout.unpack(*layers[-1]))
    return _series(unit.variables, order, out, None)


def format_series(s: TruncatedSeries) -> str:
    """Canonical series-literal text: grlex term order, signs folded."""
    if s.is_zero:
        return "0"
    parts = []
    for mi, c in s.terms():
        negate = False
        if isinstance(c, ComplexRational):
            if c.re < 0 or (c.re == 0 and c.im < 0):
                negate, c = True, -c
        else:
            if c.real < 0 or (c.real == 0 and c.imag < 0):
                negate, c = True, -c
        factors = []
        coeff_txt = format_scalar(c)
        is_one = isinstance(c, ComplexRational) and c == 1
        for v, e in zip(s.variables, mi):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if factors and is_one:
            body = "*".join(factors)
        elif factors:
            body = coeff_txt + "*" + "*".join(factors)
        else:
            body = coeff_txt
        if not parts:
            parts.append(("-" if negate else "") + body)
        else:
            parts.append(("- " if negate else "+ ") + body)
    return " ".join(parts)


def to_float(s: TruncatedSeries, tolerance: float = 1e-12) -> TruncatedSeries:
    """A float container holding the coefficients of ``s``, rounded."""
    if s.tolerance is not None:
        return TruncatedSeries(s.variables, s.order, dict(s.coefficients), tolerance)
    return TruncatedSeries(
        s.variables,
        s.order,
        {mi: c.to_complex() for mi, c in s.coefficients.items()},
        tolerance,
    )


def kth_root(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th root of a monic series.

    Requires the support to factor as monomial^k * unit (or a unit series);
    the first root (k = 1) is the series itself.  As in
    :meth:`TruncatedSeries.divide`, the monomial is the gcd of the support,
    and the quotient by it must have a constant term.  The unit's leading
    coefficient must be 1, so the root is the binomial series of the unit
    times the monomial's k-th root, over Q(i) with no branch chosen; any
    other leading coefficient raises :class:`RootNotInField`.

    The root ``B`` of the unit ``A`` is made layer by layer by J.C.P.
    Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7), written
    with the Euler operator ``E = sum_v v d/dv``, which multiplies a form of
    degree ``d`` by ``d``, so that it holds in any number of variables:
    ``B^k = A`` gives ``k A E(B) = B E(A)``, and with ``A_0 = B_0 = 1`` the
    degree-``d`` part reads ``d B_d = sum_{j>=1} (j/k - (d - j)) A_j B_{d-j}``
    (see :func:`_graded`).
    """
    s._check_exact()
    if k <= 0:
        raise SeriesError("root index must be positive")
    if s.is_zero:
        raise ZeroSeriesRoot(f"zero series certified to order {s.order}")
    if k == 1:
        return s
    g = s._monomial_gcd()
    unit = s._shift_down(g)
    c0 = unit.constant_term()
    if c0.is_zero:
        raise SupportNotKthPower("support does not factor as monomial * unit")
    if any(e % k for e in g):
        raise SupportNotKthPower(f"monomial factor {g} is not a k-th power (k={k})")
    if c0 != 1:
        raise RootNotInField(
            f"roots are taken of monic series only: leading coefficient "
            f"{format_scalar(c0)} is not 1"
        )
    one = TruncatedSeries.constant(1, unit.variables, unit.order)
    weight = lambda d, j: j - k * (d - j)  # noqa: E731
    root = _graded(unit, one, unit.order, weight, lambda d: Fraction(1, k * d) if d else 1)
    return root.shift_up(tuple(e // k for e in g))


def implicit_solve(rhs: TruncatedSeries, unknown: str) -> TruncatedSeries:
    """Unique u*(vars) with u* = rhs(vars, u*) through rhs's certified order.

    The unknown must occur only in monomials carrying positive degree in the
    remaining variables, which makes the order-by-order iteration contract.

    The sweeps ``u <- rhs(vars, u)`` start from ``u = 0`` and are composed
    only at the degree they certify.  Let ``rate`` be the least total
    degree, minus one, of a monomial ``m(vars) * unknown^k`` in ``rhs``; it
    is at least that monomial's degree in the remaining variables, so
    ``rate >= 1``.  The iterates and the solution vanish at 0 (a constant
    term in ``rhs`` makes the next composition refuse), so
    ``m * (u^k - u*^k)`` has valuation at least ``deg m + k - 1 >= rate``
    plus that of ``u - u*``: each sweep makes at least ``rate`` more
    degrees exact.  Sweep ``j`` is therefore composed at order
    ``min(order, j * rate)``, with the iterate, exact through
    ``(j - 1) * rate``, carried to that order unchanged.  One closing
    composition at the full order certifies the fixed point.
    """
    if unknown not in rhs.variables:
        raise UnknownVariable(unknown)
    u_idx = rhs.variables.index(unknown)
    for mi in rhs.coefficients:
        if mi[u_idx] >= 1 and sum(mi) - mi[u_idx] == 0:
            raise NoContraction(
                f"monomial {mi} is pure in the unknown '{unknown}'"
            )
    target_vars = tuple(v for v in rhs.variables if v != unknown)
    order = rhs.order
    rate = min((sum(mi) - 1 for mi in rhs.coefficients if mi[u_idx]), default=max(order, 1))
    subs = {v: TruncatedSeries.variable(v, target_vars, order) for v in target_vars}
    u = TruncatedSeries.zero(target_vars, 0)
    prec = 0
    while True:
        prec = min(prec + rate, order)
        carried = _series(target_vars, prec, u.coefficients, None)
        u = rhs.truncate(prec).compose({**subs, unknown: carried})
        if prec == order:
            break
    if rhs.compose({**subs, unknown: u}) != u:
        raise NoContraction("fixed point not reached at the certified order")
    return u


def solve_composition(outer: TruncatedSeries, rhs: TruncatedSeries) -> TruncatedSeries:
    """Solve outer(g) = rhs for a univariate g with g(0) = 0.

    Requires outer(0) = 0 with nonzero linear coefficient, and rhs(0) = 0.

    With ``outer = sum_j a_j x^j`` and ``P[j][n]`` the coefficient of
    ``x^n`` in ``g^j``, the ``x^n`` coefficient of outer(g) is ``a_1 g_n +
    sum_{j>=2} a_j P[j][n]``, and for ``j >= 2`` the entry ``P[j][n] =
    sum_{m>=1} g_m P[j-1][n-m]`` reads only ``g_1 .. g_{n-1}``.  So one
    pass over ``n`` fills column ``n`` of the table and solves for ``g_n``
    with scalar products alone.  One closing composition at the full order
    certifies the solution.
    """
    outer._check_exact()
    rhs._check_exact()
    if len(outer.variables) != 1 or len(rhs.variables) != 1:
        raise CompositionError("composition solve is univariate")
    var = outer.variables[0]
    lin = outer.coefficient((1,))
    if not outer.constant_term().is_zero:
        raise CompositionError("outer series must vanish at 0")
    if not rhs.constant_term().is_zero:
        raise CompositionError("right-hand side must vanish at 0")
    if lin.is_zero:
        raise CompositionError("outer series must have nonzero linear coefficient")
    order = min(outer.order, rhs.order)
    rhs = rhs.truncate(order)
    zero, lin_inv = ComplexRational(0), ComplexRational(1) / lin
    a = [outer.coefficients.get((j,), zero) for j in range(order + 1)]
    top = max(j for j, c in enumerate(a) if c)  # no row above it is read
    # powers[j][n] = P[j][n]; powers[1] is g, and row j starts at column j
    g = [zero] * (order + 1)
    powers = [None, g] + [[zero] * (order + 1) for _ in range(2, top + 1)]
    for n in range(1, order + 1):
        acc = rhs.coefficients.get((n,), zero)
        for j in range(2, min(n, top) + 1):
            prev = powers[j - 1]
            p = sum([g[m] * prev[n - m] for m in range(1, n - j + 2) if g[m] and prev[n - m]], zero)
            powers[j][n] = p
            if a[j] and p:
                acc = acc - a[j] * p
        g[n] = acc * lin_inv
    g = _series(rhs.variables, order, {(n,): c for n, c in enumerate(g) if c}, None)
    if not (rhs - outer.compose({var: g})).is_zero:
        raise CompositionError("triangular solve failed to close")
    return g
