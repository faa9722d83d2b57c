"""Truncated multivariate formal power series.

A :class:`TruncatedSeries` is a sparse table of monomial coefficients
together with the total degree ``order`` through which the coefficients are
certified.  Coefficients beyond ``order`` are *unknown*, not zero, so every
operation propagates certification honestly: binary operations take the
minimum order, differentiation lowers it, dividing out a monomial factor
lowers it by the factor's degree.  Nothing ever raises an order except
multiplication by an exactly-known monomial.

Two coefficient backends share one implementation:

* exact: Gaussian rational coefficients, ``tolerance is None``, equality
  and zero tests are exact; each coefficient is a ``ComplexRational``
  stored as ``(a + b*i) / d`` over Python ints in lowest terms;
* float: complex coefficients with a zero-test ``tolerance``; any
  coefficient of magnitude below the tolerance is normalized to absent.

The public constructor checks every multi-index and coerces every
coefficient.  Ring operations build their results through a trusted path
that only drops zero coefficients and monomials above the order, since
their inputs were checked when they were built.

Mixed-backend arithmetic is refused.  On the exact backend a k-th root is
taken only when it stays in the field (a leading coefficient of 1 always
does); the float backend takes the principal branch.  No computation in the
package runs on the float backend; it stays for callers that build float
series themselves, such as the benchmark's series oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping

from .rational import (
    ComplexRational,
    format_scalar,
    gaussian_kth_root,
)

MultiIndex = tuple[int, ...]


def total_degree(mi: MultiIndex) -> int:
    return sum(mi)


def grlex_key(mi: MultiIndex):
    """Graded-lexicographic sort key; fixes the deterministic term order."""
    return (sum(mi), mi)


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
    """Exact backend cannot represent the requested root."""


class NoContraction(SeriesError):
    """Implicit solve cannot converge order by order."""


class CompositionError(SeriesError):
    pass


@dataclass(frozen=True)
class UnknownOrder:
    """Vanishing order not witnessed below the truncation: certified >= at_least."""

    at_least: int


class TruncatedSeries:
    __slots__ = ("variables", "order", "coefficients", "tolerance")

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

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables, order, tolerance=None):
        return cls(variables, order, {}, tolerance)

    @classmethod
    def constant(cls, value, variables, order, tolerance=None):
        variables = tuple(variables)
        return cls(variables, order, {(0,) * len(variables): value}, tolerance)

    @classmethod
    def variable(cls, name, variables, order, tolerance=None):
        variables = tuple(variables)
        if name not in variables:
            raise UnknownVariable(name)
        mi = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, order, {mi: 1 if tolerance is None else 1.0}, tolerance)

    def _make(self, coefficients, order=None):
        """Trusted constructor for ring results in this series' space."""
        return _trusted(
            self.variables,
            self.order if order is None else order,
            coefficients,
            self.tolerance,
        )

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_exact(self) -> bool:
        return self.tolerance is None

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def _scalar(self, value):
        if self.tolerance is None:
            return ComplexRational.coerce(value)
        if isinstance(value, ComplexRational):
            return value.to_complex()
        return complex(value)

    def _zero_scalar(self):
        return ComplexRational(0) if self.tolerance is None else 0j

    def coefficient(self, mi: MultiIndex):
        mi = tuple(mi)
        if len(mi) != len(self.variables):
            raise SeriesError("multi-index arity mismatch")
        return self.coefficients.get(mi, self._zero_scalar())

    def constant_term(self):
        return self.coefficient((0,) * len(self.variables))

    def terms(self):
        """Deterministic (multi-index, coefficient) iteration in grlex order."""
        for mi in sorted(self.coefficients, key=grlex_key):
            yield mi, self.coefficients[mi]

    def support(self) -> set[MultiIndex]:
        return set(self.coefficients)

    def _check_partner(self, other: "TruncatedSeries"):
        if self.variables != other.variables:
            raise VariableMismatch(f"{self.variables} vs {other.variables}")
        if (self.tolerance is None) != (other.tolerance is None):
            raise BackendMismatch("cannot mix exact and float series")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(
                self._scalar(other), self.variables, self.order, self.tolerance
            )
        self._check_partner(other)
        order = min(self.order, other.order)
        out = dict(self.coefficients)
        for mi, c in other.coefficients.items():
            if mi in out:
                out[mi] = out[mi] + c
            else:
                out[mi] = c
        return self._make(out, order)

    __radd__ = __add__

    def __neg__(self):
        return self._make({mi: -c for mi, c in self.coefficients.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(
                self._scalar(other), self.variables, self.order, self.tolerance
            )
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            scal = self._scalar(other)
            return self._make({mi: c * scal for mi, c in self.coefficients.items()})
        self._check_partner(other)
        order = min(self.order, other.order)
        right = [(mj, sum(mj), cb) for mj, cb in other.coefficients.items()]
        # partners of each degree budget, in the partner's own term order
        partners: dict = {}
        out: dict = {}
        for mi, ca in self.coefficients.items():
            room = order - sum(mi)
            if room < 0:
                continue
            fits = partners.get(room)
            if fits is None:
                fits = partners[room] = [(mj, cb) for mj, db, cb in right if db <= room]
            for mj, cb in fits:
                mk = tuple(map(add, mi, mj))
                prev = out.get(mk)
                out[mk] = ca * cb if prev is None else prev + ca * cb
        return self._make(out, order)

    __rmul__ = __mul__

    def pow(self, k: int):
        if k < 0:
            raise SeriesError("negative powers need an explicit divide")
        result = TruncatedSeries.constant(
            self._scalar(1), self.variables, self.order, self.tolerance
        )
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
        return self._make(self.coefficients, new_order)

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

    def _shift_down(self, g: MultiIndex, strict=True) -> "TruncatedSeries":
        out = {}
        for mi, c in self.coefficients.items():
            if any(e < ge for e, ge in zip(mi, g)):
                if strict:
                    raise DivisorOrderExceedsDividend(
                        f"monomial {mi} not divisible by factor {g}"
                    )
                continue
            out[tuple(e - ge for e, ge in zip(mi, g))] = c
        return self._make(out, self.order - sum(g))

    def shift_up(self, g: MultiIndex) -> "TruncatedSeries":
        """Multiply by the exactly-known monomial with exponents ``g``."""
        g = tuple(g)
        out = {tuple(e + ge for e, ge in zip(mi, g)): c for mi, c in self.coefficients.items()}
        return self._make(out, self.order + sum(g))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit (nonzero constant term)."""
        c0 = self.constant_term()
        if self.tolerance is None:
            if c0.is_zero:
                raise NonmonomialLeadingForm("inverse of a non-unit")
            c0inv = ComplexRational(1) / c0
        else:
            if abs(c0) < self.tolerance:
                raise NonmonomialLeadingForm("inverse of a non-unit")
            c0inv = 1.0 / c0
        v = (self - c0) * c0inv  # vanishing order >= 1
        acc = TruncatedSeries.constant(
            self._scalar(1), self.variables, self.order, self.tolerance
        )
        power = acc
        for _ in range(self.order):
            power = power * (-v)
            if power.is_zero:
                break
            acc = acc + power
        return acc * c0inv

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient q with other * q == self through the certified order.

        The divisor must factor as monomial * unit; the dividend must be
        divisible by that monomial.
        """
        if not isinstance(other, TruncatedSeries):
            return self * (self._scalar(1) / self._scalar(other))
        self._check_partner(other)
        if other.is_zero:
            raise DivisorOrderExceedsDividend(
                f"zero divisor (vanishing order certified only >= {other.order + 1})"
            )
        g = other._monomial_gcd()
        unit = other._shift_down(g)
        c0 = unit.constant_term()
        bad = (c0.is_zero if unit.tolerance is None else abs(c0) < unit.tolerance)
        if bad:
            raise NonmonomialLeadingForm(
                "divisor's lowest-degree form is not a monomial times a unit"
            )
        num = self._shift_down(g) if sum(g) else self
        return num * unit.inverse()

    def __truediv__(self, other):
        return self.divide(other)

    # ------------------------------------------------------------------
    # calculus and structure maps

    def partial_derivative(self, var: str, times: int = 1) -> "TruncatedSeries":
        if var not in self.variables:
            raise UnknownVariable(var)
        if times < 1:
            raise SeriesError("differentiation count must be positive")
        idx = self.variables.index(var)
        out = {}
        for mi, c in self.coefficients.items():
            e = mi[idx]
            if e < times:
                continue
            factor = 1
            for j in range(times):
                factor *= e - j
            mk = mi[:idx] + (e - times,) + mi[idx + 1 :]
            out[mk] = c * factor
        return self._make(out, max(self.order - times, 0))

    def conjugate(self) -> "TruncatedSeries":
        """Coefficientwise complex conjugate (same support)."""
        return self._make({mi: c.conjugate() for mi, c in self.coefficients.items()})

    def compose(self, substitutions: Mapping[str, "TruncatedSeries"]) -> "TruncatedSeries":
        """Substitute a series for every variable.

        Each substituted series must have zero constant term (shift the
        outer series explicitly otherwise), and all substitutions must live
        in one common variable set on the same backend.
        """
        missing = [v for v in self.variables if v not in substitutions]
        if missing:
            raise CompositionError(f"no substitution for variables {missing}")
        subs = [substitutions[v] for v in self.variables]
        target = subs[0]
        for s in subs:
            target._check_partner(s)
            c0 = s.constant_term()
            nonzero = (not c0.is_zero) if s.tolerance is None else abs(c0) >= s.tolerance
            if nonzero:
                raise CompositionError("substitution has nonzero constant term")
        order = min([self.order] + [s.order for s in subs])
        tol = target.tolerance
        one = TruncatedSeries.constant(target._scalar(1), target.variables, order, tol)
        powers: list[list[TruncatedSeries]] = [[one] for _ in subs]
        # running sum, updated in place exactly as repeated ``acc + term`` would
        acc: dict = {}
        for mi, c in sorted(self.coefficients.items(), key=lambda kv: grlex_key(kv[0])):
            if sum(mi) > order:
                continue
            term = one * target._scalar(c)
            for pos, e in enumerate(mi):
                if e == 0:
                    continue
                cache = powers[pos]
                while len(cache) <= e:
                    cache.append(cache[-1] * subs[pos])
                term = term * cache[e]
            for mk, v in term.coefficients.items():
                prev = acc.get(mk)
                if prev is None:
                    acc[mk] = v
                    continue
                v = prev + v
                if (not v) if tol is None else abs(v) < tol:
                    del acc[mk]
                else:
                    acc[mk] = v
        return _trusted(target.variables, order, acc, tol)

    def rename_variables(self, mapping: Mapping[str, str]) -> "TruncatedSeries":
        """Rename argument slots within the same variable universe.

        ``mapping[v] = w`` means the slot previously fed by ``v`` is now fed
        by ``w``; exponents of merged targets add up.
        """
        for w in mapping.values():
            if w not in self.variables:
                raise UnknownVariable(w)
        positions = {v: i for i, v in enumerate(self.variables)}
        out: dict = {}
        for mi, c in self.coefficients.items():
            acc = [0] * len(self.variables)
            for i, e in enumerate(mi):
                v = self.variables[i]
                acc[positions[mapping.get(v, v)]] += e
            mk = tuple(acc)
            if mk in out:
                out[mk] = out[mk] + c
            else:
                out[mk] = c
        return self._make(out)

    def with_variables(self, new_variables) -> "TruncatedSeries":
        """Reinterpret the slots positionally under new names (same arity)."""
        new_variables = tuple(new_variables)
        if len(new_variables) != len(self.variables):
            raise VariableMismatch("arity changed")
        return _trusted(new_variables, self.order, self.coefficients, self.tolerance)

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
        return self._make(out)

    def extract(self, fixed: Mapping[str, int], keep) -> "TruncatedSeries":
        """Coefficient series: fix exponents of some variables, keep the rest.

        Raw Taylor coefficients, no factorial normalization.  The result is
        certified to ``order - sum(fixed exponents)``.
        """
        keep = tuple(keep)
        if set(fixed) | set(keep) != set(self.variables) or set(fixed) & set(keep):
            raise SeriesError("fixed and kept variables must partition the variable set")
        fixed_idx = [(self.variables.index(v), e) for v, e in fixed.items()]
        keep_idx = [self.variables.index(v) for v in keep]
        new_order = self.order - sum(e for _, e in fixed_idx)
        if new_order < 0:
            raise SeriesError("extraction beyond the certified order")
        out = {}
        for mi, c in self.coefficients.items():
            if all(mi[i] == e for i, e in fixed_idx):
                out[tuple(mi[i] for i in keep_idx)] = c
        return _trusted(keep, new_order, out, self.tolerance)

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
    """Build a ring result without the public constructor's checks.

    The caller guarantees well-formed multi-indices for ``variables``, no
    duplicates, and coefficients already on the backend (``ComplexRational``
    when exact, ``complex`` on floats).  Only zeros and monomials above
    ``order`` are dropped.
    """
    if tolerance is None:
        clean = {mi: c for mi, c in coefficients.items() if c and sum(mi) <= order}
    else:
        clean = {
            mi: c
            for mi, c in coefficients.items()
            if not abs(c) < tolerance and sum(mi) <= order
        }
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "variables", variables)
    object.__setattr__(s, "order", order)
    object.__setattr__(s, "coefficients", clean)
    object.__setattr__(s, "tolerance", tolerance)
    return s


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
    """Convert an exact series to the float backend (exact up to rounding)."""
    if s.tolerance is not None:
        return TruncatedSeries(s.variables, s.order, dict(s.coefficients), tolerance)
    return TruncatedSeries(
        s.variables,
        s.order,
        {mi: c.to_complex() for mi, c in s.coefficients.items()},
        tolerance,
    )


def max_coefficient_difference(a: TruncatedSeries, b: TruncatedSeries) -> float:
    """Largest |coefficient difference| through the common certified order."""
    if a.variables != b.variables:
        raise VariableMismatch(f"{a.variables} vs {b.variables}")
    order = min(a.order, b.order)

    def as_complex(c):
        return c.to_complex() if isinstance(c, ComplexRational) else complex(c)

    diff = 0.0
    for mi in set(a.coefficients) | set(b.coefficients):
        if sum(mi) > order:
            continue
        ca = as_complex(a.coefficients.get(mi, 0))
        cb = as_complex(b.coefficients.get(mi, 0))
        diff = max(diff, abs(ca - cb))
    return diff


def _binomial_series_root(v: TruncatedSeries, k: int) -> TruncatedSeries:
    """(1 + v)^(1/k) for a series v of positive vanishing order."""
    one = TruncatedSeries.constant(v._scalar(1), v.variables, v.order, v.tolerance)
    acc = one
    term = one
    if v.tolerance is None:
        alpha = Fraction(1, k)
        for j in range(1, v.order + 1):
            coeff = ComplexRational((alpha - (j - 1)) / j)
            term = term * v * coeff
            if term.is_zero:
                break
            acc = acc + term
    else:
        alpha = 1.0 / k
        for j in range(1, v.order + 1):
            coeff = (alpha - (j - 1)) / j
            term = term * v * coeff
            if term.is_zero:
                break
            acc = acc + term
    return acc


def kth_root(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Principal k-th root.

    Requires the support to factor as monomial^k * unit (or a unit series);
    the first root (k = 1) is the series itself.
    On the float backend the leading coefficient's root takes the principal
    branch; the exact backend refuses roots that leave the field.
    """
    if k <= 0:
        raise SeriesError("root index must be positive")
    if s.is_zero:
        raise ZeroSeriesRoot(f"zero series certified to order {s.order}")
    if k == 1:
        return s
    d = min(sum(mi) for mi in s.coefficients)
    lowest = [mi for mi in s.coefficients if sum(mi) == d]
    if d > 0 and len(lowest) != 1:
        raise SupportNotKthPower("lowest-degree form is not a single monomial")
    g = lowest[0] if d > 0 else (0,) * len(s.variables)
    if any(e % k for e in g):
        raise SupportNotKthPower(f"monomial factor {g} is not a k-th power (k={k})")
    try:
        unit = s._shift_down(g)
    except DivisorOrderExceedsDividend as exc:
        raise SupportNotKthPower(str(exc)) from None
    c0 = unit.constant_term()
    if s.tolerance is None:
        if c0.is_zero:
            raise SupportNotKthPower("support does not factor as monomial * unit")
        r0 = gaussian_kth_root(c0, k)
        if r0 is None:
            raise RootNotInField(
                f"principal {k}-th root of {format_scalar(c0)} is not a Gaussian rational"
            )
        scale = ComplexRational(1) / c0
    else:
        if abs(c0) < s.tolerance:
            raise SupportNotKthPower("support does not factor as monomial * unit")
        import cmath

        r0 = cmath.exp(cmath.log(c0) / k)
        scale = 1.0 / c0
    v = unit * scale - 1
    root_unit = _binomial_series_root(v, k) * r0
    half = tuple(e // k for e in g)
    return root_unit.shift_up(half)


def implicit_solve(rhs: TruncatedSeries, unknown: str, order: int | None = None) -> TruncatedSeries:
    """Unique u*(vars) with u* = rhs(vars, u*) through the target order.

    The unknown must occur only in monomials carrying positive degree in the
    remaining variables, which makes the order-by-order iteration contract.
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
    order = rhs.order if order is None else min(order, rhs.order)
    subs = {
        v: TruncatedSeries.variable(v, target_vars, order, rhs.tolerance)
        for v in target_vars
    }
    u = TruncatedSeries.zero(target_vars, order, rhs.tolerance)
    for _ in range(order + 1):
        nxt = rhs.compose({**subs, unknown: u})
        if nxt == u:
            break
        u = nxt
    check = rhs.compose({**subs, unknown: u})
    if check != u:
        raise NoContraction("fixed point not reached at the certified order")
    return u


def solve_composition(outer: TruncatedSeries, rhs: TruncatedSeries) -> TruncatedSeries:
    """Solve outer(g) = rhs for a univariate g with g(0) = 0.

    Requires outer(0) = 0 with nonzero linear coefficient, and rhs(0) = 0.
    """
    if len(outer.variables) != 1 or len(rhs.variables) != 1:
        raise CompositionError("composition solve is univariate")
    var = outer.variables[0]
    lin = outer.coefficient((1,))
    lin_zero = lin.is_zero if outer.tolerance is None else abs(lin) < (outer.tolerance or 0)
    c_out = outer.constant_term()
    c_rhs = rhs.constant_term()
    if (not c_out.is_zero if outer.tolerance is None else abs(c_out) >= outer.tolerance):
        raise CompositionError("outer series must vanish at 0")
    if (not c_rhs.is_zero if rhs.tolerance is None else abs(c_rhs) >= rhs.tolerance):
        raise CompositionError("right-hand side must vanish at 0")
    if lin_zero:
        raise CompositionError("outer series must have nonzero linear coefficient")
    order = min(outer.order, rhs.order)
    rhs = rhs.truncate(order)
    g = TruncatedSeries.zero(rhs.variables, order, rhs.tolerance)
    lin_inv = (ComplexRational(1) / lin) if outer.tolerance is None else (1.0 / lin)
    for n in range(1, order + 1):
        residual = rhs - outer.compose({var: g})
        cn = residual.coefficient((n,))
        g = g + TruncatedSeries(
            rhs.variables, order, {(n,): cn * lin_inv}, rhs.tolerance
        )
    residual = rhs - outer.compose({var: g})
    if residual.tolerance is None:
        if not residual.is_zero:
            raise CompositionError("triangular solve failed to close")
    return g
