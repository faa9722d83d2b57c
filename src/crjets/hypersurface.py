"""Hypersurface germs in normal form and their vanishing-pattern invariants.

A surface is stored through its complex defining series Q(z, x, t), where x
stands for the conjugated z-variable and t for the conjugated w-variable:
points satisfy w = Q(z, zbar, wbar).  Normal form means Q(z,0,t) = Q(0,x,t) = t,
and the reality identity Q(z, x, Qbar(x, z, w)) = w must hold.

All verdicts of the form "identically zero" are certified only through the
stored truncation order and every report records that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .rational import ComplexRational as CR
from .series import TruncatedSeries, grlex_key, implicit_solve

SURFACE_VARS = ("z", "x", "t")
GRAPH_VARS = ("z", "x", "s")
# the invariants a biholomorphism preserves, in report order
INVARIANTS = ("m0", "alpha0", "mu0", "ell", "beta0")


@dataclass(frozen=True)
class InfiniteUpTo:
    """No finite witness below the truncation: the value exceeds it or is infinite."""

    order: int


@dataclass(frozen=True)
class UnknownAbove:
    """Verdict not decidable from a truncation at this order."""

    order: int


class SurfaceError(Exception):
    pass


@dataclass(frozen=True)
class RealGraph:
    """Graph form Im w = phi(z, zbar, Re w), with x for zbar and s for Re w."""

    phi: TruncatedSeries

    def __post_init__(self):
        if self.phi.variables != GRAPH_VARS:
            raise SurfaceError(f"graph series must use variables {GRAPH_VARS}")

    @property
    def order(self) -> int:
        return self.phi.order

    def check(self) -> list[str]:
        """Violations of reality and of the normality identities, from one
        scan of phi: the conjugate-swap of phi must be phi, and every
        monomial must carry both z and x."""
        coefficients = self.phi.coefficients
        real = on_x = on_z = True
        for (a, b, m), c in coefficients.items():
            real = real and coefficients.get((b, a, m)) == c.conjugate()
            on_x, on_z = on_x and b > 0, on_z and a > 0
        problems = []
        if not real:
            problems.append("phi is not real-valued (conjugate-swap mismatch)")
        if not on_x:
            problems.append("phi(z, 0, s) does not vanish")
        if not on_z:
            problems.append("phi(0, x, s) does not vanish")
        return problems


@dataclass(frozen=True)
class NormalityReport:
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RealityReport:
    residual: TruncatedSeries

    @property
    def passed(self) -> bool:
        return self.residual.is_zero


@dataclass(frozen=True)
class InvariantReport:
    m0: object  # int | InfiniteUpTo
    alpha0: int | None
    mu0: int | None
    ell: int | None
    beta0: int | None
    finite_type: bool
    levi_flat: object  # False | UnknownAbove
    certified_order: int
    ell_below_alpha0: bool = False  # recorded as a warning, never an error

    def tuple(self):
        return tuple(getattr(self, name) for name in INVARIANTS)


class NormalFormSurface:
    """A germ stored as its normal-form defining series Q(z, x, t).

    Immutable; the identity checks and the invariants are derived from Q
    once, on first use, and kept.  As a target it also keeps its last Segre
    reconstruction (``last_reconstruction``, owned by ``mapjets``): the
    source, held by weak reference, the per-step keys and the solved
    series, so that a later reconstruction resumes from the steps it shares.
    """

    __slots__ = (
        "q", "order", "_normal", "_reality", "_invariants", "last_reconstruction", "__weakref__"
    )

    def __init__(self, q: TruncatedSeries):
        if q.variables != SURFACE_VARS:
            raise SurfaceError(f"surface series must use variables {SURFACE_VARS}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "order", q.order)
        object.__setattr__(self, "_normal", None)
        object.__setattr__(self, "_reality", None)
        object.__setattr__(self, "_invariants", None)
        object.__setattr__(self, "last_reconstruction", None)

    def __setattr__(self, name, value):
        raise AttributeError("NormalFormSurface is immutable")

    def __eq__(self, other):
        return isinstance(other, NormalFormSurface) and self.q == other.q

    def keep_reconstruction(self, state) -> None:
        object.__setattr__(self, "last_reconstruction", state)

    def __repr__(self):
        return f"<surface order={self.order} Q={self.q}>"

    # ------------------------------------------------------------------

    def check_normal(self) -> NormalityReport:
        """Q(z,0,t) = t and Q(0,x,t) = t; lists every violating monomial."""
        if self._normal is None:
            object.__setattr__(self, "_normal", self._normality())
        return self._normal

    def _normality(self) -> NormalityReport:
        """One scan of Q: the terms of Q(z,0,t) - t, then of Q(0,x,t) - t."""
        residuals = {"x": {}, "z": {}}
        for mi, c in self.q.coefficients.items():
            if not mi[1]:
                residuals["x"][mi] = c
            if not mi[0]:
                residuals["z"][mi] = c
        violations = []
        for name, res in residuals.items():
            if self.order:  # an order-0 truncation holds no t
                res[0, 0, 1] = res.get((0, 0, 1), CR(0)) - 1
            violations += [(name, mi, res[mi]) for mi in sorted(res, key=grlex_key) if res[mi]]
        return NormalityReport(tuple(violations))

    def check_reality(self) -> RealityReport:
        """Residual of Q(z, x, Qbar(x, z, w)) - w; zero iff the germ is real."""
        if self._reality is None:
            object.__setattr__(self, "_reality", self._reality_residual())
        return self._reality

    def _reality_residual(self) -> RealityReport:
        vars_w = ("z", "x", "w")
        zg = TruncatedSeries.variable("z", vars_w, self.order)
        xg = TruncatedSeries.variable("x", vars_w, self.order)
        wg = TruncatedSeries.variable("w", vars_w, self.order)
        inner = self.q.conjugate().compose({"z": xg, "x": zg, "t": wg})
        outer = self.q.compose({"z": zg, "x": xg, "t": inner})
        return RealityReport(outer - wg)

    def validate(self):
        normal = self.check_normal()
        reality = self.check_reality()
        if not normal.passed:
            raise SurfaceError(f"normal-form identities fail: {normal.violations[:3]}")
        if not reality.passed:
            raise SurfaceError("reality identity fails")

    # ------------------------------------------------------------------
    # derivative data along {z = 0, t = 0}

    def q_function(self, alpha: int, mu: int) -> TruncatedSeries:
        """Derivative d_z^alpha d_t^mu Q at (0, x, 0) as a series in x, alpha >= 1."""
        if alpha < 1:
            raise SurfaceError("q functions are defined for alpha >= 1 only")
        raw = self.q.extract({"z": alpha, "t": mu}, keep=("x",))
        return raw * (factorial(alpha) * factorial(mu))

    def r_function(self, beta: int) -> TruncatedSeries:
        """Coefficient series of z^beta at t = 0 in Q (Taylor-normalized)."""
        return self.q.extract({"z": beta, "t": 0}, keep=("x",))

    # ------------------------------------------------------------------

    def compute_invariants(self) -> InvariantReport:
        if self._invariants is None:
            self.validate()
            object.__setattr__(self, "_invariants", self._vanishing_pattern())
        return self._invariants

    def _vanishing_pattern(self) -> InvariantReport:
        """One pass over Q's monomials z^a x^b t^c with a >= 1: (m0, mu0) is
        the least (a + c, c), ell the least b there, beta0 the least a with
        c = 0; the same as scanning q_function and r_function slot by slot."""
        n = self.order
        lead = beta0 = None
        for a, b, c in self.q.coefficients:
            if a >= 1:
                if lead is None or (a + c, c, b) < lead:
                    lead = (a + c, c, b)
                if c == 0 and (beta0 is None or a < beta0):
                    beta0 = a
        if lead is None:
            return InvariantReport(
                m0=InfiniteUpTo(n),
                alpha0=None,
                mu0=None,
                ell=None,
                beta0=beta0,
                finite_type=beta0 is not None,
                levi_flat=UnknownAbove(n),
                certified_order=n,
            )
        m0, mu0, ell = lead
        return InvariantReport(
            m0=m0,
            alpha0=m0 - mu0,
            mu0=mu0,
            ell=ell,
            beta0=beta0,
            finite_type=beta0 is not None,
            levi_flat=False,
            certified_order=n,
            ell_below_alpha0=ell < m0 - mu0,
        )


def from_real_graph(graph: RealGraph) -> NormalFormSurface:
    """Complex defining series from the graph form, by solving for Re w.

    With t for wbar, v = (w + wbar)/2 is the fixed point of v = t + i*phi(z, x, v)
    in (z, x, t), and Q = 2v - t solves w = wbar + 2i * phi(z, x, (w + wbar)/2);
    it satisfies the normal-form and reality identities exactly at the stored order.
    """
    problems = graph.check()
    if problems:
        raise SurfaceError("; ".join(problems))
    tg = TruncatedSeries.variable("t", SURFACE_VARS + ("s",), graph.order)
    v = implicit_solve(tg + graph.phi.lift(tg.variables) * CR(0, 1), "s")
    surface = NormalFormSurface(v * CR(2) - TruncatedSeries.variable("t", SURFACE_VARS, v.order))
    surface.validate()
    return surface


# ----------------------------------------------------------------------
# corpus models


def heisenberg(order: int = 12) -> NormalFormSurface:
    """Im w = |z|^2: the nondegenerate quadric."""
    return NormalFormSurface(
        TruncatedSeries(SURFACE_VARS, order, {(0, 0, 1): 1, (1, 1, 0): CR(0, 2)})
    )


def quartic_model(order: int = 12) -> NormalFormSurface:
    """Im w = |z|^4: finite type with a degenerate Levi form."""
    return NormalFormSurface(
        TruncatedSeries(SURFACE_VARS, order, {(0, 0, 1): 1, (2, 2, 0): CR(0, 2)})
    )


def infinite_type_model(order: int = 12) -> NormalFormSurface:
    """Q = t (1 + i z x) / (1 - i z x): contains the curve {w = 0}."""
    izx = TruncatedSeries(SURFACE_VARS, order, {(1, 1, 0): CR(0, 1)})
    t = TruncatedSeries.variable("t", SURFACE_VARS, order)
    return NormalFormSurface((t * (1 + izx)) / (1 - izx))


def levi_flat_model(order: int = 12) -> NormalFormSurface:
    """Im w = 0."""
    return NormalFormSurface(TruncatedSeries.variable("t", SURFACE_VARS, order))
