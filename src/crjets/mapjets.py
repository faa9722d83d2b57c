"""Mapping-equation engine for germs between normal-form surfaces.

A germ H = (F, G) sends the source surface into the target surface exactly
when G(z, Q(z,x,t)) agrees with Q'(F(z, Q(z,x,t)), Fbar(x,t), Gbar(x,t)) as
a series in (z, x, t); ``verify_mapping`` computes that residual.

``segre_jet_reconstruct`` recovers the derivative series H_{w^k}(z, 0) along
the curve {w = 0} from nothing but the (k+1)-jet of H at the origin and the
two surfaces.  It runs the recursion order by order in the w-derivative:

* the conjugated F-series along {w = 0} comes first, from the minimal
  nonvanishing derivative identity.  Its ell-th root is taken after dividing
  each side by its leading coefficient: both roots then have constant term 1
  and are binomial series over Q(i), and the root constants, which would
  need a branch and leave the field, cancel out of the equation;
* each conjugated G-derivative solves a coefficient equation in which it
  appears with unit coefficient;
* each conjugated F-derivative appears multiplied by a series vanishing to
  some order nu; the equation's known side must vanish to order nu as well
  (otherwise the jet is not realizable and DivisibilityObstruction reports
  it), after which the quotient is exact.

Jet coefficients of order beyond the supplied jet never enter: the single
top coefficient that would is eliminated by evaluating the equation at the
origin, which is also where inconsistent jets are detected.  A step that
needs a coefficient beyond the working order, or whose unknown has a
coefficient vanishing through it, raises TruncationLimit: the answer is
indeterminate at that truncation, not a proof that the jet is unrealizable.

The target surface keeps its last reconstruction, and a call resumes from the
longest prefix of steps it shares.  Step s reads the jet only through order
m0 + s: in normal form every monomial of Q other than t has z >= 1 and
x >= 1, so the slot z^alpha0 t^(mu0+s) of lam_ij z^i Q^j needs
i + j <= m0 + s, the G-derivatives solved at step s need no more, and the
top-coefficient pin fires exactly when m0 + s exceeds the jet order.  So
step s is keyed by top = min(jet.k, m0 + s) and the jet's entries through
top, and it is reused when the source is the same object and the keys of
steps 0..s all match.  A k-sweep thus runs each step once, and the axis step
serves every jet with the same low part.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import factorial

from .hypersurface import InfiniteUpTo, NormalFormSurface
from .rational import ComplexRational as CR
from .series import TruncatedSeries, UnknownOrder, kth_root, solve_composition

MAP_VARS = ("z", "w")


class MapError(Exception):
    pass


class JetArityError(MapError):
    pass


class LeviFlatInput(MapError):
    """No nonvanishing derivative data through ``order``: the verdict is
    indeterminate at that truncation."""

    def __init__(self, order: int):
        super().__init__(f"no nonvanishing derivative data through order {order}")
        self.order = order


class InconsistentJet(MapError):
    pass


class DivisibilityObstruction(MapError):
    """The jet is not realizable by any map between the two surfaces."""


class PreconditionError(MapError):
    pass


class PremiseFailure(MapError):
    """H does not send the source surface into the target: ``residual``,
    the nonzero mapping residual, is the witness, and ``germ`` (1 or 2)
    names the failing germ of a pair."""

    def __init__(self, residual: TruncatedSeries, germ: int | None = None):
        super().__init__("map does not send the source surface into the target")
        self.residual = residual
        self.germ = germ


class TruncationLimit(MapError):
    """Reconstruction needs data beyond the working order ``work``: the
    verdict is indeterminate at that truncation."""

    def __init__(self, message: str, work: int):
        super().__init__(message)
        self.work = work


# ----------------------------------------------------------------------
# germs and jets


class MapGerm:
    """Holomorphic germ H = (F, G) at the origin of C^2."""

    def __init__(self, f: TruncatedSeries, g: TruncatedSeries):
        if f.variables != MAP_VARS or g.variables != MAP_VARS:
            raise MapError(f"map components must use variables {MAP_VARS}")
        if not f.constant_term().is_zero or not g.constant_term().is_zero:
            raise MapError("map must fix the origin")
        order = min(f.order, g.order)
        self.f = f.truncate(order)
        self.g = g.truncate(order)
        self.order = order

    def __eq__(self, other):
        return isinstance(other, MapGerm) and self.f == other.f and self.g == other.g

    def __repr__(self):
        return f"<map order={self.order} F={self.f} G={self.g}>"

    def jet(self, k: int) -> "MapJet":
        if k > self.order:
            raise JetArityError(f"jet order {k} exceeds stored order {self.order}")
        lam, mu = {}, {}
        for table, comp in ((lam, self.f), (mu, self.g)):
            for (i, j), c in comp.coefficients.items():
                if 1 <= i + j <= k:
                    table[(i, j)] = c * (factorial(i) * factorial(j))
        return MapJet(k, lam, mu)

    def compose(self, inner: "MapGerm") -> "MapGerm":
        subs = {"z": inner.f, "w": inner.g}
        return MapGerm(self.f.compose(subs), self.g.compose(subs))

    def inverse(self) -> "MapGerm":
        """The germ K with H o K = id through the stored order.

        Newton iteration after Brent & Kung, "Fast algorithms for
        manipulating formal power series", J. ACM 25 (1978).  K starts as
        the inverse of the linear part, exact through degree 1.  A step at
        precision ``prec`` (2, 4, 8, ..., capped at the order) computes
        E = H o K - id and sets K <- K - DK * E, DK the Jacobian matrix of
        K: since (DH o K)^-1 = DK + O(degree prec/2), the step makes K exact
        through degree ``prec``.  Order 16 takes four steps of two
        compositions each.  The closing check that H o K is the identity is
        the certificate.
        """
        a = self.f.coefficient((1, 0))
        b = self.f.coefficient((0, 1))
        c = self.g.coefficient((1, 0))
        d = self.g.coefficient((0, 1))
        det = a * d - b * c
        if det.is_zero:
            raise MapError("linear part is singular")
        zg = TruncatedSeries.variable("z", MAP_VARS, self.order)
        wg = TruncatedSeries.variable("w", MAP_VARS, self.order)
        inv_det = CR(1) / det
        kf = (zg * d - wg * b) * inv_det
        kg = (wg * a - zg * c) * inv_det
        prec = 1
        while prec < self.order:
            prec = min(2 * prec, self.order)
            # carried one degree past prec, so that its Jacobian is
            # certified through prec
            kf = TruncatedSeries(MAP_VARS, prec + 1, kf.coefficients)
            kg = TruncatedSeries(MAP_VARS, prec + 1, kg.coefficients)
            subs = {"z": kf, "w": kg}
            ef = self.f.truncate(prec).compose(subs) - zg
            eg = self.g.truncate(prec).compose(subs) - wg
            kf = kf - (kf.partial_derivative("z") * ef + kf.partial_derivative("w") * eg)
            kg = kg - (kg.partial_derivative("z") * ef + kg.partial_derivative("w") * eg)
        inv = MapGerm(kf, kg)
        probe = self.compose(inv)
        if probe.f != zg or probe.g != wg:
            raise MapError("inverse iteration failed to close")
        return inv


class MapJet:
    """Jet table at the origin, derivative-normalized entries.

    lam[(i, j)] is the (i, j) derivative of F at 0, mu likewise for G, for
    1 <= i + j <= k.  Triangularity (G_z(0) = 0) and invertibility of the
    linear part (F_z(0) G_w(0) != 0) are construction invariants.
    """

    def __init__(self, k: int, lam: dict, mu: dict):
        if k < 1:
            raise JetArityError("a map jet has order at least 1")
        self.k = k
        self.lam = {ij: CR.coerce(c) for ij, c in lam.items() if 1 <= sum(ij) <= k}
        self.mu = {ij: CR.coerce(c) for ij, c in mu.items() if 1 <= sum(ij) <= k}
        if not self.mu.get((1, 0), CR(0)).is_zero:
            raise PreconditionError("jet violates triangularity: G_z(0) != 0")
        if (self.lam.get((1, 0), CR(0)) * self.mu.get((0, 1), CR(0))).is_zero:
            raise PreconditionError("jet is not invertible: F_z(0) G_w(0) = 0")

    def entry(self, table: str, i: int, j: int) -> CR:
        src = self.lam if table == "lam" else self.mu
        return src.get((i, j), CR(0))

    def up_to(self, k: int) -> tuple:
        """The nonzero entries of order at most k: (lam items, mu items)."""
        return tuple(
            tuple(sorted((ij, c) for ij, c in table.items() if sum(ij) <= k and not c.is_zero))
            for table in (self.lam, self.mu)
        )

    def __eq__(self, other):
        if not isinstance(other, MapJet):
            return NotImplemented
        return self.k == other.k and self.up_to(self.k) == other.up_to(other.k)


@dataclass(frozen=True)
class SegreJetResult:
    """Derivative series H_{w^k}(z, 0) with its provenance."""

    k: int
    f_wk: TruncatedSeries
    g_wk: TruncatedSeries
    provenance: str

    def agrees_with(self, other: "SegreJetResult") -> bool:
        """Same k and equal series through each pair's common certified order."""

        def same(a: TruncatedSeries, b: TruncatedSeries) -> bool:
            order = min(a.order, b.order)
            return a.truncate(order) == b.truncate(order)

        return (
            self.k == other.k
            and same(self.f_wk, other.f_wk)
            and same(self.g_wk, other.g_wk)
        )


# ----------------------------------------------------------------------
# factories


def identity_map(order: int = 12) -> MapGerm:
    return MapGerm(
        TruncatedSeries.variable("z", MAP_VARS, order),
        TruncatedSeries.variable("w", MAP_VARS, order),
    )


def dilation(lam, rho, order: int = 12) -> MapGerm:
    zg = TruncatedSeries.variable("z", MAP_VARS, order)
    wg = TruncatedSeries.variable("w", MAP_VARS, order)
    return MapGerm(zg * CR.coerce(lam), wg * CR.coerce(rho))


def w_mobius(a, order: int = 12) -> MapGerm:
    """(z, w) -> (z, w) / (1 - a w); sends the quadric model into itself."""
    zg = TruncatedSeries.variable("z", MAP_VARS, order)
    wg = TruncatedSeries.variable("w", MAP_VARS, order)
    denom = 1 - wg * CR.coerce(a)
    return MapGerm(zg / denom, wg / denom)


# ----------------------------------------------------------------------
# the mapping identity


def verify_mapping(
    source: NormalFormSurface, target: NormalFormSurface, h: MapGerm
) -> TruncatedSeries:
    """Residual of the mapping identity; zero through the order iff H maps
    source into target to that order."""
    order = min(source.order, target.order, h.order)
    vars3 = ("z", "x", "t")
    zg = TruncatedSeries.variable("z", vars3, order)
    xg = TruncatedSeries.variable("x", vars3, order)
    tg = TruncatedSeries.variable("t", vars3, order)
    q = source.q.truncate(order)
    f_on_m = h.f.compose({"z": zg, "w": q})
    g_on_m = h.g.compose({"z": zg, "w": q})
    fbar = h.f.conjugate().lift(vars3, {"z": "x", "w": "t"}).truncate(order)
    gbar = h.g.conjugate().lift(vars3, {"z": "x", "w": "t"}).truncate(order)
    rhs = target.q.truncate(order).compose({"z": f_on_m, "x": fbar, "t": gbar})
    return g_on_m - rhs


def require_premise(
    source: NormalFormSurface, target: NormalFormSurface, h: MapGerm, germ: int | None = None
):
    """The premise of every statement about H: it sends source into target
    through the common order; PremiseFailure otherwise."""
    residual = verify_mapping(source, target, h)
    if not residual.is_zero:
        raise PremiseFailure(residual, germ)


def segre_restriction_direct(h: MapGerm, k: int) -> SegreJetResult:
    """Oracle side: H_{w^k}(z, 0) read off the stored series."""
    if k > h.order:
        raise JetArityError(f"derivative order {k} exceeds stored order {h.order}")
    fac = factorial(k)
    return SegreJetResult(
        k,
        h.f.extract({"w": k}, keep=("z",)) * fac,
        h.g.extract({"w": k}, keep=("z",)) * fac,
        "direct",
    )


# ----------------------------------------------------------------------
# reconstruction from the origin jet


class _Reconstruction:
    def __init__(self, source, target, jet, k):
        inv = source.compute_invariants()
        inv2 = target.compute_invariants()
        if isinstance(inv.m0, InfiniteUpTo) or isinstance(inv2.m0, InfiniteUpTo):
            raise LeviFlatInput(min(source.order, target.order))
        if (inv.m0, inv.alpha0, inv.mu0, inv.ell) != (
            inv2.m0,
            inv2.alpha0,
            inv2.mu0,
            inv2.ell,
        ):
            raise InconsistentJet(
                "source and target disagree on the vanishing invariants: "
                f"{(inv.m0, inv.alpha0, inv.mu0, inv.ell)} vs "
                f"{(inv2.m0, inv2.alpha0, inv2.mu0, inv2.ell)}"
            )
        self.m0, self.alpha0, self.mu0, self.ell = inv.m0, inv.alpha0, inv.mu0, inv.ell
        self.k = k
        self.jet = jet
        self.work = min(source.order, target.order)
        self.source = source
        self.target = target
        # order-m0 entry of G must vanish for any map between these surfaces
        if self.alpha0 + self.mu0 <= jet.k:
            if not jet.entry("mu", self.alpha0, self.mu0).is_zero:
                raise InconsistentJet(
                    f"G derivative ({self.alpha0},{self.mu0}) must vanish"
                )
        self.us: list[TruncatedSeries] = []
        self.vs: list[TruncatedSeries] = []
        self.jet_on_source = None

    def lam_taylor(self, i, j):
        return self.jet.entry("lam", i, j) / (factorial(i) * factorial(j))

    def mu_taylor(self, i, j):
        return self.jet.entry("mu", i, j) / (factorial(i) * factorial(j))

    # -- step 0: F along the axis ---------------------------------------

    def _monic_root(self, surface) -> TruncatedSeries:
        """ell-th root of q_{alpha0,mu0} / (its x^ell coefficient): x times a
        unit with constant term 1, so it stays over Q(i)."""
        q_fn = surface.q_function(self.alpha0, self.mu0)
        return kth_root(q_fn / q_fn.coefficient((self.ell,)), self.ell)

    def solve_axis_f(self) -> TruncatedSeries:
        """conj F(x, 0) from root_t(g) = root_s * conj(lam10) * gauge."""
        lam10 = self.jet.entry("lam", 1, 0)
        rhs = self._monic_root(self.source) * lam10.conjugate()
        if self.m0 == 1:
            ratio = self.jet.entry("lam", 0, 1) / lam10
            unit = (1 + self.source.q_function(1, 0) * ratio).inverse()
            rhs = rhs * kth_root(unit, self.ell)
        return solve_composition(self._monic_root(self.target), rhs)

    # -- embeddings ------------------------------------------------------

    def _stack(self, entries, variables, t_index):
        """sum_r entries[r] * t^r inside the given variable space."""
        acc = TruncatedSeries.zero(variables, self.work)
        for r, series in enumerate(entries):
            if series is None or series.is_zero:
                continue
            shift = tuple(r if i == t_index else 0 for i in range(len(variables)))
            acc = acc + series.lift(variables).shift_up(shift)
        return acc

    # -- conjugated G derivatives ----------------------------------------

    def solve_v(self, t: int) -> TruncatedSeries:
        variables = ("x", "t")
        a_coeffs = {
            (0, j): self.lam_taylor(0, j)
            for j in range(1, min(t, self.jet.k) + 1)
        }
        a_fn = TruncatedSeries(variables, self.work, a_coeffs)
        u_fn = self._stack(self.us, variables, t_index=1)
        v_fn = self._stack(self.vs, variables, t_index=1)
        composed = self.target.q.compose({"z": a_fn, "x": u_fn, "t": v_fn}, box={"t": t})
        rhs = self._extract(composed, {"t": t})
        lhs = TruncatedSeries.constant(self.mu_taylor(0, t), ("x",), rhs.order)
        return lhs - rhs

    # -- conjugated F derivatives ----------------------------------------

    def _jet_polynomial(self, taylor) -> TruncatedSeries:
        return TruncatedSeries(
            MAP_VARS,
            self.work,
            {
                (i, j): taylor(i, j)
                for i in range(0, self.jet.k + 1)
                for j in range(0, self.jet.k + 1 - i)
                if i + j >= 1
            },
        )

    def _extract(self, series, slot) -> TruncatedSeries:
        """The x-series at ``slot``; beyond the series' order it is unknown."""
        if sum(slot.values()) > series.order:
            raise TruncationLimit(
                f"reconstruction reads beyond the certified order {self.work}", self.work
            )
        return series.extract(slot, keep=("x",))

    def solve_u(self, s: int) -> TruncatedSeries:
        variables = ("z", "x", "t")
        if self.jet_on_source is None:
            # F^ and G^ on the source, inside the box of every slot read below
            zg = TruncatedSeries.variable("z", variables, self.work)
            subs = {"z": zg, "w": self.source.q}
            box = {"z": self.alpha0, "t": self.mu0 + self.k}
            self.jet_on_source = [
                self._jet_polynomial(taylor).compose(subs, box=box)
                for taylor in (self.lam_taylor, self.mu_taylor)
            ]
        f_comp, g_comp = self.jet_on_source
        slot = {"z": self.alpha0, "t": self.mu0 + s}
        w_lhs = self._extract(g_comp, slot)
        v_fn = self._stack(self.vs, variables, t_index=2)

        def rhs_with(u_s):
            u_fn = self._stack(self.us + [u_s], variables, t_index=2)
            composed = self.target.q.compose({"z": f_comp, "x": u_fn, "t": v_fn}, box=slot)
            return self._extract(composed, slot)

        r0 = rhs_with(TruncatedSeries.zero(("x",), self.work))
        r1 = rhs_with(TruncatedSeries.constant(1, ("x",), self.work))
        gain = r1 - r0
        if gain.is_zero:
            raise TruncationLimit(
                f"coefficient of the order-{s} unknown vanishes to working order {self.work}",
                self.work,
            )
        ubar = self.jet.entry("lam", 0, s).conjugate() / factorial(s)
        dividend = w_lhs - r0
        if self.m0 + s > self.jet.k:
            # the jet does not carry the top coefficient; pin it at the origin
            dividend = dividend + (
                r0.coefficient((0,)) + gain.coefficient((0,)) * ubar
                - w_lhs.coefficient((0,))
            )
        nu = gain.vanishing_order()
        if isinstance(nu, UnknownOrder):
            raise DivisibilityObstruction("unknown coefficient order at truncation")
        low = dividend.vanishing_order()
        if not isinstance(low, UnknownOrder) and low < nu:
            raise DivisibilityObstruction(
                f"known side has order-{low} content below the required "
                f"vanishing order {nu}: jet not realizable"
            )
        u_s = dividend / gain
        if u_s.coefficient((0,)) != ubar:
            raise InconsistentJet(
                f"order-{s} value at the origin disagrees with the supplied jet"
            )
        return u_s

    # -- driver -----------------------------------------------------------

    def _step_key(self, s: int) -> tuple:
        """Everything step s reads of the jet (see the module docstring)."""
        top = min(self.jet.k, self.m0 + s)
        return top, self.jet.up_to(top)

    def _resume(self, keys, ahead) -> int:
        """Restore the longest prefix of the target's last reconstruction
        whose step keys match; the number of steps restored."""
        state = self.target.last_reconstruction
        if state is None or state[0]() is not self.source:
            return 0
        _, saved_keys, us, vs = state
        done = 0
        while done < min(len(keys), len(saved_keys)) and saved_keys[done] == keys[done]:
            done += 1
        if done:
            self.us = us[:done]
            # step 0 makes vs[0]; step s >= 1 makes vs through s + ahead
            self.vs = vs[: 1 if done == 1 else done + ahead]
        return done

    def run(self) -> SegreJetResult:
        ahead = 1 if self.mu0 >= 1 else 0
        keys = [self._step_key(s) for s in range(self.k + 1)]
        done = self._resume(keys, ahead)
        if not done:
            self.us.append(self.solve_axis_f())
            self.vs.append(TruncatedSeries.zero(("x",), self.work))
        for s in range(max(done, 1), self.k + 1):
            while len(self.vs) <= s + ahead:
                self.vs.append(self.solve_v(len(self.vs)))
            self.us.append(self.solve_u(s))
        if done <= self.k:
            state = (weakref.ref(self.source), keys, self.us, self.vs)
            self.target.keep_reconstruction(state)
        k = self.k
        f_wk = self.us[k].conjugate().with_variables(("z",)) * factorial(k)
        if k == 0:
            g_wk = TruncatedSeries.zero(("z",), self.work)
        else:
            g_wk = self.vs[k].conjugate().with_variables(("z",)) * factorial(k)
        return SegreJetResult(k, f_wk, g_wk, "reconstructed")


def segre_jet_reconstruct(
    source: NormalFormSurface,
    target: NormalFormSurface,
    jet: MapJet,
    k: int,
) -> SegreJetResult:
    """Recover H_{w^k}(z, 0) from the (k+1)-jet of H at the origin.

    Exact over Q(i) for every ell: the ell-th roots along {w = 0} are taken
    of series normalized to leading coefficient 1, so no branch is chosen.
    """
    if k < 0:
        raise JetArityError("derivative order must be nonnegative")
    if jet.k < k + 1:
        raise JetArityError(
            f"reconstructing order {k} consumes a jet of order {k + 1}, got {jet.k}"
        )
    return _Reconstruction(source, target, jet, k).run()


# ----------------------------------------------------------------------
# experiments


def invariant_mismatches(source: NormalFormSurface, target: NormalFormSurface) -> tuple:
    """(name, source value, target value) for every invariant that differs;
    any entry is an obstruction to a map between the two surfaces."""
    inv = source.compute_invariants()
    inv2 = target.compute_invariants()
    return tuple(
        (name, getattr(inv, name), getattr(inv2, name))
        for name in ("m0", "alpha0", "mu0", "ell", "beta0")
        if getattr(inv, name) != getattr(inv2, name)
    )


@dataclass(frozen=True)
class InvarianceReport:
    residual: TruncatedSeries
    invariants_match: bool
    mismatches: tuple
    beta_identity_holds: bool | None

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero

    @property
    def passed(self) -> bool:
        return (
            self.residual_zero
            and self.invariants_match
            and self.beta_identity_holds is not False
        )


def invariance_check(
    source: NormalFormSurface, target: NormalFormSurface, h: MapGerm
) -> InvarianceReport:
    residual = verify_mapping(source, target, h)
    mismatches = invariant_mismatches(source, target)
    inv = source.compute_invariants()
    beta_identity = None
    if residual.is_zero and not mismatches and inv.beta0 is not None:
        beta0 = inv.beta0
        lam10 = h.f.coefficient((1, 0))
        lam01 = h.f.coefficient((0, 1))
        mu01 = h.g.coefficient((0, 1))
        fbar_axis = (
            h.f.extract({"w": 0}, keep=("z",)).conjugate().with_variables(("x",))
        )
        r_src = source.r_function(beta0)
        r_tgt = target.r_function(beta0)
        r1 = source.r_function(1)
        chain = r1 * lam01 + lam10
        lhs = r_src * mu01
        rhs = r_tgt.compose({"x": fbar_axis}) * chain.pow(beta0)
        order = min(lhs.order, rhs.order)
        beta_identity = lhs.truncate(order) == rhs.truncate(order)
    return InvarianceReport(
        residual=residual,
        invariants_match=not mismatches,
        mismatches=mismatches,
        beta_identity_holds=beta_identity,
    )


@dataclass(frozen=True)
class DeterminationVerdict:
    jets_agree: bool
    maps_agree: bool | None
    first_difference: tuple | None

    @property
    def vacuous(self) -> bool:
        return not self.jets_agree

    @property
    def passed(self) -> bool:
        return self.vacuous or bool(self.maps_agree)


def determination_experiment(
    surface: NormalFormSurface, h1: MapGerm, h2: MapGerm, k: int
) -> DeterminationVerdict:
    """Same k-jet forces the same germ (through the stored order)."""
    for germ, h in enumerate((h1,) if h1 is h2 else (h1, h2), start=1):
        require_premise(surface, surface, h, germ)
    jets_agree = h1.jet(k) == h2.jet(k)
    if not jets_agree:
        return DeterminationVerdict(False, None, None)
    diff_f = h1.f - h2.f
    diff_g = h1.g - h2.g
    witness = None
    for name, diff in (("F", diff_f), ("G", diff_g)):
        for mi, c in diff.terms():
            entry = (name, mi, c)
            if witness is None or (sum(mi), mi) < (sum(witness[1]), witness[1]):
                witness = entry
            break
    return DeterminationVerdict(True, witness is None, witness)


@dataclass(frozen=True)
class DynamicsVerdict:
    reconstructed_fixes_axis: bool
    stored_fixes_axis: bool

    @property
    def passed(self) -> bool:
        return self.reconstructed_fixes_axis and self.stored_fixes_axis


def dynamics_check(surface: NormalFormSurface, h: MapGerm) -> DynamicsVerdict:
    """A self-map tangent to the identity fixes the curve {w = 0} pointwise."""
    require_premise(surface, surface, h)
    jet1 = h.jet(1)
    tangent = (
        jet1.entry("lam", 1, 0) == CR(1)
        and jet1.entry("lam", 0, 1).is_zero
        and jet1.entry("mu", 0, 1) == CR(1)
    )
    if not tangent:
        raise PreconditionError("map is not tangent to the identity")
    recon = segre_jet_reconstruct(surface, surface, jet1, 0)
    zg = TruncatedSeries.variable("z", ("z",), recon.f_wk.order)
    recon_ok = recon.f_wk == zg and recon.g_wk.is_zero
    f_axis, g_axis = (c.extract({"w": 0}, keep=("z",)) for c in (h.f, h.g))  # H(z, 0)
    zg_full = TruncatedSeries.variable("z", ("z",), f_axis.order)
    stored_ok = f_axis == zg_full and g_axis.is_zero
    return DynamicsVerdict(recon_ok, stored_ok)
