"""Mapping-equation engine for germs between normal-form surfaces.

A germ H = (F, G) sends the source surface into the target surface exactly
when the mapping identity G(z, Q) = Q'(F(z, Q), Fbar(x, t), Gbar(x, t))
holds as a series in (z, x, t), Q = Q(z, x, t).  ``_on_source`` composes
F(z, Q) and G(z, Q), and ``_image`` the right side over F(z, Q); nothing
else builds the identity.  Both return packed results, and each reader
unpacks only what it reads.  ``verify_mapping`` reads the identity whole,
as a residual differenced in the packed tables.

``segre_jet_reconstruct`` recovers the derivative series H_{w^k}(z, 0) along
the curve {w = 0} from nothing but the (k+1)-jet of H at the origin and the
two surfaces.  A k-jet is a ``MapGerm`` of order k: its Taylor coefficients
through order k.  After the axis step it reads the identity one x-series
slot at a time, Fbar and Gbar being the t-series of the conjugated
derivatives solved so far, at two slot families:

* (axis step) the conjugated F-series along {w = 0}, from the minimal
  nonvanishing derivative identity.  Its ell-th root is taken after dividing
  each side by its leading coefficient: both roots then have constant term 1
  and are binomial series over Q(i), and the root constants, which would
  need a branch and leave the field, cancel out of the equation;
* the conjugated G-derivative of order t at z^0 t^t: there Q(0, x, t) = t,
  so the left side is the jet's G_{w^t}(0), and the unknown enters through
  the t of Q' with coefficient 1;
* the conjugated F-derivative of order s at z^alpha0 t^(mu0+s), times a
  gain, read once per reconstruction, that vanishes to some order nu; the known
  side must vanish to order nu as well (otherwise the jet is not realizable
  and DivisibilityObstruction reports it), after which the quotient is exact.

Jet coefficients of order beyond the supplied jet never enter: the single
top coefficient that would is eliminated by evaluating the equation at the
origin, which is also where inconsistent jets are detected.  A step that
needs a coefficient beyond the working order, or whose unknown has a
coefficient vanishing through it, raises TruncationLimit: the answer is
indeterminate at that truncation, not a proof that the jet is unrealizable.

The target surface keeps its last reconstruction, and a call resumes from the
longest prefix of steps it shares.  Step s reads the jet only through order
m0 + s: in normal form every monomial of Q other than t has z >= 1 and
x >= 1, so the slot z^alpha0 t^(mu0+s) of a term c_ij z^i Q^j of F(z, Q) needs
i + j <= m0 + s, the G-derivatives solved at step s need no more, and the
top-coefficient pin fires exactly when m0 + s exceeds the jet order.  So
step s is keyed by top = min(jet.order, m0 + s) and the jet's terms through
top, and it is reused when the source is the same object and the keys of
steps 0..s all match.  A k-sweep thus runs each step once, and the axis step
serves every jet with the same low part.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from math import factorial

from .hypersurface import INVARIANTS, SURFACE_VARS, InfiniteUpTo, NormalFormSurface
from .rational import ComplexRational as CR
from .series import TruncatedSeries, UnknownOrder, kth_root, lowest_term, solve_composition
from .series import _difference, _minus_variable, _newton_update, _series, _unpacked

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

    def jet(self, k: int) -> "MapGerm":
        """The k-jet at the origin: this germ truncated at order k."""
        if k > self.order:
            raise JetArityError(f"jet order {k} exceeds stored order {self.order}")
        if k < 1:
            raise JetArityError("a map jet has order at least 1")
        return require_shape(MapGerm(self.f.truncate(k), self.g.truncate(k)))

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
        compositions each.

        A step never unpacks what it only computes with: each residual
        ``E_v`` stays the packed result of the composition, with the
        identity's key subtracted in its table, and each component of K is
        updated in one pass, ``K - K_z E_f - K_w E_g`` with the partials
        read off K's packed keys, two kernel products and one unpack (see
        ``series._newton_update``).  The closing check that H o K is the
        identity, made with the public ``compose``, is the certificate.
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
            # certified through prec; a ring result holds no zero and no
            # monomial above the last prec, so the tables need no check
            kf = _series(MAP_VARS, prec + 1, kf.coefficients, None)
            kg = _series(MAP_VARS, prec + 1, kg.coefficients, None)
            subs = {"z": kf, "w": kg}
            residuals = [
                _minus_variable(comp.truncate(prec)._compose(subs), j)
                for j, comp in enumerate((self.f, self.g))
            ]
            kf, kg = (_newton_update(k, residuals) for k in (kf, kg))
        inv = MapGerm(kf, kg)
        probe = self.compose(inv)
        if probe.f != zg or probe.g != wg:
            raise MapError("inverse iteration failed to close")
        return inv


def require_shape(jet: MapGerm) -> MapGerm:
    """The jet itself, if its linear part is triangular (G_z(0) = 0) and
    invertible (F_z(0) G_w(0) != 0); PreconditionError otherwise."""
    if not jet.g.coefficient((1, 0)).is_zero:
        raise PreconditionError("jet violates triangularity: G_z(0) != 0")
    if (jet.f.coefficient((1, 0)) * jet.g.coefficient((0, 1))).is_zero:
        raise PreconditionError("jet is not invertible: F_z(0) G_w(0) = 0")
    return jet


@dataclass(frozen=True)
class SegreJetResult:
    """Derivative series H_{w^k}(z, 0)."""

    k: int
    f_wk: TruncatedSeries
    g_wk: TruncatedSeries

    def agrees_with(self, other: "SegreJetResult") -> bool:
        """Same k and equal series through each pair's common certified order."""
        pairs = ((self.f_wk, other.f_wk), (self.g_wk, other.g_wk))
        return self.k == other.k and all(_agree(a, b) for a, b in pairs)


def _agree(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Equal through the lower of the two certified orders."""
    order = min(a.order, b.order)
    return a.truncate(order) == b.truncate(order)


# ----------------------------------------------------------------------
# factories


def dilation(lam, rho, order: int = 12) -> MapGerm:
    zg = TruncatedSeries.variable("z", MAP_VARS, order)
    wg = TruncatedSeries.variable("w", MAP_VARS, order)
    return MapGerm(zg * CR.coerce(lam), wg * CR.coerce(rho))


def identity_map(order: int = 12) -> MapGerm:
    return dilation(1, 1, order)


def w_mobius(a, order: int = 12) -> MapGerm:
    """(z, w) -> (z, w) / (1 - a w); sends the quadric model into itself."""
    zg = TruncatedSeries.variable("z", MAP_VARS, order)
    wg = TruncatedSeries.variable("w", MAP_VARS, order)
    denom = 1 - wg * CR.coerce(a)
    return MapGerm(zg / denom, wg / denom)


# ----------------------------------------------------------------------
# the mapping identity


def _on_source(source: NormalFormSurface, germ: MapGerm, order: int, box=None) -> list:
    """F(z, Q) and G(z, Q) in (z, x, t) through ``order``, the germ's terms
    read exactly as given at that order, as packed results (see
    ``TruncatedSeries._compose``); ``box`` as in ``compose``."""
    subs = {"z": TruncatedSeries.variable("z", SURFACE_VARS, order), "w": source.q}
    return [
        TruncatedSeries(MAP_VARS, order, comp.coefficients)._compose(subs, box)
        for comp in (germ.f, germ.g)
    ]


def _image(target: NormalFormSurface, f_on_m, fbar, gbar, box=None) -> tuple:
    """The right side of the mapping identity, Q'(F(z, Q), Fbar(x, t),
    Gbar(x, t)), as a packed result, given the series F(z, Q)."""
    return target.q._compose({"z": f_on_m, "x": fbar, "t": gbar}, box)


def verify_mapping(
    source: NormalFormSurface, target: NormalFormSurface, h: MapGerm
) -> TruncatedSeries:
    """Residual of the mapping identity; zero through the order iff H maps
    source into target to that order.

    Both sides are composed at that order, so they share one packed
    layout: G(z, Q) and Q'(F(z, Q), Fbar, Gbar) are differenced as packed
    tables, and only F(z, Q), a substitution, and the residual, empty when
    the map passes, are unpacked."""
    order = min(source.order, target.order, h.order)
    fbar, gbar = (
        c.conjugate().lift(SURFACE_VARS, {"z": "x", "w": "t"}).truncate(order) for c in (h.f, h.g)
    )
    f_on_m, g_on_m = _on_source(source, h, order)
    rhs = _image(target, _unpacked(SURFACE_VARS, f_on_m), fbar, gbar)
    return _unpacked(SURFACE_VARS, _difference(g_on_m, rhs))


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
    )


# ----------------------------------------------------------------------
# reconstruction from the origin jet


class _Reconstruction:
    def __init__(self, source, target, jet, k):
        if any(isinstance(s.compute_invariants().m0, InfiniteUpTo) for s in (source, target)):
            raise LeviFlatInput(min(source.order, target.order))
        mismatches = invariant_mismatches(source, target)
        if mismatches:
            listed = ", ".join(f"{name} {a} != {b}" for name, a, b in mismatches)
            raise InconsistentJet(f"source and target disagree on the invariants: {listed}")
        inv = source.compute_invariants()
        self.m0, self.alpha0, self.mu0, self.ell = inv.m0, inv.alpha0, inv.mu0, inv.ell
        self.k = k
        self.jet = jet
        self.work = min(source.order, target.order)
        self.source = source
        self.target = target
        # order-m0 entry of G must vanish for any map between these surfaces
        if self.m0 <= jet.order and not jet.g.coefficient((self.alpha0, self.mu0)).is_zero:
            raise InconsistentJet(f"G derivative ({self.alpha0},{self.mu0}) must vanish")
        self.us: list[TruncatedSeries] = []
        self.vs: list[TruncatedSeries] = []

    # -- step 0: F along the axis ---------------------------------------

    def _monic_root(self, surface) -> TruncatedSeries:
        """ell-th root of q_{alpha0,mu0} / (its x^ell coefficient): x times a
        unit with constant term 1, so it stays over Q(i)."""
        q_fn = surface.q_function(self.alpha0, self.mu0)
        return kth_root(q_fn / q_fn.coefficient((self.ell,)), self.ell)

    def solve_axis_f(self) -> TruncatedSeries:
        """conj F(x, 0) from root_t(g) = root_s * conj(lam10) * gauge."""
        lam10 = self.jet.f.coefficient((1, 0))
        rhs = self._monic_root(self.source) * lam10.conjugate()
        if self.m0 == 1:
            ratio = self.jet.f.coefficient((0, 1)) / lam10
            unit = (1 + self.source.q_function(1, 0) * ratio).inverse()
            rhs = rhs * kth_root(unit, self.ell)
        return solve_composition(self._monic_root(self.target), rhs)

    # -- the identity at one slot ---------------------------------------

    @cached_property
    def jet_on_source(self) -> list[TruncatedSeries]:
        """F(z, Q) and G(z, Q) of the jet, inside the box of every slot read."""
        box = {"z": self.alpha0, "t": self.mu0 + self.k}
        on_source = _on_source(self.source, self.jet, self.work, box)
        return [_unpacked(SURFACE_VARS, side) for side in on_source]

    def _stack(self, entries) -> TruncatedSeries:
        """sum_r entries[r] * t^r in (z, x, t) for x-series entries, through
        the least of the working order and each nonzero entry's order plus r."""
        order = min([self.work] + [s.order + r for r, s in enumerate(entries) if not s.is_zero])
        out = {
            (0, b, r): c
            for r, s in enumerate(entries)
            for (b,), c in s.coefficients.items()
            if b + r <= order
        }
        return _series(SURFACE_VARS, order, out, None)

    def _extract(self, series, slot) -> TruncatedSeries:
        """The x-series at ``slot``; beyond the series' order it is unknown."""
        if sum(slot.values()) > series.order:
            raise TruncationLimit(
                f"reconstruction reads beyond the certified order {self.work}", self.work
            )
        return series.extract(slot, keep=("x",))

    def _identity(self, slot, us, vs) -> tuple:
        """Both sides at ``slot``, Fbar and Gbar stacked from ``us`` and ``vs``."""
        f_on_m, g_on_m = self.jet_on_source
        rhs = _image(self.target, f_on_m, self._stack(us), self._stack(vs), slot)
        return self._extract(g_on_m, slot), self._extract(_unpacked(SURFACE_VARS, rhs), slot)

    # -- conjugated G derivatives ----------------------------------------

    def solve_v(self, t: int) -> TruncatedSeries:
        """At z^0 t^t, where the unknown has coefficient 1 on the right."""
        lhs, rhs = self._identity({"z": 0, "t": t}, self.us, self.vs)
        return lhs - rhs

    # -- conjugated F derivatives ----------------------------------------

    @cached_property
    def gain(self) -> TruncatedSeries:
        """[z^alpha0 t^mu0] of (d_x Q')(F(z, Q), Fbar, Gbar), the coefficient of
        u_s at z^alpha0 t^(mu0+s), s >= 1: every z^a x^b t^c of d_x Q' has a + c
        >= m0, and F(z, Q), Gbar vanish at z = t = 0, so only a + c = m0 reaches
        the slot, through u_0, v_1 and the first-order term of u_s t^s in Fbar."""
        slot, q = {"z": self.alpha0, "t": self.mu0}, self.target.q
        low = {mi: c for mi, c in q.coefficients.items() if mi[0] + mi[2] <= self.m0}
        dq = TruncatedSeries(SURFACE_VARS, q.order, low).partial_derivative("x")
        subs = dict(z=self.jet_on_source[0], x=self._stack(self.us[:1]), t=self._stack(self.vs[:2]))
        return self._extract(dq.compose(subs, box=slot), slot)

    def solve_u(self, s: int) -> TruncatedSeries:
        """At z^alpha0 t^(mu0+s), where the unknown has coefficient ``gain``."""
        slot = {"z": self.alpha0, "t": self.mu0 + s}
        w_lhs, r0 = self._identity(slot, self.us, self.vs)
        gain = self.gain.truncate(r0.order)
        if gain.is_zero:
            raise TruncationLimit(
                f"coefficient of the order-{s} unknown vanishes to working order {self.work}",
                self.work,
            )
        ubar = self.jet.f.coefficient((0, s)).conjugate()
        dividend = w_lhs - r0
        if self.m0 + s > self.jet.order:
            # the jet does not carry the top coefficient; pin it at the origin
            dividend = dividend + (
                r0.coefficient((0,)) + gain.coefficient((0,)) * ubar
                - w_lhs.coefficient((0,))
            )
        nu = gain.vanishing_order()  # an int: the gain is nonzero
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
        top = min(self.jet.order, self.m0 + s)
        return top, self.jet.f.truncate(top), self.jet.g.truncate(top)

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
        return SegreJetResult(k, f_wk, g_wk)


def segre_jet_reconstruct(
    source: NormalFormSurface,
    target: NormalFormSurface,
    jet: MapGerm,
    k: int,
) -> SegreJetResult:
    """Recover H_{w^k}(z, 0) from the (k+1)-jet of H at the origin.

    Exact over Q(i) for every ell: the ell-th roots along {w = 0} are taken
    of series normalized to leading coefficient 1, so no branch is chosen.
    """
    require_shape(jet)
    if k < 0:
        raise JetArityError("derivative order must be nonnegative")
    if jet.order < k + 1:
        raise JetArityError(
            f"reconstructing order {k} consumes a jet of order {k + 1}, got {jet.order}"
        )
    return _Reconstruction(source, target, jet, k).run()


# ----------------------------------------------------------------------
# experiments


def invariant_mismatches(source: NormalFormSurface, target: NormalFormSurface) -> tuple:
    """(name, source value, target value) for every invariant that differs;
    any entry is an obstruction to a map between the two surfaces."""
    inv, inv2 = source.compute_invariants(), target.compute_invariants()
    return tuple((n, a, b) for n, a, b in zip(INVARIANTS, inv.tuple(), inv2.tuple()) if a != b)


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
        beta_identity = _agree(lhs, rhs)
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
    low = lowest_term(h1.f - h2.f, h1.g - h2.g)
    witness = None if low is None else ("FG"[low[0]], *low[1:])
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
        jet1.f.coefficient((1, 0)) == CR(1)
        and jet1.f.coefficient((0, 1)).is_zero
        and jet1.g.coefficient((0, 1)) == CR(1)
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
