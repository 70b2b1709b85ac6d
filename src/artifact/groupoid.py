"""Invertible jet sections: composition, inversion, the nonlinear Spencer
operator, its curvature identity, the action on checked sections, and the
formal-isomorphism hypothesis verifier.

A GroupoidSection stores, over each source point x, the k-jet of a local
diffeomorphism: the target point (base_map) and the raw derivatives
s^i_a(x) for 1 <= |a| <= k.  Charts are centered at the origin on both
sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import (SeriesRing, TruncatedSeries, factorial_of, index_order,
                     multi_index_enum, unit_index, reversion_system)
from .jets import (CheckedSection, JetSection, OrderError, contract,
                   derivative_table, spencer_D_two_form)
from .brackets import algebraic_bracket
from .equations import LinearLieEquation, NonRegularError, jet_coords
from .polymap import (DualRing, pm_compose, pm_invert, poly_add, poly_derive,
                      poly_mul)


class NotInvertibleError(ValueError):
    pass


class GroupoidSection:
    __slots__ = ("n", "order", "trunc", "base_map", "fiber")

    def __init__(self, n, order, trunc, base_map, fiber):
        self.n = n
        self.order = order
        self.trunc = trunc
        self.base_map = list(base_map)
        for f in self.base_map:
            if f.constant_term() != 0:
                raise ValueError("base map must fix the origin of the chart")
        clean = {}
        for (i, alpha), s in fiber.items():
            alpha = tuple(alpha)
            if not 1 <= index_order(alpha) <= order:
                raise OrderError(f"fiber jet index {alpha} out of range")
            if isinstance(s, (int, Fraction)):
                s = TruncatedSeries.const(s, n, trunc)
            if not s.is_zero():
                clean[(i, alpha)] = s
        self.fiber = clean
        lin = [[self.jet(i, unit_index(n, j)).constant_term()
                for j in range(n)] for i in range(n)]
        from .linalg import invert_matrix
        if invert_matrix(lin) is None:
            raise NotInvertibleError("singular linear part at the base point")

    def jet(self, i, alpha):
        return self.fiber.get((i, tuple(alpha)),
                              TruncatedSeries.zero(self.n, self.trunc))

    @classmethod
    def identity(cls, n, order, trunc):
        base = [TruncatedSeries.var(i, n, trunc) for i in range(n)]
        fiber = {(i, unit_index(n, i)): TruncatedSeries.const(1, n, trunc)
                 for i in range(n)}
        return cls(n, order, trunc, base, fiber)

    @classmethod
    def holonomic(cls, f, order):
        """j^order of a map given by series components fixing 0."""
        fiber = {(i, alpha): s for i, fi in enumerate(f)
                 for alpha, s in derivative_table(fi, order).items()
                 if any(alpha)}
        return cls(len(f), order, f[0].trunc, list(f), fiber)

    def __eq__(self, other):
        if not isinstance(other, GroupoidSection):
            return NotImplemented
        return (self.n == other.n and self.order == other.order
                and self.base_map == other.base_map
                and self.fiber == other.fiber)

    def project(self, order):
        if order > self.order:
            raise OrderError("cannot project upward")
        fiber = {key: s for key, s in self.fiber.items()
                 if index_order(key[1]) <= order}
        return GroupoidSection(self.n, order, self.trunc, self.base_map,
                               fiber)

    def to_polymap(self):
        """Taylor-normalized offset polynomial of the jet, per component."""
        out = []
        for i in range(self.n):
            comp = {}
            for alpha in multi_index_enum(self.n, self.order):
                if index_order(alpha) == 0:
                    continue
                s = self.jet(i, alpha)
                if not s.is_zero():
                    comp[alpha] = s * Fraction(1, factorial_of(alpha))
            out.append(comp)
        return out

    @classmethod
    def from_polymap(cls, n, order, trunc, base_map, pmap):
        fiber = {}
        for i, comp in enumerate(pmap):
            for alpha, s in comp.items():
                fiber[(i, alpha)] = s * factorial_of(alpha)
        return cls(n, order, trunc, base_map, fiber)

    def __repr__(self):
        return (f"GroupoidSection(order={self.order}, "
                f"base={[f.to_str() for f in self.base_map]})")


def jet_compose(A, B):
    """The section x -> A(beta B(x)) o B(x); apply B first, then A."""
    if A.order != B.order or A.n != B.n:
        raise OrderError("composition needs matching order and dimension")
    n, k, trunc = A.n, A.order, A.trunc
    ring = SeriesRing(n, trunc)
    # transport A's coefficient functions to the source chart of B
    pa = A.to_polymap()
    pa_at = [{alpha: s.compose(B.base_map) for alpha, s in comp.items()}
             for comp in pa]
    pb = B.to_polymap()
    comp = pm_compose(ring, pa_at, pb, k)
    base = [f.compose(B.base_map) for f in A.base_map]
    return GroupoidSection.from_polymap(n, k, trunc, base, comp)


def jet_invert(A):
    """Pointwise jet inverse re-parameterized by the inverted base map."""
    n, k, trunc = A.n, A.order, A.trunc
    ring = SeriesRing(n, trunc)
    h = reversion_system(A.base_map)
    q = pm_invert(ring, A.to_polymap(), k)
    q_at = [{alpha: s.compose(h) for alpha, s in comp.items()} for comp in q]
    return GroupoidSection.from_polymap(n, k, trunc, h, q_at)


# -- nonlinear Spencer operator ---------------------------------------

def _spencer_impl(ring, base_map, pmap_full, n, order_out):
    """Shared recipe: ring elements for the base map components and the
    Taylor polynomial of an (order_out+1)-jet section; returns, per base
    direction, a dict (i, alpha) -> ring element for |alpha| <= order_out.

    For each direction j the one-parameter curve of jets

        t -> j^k(inverse representative at the moved target) o (jet at x+t e_j)

    passes through the identity at t = 0; the t-linear part of its
    coefficients (and of the target offset, minus e_j) is i(e_j) D sigma.
    """
    k = order_out
    dual = DualRing(ring)
    q = pm_invert(ring, pmap_full, k + 1)
    out = []
    for j in range(n):
        # jet coefficients transported along x + t e_j
        p_t = []
        for comp in pmap_full:
            d = {}
            for alpha, s in comp.items():
                if index_order(alpha) <= k:
                    d[alpha] = (s, ring.derive(s, j))
            p_t.append(d)
        delta_dot = [ring.derive(f, j) for f in base_map]
        # first-order Taylor shift of the inverse jet by the target motion
        q_shift = []
        for comp in q:
            base_part = {alpha: dual.lift(s) for alpha, s in comp.items()}
            corr = {}
            for m in range(n):
                if ring.is_zero(delta_dot[m]):
                    continue
                dm = poly_derive(ring, comp, m)
                for alpha, s in dm.items():
                    c = ring.mul(delta_dot[m], s)
                    if ring.is_zero(c):
                        continue
                    prev = corr.get(alpha, ring.zero)
                    corr[alpha] = ring.add(prev, c)
            merged = dict(base_part)
            for alpha, c in corr.items():
                a0, a1 = merged.get(alpha, dual.zero)
                merged[alpha] = (a0, ring.add(a1, c))
            q_shift.append(merged)
        # constant (u-degree 0) terms feed the order-zero components
        zero_alpha = (0,) * n
        const = [comp.pop(zero_alpha, dual.zero) for comp in q_shift]
        curve = pm_compose(dual, q_shift, p_t, k)
        comps = {}
        for i in range(n):
            c0, c1 = const[i]
            val = c1
            if i == j:
                val = ring.add(val, ring.neg(ring.one))
            if not ring.is_zero(val):
                comps[(i, zero_alpha)] = val
            for alpha, (a0, a1) in curve[i].items():
                coeff = ring.mul(ring.rat(factorial_of(alpha)), a1)
                if not ring.is_zero(coeff):
                    comps[(i, alpha)] = coeff
        out.append(comps)
    return out


def nonlinear_spencer_D(sigma):
    """D sigma for a section of order k+1: per direction, a vertical jet
    section of order k; vanishes exactly when sigma is holonomic."""
    if sigma.order < 1:
        raise OrderError("the nonlinear Spencer operator needs order >= 1")
    n, trunc = sigma.n, sigma.trunc
    k = sigma.order - 1
    ring = SeriesRing(n, trunc)
    raw = _spencer_impl(ring, sigma.base_map, sigma.to_polymap(), n, k)
    return [JetSection(n, k, trunc, comps) for comps in raw]


def nonlinear_spencer_D_family(base_pairs, fiber_pairs, n, order, trunc):
    """D sigma_t to first order in t for a family given by dual pairs
    (value, t-derivative); returns per direction a pair of JetSections
    (value at t=0, t-derivative)."""
    ring = SeriesRing(n, trunc)
    dual = DualRing(ring)
    pmap = []
    for i in range(n):
        comp = {}
        for alpha in multi_index_enum(n, order):
            if index_order(alpha) == 0:
                continue
            pair = fiber_pairs.get((i, alpha))
            if pair is None:
                continue
            w = Fraction(1, factorial_of(alpha))
            comp[alpha] = (pair[0] * w, pair[1] * w)
        pmap.append(comp)
    raw = _spencer_impl(dual, list(base_pairs), pmap, n, order - 1)
    out = []
    for comps in raw:
        v0 = {key: s[0] for key, s in comps.items() if not s[0].is_zero()}
        v1 = {key: s[1] for key, s in comps.items() if not s[1].is_zero()}
        out.append((JetSection(n, order - 1, trunc, v0),
                    JetSection(n, order - 1, trunc, v1)))
    return out


def d1_curvature(u):
    """D1 u = D u - (1/2)[u, u] on a jet-valued one-form; components are
    indexed by direction pairs i < j."""
    if u[0].order < 1:
        raise OrderError("curvature operator needs order >= 1")
    return {(i, j): d - algebraic_bracket(u[i], u[j])
            for (i, j), d in spencer_D_two_form(u).items()}


# -- action on checked sections ---------------------------------------

def _adjoint_vertical(sigma, xi):
    """Push a vertical jet section of order k through an order-(k+1)
    groupoid section: polynomial pushforward per point, re-centered at the
    image point."""
    n, trunc = sigma.n, sigma.trunc
    k = sigma.order - 1
    if xi.order != k:
        raise OrderError("vertical action needs a jet one order below")
    ring = SeriesRing(n, trunc)
    p = sigma.to_polymap()
    q = pm_invert(ring, p, k + 1)
    # theta as an offset polynomial, including its constant term
    theta = []
    for i in range(n):
        comp = {}
        for alpha in multi_index_enum(n, k):
            s = xi.get(i, alpha)
            if not s.is_zero():
                comp[alpha] = s * Fraction(1, factorial_of(alpha))
        theta.append(comp)
    # B(u) = Jacobian_u P (u) . theta(u)
    b = []
    for i in range(n):
        acc = {}
        for m in range(n):
            dpm = poly_derive(ring, p[i], m)
            acc = poly_add(ring, acc, poly_mul(ring, dpm, theta[m], k))
        b.append(acc)
    # A(w) = B(Q(w)): split off the constant term of B before composing
    zero_alpha = (0,) * n
    consts = [comp.pop(zero_alpha, ring.zero) for comp in b]
    a = pm_compose(ring, b, [dict(c) for c in q], k)
    for i in range(n):
        if not ring.is_zero(consts[i]):
            a[i] = poly_add(ring, a[i], {zero_alpha: consts[i]})
    # re-center: coefficients become functions of the image point
    h = reversion_system(sigma.base_map)
    comps = {}
    for i in range(n):
        for alpha, s in a[i].items():
            val = (s * factorial_of(alpha)).compose(h)
            if not val.is_zero():
                comps[(i, alpha)] = val
    return JetSection(n, k, trunc, comps)


def pushforward_one_form(sigma, u):
    """Transport a jet-valued one-form: values by the adjoint action, the
    covector slot by the inverse base map's Jacobian."""
    n, trunc = sigma.n, sigma.trunc
    h = reversion_system(sigma.base_map)
    values = [_adjoint_vertical(sigma, um) for um in u]
    out = []
    for j in range(n):
        acc = JetSection.zero(n, u[0].order, trunc)
        for m in range(n):
            acc = acc + values[m].scale(h[m].derive(j))
        out.append(acc)
    return out


def groupoid_action(sigma, cs):
    """(sigma_{k+1})_* on T + J^kT: the horizontal part is the base-map
    pushforward; the vertical part is the adjoint action applied to
    xi + i(v) D sigma."""
    if cs.order != sigma.order - 1:
        raise OrderError("action needs a section one order below sigma")
    n, trunc = sigma.n, sigma.trunc
    h = reversion_system(sigma.base_map)
    horizontal = []
    for i in range(n):
        s = TruncatedSeries.zero(n, trunc)
        for j in range(n):
            s = s + sigma.base_map[i].derive(j) * cs.horizontal[j]
        horizontal.append(s.compose(h))
    dsig = nonlinear_spencer_D(sigma)
    vert_in = cs.vertical + contract(cs.horizontal, dsig)
    vertical = _adjoint_vertical(sigma, vert_in)
    return CheckedSection(horizontal, vertical)


def pushforward_equation(sigma, eq):
    """Transport a linear Lie equation: xi' satisfies the result iff the
    inverse action of sigma carries xi' into the original system."""
    if sigma.order < eq.order + 1:
        raise OrderError("pushforward needs sigma of order >= k+1")
    sigma = sigma.project(eq.order + 1)
    n, trunc, k = eq.n, eq.trunc, eq.order
    inv = jet_invert(sigma)
    h = reversion_system(sigma.base_map)
    coords = jet_coords(n, k, eq.components)
    transported = {}
    for c in coords:
        unit = JetSection(n, k, trunc,
                          {c: TruncatedSeries.const(1, n, trunc)})
        transported[c] = _adjoint_vertical(inv, unit)
    new_rels = []
    # original relations composed through the transported basis
    for row in eq.relation_rows():
        acc = {}
        for cprime, image in transported.items():
            s = TruncatedSeries.zero(n, trunc)
            for (i, alpha), c in row.items():
                s = s + c * image.get(i, alpha)
            if not s.is_zero():
                acc[cprime] = s.compose(h)
        if acc:
            new_rels.append(acc)
    # staying inside the fiber distribution must be preserved
    for i0 in range(n):
        if i0 in eq.components:
            continue
        for alpha in multi_index_enum(n, k):
            acc = {}
            for cprime, image in transported.items():
                s = image.get(i0, alpha)
                if not s.is_zero():
                    acc[cprime] = s.compose(h)
            if acc:
                new_rels.append(acc)
    return LinearLieEquation(n, k, eq.fiber_vars, new_rels, trunc)


@dataclass
class IsomorphismReport:
    base_map_adapted: bool
    equation_transported: bool
    spencer_member: bool
    witness_direction: int | None = None

    @property
    def passed(self):
        return (self.base_map_adapted and self.equation_transported
                and self.spencer_member)


def verify_formal_isomorphism(F, eq, eq_target, vanishing_vars):
    """The three hypothesis clauses for a candidate formal isomorphism:
    (a) the base map respects the transversal/fibration split,
    (b) the pushforward of the equation equals the target system,
    (c) the nonlinear Spencer derivative of F satisfies the equation."""
    # clause (a): the base map sends N = {vanishing vars = 0} into the
    # target transversal, i.e. its fiber components vanish along N
    vanishing = sorted(set(vanishing_vars))
    adapted = True
    for i in eq.fiber_vars:
        if not F.base_map[i].restrict_zero(vanishing).is_zero():
            adapted = False
    try:
        transported = pushforward_equation(F, eq).same_system(eq_target)
    except NonRegularError:
        transported = False
    dsig = nonlinear_spencer_D(F.project(eq.order + 1))
    member = True
    witness = None
    for j, u in enumerate(dsig):
        if not eq.is_member(u):
            member = False
            witness = j
            break
    return IsomorphismReport(adapted, transported, member, witness)
