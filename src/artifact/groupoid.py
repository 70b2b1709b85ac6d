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
from math import lcm

from .series import (DimensionError, TruncatedSeries, compose_all,
                     factorial_of, index_order, multi_index_enum, unit_index,
                     reversion_system)
from .jets import (CheckedSection, JetSection, OrderError, contract,
                   derivative_table, spencer_D_two_form)
from .brackets import algebraic_bracket
from .equations import LinearLieEquation, NonRegularError, jet_coords
from .polymap import (ZERO, box_of, flat_derive, flat_lincomb, flat_mul,
                      flat_truncate, from_flat, pm_compose, pm_invert)


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

    def __repr__(self):
        return (f"GroupoidSection(order={self.order}, "
                f"base={[f.to_str() for f in self.base_map]})")


# -- jet maps as flat polynomials ----------------------------------------

def _box(n, trunc, order, duals=0):
    """Jet maps of the given order over a chart of dimension n: the source
    point x (degree <= trunc), ``duals`` dual variables (t^2 = 0) and the
    fiber variables u (degree <= order), from the low bits up."""
    return box_of(((n, trunc),) + ((1, 1),) * duals + ((n, order),))


def _flat(box, terms):
    """The polynomial sum of x-series times monomials on the box, from
    triples (key of the monomial, series in x, int divisor)."""
    n, trunc = box.groups[0]
    nums = []
    for key, s, d in terms:
        if s.n != n or s.trunc != trunc:
            raise DimensionError("series with mismatched n_vars or trunc")
        for beta, c in s.coeffs.items():
            nums.append((box.pack(0, beta) + key, c.numerator,
                         c.denominator * d))
    if not nums:
        return ZERO
    den = lcm(*[d for _, _, d in nums])
    return den, {k: v * (den // d) for k, v, d in nums}


def _series_map(box, fs):
    return [_flat(box, [(0, f, 1)]) for f in fs]


def _series(box, f):
    """The series in x of a flat polynomial in x alone."""
    n, trunc = box.groups[0]
    return TruncatedSeries._trusted(n, trunc, {box.unpack(0, k): c for k, c
                                               in from_flat(f).items()})


def _jet_map(box, sigma):
    """The Taylor polynomial sum_a s^i_a(x) u^a / a! of each component."""
    u = len(box.groups) - 1
    return [_flat(box, [(box.pack(u, alpha), s, factorial_of(alpha))
                        for (j, alpha), s in sigma.fiber.items() if j == i])
            for i in range(sigma.n)]


def _jets(box, fmap, trunc, dual=0):
    """(i, alpha) -> series in raw-derivative scaling of a flat jet map,
    from its terms whose factor in the groups between x and u is the
    monomial ``dual``."""
    n = box.groups[0][0]
    u = len(box.groups) - 1
    out = {}
    for i, (den, terms) in enumerate(fmap):
        for k, v in terms.items():
            xk, uk = box.part(0, k), box.part(u, k)
            if k - xk - uk != dual:
                continue
            alpha = box.unpack(u, uk)
            coeffs = out.get((i, alpha))
            if coeffs is None:
                coeffs = out[(i, alpha)] = {}
            coeffs[box.unpack(0, xk)] = Fraction(v * factorial_of(alpha),
                                                 den)
    return {key: TruncatedSeries._trusted(n, trunc, coeffs)
            for key, coeffs in out.items()}


def _move(box, fmap, h):
    """The coefficients of a flat jet map as functions of the point y with
    x = h(y): substitute x, pass u through."""
    return pm_compose(box, fmap, _series_map(box, h), box.bounds[0], group=0)


def _inverted(sigma, duals=0):
    """(box, jet map, fiber inverse) of a section, inverted once for every
    use an op makes of it."""
    box = _box(sigma.n, sigma.trunc, sigma.order, duals)
    p = _jet_map(box, sigma)
    return box, p, pm_invert(box, p, sigma.order)


def jet_compose(A, B):
    """The section x -> A(beta B(x)) o B(x); apply B first, then A."""
    if A.order != B.order or A.n != B.n:
        raise OrderError("composition needs matching order and dimension")
    n, k, trunc = A.n, A.order, A.trunc
    box = _box(n, trunc, k)
    # transport A's coefficient functions and base map to the source
    # chart of B, in one substitution
    moved = _move(box, _jet_map(box, A) + _series_map(box, A.base_map),
                  B.base_map)
    base = [_series(box, f) for f in moved[n:]]
    comp = pm_compose(box, moved[:n], _jet_map(box, B), k)
    return GroupoidSection(n, k, trunc, base, _jets(box, comp, trunc))


def jet_invert(A):
    """Pointwise jet inverse re-parameterized by the inverted base map."""
    n, k, trunc = A.n, A.order, A.trunc
    h = reversion_system(A.base_map)
    box, _p, q = _inverted(A)
    return GroupoidSection(n, k, trunc, h, _jets(box, _move(box, q, h), trunc))


# -- nonlinear Spencer operator ---------------------------------------

def _spencer_curves(box, base, p, q):
    """Per base direction j, the curve of jets

        t -> j^k(inverse representative at the moved target) o (jet at x+t e_j)

    as a flat map on ``box`` (groups x, dual parameters, t, u).  ``base``
    is the base map and ``p`` the jet map of an order-(k+1) section, ``q``
    its fiber inverse.  The curve passes through the identity at t = 0;
    the t-linear part of its coefficients (and of the target offset,
    minus e_j) is i(e_j) D sigma."""
    n = box.groups[0][0]
    t = len(box.groups) - 2
    u = t + 1
    k = box.bounds[u] - 1
    tkey = box.unit(t, 0)

    def times_t(f):
        return f[0], {key + tkey: v for key, v in f[1].items()}

    p_k = [flat_truncate(box, c, u, k) for c in p]
    out = []
    for j in range(n):
        # jet coefficients transported along x + t e_j
        p_t = [flat_lincomb(c, times_t(flat_derive(box, c, 0, j)))
               for c in p_k]
        # first-order Taylor shift of the inverse jet by the target motion
        delta_dot = [flat_derive(box, f, 0, j) for f in base]
        q_shift = []
        for c in q:
            shifted = c
            for m, dm in enumerate(delta_dot):
                if dm[1]:
                    shifted = flat_lincomb(shifted, times_t(flat_mul(
                        box, dm, flat_derive(box, c, u, m))))
            q_shift.append(shifted)
        curve = pm_compose(box, q_shift, p_t, k)
        curve[j] = flat_lincomb(curve[j], (1, {tkey: 1}), -1)
        out.append(curve)
    return out


def _spencer_D(box, sigma, p, q):
    tkey = box.unit(1, 0)
    curves = _spencer_curves(box, _series_map(box, sigma.base_map), p, q)
    return [JetSection(sigma.n, sigma.order - 1, sigma.trunc,
                       _jets(box, c, sigma.trunc, tkey)) for c in curves]


def nonlinear_spencer_D(sigma):
    """D sigma for a section of order k+1: per direction, a vertical jet
    section of order k; vanishes exactly when sigma is holonomic."""
    if sigma.order < 1:
        raise OrderError("the nonlinear Spencer operator needs order >= 1")
    box, p, q = _inverted(sigma, duals=1)
    return _spencer_D(box, sigma, p, q)


def nonlinear_spencer_D_family(base_pairs, fiber_pairs, n, order, trunc):
    """D sigma_t to first order in t for a family given by dual pairs
    (value, t-derivative); returns per direction a pair of JetSections
    (value at t=0, t-derivative)."""
    # the family's parameter is the dual group 1, the curve's group 2
    box = _box(n, trunc, order, duals=2)
    skey, tkey = box.unit(1, 0), box.unit(2, 0)
    base = [_flat(box, [(0, v0, 1), (skey, v1, 1)]) for v0, v1 in base_pairs]
    p = []
    for i in range(n):
        terms = []
        for alpha in multi_index_enum(n, order):
            pair = fiber_pairs.get((i, alpha))
            if index_order(alpha) and pair is not None:
                key, w = box.pack(3, alpha), factorial_of(alpha)
                terms += [(key, pair[0], w), (key + skey, pair[1], w)]
        p.append(_flat(box, terms))
    curves = _spencer_curves(box, base, p, pm_invert(box, p, order))
    return [(JetSection(n, order - 1, trunc, _jets(box, c, trunc, tkey)),
             JetSection(n, order - 1, trunc,
                        _jets(box, c, trunc, tkey + skey)))
            for c in curves]


def d1_curvature(u):
    """D1 u = D u - (1/2)[u, u] on a jet-valued one-form; components are
    indexed by direction pairs i < j."""
    if u[0].order < 1:
        raise OrderError("curvature operator needs order >= 1")
    return {(i, j): d - algebraic_bracket(u[i], u[j])
            for (i, j), d in spencer_D_two_form(u).items()}


# -- action on checked sections ---------------------------------------

def _adjoint(box, p, q, xi):
    """Push a vertical jet section of order k through an order-(k+1)
    groupoid section given by its jet map ``p`` and fiber inverse ``q``:
    the polynomial pushforward per point, as a flat jet map whose
    coefficients are still functions of the source point."""
    n, k = xi.n, xi.order
    u = len(box.groups) - 1
    if box.bounds[u] != k + 1:
        raise OrderError("vertical action needs a jet one order below")
    # theta as an offset polynomial, including its constant term
    theta = [_flat(box, [(box.pack(u, alpha), s, factorial_of(alpha))
                         for (j, alpha), s in xi.comps.items() if j == m])
             for m in range(n)]
    # B(u) = Jacobian_u P (u) . theta(u), then A(w) = B(Q(w))
    bounds = box.bounds[:u] + (k,)
    b = []
    for c in p:
        acc = ZERO
        for m in range(n):
            acc = flat_lincomb(acc, flat_mul(box, flat_derive(box, c, u, m),
                                             theta[m], bounds))
        b.append(acc)
    return pm_compose(box, b, q, k)


def _adjoint_vertical(box, p, q, xi, h):
    """``_adjoint`` re-centered: its coefficients become functions of the
    image point.  ``h`` is the inverse of the section's base map."""
    return JetSection(xi.n, xi.order, xi.trunc,
                      _jets(box, _move(box, _adjoint(box, p, q, xi), h),
                            xi.trunc))


def pushforward_one_form(sigma, u):
    """Transport a jet-valued one-form: values by the adjoint action, the
    covector slot by the inverse base map's Jacobian."""
    n, trunc = sigma.n, sigma.trunc
    h = reversion_system(sigma.base_map)
    box, p, q = _inverted(sigma)
    values = [_adjoint_vertical(box, p, q, um, h) for um in u]
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
    pushed = []
    for i in range(n):
        s = TruncatedSeries.zero(n, trunc)
        for j in range(n):
            s = s + sigma.base_map[i].derive(j) * cs.horizontal[j]
        pushed.append(s)
    horizontal = compose_all(pushed, h)
    box, p, q = _inverted(sigma, duals=1)
    dsig = _spencer_D(box, sigma, p, q)
    vert_in = cs.vertical + contract(cs.horizontal, dsig)
    vertical = _adjoint_vertical(box, p, q, vert_in, h)
    return CheckedSection(horizontal, vertical)


def pushforward_equation(sigma, eq):
    """Transport a linear Lie equation: xi' satisfies the result iff the
    inverse action of sigma carries xi' into the original system."""
    if sigma.order < eq.order + 1:
        raise OrderError("pushforward needs sigma of order >= k+1")
    sigma = sigma.project(eq.order + 1)
    n, trunc, k = eq.n, eq.trunc, eq.order
    # the jet of sigma's inverse and its fiber inverse, both as functions
    # of the image point y, x = h(y)
    h = reversion_system(sigma.base_map)
    box, p_s, q_s = _inverted(sigma)
    p, q = _move(box, q_s, h), _move(box, p_s, h)
    # A new relation is sum c(h(y)) A(y) over the pushed basis vectors A:
    # re-centering A by sigma's base map and then substituting h would
    # give A back, as sigma.base_map o h = id to order trunc, so only the
    # relations' coefficients c are moved by h.
    transported = {}
    for c in jet_coords(n, k, eq.components):
        unit = JetSection(n, k, trunc,
                          {c: TruncatedSeries.const(1, n, trunc)})
        transported[c] = JetSection(n, k, trunc, _jets(
            box, _adjoint(box, p, q, unit), trunc))
    rows = eq.relation_rows()
    moved = iter(compose_all([c for row in rows for c in row.values()], h))
    new_rels = []
    # original relations composed through the transported basis
    for row in rows:
        row = [(key, next(moved)) for key in row]
        acc = {}
        for cprime, image in transported.items():
            s = TruncatedSeries.zero(n, trunc)
            for (i, alpha), c in row:
                s = s + c * image.get(i, alpha)
            if not s.is_zero():
                acc[cprime] = s
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
                    acc[cprime] = s
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
