"""Partial connections along a fiber distribution V, built from a
one-form with jet-section values, their curvature, and parallel
extension off the transversal slice.

The connection data is a map w -> omega(w) from coordinate directions
spanning V to jet sections of order k+1 whose order-zero part is the
constant field w.  Covariant differentiation is the third bracket with
the tilde completion of omega(w); the curvature pairs up the values
through the second bracket.
"""

from __future__ import annotations

from fractions import Fraction

from .brackets import second_bracket, third_bracket
from .jets import CheckedSection, JetSection, OrderError, tilde_section
from .series import TruncatedSeries, index_order, multi_index_enum


class CompatibilityError(ValueError):
    pass


class ObstructionError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class PartialConnectionData:
    """omega in V* (x) J^{k+1}V with beta_*(i(w)omega) = w.

    ``omega`` maps a coordinate index w (a direction spanning V) to a
    JetSection of order k+1 with components only along V and order-zero
    part equal to the constant field in direction w.
    """

    __slots__ = ("n", "order", "trunc", "directions", "omega")

    def __init__(self, n, order, omega):
        self.n = n
        self.order = order
        self.directions = sorted(omega)
        if not self.directions:
            raise CompatibilityError("connection needs at least one direction")
        self.omega = dict(omega)
        first = self.omega[self.directions[0]]
        self.trunc = first.trunc
        vset = set(self.directions)
        for w, val in self.omega.items():
            if val.n != n or val.order != order + 1 or val.trunc != self.trunc:
                raise CompatibilityError(
                    "connection values need matching shape of order k+1")
            for (i, alpha), s in val.comps.items():
                if i not in vset and not s.is_zero():
                    raise CompatibilityError(
                        "connection values must be V-valued")
            zero_part = val.order_zero_part()
            for i in range(n):
                want = Fraction(1 if i == w else 0)
                if not (zero_part[i]
                        - TruncatedSeries.const(want, n, self.trunc)).is_zero():
                    raise CompatibilityError(
                        "order-zero part of omega(w) must equal w")

    def tilde(self, w):
        """The tilde completion of i(w)omega."""
        return tilde_section(self.omega[w])

    @classmethod
    def trivial(cls, n, order, directions, trunc):
        """The product connection: omega(w) = j^{k+1} of the constant
        field in direction w."""
        omega = {}
        for w in directions:
            comps = {(w, (0,) * n): TruncatedSeries.const(1, n, trunc)}
            omega[w] = JetSection(n, order + 1, trunc, comps)
        return cls(n, order, omega)


def nabla_apply(conn, cs, w):
    """Covariant derivative along the V-direction w: the third bracket
    of the tilde completion of omega(w) with the section."""
    if w not in conn.omega:
        raise CompatibilityError("direction not in the connection's span")
    if cs.order != conn.order or cs.n != conn.n:
        raise OrderError("section shape does not match the connection")
    return third_bracket(conn.tilde(w), cs)


def curvature_flatness(conn):
    """Curvature components per direction pair (second bracket of the
    tilde completions) and a flatness flag, judged below the top series
    order; one direction means no pairs and the connection is flat
    outright."""
    dirs = conn.directions
    curvature = {}
    flat = True
    witness = None
    for a in range(len(dirs)):
        for b in range(a + 1, len(dirs)):
            w, wp = dirs[a], dirs[b]
            comp = second_bracket(conn.tilde(w), conn.tilde(wp))
            curvature[(w, wp)] = comp
            if not comp.vanishes_below_top():
                flat = False
                if witness is None:
                    witness = (w, wp)
    return curvature, flat, witness


def parallel_extend(conn, boundary):
    """The unique formal solution of nabla(S) = 0 agreeing with the
    boundary on the slice where the V-variables vanish, built
    order-by-order in the V-variables."""
    _, flat, witness = curvature_flatness(conn)
    if not flat:
        raise ObstructionError("connection is not flat", witness=witness)
    n, k, trunc = conn.n, conn.order, conn.trunc
    dirs = conn.directions
    horizontal = [h.restrict_zero(dirs) for h in boundary.horizontal]
    vert = boundary.vertical.restrict_zero(dirs)
    comps = {(i, alpha): vert.get(i, alpha)
             for i in range(n) for alpha in multi_index_enum(n, k)}
    for vdeg in range(trunc):
        current = CheckedSection(
            horizontal, JetSection(n, k, trunc,
                                   {key: s for key, s in comps.items()
                                    if not s.is_zero()}))
        grads = {w: nabla_apply(conn, current, w) for w in dirs}
        for (i, alpha) in list(comps):
            extra = {}
            for exp in _exponents_with_v_degree(n, dirs, vdeg + 1, trunc):
                w = next(d for d in dirs if exp[d] > 0)
                below = exp[:w] + (exp[w] - 1,) + exp[w + 1:]
                c = grads[w].vertical.get(i, alpha).coefficient(below)
                if c != 0:
                    extra[exp] = -Fraction(c, exp[w])
            if extra:
                comps[(i, alpha)] = comps[(i, alpha)] + TruncatedSeries(
                    n, trunc, extra)
    final = {key: s for key, s in comps.items() if not s.is_zero()}
    return CheckedSection(horizontal, JetSection(n, k, trunc, final))


def _exponents_with_v_degree(n, dirs, vdeg, trunc):
    dset = set(dirs)
    for total in range(vdeg, trunc + 1):
        for exp in multi_index_enum(n, total):
            if index_order(exp) == total and sum(
                    exp[d] for d in dset) == vdeg:
                yield exp

