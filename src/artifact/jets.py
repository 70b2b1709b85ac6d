"""Sections of jet bundles of vector fields in derivative coordinates.

A JetSection of order k stores, for every vector component i and every
multi-index a with |a| <= k, a truncated series giving the coordinate
function p^i_a(x) — the raw derivative of order a of the underlying field
when the section is holonomic.  A CheckedSection adds a horizontal vector
field, modelling T + J^kT.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (TruncatedSeries, index_add, index_order, multi_index_enum,
                     unit_index)


class OrderError(ValueError):
    pass


class JetSection:
    __slots__ = ("n", "order", "trunc", "comps")

    def __init__(self, n, order, trunc, comps=None):
        self.n = n
        self.order = order
        self.trunc = trunc
        clean = {}
        if comps:
            for (i, alpha), s in comps.items():
                alpha = tuple(alpha)
                if index_order(alpha) > order:
                    raise OrderError(f"multi-index {alpha} beyond order {order}")
                if isinstance(s, (int, Fraction)):
                    s = TruncatedSeries.const(s, n, trunc)
                if s.is_zero():
                    continue
                clean[(i, alpha)] = s
        self.comps = clean

    @classmethod
    def zero(cls, n, order, trunc):
        return cls(n, order, trunc)

    def get(self, i, alpha):
        return self.comps.get((i, tuple(alpha)),
                              TruncatedSeries.zero(self.n, self.trunc))

    def is_zero(self):
        return not self.comps

    def vanishes_below_top(self):
        return all(s.vanishes_below_top() for s in self.comps.values())

    def __eq__(self, other):
        if not isinstance(other, JetSection):
            return NotImplemented
        return (self.n == other.n and self.order == other.order
                and self.comps == other.comps)

    def __repr__(self):
        items = ", ".join(f"p{i}{''.join(map(str, a))}={s.to_str()}"
                          for (i, a), s in sorted(self.comps.items()))
        return f"JetSection(order={self.order}, {items or '0'})"

    def __add__(self, other):
        self._check(other)
        out = dict(self.comps)
        for key, s in other.comps.items():
            t = out.get(key)
            out[key] = s if t is None else t + s
        return JetSection(self.n, self.order, self.trunc, out)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, f):
        """Multiply by a rational or by a series (module structure over O)."""
        return JetSection(self.n, self.order, self.trunc,
                          {key: s * f for key, s in self.comps.items()})

    def _check(self, other):
        if (self.n, self.order, self.trunc) != (other.n, other.order,
                                                other.trunc):
            raise OrderError("jet sections with mismatched shape")

    def project(self, l):
        """pi_l: discard components of multi-index order above l."""
        if not 0 <= l <= self.order:
            raise OrderError(f"cannot project order {self.order} to {l}")
        out = {key: s for key, s in self.comps.items()
               if index_order(key[1]) <= l}
        return JetSection(self.n, l, self.trunc, out)

    def lift_zero(self, l):
        """Reinterpret at a higher order, new top slots identically zero."""
        if l < self.order:
            raise OrderError("lift target below current order")
        return JetSection(self.n, l, self.trunc, dict(self.comps))

    def order_zero_part(self):
        """The underlying vector field values beta_* sees: p^i_0."""
        z = (0,) * self.n
        return [self.get(i, z) for i in range(self.n)]

    def restrict_zero(self, vars_to_zero):
        out = {key: s.restrict_zero(vars_to_zero)
               for key, s in self.comps.items()}
        return JetSection(self.n, self.order, self.trunc, out)

    def at_point_zero(self):
        """Constant-term jet value as a dict (i, alpha) -> Fraction."""
        out = {}
        for (i, alpha), s in self.comps.items():
            c = s.constant_term()
            if c != 0:
                out[(i, alpha)] = c
        return out


def derivative_table(f, k):
    """Raw derivatives d^a f for |a| <= k, by order, as a dict a -> series;
    each is the derivative of the first lower entry that reaches it."""
    n = f.n
    table = {(0,) * n: f}
    layer = table
    for _ in range(k):
        nxt = {}
        for alpha, s in layer.items():
            for j in range(n):
                beta = index_add(alpha, unit_index(n, j))
                if beta not in nxt:
                    nxt[beta] = s.derive(j)
        table.update(nxt)
        layer = nxt
    return table


def holonomic_lift(theta, k):
    """j^k of a vector field given as a list of n series."""
    n = len(theta)
    trunc = theta[0].trunc
    if k < 0 or k > trunc:
        raise OrderError("jet order outside the series order budget")
    comps = {(i, alpha): s for i, th in enumerate(theta)
             for alpha, s in derivative_table(th, k).items()}
    return JetSection(n, k, trunc, comps)


def _spencer_direction(xi, j):
    """Direction j of the linear Spencer difference: the order-(k-1)
    section with components d_j(p^i_a) - p^i_{a+e_j}."""
    n = xi.n
    shift = unit_index(n, j)
    comps = {}
    for i in range(n):
        for alpha in multi_index_enum(n, xi.order - 1):
            s = xi.get(i, alpha).derive(j) - xi.get(i, index_add(alpha,
                                                                 shift))
            if not s.is_zero():
                comps[(i, alpha)] = s
    return JetSection(n, xi.order - 1, xi.trunc, comps)


def spencer_D(xi):
    """Linear Spencer operator: the Spencer difference per direction j."""
    if xi.order < 1:
        raise OrderError("Spencer operator needs order >= 1")
    return [_spencer_direction(xi, j) for j in range(xi.n)]


def contract(v, one_form):
    """i(v) of a list-per-direction of jet sections, v a vector field."""
    first = one_form[0]
    out = JetSection.zero(first.n, first.order, first.trunc)
    for j, eta in enumerate(one_form):
        out = out + eta.scale(v[j])
    return out


def spencer_D_two_form(one_form):
    """Extended Spencer operator on a J^k-valued one-form; returns the
    antisymmetric two-form components indexed by pairs i < j."""
    first = one_form[0]
    n = first.n
    if first.order < 1:
        raise OrderError("extended Spencer operator needs order >= 1")
    return {(i, j): (_spencer_direction(one_form[j], i)
                     - _spencer_direction(one_form[i], j))
            for i in range(n) for j in range(i + 1, n)}


class CheckedSection:
    """A horizontal vector field together with a jet section (T + J^kT)."""

    __slots__ = ("horizontal", "vertical")

    def __init__(self, horizontal, vertical):
        if len(horizontal) != vertical.n:
            raise OrderError("horizontal/vertical dimension mismatch")
        self.horizontal = list(horizontal)
        self.vertical = vertical

    @property
    def n(self):
        return self.vertical.n

    @property
    def order(self):
        return self.vertical.order

    @property
    def trunc(self):
        return self.vertical.trunc

    def __eq__(self, other):
        if not isinstance(other, CheckedSection):
            return NotImplemented
        return (self.horizontal == other.horizontal
                and self.vertical == other.vertical)

    def __add__(self, other):
        return CheckedSection([a + b for a, b in zip(self.horizontal,
                                                     other.horizontal)],
                              self.vertical + other.vertical)

    def __sub__(self, other):
        return CheckedSection([a - b for a, b in zip(self.horizontal,
                                                     other.horizontal)],
                              self.vertical - other.vertical)

    def scale(self, f):
        return CheckedSection([h * f for h in self.horizontal],
                              self.vertical.scale(f))

    def is_zero(self):
        return (all(h.is_zero() for h in self.horizontal)
                and self.vertical.is_zero())

    def vanishes_below_top(self):
        return (all(h.vanishes_below_top() for h in self.horizontal)
                and self.vertical.vanishes_below_top())

    def project(self, l):
        return CheckedSection(self.horizontal, self.vertical.project(l))

    def beta_star(self):
        """v + order-zero part of the jet, a plain vector field."""
        z = self.vertical.order_zero_part()
        return [h + s for h, s in zip(self.horizontal, z)]

    def is_tilde(self):
        """Does the horizontal part equal beta_* of the vertical part?"""
        return all((h - s).is_zero() for h, s in
                   zip(self.horizontal, self.vertical.order_zero_part()))

    def __repr__(self):
        h = ", ".join(s.to_str() for s in self.horizontal)
        return f"CheckedSection(h=[{h}], v={self.vertical!r})"


def tilde_section(xi):
    """Wrap a jet section with its beta_* horizontal part."""
    return CheckedSection(xi.order_zero_part(), xi)


def holonomic_checked(theta, k):
    return CheckedSection(list(theta), holonomic_lift(theta, k))


def vector_bracket(v, w):
    """Lie bracket of vector fields given as lists of series."""
    n = len(v)
    out = []
    for i in range(n):
        s = TruncatedSeries.zero(v[0].n, v[0].trunc)
        for j in range(n):
            s = s + v[j] * w[i].derive(j) - w[j] * v[i].derive(j)
        out.append(s)
    return out
