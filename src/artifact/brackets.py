"""First, second, and third brackets on checked jet sections.

The pointwise algebraic bracket is implemented twice on purpose: once by
the closed multinomial formula and once through Taylor-polynomial
representatives; both routes are exported and tested against each other.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (TruncatedSeries, binom_multi, factorial_of, index_add,
                     indices_below, multi_index_enum, unit_index)
from .jets import (CheckedSection, JetSection, OrderError, contract, spencer_D,
                   vector_bracket)


class TildeConditionError(ValueError):
    pass


class LiftError(ValueError):
    pass


def algebraic_bracket(X, Y):
    """Pointwise bracket of order-k jet sections, landing at order k-1:
    {X,Y}^i_g = sum_{d<=g} C(g,d) (X^j_d Y^i_{g-d+e_j} - Y^j_d X^i_{g-d+e_j}).
    """
    if (X.n, X.order, X.trunc) != (Y.n, Y.order, Y.trunc):
        raise OrderError("algebraic bracket needs matching jet shapes")
    if X.order < 1:
        raise OrderError("algebraic bracket needs order >= 1")
    n, trunc = X.n, X.trunc
    comps = {}
    for i in range(n):
        for gamma in multi_index_enum(n, X.order - 1):
            s = TruncatedSeries.zero(n, trunc)
            for delta in indices_below(gamma):
                c = binom_multi(gamma, delta)
                rest = tuple(g - d for g, d in zip(gamma, delta))
                for j in range(n):
                    shift = index_add(rest, unit_index(n, j))
                    s = s + (X.get(j, delta) * Y.get(i, shift)
                             - Y.get(j, delta) * X.get(i, shift)) * c
            if not s.is_zero():
                comps[(i, gamma)] = s
    return JetSection(n, X.order - 1, trunc, comps)


def algebraic_bracket_oracle(Xval, Yval, n, k, trunc=None):
    """Reference route for jet values at a point: lift both values to
    Taylor-polynomial vector fields, bracket them as fields, re-extract
    the (k-1)-jet at 0.  Values are dicts (i, alpha) -> Fraction."""
    trunc = 2 * k if trunc is None else trunc

    def rep(val):
        fields = []
        for i in range(n):
            coeffs = {}
            for alpha in multi_index_enum(n, k):
                c = val.get((i, alpha), Fraction(0))
                if c != 0:
                    coeffs[alpha] = Fraction(c, factorial_of(alpha))
            fields.append(TruncatedSeries(n, trunc, coeffs))
        return fields

    bracket = vector_bracket(rep(Xval), rep(Yval))
    out = {}
    for i in range(n):
        for gamma in multi_index_enum(n, k - 1):
            c = bracket[i].coefficient(gamma) * factorial_of(gamma)
            if c != 0:
                out[(i, gamma)] = c
    return out


def first_bracket(a, b):
    """[[v+xi, w+eta]]_k = [v,w] + i(v)D(eta) - i(w)D(xi) + {xi,eta}."""
    if a.order != b.order:
        raise OrderError("first bracket needs matching orders")
    if a.order < 1:
        # order 0: the vertical part of the bracket vanishes
        h = vector_bracket(a.horizontal, b.horizontal)
        return CheckedSection(h, JetSection.zero(a.n, 0, a.trunc))
    h = vector_bracket(a.horizontal, b.horizontal)
    vert = (contract(a.horizontal, spencer_D(b.vertical))
            - contract(b.horizontal, spencer_D(a.vertical))
            + algebraic_bracket(a.vertical, b.vertical))
    return CheckedSection(h, vert)


def algebroid_bracket(xi, eta):
    """Bracket of plain jet sections using the anchor beta_* as the
    horizontal part: [[xi,eta]]_k at order k-1."""
    return first_bracket(CheckedSection(xi.order_zero_part(), xi),
                         CheckedSection(eta.order_zero_part(), eta)).vertical


def _check_lift(cs, lift):
    if lift.order != cs.order + 1:
        raise LiftError("lift must have order one higher")
    if lift.project(cs.order) != cs.vertical:
        raise LiftError("lift does not project onto the section")


def second_bracket(a, b, lift_a=None, lift_b=None):
    """Bracket on tilde sections (horizontal = beta_* vertical) with no
    order drop; computed through order-(k+1) lifts and independent of
    their choice."""
    if not a.is_tilde() or not b.is_tilde():
        raise TildeConditionError("second bracket needs tilde sections")
    if a.order != b.order:
        raise OrderError("second bracket needs matching orders")
    k = a.order
    lift_a = a.vertical.lift_zero(k + 1) if lift_a is None else lift_a
    lift_b = b.vertical.lift_zero(k + 1) if lift_b is None else lift_b
    _check_lift(a, lift_a)
    _check_lift(b, lift_b)
    res = first_bracket(CheckedSection(a.horizontal, lift_a),
                        CheckedSection(b.horizontal, lift_b))
    return res


def third_bracket(a, b, lift_b=None):
    """Bracket of a tilde section of order k+1 with a checked section of
    order k; equals the first bracket against any lift of b."""
    if not a.is_tilde():
        raise TildeConditionError("third bracket needs a tilde left argument")
    if a.order != b.order + 1:
        raise OrderError("third bracket needs orders k+1 and k")
    lift_b = b.vertical.lift_zero(b.order + 1) if lift_b is None else lift_b
    if lift_b.order != b.order + 1 or lift_b.project(b.order) != b.vertical:
        raise LiftError("lift does not project onto the section")
    return first_bracket(a, CheckedSection(b.horizontal, lift_b))
