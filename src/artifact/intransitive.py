"""Restriction of linear Lie equations to a transversal slice, the
truncated intransitive Lie algebra structure over it, bracket tables,
and the classifier for rank-one plane equations.

On the slice N = {fiber variables = 0} the bracket of two restricted jet
sections reduces to the pointwise algebraic bracket (the fiber
derivatives cancel against the jet components), while the bracket of a
transversal derivation with a jet section is the contraction with the
linear Spencer operator.  Structure functions are obtained by expanding
each bracket in the generators one order down, solving over the
truncated series ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brackets import algebraic_bracket
from .equations import equation_build, jet_coords
from .jets import contract, holonomic_lift, spencer_D, vector_bracket
from .series import TruncatedSeries, index_order


class ClosureError(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class RankError(ValueError):
    pass


def restrict_to_transversal(eq):
    """Generator sections of the equation restricted to the slice where
    the fiber variables vanish: first, for every fiber component, the
    generator whose order-zero part is the coordinate field; then one
    generator per remaining free coordinate, by ascending jet order."""
    n = eq.n
    zero_idx = (0,) * n
    free = eq.free_coords()
    gens = []
    for l in eq.fiber_vars:
        if (l, zero_idx) not in free:
            raise RankError(
                "order-zero projection misses a fiber direction")
        one = TruncatedSeries.const(1, n, eq.trunc)
        gens.append(eq.section_from_free_values({(l, zero_idx): one}))
    rest = [c for c in free if c[1] != zero_idx or c[0] not in eq.fiber_vars]
    rest.sort(key=lambda c: (index_order(c[1]), c[1], c[0]))
    for c in rest:
        one = TruncatedSeries.const(1, n, eq.trunc)
        gens.append(eq.section_from_free_values({c: one}))
    return [g.restrict_zero(eq.fiber_vars) for g in gens]


@dataclass
class TruncatedIntransitiveAlgebra:
    n: int
    order: int
    fiber_vars: tuple
    h_gens: list        # transversal derivations (vector fields over N)
    v_gens: list        # jet sections of R^j restricted to N
    table: dict         # (label, label) -> (h-coeffs, v-coeffs)

    def entry(self, p, q):
        if (p, q) in self.table:
            return self.table[(p, q)]
        h, v = self.table[(q, p)]
        return ([-s for s in h], [-s for s in v])

    def structure_function(self, p, q, gen):
        """Coefficient of the given generator label in [[Y_p, Y_q]]."""
        h, v = self.entry(p, q)
        if gen < 0:
            return h[-gen - 1]
        return v[gen]


def _expand(columns, target, trunc):
    """Solve target = sum c_i * columns_i over the series ring by
    Gaussian elimination with unit pivots; verifies that the residual
    vanishes below the top series order and returns the coefficients, or
    None when the target is not in the span."""
    m = len(target)
    n = target[0].n
    work = [[col[r] for col in columns] for r in range(m)]
    rhs = list(target)
    used_rows = set()
    pivots = []  # (row, column index)
    for ci in range(len(columns)):
        pr = next((r for r in range(m) if r not in used_rows
                   and work[r][ci].constant_term() != 0), None)
        if pr is None:
            continue
        inv = work[pr][ci].reciprocal()
        work[pr] = [a * inv for a in work[pr]]
        rhs[pr] = rhs[pr] * inv
        for r in range(m):
            if r != pr and not work[r][ci].is_zero():
                f = work[r][ci]
                work[r] = [a - f * b for a, b in zip(work[r], work[pr])]
                rhs[r] = rhs[r] - f * rhs[pr]
        used_rows.add(pr)
        pivots.append((pr, ci))
    out = [TruncatedSeries.zero(n, trunc) for _ in columns]
    for (pr, ci) in pivots:
        out[ci] = rhs[pr]
    residual = list(target)
    for ci, c in enumerate(out):
        if c.is_zero():
            continue
        residual = [a - c * col for a, col in
                    zip(residual, (columns[ci][r] for r in range(m)))]
    if not all(s.vanishes_below_top() for s in residual):
        return None
    return out


def _section_vector(xi, coords):
    return [xi.get(i, alpha) for (i, alpha) in coords]


def bracket_table(h_gens, v_gens):
    """Structure functions of the truncated intransitive algebra: every
    pairwise bracket expanded in the order-(j-1) projections of the
    generators.  Labels are -1, -2, ... for the transversal derivations
    and 0, 1, ... for the jet generators."""
    first = v_gens[0]
    n, j, trunc = first.n, first.order, first.trunc
    coords = jet_coords(n, j - 1, tuple(range(n)))
    columns = [_section_vector(g.project(j - 1), coords) for g in v_gens]
    zero_h = [TruncatedSeries.zero(n, trunc) for _ in h_gens]

    def expand_vertical(res, pair):
        vec = _section_vector(res, coords)
        c = _expand(columns, vec, trunc)
        if c is None:
            raise ClosureError(
                "bracket leaves the generator span", witness=(pair, res))
        return (list(zero_h), c)

    table = {}
    for a in range(len(h_gens)):
        for b in range(a + 1, len(h_gens)):
            res = vector_bracket(h_gens[a], h_gens[b])
            hc = _expand([list(h) for h in h_gens], list(res), trunc)
            if hc is None:
                raise ClosureError("transversal bracket leaves the span",
                                   witness=((-a - 1, -b - 1), res))
            table[(-a - 1, -b - 1)] = (
                hc, [TruncatedSeries.zero(n, trunc) for _ in v_gens])
    for a, v in enumerate(h_gens):
        for b, xi in enumerate(v_gens):
            res = contract(v, spencer_D(xi))
            table[(-a - 1, b)] = expand_vertical(res, (-a - 1, b))
    for a in range(len(v_gens)):
        for b in range(a + 1, len(v_gens)):
            res = algebraic_bracket(v_gens[a], v_gens[b])
            table[(a, b)] = expand_vertical(res, (a, b))
    return TruncatedIntransitiveAlgebra(
        n=n, order=j, fiber_vars=(), h_gens=list(h_gens),
        v_gens=list(v_gens), table=table)


@dataclass
class PlaneClassification:
    case: str                  # "Case1" or "Case2"
    valuation: object          # int, or None for "zero to order T"
    normal_form_beta: TruncatedSeries
    label: str

    def normal_form_equation(self, trunc):
        n = 2
        if self.case == "Case1":
            return equation_build(n, 1, [1], [{(1, (1, 0)): 1}], trunc)
        beta = self.normal_form_beta
        return equation_build(
            n, 1, [1], [{(1, (0, 1)): 1, (1, (1, 0)): -beta}], trunc)


def classify_plane_rank1(A, B):
    """Classify the rank-one plane equation with symbol spanned by
    A f^{1,0} + B f^{0,1}: Case 1 when the restriction of B to the
    transversal is a unit, else Case 2 with the valuation of B/A as the
    complete formal invariant (verdict is formal, to order T)."""
    n, trunc = A.n, A.trunc
    a = A.restrict_zero([1])
    b = B.restrict_zero([1])
    if a.constant_term() == 0 and b.constant_term() == 0:
        raise RankError("symbol not of constant rank at the base point")
    if b.constant_term() != 0:
        beta = TruncatedSeries.zero(n, trunc)
        return PlaneClassification("Case1", 0, beta, "Case1")
    beta = b * a.reciprocal()
    v = beta.valuation()
    if v is None:
        nf = TruncatedSeries.zero(n, trunc)
        return PlaneClassification("Case2", None, nf, "Case2: beta = 0")
    x = TruncatedSeries.var(0, n, trunc)
    nf = TruncatedSeries.const(1, n, trunc)
    for _ in range(v):
        nf = nf * x
    return PlaneClassification("Case2", v, nf, f"Case2: beta = x^{v}")


def check_solution_family(eq, theta):
    """Does the holonomic lift of the field satisfy every relation of
    the equation below the top series order (``eq.is_member``)?"""
    for i, comp in enumerate(theta):
        if i not in eq.fiber_vars and not comp.is_zero():
            return False
    lift = holonomic_lift(theta, eq.order)
    return eq.is_member(lift)
