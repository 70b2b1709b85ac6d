"""Linear Lie equations: linear relation systems on jet coordinates.

A relation is a linear form sum c^{i,a}(x) p^i_a = 0 with truncated-series
coefficients.  Systems are normalized by Gaussian elimination over the
truncated series ring with unit (invertible constant term) pivots; a
nonzero row that never acquires a unit pivot witnesses a rank drop at the
base point relative to the generic rank, reported as non-regularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .series import TruncatedSeries, index_order, multi_index_enum, unit_index, index_add
from .jets import JetSection, OrderError
from .brackets import algebroid_bracket
from .symbols import SymbolSpace, symbol_coords, symbol_prolong, two_acyclic


class NonRegularError(ValueError):
    pass


def jet_coords(n, k, components):
    """Ordered jet coordinates (i, alpha), |alpha| <= k, grouped by order."""
    out = []
    for alpha in multi_index_enum(n, k):
        for i in components:
            out.append((i, alpha))
    return out


def _normalize_relation(rel, n, trunc):
    out = {}
    for (i, alpha), c in rel.items():
        if isinstance(c, (int, Fraction)):
            c = TruncatedSeries.const(c, n, trunc)
        if not c.is_zero():
            out[(i, tuple(alpha))] = c
    return out


def _eliminate(row, pivot, prow):
    """row - row[pivot] * prow, for a solved row prow with pivot entry 1."""
    c = row.get(pivot)
    if c is None:
        return row
    out = dict(row)
    out.pop(pivot)
    for key, v in prow.items():
        if key == pivot:
            continue
        s = out.get(key)
        s = -c * v if s is None else s - c * v
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _reduce_rows(relations, coords):
    """RREF over the series ring with unit pivots, scanning coordinates in
    descending order.  Returns (solved, leftover): solved maps pivot
    coordinate -> row dict with pivot coefficient 1 and no other pivot;
    leftover is the list of nonzero rows with no unit coefficient."""
    work = [dict(r) for r in relations if r]
    solved = {}
    coord_rank = {c: i for i, c in enumerate(coords)}

    while True:
        # reduce work rows by what is already solved
        nxt = []
        for row in work:
            for pivot, prow in solved.items():
                row = _eliminate(row, pivot, prow)
            if row:
                nxt.append(row)
        work = nxt
        # find the highest coordinate carrying a unit coefficient
        best = None
        for ri, row in enumerate(work):
            for key, c in row.items():
                if key not in coord_rank:
                    raise OrderError(f"relation references {key} outside the "
                                     "declared coordinate range")
                if c.constant_term() != 0:
                    pos = coord_rank[key]
                    if best is None or pos > best[0]:
                        best = (pos, ri, key)
        if best is None:
            break
        _, ri, pivot = best
        row = work.pop(ri)
        inv = row[pivot].reciprocal()
        row = {key: c * inv for key, c in row.items()}
        row[pivot] = TruncatedSeries.const(1, inv.n, inv.trunc)
        for old_pivot in list(solved):
            solved[old_pivot] = _eliminate(solved[old_pivot], pivot, row)
        solved[pivot] = row
    return solved, work


@dataclass
class IntegrabilityStep:
    order: int
    fiber_dim: int
    symbol_dim: int
    surjective: bool
    two_acyclic: bool


@dataclass
class IntegrabilityReport:
    verdict: str
    depth: int
    steps: list = field(default_factory=list)

    @property
    def symbol_dims(self):
        return [s.symbol_dim for s in self.steps]


class LinearLieEquation:
    def __init__(self, n, order, fiber_vars, relations, trunc):
        self.n = n
        self.order = order
        self.trunc = trunc
        self.fiber_vars = tuple(sorted(fiber_vars))
        rels = [_normalize_relation(r, n, trunc) for r in relations]
        rels = [r for r in rels if r]
        self.relations = rels
        fiber_only = all(i in self.fiber_vars
                         for r in rels for (i, _alpha) in r)
        comps = self.fiber_vars if fiber_only else tuple(range(n))
        self.fiber_only = fiber_only
        self.components = comps
        self.coords = jet_coords(n, order, comps)
        for r in rels:
            for (i, alpha) in r:
                if index_order(alpha) > order:
                    raise OrderError(
                        f"relation references |{alpha}| > order {order}")
        solved, leftover = _reduce_rows(rels, self.coords)
        if leftover:
            raise NonRegularError(
                "relation rank drops at the base point (non-regular at 0)")
        self.solved = solved

    # -- basic structure ----------------------------------------------

    @property
    def fiber_dim(self):
        return len(self.coords) - len(self.solved)

    def free_coords(self):
        return [c for c in self.coords if c not in self.solved]

    def relation_rows(self):
        return list(self.solved.values())

    def contains_relation(self, row):
        """Is the linear form a series-combination of the system's rows?"""
        row = _normalize_relation(row, self.n, self.trunc)
        for pivot, prow in self.solved.items():
            row = _eliminate(row, pivot, prow)
        return not row

    def same_system(self, other):
        if (self.n, self.order) != (other.n, other.order):
            return False
        return (all(other.contains_relation(r) for r in self.solved.values())
                and all(self.contains_relation(r)
                        for r in other.solved.values()))

    # -- membership and sections --------------------------------------

    def residuals(self, xi):
        """Series residuals of every solved relation on a jet section."""
        out = []
        for row in self.solved.values():
            s = TruncatedSeries.zero(self.n, self.trunc)
            for (i, alpha), c in row.items():
                s = s + c * xi.get(i, alpha)
            out.append(s)
        for i in range(self.n):
            if i in self.components:
                continue
            for alpha in multi_index_enum(self.n, self.order):
                out.append(xi.get(i, alpha))
        return out

    def is_member(self, xi):
        """Membership below the top series order (``vanishes_below_top``);
        check ``residuals`` directly for exact membership."""
        return all(s.vanishes_below_top() for s in self.residuals(xi))

    def spanning_sections(self):
        """One generator section per free coordinate: the free coordinate
        set to 1, pivots filled in from the solved rows."""
        out = []
        for f in self.free_coords():
            comps = {f: TruncatedSeries.const(1, self.n, self.trunc)}
            for pivot, row in self.solved.items():
                c = row.get(f)
                if c is not None:
                    comps[pivot] = -c
            out.append(JetSection(self.n, self.order, self.trunc, comps))
        return out

    def section_from_free_values(self, values):
        """Section with prescribed series at the free coordinates."""
        comps = {}
        for f, s in values.items():
            if f in self.solved or f not in self.coords:
                raise OrderError(f"{f} is not a free coordinate")
            comps[f] = s
        for pivot, row in self.solved.items():
            acc = TruncatedSeries.zero(self.n, self.trunc)
            for f, s in values.items():
                c = row.get(f)
                if c is not None:
                    acc = acc - c * s
            if not acc.is_zero():
                comps[pivot] = acc
        return JetSection(self.n, self.order, self.trunc, comps)

    def fiber_basis_at_zero(self):
        """Basis of the solution subspace of the jet fiber at the origin."""
        rows = []
        for row in self.solved.values():
            rows.append([row.get(c, None) for c in self.coords])
        mat = [[(x.constant_term() if x is not None else Fraction(0))
                for x in row] for row in rows]
        if not mat:
            dim = len(self.coords)
            return [[Fraction(1 if i == j else 0) for j in range(dim)]
                    for i in range(dim)]
        return linalg.kernel_basis(mat)


def equation_build(n, order, fiber_vars, relations, trunc):
    return LinearLieEquation(n, order, fiber_vars, relations, trunc)


def prolong_equation(eq):
    """Adjoin the total derivatives of every relation; order rises by one."""
    if eq.order + 1 > eq.trunc:
        raise OrderError("prolongation exceeds the series order budget")
    new_rels = [dict(r) for r in eq.relations]
    for r in eq.relations:
        for j in range(eq.n):
            row = {}
            for (i, alpha), c in r.items():
                d = c.derive(j)
                if not d.is_zero():
                    s = row.get((i, alpha))
                    row[(i, alpha)] = d if s is None else s + d
                shifted = (i, index_add(alpha, unit_index(eq.n, j)))
                s = row.get(shifted)
                row[shifted] = c if s is None else s + c
            new_rels.append(row)
    return LinearLieEquation(eq.n, eq.order + 1, eq.fiber_vars, new_rels,
                             eq.trunc)


def equation_symbol(eq):
    """Top-order part of the relations at the base point; the kernel in
    S^kT*(x)T, cut to the fiber distribution."""
    rows = []
    for row in eq.solved.values():
        rows.append([row[c].constant_term() if c in row else Fraction(0)
                     for c in eq.coords])
    for ci, (i, alpha) in enumerate(eq.coords):
        if index_order(alpha) < eq.order:
            vec = [Fraction(0)] * len(eq.coords)
            vec[ci] = Fraction(1)
            rows.append(vec)
    if not rows:
        dim = len(eq.coords)
        kernel = [[Fraction(1 if i == j else 0) for j in range(dim)]
                  for i in range(dim)]
    else:
        kernel = linalg.kernel_basis(rows)
    scoords = symbol_coords(eq.n, eq.order)
    sindex = {c: i for i, c in enumerate(scoords)}
    basis = []
    for v in kernel:
        vec = [Fraction(0)] * len(scoords)
        for ci, (i, alpha) in enumerate(eq.coords):
            if v[ci] != 0:
                vec[sindex[(i, alpha)]] = v[ci]
        basis.append(vec)
    basis = [v for v in basis if any(x != 0 for x in v)]
    return SymbolSpace(eq.n, eq.order, basis)


def projected_fiber_dim(eq_high, low_order):
    """Dimension at the origin of pi_low(fiber of eq_high)."""
    basis = eq_high.fiber_basis_at_zero()
    low = jet_coords(eq_high.n, low_order, eq_high.components)
    positions = [eq_high.coords.index(c) for c in low]
    proj = [[v[p] for p in positions] for v in basis]
    proj = [v for v in proj if any(x != 0 for x in v)]
    return linalg.rank(proj) if proj else 0


def check_intransitive(eq):
    """R^k in J^kV with pi_0(R^k) = J^0V: relations touch only fiber
    components and the order-zero projection has full fiber dimension."""
    if not eq.fiber_only:
        return False
    return projected_fiber_dim(eq, 0) == len(eq.fiber_vars)


def check_lie_closure(eq):
    """First-bracket closure: brackets of spanning sections of the
    prolongation must satisfy the original system.  Returns (ok, witness)."""
    eq1 = prolong_equation(eq)
    gens = eq1.spanning_sections()
    for a_i, xi in enumerate(gens):
        for eta in gens[a_i + 1:]:
            br = algebroid_bracket(xi, eta)
            if not eq.is_member(br.lift_zero(eq.order)
                                if br.order < eq.order else
                                br.project(eq.order)):
                return False, (xi, eta, br)
    return True, None


def check_formal_integrability(eq, depth=3):
    """Goldschmidt-style loop: prolong, test surjectivity of the
    projection by exact rank, test 2-acyclicity of the symbol; stop with
    a verdict or run out of depth."""
    current = eq
    steps = []
    verdict = None
    for _ in range(depth + 1):
        g = equation_symbol(current)
        chain = [g]
        for _ in range(4):
            chain.append(symbol_prolong(chain[-1]))
        acy = two_acyclic(chain)
        try:
            nxt = prolong_equation(current)
        except OrderError:
            verdict = "inconclusive"
            steps.append(IntegrabilityStep(current.order, current.fiber_dim,
                                           g.dim, False, acy))
            break
        surj = projected_fiber_dim(nxt, current.order) == current.fiber_dim
        steps.append(IntegrabilityStep(current.order, current.fiber_dim,
                                       g.dim, surj, acy))
        if not surj:
            verdict = "not_formally_integrable"
            break
        if acy:
            verdict = "formally_integrable"
            break
        current = nxt
    if verdict is None:
        verdict = "inconclusive"
    return IntegrabilityReport(verdict, depth, steps)
