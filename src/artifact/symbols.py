"""Pointwise symbol spaces in S^kT*(x)T, the delta map, and delta-cohomology.

Coordinates: an element of S^kT*(x)T is stored in the weighted basis
f^{a}_l (a an exponent tuple with |a| = k, l a vector component); in jet
coordinates f^{a}_l is the unit vector p^l_a = 1.  Elements of r-forms
with symbol values are dicts (wedge_tuple, l, a) -> Fraction, wedge tuples
strictly increasing.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import linalg
from .series import exponents_of_degree


class ChainError(ValueError):
    pass


def symbol_coords(n, k):
    """Ordered coordinates (l, alpha) of S^kT*(x)T, |alpha| = k."""
    return [(l, alpha) for l in range(n) for alpha in
            exponents_of_degree(n, k)]


def symbol_dim(n, k):
    return n * comb(n + k - 1, k)


def symbol_basis(n, k):
    """The basis f^{a}_l as unit coordinate vectors."""
    coords = symbol_coords(n, k)
    dim = len(coords)
    out = []
    for i in range(dim):
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        out.append(v)
    return out


class SymbolSpace:
    """A subspace of S^kT*(x)T given by a rational basis."""

    def __init__(self, n, order, basis):
        self.n = n
        self.order = order
        dim = symbol_dim(n, order)
        for v in basis:
            if len(v) != dim:
                raise ValueError("basis vector of wrong ambient dimension")
        self.basis = [[Fraction(x) for x in v] for v in basis]
        if basis and linalg.rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors not linearly independent")

    @classmethod
    def full(cls, n, order):
        return cls(n, order, symbol_basis(n, order))

    @classmethod
    def zero_space(cls, n, order):
        return cls(n, order, [])

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return linalg.member_of_span(self.basis, v)

    def equations(self):
        """Linear forms cutting out the space (rows annihilating the basis)."""
        dim = symbol_dim(self.n, self.order)
        if not self.basis:
            rows = [[Fraction(1 if i == j else 0) for j in range(dim)]
                    for i in range(dim)]
            return rows
        return linalg.kernel_basis(self.basis)

    def same_space(self, other):
        return (self.n == other.n and self.order == other.order
                and linalg.same_span(self.basis, other.basis))


# -- wedge-form elements ----------------------------------------------

def _insert_wedge(i, wedge):
    """Sort e^i into an increasing wedge tuple; returns (sign, tuple) or
    (0, None) on repetition."""
    if i in wedge:
        return 0, None
    pos = sum(1 for w in wedge if w < i)
    out = wedge[:pos] + (i,) + wedge[pos:]
    return (-1) ** pos, out


def delta_map(elem, n):
    """Apply delta to a dict (wedge, l, alpha) -> Fraction; symbol order
    drops by one, wedge degree rises by one.  Negative exponents vanish."""
    out = {}
    for (wedge, l, alpha), c in elem.items():
        for i in range(n):
            if alpha[i] == 0:
                continue
            sign, new_wedge = _insert_wedge(i, wedge)
            if sign == 0:
                continue
            beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            key = (new_wedge, l, beta)
            s = out.get(key, Fraction(0)) - sign * c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def wedge_tuples(n, r):
    from itertools import combinations
    return [tuple(c) for c in combinations(range(n), r)]


def _form_coords(n, r, k):
    return [(w, l, alpha) for w in wedge_tuples(n, r)
            for (l, alpha) in symbol_coords(n, k)]


def _slot_basis(space, r):
    """Basis of wedge^r T* (x) g as dict elements."""
    n = space.n
    out = []
    for w in wedge_tuples(n, r):
        for v in space.basis:
            elem = {}
            for idx, (l, alpha) in enumerate(symbol_coords(n, space.order)):
                if v[idx] != 0:
                    elem[(w, l, alpha)] = v[idx]
            out.append(elem)
    return out


def _to_vector(elem, coords, index):
    v = [Fraction(0)] * len(coords)
    for key, c in elem.items():
        if c != 0:
            if key not in index:
                raise ChainError("element outside the declared space")
            v[index[key]] = c
    return v


def delta_cohomology(g_chain):
    """Cohomology dimensions of the complex

        0 -> g^m -> T* (x) g^{m-1} -> wedge^2 T* (x) g^{m-2} -> ...

    for a descending chain [g^m, g^{m-1}, ...]; the slot after the last
    provided space is taken to be the full wedge of S^{...}T*(x)T (or 0
    when the order would be negative).  Verifies delta maps each slot
    into the next; returns the list of cohomology dimensions per slot.
    """
    if not g_chain:
        return []
    n = g_chain[0].n
    m = g_chain[0].order
    for r, g in enumerate(g_chain):
        if g.n != n or g.order != m - r:
            raise ChainError("chain orders must descend by one")
    slots = list(g_chain)
    dims = []
    images = []  # rank of delta leaving slot r
    kernels = []
    for r, g in enumerate(slots[:n + 1]):
        basis = _slot_basis(g, r)
        if g.order == 0 or r == n:
            # delta leaving this slot is zero
            out_rank = 0
        else:
            # codomain check: next slot if provided, else full symbols
            if r + 1 < len(slots):
                nxt = slots[r + 1]
            else:
                nxt = SymbolSpace.full(n, g.order - 1)
            mat = []
            codomain_coords = _form_coords(n, r + 1, g.order - 1)
            codomain_index = {key: i for i, key in enumerate(codomain_coords)}
            membership_rows = _membership_matrix(nxt, r + 1)
            for elem in basis:
                img = delta_map(elem, n)
                vec = _to_vector(img, codomain_coords, codomain_index)
                if membership_rows:
                    inside = linalg.member_of_span(membership_rows, vec)
                else:
                    inside = all(c == 0 for c in vec)
                if not inside:
                    raise ChainError("delta leaves the declared next space")
                mat.append(vec)
            out_rank = linalg.rank(mat) if mat else 0
        kernels.append(len(basis) - out_rank)
        images.append(out_rank)
    for r in range(len(kernels)):
        incoming = images[r - 1] if r > 0 else 0
        dims.append(kernels[r] - incoming)
    return dims


def _membership_matrix(space, r):
    """Span of wedge^r T* (x) space in full form coordinates."""
    n = space.n
    coords = _form_coords(n, r, space.order)
    index = {key: i for i, key in enumerate(coords)}
    rows = []
    for elem in _slot_basis(space, r):
        rows.append(_to_vector(elem, coords, index))
    return rows


def symbol_prolong(g):
    """First prolongation: all xi in S^{k+1}T*(x)T with delta(xi) in
    T*(x)g, computed by an exact kernel."""
    n, k = g.n, g.order
    eqs = g.equations()  # rows over symbol_coords(n, k)
    dom_coords = symbol_coords(n, k + 1)
    cod_index = {key: i for i, key in enumerate(symbol_coords(n, k))}
    rows = []
    for e in eqs:
        for direction in range(n):
            row = [Fraction(0)] * len(dom_coords)
            nonzero = False
            for ci, (l, alpha) in enumerate(dom_coords):
                if alpha[direction] == 0:
                    continue
                beta = (alpha[:direction] + (alpha[direction] - 1,)
                        + alpha[direction + 1:])
                c = e[cod_index[(l, beta)]]
                if c != 0:
                    row[ci] = -c
                    nonzero = True
            if nonzero:
                rows.append(row)
    if not rows:
        return SymbolSpace.full(n, k + 1)
    basis = linalg.kernel_basis(rows)
    return SymbolSpace(n, k + 1, basis)


def two_acyclic(g_chain_up):
    """2-acyclicity of g^k from an ascending chain [g^k, g^{k+1}, ...]:
    for every l >= 2 with enough chain available, the complex

      0 -> g^{k+l} -> T* (x) g^{k+l-1} -> wedge^2 T* (x) g^{k+l-2}
        -> wedge^3 T* (x) S^{k+l-3}T*(x)T

    must be exact at the first three slots."""
    checked = False
    ok = True
    for l in range(2, len(g_chain_up)):
        chain = [g_chain_up[l], g_chain_up[l - 1], g_chain_up[l - 2]]
        dims = delta_cohomology(chain)
        # injectivity at slot 0 plus exactness at slots 1 and 2
        if any(d != 0 for d in dims[:3]):
            ok = False
        checked = True
    return ok and checked
