"""Exact linear algebra over the rationals: echelon form, rank, kernels.

Matrices are plain lists of lists of Fractions (ints are accepted as
entries).  Elimination runs on sparse integer rows (dicts column ->
nonzero numerator, each row scaled by the lcm of its denominators), so
zero entries cost nothing and no Fraction is normalised until the result
is read out.  Everything here is deterministic; pivots are chosen left
to right.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polymap import matrix_inverse

_ZERO = Fraction(0)


def _sparse_row(v):
    """The nonzero entries of a dense int or Fraction vector as a dict
    column -> int, scaled by the lcm of the denominators."""
    row = {c: x for c, x in enumerate(v) if x}
    den = lcm(*(x.denominator for x in row.values()))
    for c, x in row.items():
        row[c] = x.numerator * (den // x.denominator)
    return row


def _primitive(row, lead):
    """Divide ``row`` in place by the gcd of its entries, signed so that
    the entry at column ``lead`` becomes positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _eliminate(row, p, prow):
    """Cancel column ``p`` of the integer ``row`` in place with a multiple
    of ``prow``, whose entry at ``p`` is positive."""
    d = prow[p]
    f = row[p]
    g = gcd(f, d)
    f, d = f // g, d // g
    if d != 1:
        for c in row:
            row[c] *= d
    for c, x in prow.items():
        y = row.get(c, 0) - f * x
        if y:
            row[c] = y
        else:
            del row[c]


def reduce_row(v, basis):
    """The dense vector v reduced against an ``echelon`` basis, as a
    sparse integer row: a positive multiple of v minus the combination of
    basis rows that clears every pivot column; empty exactly when v lies
    in the span."""
    row = _sparse_row(v)
    for p in [c for c in row if c in basis]:
        _eliminate(row, p, basis[p])
    return row


def echelon(rows):
    """Reduced echelon basis of the span of the given dense rows, as
    {pivot column: primitive integer row, positive at its pivot and zero
    at every other pivot}; the input is left unchanged."""
    basis = {}
    for v in rows:
        row = reduce_row(v, basis)
        if not row:
            continue
        p = min(row)
        _primitive(row, p)
        for q, other in basis.items():
            if p in other:
                _eliminate(other, p, row)
                _primitive(other, q)
        basis[p] = row
    return basis


def rref(m):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    if not m:
        return [], []
    basis = echelon(m)
    pivots = sorted(basis)
    rows = []
    for p in pivots:
        row = [_ZERO] * len(m[0])
        d = basis[p][p]
        for c, x in basis[p].items():
            row[c] = Fraction(x, d)
        rows.append(row)
    return rows, pivots


def rank(m):
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of the right null space of m (vectors x with m x = 0)."""
    if not m:
        return []
    n_cols = len(m[0])
    rows, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        basis.append(v)
    return basis


def invert_matrix(m):
    """Inverse of a square rational matrix, or None if singular."""
    return matrix_inverse(m)


def solve(m, rhs):
    """One solution of m x = rhs, or None if inconsistent."""
    if not m:
        return None
    n_cols = len(m[0])
    aug = [list(row) + [r] for row, r in zip(m, rhs)]
    rows, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n_cols]
    return x


def member_of_span(vectors, v):
    """Is v in the span of the given vectors?"""
    return not reduce_row(v, echelon(vectors))


def same_span(a, b):
    """Do two vector lists span the same subspace?"""
    return rref(a)[0] == rref(b)[0]
