"""Exact linear algebra over the rationals: echelon form, rank, kernels.

Matrices are plain lists of lists of Fractions.  Everything here is
deterministic; pivots are chosen left to right.
"""

from __future__ import annotations

from fractions import Fraction

from .polymap import RationalRing, matrix_inverse


def _copy(m):
    return [[Fraction(x) for x in row] for row in m]


def rref(m):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = _copy(m)
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [row for row in m if any(x != 0 for x in row)], pivots


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


def row_space_rref(m):
    """Canonical (RREF) basis of the row space, for span comparison."""
    return rref(m)[0]


def invert_matrix(m):
    """Inverse of a square rational matrix, or None if singular."""
    return matrix_inverse(RationalRing, _copy(m))


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
    if all(x == 0 for x in v):
        return True
    if not vectors:
        return False
    return rank(vectors) == rank(vectors + [v])


def same_span(a, b):
    """Do two vector lists span the same subspace?"""
    a = [v for v in a if any(x != 0 for x in v)]
    b = [v for v in b if any(x != 0 for x in v)]
    if not a and not b:
        return True
    if not a or not b:
        return False
    return row_space_rref(a) == row_space_rref(b)
