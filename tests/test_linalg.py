"""Exact rational linear algebra."""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from artifact.linalg import (invert_matrix, kernel_basis, member_of_span,
                             rank, rref, same_span, solve)

from conftest import rng_for


def rnd_matrix(rng, rows, cols, span=5):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)]


def dense_rref(m):
    """Column-by-column Gauss-Jordan elimination on dense Fraction rows:
    the reference for the sparse ``rref``."""
    m = [[Fraction(x) for x in row] for row in m]
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


def dense_rank(m):
    return len(dense_rref(m)[1])


entries = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    st.just(0))


@st.composite
def matrices(draw, max_rows=8, cols=None):
    """Matrices of 0..max_rows rows and 1..8 columns with int and
    Fraction entries, some all-zero, some with zero or repeated rows."""
    if cols is None:
        cols = draw(st.integers(1, 8))
    n_rows = draw(st.integers(0, max_rows))
    if draw(st.integers(0, 5)) == 0:
        return [[0] * cols for _ in range(n_rows)]
    m = [draw(st.lists(entries, min_size=cols, max_size=cols))
         for _ in range(n_rows)]
    for i in range(n_rows):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            m[i] = [Fraction(0)] * cols
        elif kind == 1 and i:
            # a repeated row, or a rational multiple of an earlier one
            f = draw(st.sampled_from([1, -1, Fraction(3, 2)]))
            m[i] = [f * x for x in m[draw(st.integers(0, i - 1))]]
    return m


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_dense_elimination(m):
    before = copy.deepcopy(m)
    rows, pivots = rref(m)
    assert m == before
    assert [[type(x) for x in row] for row in m] == \
        [[type(x) for x in row] for row in before]
    assert (rows, pivots) == dense_rref(m)
    assert all(type(x) is Fraction for row in rows for x in row)
    assert all(len(row) == len(m[0]) for row in rows)


@st.composite
def span_queries(draw):
    """A matrix and a vector; half the vectors combine the rows, so
    members come up as often as non-members."""
    cols = draw(st.integers(1, 8))
    m = draw(matrices(max_rows=6, cols=cols))
    if draw(st.booleans()):
        coefficients = draw(st.lists(st.integers(-2, 2), min_size=len(m),
                                     max_size=len(m)))
        v = [sum((c * row[j] for c, row in zip(coefficients, m)),
                 Fraction(0)) for j in range(cols)]
    else:
        v = draw(st.lists(entries, min_size=cols, max_size=cols))
    return m, v


@settings(max_examples=300, deadline=None)
@given(span_queries())
def test_member_of_span_matches_rank_comparison(query):
    m, v = query
    before = copy.deepcopy(query)
    assert member_of_span(m, v) == (dense_rank(m) == dense_rank(m + [v]))
    assert (m, v) == before


def test_rank_nullity():
    rng = rng_for("la-ranknull")
    for _ in range(20):
        m = rnd_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == len(m[0])
        for v in ker:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)


def test_invert_matrix():
    rng = rng_for("la-invert")
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rnd_matrix(rng, n, n)
        inv = invert_matrix(m)
        if rank(m) < n:
            assert inv is None
            continue
        prod = [[sum(m[i][k] * inv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        assert prod == [[Fraction(1 if i == j else 0) for j in range(n)]
                        for i in range(n)]


def test_solve_consistency():
    rng = rng_for("la-solve")
    for _ in range(10):
        m = rnd_matrix(rng, 3, 4)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
        sol = solve(m, rhs)
        assert sol is not None
        got = [sum(a * b for a, b in zip(row, sol)) for row in m]
        assert got == rhs


def test_member_and_span():
    basis = [[Fraction(1), Fraction(0), Fraction(1)],
             [Fraction(0), Fraction(1), Fraction(1)]]
    assert member_of_span(basis, [Fraction(2), Fraction(3), Fraction(5)])
    assert not member_of_span(basis, [Fraction(0), Fraction(0), Fraction(1)])
    scaled = [[2 * c for c in v] for v in basis]
    assert same_span(basis, scaled)
    assert not same_span(basis, basis[:1])
