"""Truncated power-series ring: arithmetic, calculus, reversion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artifact.series import (DimensionError, NonUnitError, RecenteringError,
                             TruncatedSeries, multi_index_enum, reversion,
                             reversion_system)

from conftest import T, rng_for, rnd_series, rnd_unit


def small_series(n, trunc=T, deg=3):
    coeff = st.integers(-4, 4).map(Fraction)
    keys = st.sampled_from(multi_index_enum(n, deg))
    return st.dictionaries(keys, coeff, max_size=6).map(
        lambda d: TruncatedSeries(n, trunc, d))


@settings(max_examples=40, deadline=None)
@given(small_series(2), small_series(2), small_series(2))
def test_ring_laws(a, b, c):
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


points = st.lists(st.fractions(min_value=-2, max_value=2,
                               max_denominator=4), min_size=2, max_size=2)


def centered_series(n, deg):
    coeff = st.integers(-4, 4).map(Fraction)
    keys = st.sampled_from(multi_index_enum(n, deg)[1:])
    return st.dictionaries(keys, coeff, max_size=4).map(
        lambda d: TruncatedSeries(n, T, d))


# degrees stay within T, so truncation drops nothing and evaluation at a
# rational point must commute exactly with * and compose
@settings(max_examples=40, deadline=None)
@given(small_series(2, deg=4), small_series(2, deg=4), points)
def test_mul_matches_evaluation(a, b, point):
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


@settings(max_examples=40, deadline=None)
@given(small_series(2, deg=4), centered_series(2, 2),
       centered_series(2, 2), points)
def test_compose_matches_evaluation(f, g0, g1, point):
    inner = [g0.evaluate(point), g1.evaluate(point)]
    assert f.compose([g0, g1]).evaluate(point) == f.evaluate(inner)


def test_truncation_bound_preserved():
    rng = rng_for("trunc-bound")
    for _ in range(20):
        a = rnd_series(rng, 2, deg=T)
        b = rnd_series(rng, 2, deg=T)
        prod = a * b
        assert all(sum(alpha) <= T for alpha in prod.coeffs)


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        TruncatedSeries(2, T, {(1,): Fraction(1)})
    with pytest.raises(TypeError):
        TruncatedSeries(1, T, {(0,): 0.5})


def test_mismatched_shapes_raise():
    a = TruncatedSeries.var(0, 1, T)
    b = TruncatedSeries.var(0, 2, T)
    with pytest.raises(DimensionError):
        a + b


def test_derive_product_rule_with_budget():
    rng = rng_for("leibniz-series")
    for _ in range(20):
        a = rnd_series(rng, 2)
        b = rnd_series(rng, 2)
        for j in range(2):
            lhs = (a * b).derive(j)
            rhs = a.derive(j) * b + a * b.derive(j)
            assert (lhs - rhs).truncate(T - 1).is_zero()


def test_vanishes_below_top():
    top = TruncatedSeries(2, T, {(T - 1, 1): 1, (0, T): -2})
    assert top.vanishes_below_top() and not top.is_zero()
    assert TruncatedSeries.zero(2, T).vanishes_below_top()
    below = TruncatedSeries(2, T, {(T - 2, 1): 1})
    assert not (top + below).vanishes_below_top()


def test_reciprocal_of_geometric():
    x = TruncatedSeries.var(0, 1, T)
    one = TruncatedSeries.const(1, 1, T)
    geo = (one - x).reciprocal()
    assert all(geo.coefficient((d,)) == 1 for d in range(T + 1))
    assert ((one - x) * geo - one).is_zero()


def test_reciprocal_requires_unit():
    x = TruncatedSeries.var(0, 1, T)
    with pytest.raises(NonUnitError):
        x.reciprocal()


def test_reciprocal_random_units():
    rng = rng_for("recip")
    for _ in range(10):
        u = rnd_unit(rng, 2)
        assert (u * u.reciprocal() - 1).is_zero()


def test_compose_requires_centered_arguments():
    x = TruncatedSeries.var(0, 1, T)
    with pytest.raises(RecenteringError):
        x.compose([x + 1])


def test_compose_chain():
    rng = rng_for("compose")
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    for _ in range(5):
        f = rnd_series(rng, 2)
        g = [x + x * y, y + y * y]
        h = [x * x + x, y - x]
        # (f o g) o h == f o (g o h)
        lhs = f.compose(g)
        lhs = lhs.compose(h)
        rhs = f.compose([gi.compose(h) for gi in g])
        assert lhs == rhs


def test_reversion_scalar():
    x = TruncatedSeries.var(0, 1, T)
    a = x + x * x
    g = reversion(a)
    assert (a.compose([g]) - x).is_zero()
    assert (g.compose([a]) - x).is_zero()


def test_reversion_system_roundtrip():
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    fs = [x + y * y, y + x * y]
    gs = reversion_system(fs)
    for i, f in enumerate(fs):
        assert (f.compose(gs) - TruncatedSeries.var(i, 2, T)).is_zero()


def test_reversion_needs_invertible_linear_part():
    x = TruncatedSeries.var(0, 1, T)
    with pytest.raises(NonUnitError):
        reversion(x * x)


def test_valuation_and_degree():
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    s = x * x * y + x * y
    assert s.valuation() == 2
    assert s.degree() == 3
    assert TruncatedSeries.zero(2, T).valuation() is None


def test_restrict_zero_and_evaluate():
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    s = 3 * x + 2 * y + x * y
    assert s.restrict_zero([1]) == 3 * x
    assert s.evaluate([Fraction(1, 2), Fraction(2)]) == Fraction(
        3, 2) + 4 + 1


def test_to_str_deterministic():
    rng = rng_for("tostr")
    for _ in range(5):
        a = rnd_series(rng, 2)
        b = TruncatedSeries(2, T, dict(reversed(list(a.coeffs.items()))))
        assert a.to_str(["x", "y"]) == b.to_str(["x", "y"])
