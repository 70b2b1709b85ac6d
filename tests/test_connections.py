"""Partial connections along a fiber distribution: covariant derivative,
curvature/flatness, parallel extension."""

from fractions import Fraction

import pytest

from artifact.series import TruncatedSeries
from artifact.jets import CheckedSection, JetSection, holonomic_lift
from artifact.connections import (CompatibilityError, ObstructionError,
                                  PartialConnectionData, curvature_flatness,
                                  nabla_apply, parallel_extend)
from artifact.equations import equation_build

from conftest import T, checked_zero, rng_for, rnd_series


def vertical_field(n, k, comp, coeff):
    return CheckedSection(
        [TruncatedSeries.zero(n, T)] * n,
        JetSection(n, k, T, dict(holonomic_lift(
            [coeff if i == comp else TruncatedSeries.zero(n, T)
             for i in range(n)], k).comps)))


def test_trivial_connection_kills_constant_section():
    conn = PartialConnectionData.trivial(2, 1, [1], T)
    one = TruncatedSeries.const(1, 2, T)
    cs = vertical_field(2, 1, 1, one)
    assert checked_zero(nabla_apply(conn, cs, 1), budget=1)


def test_trivial_connection_horizontal_profile():
    # h(x) j^k d/dy is parallel: no dependence on the fiber variable
    conn = PartialConnectionData.trivial(2, 1, [1], T)
    h = TruncatedSeries.var(0, 2, T) * 3 + TruncatedSeries.const(2, 2, T)
    cs = vertical_field(2, 1, 1, h)
    assert checked_zero(nabla_apply(conn, cs, 1), budget=1)


def test_trivial_connection_y_profile():
    # y j^k d/dy differentiates to j^k d/dy
    conn = PartialConnectionData.trivial(2, 1, [1], T)
    y = TruncatedSeries.var(1, 2, T)
    cs = vertical_field(2, 1, 1, y)
    one = TruncatedSeries.const(1, 2, T)
    want = vertical_field(2, 1, 1, one)
    assert checked_zero(nabla_apply(conn, cs, 1) - want, budget=1)


def test_nabla_leibniz():
    rng = rng_for("conn-leibniz")
    conn = PartialConnectionData.trivial(2, 1, [1], T)
    for _ in range(5):
        f = rnd_series(rng, 2)
        coeff = rnd_series(rng, 2)
        cs = vertical_field(2, 1, 1, coeff)
        lhs = nabla_apply(conn, cs.scale(f), 1)
        rhs = cs.scale(f.derive(1)) + nabla_apply(conn, cs, 1).scale(f)
        assert checked_zero(lhs - rhs, budget=1)


def test_dim_one_connections_always_flat():
    rng = rng_for("conn-dim1")
    for _ in range(3):
        base = PartialConnectionData.trivial(2, 1, [1], T)
        omega = dict(base.omega)
        extra = JetSection(2, 2, T,
                           {(1, (0, 2)): rnd_series(rng, 2),
                            (1, (1, 1)): rnd_series(rng, 2)})
        omega[1] = omega[1] + extra
        conn = PartialConnectionData(2, 1, omega)
        _, flat, witness = curvature_flatness(conn)
        assert flat and witness is None


def test_product_connection_flat_three_dims():
    conn = PartialConnectionData.trivial(3, 1, [1, 2], T)
    curvature, flat, _ = curvature_flatness(conn)
    assert flat
    assert set(curvature) == {(1, 2)}


def test_perturbed_connection_not_flat():
    conn = PartialConnectionData.trivial(3, 1, [1, 2], T)
    omega = dict(conn.omega)
    y = TruncatedSeries.var(1, 3, T)
    omega[2] = omega[2] + JetSection(3, 2, T, {(2, (0, 0, 2)): y})
    bad = PartialConnectionData(3, 1, omega)
    _, flat, witness = curvature_flatness(bad)
    assert not flat and witness == (1, 2)
    with pytest.raises(ObstructionError):
        parallel_extend(bad, CheckedSection(
            [TruncatedSeries.zero(3, T)] * 3, JetSection.zero(3, 1, T)))


def test_connection_data_validation():
    x = TruncatedSeries.var(0, 2, T)
    one = TruncatedSeries.const(1, 2, T)
    # order-zero part must equal the direction
    with pytest.raises(CompatibilityError):
        PartialConnectionData(2, 1, {1: JetSection(
            2, 2, T, {(1, (0, 0)): one + x, (1, (0, 1)): one})})
    # values must stay inside the fiber distribution
    with pytest.raises(CompatibilityError):
        PartialConnectionData(2, 1, {1: JetSection(
            2, 2, T, {(1, (0, 0)): one, (0, (0, 1)): one})})


def test_parallel_extend_trivial_is_constant():
    rng = rng_for("conn-extend")
    conn = PartialConnectionData.trivial(2, 1, [1], T)
    u = rnd_series(rng, 2).restrict_zero([1])
    q = rnd_series(rng, 2).restrict_zero([1])
    boundary = CheckedSection(
        [u, TruncatedSeries.zero(2, T)],
        JetSection(2, 1, T, dict(holonomic_lift(
            [TruncatedSeries.zero(2, T), q], 1).comps)))
    ext = parallel_extend(conn, boundary)
    # constant in y: restricting y to 0 recovers the boundary
    restricted = CheckedSection([h.restrict_zero([1])
                                 for h in ext.horizontal],
                                ext.vertical.restrict_zero([1]))
    assert (ext - restricted).vanishes_below_top()
    assert (restricted - boundary).vanishes_below_top()
    assert checked_zero(nabla_apply(conn, ext, 1), budget=1)


def test_parallel_extend_uniqueness():
    # two parallel extensions with the same boundary agree
    conn = PartialConnectionData.trivial(2, 1, [1], T)
    x = TruncatedSeries.var(0, 2, T)
    boundary = vertical_field(2, 1, 1, x * x + 1)
    e1 = parallel_extend(conn, boundary)
    e2 = parallel_extend(conn, boundary)
    assert (e1 - e2).vanishes_below_top()


def test_parallel_extend_preserves_membership():
    # a connection valued in the prolonged system keeps extensions inside
    eq = equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)
    y = TruncatedSeries.var(1, 2, T)
    one = TruncatedSeries.const(1, 2, T)
    base = PartialConnectionData.trivial(2, 1, [1], T)
    omega = dict(base.omega)
    # twist by a section of the prolonged system: (1+y) j^2(d/dy) stays
    # inside {p10 = 0} prolonged
    omega[1] = JetSection(2, 2, T, {(1, (0, 0)): one,
                                    (1, (0, 1)): y})
    conn = PartialConnectionData(2, 1, omega)
    _, flat, _ = curvature_flatness(conn)
    assert flat
    q = (TruncatedSeries.var(0, 2, T) + 2).restrict_zero([1])
    r = TruncatedSeries.var(0, 2, T).restrict_zero([1]) * 3
    jet = eq.section_from_free_values({(1, (0, 0)): q, (1, (0, 1)): r})
    boundary = CheckedSection([TruncatedSeries.zero(2, T)] * 2,
                              jet.restrict_zero([1]))
    assert not any(eq.residuals(boundary.vertical))
    ext = parallel_extend(conn, boundary)
    assert eq.is_member(ext.vertical)
    assert checked_zero(nabla_apply(conn, ext, 1), budget=1)
