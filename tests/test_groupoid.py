"""Invertible jet sections: groupoid arithmetic, the nonlinear Spencer
operator and its laws, the action on checked sections, pushforward of
relation systems, and the isomorphism verifier."""

from fractions import Fraction

import pytest

from artifact.series import TruncatedSeries, reversion_system
from artifact.jets import (CheckedSection, JetSection, holonomic_checked,
                           holonomic_lift, spencer_D, vector_bracket)
from artifact.brackets import algebraic_bracket, first_bracket
from artifact.equations import equation_build
from artifact.groupoid import (GroupoidSection, NotInvertibleError,
                               d1_curvature, groupoid_action, jet_compose,
                               jet_invert, nonlinear_spencer_D,
                               nonlinear_spencer_D_family,
                               pushforward_equation, pushforward_one_form,
                               verify_formal_isomorphism)

from conftest import (T, checked_zero, groupoid_equal, jet_zero, rnd_checked,
                      rnd_groupoid, rnd_jet, rnd_series, rng_for, series_zero,
                      sparse_checked, sparse_groupoid)


def test_compose_one_variable_example():
    u = TruncatedSeries.var(0, 1, T)
    g = GroupoidSection.holonomic([u + u * u * u], 2)
    f = GroupoidSection.holonomic([u + u * u], 2)
    comp = jet_compose(g, f)
    want = GroupoidSection.holonomic([u + u * u], 2)
    # 2-jet of (u+u^3) o (u+u^2): the cubic contributes from degree 3 on
    assert comp.jet(0, (1,)).constant_term() == 1
    assert comp.jet(0, (2,)).constant_term() == 2
    assert groupoid_equal(comp.project(2), want,
                          budget=0) or comp.base_map != want.base_map


def test_identity_laws():
    rng = rng_for("gp-identity")
    n, k = 2, 2
    ident = GroupoidSection.identity(n, k, T)
    for _ in range(5):
        a = rnd_groupoid(rng, n, k)
        assert groupoid_equal(jet_compose(ident, a), a, budget=1)
        assert groupoid_equal(jet_compose(a, ident), a, budget=1)


def test_inverse_roundtrip():
    rng = rng_for("gp-inverse")
    n, k = 2, 2
    ident = GroupoidSection.identity(n, k, T)
    for _ in range(5):
        a = sparse_groupoid(rng, n, k)
        assert groupoid_equal(jet_compose(a, jet_invert(a)), ident, budget=1)
        assert groupoid_equal(jet_compose(jet_invert(a), a), ident, budget=1)


def test_associativity():
    rng = rng_for("gp-assoc")
    n, k = 2, 2
    for _ in range(5):
        a = rnd_groupoid(rng, n, k)
        b = rnd_groupoid(rng, n, k)
        c = rnd_groupoid(rng, n, k)
        assert groupoid_equal(jet_compose(jet_compose(a, b), c),
                              jet_compose(a, jet_compose(b, c)), budget=1)


def test_singular_linear_part_rejected():
    zero = TruncatedSeries.zero(1, T)
    x = TruncatedSeries.var(0, 1, T)
    with pytest.raises(NotInvertibleError):
        GroupoidSection(1, 1, T, [x], {(0, (1,)): x})
    _ = zero


def test_spencer_vanishes_on_holonomic():
    rng = rng_for("gp-D-hol")
    n, k = 2, 2
    for _ in range(5):
        base = [TruncatedSeries.var(i, n, T)
                + rnd_series(rng, n) * TruncatedSeries.var(0, n, T)
                * TruncatedSeries.var(1, n, T) for i in range(n)]
        sigma = GroupoidSection.holonomic(base, k + 1)
        for u in nonlinear_spencer_D(sigma):
            assert jet_zero(u, budget=2)


def test_spencer_one_variable_example():
    # base x, first jet coefficient 1 + x: the Spencer value along d/dx
    # is (1/(1+x) - 1) at order zero
    x = TruncatedSeries.var(0, 1, T)
    one = TruncatedSeries.const(1, 1, T)
    sigma = GroupoidSection(1, 1, T, [x], {(0, (1,)): one + x})
    u = nonlinear_spencer_D(sigma)[0]
    want = (one + x).reciprocal() - one
    assert series_zero(u.get(0, (0,)) - want, budget=1)


def test_spencer_cocycle():
    rng = rng_for("gp-cocycle")
    n, k = 2, 1
    for _ in range(4):
        s1 = sparse_groupoid(rng, n, k + 1)
        s2 = sparse_groupoid(rng, n, k + 1)
        lhs = nonlinear_spencer_D(jet_compose(s2, s1))
        d1 = nonlinear_spencer_D(s1)
        d2 = nonlinear_spencer_D(s2)
        rhs = [a + b for a, b in
               zip(d1, pushforward_one_form(jet_invert(s1), d2))]
        assert all(jet_zero(l - r, budget=2) for l, r in zip(lhs, rhs))


def test_spencer_inverse_law():
    rng = rng_for("gp-inv-law")
    n, k = 2, 1
    for _ in range(4):
        s = sparse_groupoid(rng, n, k + 1)
        lhs = nonlinear_spencer_D(jet_invert(s))
        rhs = [u.scale(Fraction(-1))
               for u in pushforward_one_form(s, nonlinear_spencer_D(s))]
        assert all(jet_zero(l - r, budget=2) for l, r in zip(lhs, rhs))


def test_linearization_of_family():
    # families through the identity: the t-derivative of the nonlinear
    # Spencer operator is the linear one on the derivative section
    rng = rng_for("gp-linearize")
    from artifact.series import index_order, multi_index_enum, unit_index
    n, k = 2, 2
    for _ in range(5):
        xi = rnd_jet(rng, n, k)
        base_pairs = [(TruncatedSeries.var(i, n, T), xi.get(i, (0,) * n))
                      for i in range(n)]
        fiber_pairs = {}
        for i in range(n):
            for al in multi_index_enum(n, k):
                if index_order(al) == 0:
                    continue
                ident = TruncatedSeries.const(
                    1 if al == unit_index(n, i) else 0, n, T)
                fiber_pairs[(i, al)] = (ident, xi.get(i, al))
        fam = nonlinear_spencer_D_family(base_pairs, fiber_pairs, n, k, T)
        d = spencer_D(xi)
        for j in range(n):
            v0, v1 = fam[j]
            assert v0.is_zero()
            assert jet_zero(v1 - d[j], budget=1)


def test_d1_of_spencer_is_zero():
    rng = rng_for("gp-d1")
    for _ in range(3):
        sigma = sparse_groupoid(rng, 2, 3)
        cur = d1_curvature(nonlinear_spencer_D(sigma))
        assert all(jet_zero(c, budget=2) for c in cur.values())


def test_d1_on_linear_spencer_image():
    rng = rng_for("gp-d1-lin")
    n, k = 2, 2
    xi = rnd_jet(rng, n, k + 1)
    u = spencer_D(xi)
    cur = d1_curvature(u)
    for (i, j), comp in cur.items():
        want = algebraic_bracket(u[i], u[j]).scale(Fraction(-1))
        assert jet_zero(comp - want, budget=2)


def test_d1_zero_input():
    u = [JetSection.zero(2, 2, T) for _ in range(2)]
    assert all(c.is_zero() for c in d1_curvature(u).values())


def test_action_identity():
    rng = rng_for("gp-act-id")
    n, k = 2, 2
    ident = GroupoidSection.identity(n, k + 1, T)
    cs = rnd_checked(rng, n, k)
    assert checked_zero(groupoid_action(ident, cs) - cs)


def test_action_holonomic_oracle():
    # the action of j^{k+1}f on v + j^k(theta) is f_* v + j^k(f_* theta)
    rng = rng_for("gp-act-hol")
    n, k = 2, 1
    for _ in range(3):
        base = [TruncatedSeries.var(i, n, T)
                + rnd_series(rng, n) * TruncatedSeries.var(0, n, T)
                * TruncatedSeries.var(1, n, T) for i in range(n)]
        sigma = GroupoidSection.holonomic(base, k + 1)
        v = [rnd_series(rng, n) for _ in range(n)]
        theta = [rnd_series(rng, n) for _ in range(n)]
        cs = CheckedSection(v, holonomic_lift(theta, k))
        got = groupoid_action(sigma, cs)
        h = reversion_system(base)

        def push(field):
            out = []
            for i in range(n):
                s = TruncatedSeries.zero(n, T)
                for j in range(n):
                    s = s + base[i].derive(j) * field[j]
                out.append(s.compose(h))
            return out

        want = CheckedSection(push(v), holonomic_lift(push(theta), k))
        assert checked_zero(got - want, budget=2)


def test_action_equivariance():
    rng = rng_for("gp-equivar")
    n, k = 2, 2
    for _ in range(4):
        sigma = sparse_groupoid(rng, n, k + 1)
        a = sparse_checked(rng, n, k)
        b = sparse_checked(rng, n, k)
        lhs = first_bracket(groupoid_action(sigma, a),
                            groupoid_action(sigma, b))
        rhs = groupoid_action(sigma.project(k), first_bracket(a, b))
        assert checked_zero(lhs - rhs, budget=2)


def test_action_functoriality():
    rng = rng_for("gp-functor")
    n, k = 2, 1
    for _ in range(4):
        s1 = sparse_groupoid(rng, n, k + 1)
        s2 = sparse_groupoid(rng, n, k + 1)
        cs = sparse_checked(rng, n, k)
        lhs = groupoid_action(jet_compose(s2, s1), cs)
        rhs = groupoid_action(s2, groupoid_action(s1, cs))
        assert checked_zero(lhs - rhs, budget=2)


def case1_equation():
    return equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)


def test_pushforward_identity():
    eq = case1_equation()
    ident = GroupoidSection.identity(2, 2, T)
    assert pushforward_equation(ident, eq).same_system(eq)


def test_pushforward_shear_and_roundtrip():
    # phi(x, y) = (x, y + x) tilts the annihilated direction:
    # the image system is p10 + p01 = 0
    eq = case1_equation()
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    sigma = GroupoidSection.holonomic([x, y + x], 2)
    pushed = pushforward_equation(sigma, eq)
    assert pushed.contains_relation({(1, (1, 0)): 1, (1, (0, 1)): 1})
    back = pushforward_equation(jet_invert(sigma), pushed)
    assert back.same_system(eq)


def test_pushforward_transports_solutions():
    # solutions of the original system map onto solutions of the image
    rng = rng_for("gp-push-sol")
    eq = case1_equation()
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    sigma = GroupoidSection.holonomic([x, y + x], 2)
    pushed = pushforward_equation(sigma, eq)
    for _ in range(3):
        q = rnd_series(rng, 2)
        theta = [TruncatedSeries.zero(2, T), q.restrict_zero([0])]
        cs = CheckedSection([TruncatedSeries.zero(2, T)] * 2,
                            holonomic_lift(theta, 1))
        assert eq.is_member(cs.vertical)
        moved = groupoid_action(sigma, cs)
        assert pushed.is_member(moved.vertical, budget=2)


def test_verify_isomorphism_identity():
    eq = case1_equation()
    ident = GroupoidSection.identity(2, 2, T)
    rep = verify_formal_isomorphism(ident, eq, eq, [1])
    assert rep.passed


def test_verify_isomorphism_perturbed_fails_spencer():
    eq = case1_equation()
    ident = GroupoidSection.identity(2, 2, T)
    x = TruncatedSeries.var(0, 2, T)
    fiber = dict(ident.fiber)
    fiber[(1, (1, 0))] = x  # non-holonomic vertical twist
    bad = GroupoidSection(2, 2, T, ident.base_map, fiber)
    rep = verify_formal_isomorphism(bad, eq, eq, [1])
    assert not rep.spencer_member
    assert rep.witness_direction is not None
    assert not rep.passed


def test_verify_isomorphism_propagates_internal_errors(monkeypatch):
    import artifact.groupoid as groupoid

    def broken(sigma, eq):
        raise TypeError("internal failure")

    monkeypatch.setattr(groupoid, "pushforward_equation", broken)
    eq = case1_equation()
    ident = GroupoidSection.identity(2, 2, T)
    with pytest.raises(TypeError):
        verify_formal_isomorphism(ident, eq, eq, [1])
