"""Acceptance suite: twelve exact-arithmetic criteria, one test (and one
pass/fail line) each.  Everything runs at truncation order 8.

Comparisons after a formal derivative drop the top series orders (the
derivative budget); all other equalities are exact."""

from fractions import Fraction

from artifact.series import (TruncatedSeries, index_order, multi_index_enum,
                             reversion_system, unit_index)
from artifact.jets import (CheckedSection, JetSection, holonomic_lift,
                           spencer_D, spencer_D_two_form)
from artifact.brackets import (algebraic_bracket, algebraic_bracket_oracle,
                               first_bracket)
from artifact.symbols import SymbolSpace, delta_cohomology, symbol_coords
from artifact.equations import (check_formal_integrability, equation_build,
                                equation_symbol, prolong_equation)
from artifact.groupoid import (GroupoidSection, d1_curvature, groupoid_action,
                               jet_compose, jet_invert, nonlinear_spencer_D,
                               nonlinear_spencer_D_family,
                               pushforward_one_form,
                               verify_formal_isomorphism)
from artifact.connections import (PartialConnectionData, curvature_flatness,
                                  nabla_apply, parallel_extend)
from artifact.intransitive import (bracket_table, check_solution_family,
                                   classify_plane_rank1,
                                   restrict_to_transversal)

from conftest import (T, checked_zero, groupoid_equal, jet_zero, rnd_checked,
                      rnd_jet, rnd_series, rng_for, series_zero,
                      sparse_checked, sparse_groupoid, sparse_series)


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_spencer_linearity():
    rng = rng_for("acc-01")
    for _ in range(100):
        n = rng.choice([1, 2])
        k = rng.randint(1, 4)
        theta = [rnd_series(rng, n) for _ in range(n)]
        for comp in spencer_D(holonomic_lift(theta, k)):
            assert jet_zero(comp, budget=k)
        if k >= 2:
            xi = rnd_jet(rng, n, k)
            for comp in spencer_D_two_form(spencer_D(xi)).values():
                assert jet_zero(comp, budget=2)
    report(1, "spencer-linearity")


def test_criterion_02_delta_exactness():
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            dims = delta_cohomology([SymbolSpace.full(n, k)])
            assert all(d == 0 for d in dims)
    report(2, "delta-exactness")


def test_criterion_03_bracket_laws():
    rng = rng_for("acc-03")
    n, k = 2, 3
    sections = [rnd_checked(rng, n, k, deg=2) for _ in range(100)]
    for i in range(0, 100, 2):
        a, b = sections[i], sections[i + 1]
        assert checked_zero(first_bracket(a, b) + first_bracket(b, a),
                            budget=1)
    for i in range(0, 50, 2):
        a, b = sections[i], sections[i + 1]
        f = rnd_series(rng, n, deg=2)
        vf = TruncatedSeries.zero(n, T)
        for j in range(n):
            vf = vf + a.horizontal[j] * f.derive(j)
        lhs = first_bracket(a, b.scale(f))
        rhs = b.project(k - 1).scale(vf) + first_bracket(a, b).scale(f)
        assert checked_zero(lhs - rhs, budget=1)
    for i in range(0, 30, 3):
        a, b, c = sections[i], sections[i + 1], sections[i + 2]
        s = (first_bracket(first_bracket(a, b), c.project(k - 1))
             + first_bracket(first_bracket(b, c), a.project(k - 1))
             + first_bracket(first_bracket(c, a), b.project(k - 1)))
        assert checked_zero(s, budget=2)
    # closed multinomial formula vs polynomial-representative oracle,
    # exhaustive over basis jet values (bilinearity covers the rest)
    for n in (1, 2):
        for k in (1, 2, 3):
            coords = [(i, a) for i in range(n)
                      for a in multi_index_enum(n, k)]
            for ca in coords:
                for cb in coords:
                    got = algebraic_bracket(
                        JetSection(n, k, T, {ca: 1}),
                        JetSection(n, k, T, {cb: 1})).at_point_zero()
                    want = algebraic_bracket_oracle(
                        {ca: Fraction(1)}, {cb: Fraction(1)}, n, k)
                    assert got == want
    report(3, "bracket-laws")


def test_criterion_04_prolonged_plane_symbol():
    rng = rng_for("acc-04")
    scoords = symbol_coords(2, 2)
    for _ in range(20):
        A = Fraction(rng.randint(-5, 5))
        B = Fraction(rng.randint(-5, 5))
        if A == 0 and B == 0:
            A = Fraction(1)
        eq = equation_build(2, 1, [1],
                            [{(1, (1, 0)): B, (1, (0, 1)): -A}], T)
        g2 = equation_symbol(prolong_equation(eq))
        want = [Fraction(0)] * len(scoords)
        want[scoords.index((1, (2, 0)))] = A * A
        want[scoords.index((1, (1, 1)))] = A * B
        want[scoords.index((1, (0, 2)))] = B * B
        assert g2.same_space(SymbolSpace(2, 2, [want]))
    report(4, "prolonged-plane-symbol")


def test_criterion_05_normal_forms_integrable():
    systems = [equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)]
    for m in range(4):
        beta = TruncatedSeries(2, T, {(m, 0): Fraction(1)})
        systems.append(equation_build(
            2, 1, [1], [{(1, (0, 1)): 1, (1, (1, 0)): -beta}], T))
    for eq in systems:
        rep = check_formal_integrability(eq)
        assert rep.verdict == "formally_integrable"
        assert all(d == 1 for d in rep.symbol_dims)
    report(5, "normal-forms-integrable")


def test_criterion_06_classification_and_families():
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    one = TruncatedSeries.const(1, 2, T)
    zero = TruncatedSeries.zero(2, T)
    assert classify_plane_rank1(x, one).case == "Case1"
    for m in (1, 2, 3):
        b = TruncatedSeries(2, T, {(m, 0): Fraction(1)})
        res = classify_plane_rank1(one, b)
        assert res.case == "Case2" and res.valuation == m
    res0 = classify_plane_rank1(one, zero)
    assert res0.case == "Case2" and res0.valuation is None

    case1 = equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)
    case2_x = equation_build(2, 1, [1],
                             [{(1, (0, 1)): 1, (1, (1, 0)): -x}], T)
    case2_0 = equation_build(2, 1, [1], [{(1, (0, 1)): 1}], T)
    rng = rng_for("acc-06")
    profile = rnd_series(rng, 1)
    assert check_solution_family(case1, [zero, profile.compose([y])])
    xey = x
    term = x
    for m in range(1, T + 1):
        term = term * y * Fraction(1, m)
        xey = xey + term
    assert check_solution_family(case2_x, [zero, xey])
    assert check_solution_family(case2_0, [zero, profile.compose([x])])
    assert not check_solution_family(case1, [zero, x])
    report(6, "classification-and-families")


def test_criterion_07_bracket_tables():
    x = TruncatedSeries.var(0, 2, T)
    one = TruncatedSeries.const(1, 2, T)
    zero = TruncatedSeries.zero(2, T)
    h = [[one, zero]]
    case1 = equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)
    alg = bracket_table(h, restrict_to_transversal(case1))
    assert alg.structure_function(-1, 0, 0).is_zero()
    assert alg.structure_function(-1, 1, 0).is_zero()
    assert alg.structure_function(0, 1, 0) == one
    assert alg.structure_function(0, 1, 1).is_zero()
    beta = x
    case2 = equation_build(2, 1, [1],
                           [{(1, (0, 1)): 1, (1, (1, 0)): -beta}], T)
    alg2 = bracket_table(h, restrict_to_transversal(case2))
    assert alg2.structure_function(-1, 1, 0) == -one
    assert alg2.structure_function(0, 1, 0) == beta
    # generic order-2 table: structure relation db/dx = a*a01 + b*b11
    rng = rng_for("acc-07")
    for _ in range(3):
        bcoef = sparse_series(rng, 1, deg=3, min_degree=1, terms=2)
        bser = bcoef.extend(2, [0])
        eq = prolong_equation(equation_build(
            2, 1, [1], [{(1, (0, 1)): 1, (1, (1, 0)): -bser}], T))
        algg = bracket_table(h, restrict_to_transversal(eq))
        a = -algg.structure_function(-1, 1, 0)
        b11 = algg.structure_function(-1, 1, 1)
        b = algg.structure_function(0, 1, 0)
        a01 = algg.structure_function(0, 1, 1)
        assert a == one and b == bser
        rel = b.derive(0) - a * a01 - b * b11
        assert series_zero(rel, budget=1)
    report(7, "bracket-tables")


def test_criterion_08_groupoid_laws():
    rng = rng_for("acc-08")
    k = 1
    for i in range(50):
        n = 1 if i % 2 else 2
        a = sparse_groupoid(rng, n, k + 1)
        b = sparse_groupoid(rng, n, k + 1)
        c = sparse_groupoid(rng, n, k + 1)
        assert groupoid_equal(jet_compose(jet_compose(a, b), c),
                              jet_compose(a, jet_compose(b, c)), budget=1)
        ident = GroupoidSection.identity(n, k + 1, T)
        assert groupoid_equal(jet_compose(a, jet_invert(a)), ident,
                              budget=1)
    for i in range(50):
        n = 1 if i % 2 else 2
        base = [TruncatedSeries.var(j, n, T)
                + sparse_series(rng, n, min_degree=2, terms=1)
                for j in range(n)]
        sigma = GroupoidSection.holonomic(base, k + 1)
        for u in nonlinear_spencer_D(sigma):
            assert jet_zero(u, budget=2)
    for i in range(50):
        n = 1 if i % 3 else 2
        s1 = sparse_groupoid(rng, n, k + 1)
        s2 = sparse_groupoid(rng, n, k + 1)
        lhs = nonlinear_spencer_D(jet_compose(s2, s1))
        d1 = nonlinear_spencer_D(s1)
        d2 = nonlinear_spencer_D(s2)
        rhs = [u + v for u, v in
               zip(d1, pushforward_one_form(jet_invert(s1), d2))]
        assert all(jet_zero(l - r, budget=2) for l, r in zip(lhs, rhs))
        inv_lhs = nonlinear_spencer_D(jet_invert(s1))
        inv_rhs = [u.scale(Fraction(-1))
                   for u in pushforward_one_form(s1, d1)]
        assert all(jet_zero(l - r, budget=2)
                   for l, r in zip(inv_lhs, inv_rhs))
    for i in range(50):
        n = 1 if i % 3 else 2
        sigma = sparse_groupoid(rng, n, 3)
        for comp in d1_curvature(nonlinear_spencer_D(sigma)).values():
            assert jet_zero(comp, budget=2)
    report(8, "groupoid-laws")


def test_criterion_09_linearization():
    rng = rng_for("acc-09")
    for _ in range(20):
        n = rng.choice([1, 2])
        k = rng.randint(1, 2)
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
    report(9, "linearization")


def test_criterion_10_action_equivariance():
    rng = rng_for("acc-10")
    k = 1
    for i in range(50):
        n = 1 if i % 2 else 2
        sigma = sparse_groupoid(rng, n, k + 1)
        a = sparse_checked(rng, n, k)
        b = sparse_checked(rng, n, k)
        lhs = first_bracket(groupoid_action(sigma, a),
                            groupoid_action(sigma, b))
        rhs = groupoid_action(sigma.project(k), first_bracket(a, b))
        assert checked_zero(lhs - rhs, budget=2)
    report(10, "action-equivariance")


def test_criterion_11_connections():
    rng = rng_for("acc-11")
    # every connection along a one-dimensional distribution is flat
    for _ in range(5):
        base = PartialConnectionData.trivial(2, 1, [1], T)
        omega = dict(base.omega)
        omega[1] = omega[1] + JetSection(
            2, 2, T, {(1, (0, 2)): rnd_series(rng, 2),
                      (1, (1, 1)): rnd_series(rng, 2)})
        _, flat, _ = curvature_flatness(PartialConnectionData(2, 1, omega))
        assert flat
    # the product connection in fiber dimension two is flat
    _, flat, _ = curvature_flatness(
        PartialConnectionData.trivial(3, 1, [1, 2], T))
    assert flat
    # parallel extension preserves membership in the relation system
    eq = equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)
    one = TruncatedSeries.const(1, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    omega = {1: JetSection(2, 2, T, {(1, (0, 0)): one, (1, (0, 1)): y})}
    conn = PartialConnectionData(2, 1, omega)
    _, flat, _ = curvature_flatness(conn)
    assert flat
    q = (TruncatedSeries.var(0, 2, T) + 2).restrict_zero([1])
    r = (TruncatedSeries.var(0, 2, T) * 3).restrict_zero([1])
    jet = eq.section_from_free_values({(1, (0, 0)): q, (1, (0, 1)): r})
    boundary = CheckedSection([TruncatedSeries.zero(2, T)] * 2,
                              jet.restrict_zero([1]))
    ext = parallel_extend(conn, boundary)
    assert eq.is_member(ext.vertical)
    assert checked_zero(nabla_apply(conn, ext, 1), budget=1)
    report(11, "connections")


def test_criterion_12_isomorphism_verifier():
    x = TruncatedSeries.var(0, 2, T)
    y = TruncatedSeries.var(1, 2, T)
    b = 2 * x + x * x
    eq = equation_build(2, 1, [1],
                        [{(1, (0, 1)): 1, (1, (1, 0)): -b}], T)
    ident = GroupoidSection.identity(2, 2, T)
    assert verify_formal_isomorphism(ident, eq, eq, [1]).passed
    # the x-reparametrization carries p01 = b p10 to p01 = b' p10 with
    # b' = (psi' * b) o psi^{-1}
    psi = x + x * x
    F = GroupoidSection.holonomic([psi, y], 2)
    h = reversion_system([psi, y])
    bprime = (psi.derive(0) * b).compose(h)
    eq_target = equation_build(2, 1, [1],
                               [{(1, (0, 1)): 1, (1, (1, 0)): -bprime}], T)
    rep = verify_formal_isomorphism(F, eq, eq_target, [1])
    assert rep.passed
    # a vertical twist breaks the Spencer clause with a witness
    fiber = dict(F.fiber)
    fiber[(1, (1, 0))] = fiber.get(
        (1, (1, 0)), TruncatedSeries.zero(2, T)) + x
    bad = GroupoidSection(2, 2, T, F.base_map, fiber)
    rep_bad = verify_formal_isomorphism(bad, eq, eq_target, [1])
    assert not rep_bad.spencer_member
    assert rep_bad.witness_direction is not None
    assert not rep_bad.passed
    report(12, "isomorphism-verifier")
