"""Linear relation systems on jet coordinates: normalization, prolongation,
symbols, closure, formal integrability, intransitivity."""

from fractions import Fraction

import pytest

from artifact.series import TruncatedSeries
from artifact.jets import JetSection, spencer_D
from artifact.equations import (LinearLieEquation, NonRegularError,
                                check_formal_integrability,
                                check_intransitive, check_lie_closure,
                                equation_build, equation_symbol,
                                prolong_equation)
from artifact.symbols import symbol_coords

from conftest import T, rng_for, rnd_series


def xs():
    return TruncatedSeries.var(0, 2, T)


def ys():
    return TruncatedSeries.var(1, 2, T)


def case1():
    # p10 = 0 over V = span d/dy
    return equation_build(2, 1, [1], [{(1, (1, 0)): 1}], T)


def case2(beta):
    # p01 = beta(x) * p10
    return equation_build(2, 1, [1],
                          [{(1, (0, 1)): 1, (1, (1, 0)): -beta}], T)


def test_build_case1():
    eq = case1()
    assert eq.fiber_dim == 2
    assert eq.free_coords() == [(1, (0, 0)), (1, (0, 1))]


def test_build_case2():
    eq = case2(xs())
    assert eq.fiber_dim == 2


def test_duplicate_and_empty_relations():
    eq = equation_build(2, 1, [1],
                        [{(1, (1, 0)): 1}, {(1, (1, 0)): 2}, {}], T)
    assert eq.fiber_dim == 2
    assert eq.same_system(case1())


def test_non_regular_relation_raises():
    # x * p10 = 0 has generic rank 1 but rank 0 at the base point
    with pytest.raises(NonRegularError):
        equation_build(2, 1, [1], [{(1, (1, 0)): xs()}], T)


def test_prolong_case1():
    eq1 = prolong_equation(case1())
    assert eq1.order == 2
    assert eq1.fiber_dim == 3
    for alpha in ((1, 0), (2, 0), (1, 1)):
        assert eq1.contains_relation({(1, alpha): 1})


def test_prolong_case2_x():
    eq1 = prolong_equation(case2(xs()))
    assert eq1.contains_relation(
        {(1, (1, 1)): 1, (1, (1, 0)): -1, (1, (2, 0)): -xs()})
    assert eq1.contains_relation({(1, (0, 2)): 1, (1, (1, 1)): -xs()})


def test_prolong_full_jet_space():
    full = equation_build(2, 1, [1], [], T)
    eq1 = prolong_equation(full)
    assert eq1.fiber_dim == 6  # all y-jets of order <= 2
    assert not eq1.relation_rows()


def test_prolongation_membership_characterization():
    # sections of the prolongation project into the equation and have
    # Spencer derivative valued in it
    rng = rng_for("prolong-member")
    eq = case2(xs())
    eq1 = prolong_equation(eq)
    for _ in range(5):
        values = {f: rnd_series(rng, 2) for f in eq1.free_coords()}
        xi = eq1.section_from_free_values(values)
        assert not any(eq.residuals(xi.project(1)))
        for comp in spencer_D(xi):
            assert eq.is_member(comp)


def test_is_member_ignores_only_the_top_order():
    # case1 is p10 = 0; a residual of degree T is the only one forgiven
    eq = case1()
    for degree, member in ((T, True), (T - 1, False)):
        xi = JetSection(2, 1, T, {
            (1, (1, 0)): TruncatedSeries(2, T, {(degree, 0): 1})})
        assert any(eq.residuals(xi))
        assert eq.is_member(xi) is member


def test_equation_symbol_case1():
    g = equation_symbol(case1())
    coords = symbol_coords(2, 1)
    v = [Fraction(0)] * len(coords)
    v[coords.index((1, (0, 1)))] = Fraction(1)
    assert g.dim == 1 and g.contains(v)


def test_equation_symbol_case2_at_origin():
    g = equation_symbol(case2(xs()))  # beta(0) = 0
    coords = symbol_coords(2, 1)
    v = [Fraction(0)] * len(coords)
    v[coords.index((1, (1, 0)))] = Fraction(1)
    assert g.dim == 1 and g.contains(v)


def test_prolonged_symbol_case1():
    g = equation_symbol(prolong_equation(case1()))
    coords = symbol_coords(2, 2)
    v = [Fraction(0)] * len(coords)
    v[coords.index((1, (0, 2)))] = Fraction(1)
    assert g.dim == 1 and g.contains(v)


def test_lie_closure_positive():
    ok, witness = check_lie_closure(case1())
    assert ok and witness is None
    full = equation_build(2, 1, [1], [], T)
    assert check_lie_closure(full)[0]


def test_lie_closure_negative_with_witness():
    # p10 = y * p00 is not closed under the bracket
    eq = equation_build(2, 1, [1],
                        [{(1, (1, 0)): 1, (1, (0, 0)): -ys()}], T)
    ok, witness = check_lie_closure(eq)
    assert not ok and witness is not None


def test_formal_integrability_case1():
    rep = check_formal_integrability(case1())
    assert rep.verdict == "formally_integrable"
    assert all(d == 1 for d in rep.symbol_dims)
    assert rep.steps[-1].surjective and rep.steps[-1].two_acyclic


def test_formal_integrability_full():
    full = equation_build(2, 1, [1], [], T)
    assert check_formal_integrability(full).verdict == "formally_integrable"


def test_formal_integrability_case2_powers():
    for m in range(4):
        beta = TruncatedSeries(2, T, {(m, 0): Fraction(1)})
        rep = check_formal_integrability(case2(beta))
        assert rep.verdict == "formally_integrable"


def test_check_intransitive():
    assert check_intransitive(case1())
    # p00 = 0 kills the order-zero projection
    eq = equation_build(2, 1, [1], [{(1, (0, 0)): 1}], T)
    assert not check_intransitive(eq)
    # relation touching a d/dx jet coordinate
    eq = equation_build(2, 1, [1], [{(0, (1, 0)): 1}], T)
    assert not check_intransitive(eq)


def test_same_system_detects_difference():
    assert not case1().same_system(case2(xs()))
    assert case2(xs()).same_system(case2(xs()))


def test_section_from_free_values_is_member():
    rng = rng_for("sect-free")
    eq = case2(xs())
    values = {f: rnd_series(rng, 2) for f in eq.free_coords()}
    xi = eq.section_from_free_values(values)
    assert not any(eq.residuals(xi))


def test_spanning_sections_are_members():
    eq = prolong_equation(case2(xs()))
    for xi in eq.spanning_sections():
        assert not any(eq.residuals(xi))
