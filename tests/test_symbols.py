"""Symbol spaces, the delta map, delta-cohomology, prolongation."""

from fractions import Fraction

import pytest

from artifact import linalg
from artifact.symbols import (ChainError, SymbolSpace, delta_map,
                              delta_cohomology, symbol_basis, symbol_coords,
                              symbol_dim, symbol_prolong, two_acyclic,
                              wedge_tuples)

from conftest import rng_for


def rnd_element(rng, n, k, r):
    out = {}
    for w in wedge_tuples(n, r):
        for (l, alpha) in symbol_coords(n, k):
            if rng.random() < 0.3:
                out[(w, l, alpha)] = Fraction(rng.randint(-3, 3))
    return out


def test_delta_squared_zero_random():
    rng = rng_for("delta-squared")
    for n in (2, 3):
        for k in (2, 3):
            for r in (0, 1):
                elem = rnd_element(rng, n, k, r)
                assert delta_map(delta_map(elem, n), n) == {}


def test_delta_squared_on_basis_element():
    elem = {((), 0, (2, 1)): Fraction(1)}
    assert delta_map(delta_map(elem, 2), 2) == {}


def test_delta_injective_on_full_symbols():
    # slot-0 cohomology of the full chain is 0 for k >= 1
    for n in (2, 3):
        for k in (1, 2, 3):
            dims = delta_cohomology([SymbolSpace.full(n, k)])
            assert dims[0] == 0


def test_full_symbol_sequence_exact():
    for n in (2, 3):
        for k in (1, 2, 3, 4):
            dims = delta_cohomology([SymbolSpace.full(n, k)])
            assert all(d == 0 for d in dims)


def test_zero_chain_exact():
    chain = [SymbolSpace.zero_space(2, 3), SymbolSpace.zero_space(2, 2),
             SymbolSpace.zero_space(2, 1)]
    assert all(d == 0 for d in delta_cohomology(chain))


def test_chain_order_mismatch_raises():
    with pytest.raises(ChainError):
        delta_cohomology([SymbolSpace.full(2, 3), SymbolSpace.full(2, 3)])


def test_delta_leaving_declared_space_raises():
    # declare a next space too small to receive delta of the full slot
    chain = [SymbolSpace.full(2, 2), SymbolSpace.zero_space(2, 1)]
    with pytest.raises(ChainError):
        delta_cohomology(chain)


def test_delta_leaving_nonzero_next_space_raises():
    # delta(f^{0,2} (x) d/dy) lies in T* (x) span{f^{0,1} (x) d/dy} only
    g = vertical_span(2, 2, 1, (0, 2))
    assert delta_cohomology([g, vertical_span(2, 1, 1, (0, 1))]) == [0, 0]
    with pytest.raises(ChainError):
        delta_cohomology([g, vertical_span(2, 1, 1, (1, 0))])
    with pytest.raises(ChainError):
        delta_cohomology([SymbolSpace.full(2, 2),
                          vertical_span(2, 1, 1, (0, 1))])


def random_proper_subspace(rng, n, k):
    dim = symbol_dim(n, k)
    while True:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(rng.randint(1, dim - 1))]
        basis = linalg.kernel_basis(rows)
        if 0 < len(basis) < dim:
            return SymbolSpace(n, k, basis)


def test_prolongation_chain_accepted_and_exact():
    # delta^{-1}(T* (x) g) is the prolongation of g, and the full
    # sequence is exact at T* (x) S^k: the chain [g', g] has no cohomology
    rng = rng_for("prolong-chain")
    for n, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(3):
            g = random_proper_subspace(rng, n, k)
            gp = symbol_prolong(g)
            assert delta_cohomology([gp, g]) == [0, 0]
            if gp.dim == symbol_dim(n, k + 1):
                continue
            # one basis vector more than the prolongation: its delta
            # leaves T* (x) g, and it comes last among the images
            extra = next(u for u in symbol_basis(n, k + 1)
                         if not gp.contains(u))
            bigger = SymbolSpace(n, k + 1, gp.basis + [extra])
            with pytest.raises(ChainError):
                delta_cohomology([bigger, g])


def test_explicit_full_next_space_matches_omitted():
    rng = rng_for("explicit-full")
    for n, k in ((2, 2), (2, 3), (3, 2)):
        g = random_proper_subspace(rng, n, k)
        for chain in ([g], [symbol_prolong(g), g]):
            full = SymbolSpace.full(n, chain[-1].order - 1)
            dims = delta_cohomology(chain)
            assert delta_cohomology(chain + [full])[:len(chain)] == dims


def vertical_span(n, k, comp, alpha):
    coords = symbol_coords(n, k)
    v = [Fraction(0)] * len(coords)
    v[coords.index((comp, alpha))] = Fraction(1)
    return SymbolSpace(n, k, [v])


def test_prolong_vertical_line():
    # span{f^{0,1} (x) d/dy} prolongs to span{f^{0,2} (x) d/dy}
    g1 = vertical_span(2, 1, 1, (0, 1))
    g2 = symbol_prolong(g1)
    assert g2.same_space(vertical_span(2, 2, 1, (0, 2)))


def test_prolong_full_is_full():
    g = SymbolSpace.full(2, 2)
    assert symbol_prolong(g).same_space(SymbolSpace.full(2, 3))


def test_prolong_rank_nullity():
    rng = rng_for("prolong-rank")
    n, k = 2, 2
    for _ in range(5):
        dim = symbol_dim(n, k)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(3)]
        rows = [r for r in rows if any(c != 0 for c in r)]
        if not rows:
            continue
        basis = linalg.kernel_basis(rows)
        g = SymbolSpace(n, k, basis)
        gp = symbol_prolong(g)
        # dim g' + rank of the delta-membership system = full dimension
        assert gp.dim <= symbol_dim(n, k + 1)
        for v in gp.basis:
            elem = {((), l, alpha): v[i] for i, (l, alpha) in
                    enumerate(symbol_coords(n, k + 1)) if v[i] != 0}
            img = delta_map(elem, n)
            # each directional slot of delta(v) must lie in g
            for j in range(n):
                vec = [Fraction(0)] * symbol_dim(n, k)
                for (w, l, alpha), c in img.items():
                    if w == (j,):
                        vec[symbol_coords(n, k).index((l, alpha))] = c
                assert g.contains(vec)


def test_case1_chain_two_acyclic():
    chain = [vertical_span(2, 1, 1, (0, 1))]
    for _ in range(4):
        chain.append(symbol_prolong(chain[-1]))
    assert all(g.dim == 1 for g in chain)
    assert two_acyclic(chain)


def test_symbol_space_rejects_dependent_basis():
    b = symbol_basis(2, 1)
    with pytest.raises(ValueError):
        SymbolSpace(2, 1, [b[0], b[0]])


def test_equations_cut_out_space():
    g = vertical_span(2, 1, 1, (0, 1))
    eqs = g.equations()
    for v in g.basis:
        for row in eqs:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(eqs) == symbol_dim(2, 1) - g.dim
