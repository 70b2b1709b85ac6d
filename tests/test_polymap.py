"""The flat polynomial kernel against the ring-generic reference: jet maps
as rational polynomials in (x, u) under a degree box, compared with maps
over truncated series in ring_reference, and with maps over dual numbers
over those (one dual variable as in a curve of jets, two as in the
family of nonlinear_spencer_D_family)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from artifact.polymap import (Box, RationalRing, from_flat, pm_compose,
                              pm_invert, to_flat)
from artifact.series import TruncatedSeries, multi_index_enum, unit_index

import ring_reference as ref

COEFFS = [Fraction(c, d) for c in (-2, -1, 1, 3) for d in (1, 2)]


def series(n, trunc, centered, max_terms=2):
    keys = st.sampled_from(multi_index_enum(n, min(trunc, 3))[int(centered):])
    return st.dictionaries(keys, st.sampled_from(COEFFS),
                           max_size=max_terms).map(
        lambda d: TruncatedSeries(n, trunc, d))


@st.composite
def jet_maps(draw, n, k, trunc, dual):
    """A map {alpha: coefficient} per component, whose u-linear part is
    invertible at x = 0 (unit upper triangular times a diagonal).  A
    coefficient is a series in x, or with ``dual`` > 0 a pair (a, b)
    standing for a + t b, t the dual variable of group ``dual`` and a, b
    coefficients with one dual variable less."""
    def coefficient(dual, const, centered):
        if dual == 0:
            return draw(series(n, trunc, centered)) + const
        return (coefficient(dual - 1, const, centered),
                coefficient(dual - 1, 0, False))

    out = []
    for i in range(n):
        comp = {}
        for alpha in multi_index_enum(n, k)[1:]:
            if sum(alpha) == 1:
                j = alpha.index(1)
                const = draw(st.sampled_from(COEFFS)) if j == i else 0
                c = coefficient(dual, const, j <= i)
            else:
                c = coefficient(dual, 0, False)
            if any(not s.is_zero() for _, s in parts(None, c, dual)):
                comp[alpha] = c
        out.append(comp)
    return out


def parts(box, c, dual):
    """(key of the dual monomial, series) for each series in c."""
    if dual == 0:
        yield 0, c
        return
    unit = box.unit(dual, 0) if box else 1
    for i, sub in enumerate(c):
        for key, s in parts(box, sub, dual - 1):
            yield key + i * unit, s


def flat_box(n, k, trunc, dual):
    return Box([(n, trunc)] + [(1, 1)] * dual + [(n, k)])


def to_box(box, pmap, dual):
    """Reference maps as flat polynomials on the box."""
    u = len(box.groups) - 1
    out = []
    for comp in pmap:
        terms = {}
        for alpha, c in comp.items():
            for key, s in parts(box, c, dual):
                for beta, v in s.coeffs.items():
                    terms[box.pack(0, beta) + box.pack(u, alpha) + key] = v
        out.append(to_flat(terms))
    return out


def from_box(box, fmap, dual):
    """Flat polynomials back in the reference form."""
    n, trunc = box.groups[0]
    u = len(box.groups) - 1

    def nest(d, split):
        if d == 0:
            return TruncatedSeries(n, trunc, split.get((), {}))
        return tuple(nest(d - 1, {key[1:]: v for key, v in split.items()
                                  if key[0] == i}) for i in (0, 1))

    out = []
    for poly in fmap:
        split = {}
        for key, v in from_flat(poly).items():
            duals = tuple(box.degree(g, key) for g in range(dual, 0, -1))
            coeffs = split.setdefault(box.unpack(u, key), {})
            coeffs.setdefault(duals, {})[box.unpack(0, key)] = v
        out.append({alpha: nest(dual, c) for alpha, c in split.items()})
    return out


def ring(n, trunc, dual):
    r = ref.SeriesRing(n, trunc)
    for _ in range(dual):
        r = ref.DualRing(r)
    return r


# (n, k, T, dual)
shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(2, 8),
                   st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(st.data(), shapes)
def test_flat_compose_matches_series_ring(data, shape):
    n, k, trunc, dual = shape
    a = data.draw(jet_maps(n, k, trunc, dual))
    b = data.draw(jet_maps(n, k, trunc, dual))
    box = flat_box(n, k, trunc, dual)
    got = pm_compose(box, to_box(box, a, dual), to_box(box, b, dual), k)
    assert from_box(box, got, dual) == \
        ref.pm_compose(ring(n, trunc, dual), a, b, k)


@settings(max_examples=40, deadline=None)
@given(st.data(), shapes)
def test_flat_invert_matches_series_ring(data, shape):
    n, k, trunc, dual = shape
    a = data.draw(jet_maps(n, k, trunc, dual))
    box = flat_box(n, k, trunc, dual)
    got = pm_invert(box, to_box(box, a, dual), k)
    assert from_box(box, got, dual) == \
        ref.pm_invert(ring(n, trunc, dual), a, k)


# maps whose inversion error vanishes through degree 2 but not above: a
# loop that stops at the first zero error while composing only through
# the current degree returns the linear inverse
U_PLUS_CUBE = [{(1,): Fraction(1), (3,): Fraction(1)}]
CUBIC_PAIR = [{(1, 0): Fraction(1), (0, 3): Fraction(2),
               (2, 1): Fraction(-1)},
              {(0, 1): Fraction(1), (3, 0): Fraction(1, 3)}]


def test_capped_rational_inverse_matches_uncapped_reference():
    for pmap in (U_PLUS_CUBE, CUBIC_PAIR):
        for deg in range(3, 9):
            got = pm_invert(RationalRing, pmap, deg)
            assert got == ref.pm_invert(ref.QQ, pmap, deg)
            assert any(sum(a) == 3 for a in got[0])


def test_capped_jet_inverse_matches_uncapped_reference():
    trunc = 4
    for pmap in (U_PLUS_CUBE, CUBIC_PAIR):
        n = len(pmap)
        x = TruncatedSeries.var(0, n, trunc)
        # coefficients that move with x: (1 + x) on every nonlinear term
        jet = [{alpha: TruncatedSeries.const(c, n, trunc) *
                (1 if sum(alpha) == 1 else 1 + x)
                for alpha, c in comp.items()} for comp in pmap]
        for k in (3, 4, 5):
            box = flat_box(n, k, trunc, 0)
            got = from_box(box, pm_invert(box, to_box(box, jet, 0), k), 0)
            assert got == ref.pm_invert(ref.SeriesRing(n, trunc), jet, k)
            assert any(sum(a) == 3 for a in got[0])


def test_flat_jet_invert_solves_composition():
    # the inverse composes to the identity inside the box
    n, k, trunc = 2, 3, 5
    box = flat_box(n, k, trunc, 0)
    jet = to_box(box, [{unit_index(2, 0): TruncatedSeries.const(2, n, trunc),
                        (1, 1): TruncatedSeries.var(1, n, trunc)},
                       {unit_index(2, 1): TruncatedSeries.const(1, n, trunc)
                        + TruncatedSeries.var(0, n, trunc),
                        (0, 2): TruncatedSeries.const(1, n, trunc)}], 0)
    inv = pm_invert(box, jet, k)
    ident = [to_flat({box.unit(1, i): 1}) for i in range(n)]
    assert pm_compose(box, jet, inv, k) == ident
    assert pm_compose(box, inv, jet, k) == ident
