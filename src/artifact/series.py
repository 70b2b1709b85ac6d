"""Truncated multivariate formal power series with exact rational coefficients.

A series is a finite dictionary mapping exponent tuples to Fractions; every
key has total degree at most ``trunc`` and arithmetic never produces a key
beyond that bound.  Equality therefore means equality of germs to order
``trunc`` at the origin, which is the base point everywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction

from .polymap import (RationalRing, index_add, index_order, matrix_inverse,
                      pm_compose, pm_invert, pm_linear_part, poly_add,
                      poly_derive, poly_mul, poly_scale, unit_index)


def exponents_of_degree(n, d):
    """All length-n exponent tuples of total degree d, lex-descending."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in exponents_of_degree(n - 1, d - first):
            out.append((first,) + rest)
    return out


def multi_index_enum(n, k):
    """Graded-lexicographic enumeration of all multi-indices with |a| <= k."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    out = []
    for d in range(k + 1):
        out.extend(exponents_of_degree(n, d))
    return out


def factorial_of(alpha):
    f = 1
    for a in alpha:
        for m in range(2, a + 1):
            f *= m
    return f


def binom_multi(alpha, beta):
    """Product of componentwise binomial coefficients C(alpha_i, beta_i)."""
    from math import comb

    c = 1
    for a, b in zip(alpha, beta):
        if b > a:
            return 0
        c *= comb(a, b)
    return c


def indices_below(alpha):
    """All multi-indices beta with beta <= alpha componentwise."""
    out = [()]
    for a in alpha:
        out = [t + (i,) for t in out for i in range(a + 1)]
    return out


class DimensionError(ValueError):
    pass


class NonUnitError(ValueError):
    pass


class RecenteringError(ValueError):
    pass


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact rational: {c!r}")


class TruncatedSeries:
    __slots__ = ("n", "trunc", "coeffs")

    def __init__(self, n, trunc, coeffs=None):
        self.n = n
        self.trunc = trunc
        clean = {}
        if coeffs:
            for alpha, c in coeffs.items():
                c = _as_fraction(c)
                if c == 0 or index_order(alpha) > trunc:
                    continue
                if len(alpha) != n or any(a < 0 for a in alpha):
                    raise ValueError(f"bad exponent {alpha} for {n} variables")
                clean[tuple(alpha)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n, trunc):
        return cls(n, trunc)

    @classmethod
    def const(cls, c, n, trunc):
        return cls(n, trunc, {(0,) * n: _as_fraction(c)})

    @classmethod
    def var(cls, i, n, trunc):
        return cls(n, trunc, {unit_index(n, i): Fraction(1)})

    # -- basic queries ------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def vanishes_below_top(self):
        """The top-order rule: zero except in total degree ``trunc``.  A
        derivative leaves the top order unreliable, so every verdict made
        after one (membership, flatness, closure, isomorphism) asks this
        instead of ``is_zero``."""
        return all(index_order(a) == self.trunc for a in self.coeffs)

    def constant_term(self):
        return self.coeffs.get((0,) * self.n, Fraction(0))

    def coefficient(self, alpha):
        return self.coeffs.get(tuple(alpha), Fraction(0))

    def valuation(self):
        """Lowest total degree with a nonzero coefficient, or None if zero."""
        if not self.coeffs:
            return None
        return min(index_order(a) for a in self.coeffs)

    def degree(self):
        if not self.coeffs:
            return 0
        return max(index_order(a) for a in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.n == other.n and self.trunc == other.trunc
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.n, self.trunc, frozenset(self.coeffs.items())))

    def _check(self, other):
        if self.n != other.n or self.trunc != other.trunc:
            raise DimensionError("series with mismatched n_vars or trunc")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(other, self.n, self.trunc)
        self._check(other)
        return TruncatedSeries(self.n, self.trunc,
                               poly_add(RationalRing, self.coeffs,
                                        other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.n, self.trunc,
                               poly_scale(RationalRing, self.coeffs,
                                          Fraction(-1)))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.const(other, self.n, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.n, self.trunc,
                                   poly_scale(RationalRing, self.coeffs,
                                              _as_fraction(other)))
        self._check(other)
        return TruncatedSeries(self.n, self.trunc,
                               poly_mul(RationalRing, self.coeffs,
                                        other.coeffs, self.trunc))

    __rmul__ = __mul__

    def scale(self, c):
        return self * _as_fraction(c)

    # -- calculus -----------------------------------------------------

    def derive(self, var):
        """Formal partial derivative.  The degree-``trunc`` coefficients of
        the result miss the input's unseen degree ``trunc + 1`` terms; this
        is why verdicts use ``vanishes_below_top``."""
        if not 0 <= var < self.n:
            raise DimensionError(f"variable index {var} out of range")
        return TruncatedSeries(self.n, self.trunc,
                               poly_derive(RationalRing, self.coeffs, var))

    def compose(self, args):
        """Substitute args[i] (a series with zero constant term) for x_i."""
        if len(args) != self.n:
            raise DimensionError("wrong number of substitution arguments")
        for g in args:
            if g.constant_term() != 0:
                raise RecenteringError(
                    "substitution argument has nonzero constant term")
        if not args:
            raise DimensionError("series must have at least one variable")
        m, trunc = args[0].n, args[0].trunc
        for g in args:
            if g.n != m or g.trunc != trunc:
                raise DimensionError("substitution arguments disagree")
        # pm_compose takes centered maps: the constant term passes through
        outer = dict(self.coeffs)
        c0 = outer.pop((0,) * self.n, 0)
        out = pm_compose(RationalRing, [outer], [g.coeffs for g in args],
                         trunc)[0]
        out[(0,) * m] = c0
        return TruncatedSeries(m, trunc, out)

    def reciprocal(self):
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        c0 = self.constant_term()
        if c0 == 0:
            raise NonUnitError("reciprocal of a series with zero constant term")
        # 1/(c0(1+h)) = (1/c0) * sum (-h)^m with h of positive valuation
        h = (self * (Fraction(1) / c0)) - 1
        out = TruncatedSeries.const(1, self.n, self.trunc)
        term = TruncatedSeries.const(1, self.n, self.trunc)
        for _ in range(self.trunc):
            term = term * (-h)
            if term.is_zero():
                break
            out = out + term
        return out * (Fraction(1) / c0)

    # -- evaluation and restriction -----------------------------------

    def evaluate(self, point):
        """Exact evaluation at a rational point (for generic-rank probes)."""
        if len(point) != self.n:
            raise DimensionError("wrong evaluation point dimension")
        point = [_as_fraction(p) for p in point]
        total = Fraction(0)
        for alpha, c in self.coeffs.items():
            v = c
            for p, a in zip(point, alpha):
                v *= p ** a
            total += v
        return total

    def restrict_zero(self, vars_to_zero):
        """Set the listed variables to 0 (drop every term containing them)."""
        vs = set(vars_to_zero)
        out = {a: c for a, c in self.coeffs.items()
               if all(a[i] == 0 for i in vs)}
        return TruncatedSeries(self.n, self.trunc, out)

    def truncate(self, order):
        """Drop all terms of total degree above ``order`` (same trunc tag)."""
        out = {a: c for a, c in self.coeffs.items() if index_order(a) <= order}
        return TruncatedSeries(self.n, self.trunc, out)

    def extend(self, n, positions):
        """Re-embed into a larger variable set; positions[i] is the new slot
        of old variable i."""
        out = {}
        for alpha, c in self.coeffs.items():
            beta = [0] * n
            for i, a in enumerate(alpha):
                beta[positions[i]] = a
            out[tuple(beta)] = c
        return TruncatedSeries(n, self.trunc, out)

    # -- display ------------------------------------------------------

    def __repr__(self):
        return f"TruncatedSeries({self.to_str()})"

    def to_str(self, names=None):
        if not self.coeffs:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.n)]
        parts = []
        for alpha in sorted(self.coeffs, key=lambda a: (index_order(a),
                                                        [-x for x in a])):
            c = self.coeffs[alpha]
            factors = []
            for i, a in enumerate(alpha):
                if a == 1:
                    factors.append(names[i])
                elif a > 1:
                    factors.append(f"{names[i]}^{a}")
            mono = "*".join(factors)
            if mono:
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
            else:
                parts.append(str(c))
        s = parts[0]
        for p in parts[1:]:
            s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return s


class SeriesRing:
    """Truncated series as the coefficient ring of ``polymap`` maps."""

    def __init__(self, n, trunc):
        self.n = n
        self.trunc = trunc
        self.zero = TruncatedSeries.zero(n, trunc)
        self.one = TruncatedSeries.const(1, n, trunc)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return a.reciprocal()

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def is_unit(a):
        return a.constant_term() != 0

    @staticmethod
    def derive(a, j):
        return a.derive(j)

    def rat(self, c):
        return TruncatedSeries.const(c, self.n, self.trunc)


def reversion(a):
    """Compositional inverse of a one-variable series with a(0) = 0 and
    invertible linear part: a(result) = x to order trunc."""
    if a.n != 1:
        raise DimensionError("scalar reversion needs a one-variable series")
    out = reversion_system([a])
    return out[0]


def reversion_system(fs):
    """Compositional inverse of a square system with invertible linear part,
    solved degree by degree by ``pm_invert``."""
    n = len(fs)
    if n == 0 or any(f.n != n for f in fs):
        raise DimensionError("reversion needs a square system")
    trunc = fs[0].trunc
    for f in fs:
        if f.constant_term() != 0:
            raise RecenteringError("reversion argument not centered at 0")
    pmap = [f.coeffs for f in fs]
    if matrix_inverse(RationalRing, pm_linear_part(RationalRing, pmap,
                                                   n)) is None:
        raise NonUnitError("singular linear part in reversion")
    return [TruncatedSeries(n, trunc, g)
            for g in pm_invert(RationalRing, pmap, trunc)]
