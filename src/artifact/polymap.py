"""Polynomial maps with coefficients in a commutative ring.

A "map" is a list of components; each component is a dict sending an
exponent tuple (in the offset variables u) to a ring element.  Constant
terms are excluded: maps are centered, sending 0 to 0.  Truncation is by
total u-degree.

The ring is abstracted so the same composition/inversion code serves
plain rationals (``TruncatedSeries`` arithmetic and reversion), truncated
series (jet-groupoid arithmetic), and first-order dual numbers over series
(curves of jets).  This is the package's one polynomial kernel; it imports
nothing else from the package.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm


def index_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def index_order(a):
    return sum(a)


def unit_index(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


class RationalRing:
    zero = Fraction(0)
    one = Fraction(1)

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
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def is_unit(a):
        return a != 0

    @staticmethod
    def rat(c):
        return Fraction(c)


class DualRing:
    """Elements a + t*b with t^2 = 0 over an arbitrary base ring."""

    def __init__(self, base):
        self.base = base
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def mul(self, a, b):
        base = self.base
        return (base.mul(a[0], b[0]),
                base.add(base.mul(a[0], b[1]), base.mul(a[1], b[0])))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def inv(self, a):
        base = self.base
        r = base.inv(a[0])
        return (r, base.neg(base.mul(base.mul(r, r), a[1])))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def is_unit(self, a):
        return self.base.is_unit(a[0])

    def rat(self, c):
        return (self.base.rat(c), self.base.zero)

    def lift(self, a):
        return (a, self.base.zero)

    def derive(self, a, j):
        return (self.base.derive(a[0], j), self.base.derive(a[1], j))


# -- polynomials (dict exponent -> ring element) ----------------------

def poly_add(ring, p, q):
    out = dict(p)
    for k, v in q.items():
        s = ring.add(out.get(k, ring.zero), v)
        if ring.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def poly_mul(ring, p, q, deg):
    """Product of two polynomials, dropping terms of total degree > deg."""
    if ring is RationalRing:
        return _rational_mul(p, q, deg)
    return _ring_mul(ring, p, q, deg)


def _ring_mul(ring, p, q, deg):
    out = {}
    for a, ca in p.items():
        da = index_order(a)
        for b, cb in q.items():
            if da + index_order(b) > deg:
                continue
            key = index_add(a, b)
            s = ring.add(out.get(key, ring.zero), ring.mul(ca, cb))
            if ring.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _rational_mul(p, q, deg):
    """``poly_mul`` over the rationals with integer arithmetic: each
    operand is scaled to integer numerators over its lcm denominator, the
    exponents are packed into one int in base deg + 1 (carry-free, since
    no kept exponent exceeds deg), and one Fraction is built per output
    term instead of one per term pair."""
    if not p or not q or deg < 0:
        return {}
    n = len(next(iter(p)))
    base = deg + 1

    def pack(a):
        k = 0
        for e in reversed(a):
            k = k * base + e
        return k

    dp = lcm(*[c.denominator for c in p.values()])
    dq = lcm(*[c.denominator for c in q.values()])
    qs = sorted((index_order(b), pack(b), c.numerator * (dq // c.denominator))
                for b, c in q.items())
    q_degrees = [db for db, _, _ in qs]
    q_terms = [(kb, nb) for _, kb, nb in qs]
    acc = {}
    get = acc.get
    for a, c in p.items():
        da = index_order(a)
        if da > deg:
            continue
        ka = pack(a)
        na = c.numerator * (dp // c.denominator)
        for kb, nb in q_terms[:bisect_right(q_degrees, deg - da)]:
            k = ka + kb
            acc[k] = get(k, 0) + na * nb
    den = dp * dq
    out = {}
    for k, v in acc.items():
        if v:
            e = []
            for _ in range(n):
                k, r = divmod(k, base)
                e.append(r)
            out[tuple(e)] = Fraction(v, den)
    return out


def poly_scale(ring, p, c):
    out = {}
    for k, v in p.items():
        w = ring.mul(c, v)
        if not ring.is_zero(w):
            out[k] = w
    return out


def poly_derive(ring, p, var):
    out = {}
    for alpha, c in p.items():
        e = alpha[var]
        if e == 0:
            continue
        beta = alpha[:var] + (e - 1,) + alpha[var + 1:]
        out[beta] = ring.mul(ring.rat(e), c)
    return out


def pm_compose(ring, outer, inner, deg):
    """Components of outer(inner(u)), truncated at total u-degree deg.

    ``outer`` has len(inner) input variables; ``inner`` components share
    the final variable count and, as maps are centered, have no constant
    term, so a monomial of total degree above deg maps to zero.  The image
    of each monomial is built once, as the image of the monomial one
    degree lower times one inner component, and shared by every component
    of ``outer``.
    """
    inner = [{a: c for a, c in g.items() if index_order(a) <= deg}
             for g in inner]
    images = {}

    def image(alpha):
        img = images.get(alpha)
        if img is None:
            i = next(i for i, a in enumerate(alpha) if a)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            img = (poly_mul(ring, image(lower), inner[i], deg) if any(lower)
                   else inner[i])
            images[alpha] = img
        return img

    out = []
    for comp in outer:
        res = {}
        for alpha, c in comp.items():
            if not any(alpha):
                # constant term of outer is not allowed for centered maps
                raise ValueError("outer map has a constant term")
            if index_order(alpha) <= deg:
                res = poly_add(ring, res, poly_scale(ring, image(alpha), c))
        out.append(res)
    return out


def pm_identity(ring, n):
    return [{unit_index(n, i): ring.one} for i in range(n)]


def pm_linear_part(ring, pmap, n):
    return [[comp.get(unit_index(n, j), ring.zero) for j in range(n)]
            for comp in pmap]


def matrix_inverse(ring, m):
    """Invert a square matrix over the ring (pivots must be units)."""
    n = len(m)
    aug = [[m[i][j] for j in range(n)] +
           [ring.one if i == j else ring.zero for j in range(n)]
           for i in range(n)]
    for c in range(n):
        pr = None
        for r in range(c, n):
            if ring.is_unit(aug[r][c]):
                pr = r
                break
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = ring.inv(aug[c][c])
        aug[c] = [ring.mul(inv, x) for x in aug[c]]
        for r in range(n):
            if r != c and not ring.is_zero(aug[r][c]):
                f = aug[r][c]
                aug[r] = [ring.add(x, ring.neg(ring.mul(f, y)))
                          for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def pm_invert(ring, pmap, deg):
    """Compositional inverse of a square centered polynomial map with
    invertible linear part, to total degree deg."""
    n = len(pmap)
    lin = pm_linear_part(ring, pmap, n)
    linv = matrix_inverse(ring, lin)
    if linv is None:
        raise ValueError("singular linear part, jet not invertible")
    inv_lin = []
    for i in range(n):
        comp = {}
        for j in range(n):
            if not ring.is_zero(linv[i][j]):
                comp[unit_index(n, j)] = linv[i][j]
        inv_lin.append(comp)
    g = [dict(comp) for comp in inv_lin]
    ident = pm_identity(ring, n)
    for _ in range(2, deg + 1):
        err = pm_compose(ring, pmap, g, deg)
        for i in range(n):
            err[i] = poly_add(ring, err[i],
                              poly_scale(ring, ident[i], ring.neg(ring.one)))
        if all(not e for e in err):
            break
        for i in range(n):
            corr = {}
            for j in range(n):
                if not ring.is_zero(linv[i][j]):
                    corr = poly_add(ring, corr,
                                    poly_scale(ring, err[j], linv[i][j]))
            g[i] = poly_add(ring, g[i], poly_scale(ring, corr,
                                                   ring.neg(ring.one)))
    return g
