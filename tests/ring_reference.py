"""Reference kernel for the differential tests: ring-generic dict
polynomials and polynomial maps, as the package computed them before jet
maps became flat rational polynomials.

A map is a list of components, each a dict from exponent tuples in the
offset variables u to ring elements.  ``SeriesRing`` makes the
coefficients truncated series in x (jet maps) and ``DualRing`` adds a
variable t with t^2 = 0 on top (curves of jets).  Every product is the
term-pair loop ``ring_mul``; inversion solves degree by degree with full
compositions, which is why its early exit on a zero error is sound here.
"""

from fractions import Fraction

from artifact.polymap import index_add, index_order, unit_index
from artifact.series import TruncatedSeries


class QQ:
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
        return Fraction(1) / a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def is_unit(a):
        return a != 0


class SeriesRing:
    """Truncated series in n variables as the coefficient ring."""

    def __init__(self, n, trunc):
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


class DualRing:
    """Elements a + t*b with t^2 = 0 over a base ring."""

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


def poly_add(ring, p, q):
    out = dict(p)
    for k, v in q.items():
        s = ring.add(out.get(k, ring.zero), v)
        if ring.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def poly_scale(ring, p, c):
    out = {}
    for k, v in p.items():
        w = ring.mul(c, v)
        if not ring.is_zero(w):
            out[k] = w
    return out


def ring_mul(ring, p, q, deg):
    """Product of two polynomials, dropping terms of total degree > deg,
    one ring multiplication per pair of terms."""
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


def pm_compose(ring, outer, inner, deg):
    """Components of outer(inner(u)) truncated at total u-degree deg;
    ``outer`` may have a constant term, ``inner`` is centered."""
    inner = [{a: c for a, c in g.items() if index_order(a) <= deg}
             for g in inner]
    images = {}

    def image(alpha):
        img = images.get(alpha)
        if img is None:
            i = next(i for i, a in enumerate(alpha) if a)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            img = (ring_mul(ring, image(lower), inner[i], deg) if any(lower)
                   else inner[i])
            images[alpha] = img
        return img

    out = []
    for comp in outer:
        res = {}
        for alpha, c in comp.items():
            if not any(alpha):
                res = poly_add(ring, res, {alpha: c})
            elif index_order(alpha) <= deg:
                res = poly_add(ring, res, poly_scale(ring, image(alpha), c))
        out.append(res)
    return out


def matrix_inverse(ring, m):
    n = len(m)
    aug = [[m[i][j] for j in range(n)] +
           [ring.one if i == j else ring.zero for j in range(n)]
           for i in range(n)]
    for c in range(n):
        pr = next((r for r in range(c, n) if ring.is_unit(aug[r][c])), None)
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
    """Compositional inverse, solved degree by degree; every step composes
    through degree deg."""
    n = len(pmap)
    lin = [[comp.get(unit_index(n, j), ring.zero) for j in range(n)]
           for comp in pmap]
    linv = matrix_inverse(ring, lin)
    if linv is None:
        raise ValueError("singular linear part, jet not invertible")
    g = [{unit_index(n, j): linv[i][j] for j in range(n)
          if not ring.is_zero(linv[i][j])} for i in range(n)]
    for _ in range(2, deg + 1):
        err = pm_compose(ring, pmap, g, deg)
        for i in range(n):
            err[i] = poly_add(ring, err[i], {unit_index(n, i):
                                             ring.neg(ring.one)})
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
