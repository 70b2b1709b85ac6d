"""The package's one polynomial kernel: exact rational polynomials under a
degree box, and composition and inversion of polynomial maps.

A polynomial is a pair ``(den, terms)``: one positive int denominator and
a dict from packed monomial keys to nonzero int numerators, as in FLINT's
``fmpq_mpoly``.  The variables fall into groups, and a ``Box`` gives each
group a bound: a term is kept only while, in every group, the total degree
of its variables is at most the group's bound.  A key packs, per group,
the group's total degree followed by the exponent of each of its variables
in fixed-width bit fields (Monagan and Pearce, CASC 2007), so the product
of two monomials is the sum of their keys.  The degree fields tell, before
the addition, whether a product stays in the box, so no field ever carries
into the next one.

A composition substitutes the variables of one group and lets the other
groups through as parameters.  A jet map over the source point x is a map
in the fiber variables u with x as a parameter group bounded by the series
truncation; a curve of jets adds one parameter group per dual variable t,
bounded by 1 so that t^2 = 0.  Substituting x instead (re-centering a jet
at a moved point) uses the same code with u as the parameter.  The
substituted polynomials are centered in their group (no term of degree 0
there), so a monomial above the truncation maps to zero.

At the boundary (``RationalRing``) a polynomial is a dict from exponent
tuples to nonzero Fractions, the storage of ``TruncatedSeries``:
``poly_mul``, ``pm_compose`` and ``pm_invert`` pack such arguments into a
one-group box, work in integers and build one Fraction per output term.
This module imports nothing else from the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def index_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def index_order(a):
    return sum(a)


def unit_index(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


class RationalRing:
    """Selects the boundary form in ``pm_compose`` and ``pm_invert``: maps
    whose components are dicts from exponent tuples to Fractions."""


# -- degree boxes and packed keys --------------------------------------

class Box:
    """Variable groups ``(nvars, bound)``, listed from the low bits of a
    key up.  A group's bound also sets its field width, so a truncation
    may lower a bound but never raise it."""

    __slots__ = ("groups", "bounds", "sigmask", "_fields", "_guard_width",
                 "_guard_forms", "_keys", "_exps")

    def __init__(self, groups):
        self.groups = tuple(groups)
        self.bounds = tuple(b for _, b in self.groups)
        fields = []
        shift = sigmask = 0
        for nvars, bound in self.groups:
            width = max(bound.bit_length(), 1)
            fields.append((shift, width, nvars))
            sigmask |= ((1 << width) - 1) << (shift + width * nvars)
            shift += width * (nvars + 1)
        self._fields = tuple(fields)
        self.sigmask = sigmask
        # a guard form holds each group degree in a field with room for
        # the sum of two degrees plus an offset (see ``_mul_into``)
        self._guard_width = max(self.bounds + (1,)).bit_length() + 2
        self._guard_forms = {}
        # per group, the keys and exponent tuples met so far, both ways
        self._keys = tuple({} for _ in self.groups)
        self._exps = tuple({} for _ in self.groups)

    def pack(self, g, exps):
        """The key of the monomial with exponent tuple ``exps`` in group g
        (total degree at most the group's bound)."""
        key = self._keys[g].get(exps)
        if key is None:
            shift, width, _ = self._fields[g]
            key = sum(exps)
            for e in reversed(exps):
                key = (key << width) | e
            key <<= shift
            self._keys[g][exps] = key
            self._exps[g][key] = exps
        return key

    def unpack(self, g, key):
        """The exponent tuple of group g in ``key``."""
        part = self.part(g, key)
        exps = self._exps[g].get(part)
        if exps is None:
            shift, width, nvars = self._fields[g]
            mask = (1 << width) - 1
            k = part >> shift
            out = []
            for _ in range(nvars):
                out.append(k & mask)
                k >>= width
            exps = tuple(out)
            self._exps[g][part] = exps
            self._keys[g][exps] = part
        return exps

    def degree(self, g, key):
        shift, width, nvars = self._fields[g]
        return (key >> (shift + width * nvars)) & ((1 << width) - 1)

    def part(self, g, key):
        """The factor of the monomial ``key`` in the variables of group g."""
        shift, width, nvars = self._fields[g]
        return key & (((1 << (width * (nvars + 1))) - 1) << shift)

    def unit(self, g, i):
        """The key of variable i of group g."""
        shift, width, nvars = self._fields[g]
        return ((1 << (width * nvars)) | (1 << (width * i))) << shift

    def _guard_form(self, sig):
        """The group degrees of a degree signature, one guard field each."""
        out = self._guard_forms.get(sig)
        if out is None:
            w = self._guard_width
            out = 0
            for g, (shift, width, nvars) in enumerate(self._fields):
                out |= (((sig >> (shift + width * nvars)) & ((1 << width) - 1))
                        << (w * g))
            self._guard_forms[sig] = out
        return out

    def _guard(self, bounds):
        """(offset, guard bits): a sum of two guard forms plus the offset
        sets a guard bit exactly when some group exceeds its bound."""
        w = self._guard_width
        top = 1 << (w - 1)
        offset = guard = 0
        for g, b in enumerate(bounds):
            offset |= (top - 1 - b) << (w * g)
            guard |= top << (w * g)
        return offset, guard


@lru_cache(maxsize=32)
def box_of(groups):
    """The shared ``Box`` of a tuple of groups, so that its tables of keys
    outlive one call (a box never changes otherwise).

    The benchmark workloads meet at most 20 distinct boxes (groupoid-jets;
    cli-problems 5, symbol-chains 1).  Building a new box per call instead
    measured 4 % fewer op/s on groupoid-jets and 7 % fewer on cli-problems
    (seed 5, five alternating pairs each, 2-vCPU host)."""
    return Box(groups)


# -- rational polynomials with one denominator -------------------------

ZERO = (1, {})


def to_flat(terms):
    """(den, numerators) of a dict key -> Fraction or int."""
    terms = {k: c for k, c in terms.items() if c}
    if not terms:
        return ZERO
    den = lcm(*[c.denominator for c in terms.values()])
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in terms.items()}


def from_flat(poly):
    """The dict key -> Fraction of a polynomial."""
    den, terms = poly
    return {k: Fraction(v, den) for k, v in terms.items()}


def _reduce(den, acc):
    """Drop zero numerators and divide out their common factor with den."""
    terms = {k: v for k, v in acc.items() if v}
    if not terms:
        return ZERO
    g = gcd(den, *terms.values())
    if g > 1:
        den //= g
        terms = {k: v // g for k, v in terms.items()}
    return den, terms


def flat_lincomb(a, b, c=1):
    """a + c * b for an int c."""
    (da, ta), (db, tb) = a, b
    den = lcm(da, db)
    fa, fb = den // da, c * (den // db)
    out = {k: v * fa for k, v in ta.items()}
    get = out.get
    for k, v in tb.items():
        out[k] = get(k, 0) + v * fb
    return _reduce(den, out)


def flat_mul(box, a, b, bounds=None):
    """a * b truncated at ``bounds`` (default: the box's)."""
    acc = {}
    _mul_into(box, bounds or box.bounds, acc, _prep(box, a[1]),
              _prep(box, b[1]))
    return _reduce(a[0] * b[0], acc)


def flat_derive(box, a, g, i):
    """Partial derivative in variable i of group g."""
    shift, width, _ = box._fields[g]
    field = shift + width * i
    mask = (1 << width) - 1
    unit = box.unit(g, i)
    out = {}
    for k, v in a[1].items():
        e = (k >> field) & mask
        if e:
            out[k - unit] = v * e
    return _reduce(a[0], out)


def flat_truncate(box, a, g, bound):
    """The terms of degree at most ``bound`` in group g."""
    return _reduce(a[0], {k: v for k, v in a[1].items()
                          if box.degree(g, k) <= bound})


def _prep(box, terms):
    """A factor for ``_mul_into``: its terms grouped by degree signature
    (the key with only its degree fields kept), each group with the guard
    form of its signature."""
    mask = box.sigmask
    buckets = {}
    for k, v in terms.items():
        sig = k & mask
        b = buckets.get(sig)
        if b is None:
            buckets[sig] = [(k, v)]
        else:
            b.append((k, v))
    guard_form = box._guard_form
    return [(guard_form(sig), ts) for sig, ts in buckets.items()]


def _mul_into(box, bounds, acc, p, q):
    """acc += p * q for prepared factors, keeping the terms inside
    ``bounds``.  The loop over term pairs only adds keys and multiplies
    ints: whether a pair of signature groups fits is decided once for the
    pair from their guard forms."""
    get = acc.get
    offset, guard = box._guard(bounds)
    qg = [(gb + offset, ts) for gb, ts in q]
    for ga, terms_a in p:
        terms_b = [t for gb, ts in qg if not (ga + gb) & guard for t in ts]
        if not terms_b:
            continue
        for ka, na in terms_a:
            for kb, nb in terms_b:
                k = ka + kb
                acc[k] = get(k, 0) + na * nb


# -- maps on a box -----------------------------------------------------

def _compose(box, outer, inner, deg, g=-1, obox=None):
    """outer(inner): the variables of group g in each polynomial of
    ``outer`` are replaced by the polynomials of ``inner``, the other
    groups pass through, and the result is truncated at degree ``deg`` in
    group g.  ``inner`` is centered in group g.  ``obox`` lays out group g
    of ``outer`` when it has another variable count than ``box`` (only
    when g is the only group).

    The image of each monomial is built once, as the image of the monomial
    one degree lower times one inner polynomial, and shared by every outer
    polynomial; each outer polynomial is summed in integers over the lcm
    of its images' denominators."""
    g %= len(box.groups)
    obox = obox or box
    bounds = box.bounds[:g] + (deg,) + box.bounds[g + 1:]
    # an image is (den, terms, the terms prepared as a factor)
    inner_p = []
    for den, terms in inner:
        kept = {k: v for k, v in terms.items() if box.degree(g, k) <= deg}
        inner_p.append((den, kept, _prep(box, kept)))
    nvars = obox.groups[g][0]
    units = [obox.unit(g, i) for i in range(nvars)]
    images = {0: (1, {0: 1}, _prep(box, {0: 1}))}

    def image(part):
        img = images.get(part)
        if img is None:
            exps = obox.unpack(g, part)
            i = next(i for i, e in enumerate(exps) if e)
            lower = part - units[i]
            if lower:
                lden, _, lp = image(lower)
                iden, _, ip = inner_p[i]
                acc = {}
                _mul_into(box, bounds, acc, lp, ip)
                den, terms = _reduce(lden * iden, acc)
                img = (den, terms, _prep(box, terms))
            else:
                img = inner_p[i]
            images[part] = img
        return img

    shift, width, nvars = obox._fields[g]
    dshift, dmask = shift + width * nvars, (1 << width) - 1
    gmask = ((1 << (width * (nvars + 1))) - 1) << shift
    out = []
    for den, terms in outer:
        by_part = {}
        for k, v in terms.items():
            if (k >> dshift) & dmask > deg:
                continue
            part = k & gmask
            c = by_part.get(part)
            if c is None:
                by_part[part] = {k - part: v}
            else:
                c[k - part] = v
        summands = [(image(part), c) for part, c in by_part.items()]
        common = lcm(*[img[0] for img, _ in summands]) if summands else 1
        acc = {}
        get = acc.get
        for (iden, it, ip), c in summands:
            f = common // iden
            if len(c) == 1 and 0 in c:
                cf = c[0] * f
                for k, v in it.items():
                    acc[k] = get(k, 0) + cf * v
            else:
                _mul_into(box, bounds, acc,
                          _prep(box, {k: v * f for k, v in c.items()}), ip)
        out.append(_reduce(den * common, acc))
    return out


def _newton_inverse(box, lin, m, ident):
    """The inverse of the linear map ``lin`` from ``m``, its inverse where
    the parameters vanish, by M <- M + M(I - L M).  The residual I - L M
    lies in the d-th power of the parameters' ideal, d doubling per step,
    and is zero once d exceeds the parameters' total bound."""
    for _ in range(sum(box.bounds[:-1]).bit_length() + 1):
        resid = [flat_lincomb(e, r, -1)
                 for e, r in zip(ident, _compose(box, lin, m, 1))]
        if not any(terms for _, terms in resid):
            return m
        m = [flat_lincomb(a, b) for a, b in zip(m, _compose(box, m, resid, 1))]
    raise ArithmeticError("Newton iteration for L^-1 did not converge")


def _invert(box, pmap, deg):
    """Compositional inverse in the last group, the others parameters.

    The inverse L^-1 of the linear part is found by Newton's iteration
    from its value where the parameters vanish; then step s corrects the
    degree-s terms, composing only through degree s.
    An error that vanishes through degree s says nothing of the degrees
    above, so every step runs."""
    g = len(box.groups) - 1
    n = box.groups[g][0]
    units = [box.unit(g, i) for i in range(n)]
    lin = [_reduce(den, {k: v for k, v in terms.items()
                         if box.degree(g, k) == 1}) for den, terms in pmap]
    at0 = matrix_inverse([[Fraction(terms.get(u, 0), den) for u in units]
                          for den, terms in lin])
    if at0 is None:
        raise ValueError("singular linear part, jet not invertible")
    m = [to_flat({u: c for u, c in zip(units, row) if c}) for row in at0]
    ident = [(1, {u: 1}) for u in units]
    if g:
        m = _newton_inverse(box, lin, m, ident)
    q = m
    for s in range(2, deg + 1):
        err = [flat_lincomb(a, e, -1)
               for a, e in zip(_compose(box, pmap, q, s), ident)]
        q = [flat_lincomb(a, b, -1)
             for a, b in zip(q, _compose(box, m, err, s))]
    return q


# -- the rational boundary ---------------------------------------------

def _pack_map(box, pmap, deg):
    keys = box._keys[0]
    out = []
    for comp in pmap:
        items = [(a, c.numerator, c.denominator) for a, c in comp.items()
                 if sum(a) <= deg]
        if not items:
            out.append(ZERO)
            continue
        den = lcm(*[d for _, _, d in items])
        out.append((den, {keys.get(a) or box.pack(0, a): v * (den // d)
                          for a, v, d in items}))
    return out


def _unpack_map(box, fmap):
    exps = box._exps[0]
    return [{exps.get(k) or box.unpack(0, k): Fraction(v, den)
             for k, v in terms.items() if v} for den, terms in fmap]


def _box(n, deg):
    """The one-group box of the boundary form."""
    return box_of(((n, deg),))


def poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_scale(p, c):
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def poly_derive(p, var):
    out = {}
    for alpha, c in p.items():
        e = alpha[var]
        if e:
            out[alpha[:var] + (e - 1,) + alpha[var + 1:]] = e * c
    return out


def poly_mul(p, q, deg):
    """Product of two rational polynomials, dropping terms of total degree
    above deg."""
    if not p or not q or deg < 0:
        return {}
    if len(p) > len(q):
        p, q = q, p
    if len(p) == 1:
        # a monomial factor: one Fraction per output term without packing
        (a, c), = p.items()
        room = deg - sum(a)
        return {index_add(a, b): c * v for b, v in q.items()
                if sum(b) <= room}
    box = _box(len(next(iter(p))), deg)
    (dp, tp), (dq, tq) = _pack_map(box, [p, q], deg)
    acc = {}
    _mul_into(box, box.bounds, acc, _prep(box, tp), _prep(box, tq))
    return _unpack_map(box, [(dp * dq, acc)])[0]


def pm_compose(ring, outer, inner, deg, group=-1):
    """Components of outer(inner(u)), truncated at degree deg in u.

    Over ``RationalRing`` the components are dicts exponent tuple ->
    Fraction; ``outer`` has len(inner) variables and no constant term.
    Over a ``Box`` they are polynomials on it, u is the variable group
    ``group`` and ``outer`` may have terms of degree 0 in it."""
    if ring is not RationalRing:
        return _compose(ring, outer, inner, deg, group)
    for comp in outer:
        if any(not any(a) for a in comp):
            raise ValueError("outer map has a constant term")
    m = next((len(a) for comp in inner for a in comp), None)
    if m is None:
        return [{} for _ in outer]
    box, obox = _box(m, deg), _box(len(inner), deg)
    return _unpack_map(box, _compose(box, _pack_map(obox, outer, deg),
                                     _pack_map(box, inner, deg), deg,
                                     obox=obox))


def pm_invert(ring, pmap, deg):
    """Compositional inverse of a square map with invertible linear part,
    to degree deg in u (over a ``Box``: in its last group)."""
    if ring is not RationalRing:
        return _invert(ring, pmap, deg)
    box = _box(len(pmap), max(deg, 1))
    return _unpack_map(box, _invert(box, _pack_map(box, pmap, box.bounds[0]),
                                    deg))


def matrix_inverse(m):
    """Inverse of a square rational matrix, or None if it is singular."""
    n = len(m)
    aug = [[Fraction(x) for x in m[i]] + [Fraction(int(i == j))
                                          for j in range(n)]
           for i in range(n)]
    for c in range(n):
        pr = next((r for r in range(c, n) if aug[r][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [inv * x for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]
