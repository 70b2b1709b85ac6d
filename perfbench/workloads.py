"""Seeded inputs, operations and per-op correctness checks for the three
benchmark workloads.

Every workload is a list of ``Op`` records built before timing starts.
An op is one call to a public entry point of ``artifact`` (one
``artifact.cli.main`` invocation for ``cli-problems``); its ``check`` runs
outside the timed region and returns True when the output is the one known
by construction.  The op mix is a fixed repeating block of shapes; the seed
draws the coefficients, signs, fields and subspaces inside each shape, so
two seeds give different inputs of comparable cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from artifact import cli, linalg
from artifact.equations import check_formal_integrability, equation_build
from artifact.groupoid import (GroupoidSection, groupoid_action, jet_compose,
                               jet_invert, nonlinear_spencer_D,
                               pushforward_one_form)
from artifact.jets import CheckedSection, holonomic_lift
from artifact.polymap import RationalRing, pm_compose
from artifact.series import (TruncatedSeries, exponents_of_degree,
                             index_order, multi_index_enum, reversion,
                             reversion_system)
from artifact.symbols import (SymbolSpace, delta_cohomology, delta_map,
                              symbol_coords, symbol_dim, symbol_prolong,
                              two_acyclic)

T = 8                      # series truncation order of every input


@dataclass
class Op:
    kind: str              # per-kind latency label, e.g. "groupoid.jet_invert"
    fn: Callable
    args: tuple
    check: Callable        # result -> bool, run outside the timed region


@dataclass
class Workload:
    ops: list              # the timed schedule, in order
    block: int             # ops per block of the mix
    warmup: list           # small ops run once before timing
    probes: list           # untimed known-defect probes (see cli_problems)


def build(name, seed, work_dir, blocks):
    """Inputs of workload ``name``: ``blocks`` repetitions of its mix."""
    rng = random.Random(f"{name}:{seed}")
    if name == "groupoid-jets":
        ops, warmup, probes = groupoid_jets(rng, blocks)
    elif name == "symbol-chains":
        ops, warmup, probes = symbol_chains(rng, blocks)
    elif name == "cli-problems":
        ops, warmup, probes = cli_problems(rng, blocks, work_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(ops, len(ops) // blocks, warmup, probes)


# -- random exact data -------------------------------------------------

def _coef(rng, span=3):
    c = rng.randint(1, span)
    return Fraction(c if rng.random() < 0.5 else -c)


def _poly(rng, n, degrees, terms, trunc=T):
    pool = [a for d in degrees for a in exponents_of_degree(n, d)]
    picks = rng.sample(pool, min(terms, len(pool)))
    return TruncatedSeries(n, trunc, {a: _coef(rng) for a in picks})


def _var(i, n, trunc=T):
    return TruncatedSeries.var(i, n, trunc)


def _series_zero(s, budget):
    return s.truncate(s.trunc - budget).is_zero()


def _jet_zero(xi, budget):
    return all(_series_zero(s, budget) for s in xi.comps.values())


# -- groupoid-jets -----------------------------------------------------

def _base_map(rng, n, dense):
    """Near-identity map fixing 0.  Sparse: x_i + c_i x_{i+1}^2, with the
    last component x_n + c_n x_n^2, a triangular map whose inverse stays
    sparse; dense: x_i plus every quadratic monomial.  Monomials and
    |c| = 2 are fixed per shape and the seed draws the signs: the size of
    these coefficients sets how fast the rationals of an inverse grow, so
    fixing it keeps the cost of an op from swinging with the seed."""
    out = []
    for i in range(n):
        if dense:
            monos = exponents_of_degree(n, 2)
        else:
            a = [0] * n
            a[min(i + 1, n - 1)] = 2
            monos = [tuple(a)]
        extra = {a: Fraction(rng.choice((-2, 2))) for a in monos}
        out.append(_var(i, n) + TruncatedSeries(n, T, extra))
    return out


def _twisted(rng, n, order, dense):
    """An invertible, non-holonomic jet section: the holonomic lift of a
    random base map plus twists c*x_n of fiber jets, which keep the linear
    part at 0.  A sparse section twists the jets (0, e_0) and
    (n-1, order*e_0), a dense one every jet; the seed draws each c."""
    base = _base_map(rng, n, dense)
    sigma = GroupoidSection.holonomic(base, order)
    fiber = dict(sigma.fiber)
    if dense:
        picks = [(rng.randrange(n), a) for a in multi_index_enum(n, order)
                 if index_order(a)]
    else:
        e0 = exponents_of_degree(n, 1)[0]
        picks = [(0, e0), (n - 1, tuple(order * a for a in e0))]
    for i, alpha in picks:
        fiber[(i, alpha)] = sigma.jet(i, alpha) + _coef(rng) * _var(n - 1, n)
    return GroupoidSection(n, order, T, base, fiber)


def _holonomic(rng, n, order, dense):
    return GroupoidSection.holonomic(_base_map(rng, n, dense), order)


def _at_zero(pmap):
    """Rational Taylor polynomial of a jet at the base point."""
    out = []
    for comp in pmap:
        d = {a: s.constant_term() for a, s in comp.items()}
        out.append({a: c for a, c in d.items() if c != 0})
    return out


def _check_compose(a, b):
    """At the base point the composite jet is the composite of the two
    Taylor polynomials, computed here over the rationals."""
    def check(c):
        want = pm_compose(RationalRing, _at_zero(a.to_polymap()),
                          _at_zero(b.to_polymap()), a.order)
        return _at_zero(c.to_polymap()) == want
    return check


def _check_invert(a):
    def check(inv):
        ident = GroupoidSection.identity(a.n, a.order, a.trunc)
        c = jet_compose(a, inv)
        keys = set(c.fiber) | set(ident.fiber)
        return (all(_series_zero(x - y, 1)
                    for x, y in zip(c.base_map, ident.base_map))
                and all(_series_zero(c.jet(*k) - ident.jet(*k), 1)
                        for k in keys))
    return check


def _check_spencer(holonomic):
    """D vanishes (to the derivative budget) exactly on holonomic
    sections."""
    def check(forms):
        zero = all(_jet_zero(u, 2) for u in forms)
        return zero == holonomic
    return check


def _push_low(base, field, k):
    """f_* v computed at truncation k+1, where its Taylor coefficients
    through degree k (all a k-jet at the base point needs) are exact."""
    n, t = len(base), k + 1
    low = [TruncatedSeries(n, t, f.coeffs) for f in base]
    h = reversion_system(low)
    out = []
    for i in range(n):
        s = TruncatedSeries.zero(n, t)
        for j in range(n):
            s = s + low[i].derive(j) * TruncatedSeries(n, t, field[j].coeffs)
        out.append(s.compose(h))
    return out


def _jet_at_zero(xi):
    return {key: s.constant_term() for key, s in xi.comps.items()
            if s.constant_term() != 0}


def _check_action(sigma, v, theta, k):
    """Holonomic oracle at the base point: the action of j^{k+1}f on
    v + j^k(theta) is f_* v + j^k(f_* theta)."""
    def check(cs):
        pv = _push_low(sigma.base_map, v, k)
        want_h = [s.constant_term() for s in pv]
        want_v = _jet_at_zero(holonomic_lift(
            _push_low(sigma.base_map, theta, k), k))
        return ([s.constant_term() for s in cs.horizontal] == want_h
                and _jet_at_zero(cs.vertical) == want_v)
    return check


def _check_pushforward(sigma, thetas, k):
    """Holonomic oracle at the base point: component j of the pushed
    one-form is sum_m d_j h_m * j^k(f_* theta_m)."""
    def check(forms):
        n = sigma.n
        h = reversion_system([TruncatedSeries(n, k + 1, f.coeffs)
                              for f in sigma.base_map])
        lifted = [holonomic_lift(_push_low(sigma.base_map, th, k), k)
                  for th in thetas]
        want = []
        for j in range(n):
            acc = {}
            for m in range(n):
                c = h[m].derive(j).constant_term()
                for key, val in _jet_at_zero(lifted[m]).items():
                    acc[key] = acc.get(key, 0) + c * val
            want.append({key: c for key, c in acc.items() if c != 0})
        return [_jet_at_zero(u) for u in forms] == want
    return check


def _field(rng, n):
    return [_poly(rng, n, (0, 1, 2), 2) for _ in range(n)]


# (n, order, dense) per op kind; one block runs every row once
GROUPOID_BLOCK = (
    ("compose", [(1, 3, False), (2, 2, False), (2, 3, False), (3, 2, False),
                 (3, 3, False), (2, 2, True)]),
    ("invert", [(1, 3, False), (2, 2, False), (2, 3, False), (3, 2, False),
                (2, 2, True)]),
    ("spencer", [(1, 3, False), (2, 2, False), (2, 3, False), (3, 2, False),
                 (2, 2, True)]),
    ("action", [(1, 3, False), (2, 2, False), (2, 3, False), (3, 2, False),
                (2, 2, True)]),
    ("pushforward", [(1, 3, False), (2, 2, False), (2, 3, False),
                     (3, 2, False)]),
)


def _groupoid_op(rng, what, n, order, dense, holonomic):
    if what == "compose":
        a, b = (_twisted(rng, n, order, dense) for _ in range(2))
        return Op("groupoid.jet_compose", jet_compose, (a, b),
                  _check_compose(a, b))
    if what == "invert":
        a = _twisted(rng, n, order, dense)
        return Op("groupoid.jet_invert", jet_invert, (a,), _check_invert(a))
    if what == "spencer":
        s = (_holonomic if holonomic else _twisted)(rng, n, order, dense)
        return Op("groupoid.nonlinear_spencer_D", nonlinear_spencer_D, (s,),
                  _check_spencer(holonomic))
    k = order - 1
    sigma = _holonomic(rng, n, order, dense)
    if what == "action":
        v, theta = _field(rng, n), _field(rng, n)
        cs = CheckedSection(v, holonomic_lift(theta, k))
        return Op("groupoid.groupoid_action", groupoid_action, (sigma, cs),
                  _check_action(sigma, v, theta, k))
    thetas = [_field(rng, n) for _ in range(n)]
    u = [holonomic_lift(th, k) for th in thetas]
    return Op("groupoid.pushforward_one_form", pushforward_one_form,
              (sigma, u), _check_pushforward(sigma, thetas, k))


def groupoid_jets(rng, blocks):
    """Spencer D alternates between holonomic and twisted sections per
    shape and block, so every two blocks hold the same mix."""
    ops = []
    for b in range(blocks):
        block = [_groupoid_op(rng, what, *shape, holonomic=(b + j) % 2 == 0)
                 for what, shapes in GROUPOID_BLOCK
                 for j, shape in enumerate(shapes)]
        rng.shuffle(block)
        ops.extend(block)
    warmup = [_groupoid_op(rng, what, 1, 2, False, True)
              for what, _ in GROUPOID_BLOCK]
    return ops, warmup, []


# -- symbol-chains -----------------------------------------------------

def _random_subspace(rng, n, k):
    """Kernel of a few random rational rows: a seeded sub-symbol space."""
    dim = symbol_dim(n, k)
    cut = rng.randint(1, max(1, dim // 3))
    rows = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            for _ in range(cut)]
    rows = [r for r in rows if any(c != 0 for c in r)]
    if not rows:
        return SymbolSpace.full(n, k)
    return SymbolSpace(n, k, linalg.kernel_basis(rows))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _delta_parts(elem, n, low_index):
    """delta of an element of S^{k+1}T*(x)T, one S^kT*(x)T vector per
    direction."""
    parts = [[Fraction(0)] * len(low_index) for _ in range(n)]
    for (wedge, l, beta), c in delta_map(elem, n).items():
        parts[wedge[0]][low_index[(l, beta)]] = c
    return parts


def _check_prolong(g):
    """Rank-nullity against an independent count (delta of every unit
    vector of S^{k+1}T*(x)T against the forms cutting out g), and every
    basis vector's delta lies in T* (x) g."""
    def check(gp):
        n, k = g.n, g.order
        if gp.order != k + 1:
            return False
        eqs = g.equations()
        high = symbol_coords(n, k + 1)
        low_index = {c: i for i, c in enumerate(symbol_coords(n, k))}
        units = [_delta_parts({((), l, a): Fraction(1)}, n, low_index)
                 for (l, a) in high]
        rows = [[_dot(e, u[j]) for u in units]
                for e in eqs for j in range(n)]
        rows = [r for r in rows if any(r)]
        if gp.dim != len(high) - (linalg.rank(rows) if rows else 0):
            return False
        for v in gp.basis:
            elem = {((), l, a): c for (l, a), c in zip(high, v) if c != 0}
            if any(_dot(e, part) for part in _delta_parts(elem, n, low_index)
                   for e in eqs):
                return False
        return True
    return check


def _one_direction_symbol(rng, n):
    """Symbol of one first-order relation on the last component,
    p_{e_n} = sum a_j p_{e_j}: an involutive (hence 2-acyclic) symbol."""
    coords = symbol_coords(n, 1)
    rel = {(n - 1, tuple(1 if m == n - 1 else 0 for m in range(n))):
           Fraction(1)}
    for j in range(n - 1):
        rel[(n - 1, tuple(1 if m == j else 0 for m in range(n)))] = \
            _coef(rng)
    row = [rel.get(c, Fraction(0)) for c in coords]
    other = [[Fraction(1 if c == d else 0) for c in coords]
             for d in coords if d[0] != n - 1]
    return SymbolSpace(n, 1, linalg.kernel_basis([row] + other))


def _n3_equation(rng):
    """Coefficients a(x, y), b(x, y) of p[0,0,1] = a p[1,0,0] + b p[0,1,0]
    on V = span(d/dz)."""
    a, b = (_poly(rng, 2, degrees, 2) for degrees in ((0, 1, 2), (1, 2)))
    return [TruncatedSeries(3, T, {e + (0,): c for e, c in s.coeffs.items()})
            for s in (a, b)]


def _check_dims(want):
    def check(dims):
        return list(dims) == want
    return check


def _check_acyclic(ok):
    return ok is True


def _check_integrable(rep):
    return (rep.verdict == "formally_integrable"
            and rep.symbol_dims == [2])


# (op, n, k) rows; one block runs every row once
SYMBOL_BLOCK = (
    ("cohomology-full", 2, 2), ("cohomology-full", 2, 3),
    ("cohomology-full", 2, 4), ("cohomology-full", 3, 1),
    ("cohomology-full", 3, 2),
    ("cohomology-chain", 2, 3), ("cohomology-chain", 2, 4),
    ("cohomology-chain", 3, 2),
    ("cohomology-sub", 2, 3), ("cohomology-sub", 2, 4),
    ("cohomology-sub", 3, 2),
    ("prolong-full", 2, 4), ("prolong-full", 3, 2),
    ("prolong-sub", 2, 2), ("prolong-sub", 2, 3), ("prolong-sub", 2, 4),
    ("prolong-sub", 3, 1), ("prolong-sub", 3, 2),
    ("acyclic-full", 2, 1), ("acyclic-full", 2, 2),
    ("acyclic-line", 2, 1), ("acyclic-line", 3, 1),
    ("integrability", 3, 1),
)


def _symbol_op(rng, what, n, k):
    if what == "cohomology-full":
        return Op("symbols.delta_cohomology", delta_cohomology,
                  ([SymbolSpace.full(n, k)],), _check_dims([0]))
    if what == "cohomology-chain":
        chain = [SymbolSpace.full(n, k), SymbolSpace.full(n, k - 1)]
        return Op("symbols.delta_cohomology", delta_cohomology, (chain,),
                  _check_dims([0, 0]))
    if what == "cohomology-sub":
        # delta is injective on S^k (k >= 1), hence on every subspace
        return Op("symbols.delta_cohomology", delta_cohomology,
                  ([_random_subspace(rng, n, k)],), _check_dims([0]))
    if what == "prolong-full":
        g = SymbolSpace.full(n, k)
        return Op("symbols.symbol_prolong", symbol_prolong, (g,),
                  _check_prolong(g))
    if what == "prolong-sub":
        g = _random_subspace(rng, n, k)
        return Op("symbols.symbol_prolong", symbol_prolong, (g,),
                  _check_prolong(g))
    if what == "acyclic-full":
        chain = [SymbolSpace.full(n, k + d) for d in range(3)]
        return Op("symbols.two_acyclic", two_acyclic, (chain,),
                  _check_acyclic)
    if what == "acyclic-line":
        chain = [_one_direction_symbol(rng, n)]
        for _ in range(2):
            chain.append(symbol_prolong(chain[-1]))
        return Op("symbols.two_acyclic", two_acyclic, (chain,),
                  _check_acyclic)
    a, b = _n3_equation(rng)
    eq = equation_build(3, 1, [2], [{(2, (0, 0, 1)): 1, (2, (1, 0, 0)): -a,
                                     (2, (0, 1, 0)): -b}], T)
    return Op("equations.check_formal_integrability",
              check_formal_integrability, (eq,), _check_integrable)


def symbol_chains(rng, blocks):
    ops = []
    for _ in range(blocks):
        block = [_symbol_op(rng, *row) for row in SYMBOL_BLOCK]
        rng.shuffle(block)
        ops.extend(block)
    warmup = [_symbol_op(rng, what, 2, 1) for what in
              ("cohomology-full", "prolong-sub", "acyclic-full")]
    return ops, warmup, []


# -- cli-problems ------------------------------------------------------

HEADER2 = ("manifold dim 2\nvars x y\ndistribution V = span(d/dy)\n"
           "truncation {t}\n")
HEADER3 = ("manifold dim 3\nvars x y z\ndistribution V = span({span})\n"
           "truncation {t}\n")
NAMES2 = ["x", "y"]
NAMES3 = ["x", "y", "z"]


def run_cli(argv):
    """One in-process CLI invocation: (exit code, stdout bytes)."""
    out = io.BytesIO()
    text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(text), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    data = out.getvalue()
    text.detach()
    return code, data


def _in_x(s):
    """A one-variable series as a series in x on the plane."""
    return TruncatedSeries(2, T, {(a[0], 0): c for a, c in s.coeffs.items()})


def _x_poly(rng, degrees, terms):
    """A nonzero polynomial in x alone, as a two-variable series."""
    return _in_x(_poly(rng, 1, degrees, terms))


def _expr(s, names):
    return f"({s.to_str(names)})"


def _results(data):
    """The ``results`` object of a JSON report, or None without one."""
    try:
        return json.loads(data)["results"]
    except (ValueError, KeyError, TypeError):
        return None


def _expect(pred):
    """Check on the JSON report; a missing report fails."""
    def check(out):
        res = _results(out[1])
        return res is not None and bool(pred(res))
    return check


def _term_degrees(text, names):
    """Total degrees of the terms of a printed series."""
    if text == "0":
        return []
    degs = []
    for term in text.replace(" - ", " + ").split(" + "):
        d = 0
        for factor in term.lstrip("-").split("*"):
            base, _, exp = factor.partition("^")
            if base in names:
                d += int(exp) if exp else 1
        degs.append(d)
    return degs


def _spencer_zero(res, names):
    """Every printed D component vanishes below the derivative budget."""
    return all(d >= T - 2
               for form in res.values() for text in form.values()
               for d in _term_degrees(text, names))


class _Problems:
    """Writes problem files into the work directory and builds CLI ops."""

    def __init__(self, work_dir):
        self.dir = work_dir
        self.count = 0

    def op(self, command, text, check):
        path = os.path.join(self.dir, f"p{self.count:05d}.lie")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["--input", path, "--command", command, "--format", "json"]
        return Op(f"cli.{command}", run_cli, (argv,), check)


def _plane_eq(rng):
    b = _x_poly(rng, (0, 1, 2, 3), 2)
    return b, (HEADER2.format(t=T)
               + f"equation R order 1 on V: p[0,1] = {_expr(b, NAMES2)}"
                 "*p[1,0]\ntransversal N: y=0\n")


def _n3_text(rng):
    a, b = _n3_equation(rng)
    return (HEADER3.format(span="d/dz", t=T)
            + f"equation R order 1 on V: p[0,0,1] = {_expr(a, NAMES3)}"
              f"*p[1,0,0] + {_expr(b, NAMES3)}*p[0,1,0]\n")


def _plane_valuation(b):
    """Case and valuation the plane classifier must report for B|_{y=0}
    over a unit A."""
    b0 = b.restrict_zero([1])
    v = b0.valuation()
    if v == 0:
        return "Case1", 0
    return "Case2", ("zero to truncation order" if v is None else v)


def _iso_problem(rng, negative):
    """R: p01 = b(x) p10 and its image under F = (phi(x), y): the target
    coefficient is (b * phi') o phi^{-1}; a negative control perturbs it
    at a low degree."""
    b1 = _poly(rng, 1, (1, 2), 2)
    phi = _var(0, 1) + _poly(rng, 1, (2, 3), 1)
    beta1 = (b1 * phi.derive(0)).compose([reversion(phi)])
    if negative:
        beta1 = beta1 + _poly(rng, 1, (1, 2), 1)
    b, f, beta = (_in_x(s) for s in (b1, phi, beta1))
    return (HEADER2.format(t=T)
            + f"equation R order 1 on V: p[0,1] = {_expr(b, NAMES2)}"
              "*p[1,0]\n"
            + f"equation S order 1 on V: p[0,1] = {_expr(beta, NAMES2)}"
              "*p[1,0]\ntransversal N: y=0\n"
            + f"section F order 2: x -> {f.to_str(NAMES2)}; y -> y\n")


def _section_text(rng, twisted):
    """An order-2 section of the plane from a quadratic base map; the
    twisted one shifts its holonomic x[0,2] by a nonzero constant."""
    base = _base_map(rng, 2, False)
    entries = [f"{NAMES2[i]} -> {s.to_str(NAMES2)}"
               for i, s in enumerate(base)]
    if twisted:
        jet = GroupoidSection.holonomic(base, 2).jet(0, (0, 2))
        entries.append(f"x[0,2] -> {(jet + _coef(rng)).to_str(NAMES2)}")
    return (HEADER2.format(t=T) + "section F order 2: "
            + "; ".join(entries) + "\n")


def _connection_text(rng, curved):
    """Flat: the product connection on V = span(d/dy d/dz), or any
    connection on a one-direction distribution (no direction pairs).
    Curved: the product connection plus z[0,0,2] -> c*y, c != 0."""
    if curved:
        return (HEADER3.format(span="d/dy d/dz", t=6)
                + f"connection C order 1: z[0,0,2] -> {_coef(rng)}*y\n")
    if rng.random() < 0.5:
        return (HEADER3.format(span="d/dy d/dz", t=6)
                + "connection C order 1: trivial\n")
    extra = _poly(rng, 3, (0, 1), 2, 6)
    return (HEADER3.format(span="d/dz", t=6)
            + f"connection C order 1: z[0,0,2] -> {extra.to_str(NAMES3)}\n")


def _plane_symbol_text(rng):
    a = _poly(rng, 2, (1,), 1) + _coef(rng)
    b = _x_poly(rng, (0, 1, 2, 3), 1) + _poly(rng, 2, (1,), 1) * _var(1, 2)
    return b, (HEADER2.format(t=T)
               + f"plane symbol: A = {a.to_str(NAMES2)}; "
                 f"B = {b.to_str(NAMES2)}\ntransversal N: y=0\n")


def _two_direction_text(rng):
    """An equation on V = span(d/dy d/dz) written with explicit
    components, e.g. p[y;0,0,1] = x*p[z;0,1,0]."""
    c = _poly(rng, 3, (1,), 1)
    return (HEADER3.format(span="d/dy d/dz", t=T)
            + f"equation R order 1 on V: p[y;0,0,1] = "
              f"{_expr(c, NAMES3)}*p[z;0,1,0]\n")


def _cli_block(rng, probs):
    ops = []
    # plane equations p01 = b(x) p10: one first-order relation for one
    # unknown in two variables, so formally integrable, fiber dims k+1,
    # a one-dimensional symbol, and two generators over N
    b, text = _plane_eq(rng)
    ops.append(probs.op("check-integrability", text, _expect(
        lambda r: r["verdict"] == "formally_integrable")))
    b, text = _plane_eq(rng)
    ops.append(probs.op("prolong", text, _expect(
        lambda r: r["fiber_dims"] == [2, 3, 4, 5])))
    b, text = _plane_eq(rng)
    ops.append(probs.op("symbol", text, _expect(
        lambda r: r["order"] == 1 and r["dim"] == 1)))
    for _ in range(2):
        b, text = _plane_eq(rng)
        ops.append(probs.op("bracket-table", text, _expect(
            lambda r: len(r["generators"]) == 2 and len(r["table"]) == 3)))
    b, text = _plane_eq(rng)
    want = _plane_valuation(b)
    ops.append(probs.op("classify-plane", text, _expect(
        lambda r, want=want: (r["case"], r["valuation"]) == want)))
    # one-direction n=3 equations: one relation for one unknown in three
    # variables, symbol of dim 2, fiber dims C(k+3,3) - C(k+2,3)
    text = _n3_text(rng)
    ops.append(probs.op("check-integrability", text, _expect(
        lambda r: r["verdict"] == "formally_integrable"
        and r["symbol_dims"] == [2])))
    text = _n3_text(rng)
    ops.append(probs.op("prolong", text, _expect(
        lambda r: r["fiber_dims"] == [3, 6, 10, 15])))
    text = _n3_text(rng)
    ops.append(probs.op("symbol", text, _expect(
        lambda r: r["order"] == 1 and r["dim"] == 2)))
    # formal isomorphisms from a reparametrisation, and perturbed targets
    for negative in (False, True):
        text = _iso_problem(rng, negative)
        ops.append(probs.op("verify-iso", text, _expect(
            lambda r, neg=negative: r["passed"] is (not neg)
            and r["equation_transported"] is (not neg)
            and r["spencer_member"] is True)))
    # nonlinear Spencer D: zero on holonomic sections, not on twisted ones
    for twisted in (False, True):
        text = _section_text(rng, twisted)
        ops.append(probs.op("spencer-d", text, _expect(
            lambda r, tw=twisted: _spencer_zero(r, NAMES2) is (not tw))))
    for curved in (False, True):
        text = _connection_text(rng, curved)
        ops.append(probs.op("connection-curvature", text, _expect(
            lambda r, c=curved: r["flat"] is (not c))))
    b, text = _plane_symbol_text(rng)
    want = _plane_valuation(b)
    ops.append(probs.op("classify-plane", text, _expect(
        lambda r, want=want: (r["case"], r["valuation"]) == want)))
    return ops


def cli_problems(rng, blocks, work_dir):
    probs = _Problems(work_dir)
    ops = []
    for _ in range(blocks):
        block = _cli_block(rng, probs)
        rng.shuffle(block)
        ops.extend(block)
    b, text = _plane_eq(rng)
    warmup = [probs.op(cmd, text, _expect(lambda r: True))
              for cmd in ("check-integrability", "bracket-table")]
    # Known DSL defect: explicit components p[y;...] on a two-direction
    # distribution do not parse (exit 2).  Expected by construction: the
    # symbol has dim 2*3 - 1 = 5 and the fiber dims are
    # 2*C(k+3,3) - C(k+2,3).  Run untimed and counted on their own.
    probes = []
    for _ in range(2):
        probes.append(probs.op("symbol", _two_direction_text(rng), _expect(
            lambda r: r["order"] == 1 and r["dim"] == 5)))
        probes.append(probs.op("prolong", _two_direction_text(rng), _expect(
            lambda r: r["fiber_dims"] == [7, 16, 30, 50])))
    return ops, warmup, probes
