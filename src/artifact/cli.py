"""Line-oriented problem-description language, command dispatch, and
report emission.

Grammar (one statement per line, ``#`` comments):

    manifold dim <n>
    vars <name> <name> ...
    distribution V = span(d/d<var> ...)
    truncation <T>
    equation <name> order <k> on V: <relation>; <relation>; ...
    transversal N: <var>=0 ...
    plane symbol: A = <poly>; B = <poly>
    section <name> order <k>: <var> -> <poly>; <var>[<idx>] -> <poly>; ...
    connection <name> order <k>: trivial
    connection <name> order <k>: <var>[<idx>] -> <poly>; ...

A relation is a linear combination of jet coordinates ``p[<idx>]`` (for
one fiber direction) or ``p[<var>;<idx>]`` with rational-polynomial
coefficients, written ``<lhs> = <rhs>``.  Section entries without
brackets define the base map; bracketed entries override fiber jet
coefficients (omitting all of them makes the section holonomic).
Connection entries are added on top of the trivial product connection.

Exit codes: 0 success, 1 a negative verdict, 2 bad input, 3 a non-regular
system or a rank failure on the transversal, 4 an inconclusive verdict,
5 an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .connections import PartialConnectionData, curvature_flatness
from .equations import (LinearLieEquation, NonRegularError,
                        check_formal_integrability, prolong_equation)
from .equations import equation_symbol
from .groupoid import (GroupoidSection, nonlinear_spencer_D,
                       verify_formal_isomorphism)
from .intransitive import (RankError, bracket_table, classify_plane_rank1,
                           restrict_to_transversal)
from .jets import JetSection
from .series import TruncatedSeries, index_order

DEFAULT_TRUNCATION = 8
# a written power may give a constant term of at most 2^MAX_POWER_BITS
MAX_POWER_BITS = 1 << 14


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            msg = f"{loc}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


class UsageError(ValueError):
    pass


# -- tokenizing and polynomial expressions -----------------------------

def _tokenize(line, line_no, start):
    """Tokens (kind, text, column) of line[start:]; columns are 0-based
    positions in the whole line."""
    tokens = []
    i = start
    while i < len(line):
        c = line[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(line) and line[j].isdigit():
                j += 1
            tokens.append(("num", line[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                j += 1
            tokens.append(("name", line[i:j], i))
            i = j
            continue
        if line.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
            continue
        if c in "+-*/^()[],;=:|":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line_no, i + 1)
    tokens.append(("end", "", len(line)))
    return tokens


def _statements(line, line_no, start):
    """The tokens of line[start:] split into statements at top-level ';'
    (the one in p[y;0,1] stays inside); each statement ends with an 'end'
    token and empty statements are dropped."""
    groups = []
    cur = []
    depth = 0
    for tok in _tokenize(line, line_no, start):
        depth += (tok[0] == "[") - (tok[0] == "]")
        if (tok[0] == ";" and depth == 0) or tok[0] == "end":
            if cur:
                groups.append(cur + [("end", "", tok[2])])
            cur = []
        else:
            cur.append(tok)
    return groups


class _ExprParser:
    """Rational-polynomial expressions over the declared variables; given
    an equation order, also linear jet-coordinate terms p[...] of at most
    that order."""

    def __init__(self, tokens, line_no, spec, order=None):
        self.toks = tokens
        self.pos = 0
        self.line = line_no
        self.vars = spec.var_index
        self.n = spec.dim
        self.trunc = spec.truncation
        self.fiber_vars = spec.fiber_vars
        self.order = order

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}",
                             self.line, tok[2] + 1)
        self.pos += 1
        return tok

    # values are dicts: {None: series} for plain polynomials, plus
    # (component, alpha) keys for linear jet-coordinate terms
    def _const(self, c):
        return {None: TruncatedSeries.const(c, self.n, self.trunc)}

    def _add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = out[k] + v if k in out else v
        return out

    def _neg(self, a):
        return {k: -v for k, v in a.items()}

    def _mul(self, a, b, where):
        a_jet = any(k is not None for k in a)
        b_jet = any(k is not None for k in b)
        if a_jet and b_jet:
            raise ParseError("relations must be linear in the jet "
                             "coordinates", self.line, where + 1)
        if b_jet:
            a, b = b, a
        f = b[None]
        return {k: v * f for k, v in a.items()}

    def number(self):
        """The int of the next token, which must be a number literal."""
        _kind, text, col = self.take("num")
        try:
            return int(text)
        except ValueError:
            # int() refuses literals longer than the interpreter's limit
            # on integer string conversion (4300 digits by default), and
            # digits such as '\u00b2' that str.isdigit() lets through
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and len(text) > limit:
                msg = f"number literal of {len(text)} digits is too long"
            else:
                msg = f"invalid number literal {text!r}"
            raise ParseError(msg, self.line, col + 1) from None

    def parse_expr(self):
        """The whole statement as one expression."""
        val = self.parse_sum()
        self.take("end")
        return val

    def parse_poly(self):
        """The whole statement as one polynomial (no jet coordinates)."""
        return self.parse_expr()[None]

    def parse_index(self):
        """A multi-index '<int>,...,<int>]' with one entry per variable;
        the opening '[' is already taken."""
        idx = [self.number()]
        while self.peek()[0] == ",":
            self.take()
            idx.append(self.number())
        close = self.take("]")
        if len(idx) != self.n:
            raise ParseError(f"jet index needs {self.n} entries",
                             self.line, close[2] + 1)
        return tuple(idx)

    def parse_sum(self):
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            val = self._neg(self.parse_product())
        else:
            if tok[0] == "+":
                self.take()
            val = self.parse_product()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_product()
            val = self._add(val, self._neg(rhs) if op == "-" else rhs)
        return val

    def parse_product(self):
        val = self.parse_power()
        while self.peek()[0] in ("*", "/"):
            op, _txt, col = self.take()
            rhs = self.parse_power()
            if op == "/":
                if any(k is not None for k in rhs):
                    raise ParseError("cannot divide by a jet coordinate",
                                     self.line, col + 1)
                den = rhs[None]
                if den.coefficient((0,) * self.n) == 0 or \
                        any(index_order(a) for a in den.coeffs):
                    raise ParseError("division only by rational constants",
                                     self.line, col + 1)
                inv = self._const(Fraction(1) / den.constant_term())
                val = self._mul(val, inv, col)
            else:
                val = self._mul(val, rhs, col)
        return val

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            _op, _txt, col = self.take()
            e = self.number()
            if any(k is not None for k in base):
                raise ParseError("cannot raise a jet coordinate to a power",
                                 self.line, col + 1)
            # numerator and denominator of the constant term c^e are at
            # most 2^(e * ceil(log2 max(|num|, den))); below the truncation
            # T the other coefficients add at most T * log2(e) bits
            c = base[None].constant_term()
            size = max(abs(c.numerator), c.denominator)
            if e * (size - 1).bit_length() > MAX_POWER_BITS:
                raise ParseError(f"power too large: its constant term would "
                                 f"exceed 2^{MAX_POWER_BITS}",
                                 self.line, col + 1)
            # square-and-multiply: the work grows with the digits of the
            # exponent, not with its value
            out = self._const(1)
            while e:
                if e & 1:
                    out = self._mul(out, base, col)
                e >>= 1
                if e:
                    base = self._mul(base, base, col)
            return out
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "num":
            return self._const(Fraction(self.number()))
        if tok[0] == "(":
            self.take()
            val = self.parse_sum()
            self.take(")")
            return val
        if tok[0] == "name":
            self.take()
            if tok[1] == "p" and self.peek()[0] == "[":
                return self.parse_jet_coord(tok)
            if tok[1] not in self.vars:
                raise ParseError(f"unknown variable {tok[1]!r}",
                                 self.line, tok[2] + 1)
            i = self.vars[tok[1]]
            return {None: TruncatedSeries.var(i, self.n, self.trunc)}
        raise ParseError(f"unexpected token {tok[1]!r}",
                         self.line, tok[2] + 1)

    def parse_jet_coord(self, tok):
        if self.order is None:
            raise ParseError("jet coordinates are not allowed here",
                             self.line, tok[2] + 1)
        self.take("[")
        comp = None
        nxt = self.peek()
        if nxt[0] == "name" and self.toks[self.pos + 1][0] == ";":
            self.take()
            self.take(";")
            if nxt[1] not in self.vars:
                raise ParseError(f"unknown variable {nxt[1]!r}",
                                 self.line, nxt[2] + 1)
            comp = self.vars[nxt[1]]
        alpha = self.parse_index()
        if comp is None:
            if len(self.fiber_vars) != 1:
                raise ParseError("p[...] needs an explicit component when "
                                 "the distribution has several directions",
                                 self.line, tok[2] + 1)
            comp = self.fiber_vars[0]
        elif comp not in self.fiber_vars:
            raise ParseError("jet component outside the distribution",
                             self.line, tok[2] + 1)
        if index_order(alpha) > self.order:
            raise ParseError(
                f"jet index {alpha} exceeds the declared order {self.order}",
                self.line, tok[2] + 1)
        one = TruncatedSeries.const(1, self.n, self.trunc)
        return {(comp, alpha): one}


# -- problem specification ---------------------------------------------

@dataclass
class EquationDecl:
    name: str
    order: int
    relations: list          # dicts (comp, alpha) -> TruncatedSeries
    line: int


@dataclass
class SectionDecl:
    name: str
    order: int
    base: dict               # var index -> TruncatedSeries
    jets: dict               # (var index, alpha) -> TruncatedSeries
    line: int


@dataclass
class ConnectionDecl:
    name: str
    order: int
    extras: dict             # (var index, alpha) -> TruncatedSeries
    line: int


@dataclass
class ProblemSpec:
    dim: int = 0
    var_names: list = field(default_factory=list)
    fiber_vars: list = field(default_factory=list)
    truncation: int = DEFAULT_TRUNCATION
    equations: list = field(default_factory=list)
    transversal: list = field(default_factory=list)
    plane_symbol: tuple | None = None
    sections: list = field(default_factory=list)
    connections: list = field(default_factory=list)

    @property
    def var_index(self):
        return {name: i for i, name in enumerate(self.var_names)}

    def transversal_vars(self):
        if self.transversal:
            return list(self.transversal)
        return [i for i in range(self.dim) if i not in self.fiber_vars]

    def build_equation(self, decl):
        return LinearLieEquation(self.dim, decl.order, self.fiber_vars,
                                 decl.relations, self.truncation)


def _check_truncation(t, line_no=None):
    if t < 0:
        raise ParseError(f"truncation must be a nonnegative integer, got {t}",
                         line_no)
    return t


def parse_problem_file(text, truncation=None):
    spec = ProblemSpec()
    if truncation is not None:
        spec.truncation = _check_truncation(truncation)
    seen_dim = False
    parsing_started = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        words = line.split()
        head = words[0]
        if head == "manifold":
            spec.dim = _parse_manifold(line, line_no)
            seen_dim = True
        elif head == "vars":
            spec.var_names = words[1:]
            if not spec.var_names:
                raise ParseError("vars needs at least one name", line_no)
            if len(set(spec.var_names)) != len(spec.var_names):
                raise ParseError("duplicate variable name", line_no)
        elif head == "distribution":
            spec.fiber_vars = _parse_distribution(line, line_no, spec)
        elif head == "truncation":
            if parsing_started:
                raise ParseError("truncation must come before equations",
                                 line_no)
            if truncation is None:
                try:
                    t = int(words[1])
                except (IndexError, ValueError):
                    raise ParseError("truncation needs an integer", line_no)
                spec.truncation = _check_truncation(t, line_no)
        elif head == "equation":
            parsing_started = True
            spec.equations.append(_parse_equation(line, line_no, spec))
        elif head == "transversal":
            spec.transversal = _parse_transversal(line, line_no, spec)
        elif head == "plane":
            parsing_started = True
            spec.plane_symbol = _parse_plane_symbol(line, line_no, spec)
        elif head == "section":
            parsing_started = True
            spec.sections.append(_parse_section(line, line_no, spec))
        elif head == "connection":
            parsing_started = True
            spec.connections.append(_parse_connection(line, line_no, spec))
        else:
            raise ParseError(f"unknown statement {head!r}", line_no)
    if not seen_dim:
        raise ParseError("missing 'manifold dim' statement", 1)
    if len(spec.var_names) != spec.dim:
        raise ParseError("vars count does not match the manifold dimension",
                         1)
    return spec


def _parse_manifold(line, line_no):
    parts = line.split()
    if len(parts) != 3 or parts[1] != "dim":
        raise ParseError("expected 'manifold dim <n>'", line_no)
    try:
        dim = int(parts[2])
    except ValueError:
        raise ParseError("manifold dimension must be an integer", line_no)
    if dim < 1:
        raise ParseError("manifold dimension must be positive", line_no)
    return dim


def _parse_distribution(line, line_no, spec):
    body = line.split("distribution", 1)[1].strip()
    if not body.startswith("V") or "=" not in body:
        raise ParseError("expected 'distribution V = span(...)'", line_no)
    rhs = body.split("=", 1)[1].strip()
    if not (rhs.startswith("span(") and rhs.endswith(")")):
        raise ParseError("expected 'span(d/d<var> ...)'", line_no)
    inner = rhs[len("span("):-1].split()
    out = []
    index = spec.var_index
    for item in inner:
        if not item.startswith("d/d"):
            raise ParseError(f"expected d/d<var>, found {item!r}", line_no)
        name = item[3:]
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", line_no)
        out.append(index[name])
    if not out:
        raise ParseError("distribution must span at least one direction",
                         line_no)
    return sorted(out)


def _header(line, line_no, kw, tail=()):
    """Name, order and body start of '<kw> <name> order <k> <tail>: ...'."""
    head = line.partition(":")[0]
    parts = head.split()
    if (len(parts) != 4 + len(tail) or parts[0] != kw or parts[2] != "order"
            or parts[4:] != list(tail)):
        shape = " ".join([kw, "<name> order <k>", *tail])
        raise ParseError(f"expected '{shape}: ...'", line_no)
    try:
        order = int(parts[3])
    except ValueError:
        raise ParseError(f"{kw} order must be an integer", line_no)
    return parts[1], order, len(head) + 1


def _parse_equation(line, line_no, spec):
    name, order, start = _header(line, line_no, "equation", ("on", "V"))
    if not spec.fiber_vars:
        raise ParseError("declare the distribution before equations",
                         line_no)
    if line[start:].strip() == "free":
        return EquationDecl(name=name, order=order, relations=[],
                            line=line_no)
    relations = [_parse_relation(group, line_no, spec, order)
                 for group in _statements(line, line_no, start)]
    if not relations:
        raise ParseError("equation declares no relations", line_no)
    return EquationDecl(name=name, order=order, relations=relations,
                        line=line_no)


def _parse_relation(tokens, line_no, spec, order):
    eq_positions = [i for i, t in enumerate(tokens) if t[0] == "="]
    if len(eq_positions) != 1:
        raise ParseError("a relation needs exactly one '='", line_no)
    cut = eq_positions[0]
    lhs = tokens[:cut] + [("end", "", tokens[cut][2])]
    rhs = tokens[cut + 1:]

    left = _ExprParser(lhs, line_no, spec, order).parse_expr()
    right = _ExprParser(rhs, line_no, spec, order).parse_expr()
    rel = dict(left)
    for k, v in right.items():
        rel[k] = rel[k] - v if k in rel else -v
    const = rel.pop(None, None)
    if const is not None and not const.is_zero():
        raise ParseError("relations must be homogeneous in the jet "
                         "coordinates", line_no)
    rel = {k: v for k, v in rel.items() if not v.is_zero()}
    if not rel:
        raise ParseError("relation is identically zero", line_no)
    return rel


def _parse_transversal(line, line_no, spec):
    head, _sep, body = line.partition(":")
    if head.split() != ["transversal", "N"]:
        raise ParseError("expected 'transversal N: <var>=0 ...'", line_no)
    out = []
    index = spec.var_index
    for item in body.split():
        if not item.endswith("=0"):
            raise ParseError(f"expected <var>=0, found {item!r}", line_no)
        name = item[:-2]
        if name not in index:
            raise ParseError(f"unknown variable {name!r}", line_no)
        out.append(index[name])
    fixed = sorted(out)
    return [i for i in range(spec.dim) if i not in fixed]


def _parse_plane_symbol(line, line_no, spec):
    head = line.partition(":")[0]
    if head.split() != ["plane", "symbol"]:
        raise ParseError("expected 'plane symbol: A = ...; B = ...'",
                         line_no)
    values = {}
    for group in _statements(line, line_no, len(head) + 1):
        p = _ExprParser(group, line_no, spec)
        tok = p.take()
        if tok[1] not in ("A", "B") or p.peek()[0] != "=":
            raise ParseError("expected 'A = <poly>' or 'B = <poly>'",
                             line_no, tok[2] + 1)
        p.take()
        values[tok[1]] = p.parse_poly()
    if set(values) != {"A", "B"}:
        raise ParseError("plane symbol needs both A and B", line_no)
    return (values["A"], values["B"])


def _parse_mapping_entries(line, line_no, start, spec, allow_base):
    """Entries '<var> -> <poly>' and '<var>[<idx>] -> <poly>'."""
    base = {}
    jets = {}
    for group in _statements(line, line_no, start):
        p = _ExprParser(group, line_no, spec)
        tok = p.take()
        if tok[0] != "name" or tok[1] not in p.vars:
            raise ParseError(f"expected a variable name, found {tok[1]!r}",
                             line_no, tok[2] + 1)
        comp = p.vars[tok[1]]
        alpha = None
        if p.peek()[0] == "[":
            p.take()
            alpha = p.parse_index()
        p.take("->")
        series = p.parse_poly()
        if alpha is not None:
            jets[(comp, alpha)] = series
        elif allow_base:
            base[comp] = series
        else:
            raise ParseError("base-map entries are not allowed here",
                             line_no, tok[2] + 1)
    return base, jets


def _parse_section(line, line_no, spec):
    name, order, start = _header(line, line_no, "section")
    base, jets = _parse_mapping_entries(line, line_no, start, spec, True)
    if set(base) != set(range(spec.dim)):
        raise ParseError("section needs a base-map entry per variable",
                         line_no)
    if any(s.constant_term() != 0 for s in base.values()):
        raise ParseError("base-map components must vanish at the base "
                         "point", line_no)
    return SectionDecl(name=name, order=order, base=base, jets=jets,
                       line=line_no)


def _parse_connection(line, line_no, spec):
    name, order, start = _header(line, line_no, "connection")
    extras = {}
    if line[start:].strip() != "trivial":
        _base, extras = _parse_mapping_entries(line, line_no, start, spec,
                                               False)
    return ConnectionDecl(name=name, order=order, extras=extras,
                          line=line_no)


def print_problem(spec):
    """Canonical text of a problem specification (parse round-trips)."""
    names = spec.var_names
    out = [f"manifold dim {spec.dim}", "vars " + " ".join(names)]
    if spec.fiber_vars:
        span = " ".join(f"d/d{names[i]}" for i in spec.fiber_vars)
        out.append(f"distribution V = span({span})")
    out.append(f"truncation {spec.truncation}")
    for e in spec.equations:
        if not e.relations:
            out.append(f"equation {e.name} order {e.order} on V: free")
            continue
        multi = len(spec.fiber_vars) > 1
        rels = "; ".join(_relation_str(r, names, multi) + " = 0"
                         for r in e.relations)
        out.append(f"equation {e.name} order {e.order} on V: {rels}")
    if spec.transversal:
        fixed = [i for i in range(spec.dim) if i not in spec.transversal]
        out.append("transversal N: "
                   + " ".join(f"{names[i]}=0" for i in fixed))
    if spec.plane_symbol:
        A, B = spec.plane_symbol
        out.append(f"plane symbol: A = {A.to_str(names)};"
                   f" B = {B.to_str(names)}")
    for s in spec.sections:
        out.append(f"section {s.name} order {s.order}: "
                   + _entries_str(s.base, s.jets, names))
    for c in spec.connections:
        out.append(f"connection {c.name} order {c.order}: "
                   + (_entries_str({}, c.extras, names) or "trivial"))
    return "\n".join(out) + "\n"


def _index_str(alpha):
    return ",".join(str(a) for a in alpha)


def _entries_str(base, jets, names):
    """'<var> -> <poly>' per base entry, then '<var>[<idx>] -> <poly>'."""
    entries = [f"{names[i]} -> {base[i].to_str(names)}" for i in sorted(base)]
    entries += [f"{names[i]}[{_index_str(alpha)}] -> {s.to_str(names)}"
                for (i, alpha), s in sorted(jets.items())]
    return "; ".join(entries)


def _relation_str(rel, names, multi):
    parts = []
    for (i, alpha) in sorted(rel, key=lambda c: (index_order(c[1]), c[1],
                                                 c[0])):
        idx = _index_str(alpha)
        coeff = rel[(i, alpha)].to_str(names)
        term = f"p[{names[i]};{idx}]" if multi else f"p[{idx}]"
        if coeff == "1":
            parts.append(term)
        elif coeff == "-1":
            parts.append(f"-{term}")
        else:
            parts.append(f"({coeff})*{term}")
    return " + ".join(parts).replace("+ -", "- ")


# -- reports ------------------------------------------------------------

@dataclass
class Report:
    command: str
    results: dict
    exit_code: int = 0       # 1 for a negative verdict, 4 inconclusive


def _jsonable(value, names):
    if isinstance(value, TruncatedSeries):
        return value.to_str(names)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonable(v, names) for k, v in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, names) for v in value]
    return value


def emit_report(report, fmt, names):
    if fmt == "json":
        doc = {"schema": 1, "command": report.command,
               "results": _jsonable(report.results, names)}
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    lines = [f"command: {report.command}"]
    body = _jsonable(report.results, names)
    lines.extend(_text_lines(body, indent=2))
    return ("\n".join(lines) + "\n").encode()


def _text_lines(value, indent):
    pad = " " * indent
    out = []
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                out.extend(_text_lines(v, indent + 2))
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                out.append(f"{pad}-")
                out.extend(_text_lines(v, indent + 2))
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{value}")
    return out


# -- command dispatch ----------------------------------------------------

def _first_equation(spec):
    if not spec.equations:
        raise UsageError("the problem file declares no equation")
    return spec.equations[0]


def _jet_section_values(xi, names):
    out = {}
    for (i, alpha), s in sorted(xi.comps.items()):
        out[f"{names[i]}[{_index_str(alpha)}]"] = s
    return out


def run_command(spec, cmd, depth=3):
    names = spec.var_names
    if cmd == "prolong":
        eq = spec.build_equation(_first_equation(spec))
        dims = [eq.fiber_dim]
        cur = eq
        for _ in range(max(depth, 1)):
            cur = prolong_equation(cur)
            dims.append(cur.fiber_dim)
        return Report("prolong", {"fiber_dims": dims})
    if cmd == "symbol":
        eq = spec.build_equation(_first_equation(spec))
        g = equation_symbol(eq)
        return Report("symbol", {
            "order": g.order, "dim": g.dim,
            "basis": [[Fraction(x) for x in row] for row in g.basis]})
    if cmd == "check-integrability":
        eq = spec.build_equation(_first_equation(spec))
        rep = check_formal_integrability(eq, depth=depth)
        code = {"formally_integrable": 0, "not_formally_integrable": 1,
                "inconclusive": 4}[rep.verdict]
        return Report("check-integrability", {
            "verdict": rep.verdict,
            "symbol_dims": rep.symbol_dims,
            "steps": [{"order": s.order, "fiber_dim": s.fiber_dim,
                       "symbol_dim": s.symbol_dim,
                       "surjective": s.surjective,
                       "two_acyclic": s.two_acyclic}
                      for s in rep.steps]}, code)
    if cmd == "bracket-table":
        eq = spec.build_equation(_first_equation(spec))
        gens = restrict_to_transversal(eq)
        trans = spec.transversal_vars()
        h_gens = []
        for t in trans:
            v = [TruncatedSeries.const(1 if i == t else 0, spec.dim,
                                       spec.truncation)
                 for i in range(spec.dim)]
            h_gens.append(v)
        alg = bracket_table(h_gens, gens)
        table = {}
        for (p, q), (h, v) in sorted(alg.table.items()):
            key = f"[Y{p},Y{q}]"
            table[key] = {"h": list(h), "v": list(v)}
        return Report("bracket-table", {
            "generators": [_jet_section_values(g, names) for g in gens],
            "table": table})
    if cmd == "classify-plane":
        if spec.dim != 2 or len(spec.fiber_vars) != 1:
            raise UsageError("classify-plane needs a plane with a "
                             "one-dimensional distribution")
        A, B = _plane_symbol_pair(spec)
        cls = classify_plane_rank1(A, B)
        families = {
            ("Case1", 0): "theta(y) d/dy",
            ("Case2", 1): "theta(x*e^y) d/dy",
            ("Case2", None): "theta(x) d/dy",
        }
        fam = families.get((cls.case, cls.valuation),
                           "theta(x^(v-1)/((v-1)*y*x^(v-1)-1)) d/dy")
        val = ("zero to truncation order" if cls.valuation is None
               else cls.valuation)
        return Report("classify-plane", {
            "case": cls.case, "valuation": val,
            "normal_form_beta": cls.normal_form_beta,
            "solution_family": fam, "note": "formal, to order "
            + str(spec.truncation)})
    if cmd == "verify-iso":
        if len(spec.equations) < 2 or not spec.sections:
            raise UsageError("verify-iso needs two equations and a section")
        eq = spec.build_equation(spec.equations[0])
        eq_target = spec.build_equation(spec.equations[1])
        F = _build_section(spec, spec.sections[0], eq.order + 1)
        rep = verify_formal_isomorphism(F, eq, eq_target, spec.fiber_vars)
        results = {"base_map_adapted": rep.base_map_adapted,
                   "equation_transported": rep.equation_transported,
                   "spencer_member": rep.spencer_member,
                   "passed": rep.passed}
        if rep.witness_direction is not None:
            results["witness_direction"] = names[rep.witness_direction]
        return Report("verify-iso", results, 0 if rep.passed else 1)
    if cmd == "spencer-d":
        if not spec.sections:
            raise UsageError("spencer-d needs a section block")
        decl = spec.sections[0]
        F = _build_section(spec, decl, decl.order)
        forms = nonlinear_spencer_D(F)
        results = {}
        for j, xi in enumerate(forms):
            results[f"d{names[j]}"] = _jet_section_values(xi, names)
        return Report("spencer-d", results)
    if cmd == "connection-curvature":
        if not spec.connections:
            raise UsageError("connection-curvature needs a connection block")
        conn = _build_connection(spec, spec.connections[0])
        curvature, flat, witness = curvature_flatness(conn)
        results = {"flat": flat}
        if witness is not None:
            results["witness_pair"] = [names[witness[0]], names[witness[1]]]
        comps = {}
        for (w, wp), cs in sorted(curvature.items()):
            comps[f"d{names[w]}^d{names[wp]}"] = _jet_section_values(
                cs.vertical, names)
        results["components"] = comps
        return Report("connection-curvature", results, 0 if flat else 1)
    raise UsageError(f"unknown command {cmd!r}")


def _plane_symbol_pair(spec):
    if spec.plane_symbol is not None:
        return spec.plane_symbol
    decl = _first_equation(spec)
    if decl.order != 1 or len(decl.relations) != 1:
        raise UsageError("classify-plane needs 'plane symbol' data or a "
                         "single order-1 relation")
    rel = decl.relations[0]
    comp = spec.fiber_vars[0]
    c10 = rel.get((comp, (1, 0)))
    c01 = rel.get((comp, (0, 1)))
    zero = TruncatedSeries.zero(spec.dim, spec.truncation)
    c10 = zero if c10 is None else c10
    c01 = zero if c01 is None else c01
    return (c01, -c10)


def _build_section(spec, decl, order):
    n, trunc = spec.dim, spec.truncation
    if decl.order < order:
        raise UsageError(f"section {decl.name!r} needs order >= {order}")
    base = [decl.base[i] for i in range(n)]
    sigma = GroupoidSection.holonomic(base, decl.order)
    if decl.jets:
        fibers = dict(sigma.fiber)
        for key, s in decl.jets.items():
            fibers[key] = s
        sigma = GroupoidSection(n, decl.order, trunc, base, fibers)
    return sigma.project(order)


def _build_connection(spec, decl):
    n, trunc = spec.dim, spec.truncation
    conn = PartialConnectionData.trivial(n, decl.order, spec.fiber_vars,
                                         trunc)
    if not decl.extras:
        return conn
    omega = {}
    for w in spec.fiber_vars:
        xi = conn.omega[w]
        comps = dict(xi.comps)
        for (i, alpha), s in decl.extras.items():
            comps[(i, alpha)] = s
        omega[w] = JetSection(n, decl.order + 1, trunc, comps)
    return PartialConnectionData(n, decl.order, omega)


# -- entry point ---------------------------------------------------------

COMMANDS = ["prolong", "symbol", "check-integrability", "bracket-table",
            "classify-plane", "verify-iso", "spencer-d",
            "connection-curvature"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Exact jet-calculus toolkit for intransitive linear "
                    "Lie equations.")
    parser.add_argument("--input", required=True,
                        help="problem description file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--format", default="text", choices=["json", "text"])
    parser.add_argument("--truncation", type=int, default=None)
    parser.add_argument("--depth", type=int, default=3)
    args = parser.parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_problem_file(text, truncation=args.truncation)
        report = run_command(spec, args.command, depth=args.depth)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonRegularError, RankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # totality: diagnostics, never a traceback
        name = type(exc).__name__
        # the package's own ValueError subclasses reject an input (a
        # singular section, a prolongation beyond the truncation); any
        # other exception is a defect of the program
        if (isinstance(exc, ValueError)
                and type(exc).__module__.startswith(f"{__package__}.")):
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {name}: {exc}", file=sys.stderr)
        return 5
    sys.stdout.buffer.write(emit_report(report, args.format,
                                        spec.var_names))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
