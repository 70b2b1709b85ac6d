"""Tracing of ``artifact`` from outside the package.

``Tracer.install`` wraps each layer's public functions and the
``TruncatedSeries`` methods listed in ``TARGETS``.  A function is replaced
in every ``artifact.*`` namespace that bound it, since modules import
each other's functions by name (``groupoid`` binds ``reversion_system`` at
import).  Spans are recorded only while an op is being timed; each span
adds its duration to its parent, so self time is inclusive time minus the
time of child spans.  Spans are kept in memory aggregated by
(op id, parent span, span) and written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# layer -> entries "<attribute in artifact.<layer>>[:<span function name>]"
TARGETS = {
    "series": ["TruncatedSeries.__init__:init", "TruncatedSeries.__add__:add",
               "TruncatedSeries.__mul__:mul", "TruncatedSeries.__neg__:neg",
               "TruncatedSeries.derive:derive",
               "TruncatedSeries.compose:compose",
               "TruncatedSeries.reciprocal:reciprocal", "reversion_system"],
    "polymap": ["pm_compose", "pm_invert", "poly_mul", "poly_add",
                "matrix_inverse"],
    "linalg": ["rref", "rank", "kernel_basis", "member_of_span",
               "invert_matrix", "solve", "same_span"],
    "jets": ["spencer_D", "holonomic_lift", "contract", "spencer_D_two_form",
             "vector_bracket"],
    "brackets": ["algebraic_bracket", "first_bracket", "algebroid_bracket",
                 "second_bracket", "third_bracket"],
    "symbols": ["delta_cohomology", "symbol_prolong", "two_acyclic"],
    "equations": ["LinearLieEquation.__init__:reduce", "prolong_equation",
                  "equation_symbol", "check_formal_integrability",
                  "projected_fiber_dim"],
    "groupoid": ["jet_compose", "jet_invert", "nonlinear_spencer_D",
                 "groupoid_action", "pushforward_one_form",
                 "pushforward_equation", "verify_formal_isomorphism"],
    "connections": ["curvature_flatness", "nabla_apply", "parallel_extend"],
    "intransitive": ["restrict_to_transversal", "bracket_table",
                     "classify_plane_rank1"],
    "cli": ["main", "parse_problem_file", "run_command", "emit_report"],
}
LAYERS = tuple(TARGETS)


def _degree_histogram(s):
    return Counter(sum(alpha) for alpha in s.coeffs)


def _count_mul(counts, args):
    """Term pairs a multiply visits, and those inside the truncation."""
    a, b = args[0], args[1]
    if not hasattr(b, "coeffs"):
        counts["series.mul.pairs"] += len(a.coeffs)
        counts["series.mul.useful_pairs"] += len(a.coeffs)
        return
    counts["series.mul.pairs"] += len(a.coeffs) * len(b.coeffs)
    hb = _degree_histogram(b)
    counts["series.mul.useful_pairs"] += sum(
        ca * cb for da, ca in _degree_histogram(a).items()
        for db, cb in hb.items() if da + db <= a.trunc)


def _count_rref(counts, args):
    m = args[0]
    counts["linalg.rref.cells"] += len(m) * (len(m[0]) if m else 0)


COUNTERS = {"series.mul": _count_mul, "linalg.rref": _count_rref}


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.stack = []
        # (op id, parent span, span) -> [calls, inclusive s, self s]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self._patches = []     # (owner, attribute, original)
        self._wrappers = {}    # original -> wrapped

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("artifact.") and m is not None]
        for layer, entries in TARGETS.items():
            module = importlib.import_module(f"artifact.{layer}")
            for entry in entries:
                path, _, short = entry.partition(":")
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if outer else \
                    getattr(owner, attr)
                name = f"{layer}.{short or attr}"
                wrapped = self._wrap(name, original, COUNTERS.get(name))
                self._wrappers[original] = wrapped
                targets = [owner] if outer else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, value))
                            setattr(target, key, wrapped)

    def uninstall(self):
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()
        self._wrappers.clear()

    def resolve(self, fn):
        """The traced version of ``fn`` when it is a wrapped target."""
        return self._wrappers.get(fn, fn)

    def _wrap(self, name, fn, count):
        tracer = self
        stack = self.stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                rec = edges[(tracer.op_id, parent[0], name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
        return wrapped

    # -- recording --------------------------------------------------------

    def begin(self, op_id, kind):
        self.op_id = op_id
        self.stack[:] = [[f"op:{kind}", 0.0]]
        self.active = True

    def end(self):
        self.active = False

    # -- results ----------------------------------------------------------

    def totals(self, scale):
        """span name -> [calls, self seconds] over all ops, each op's
        times multiplied by ``scale[op id]``."""
        out = defaultdict(lambda: [0, 0.0])
        for (op, _parent, name), (calls, _incl, self_s) in \
                self.edges.items():
            out[name][0] += calls
            out[name][1] += self_s * scale.get(op, 1.0)
        return out

    def dump(self, path):
        spans = [{"op": op, "parent": parent, "span": name, "calls": c,
                  "incl_s": incl, "self_s": self_s}
                 for (op, parent, name), (c, incl, self_s)
                 in self.edges.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)
