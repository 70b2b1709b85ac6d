"""Command-line frontend: DSL parsing, dispatch, report emission, exit
codes."""

import json
import time
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from artifact import cli
from artifact.cli import ParseError, main, parse_problem_file, print_problem
from artifact.series import TruncatedSeries, multi_index_enum

CASE1 = """\
manifold dim 2
vars x y
distribution V = span(d/dy)
truncation 8
equation R order 1 on V: p[1,0] = 0
transversal N: y=0
"""

CASE2_PLANE = """\
manifold dim 2
vars x y
distribution V = span(d/dy)
truncation 8
plane symbol: A = 1; B = x
transversal N: y=0
"""

ISO = """\
manifold dim 2
vars x y
distribution V = span(d/dy)
truncation 8
equation R order 1 on V: p[0,1] = (2*x + x^2)*p[1,0]
equation S order 1 on V: p[0,1] = (2*x + 3*x^2 - 4*x^3 + 9*x^4 - 24*x^5 \
+ 70*x^6 - 216*x^7 + 693*x^8)*p[1,0]
transversal N: y=0
section F order 2: x -> x + x^2; y -> y
"""

CONN_FLAT = """\
manifold dim 3
vars x y z
distribution V = span(d/dy d/dz)
truncation 6
connection C order 1: trivial
"""

CONN_CURVED = """\
manifold dim 3
vars x y z
distribution V = span(d/dy d/dz)
truncation 6
connection C order 1: z[0,0,2] -> y
"""


def run(tmp_path, text, *args):
    f = tmp_path / "problem.lie"
    f.write_text(text)
    return main(["--input", str(f), *args])


def run_json(tmp_path, capsys, text, *args):
    code = run(tmp_path, text, "--format", "json", *args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_integrability(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CASE1,
                         "--command", "check-integrability")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["results"]["verdict"] == "formally_integrable"


def test_json_deterministic(tmp_path, capsys):
    run(tmp_path, CASE1, "--command", "check-integrability",
        "--format", "json")
    first = capsys.readouterr().out
    run(tmp_path, CASE1, "--command", "check-integrability",
        "--format", "json")
    second = capsys.readouterr().out
    assert first == second


def test_prolong_depth(tmp_path, capsys):
    text = CASE1.replace("p[1,0] = 0", "free")
    code, doc = run_json(tmp_path, capsys, text,
                         "--command", "prolong", "--depth", "1")
    assert code == 0
    assert doc["results"]["fiber_dims"] == [3, 6]


def test_symbol_command(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CASE1, "--command", "symbol")
    assert code == 0
    assert doc["results"]["dim"] == 1


def test_classify_plane(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CASE2_PLANE,
                         "--command", "classify-plane")
    assert code == 0
    res = doc["results"]
    assert res["case"] == "Case2"
    assert res["valuation"] == 1
    assert "x*e^y" in res["solution_family"] or "xe^y" in res[
        "solution_family"] or "x" in res["solution_family"]


def test_bracket_table(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CASE1,
                         "--command", "bracket-table")
    assert code == 0
    table = doc["results"]["table"]
    assert table["[Y0,Y1]"]["v"] == ["1", "0"]
    assert table["[Y-1,Y1]"]["v"] == ["0", "0"]


def test_verify_iso_passes(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, ISO, "--command", "verify-iso")
    assert code == 0
    assert doc["results"]["passed"] is True


def test_verify_iso_fails_with_exit_one(tmp_path, capsys):
    bad = ISO.replace("693", "694")
    code, doc = run_json(tmp_path, capsys, bad, "--command", "verify-iso")
    assert code == 1
    assert doc["results"]["passed"] is False


def test_connection_curvature(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CONN_FLAT,
                         "--command", "connection-curvature")
    assert code == 0
    assert doc["results"]["flat"] is True
    code, doc = run_json(tmp_path, capsys, CONN_CURVED,
                         "--command", "connection-curvature")
    assert code == 1
    assert doc["results"]["flat"] is False
    assert doc["results"]["witness_pair"] == ["y", "z"]


def test_spencer_d_on_holonomic_section(tmp_path, capsys):
    text = CASE1 + "section S order 2: x -> x + y; y -> y - x\n"
    code, doc = run_json(tmp_path, capsys, text, "--command", "spencer-d")
    assert code == 0
    # holonomic sections have vanishing Spencer derivative
    assert all(not comps for comps in doc["results"].values())


def test_parse_error_exit_two(tmp_path):
    assert run(tmp_path, "manifold dim nonsense\n",
               "--command", "symbol") == 2


def test_order_violation_exit_two(tmp_path):
    text = CASE1.replace("p[1,0]", "p[2,0]")
    assert run(tmp_path, text, "--command", "symbol") == 2


def test_unknown_variable_exit_two(tmp_path):
    text = CASE1.replace("= 0", "= z*p[0,1]")
    assert run(tmp_path, text, "--command", "symbol") == 2


def test_non_regular_exit_three(tmp_path):
    text = CASE1.replace("p[1,0] = 0", "x*p[1,0] = 0")
    assert run(tmp_path, text, "--command", "symbol") == 3


def test_missing_file_exit_two(tmp_path):
    assert main(["--input", str(tmp_path / "absent.lie"),
                 "--command", "symbol"]) == 2


def test_truncation_flag(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CASE1,
                         "--command", "check-integrability",
                         "--truncation", "6")
    assert code == 0
    assert doc["results"]["verdict"] == "formally_integrable"


@pytest.mark.parametrize("args, text", [
    (["--truncation", "-1"], CASE1),
    ([], CASE1.replace("truncation 8", "truncation -1")),
], ids=["flag", "file"])
def test_negative_truncation_exit_two(tmp_path, capsys, args, text):
    assert run(tmp_path, text, "--command", "symbol", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.endswith("truncation must be a nonnegative integer, got -1\n")


def _relations(relation):
    return parse_problem_file(
        CASE1.replace("p[1,0] = 0", relation)).equations[0].relations


@pytest.mark.parametrize("e", [0, 1, 2, 5, 6, 13])
def test_power_matches_repeated_product(e):
    product = "*".join(["(1 + x - 2*y)"] * e) or "1"
    assert _relations(f"p[0,1] = (1 + x - 2*y)^{e}*p[1,0]") == \
        _relations(f"p[0,1] = {product}*p[1,0]")


def test_huge_exponent_parses_to_zero_coefficient():
    assert _relations("p[0,1] = x^999999999*p[1,0]") == \
        _relations("p[0,1] = 0")


@pytest.mark.parametrize("power", ["2^999999999", "2^16385", "(1/2)^16385",
                                   "(3 + y)^8193"])
def test_huge_constant_power_exits_two(tmp_path, capsys, power):
    text = CASE1.replace("p[1,0] = 0", f"p[0,1] = {power}*p[1,0]")
    start = time.perf_counter()
    assert run(tmp_path, text, "--command", "symbol") == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    col = text.splitlines()[4].index("^") + 1
    assert err == (f"error: line 5, col {col}: power too large: its "
                   f"constant term would exceed 2^{cli.MAX_POWER_BITS}\n")


LONG = "7" * 5001
TOO_LONG = "number literal of 5001 digits is too long"


@pytest.mark.parametrize("relation, literal, message", [
    (f"p[1,0] = {LONG}*p[0,1]", LONG, TOO_LONG),
    (f"p[0,1] = x^{LONG}*p[1,0]", LONG, TOO_LONG),
    (f"p[{LONG},0] = 0", LONG, TOO_LONG),
    # str.isdigit() holds for these characters but int() refuses them
    ("p[1,0] = \u00b2*p[0,1]", "\u00b2", "invalid number literal '\u00b2'"),
    ("p[0,1] = x^\u2460*p[1,0]", "\u2460",
     "invalid number literal '\u2460'")],
    ids=["coefficient", "exponent", "jet-index", "superscript-two",
         "circled-one"])
def test_bad_number_literal_exits_two(tmp_path, capsys, relation, literal,
                                      message):
    # 5001 digits is past the interpreter's default limit of 4300 on
    # int() of a decimal string
    text = CASE1.replace("p[1,0] = 0", relation)
    assert run(tmp_path, text, "--command", "symbol") == 2
    col = text.splitlines()[4].index(literal) + 1
    assert capsys.readouterr().err == (f"error: line 5, col {col}: "
                                       f"{message}\n")


def test_large_powers_parse_exactly():
    assert _relations("p[0,1] = 2^64*p[1,0]") == \
        _relations(f"p[0,1] = {2 ** 64}*p[1,0]")
    assert _relations("p[0,1] = 2^16384*p[1,0]") == \
        _relations("p[0,1] = 2^8192*2^8192*p[1,0]")
    e = 999999999
    binomial = " + ".join(f"{comb(e, j)}*x^{j}" for j in range(9))
    assert _relations(f"p[0,1] = (1 + x)^{e}*p[1,0]") == \
        _relations(f"p[0,1] = ({binomial})*p[1,0]")


def test_round_trip_normalization():
    spec = parse_problem_file(CASE1)
    printed = print_problem(spec)
    again = parse_problem_file(printed)
    assert print_problem(again) == printed


TWO_DIRECTIONS = """\
manifold dim 3
vars x y z
distribution V = span(d/dy d/dz)
truncation 8
equation R order 1 on V: p[y;0,0,1] = 2*x*p[z;0,1,0]
"""


def test_prolong_two_direction_equation(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, TWO_DIRECTIONS,
                         "--command", "prolong")
    assert code == 0
    # two unknowns, one first-order relation: 2*C(k+3,3) - C(k+2,3)
    assert doc["results"]["fiber_dims"] == [7, 16, 30, 50]


NAMES3 = ["x", "y", "z"]


@st.composite
def multi_direction_specs(draw):
    """Problem text with equations on a distribution of two or three
    directions, written with explicit p[<var>;<idx>] components, and the
    relations it declares."""
    fiber = draw(st.sampled_from([(1, 2), (0, 2), (0, 1, 2)]))
    span = " ".join(f"d/d{NAMES3[i]}" for i in fiber)
    lines = ["manifold dim 3", "vars x y z",
             f"distribution V = span({span})", "truncation 6"]
    expected = []
    for e in range(draw(st.integers(1, 2))):
        order = draw(st.integers(1, 2))
        coords = st.tuples(st.sampled_from(fiber),
                           st.sampled_from(multi_index_enum(3, order)))
        coeffs = st.tuples(st.integers(-3, 3).filter(bool),
                           st.sampled_from(multi_index_enum(3, 1)))
        rels = draw(st.lists(st.dictionaries(coords, coeffs, min_size=1,
                                             max_size=3),
                             min_size=1, max_size=2))
        texts = []
        for rel in rels:
            terms = []
            for (i, alpha), (c, mono) in rel.items():
                factor = "".join(f"*{NAMES3[m]}" for m, a in enumerate(mono)
                                 if a)
                idx = ",".join(map(str, alpha))
                terms.append(f"({c}){factor}*p[{NAMES3[i]};{idx}]")
            texts.append(" + ".join(terms) + " = 0")
            expected.append({
                key: TruncatedSeries(3, 6, {mono: c})
                for key, (c, mono) in rel.items()})
        lines.append(f"equation E{e} order {order} on V: "
                     + "; ".join(texts))
    return "\n".join(lines) + "\n", expected


@settings(max_examples=40, deadline=None)
@given(multi_direction_specs())
def test_multi_direction_round_trip(case):
    text, expected = case
    spec = parse_problem_file(text)
    assert [r for e in spec.equations for r in e.relations] == expected
    printed = print_problem(spec)
    again = parse_problem_file(printed)
    assert [e.relations for e in again.equations] == \
        [e.relations for e in spec.equations]
    assert print_problem(again) == printed


@pytest.mark.parametrize("entry,bad", [("x[1,] -> 1", "]"),
                                       ("x[a,b] -> 1", "a"),
                                       ("x[] -> 1", "]")])
def test_bad_section_index_is_parse_error(tmp_path, capsys, entry, bad):
    text = CASE1 + f"section S order 2: x -> x; y -> y; {entry}\n"
    with pytest.raises(ParseError) as info:
        parse_problem_file(text)
    assert info.value.line == 7
    line = text.splitlines()[6]
    assert info.value.col == line.index(entry) + entry.index(bad) + 1
    assert run(tmp_path, text, "--command", "spencer-d") == 2
    assert capsys.readouterr().err.startswith("error: line 7, col ")


def test_internal_error_exit_five(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "run_command", broken)
    assert run(tmp_path, CASE1, "--command", "symbol") == 5
    assert capsys.readouterr().err == \
        "internal error: TypeError: unsupported operand\n"


def test_kernel_rejection_exit_two(tmp_path, capsys):
    # a singular section is input the kernel rejects, not a defect
    text = CASE1 + "section S order 2: x -> x + y; y -> x + y\n"
    assert run(tmp_path, text, "--command", "spencer-d") == 2
    assert capsys.readouterr().err.startswith("error: NotInvertibleError")


def test_inconclusive_exit_four(tmp_path, capsys):
    code, doc = run_json(tmp_path, capsys, CASE1,
                         "--command", "check-integrability",
                         "--truncation", "1")
    assert code == 4
    assert doc["results"]["verdict"] == "inconclusive"


def _poly_text(terms):
    if not terms:
        return "0"
    return " + ".join(
        f"({c})" + "".join(f"*{NAMES3[m]}^{a}" for m, a in enumerate(mono)
                           if a)
        for mono, c in terms.items())


POLYS = st.dictionaries(st.sampled_from(multi_index_enum(3, 2)),
                        st.integers(-3, 3).filter(bool), max_size=3)


@st.composite
def section_and_connection_specs(draw):
    """Problem text with one section and one connection written as
    explicit '<var> -> <poly>' and '<var>[<idx>] -> <poly>' entries, and
    the base map, jets and extras it declares."""
    lines = ["manifold dim 3", "vars x y z",
             "distribution V = span(d/dy d/dz)", "truncation 6"]

    def series(terms):
        return TruncatedSeries(3, 6, terms)

    order = draw(st.integers(1, 2))
    base = {i: draw(POLYS.map(lambda d: {m: c for m, c in d.items()
                                         if any(m)}))
            for i in range(3)}
    jets = draw(st.dictionaries(
        st.tuples(st.integers(0, 2),
                  st.sampled_from(multi_index_enum(3, order))),
        POLYS, max_size=3))
    entries = [f"{NAMES3[i]} -> {_poly_text(t)}" for i, t in base.items()]
    entries += [f"{NAMES3[i]}[{','.join(map(str, a))}] -> {_poly_text(t)}"
                for (i, a), t in jets.items()]
    lines.append(f"section S order {order}: "
                 + "; ".join(draw(st.permutations(entries))))
    extras = draw(st.dictionaries(
        st.tuples(st.sampled_from([1, 2]),
                  st.sampled_from(multi_index_enum(3, order + 1))),
        POLYS, max_size=3))
    body = "; ".join(f"{NAMES3[i]}[{','.join(map(str, a))}] -> "
                     f"{_poly_text(t)}" for (i, a), t in extras.items())
    lines.append(f"connection C order {order}: {body or 'trivial'}")
    return ("\n".join(lines) + "\n",
            {i: series(t) for i, t in base.items()},
            {k: series(t) for k, t in jets.items()},
            {k: series(t) for k, t in extras.items()})


@settings(max_examples=40, deadline=None)
@given(section_and_connection_specs())
def test_section_and_connection_round_trip(case):
    text, base, jets, extras = case
    spec = parse_problem_file(text)
    (section,), (connection,) = spec.sections, spec.connections
    assert (section.base, section.jets, connection.extras) == \
        (base, jets, extras)
    printed = print_problem(spec)
    again = parse_problem_file(printed)
    assert again.sections == [replace(section, line=5)]
    assert again.connections == [replace(connection, line=6)]
    assert print_problem(again) == printed
