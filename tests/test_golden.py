"""Golden CLI output: the exit code and stdout of every command, in both
output formats, on the problem files of ``test_cli.py``.

The files under ``tests/golden/`` pin the exact bytes.  A refactor that
claims to keep results identical must leave every file unchanged.  To
rewrite them after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from artifact.cli import COMMANDS, main
from test_cli import (CASE1, CASE2_PLANE, CONN_CURVED, CONN_FLAT, ISO,
                      TWO_DIRECTIONS)

GOLDEN = pathlib.Path(__file__).with_name("golden")

SECTION = CASE1 + "section S order 2: x -> x + y; y -> y - x; " \
    "y[1,0] -> -1 + x\n"

PROBLEMS = {"case1": CASE1, "case2_plane": CASE2_PLANE, "iso": ISO,
            "conn_flat": CONN_FLAT, "conn_curved": CONN_CURVED,
            "two_directions": TWO_DIRECTIONS, "section": SECTION}

CASES = [(p, c, f) for p in PROBLEMS for c in COMMANDS
         for f in ("json", "text")]


def _run(tmp_dir, problem, command, fmt):
    path = pathlib.Path(tmp_dir) / f"{problem}.lie"
    path.write_text(PROBLEMS[problem])
    out = io.BytesIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(wrapper), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["--input", str(path), "--command", command,
                     "--format", fmt])
        wrapper.flush()
    return code, out.getvalue()


def _golden_path(problem, command, fmt):
    return GOLDEN / problem / f"{command}.{fmt}"


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("problem,command,fmt", CASES)
def test_golden_output(tmp_path, problem, command, fmt):
    code, stdout = _run(tmp_path, problem, command, fmt)
    assert code == _exit_codes()[f"{problem}/{command}.{fmt}"]
    assert stdout == _golden_path(problem, command, fmt).read_bytes()


def regenerate(tmp_dir):
    codes = {}
    for problem, command, fmt in CASES:
        code, stdout = _run(tmp_dir, problem, command, fmt)
        codes[f"{problem}/{command}.{fmt}"] = code
        path = _golden_path(problem, command, fmt)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(tmp)
    sys.exit(0)
