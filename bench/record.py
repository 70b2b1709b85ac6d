"""Record the benchmark of git revisions in one JSON file.

    python3 bench/record.py --out BENCH_6.json HEAD~1 HEAD

Run it from the repository root.  Each revision is exported with
``git archive`` into a temporary directory and measured from there, so
every revision runs its own ``src/``, ``perfbench/`` and tests.  The
record of a revision holds:

- ``rev`` as given, its ``sha``, the ``python`` version and
  ``calibration_ms``: the median of 21 samples of the calibration kernel
  of ``perfbench/calibrate.py``, taken before the workloads run, which
  says how fast the host was (the benchmark scales op times by it);
- ``perfbench``: per seed, the result object of every workload of
  ``perfbench/run.py --workload all``, untraced (end-to-end metrics) and
  traced (per-layer metrics);
- ``cli_ms``: per problem of ``tests/test_golden.py`` and per CLI command,
  the median wall time in ms of five in-process ``artifact.cli.main``
  calls with ``--format json``.

Revisions are measured one after the other, in the order given.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile

SEEDS = (1, 3)
CALIBRATION_SAMPLES = 21
RESULT_LINE = re.compile(r"^([a-z-]+): (\{.*\})$")

CALIBRATE = """
import json, statistics, sys
sys.path.insert(0, "perfbench")
import calibrate
print(json.dumps(1000 * statistics.median(
    calibrate.sample() for _ in range({n}))))
"""

CLI_TIMES = """
import contextlib, io, json, os, statistics, tempfile, time
from artifact.cli import COMMANDS, main
from test_golden import PROBLEMS
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, text in PROBLEMS.items():
        path = os.path.join(tmp, name + ".lie")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in COMMANDS:
            times = []
            for _ in range(5):
                # main writes bytes to sys.stdout.buffer
                sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    main(["--input", path, "--command", command,
                          "--format", "json"])
                    sink.flush()
                times.append(time.perf_counter() - t0)
            out[name + "/" + command] = 1000 * statistics.median(times)
print(json.dumps(out))
"""


def _run(args, cwd, env=None):
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} failed in {cwd}:\n"
                           f"{proc.stderr}")
    return proc.stdout


def _export(sha, dest):
    data = subprocess.run(["git", "archive", "--format=tar", sha],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def _perfbench(root, seed, seconds, trace):
    out = _run([sys.executable, "perfbench/run.py", "--workload", "all",
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)], root)
    results = {}
    for line in out.splitlines():
        match = RESULT_LINE.match(line)
        if match:
            results[match.group(1)] = json.loads(match.group(2))
    return results


def record(rev, seeds, seconds):
    sha = _run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
               os.getcwd()).strip()
    with tempfile.TemporaryDirectory(prefix="bench-") as root:
        _export(sha, root)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([os.path.join(root, "src"),
                                               os.path.join(root, "tests")]))
        calibration = json.loads(_run(
            [sys.executable, "-c",
             CALIBRATE.format(n=CALIBRATION_SAMPLES)], root))
        perf = {str(seed): {"untraced": _perfbench(root, seed, seconds, 0),
                            "traced": _perfbench(root, seed, seconds, 1)}
                for seed in seeds}
        cli = json.loads(_run([sys.executable, "-c", CLI_TIMES], root, env))
    return {"rev": rev, "sha": sha, "python": sys.version.split()[0],
            "calibration_ms": calibration, "perfbench": perf, "cli_ms": cli}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("revs", nargs="+", help="git revisions to measure")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="op time per untraced workload run")
    args = parser.parse_args(argv)
    records = [record(rev, SEEDS, args.seconds) for rev in args.revs]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(SEEDS), "seconds": args.seconds,
                   "records": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
