"""Run one benchmark workload against ``artifact`` and print its metrics.

    python3 perfbench/run.py --workload groupoid-jets --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root: the package is imported from ``./src``.
One process runs one workload on one thread, as a closed loop: each op
starts after the previous one returned.  All inputs are generated from
``--seed`` before timing starts, and every op's output is checked outside
the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines starting with ``#`` carry details (per-kind latencies,
sample counts, the CLI output digest, known-defect probes).

``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import calibrate
from tracer import LAYERS, Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("groupoid-jets", "symbol-chains", "cli-problems")
MIN_OPS = 100           # p90 then has at least 10 samples beyond it
MAX_LOOP_S = 120        # hard stop for the timed loop, checks included
SETUP_REPEATS = 3
# blocks of the op mix generated per run (more than a run uses, so no
# input repeats), and blocks replayed by the traced run
BLOCKS = {"groupoid-jets": 16, "symbol-chains": 32, "cli-problems": 48}
TRACE_BLOCKS = {"groupoid-jets": 4, "symbol-chains": 6, "cli-problems": 12}
SMOKE_BLOCKS, SMOKE_OPS = 1, 5

GROUPOID_KINDS = ("jet_compose", "jet_invert", "nonlinear_spencer_D",
                  "groupoid_action", "pushforward_one_form")
CLI_COMMANDS = ("prolong", "symbol", "check-integrability", "bracket-table",
                "classify-plane", "verify-iso", "spencer-d",
                "connection-curvature")

END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def _per_layer():
    out = []
    for name in ("series.mul", "series.init", "series.add", "series.compose",
                 "series.reversion_system", "series.reciprocal",
                 "polymap.pm_compose", "polymap.pm_invert", "linalg.rref",
                 "linalg.member_of_span", "linalg.kernel_basis"):
        out.append((f"{name}.calls", "count", "lower"))
        if name not in ("linalg.member_of_span", "linalg.kernel_basis"):
            out.append((f"{name}.self_s", "s", "lower"))
    out += [("series.mul.pairs", "count", "lower"),
            ("series.mul.useful_pair_ratio", "ratio", "higher"),
            ("linalg.rref.cells", "count", "lower")]
    for name in ("polymap.poly_mul", "symbols.delta_cohomology",
                 "symbols.symbol_prolong", "symbols.two_acyclic",
                 "equations.reduce", "equations.prolong_equation",
                 "intransitive.bracket_table",
                 "connections.curvature_flatness", "jets.spencer_D",
                 "brackets.algebraic_bracket", "cli.parse_problem_file",
                 "cli.emit_report"):
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{layer}.all.self_s", "s", "lower") for layer in LAYERS]
    out += [(f"groupoid.{k}.p50_ms", "ms", "lower") for k in GROUPOID_KINDS]
    out.append(("symbols.delta_cohomology.p50_ms", "ms", "lower"))
    out += [(f"cli.{c}.p50_ms", "ms", "lower") for c in CLI_COMMANDS]
    out += [("cli.dsl_defect.failed", "count", "lower"),
            ("trace.ops.time_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


# -- measuring ----------------------------------------------------------

@dataclass(slots=True)
class Record:
    kind: str
    seconds: float             # wall time
    ok: bool
    output: object
    scaled: float = 0.0        # host-normalized time (see calibrate)


def run_op(op, op_id, tracer=None):
    """Time one op; its check runs after the clock stops.  An exception
    or a failed check is a failed op, never an abort."""
    fn = op.fn if tracer is None else tracer.resolve(op.fn)
    if tracer is not None:
        tracer.begin(op_id, op.kind)
    t0 = time.perf_counter()
    try:
        out, raised = fn(*op.args), False
    except Exception:          # counted in `failed`
        out, raised = None, True
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    try:
        ok = not raised and bool(op.check(out))
    except Exception:          # a check that cannot read the output
        ok = False
    return Record(op.kind, seconds, ok, out)


def run_loop(ops, more, tracer=None):
    """Closed loop over the schedule while ``more(records)``, with a
    calibration sample before every op and after the last one.  Outputs
    are kept for the first MIN_OPS ops only (the CLI digest), so memory
    does not grow with the number of ops a run gets through."""
    records = []
    samples = [calibrate.sample()]
    while more(records):
        i = len(records)
        rec = run_op(ops[i % len(ops)], i, tracer)
        if i >= MIN_OPS:
            rec.output = None
        records.append(rec)
        samples.append(calibrate.sample())
    for rec, scale in zip(records, calibrate.scales(samples)):
        rec.scaled = rec.seconds * scale
    return records, samples


def run_timed(ops, block, seconds, min_ops):
    """Whole blocks of the mix until ``seconds`` of op wall time and
    ``min_ops`` ops are done."""
    start = time.perf_counter()

    def more(records):
        if time.perf_counter() - start > MAX_LOOP_S:
            return False
        busy = sum(r.seconds for r in records)
        return busy < seconds or len(records) < min_ops or len(records) % block
    return run_loop(ops, more)


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    the order statistics.  The op mix has gaps between the costs of its
    shapes, where a single order statistic jumps; the weighted mean does
    not."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


def kind_p50(records):
    by_kind = {}
    for r in records:
        if r.ok:
            by_kind.setdefault(r.kind, []).append(r.scaled * 1e3)
    return {f"{kind}.p50_ms": quantile(v, 0.5)
            for kind, v in by_kind.items()}


def cli_digest(records):
    """sha256 over the exit code and stdout bytes of each CLI op."""
    h = hashlib.sha256()
    for r in records:
        code, data = r.output if r.output is not None else (None, b"")
        h.update(f"{r.kind} {code}\n".encode())
        h.update(data)
    return h.hexdigest()


def run_probes(probes):
    """Known-defect probes, untimed: (attempted, failed)."""
    recs = [run_op(p, -1) for p in probes]
    return len(recs), sum(not r.ok for r in recs)


# -- one workload ---------------------------------------------------------

def setup(name, seed, work_dir, blocks, samples):
    """Generate inputs and warm up, SETUP_REPEATS times, with a
    calibration sample after each; returns the last workload and the
    wall time of each repeat."""
    import workloads

    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, work_dir, blocks)
        for op in wl.warmup:
            run_op(op, -1)
        times.append(time.perf_counter() - t0)
        samples.append(calibrate.sample())
    return wl, times


def latency_metrics(records, attr):
    passed = [getattr(r, attr) * 1e3 for r in records if r.ok]
    total = sum(getattr(r, attr) for r in records)
    return {"ops_per_s": len(passed) / total if total else 0.0,
            "op_p50_ms": quantile(passed, 0.5),
            "op_p90_ms": quantile(passed, 0.9)}


def per_layer(plain, traced, tracer, defects):
    scale = {i: r.scaled / r.seconds for i, r in enumerate(traced)
             if r.seconds}
    totals = tracer.totals(scale)
    m = dict.fromkeys((name for name, _u, _b in PER_LAYER), 0)
    for name in m:
        stem, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and stem in totals:
            m[name] = totals[stem][0 if stat == "calls" else 1]
    counts = tracer.counts
    m["series.mul.pairs"] = counts["series.mul.pairs"]
    if counts["series.mul.pairs"]:
        m["series.mul.useful_pair_ratio"] = (
            counts["series.mul.useful_pairs"] / counts["series.mul.pairs"])
    m["linalg.rref.cells"] = counts["linalg.rref.cells"]
    for name, (_calls, self_s) in totals.items():
        m[f"{name.split('.', 1)[0]}.all.self_s"] += self_s
    for name, value in kind_p50(plain).items():
        if name in m:
            m[name] = value
    m["trace.ops.time_s"] = sum(r.scaled for r in traced)
    m["trace.overhead_ratio"] = (m["trace.ops.time_s"]
                                 / sum(r.scaled for r in plain))
    m["cli.dsl_defect.failed"] = defects
    return m


def run_workload(args):
    samples = [calibrate.sample()]
    t0 = time.perf_counter()
    sys.path.insert(1, SRC)
    import workloads

    import_s = time.perf_counter() - t0
    if not os.path.abspath(workloads.cli.__file__).startswith(SRC + os.sep):
        print(f"error: artifact was imported from {workloads.cli.__file__},"
              f" not from {SRC}", file=sys.stderr)
        return 2
    samples.append(calibrate.sample())
    blocks = SMOKE_BLOCKS if args.smoke else BLOCKS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl, gen_s = setup(args.workload, args.seed, work_dir, blocks,
                          samples)
        wall_setup_s = import_s + statistics.median(gen_s)
        setup_s = wall_setup_s * calibrate.REF_S / statistics.median(samples)
        if args.trace:
            result, detail = trace_run(args, wl)
        else:
            result, detail = plain_run(args, wl, setup_s)
            detail["wall"]["setup_s"] = wall_setup_s
            detail["wall"]["setup_parts_s"] = {"import": import_s,
                                               "generate": gen_s}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))
    print("# " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def _result(records, metrics, units):
    failed = sum(not r.ok for r in records)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def _detail(args, records, samples, probes):
    passed = sum(r.ok for r in records)
    kinds = {}
    for r in records:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    detail = {"workload": args.workload, "seed": args.seed,
              "ops": len(records), "passed": passed,
              "error_rate": (len(records) - passed) / len(records),
              "latency_samples": passed,
              "samples_beyond_p90": passed - int(0.9 * passed),
              "per_kind_ops": kinds,
              "per_kind_p50_ms": kind_p50(records),
              "wall": latency_metrics(records, "seconds"),
              "calibration_ms": statistics.median(samples) * 1e3}
    if args.workload == "cli-problems":
        head = records[:SMOKE_OPS if args.smoke else MIN_OPS]
        detail["cli_digest_ops"] = len(head)
        detail["cli_digest"] = cli_digest(head)
        detail["dsl_defect_probes"], detail["dsl_defect_failed"] = probes
    return detail


def plain_run(args, wl, setup_s):
    min_ops = SMOKE_OPS if args.smoke else MIN_OPS
    records, samples = run_timed(wl.ops, wl.block, args.seconds, min_ops)
    probes = run_probes(wl.probes)
    metrics = latency_metrics(records, "scaled")
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    units = {name: unit for name, unit, _b in END_TO_END}
    return (_result(records, metrics, units),
            _detail(args, records, samples, probes))


def trace_run(args, wl):
    """The first TRACE_BLOCKS blocks untraced, then again traced."""
    n = SMOKE_OPS if args.smoke else TRACE_BLOCKS[args.workload] * wl.block
    ops = wl.ops[:n]

    def more(records):
        return len(records) < n
    plain, samples = run_loop(ops, more)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_loop(ops, more, tracer)
    finally:
        tracer.uninstall()
    probes = run_probes(wl.probes)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir,
                             f"trace-{args.workload}-{args.seed}.json"))
    metrics = per_layer(plain, traced, tracer, probes[1])
    units = {name: unit for name, unit, _b in PER_LAYER}
    detail = _detail(args, plain, samples, probes)
    op_time = metrics["trace.ops.time_s"]
    detail["traced_self_share"] = {
        layer: metrics[f"{layer}.all.self_s"] / op_time for layer in LAYERS}
    return _result(plain + traced, metrics, units), detail


# -- every workload -------------------------------------------------------

def run_all(args):
    """Each workload in its own fresh process; prints each result line
    and a table of the metrics."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                              else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:>14.6g} {v['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="op time to measure (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and op counts, for testing the "
                             "benchmark itself")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "artifact", "cli.py")):
        print(f"error: no artifact sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
