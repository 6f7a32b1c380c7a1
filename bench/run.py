"""hierkit benchmark: seeded `hier` workloads, verdict-checked, timed.

Run from the root of a checkout:

    python3 bench/run.py --workload games --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --summary --seed 1 --seconds 30

Each op is one in-process call of `hierkit.cli.main(argv)`, the entry
point of the `hier` script, in a closed loop: one client, the next op
starts when the previous one returns.  A pass runs the workload's op
list once; passes repeat the same list until `--seconds` have gone by,
and a pass that has started is finished.  Only the time inside `main`
counts; the oracle checks each report between ops.

Host speed on a shared machine drifts by tens of percent over seconds,
so every op is followed by a fixed reference computation (`reference`,
written for the benchmark, never calling hierkit).  Each op's wall time
is scaled by REF_NOMINAL_NS over the median reference time of the nine
nearest ops: the timed metrics are milliseconds at the reference speed,
which is about the speed of an uncontended core of the machine the
baseline was recorded on.  Raw wall times are printed beside them.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics.  With `--trace 1` the run makes one untraced pass
and one traced pass, prints the per-layer metrics, and writes the spans
to bench/out/.  `--summary` runs the three workloads one after another,
each in its own process, and prints one table.

Failures are counted by class: exception:<type>, exit:<code>,
oracle:<check> or time-limit.  Every op of a workload is expected to
pass, so a failed op makes the run report correct: false.  The two
defects the program is known to have are kept in view by a probe: a
fixed list of plays (workloads.DEFECT_PROBES) run once per run after
the measured passes, untimed and not counted in attempted or failed.
Its failure classes are printed; a class not in KNOWN_FAILURES makes
the run report correct: false, and a probe op that passes is printed as
no longer reproducing its defect.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

import oracle  # noqa: E402  (bench/ is the script's directory)
import spans  # noqa: E402
import workloads  # noqa: E402

OP_TIME_LIMIT_S = 30.0  # the slowest op takes about 10 s
RUN_DEADLINE_S = 150.0  # no op starts later than this into the run
MEMORY_LIMIT_BYTES = 3 << 30
SETUP_SAMPLES = 11
REF_NOMINAL_NS = 4_000_000
REF_WINDOW = 4  # ops on each side whose reference times are pooled

KNOWN_FAILURES = {
    ("cylinder-play", "exception:ValueError"):
        "json.dumps refuses cylinder indices over 4300 digits (ROADMAP items 3, 5)",
    ("pinf-play", "oracle:pinf-witness-finite"):
        "certified P_inf witness is a finite set (ROADMAP item 2)",
}


class Result(NamedTuple):
    group: str
    ns: int  # wall time inside main
    ref_ns: int  # wall time of the reference computation after the op
    fail: str | None
    size: int  # report bytes
    budget: bool  # an accepted exit-2 budget verdict


class OpTimeLimit(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeLimit()


def reference():
    """Fixed pure-Python work with the same mix as hierkit's ops: small
    ints, tuples, frozensets, dicts, sorting and JSON."""
    table = {}
    for i in range(3000):
        k = (i * 7919) % 10007
        table[k] = frozenset((k, i & 255, i >> 3))
    rows = sorted(table.items())
    return len(json.dumps([[k, sorted(v)] for k, v in rows[:600]]))


def timed_reference():
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def load_cli():
    if not (SRC / "hierkit" / "cli.py").is_file():
        sys.stderr.write("bench: no hierkit sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from hierkit import cli

    return cli


def measure_setup(samples):
    """Seconds from starting a fresh interpreter until hierkit.cli is
    imported, read on the clock both processes share.  Each sample is
    scaled by the reference time the fresh interpreter measures right
    after, on whatever core it ran.  Returns (scaled, raw); the first
    start, which may compile bytecode, is not counted."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, %r)\n"
        "import hierkit.cli\n"
        "ready = time.perf_counter_ns()\n"
        "sys.path.insert(0, %r)\n"
        "from run import timed_reference\n"
        "print(ready, sorted(timed_reference() for _ in range(3))[1])\n"
    ) % (str(SRC), str(BENCH))
    scaled, raw = [], []
    for i in range(samples + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True)
        ready, ref = map(int, proc.stdout.split())
        if i:
            raw.append((ready - t0) / 1e9)
            scaled.append((ready - t0) * REF_NOMINAL_NS / ref / 1e9)
    return scaled, raw


def run_op(cli, op, deadline, tracer=None, op_id=0):
    """One closed-loop op: (wall ns, failure class or None, stdout)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return 0, "time-limit", ""
    out = io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    fail = None
    signal.setitimer(signal.ITIMER_REAL, min(OP_TIME_LIMIT_S, remaining))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter_ns()
            try:
                rc = cli.main(list(op.argv))
            finally:
                ns = time.perf_counter_ns() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeLimit:
        fail = "time-limit"
    except (Exception, SystemExit) as e:
        fail = "exception:" + type(e).__name__
    text = out.getvalue()
    if fail is None:
        fail = oracle.check(op, rc, text)
    return ns, fail, text


def run_pass(cli, ops, deadline, digests, tracer=None):
    """Run every op once.  A report that differs from the same op's
    report in an earlier pass fails as oracle:report-changed."""
    results = []
    for i, op in enumerate(ops):
        ns, fail, text = run_op(cli, op, deadline, tracer, i)
        digest = hashlib.sha256(text.encode()).digest()
        if fail is None and digests.setdefault(i, digest) != digest:
            fail = "oracle:report-changed"
        budget = fail is None and text.startswith('{\n  "error"')
        results.append(Result(op.group, ns, timed_reference(), fail, len(text), budget))
    return results


def scaled_ms(results):
    """Each op's wall time in ms at the reference speed."""
    refs = [r.ref_ns for r in results]
    return [
        r.ns * REF_NOMINAL_NS / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        / 1e6
        for i, r in enumerate(results)
    ]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def failure_classes(results):
    classes = {}
    for r in results:
        if r.fail is not None:
            classes[(r.group, r.fail)] = classes.get((r.group, r.fail), 0) + 1
    return classes


def _result_line(results, metrics):
    failed = sum(failure_classes(results).values())
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }


def _print_failures(results):
    classes = failure_classes(results)
    failed = sum(classes.values())
    print("  %-12s %10.4f %-6s (%d of %d ops)" % (
        "failed_frac", failed / len(results), "ratio", failed, len(results)))
    for (group, fail), n in sorted(classes.items()):
        print("    %-40s %5d" % ("%s %s" % (group, fail), n))
    budget = sum(1 for r in results if r.budget)
    if budget:
        print("  %d ops ended in an accepted budget verdict (exit 2)" % budget)


def probe_defects(cli, workload):
    """Run the workload's defect probe once; False if it shows a failure
    class that is not a known defect."""
    ops = workloads.DEFECT_PROBES.get(workload)
    if ops is None:
        return True
    far = time.monotonic() + OP_TIME_LIMIT_S
    results = run_pass(cli, ops(), far, {})
    classes = failure_classes(results)
    print("defect probe: %d fixed ops, outside the measurement" % len(results))
    for (group, fail), n in sorted(classes.items()):
        note = KNOWN_FAILURES.get((group, fail), "NOT A KNOWN DEFECT")
        print("    %-40s %5d  %s" % ("%s %s" % (group, fail), n, note))
    passed = sum(1 for r in results if r.fail is None)
    if passed:
        print("    %d probe ops passed: a known defect no longer reproduces" % passed)
    return all(key in KNOWN_FAILURES for key in classes)


UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB"}


def _timing(ms, ok):
    """Throughput of accepted ops and latency percentiles over all ops."""
    return {"ops_per_s": ok / (sum(ms) / 1e3), "op_p50_ms": percentile(ms, 50),
            "op_p90_ms": percentile(ms, 90)}


def timed_run(cli, ops, args):
    setup, setup_raw = measure_setup(SETUP_SAMPLES)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    results, digests, passes = [], {}, 0
    while passes == 0 or time.monotonic() - start < args.seconds:
        results += run_pass(cli, ops, deadline, digests)
        passes += 1
    ms = scaled_ms(results)
    ok = sum(1 for r in results if r.fail is None)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": statistics.median(setup), **_timing(ms, ok), "peak_rss_mb": rss}
    raw = {"setup_s": statistics.median(setup_raw),
           **_timing([r.ns / 1e6 for r in results], ok), "peak_rss_mb": rss}
    p90 = metrics["op_p90_ms"]
    notes = {
        "setup_s": "median of %d interpreter starts" % len(setup),
        "ops_per_s": "%d accepted ops / %.3f s" % (ok, sum(ms) / 1e3),
        "op_p50_ms": "n=%d" % len(ms),
        "op_p90_ms": "n=%d, %d above" % (len(ms), sum(1 for v in ms if v > p90)),
        "peak_rss_mb": "n=1",
    }
    print("workload %s, seed %d: %d passes of %d ops; host speed %.2f of reference" % (
        args.workload, args.seed, passes, len(ops),
        REF_NOMINAL_NS / statistics.median(r.ref_ns for r in results)))
    print("  %-12s %10s %-6s %10s" % ("metric", "scaled", "unit", "raw"))
    for name in metrics:
        print("  %-12s %10.4f %-6s %10.4f  (%s)" % (
            name, metrics[name], UNITS[name], raw[name], notes[name]))
    _print_failures(results)
    return _result_line(
        results, {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()}
    )


def traced_run(cli, ops, args):
    far = time.monotonic() + RUN_DEADLINE_S
    plain = run_pass(cli, ops, far, {})
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, ops, far, {}, tracer)
    finally:
        tracer.uninstall()
    overhead_s = (sum(scaled_ms(traced)) - sum(scaled_ms(plain))) / 1e3
    metrics = tracer.per_layer_metrics(sum(r.size for r in traced), overhead_s)
    problems = tracer.check_spans()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.spans.gz" % (args.workload, args.seed))
    tracer.write(path, [list(op.argv) for op in ops])
    print("workload %s, seed %d: traced pass of %d ops, %d spans written to %s" % (
        args.workload, args.seed, len(ops), len(tracer.start),
        path.relative_to(BENCH.parent)))
    for name, m in metrics.items():
        print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    _print_failures(traced)
    for p in problems[:10]:
        print("  span check: " + p)
    line = _result_line(traced, metrics)
    line["correct"] = line["correct"] and not problems
    return line


def summary(args):
    """Each workload in its own process, one after another."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]))
        rows.append((name, json.loads(lines[-1])))
    names = list(rows[0][1]["metrics"])
    print()
    print("%-10s" % "workload" + "".join("%14s" % n for n in names)
          + "%14s%9s" % ("failed_frac", "correct"))
    for name, res in rows:
        print("%-10s" % name
              + "".join("%14.4f" % res["metrics"][n]["value"] for n in names)
              + "%14.4f%9s" % (res["failed"] / res["attempted"], res["correct"]))
    print("units: " + ", ".join("%s %s" % (n, rows[0][1]["metrics"][n]["unit"]) for n in names)
          + ", failed_frac ratio")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true",
                   help="run every workload, each in its own process, and tabulate")
    args = p.parse_args(argv)
    if args.summary:
        return summary(args)
    if args.workload is None:
        p.error("--workload or --summary is required")
    cli = load_cli()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    signal.signal(signal.SIGALRM, _alarm)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    line = traced_run(cli, ops, args) if args.trace else timed_run(cli, ops, args)
    line["correct"] = probe_defects(cli, args.workload) and line["correct"]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
