"""Exact-solve benchmark for emdut: one workload, one process, one client.

    python3 perfbench/run.py --workload sweep_asym --seed 1 --seconds 25 --trace 0

Set-up generates the seeded instance pool, writes its files and runs one
untimed warm-up operation; it is repeated and its median, plus the import
time, is reported as ``setup_s``.  The timed part is a closed loop with
one client: each operation is an in-process ``emdut.cli.main([...])`` call
(or two), so file reading, parsing, solving and JSON output are timed
together.  Every answer is checked exactly outside the timed region.

Shared hosts change speed in phases of several seconds, which moves the
median of a whole run by tens of percent.  So a fixed stdlib-only
reference loop is timed right before every operation and every set-up,
and each duration is divided by that reference time.  Times are reported
as these ratios times REF_SECONDS: seconds on a host where the reference
loop takes REF_SECONDS.  The raw wall-clock median and the reference
times are kept in the ``detail`` line.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` the first half of the run is untraced and the second
half traced, and the last line reports per-layer metrics plus the tracing
overhead; spans go to ``perfbench/_work/traces/`` as JSONL.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# The reference loop's time in the fast phase of the 2-vCPU baseline host,
# so reported times are close to that host's undisturbed wall time.
REF_SECONDS = 0.0055


class OpFailed(Exception):
    pass


class RefClock:
    """Measures durations in units of a fixed reference loop.

    The loop uses only the standard library (Fraction arithmetic, tuple
    comparisons, heapq), the same kind of work the solvers do, and none of
    the program's code, so a change to the program cannot move it.
    """

    def __init__(self):
        self.refs = []

    @staticmethod
    def _reference() -> None:
        heap, acc = [], Fraction(0)
        for i in range(600):
            acc += Fraction(i % 7 + 1, i % 5 + 2)
            heapq.heappush(heap, (acc, i))
        while heap:
            heapq.heappop(heap)

    def probe(self) -> float:
        t0 = time.perf_counter()
        self._reference()
        ref = time.perf_counter() - t0
        self.refs.append(ref)
        return ref


def run_op(main, op) -> list:
    """Run one operation's CLI calls in order; return what each printed."""
    outs = []
    for argv in op.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise OpFailed(f"exit code {code} from {argv[:2]}")
        outs.append(buf.getvalue())
    return outs


def attempt(main, op):
    """Time one operation; returns (seconds, failure message or None)."""
    t0 = time.perf_counter()
    try:
        outs = run_op(main, op)
    except Exception as exc:  # any crash of the program counts as a failure
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        op.check([json.loads(text) for text in outs])
    except Exception as exc:  # a wrong or malformed answer is a failure too
        return elapsed, f"{type(exc).__name__}: {exc}"
    return elapsed, None


def closed_loop(main, ops, seconds: float, clock: RefClock, on_op=None):
    """Run operations back to back for ``seconds``; one client, no think time.

    Returns per operation: wall seconds, the ratio to the mean of the
    reference times just before and just after it, and failures.
    """
    walls, refs, failures = [], [clock.probe()], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        if on_op is not None:
            on_op(i)
        elapsed, error = attempt(main, ops[i % len(ops)])
        refs.append(clock.probe())
        walls.append(elapsed)
        if error is not None:
            failures.append(error)
        i += 1
    ratios = [2 * w / (a + b) for w, a, b in zip(walls, refs, refs[1:])]
    return walls, ratios, failures


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum when there are too few samples for that."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup(args, main, build, clock: RefClock):
    """Generate, write and run one warm-up operation, SETUP_REPEATS times.

    Returns (pool, median reference ratio, warm-up failures).
    """
    ratios, failures, pool = [], [], None
    ref = clock.probe()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = build(args.workload, args.seed, args.workdir, args.size)
        # a different warm-up instance each time, so one slow instance
        # does not decide the median
        _, error = attempt(main, pool.ops[k % len(pool.ops)])
        elapsed = time.perf_counter() - t0
        ref_after = clock.probe()
        ratios.append(2 * elapsed / (ref + ref_after))
        ref = ref_after
        if error is not None:
            failures.append(f"warm-up: {error}")
    return pool, statistics.median(ratios), failures


def end_to_end(ratios: list, setup_ratio: float) -> dict:
    times = [r * REF_SECONDS for r in ratios]
    return {
        "setup_s": (setup_ratio * REF_SECONDS, "s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (tail(times)[0], "s"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(args, pool, clock: RefClock, detail: dict):
    import tracing
    from emdut.envelope import node_allocations

    half = args.seconds / 2
    walls, plain, failures = closed_loop(sys.modules["emdut.cli"].main, pool.ops,
                                         half, clock)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    allocs0 = node_allocations()
    try:
        # look main up again: it is wrapped now
        more_walls, traced, more = closed_loop(
            sys.modules["emdut.cli"].main, pool.ops, half, clock,
            on_op=lambda i: setattr(tracer, "op_id", i))
    finally:
        tracing.uninstall(tracer)
    allocs = node_allocations() - allocs0

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    spans_path = os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.jsonl")
    tracer.write_jsonl(spans_path)
    # layer times in the same reference-scaled seconds as the end-to-end ones
    scale = REF_SECONDS * sum(traced) / sum(more_walls)
    metrics = {name: (value * scale if unit == "s" else value, unit)
               for name, (value, unit) in
               tracing.layer_metrics(tracer, len(traced), allocs).items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "frac")
    detail.update({"untraced_samples": len(plain), "traced_samples": len(traced),
                   "spans": os.path.relpath(spans_path, ROOT)})
    return metrics, walls + more_walls, failures + more


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny instances, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "emdut")):
        print(f"error: no emdut sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import emdut.cli
    import workloads
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    clock = RefClock()
    import_ratio = import_s / clock.probe()
    args.workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        pool, setup_ratio, failures = setup(args, emdut.cli.main, workloads.build, clock)
        detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "instance_digest": pool.digest, "pool": len(pool.ops)}
        if args.trace:
            metrics, walls, loop_failures = traced_run(args, pool, clock, detail)
        else:
            walls, ratios, loop_failures = closed_loop(emdut.cli.main, pool.ops,
                                                       args.seconds, clock)
            metrics = end_to_end(ratios, import_ratio + setup_ratio)
            detail["tail_percentile"] = tail(ratios)[1]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    # warm-up operations are checked too, so they count as attempts
    attempted = len(walls) + SETUP_REPEATS
    failures += loop_failures
    detail.update({
        "samples": len(walls), "failed_frac": len(failures) / attempted,
        "wall_p50_s": statistics.median(walls), "fastest_ref_s": min(clock.refs),
        "median_ref_s": statistics.median(clock.refs), "failures": failures[:5],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
