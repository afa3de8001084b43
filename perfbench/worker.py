"""One fresh process of a benchmark run: import schubcalc, then run the
workload's queries as a closed loop, one at a time.

Started by run.py, never by hand, with the queries run.py generated in
a pickle file, so that the generator's tables do not count in this
process's memory.  It prints the pass results as one JSON line on
stdout.  The cold pass is the first pass of the process,
with an empty memo; warm passes repeat the same queries in the same
process.  With --trace 1 the cold pass runs under the tracer and the
result carries the per-layer counters instead of warm passes.
"""

import argparse
import bisect
import json
import os
import pickle
import resource
import signal
import sys
import time
from typing import NamedTuple

import speed
import tracer as tracing
import workloads

# Warm passes repeat until they have taken this long in total, at most
# WARM_MAX_PASSES times.
WARM_MIN_S = 0.3
WARM_MAX_PASSES = 20
# Seconds between speed probes within a pass, and seconds of CPU time
# between speed probes inside a query.
PROBE_EVERY_S = 0.05
SAMPLE_EVERY_S = 0.1
# A traced query may take this many times its untraced timeout.
TRACE_STRETCH = 4.0
MAX_ERRORS_REPORTED = 5


class QueryTimeout(BaseException):
    """Raised by the alarm inside a query that ran past its timeout.  A
    BaseException, so no handler in the program under test catches it."""


def _alarm(signum, frame):
    raise QueryTimeout()


class Pass(NamedTuple):
    wall_s: float  # sum of the query times, at the reference speed
    lat_ms: list  # per-query times, at the reference speed
    raw_wall_s: float  # sum of the query times as measured
    outputs: list  # canonical output of each query, None where it failed
    errors: list  # why each failed query failed
    rss_mb: float  # peak resident memory when the last query returned


def peak_rss_mb():
    """Peak resident memory of this process so far.  VmHWM belongs to the
    process's own address space; ru_maxrss would also count the parent's
    resident memory at the moment it started this process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Sampler:
    """SIGPROF handler: a speed probe inside a running query.  A query can
    run for seconds, over which the machine's speed changes, so probes on
    either side of it alone scale it badly."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.probes = []  # (perf_counter at the start, seconds taken, probe seconds)

    def __call__(self, signum, frame):
        start = time.perf_counter()
        probe = speed.probe()
        self.probes.append((start, time.perf_counter() - start, probe))


def run_pass(executor, queries, timeout, tracer=None, expected=None, checked_digest=None):
    """Run every query once and return a Pass.

    Query times are scaled to the reference speed by speed probes taken
    before the pass, after it, between queries every PROBE_EVERY_S, and
    inside a query every SAMPLE_EVERY_S of CPU time (not when traced);
    each query is scaled by the mean of the probes inside it and the
    nearest on either side of it, and the time the probes inside it took
    is taken off its time.  The wall
    time is the sum of the query times: the benchmark's own work between
    queries (probes, turning each result into its canonical text at once
    so the heap does not grow with results the program would not keep,
    and checking) is left out.

    Outputs must equal `expected` when given; otherwise they go through
    workloads.check, unless their digest is `checked_digest`, that of
    outputs already checked in an earlier round."""
    raw_ms, spans, outputs, why = [], [], [], {}
    sampler = _Sampler()
    sample_every = SAMPLE_EVERY_S if tracer is None else 0
    previous_handler = signal.signal(signal.SIGPROF, sampler)
    probes = [(time.perf_counter(), speed.probe())]  # (start, probe seconds), in time order
    for i, q in enumerate(queries):
        if time.perf_counter() - probes[-1][0] > PROBE_EVERY_S:
            probes.append((time.perf_counter(), speed.probe()))
        if tracer is not None:
            tracer.query = i
        out = None
        sampler.reset()
        signal.setitimer(signal.ITIMER_PROF, sample_every, sample_every)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        try:
            raw = executor.run(q)
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            out = workloads.canonical(q, raw)
        except QueryTimeout:
            t1 = time.perf_counter()
            why[i] = "timeout after %.1f s" % timeout
        except Exception as exc:  # an unexpected exception fails the query, not the run
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            why[i] = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        raw = None
        during = [(start, took, probe) for start, took, probe in sampler.probes if start < t1]
        raw_ms.append((t1 - t0 - sum(took for _, took, _ in during)) * 1000.0)
        probes += [(start, probe) for start, _, probe in during]
        spans.append((t0, t1))
        outputs.append(out)
    signal.signal(signal.SIGPROF, previous_handler)
    # before the checks, whose parsed outputs are the benchmark's memory
    rss_mb = peak_rss_mb()
    probes.append((time.perf_counter(), speed.probe()))

    # each query by the last probe before it, the probes inside it and
    # the first probe after it, which for a short query followed by a long
    # one is a probe inside the long one
    starts, lat_ms = [start for start, _ in probes], []
    for (t0, t1), ms in zip(spans, raw_ms):
        first, last = bisect.bisect_left(starts, t0) - 1, bisect.bisect_right(starts, t1)
        lat_ms.append(speed.at_reference(ms, [probe for _, probe in probes[first : last + 1]]))

    if expected is None and checked_digest and checked_digest == pass_digest(queries, outputs):
        expected = outputs
    errors = []
    for i, (q, out) in enumerate(zip(queries, outputs)):
        if i not in why:
            if expected is None:
                problem = workloads.check(q, out)
            else:
                problem = None if out == expected[i] else "output differs from the cold pass"
            if problem is not None:
                why[i] = problem
        if i in why:
            errors.append("query %d %r: %s" % (i, q[:2], why[i]))
            outputs[i] = None
    return Pass(sum(lat_ms) / 1000.0, lat_ms, sum(raw_ms) / 1000.0, outputs, errors, rss_mb)


def pass_digest(queries, outputs):
    return workloads.digest(zip(queries, (o or "" for o in outputs)))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--queries", required=True, help="pickle file of the queries, from run.py")
    ap.add_argument("--spawn-index", type=int, help="return this query's output as spawn_expected")
    ap.add_argument("--warm", type=int, choices=(0, 1), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans here")
    ap.add_argument("--checked-digest", help="digest of cold outputs an earlier round checked")
    args = ap.parse_args(argv)

    import schubcalc

    expected_src = os.environ.get("PERFBENCH_SRC")
    if expected_src and not os.path.abspath(schubcalc.__file__).startswith(expected_src + os.sep):
        sys.exit("schubcalc imported from %s, not from %s" % (schubcalc.__file__, expected_src))

    with open(args.queries, "rb") as fh:
        queries = pickle.load(fh)
    rss_start_mb = peak_rss_mb()
    executor = workloads.Executor()
    timeout = workloads.QUERY_TIMEOUT_S[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    result = {}

    tracer = None
    if args.trace:
        tracer = tracing.make_tracer().install()
        timeout *= TRACE_STRETCH
    try:
        cold = run_pass(executor, queries, timeout, tracer, checked_digest=args.checked_digest)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["cold"] = {
        "wall_s": cold.wall_s,
        "raw_wall_s": cold.raw_wall_s,
        "lat_ms": cold.lat_ms,
        "failed": len(cold.errors),
        "digest": pass_digest(queries, cold.outputs),
    }
    result["rss_mb"], result["rss_start_mb"] = cold.rss_mb, rss_start_mb
    attempted, failed, errors = len(queries), len(cold.errors), list(cold.errors)

    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans_dropped"] = tracer.spans_dropped
        if args.spans:
            tracer.write_spans(args.spans)
    elif args.warm:
        walls = []
        while not walls or (sum(walls) < WARM_MIN_S and len(walls) < WARM_MAX_PASSES):
            warm = run_pass(executor, queries, timeout, expected=cold.outputs)
            walls.append(warm.wall_s)
            attempted += len(queries)
            failed += len(warm.errors)
            errors += warm.errors
        result["warm_walls_s"] = walls
    result["attempted"], result["failed"] = attempted, failed
    result["errors"] = errors[:MAX_ERRORS_REPORTED]
    cache = os.environ.get("SCHUBERT_CACHE_DIR")
    if cache and os.path.exists(os.path.join(cache, "lr-cache.txt")):
        with open(os.path.join(cache, "lr-cache.txt")) as fh:
            result["cache_lines"] = sum(1 for _ in fh)
    if args.spawn_index is not None:
        result["spawn_expected"] = cold.outputs[args.spawn_index]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
