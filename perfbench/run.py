"""schubcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pairs-window --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; schubcalc is imported from its
src/ directory, so there is nothing to build.  The client is closed-loop:
one process, no threads, each query sent after the previous returned.

--trace 0 measures the end-to-end metrics.  A round is a fresh process
that runs the cold pass (the first pass of the process, empty memo) and
then warm passes (the same queries again, in the same process).  Rounds
repeat until --seconds have passed, and at least MIN_ROUNDS times; a
round added only to reach MIN_ROUNDS skips the warm passes.

Every time is scaled to a reference speed (speed.py): the machine this
was built on changes speed by 1.5x and more within seconds and minutes,
so each stretch of program time is divided by the time a fixed loop
takes right before and after it, and multiplied by that loop's
reference time; a subprocess is scaled the same way by a bare
interpreter run.  Raw times are in the detail line.  On top of that,
cold timings are taken from each query's fastest round:
  setup_s       median over at least PROBES fresh processes of the time
                from process start until schubcalc is imported
  cold_wall_s   the fastest cold pass: the sum of its query latencies,
                so the benchmark's checks between queries are left out
  cold_p50_ms   median over the queries of each query's fastest cold time
  cold_tail_ms  the same at the highest of TAIL_LEVELS whose nearest-rank
                query has at least ten queries beyond it; the level and
                that count are printed
  warm_wall_s   the fastest warm pass of each round, median over rounds
                (a warm pass can be short enough for the process's own
                memory layout to matter, which the median evens out)
  spawn_p50_ms  median over at least PROBES real `python -m schubcalc.cli`
                subprocesses; on cli-calls it reloads the cache file the
                stream wrote
  peak_rss_mb   peak resident memory of the workload process when its
                cold pass ends, before the outputs are checked, median
                over rounds; the queries come in a file, so the tables
                that generated them are not in that process

--trace 1 runs one untraced and one traced cold pass and prints the
per-layer metrics, including trace.overhead_ratio (traced wall over
untraced wall).

Outputs are checked in the worker (see workloads.check); the cold
pass's digest must match perfbench/golden.json when the seed is listed
there.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds
details: error_ratio, the tail level, the digest, the first errors.
Inputs above the bounds in workloads.py are refused with exit code 2
before anything runs.
"""

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

# At least this many set-up probes and CLI subprocesses per run, and
# this many of each after every round.
PROBES = 15
PROBES_PER_ROUND = 2
# Each query's cold time is its fastest over at least this many rounds.
MIN_ROUNDS = 2
TAIL_LEVELS = (50, 75, 90, 95, 99, 99.9)
# Every process this run starts is killed at this many seconds after it
# began, so that a run ends within three minutes even if a query hangs.
HARD_LIMIT_S = 165.0
SPAWN_TIMEOUT_S = 30.0
SETUP_PROBE = "import schubcalc, time; print(repr(time.monotonic()))"


class RunFailed(Exception):
    """A worker died, hung or printed no result."""


def tail(samples):
    """(level, value, beyond): the highest level of TAIL_LEVELS whose
    nearest-rank sample has at least ten samples beyond it (the median if
    none has), that sample, and the number of samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)

    def rank(level):
        return max(0, math.ceil(n * level / 100) - 1)

    level = max([l for l in TAIL_LEVELS if n - 1 - rank(l) >= 10] or [50])
    return level, ordered[rank(level)], n - 1 - rank(level)


def worker_env(cache_dir=None):
    env = dict(os.environ)
    env.pop("SCHUBERT_CACHE_DIR", None)
    # One string-hash seed for every process, so that each lays out its
    # dicts the same way: with a random seed per process, repeats of one
    # run moved warm_wall_s and cold_tail_ms by 0.17-0.2 (quartile spread
    # over median), with a fixed one by under 0.1.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    if cache_dir:
        env["SCHUBERT_CACHE_DIR"] = cache_dir
    return env


def run_python(args, deadline, cache_dir=None):
    """Run a fresh interpreter to completion.  Returns (start time on the
    monotonic clock, stdout lines)."""
    cmd = [sys.executable] + args
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=worker_env(cache_dir), cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("%s ran past the run's time limit" % " ".join(args))
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed("%s exited %d: %s" % (" ".join(args), proc.returncode, err.strip()[-400:]))
    return start, lines


def run_worker(args, deadline, cache_dir=None):
    """One round in a fresh worker process; returns its result."""
    _, lines = run_python([str(HERE / "worker.py")] + args, deadline, cache_dir)
    return json.loads(lines[-1])


def setup_time(deadline):
    """Seconds from starting an interpreter until schubcalc is imported.
    The monotonic clock is shared by all processes on the machine."""
    start, lines = run_python(["-c", SETUP_PROBE], deadline)
    return float(lines[-1]) - start


def bare_run(deadline):
    """Wall seconds of `python -c pass`: the speed probe for the set-up
    and CLI subprocesses (see speed.py)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "pass"],
        capture_output=True,
        env=worker_env(),
        cwd=ROOT,
        check=True,
        timeout=max(1.0, min(SPAWN_TIMEOUT_S, deadline - time.monotonic())),
    )
    return time.perf_counter() - start


def spawn_cli(argv, deadline, cache_dir=None):
    """One real CLI subprocess.  Returns (milliseconds, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubcalc.cli"] + argv,
        capture_output=True,
        text=True,
        env=worker_env(cache_dir),
        cwd=ROOT,
        timeout=max(1.0, min(SPAWN_TIMEOUT_S, deadline - time.monotonic())),
    )
    return (time.perf_counter() - start) * 1000.0, proc.returncode, proc.stdout


def golden_digest(args):
    """The stored digest for a full-size run of this workload and seed, if any."""
    if args.scale != "full":
        return None
    with open(GOLDEN) as fh:
        return json.load(fh).get(args.workload, {}).get(str(args.seed))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]

    def fail(self, why):
        self.failed += 1
        self.errors.append(why)


def check_digest(tally, digests, args):
    """All passes must agree, and match the golden digest if one is stored."""
    tally.attempted += 1
    if len(set(digests)) > 1:
        tally.fail("cold passes disagree: %s" % sorted(set(digests)))
    want = golden_digest(args)
    if want is None:
        return "not stored"
    tally.attempted += 1
    if digests[0] != want:
        tally.fail("digest %s differs from golden %s" % (digests[0], want))
        return "mismatch"
    return "match"


def write_queries(args):
    """Generate the queries once, here, and hand them to every worker in
    a file: the generator's tables then stay out of the workers' memory."""
    queries = workloads.generate(args.workload, args.seed, args.scale)
    path = args.run_dir / "queries.pickle"
    with open(path, "wb") as fh:
        pickle.dump(queries, fh)
    return queries, ["--workload", args.workload, "--queries", str(path)]


def measure(args, deadline, tally):
    queries, base = write_queries(args)
    argv = workloads.spawn_argv(args.workload, args.seed, queries)
    if args.workload == "cli-calls":
        base += ["--spawn-index", str(next(i for i, q in enumerate(queries) if list(q[1]) == argv))]
    setups, rounds, cache_dirs = [], [], []
    spawn_ms, spawn_out = [], set()
    raw = {"setup_s": [], "spawn_ms": []}

    # Set-up and subprocess samples are spread over the run (some before
    # the rounds, some after each, the rest at the end) so that one slow
    # spell of the machine does not take all of them.
    def setup_probe():
        before = bare_run(deadline)
        seconds = setup_time(deadline)
        setups.append(speed.at_reference(seconds, [before, bare_run(deadline)], speed.PROCESS_REFERENCE_S))
        raw["setup_s"].append(seconds)

    def spawn_probe():
        expected = rounds[-1].get("spawn_expected")
        before = bare_run(deadline)
        ms, code, out = spawn_cli(argv, deadline, cache_dirs[-1] if cache_dirs else None)
        spawn_ms.append(speed.at_reference(ms, [before, bare_run(deadline)], speed.PROCESS_REFERENCE_S))
        raw["spawn_ms"].append(ms)
        spawn_out.add(out)
        tally.attempted += 1
        if expected is not None and json.dumps([code, out], separators=(",", ":")) != expected:
            tally.fail("subprocess output differs from in-process for %s" % " ".join(argv))
        elif expected is None and code != 0:
            tally.fail("subprocess exit %d for %s" % (code, " ".join(argv)))

    for _ in range(PROBES // 2):
        setup_probe()
    began = time.monotonic()
    while True:
        in_time = time.monotonic() - began < args.seconds
        if rounds and not (in_time or len(rounds) < MIN_ROUNDS):
            break
        if rounds and time.monotonic() + rounds[-1]["took"] + PROBES * 1.0 > deadline:
            break
        cache_dir = None
        if args.workload == "cli-calls":
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.run_dir)
            cache_dirs.append(cache_dir)
        checked = []
        if rounds and rounds[0]["failed"] == 0:
            checked = ["--checked-digest", rounds[0]["cold"]["digest"]]
        t0 = time.monotonic()
        # a round past --seconds, run only to reach MIN_ROUNDS cold passes,
        # skips the warm passes
        warm = ["--warm", "1" if in_time or not rounds else "0"]
        result = run_worker(base + checked + warm, deadline, cache_dir)
        result["took"] = time.monotonic() - t0
        tally.add(result)
        rounds.append(result)
        for _ in range(PROBES_PER_ROUND):
            setup_probe()
            spawn_probe()
    while len(setups) < PROBES:
        setup_probe()
    while len(spawn_ms) < PROBES:
        spawn_probe()
    if len(spawn_out) > 1:
        tally.fail("subprocess output not deterministic for %s" % " ".join(argv))

    # Every round runs the same queries in a fresh process, so each query's
    # fastest cold time over the rounds is its cost without the machine's
    # slow spells, which only ever add time.
    cold_lat = [r["cold"]["lat_ms"] for r in rounds]
    best = [min(times) for times in zip(*cold_lat)]
    level, tail_ms, beyond = tail(best)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_wall_s": (min(r["cold"]["wall_s"] for r in rounds), "s"),
        "cold_p50_ms": (statistics.median(best), "ms"),
        "cold_tail_ms": (tail_ms, "ms"),
        "warm_wall_s": (statistics.median(min(r["warm_walls_s"]) for r in rounds if "warm_walls_s" in r), "s"),
        "spawn_p50_ms": (statistics.median(spawn_ms), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }
    detail = {
        "rounds": len(rounds),
        "cold_tail_level": level,
        "cold_tail_samples_beyond": beyond,
        "queries": len(best),
        "rss_start_mb": statistics.median(r["rss_start_mb"] for r in rounds),
        "cold_wall_s_per_round": [r["cold"]["wall_s"] for r in rounds],
        "raw": {
            "cold_wall_s_per_round": [r["cold"]["raw_wall_s"] for r in rounds],
            "setup_s_median": statistics.median(raw["setup_s"]),
            "spawn_ms_median": statistics.median(raw["spawn_ms"]),
        },
        "spawn_argv": argv,
        "cache_lines": rounds[-1].get("cache_lines", 0),
        "golden": check_digest(tally, [r["cold"]["digest"] for r in rounds], args),
        "digest": rounds[0]["cold"]["digest"],
    }
    return metrics, detail


def trace(args, deadline, tally):
    base = write_queries(args)[1] + ["--warm", "0"]
    passes = []
    for traced in (0, 1):
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.run_dir) if args.workload == "cli-calls" else None
        extra = ["--trace", "1", "--spans", str(OUT / ("spans-%s.tsv" % args.workload))] if traced else []
        result = run_worker(base + extra, deadline, cache_dir)
        tally.add(result)
        passes.append(result)
    untraced, traced = passes
    metrics = {name: (value, "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count")
               for name, value in traced["layers"].items()}
    metrics["lr.cache_file.lines"] = (traced.get("cache_lines", 0), "count")
    metrics["trace.overhead_ratio"] = (traced["cold"]["wall_s"] / untraced["cold"]["wall_s"], "ratio")
    detail = {
        "untraced_wall_s": untraced["cold"]["wall_s"],
        "traced_wall_s": traced["cold"]["wall_s"],
        "spans_dropped": traced["spans_dropped"],
        "golden": check_digest(tally, [untraced["cold"]["digest"], traced["cold"]["digest"]], args),
        "digest": untraced["cold"]["digest"],
    }
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full", help="smoke: small inputs for tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "schubcalc" / "__init__.py").is_file():
        print("error: no schubcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        workloads.generate(args.workload, args.seed, args.scale)
    except workloads.InputTooLarge as exc:
        print("error: refused: %s" % exc, file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    # this run's own files (queries, cache directories), removed at the end
    args.run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every process it starts, so the
        # speed probes run where the program runs: on a shared host the
        # two CPUs can differ in speed from one moment to the next.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    try:
        metrics, detail = (trace if args.trace else measure)(args, deadline, tally)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(json.dumps({"error": str(exc)}))
        print(json.dumps({"correct": False, "attempted": max(1, tally.attempted),
                          "failed": max(1, tally.failed), "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        error_ratio=tally.failed / max(1, tally.attempted),
        errors=tally.errors[:5],
    )
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
