"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload: one --trace 0 run per seed, then the median, the
quartiles and the spread (quartile distance over median) of every
end-to-end metric; plus one --trace 1 run on the first seed for the
per-layer metrics.  Compare two commits by running this on each with
the same arguments.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("%s failed (exit %d): %s" % (" ".join(cmd), proc.returncode, proc.stderr[-400:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()
    report = {
        "command": "python3 perfbench/baseline.py --seeds %d-%d" % (args.seeds[0], args.seeds[-1]),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            detail, result = bench(workload, seed, 0)
            if not result["correct"]:
                sys.exit("%s seed %d: incorrect: %s" % (workload, seed, detail.get("errors")))
            runs.append(result)
            print("%s seed %d: %.0f s" % (workload, seed, time.monotonic() - start), file=sys.stderr)
        _, traced = bench(workload, args.seeds[0], 1)
        report["workloads"][workload] = {
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs]) for m in SPEC["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print("%-13s %-13s median %12.4f  spread %.3f" % (workload, name, s["median"], s["spread"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
