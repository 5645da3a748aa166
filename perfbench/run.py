#!/usr/bin/env python3
"""Repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (and the simulation library from ../src) into
.bench_build/ of the checkout on first use, runs one workload for S seconds
of wall time and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, measured on one engine lane; --trace 1 the per-layer
ones, at the workload's own lane count (its spans are written to
.bench_build/traces/). Each run's simulated outcome is also compared with the
committed reference for the seed (perfbench/reference.json), when it has one.

    python3 perfbench/run.py --record-reference 0-99

re-records that table (after a change that is meant to alter simulated
results, and only then).
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dc_master_worker", "zones_hot", "actor_swarm", "churn_faults"]
REFERENCE = os.path.join(HERE, "reference.json")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def binary():
    return os.path.join(build_dir(), "perfbench")


def build():
    """Configure once, then let cmake rebuild whatever changed."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, check=True)


def outcome_matches(got, want):
    for key in ("tasks", "completions", "failures", "events", "wakeups", "bad_ends"):
        if got[key] != want[key]:
            return False
    return abs(got["clock"] - want["clock"]) <= 1e-9 * abs(want["clock"])


def run_workload(args):
    cmd = [binary(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.trace == 1:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.csv" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    outcome = result.pop("outcome")

    ref_path = args.reference or (REFERENCE if args.size == "full" else None)
    if ref_path and os.path.exists(ref_path):
        with open(ref_path) as f:
            want = json.load(f).get(args.workload, {}).get(str(args.seed))
        if want is not None and not outcome_matches(outcome, want):
            print("perfbench: %s seed %d: outcome %s differs from the reference %s"
                  % (args.workload, args.seed, outcome, want), file=sys.stderr)
            result["failed"] = result["attempted"]
            result["correct"] = False
    for name, m in result["metrics"].items():
        if not math.isfinite(m["value"]):
            sys.exit("perfbench: metric %s is not finite" % name)
    print(json.dumps(result))


def record_reference(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    table = {}
    for w in WORKLOADS:
        table[w] = {}
        for s in seeds:
            out = subprocess.run([binary(), "--workload", w, "--seed", str(s), "--outcome-only"],
                                 stdout=subprocess.PIPE, text=True, check=True).stdout
            table[w][str(s)] = json.loads(out.strip().splitlines()[-1])
            print("%s seed %d: %s" % (w, s, table[w][str(s)]), file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: the harness self-test's size")
    p.add_argument("--reference", help="outcome table to check against (default: reference.json, full size only)")
    p.add_argument("--record-reference", metavar="LO-HI", help="re-record the reference table for these seeds")
    args = p.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if args.record_reference:
        record_reference(args.record_reference)
        return
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")
    run_workload(args)


if __name__ == "__main__":
    main()
