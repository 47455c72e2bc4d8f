#!/usr/bin/env python3
"""Build and run the e2ebench benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload <name> --seed <n>
                            --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest
    python3 e2ebench/run.py --write-golden

The first call configures and builds e2ebench/ (a CMake package that
compiles the repository's src/) into .bench_build/e2ebench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. A traced run (--trace 1) also
writes its spans as Chrome trace_event JSON to
.bench_out/e2ebench_<workload>_seed<n>.json.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.txt")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def build(target):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", "2"])
    for cmd in steps:
        # Build chatter must not reach stdout: its last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def run_benchmark(args):
    cmd = [build("e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--golden", GOLDEN]
    if args.trace == 1:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".bench_out", "e2ebench_%s_seed%d.json" % (args.workload,
                                                       args.seed))]
    return subprocess.run(cmd).returncode


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


def selftest():
    """C++ self-tests, then the emitted metric names and rows."""
    if subprocess.run([build("e2ebench_selftest")]).returncode != 0:
        return 1
    binary = build("e2ebench")
    table = json.loads(subprocess.run([binary, "--list-metrics"],
                                      capture_output=True, text=True,
                                      check=True).stdout)
    rows = {m["name"]: m for m in table}
    failures = []
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for name, row in rows.items():
        if name not in declared:
            failures.append("%s missing from BENCHMARK.json" % name)
        elif declared[name]["unit"] != row["unit"]:
            failures.append("%s: unit differs from BENCHMARK.json" % name)
    for name in declared:
        if name not in rows:
            failures.append("%s declared but not in the metric table" % name)
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace),
                 "--golden", GOLDEN], capture_output=True, text=True)
            if out.returncode != 0:
                failures.append("%s trace=%d exited %d: %s" % (
                    workload, trace, out.returncode, out.stderr.strip()))
                continue
            result = result_of(out.stdout)
            metrics = result["metrics"]
            expected = {n for n, r in rows.items()
                        if r["end_to_end"] == (trace == 0)}
            for name in sorted(metrics):
                if not NAME.match(name):
                    failures.append("bad metric name %r" % name)
            if set(metrics) != expected:
                failures.append("%s trace=%d: missing %s, unexpected %s" % (
                    workload, trace, sorted(expected - set(metrics)),
                    sorted(set(metrics) - expected)))
            for name in sorted(expected & set(metrics)):
                if metrics[name]["unit"] != rows[name]["unit"]:
                    failures.append("%s: unit differs from the table" % name)
                if (workload not in rows[name]["workloads"]
                        and metrics[name]["value"] != 0):
                    failures.append("%s on %s is outside its row but not 0"
                                    % (name, workload))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s trace=%d: outputs not correct" % (
                    workload, trace))
    for f in failures:
        print("FAIL", f)
    print("selftest (metric rows): %s, %d workloads x 2 modes" % (
        "FAILED" if failures else "ok", len(workloads)))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.write_golden:
        return subprocess.run([build("e2ebench"), "--write-golden",
                               GOLDEN]).returncode
    if not args.workload:
        p.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
