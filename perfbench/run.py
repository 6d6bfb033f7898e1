#!/usr/bin/env python3
"""The repository benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload fs_age --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, from the library sources under
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only check the build. Each workload's parameters come from
perfbench/workloads.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ledger. The line before it, `DETAIL {...}`, carries sample counts,
sizes, the paper-named metrics and the ledger checks. The exit status is 0
only when the run completed and every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then bring the binary up to date; output to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(bench, trace):
    """name -> unit of the metrics a run in this mode must print."""
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}", 1)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1", 1)
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0", 1)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "backlog_db.hpp")):
        fail(f"library sources not found under {ROOT}/src; "
             "run from the root of a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(os.path.join(build_root, "perfbench"))

    workdir = os.path.join(build_root, f"run-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    for name, value in workloads[args.workload]["params"].items():
        cmd += [f"--{name}", str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} exited {proc.returncode} without a result", 1)
    result = json.loads(lines[-1])
    check_result(result, expected_metrics(bench, args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
