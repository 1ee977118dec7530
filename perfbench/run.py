#!/usr/bin/env python3
"""Run one workload of the DeLorean benchmark.

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The first run configures and builds the
program and the harness (Release) under .bench_build/perfbench; later
runs only check that build. The harness (perfbench/harness) drives the
shipped batch_run and batch_service binaries in a fresh scratch
directory under .bench_build/work, checks every output against
offline references, and prints one JSON object as the last line of
stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json names both). Build output goes to stderr. The exit
code is 0 only when a result was printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dse_sweep", "service_mix", "trace_stream", "fleet_sweep")
HARNESS_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the harness and the tools it runs."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target",
         "perfbench_harness", "tool_batch_run", "tool_batch_service"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises, if present."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_harness(build_dir, args):
    work = os.path.join(os.getcwd(), ".bench_build", "work",
                        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", os.path.join(build_dir, "delorean", "tools"),
           "--work", work]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    # Own process group, so a timeout takes the daemons down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d" % proc.returncode)
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--default-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="test hook: corrupt one reference row")
    args = parser.parse_args()
    if args.seed is None:
        args.seed = args.default_seed

    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    try:
        build(build_dir)
        lines = run_harness(build_dir, args)
        result = json.loads(lines[-1])
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError, IndexError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    expected = expected_metrics(args.trace)
    if result["correct"] and expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print("perfbench: metrics differ from BENCHMARK.json: %s" %
                  sorted(set(got.items()) ^ set(expected.items())),
                  file=sys.stderr)
            return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
