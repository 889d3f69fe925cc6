#!/usr/bin/env python3
"""SenseDroid end-to-end benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  Builds perfbench_driver (and the
SenseDroid libraries it links) from source into .bench_build/, runs the
workload, checks its outputs, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  Exits 0 when every check
passed, 1 when a check failed or the driver crashed, 2 when the
checkout holds no sources to build.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import summary  # noqa: E402

BUILD_DIR = ".bench_build"
RUN_LIMIT_S = 170.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root):
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise FileNotFoundError("no SenseDroid sources under %s/src" % root)
    out = os.path.join(root, BUILD_DIR, "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target",
                        "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=summary.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        binary = build(root)
    except (FileNotFoundError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    # A per-run scratch directory inside the checkout (checkpoint files).
    scratch = os.path.join(root, BUILD_DIR, "runs",
                           "%d-%d" % (os.getpid(), time.monotonic_ns()))
    os.makedirs(scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        log("driver exceeded %.0f s" % RUN_LIMIT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver exited with %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])
    try:
        res = summary.result(raw)
    except summary.SummaryError as e:
        log("cannot summarise run: %s" % e)
        return 1
    if not res["correct"]:
        failed = [k for k, ok in raw.get("checks", {}).items() if not ok]
        log("correctness checks failed: %s" % ", ".join(failed))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
