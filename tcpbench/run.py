#!/usr/bin/env python3
"""Entry point of the TCP-plane benchmark.

Run from the repository root:

    python3 tcpbench/run.py --workload saturate-n16 --seed 1 --seconds 10 --trace 0

Builds tcpbench/tcpbench.exe with dune, runs the workload in a fresh
process and relays its output; the last stdout line is the JSON result.
With --trace 1 it runs the workload twice, untraced and then traced (each
in its own process), prints the traced run's per-layer metrics and adds
the tracing overhead as the ratio of the two runs' confirmed_rps and
cpu_us_per_req.

    python3 tcpbench/run.py --calibrate --seed 1 --seconds 10

runs saturate-n16 at K and 2K outstanding requests, alternating, and
prints the median throughput of each (the saturation check in README.md).

Everything the benchmark writes stays under the current directory:
_build/ (dune), .tcpbench_data/ (replica WALs, removed after each run)
and .tcpbench_out/ (span dumps of traced runs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

EXE = os.path.join("_build", "default", "tcpbench", "tcpbench.exe")
DATA_DIR = ".tcpbench_data"
OUT_DIR = ".tcpbench_out"
WORKLOADS = ("saturate-n16", "paced-n4", "leader-crash-n4", "leader-crash-n7")
CALIBRATION_PAIRS = 5
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170  # one measured workload, or both processes of a traced one


def fail(msg, code=2):
    print("tcpbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./tcpbench/tcpbench.exe"],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace, k_factor=1, timeout=RUN_TIMEOUT_S):
    """Runs one workload in a fresh process; returns its parsed JSON result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--data-dir", DATA_DIR]
    if k_factor != 1:
        cmd += ["--k-factor", str(k_factor)]
    if trace:
        cmd += ["--spans-out", os.path.join(OUT_DIR, workload + ".spans")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, timeout), 1)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, r.returncode), 1)
    if r.returncode != 0 or not result.get("correct"):
        print(lines[-1])
        sys.exit(1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()
    if not args.calibrate and args.workload is None:
        ap.error("--workload is required")

    build()
    os.makedirs(DATA_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.calibrate:
        # Alternate K and 2K so slow spells of a shared host hit both.
        rps = {1: [], 2: []}
        for pair in range(CALIBRATION_PAIRS):
            for f in (1, 2):
                res = run_once("saturate-n16", args.seed + pair, args.seconds, 0, f)
                rps[f].append(res["metrics"]["confirmed_rps"]["value"])
                print("%dK seed=%d confirmed_rps=%.1f" % (f, args.seed + pair, rps[f][-1]))
        med = {f: statistics.median(v) for f, v in rps.items()}
        for f, v in rps.items():
            print("%dK median confirmed_rps=%.1f over %d runs" % (f, med[f], len(v)))
        print("2K vs K: %+.2f%%" % (100.0 * (med[2] / med[1] - 1)))
        return

    if not args.trace:
        res = run_once(args.workload, args.seed, args.seconds, 0)
        print(json.dumps(res))
        return

    start = time.monotonic()
    base = run_once(args.workload, args.seed, args.seconds, 0)
    left = RUN_TIMEOUT_S - (time.monotonic() - start)
    res = run_once(args.workload, args.seed, args.seconds, 1, timeout=max(1, left))
    m, b = res["metrics"], base["metrics"]
    m["trace.overhead_rps"] = {
        "value": m["trace.confirmed_rps"]["value"] / b["confirmed_rps"]["value"],
        "unit": "ratio"}
    m["trace.overhead_cpu"] = {
        "value": m["trace.cpu_us_per_req"]["value"] / b["cpu_us_per_req"]["value"],
        "unit": "ratio"}
    print(json.dumps(res))


if __name__ == "__main__":
    main()
