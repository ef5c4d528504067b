#!/usr/bin/env python3
"""Builds and runs the ppds benchmark; prints one JSON result line.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The benchmark binary is built from the checkout's sources into
.bench_build/perfbench on first use. With --trace 0 the result carries the
end-to-end metrics; set-up is repeated in separate processes and setup_s is
the median. With --trace 1 it carries the per-layer metrics, and the spans
of the traced sessions are written to .bench_build/traces/. The last line
of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it give the machine context. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ppds_perfbench")

WORKLOADS = ("linear_keepalive", "poly_a1a", "similarity_silent")

END_TO_END = {
    "setup_s": "s",
    "session_p50_ms": "ms",
    "session_tail_ms": "ms",
    "sessions_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "server.ready_peak": "count",
    "server.parked_peak": "count",
    "server.sessions_failed": "count",
    "core.session_ms": "ms",
    "core.digest_ms": "ms",
    "core.transform_ms": "ms",
    "ompe.cover_ms": "ms",
    "ompe.mask_ms": "ms",
    "ompe.ot_ms": "ms",
    "ompe.interp_ms": "ms",
    "ompe.cover_points": "count",
    "ompe.mask_points": "count",
    "ompe.interp_points": "count",
    "ompe.ot_elements": "count",
    "crypto.exp_full_per_session": "count",
    "crypto.exp_fixed_base_per_session": "count",
    "crypto.sync_expansions_per_1k": "count",
    "crypto.ot_aborts": "count",
    "crypto.ot_wiped": "count",
    "net.client_sent_bytes_per_session": "B",
    "net.client_frames_per_session": "count",
    "net.server_sent_bytes_per_session": "B",
    "net.checksum_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_share": "share",
}

# Set-up runs per untraced result: the measured run's own plus this many
# set-up-only processes, each cold (fresh process-wide tables and caches).
SETUP_REPEATS = 3
# Everything a run starts must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark binary; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(step))


def run_binary(flags, deadline):
    """Runs the binary; returns its stdout lines (the last one parsed)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(flags))
    try:
        proc = subprocess.run([BINARY] + flags, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(flags))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("ppds_perfbench exited with %d: %s" % (proc.returncode, " ".join(flags)))
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    correct = True
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            _, result = run_binary(common + ["--setup-only"], deadline)
            setups.append(result["setup_s"])
            correct = correct and result["correct"]

    flags = common + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
        flags += ["--trace-file", trace_file]
    context_lines, result = run_binary(flags, deadline)

    metrics = result["metrics"]
    expected = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(expected):
        fail("metric names differ from the benchmark's: %s"
             % sorted(set(metrics) ^ set(expected)))
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)

    for line in context_lines:
        print(line)
    print(json.dumps({"context": {
        "setup_s_samples": setups,
        "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None,
    }}))
    print(json.dumps({
        "correct": bool(correct and result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": expected[name]}
                    for name in sorted(expected)},
    }))


if __name__ == "__main__":
    main()
