#!/usr/bin/env python3
"""The repo benchmark: builds perfbench (the midas library plus the
closed-loop client in perfbench/src) and measures one workload.

    python3 perfbench/run.py --workload analytic_sweep --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR when
set, else .bench_build.  With --trace 0 the last stdout line is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics;
with --trace 1 the metrics are the per-layer ones from the traced replay.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytic_sweep", "des_validation", "timeline_mix")
# Fresh processes timed for setup_s; the median is reported.
SETUP_RUNS = 9
# Every run must end within this many seconds (the build excepted).
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise BenchError("no midas source tree next to perfbench/ (need ../src)")
    jobs = str(os.cpu_count() or 2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the library sources: identifies the measured code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(top, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    return proc.stdout.strip() or "none"


class Runner:
    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def __call__(self, args, stdin_text=None):
        """Runs the binary to completion; returns its stdout lines."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        try:
            proc = subprocess.run(
                [self.binary] + args,
                input=stdin_text,
                stdout=subprocess.PIPE,
                stderr=sys.stderr,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("perfbench %s timed out" % args[0])
        if proc.returncode != 0:
            raise BenchError("perfbench %s exited %d" % (args[0], proc.returncode))
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if not lines:
            raise BenchError("perfbench %s printed nothing" % args[0])
        return lines


def emit(lines):
    for line in lines:
        print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    run = Runner(build(os.path.abspath(build_dir)), time.monotonic() + RUN_BUDGET_S)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    record = {"commit": commit(), "src_digest": source_digest()}
    setup_s = []
    failed_extra = 0
    if not args.trace:
        hashes = set()
        for _ in range(SETUP_RUNS):
            out = json.loads(run(["setup"] + common)[-1])
            setup_s.append(out["setup_s"])
            hashes.add(out["setup_hash"])
        record["setup_s_samples"] = setup_s

    loop = run(
        ["run"] + common + ["--seconds", str(args.seconds), "--emit-requests", str(args.trace)]
    )
    result = json.loads(loop[-1])
    run_record = json.loads(loop[-2])["record"]
    if not args.trace:
        # Request 0 must answer identically in every fresh process.
        hashes.add(run_record["setup_hash"])
        if len(hashes) != 1:
            log("set-up request answered differently across processes: %s" % sorted(hashes))
            failed_extra += 1
        emit(loop[:-1])
        measured = result["metrics"]
        metrics = {
            "points_per_s": measured["points_per_s"],
            "request_p50_s": measured["request_p50_s"],
            "request_tail_s": measured["request_tail_s"],
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    else:
        untraced = next(l for l in loop if l.startswith('{"untraced"'))
        emit(l for l in loop[:-1] if l != untraced)
        replay = run(["replay"] + common, stdin_text=untraced)
        emit(replay[:-1])
        traced = json.loads(replay[-1])
        failed_extra += traced["failed"]
        result["correct"] = result["correct"] and traced["correct"]
        metrics = traced["metrics"]

    failed = result["failed"] + failed_extra
    record["error_rate"] = failed / result["attempted"]
    print(json.dumps({"record": record}))
    if not args.trace:
        # Human-readable summary: the six end-to-end metrics with units.
        # error_rate is 0 on a healthy build, so the result line carries
        # it as failed / attempted instead of as a metric.
        summary = ["%s %.6g %s" % (k, m["value"], m["unit"]) for k, m in metrics.items()]
        summary.append("error_rate %.6g ratio (%d/%d)" % (record["error_rate"], failed, result["attempted"]))
        print("%s seed %d: %s; tail = p%.1f of %d requests"
              % (args.workload, args.seed, " | ".join(summary),
                 run_record["tail_percentile"], run_record["requests"]))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"] and failed == 0),
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(1)
