#!/usr/bin/env python3
"""Measures the committed baseline: every workload over several seeds with
tracing off, plus one traced run per workload, summarised as medians and
quartiles per end-to-end metric and a per-layer table.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-10 --out /tmp/again.json \
        --compare perfbench/baseline.json

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of statistics.quantiles(values, n=4).  --compare checks a second
set of runs against a first: every median within the metric's bound in
BENCHMARK.json, and identical run digests for every seed both measured.
Run from the repository root; each run goes through perfbench/run.py.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seed of the one traced run per workload.
TRACE_SEED = 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += list(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s" % " ".join(cmd))
    records = {}
    for line in lines[:-1]:
        records.update(line.get("record", {}))
    return lines[-1], records


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("--seeds needs at least two seeds for quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        values, digests, runs = {}, {}, []
        for seed in seeds:
            result, record = run_once(w, seed, seconds, 0)
            if not result["correct"]:
                print("%s seed %d: incorrect result" % (w, seed), file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            digests[str(seed)] = record.get("digest")
            runs.append({k: record.get(k) for k in ("requests", "points", "tail_percentile", "error_rate")})
            out.setdefault("record", {k: record.get(k) for k in ("nproc", "service_threads", "compiler", "build_type", "commit", "src_digest")})
            print("%s seed %d: %s" % (w, seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        entry = {
            "end_to_end": {name: summarise(v) for name, v in values.items()},
            "digests": digests,
            "runs": runs,
        }
        result, record = run_once(w, TRACE_SEED, seconds, 1)
        entry["traced"] = {
            "seed": TRACE_SEED,
            "correct": result["correct"],
            "digest_reproduced": record.get("trace_digest") == record.get("untraced_digest"),
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        out["workloads"][w] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds.get(name, 1) / 3 else "  (>= bound/3)"
            print("%-16s %-16s median %.5g  spread %.3f%s" % (w, name, s["median"], s["spread"], flag), flush=True)

    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")

    if args.compare:
        with open(args.compare) as f:
            first = json.load(f)
        ok = True
        for w, entry in out["workloads"].items():
            base = first["workloads"].get(w)
            if base is None:
                continue
            for name, s in entry["end_to_end"].items():
                m0 = base["end_to_end"][name]["median"]
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = (s["median"] - m0) / m0 if better == "lower" else (m0 - s["median"]) / m0
                verdict = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
                ok &= verdict == "ok"
                print("compare %-16s %-16s %.5g -> %.5g (%+.3f)  %s" % (w, name, m0, s["median"], worse, verdict))
            for seed, d in entry["digests"].items():
                if seed in base["digests"] and base["digests"][seed] != d:
                    ok = False
                    print("compare %s seed %s: digest %s != %s" % (w, seed, d, base["digests"][seed]))
        print("compare: %s" % ("ok" if ok else "FAILED"))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
