#!/usr/bin/env python3
"""The benchmark's own tests, on tiny runs:

    python3 perfbench/test_perfbench.py

* the request generator is deterministic per seed and differs across seeds;
* every metric name matches [A-Za-z0-9_.-]+ and appears in BENCHMARK.json
  (and every name there is reported, with the same unit);
* the traced replay reproduces the untraced run digest, and a seed's
  digest repeats across runs.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
BINARY = None


def binary():
    global BINARY
    if BINARY is None:
        BINARY = bench.build(BUILD_DIR)
    return BINARY


def perfbench(*args):
    return subprocess.run([binary()] + list(args), check=True, stdout=subprocess.PIPE, text=True).stdout


def run_py(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    )
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    record = {}
    for line in lines[:-1]:
        record.update(line.get("record", {}))
    return lines[-1], record


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed_and_distinct_across_seeds(self):
        for w in bench.WORKLOADS:
            first = perfbench("requests", "--workload", w, "--seed", "1", "--count", "14")
            again = perfbench("requests", "--workload", w, "--seed", "1", "--count", "14")
            other = perfbench("requests", "--workload", w, "--seed", "2", "--count", "14")
            self.assertEqual(first, again, w)
            self.assertNotEqual(first, other, w)
            specs = [json.loads(l) for l in first.splitlines()]
            self.assertEqual(len(specs), 14)
            self.assertTrue(all(s["format"] == "midas-experiment-v1" for s in specs))
            # The service sees the seeded Monte-Carlo seeds, not the workload seed.
            if w != "analytic_sweep":
                self.assertGreater(len({s["mc"]["base_seed"] for s in specs}), 1, w)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        e2e, layer = {"setup_s"}, {}
        for line in perfbench("metrics").splitlines():
            kind, name, *unit = line.split()
            if kind == "end_to_end":
                e2e.add(name)
            else:
                layer[name] = unit[0]
        for name in e2e | set(layer):
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(e2e, set(declared_e2e))
        self.assertEqual(layer, declared_layer)


class DigestTest(unittest.TestCase):
    def test_traced_replay_reproduces_untraced_digest(self):
        for w in bench.WORKLOADS:
            result, record = run_py(w, 3, 1)
            self.assertTrue(result["correct"], w)
            self.assertEqual(result["failed"], 0, w)
            self.assertEqual(record["trace_digest"], record["untraced_digest"], w)
            self.assertEqual(record["trace_mismatches"], 0, w)
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                layer = {m["name"] for m in json.load(f)["per_layer"]}
            self.assertEqual(set(result["metrics"]), layer, w)

    def test_digest_repeats_across_runs(self):
        first, rec1 = run_py("des_validation", 5, 0)
        again, rec2 = run_py("des_validation", 5, 0)
        self.assertTrue(first["correct"] and again["correct"])
        self.assertEqual(rec1["digest"], rec2["digest"])
        self.assertEqual(rec1["setup_hash"], rec2["setup_hash"])
        self.assertTrue(rec1["threads1_match"])


if __name__ == "__main__":
    unittest.main()
