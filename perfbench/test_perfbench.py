#!/usr/bin/env python3
"""The benchmark's own test: a reduced-size smoke of all four workloads.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then for every workload runs the
smoke size untraced and traced, on two seeds, and checks that

  * every output check passed (correct, no failed operations);
  * the result line names exactly the metrics BENCHMARK.json lists;
  * two traced runs of the same seed give identical exact counters
    (allocations per layer, fsyncs, index and queue bytes, digests).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
BINARY = None


def smoke(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counters = {}
    for line in lines:
        if line.startswith("counters: "):
            counters = json.loads(line[len("counters: "):])
    return json.loads(lines[-1]), counters, proc.stdout


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()

    def check_result(self, result, names, log):
        self.assertTrue(result["correct"], log)
        self.assertEqual(result["failed"], 0, log)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), names)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(metric["unit"], name)

    def test_end_to_end_metrics_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    result, _, log = smoke(workload, seed, 0)
                    self.check_result(result, END_TO_END, log)
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_traced_counters_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, counters_a, log = smoke(workload, 5, 1)
                self.check_result(first, PER_LAYER, log)
                second, counters_b, log = smoke(workload, 5, 1)
                self.check_result(second, PER_LAYER, log)
                self.assertTrue(counters_a, "no counters printed")
                self.assertEqual(counters_a, counters_b)
                rewinds = first["metrics"]["synthesis.rewinds"]["value"]
                self.assertEqual(rewinds, 0)


if __name__ == "__main__":
    unittest.main()
