#!/usr/bin/env python3
"""The benchmark's own tests. From the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the program through run.py (as a benchmark run would) and run
short passes of the cheapest workloads.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(workload, trace=0, seconds=1, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, lines, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_perturbed_digest_is_a_failure(self):
        with open(os.path.join(HERE, "digests.txt")) as f:
            lines = f.read().splitlines()
        perturbed = []
        for line in lines:
            if line.startswith("fig11_baseline "):
                workload, cell, digest = line.split()
                flipped = "%016x" % (int(digest, 16) ^ 1)
                line = " ".join([workload, cell, flipped])
            perturbed.append(line)
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=scratch, delete=False) as f:
            f.write("\n".join(perturbed) + "\n")
            path = f.name
        try:
            code, lines, result = run_bench("fig11_baseline", extra=("--digests", path))
        finally:
            os.remove(path)
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["pass_ratio"]["value"], 1.0)
        self.assertTrue(any("digest mismatch" in line for line in lines))

    def test_passes_repeat_exact_counts(self):
        code, lines, result = run_bench("fig11_attack", trace=1)
        self.assertEqual(code, 0, "\n".join(lines[-5:]))
        counts = [line.split(" ", 1)[1] for line in lines if line.startswith("pass-counts ")]
        self.assertGreaterEqual(len(counts), 2)
        self.assertEqual(len(set(counts)), 1, counts)
        self.assertGreater(json.loads(counts[0])["events"], 0)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run_bench("fig11_baseline", trace=trace)
            self.assertEqual(code, 0, "\n".join(lines[-5:]))
            self.assertTrue(result["correct"])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, expected)


if __name__ == "__main__":
    unittest.main()
