#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py for about a second per workload.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

# Per-layer metrics that are exact counts (or exact virtual values): they
# must repeat bit for bit run to run.
EXACT = ["simnet.msgs_per_step", "simnet.bytes_per_step", "comm.barrier_msgs",
         "comm.allgatherv_msgs", "comm.alltoallv_msgs", "grid.halo_msgs",
         "filter.msgs_per_apply", "lb.msgs_per_step", "lb.imbalance_after",
         "lb.balance_over_compute"]


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_has_an_input(self):
        for w in spec()["workloads"]:
            path = os.path.join(BENCH_DIR, "workloads", w["name"] + ".cfg")
            self.assertTrue(os.path.isfile(path), path)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run("campaign-smoke", 1, trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in spec()[key]))
            units = {m["name"]: m["unit"] for m in spec()[key]}
            for name, entry in result["metrics"].items():
                self.assertEqual(entry["unit"], units[name])

    def test_exact_counts_repeat_and_change_with_seed(self):
        first = run("table10-conv", 5, 1)["metrics"]
        again = run("table10-conv", 5, 1)["metrics"]
        other = run("table10-conv", 6, 1)["metrics"]
        exact = lambda m: [m[name]["value"] for name in EXACT]
        self.assertEqual(exact(first), exact(again))
        self.assertNotEqual(exact(first), exact(other))
        self.assertNotEqual(first["lb.imbalance_after"]["value"],
                            other["lb.imbalance_after"]["value"])

    def test_corrupted_reference_fails_the_checks(self):
        with open(os.path.join(BENCH_DIR, "reference.json")) as f:
            reference = json.load(f)
        entry = reference["workloads"]["table10-conv"][str(1996 + 2)]
        entry["digest"] = "0" * 16
        path = os.path.join(ROOT, ".bench_build", "corrupted-reference.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(reference, f)
        result = run("table10-conv", 2, 0, "--reference", path)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
