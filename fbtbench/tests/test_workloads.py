"""Workload generators are deterministic in their seed.

Run: python3 -m unittest discover -s fbtbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402
import workloads  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.GENERATORS:
            a = json.dumps(workloads.make_spec(name, 5, 40), sort_keys=True)
            b = json.dumps(workloads.make_spec(name, 5, 40), sort_keys=True)
            self.assertEqual(a, b, name)

    def test_different_seed_different_inputs(self):
        self.assertNotEqual(workloads.serve_sweep(1, 40)["requests"],
                            workloads.serve_sweep(2, 40)["requests"])
        self.assertNotEqual(workloads.embedded_block(1, 40)["experiments"],
                            workloads.embedded_block(2, 40)["experiments"])

    def test_run_length_fixes_the_operation_count(self):
        for seconds in (8, 40):
            serve = workloads.serve_sweep(1, seconds)
            self.assertEqual(
                len(serve["requests"]),
                round(seconds * workloads.SERVE_REQUESTS_PER_S))
            self.assertEqual(serve["tail_percentile"],
                             stats.tail_percentile(len(serve["requests"])))
        # A longer run extends the same input list.
        short = workloads.serve_sweep(1, 8)["requests"]
        self.assertEqual(workloads.serve_sweep(1, 40)["requests"][:len(short)],
                         short)
        block = workloads.embedded_block(1, 40)
        self.assertEqual(len(block["experiments"]), 20)
        self.assertEqual(block["tail_percentile"], 50.0)

    def test_serve_sweep_mix(self):
        spec = workloads.serve_sweep(3, 40)
        requests = spec["requests"]
        repeats = len(requests) - len(set(requests))
        self.assertEqual(repeats, len(requests) // workloads.REPEAT_EVERY)
        # Fresh requests visit every circuit once per round.
        fresh = [m["target"] for i, m in enumerate(spec["meta"])
                 if i % workloads.REPEAT_EVERY != workloads.REPEAT_EVERY - 1]
        n = len(workloads.SMALL_ISCAS89)
        for r in range(4):
            self.assertEqual(sorted(fresh[r * n:(r + 1) * n]),
                             sorted(workloads.SMALL_ISCAS89))
        for line in requests[:50]:
            doc = json.loads(line)
            self.assertEqual(doc["type"], "experiment")
            self.assertEqual(doc["driver"], "buffers")
            self.assertNotEqual(doc["config"]["rng_seed"],
                                workloads.PRIME_SEED)
        # Sampled misses are first occurrences.
        for i in spec["sample"]:
            self.assertNotIn(requests[i], requests[:i])

    def test_embedded_block_alternates_drivers(self):
        drivers = [e["driver"] for e in
                   workloads.embedded_block(4, 40)["experiments"][:4]]
        self.assertEqual(drivers, ["wb_dma", "wb_conmax"] * 2)


if __name__ == "__main__":
    unittest.main()
