"""The harness counts a malformed request in error_rate instead of crashing.

Builds the harness (as run.py does) on first use.
Run: python3 -m unittest discover -s fbtbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import workloads  # noqa: E402


class MalformedRequestTest(unittest.TestCase):
    def test_malformed_line_is_a_failed_operation(self):
        run.build()
        tiny = dict(workloads.FLOW_SMOKE, cal_length=40, segment_length=20)
        good = workloads.request_line("a", "s27", 3, tiny)
        spec = {
            "workload": "serve_sweep", "clients": 1, "workers": 1,
            "setup_reps": 1, "flow": tiny, "prime": [],
            "requests": [good, '{"type": "experiment", "target": ', good],
            "meta": [{"target": "s27", "rng_seed": 3}] * 3,
            "sample": [0], "sample_size": 1,
        }
        raw = run.run_harness(spec, 30, 0, "test-malformed")
        self.assertEqual([op["ok"] for op in raw["ops"]], [True, False, True])
        self.assertIn("not a result line", raw["ops"][1]["error"])
        self.assertEqual([op["kind"] for op in raw["ops"]],
                         ["miss", "", "hit"])
        self.assertEqual(len(run.failures_of(raw)), 1)
        json.dumps(raw)


if __name__ == "__main__":
    unittest.main()
