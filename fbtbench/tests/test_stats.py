"""Tail-percentile choice and span self-time arithmetic.

Run: python3 -m unittest discover -s fbtbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n, p in ((1000, 99.0), (999, 98.0), (500, 98.0), (200, 95.0),
                     (100, 90.0), (40, 75.0), (20, 50.0)):
            self.assertEqual(stats.tail_percentile(n), p, n)

    def test_ten_samples_lie_beyond_the_chosen_percentile(self):
        values = [float(i) for i in range(1000)]
        label, value = stats.tail(values, stats.tail_percentile(len(values)))
        self.assertEqual(label, "p99")
        self.assertEqual(len([v for v in values if v > value]), 10)

    def test_too_few_samples_fall_back_to_the_median(self):
        for n in (1, 3, 5, 19):
            self.assertIsNone(stats.tail_percentile(n), n)
            values = [3.0] * (n // 2) + [5.0] + [7.0] * (n // 2)
            self.assertEqual(stats.tail(values, None), ("unresolved", 5.0))

    def test_fixed_percentile_ignores_the_sample_count(self):
        # A run with more samples still reports the percentile its
        # workload fixed, so runs always compare the same statistic.
        values = [float(i) for i in range(2000)]
        label, value = stats.tail(values, 98.0)
        self.assertEqual(label, "p98")
        self.assertEqual(value, stats.percentile(values, 98.0))

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.median([5.0]), 5.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


def span(name, start, end, parent=-1, op=0):
    return (name, start, end, parent, op)


class SelfTimeTest(unittest.TestCase):
    def test_sequential_children(self):
        spans = [span("flow", 0, 100), span("bist.a", 10, 30, 0),
                 span("fault.b", 40, 90, 0)]
        self.assertEqual(stats.self_times(spans), [30, 20, 50])

    def test_overlapping_children_are_not_counted_twice(self):
        # Children [10, 60) and [40, 80) overlap on [40, 60): together they
        # cover 70 of the parent's 100.
        spans = [span("flow", 0, 100), span("bist.a", 10, 60, 0),
                 span("fault.b", 40, 80, 0)]
        self.assertEqual(stats.self_times(spans), [30, 50, 40])

    def test_nested_and_contained_children(self):
        spans = [span("flow", 0, 100), span("bist.a", 10, 90, 0),
                 span("fault.b", 20, 30, 1), span("fault.c", 25, 28, 1)]
        self.assertEqual(stats.self_times(spans), [20, 70, 10, 3])

    def test_child_outside_parent_is_clipped(self):
        spans = [span("flow", 0, 100), span("bist.a", 90, 120, 0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_breakdown_sums_to_operation_span(self):
        spans = [span("flow", 0, 100, op=7), span("bist.a", 10, 60, 0, 7),
                 span("fault.b", 60, 80, 0, 7), span("flow", 200, 250, op=8)]
        rows = stats.op_breakdown(spans)
        self.assertEqual([(r[0], r[1], r[2]) for r in rows],
                         [("flow", 7, 100), ("flow", 8, 50)])
        self.assertEqual(rows[0][3], {"glue": 30, "bist": 50, "fault": 20})
        for _, _, duration, layers in rows:
            self.assertEqual(sum(layers.values()), duration)

    def test_layer_of(self):
        self.assertEqual(stats.layer_of("serve.handle_line"), "serve")
        self.assertEqual(stats.layer_of("op"), "glue")


if __name__ == "__main__":
    unittest.main()
