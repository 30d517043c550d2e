"""Tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def span(name, start, end, parent=-1, decision=-1):
    return [name, start, end, parent, decision]


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond_the_reported_rank(self):
        # n = 20: the median's rank is 10, leaving exactly 10 beyond it.
        p, value, n = metrics.tail(range(1, 21))
        self.assertEqual((p, value, n), (50.0, 10, 20))
        # n = 40: p75 has rank 30 and 10 beyond; p90 would leave only 4.
        self.assertEqual(metrics.tail(range(1, 41)), (75.0, 30, 40))
        # n = 256 (a serve-catalog fleet): p95 leaves 12, p99 only 2.
        self.assertEqual(metrics.tail(range(1, 257)), (95.0, 244, 256))
        # n = 1000: p99 leaves exactly 10 beyond rank 990.
        self.assertEqual(metrics.tail(range(1, 1001)), (99.0, 990, 1000))
        # n = 10000: p99.9 leaves exactly 10.
        self.assertEqual(metrics.tail(range(1, 10001))[0], 99.9)

    def test_small_samples_have_no_tail(self):
        self.assertEqual(metrics.tail([]), (None, 0.0, 0))
        self.assertEqual(metrics.tail([7.0]), (None, 7.0, 1))
        self.assertEqual(metrics.tail([3, 1, 2]), (None, 2, 3))
        # 19 samples: the median (rank 10) has only 9 beyond it.
        self.assertEqual(metrics.tail(range(1, 20)), (None, 10, 19))

    def test_order_of_samples_does_not_matter(self):
        xs = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(metrics.tail(xs), metrics.tail(sorted(xs)))


class SelfTimeTest(unittest.TestCase):
    def test_child_time_is_subtracted_once(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 40, parent=0),
            span("b", 30, 60, parent=0),  # overlaps a by 10
            span("c", 90, 120, parent=0),  # sticks out of the parent
            span("grandchild", 12, 20, parent=1),
        ]
        self.assertEqual(metrics.self_times(spans), [100 - 60, 30 - 8, 30, 30, 8])

    def test_leaf_and_nested_children(self):
        spans = [span("r", 0, 10), span("x", 2, 4, 0), span("y", 2, 4, 0)]
        self.assertEqual(metrics.self_times(spans), [8, 2, 2])

    def test_union_length(self):
        self.assertEqual(metrics.union_length([]), 0)
        self.assertEqual(metrics.union_length([(0, 5), (3, 8), (10, 11), (10, 12)]), 10)


class UnattributedTest(unittest.TestCase):
    def test_untraced_wall_minus_root_coverage(self):
        spans = [
            span("datasets.parse", 0, 1_000_000_000),
            span("representation.represent", 1_000_000_000, 3_000_000_000),
            span("sharded.prepare", 1_500_000_000, 1_600_000_000, parent=1),
            span("report.render", 3_500_000_000, 4_000_000_000),
            span("probe.scratch_solve", 4_000_000_000, 9_000_000_000),
        ]
        # Roots cover 3.5 s; children and probe spans add nothing.
        self.assertAlmostEqual(metrics.unattributed_s(4.25, spans), 0.75)
        self.assertAlmostEqual(metrics.unattributed_s(3.0, spans), -0.5)

    def test_layer_metrics_pair_each_trace_with_its_wall(self):
        trace = {"spans": [span("datasets.parse", 0, 2_000_000_000)], "counters": {"datasets.bytes": 4e6}}
        values, _ = metrics.layer_metrics([trace, trace, trace], [2.5, 2.1, 3.0])
        self.assertAlmostEqual(values["cli.unattributed_s"], 0.5)
        self.assertAlmostEqual(values["datasets.parse_mb_per_s"], 2.0)
        self.assertEqual(values["fleet.tenant_ms_tail"], 0.0)


class QualityTest(unittest.TestCase):
    def test_sums_before_dividing(self):
        # Two decisions: 3/4 and 1/16 -> 4/20, not the mean of the ratios.
        self.assertAlmostEqual(metrics.quality_frac([3.0, 1.0], [4.0, 16.0]), 0.2)
        self.assertEqual(metrics.quality_frac([], []), 0.0)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_printed_metrics(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
        per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        self.assertEqual(e2e, metrics.END_TO_END)
        self.assertEqual(per_layer, metrics.PER_LAYER)

    def test_layer_metrics_cover_the_spec(self):
        values, _ = metrics.layer_metrics([{"spans": [], "counters": {}}], [1.0])
        self.assertEqual(sorted(values), sorted(name for name, _, _ in metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
