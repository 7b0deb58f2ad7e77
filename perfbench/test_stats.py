"""Tests of the benchmark's statistics: python3 -m unittest discover -s perfbench"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


def span(name, lane, t0, t1):
    return {"name": name, "lane": lane, "t0": float(t0), "t1": float(t1)}


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.tail(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail(list(range(999)))[0], 95.0)

    def test_falls_back_through_the_ladder(self):
        self.assertEqual(stats.tail(list(range(200)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)
        self.assertEqual(stats.tail(list(range(40)))[0], 75.0)
        self.assertEqual(stats.tail(list(range(20)))[0], 50.0)

    def test_too_few_samples_report_the_median(self):
        p, value, n = stats.tail([5.0, 1.0, 3.0])
        self.assertEqual((p, value, n), (50.0, 3.0, 3))

    def test_reports_value_and_count(self):
        p, value, n = stats.tail([float(i) for i in range(1, 1001)])
        self.assertEqual(n, 1000)
        self.assertAlmostEqual(value, stats.percentile(range(1, 1001), 99.0))
        self.assertAlmostEqual(value, 990.01)

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 11.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)

    def test_scale_free(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertAlmostEqual(stats.quartile_spread(values),
                               stats.quartile_spread([v * 7 for v in values]))


class DueTimeLatency(unittest.TestCase):
    def test_counts_from_due_not_from_send(self):
        # Job 1 was due at 10 ms but sent late; its latency includes the wait.
        self.assertEqual(stats.due_latencies([0.0, 10.0], [2.0, 25.0]),
                         [2.0, 15.0])

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.due_latencies([0.0], [1.0, 2.0])

    def test_backlog(self):
        self.assertFalse(stats.backlog_grows([1, 2, 1, 0] * 25, final_depth=1))
        self.assertTrue(stats.backlog_grows([1] * 10, final_depth=40))
        growing = [1] * 25 + [5] * 25 + [10] * 25 + [20] * 25
        self.assertTrue(stats.backlog_grows(growing, final_depth=3))


class SelfTime(unittest.TestCase):
    def test_child_time_is_subtracted_from_parent(self):
        spans = [span("harness.cycle", 1, 0, 100),
                 span("core.compress", 1, 10, 40),
                 span("core.decompress", 1, 50, 80)]
        self_us = stats.self_times(spans)
        self.assertEqual(self_us["harness"], 40.0)
        self.assertEqual(self_us["core"], 60.0)

    def test_only_direct_children_count(self):
        spans = [span("harness.step", 1, 0, 100),
                 span("cas.put", 1, 10, 60),
                 span("metrics.check", 1, 20, 30)]
        self_us = stats.self_times(spans)
        self.assertEqual(self_us["harness"], 50.0)
        self.assertEqual(self_us["cas"], 40.0)
        self.assertEqual(self_us["metrics"], 10.0)

    def test_lanes_do_not_nest_into_each_other(self):
        spans = [span("service.submit", 1, 0, 10),
                 span("service.wait", 2, 5, 50),
                 span("harness.job", 0, 0, 50)]
        self_us = stats.self_times(spans)
        self.assertEqual(self_us, {"service": 55.0})

    def test_reads_harness_trace_events(self):
        trace = {"traceEvents": [
            {"name": "cas.put", "ph": "X", "ts": 9.0, "dur": 5.0,
             "args": {"t0": 3.0, "lane": 2}},
            {"name": "ignored", "ph": "i", "ts": 1.0}]}
        self.assertEqual(stats.spans_from_trace(trace),
                         [span("cas.put", 2, 3.0, 8.0)])


class Coverage(unittest.TestCase):
    def test_closed_loop_operations(self):
        spans = [span("harness.op", 1, 0, 100),
                 span("core.compress", 1, 0, 40),
                 span("core.decompress", 1, 40, 90),
                 span("harness.op", 1, 200, 300),
                 span("core.compress", 1, 200, 300),
                 span("harness.setup", 1, 400, 500)]
        self.assertAlmostEqual(stats.coverage(spans), 0.95)

    def test_open_loop_counts_only_job_intervals(self):
        spans = [span("harness.job", 0, 100, 200),
                 span("service.submit", 1, 100, 110),
                 span("service.wait", 2, 120, 200),
                 span("service.submit", 1, 500, 510)]
        self.assertAlmostEqual(stats.coverage(spans), 0.9)


class EndToEnd(unittest.TestCase):
    def test_field_set_throughput_sums_per_field_medians(self):
        # Field medians 1000 ms and 500 ms: 3 GB in 1.5 s.
        leg = {"series": {"write.bytes": [3e9, 3e9],
                          "core.compress_ms.f0": [1000.0, 3000.0, 1000.0],
                          "core.compress_ms.f1": [500.0, 500.0, 900.0]},
               "scalars": {}}
        self.assertAlmostEqual(run.codec_gbps(leg, "write"), 2.0)

    def test_operation_throughput_is_the_median_over_operations(self):
        leg = {"series": {"read.bytes": [1e6, 2e6, 4e6],
                          "read.codec_ms": [1.0, 1.0, 1.0]},
               "scalars": {}}
        self.assertAlmostEqual(run.codec_gbps(leg, "read"), 2.0)

    def test_device_throughput_is_bytes_over_modelled_seconds(self):
        leg = {"series": {}, "scalars": {"model.write_bytes": 6e9, "model.write_s": 0.02,
                                         "model.read_bytes": 6e9, "model.read_s": 0.01}}
        self.assertAlmostEqual(run.device_gbps(leg, "write"), 300.0)
        self.assertAlmostEqual(run.device_gbps(leg, "read"), 600.0)
        self.assertEqual(run.device_gbps({"series": {}, "scalars": {}}, "read"), 0.0)

    def test_set_up_median_and_ratio(self):
        leg = {"series": {}, "scalars": {"in_bytes": 10.0, "kept_bytes": 4.0}}
        m = run.end_to_end({"setup_s": [0.3, 0.1, 0.2]}, leg)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["ratio"], 2.5)

    def test_memory_is_the_peak_net_of_inputs(self):
        self.assertAlmostEqual(
            run.program_rss_mb({"peak_rss_mb": 120.0, "input_mb": 50.0}), 70.0)


class BenchmarkFile(unittest.TestCase):
    """The metrics run.py prints are exactly the ones BENCHMARK.json names."""

    def setUp(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_end_to_end_names_and_units(self):
        declared = [(m["name"], m["unit"]) for m in self.bench["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))

    def test_per_layer_names_and_units(self):
        leg = {"series": {"write.ms": [1.0]}, "scalars": {}}
        raw = {"legs": {"traced": leg, "untraced": leg}, "trace": {},
               "gen_s": 1.0, "peak_rss_mb": 2.0, "input_mb": 1.0,
               "max_err_ratio": 0.5, "failed": 0, "attempted": 1}
        printed = [(n, u) for n, u, _ in run.per_layer(raw, raw)]
        declared = [(m["name"], m["unit"]) for m in self.bench["per_layer"]]
        self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()
