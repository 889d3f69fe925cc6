"""Unit tests of the benchmark's summary code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import summary

HERE = os.path.dirname(os.path.abspath(__file__))


def untraced_raw(**over):
    raw = {
        "trace": False,
        "checks": {"rounds_ran": True, "ingest_consistent": True},
        "setup_s": [0.30, 0.20, 0.25],
        "rounds": {
            "zones": 4, "errors": 0,
            "wall_ms": [float(10 + k % 10) for k in range(120)],
            "nrmse": [0.02] * 120, "energy_j": [1.5] * 120,
            "failed": [1] + [0] * 119, "shed": [1] + [0] * 119,
        },
        "ingest": {
            "open_latency_us": [20.0 + k % 10 for k in range(2000)],
            "offered": 2000, "acked": 1990, "busy": 6, "bad": 3, "lost": 1,
            "closed_pass_fps": [5e5, 6e5, 4e5],
        },
        "peak_rss_kb": 102400.0,
    }
    for k, v in over.items():
        raw[k] = v
    return raw


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(summary.percentile(list(range(1, 101)), 0.9), 90)
        with self.assertRaises(summary.SummaryError):
            summary.percentile(list(range(1, 100)), 0.9)

    def test_p50_and_p99_thresholds(self):
        self.assertEqual(summary.percentile(list(range(1, 21)), 0.5), 10)
        with self.assertRaises(summary.SummaryError):
            summary.percentile(list(range(1, 20)), 0.5)
        summary.percentile([1.0] * 1000, 0.99)
        with self.assertRaises(summary.SummaryError):
            summary.percentile([1.0] * 999, 0.99)

    def test_empty_and_out_of_range(self):
        with self.assertRaises(summary.SummaryError):
            summary.percentile([], 0.5)
        with self.assertRaises(summary.SummaryError):
            summary.percentile([1.0] * 100, 1.0)

    def test_order_does_not_matter(self):
        xs = [float(k) for k in range(200)]
        self.assertEqual(summary.percentile(xs[::-1], 0.9),
                         summary.percentile(xs, 0.9))

    def test_windowed_percentile_ignores_stalled_windows(self):
        xs = [20.0] * 2000
        xs[0:500] = [5000.0] * 500  # five windows of twenty spoiled
        self.assertEqual(summary.windowed_percentile(xs, 0.9), 20.0)
        self.assertEqual(summary.percentile(xs, 0.9), 5000.0)

    def test_windowed_percentile_follows_a_slowdown_everywhere(self):
        xs = [20.0, 30.0] * 1000
        self.assertEqual(summary.windowed_percentile(xs, 0.9), 30.0)
        self.assertEqual(
            summary.windowed_percentile([x * 2 for x in xs], 0.9), 60.0)

    def test_round_metrics_use_windows_of_the_timed_rounds(self):
        raw = untraced_raw()
        wall = [40.0] * 100 + [30.0] * 20  # last window fast
        raw["rounds"].update(wall_ms=wall, nrmse=[0.02] * 120,
                             energy_j=[1.5] * 120, failed=[0] * 120,
                             shed=[0] * 120)
        m = summary.end_to_end(raw)
        self.assertEqual(m["round_p90_ms"], 40.0)
        # Six windows, one fast: quartiles interpolate between them.
        self.assertAlmostEqual(m["round_p50_ms"], 37.5)
        self.assertAlmostEqual(m["zones_per_s"],
                               100 + 0.25 * (4 / 0.03 - 100))
        raw["rounds"]["wall_ms"] = [30.0] * 60 + [40.0] * 60
        self.assertEqual(summary.end_to_end(raw)["round_p50_ms"], 30.0)

    def test_windowed_percentile_applies_the_rule_per_window(self):
        with self.assertRaises(summary.SummaryError):
            summary.windowed_percentile([1.0] * 1990, 0.9)


class FailureAccounting(unittest.TestCase):
    def test_attempted_and_failed_count_rounds_and_frames(self):
        attempted, failed = summary.accounting(untraced_raw())
        self.assertEqual(attempted, 120 + 2000)
        self.assertEqual(failed, 6 + 3 + 1)

    def test_round_errors_count_as_attempted_and_failed(self):
        raw = untraced_raw()
        raw["rounds"]["errors"] = 2
        self.assertEqual(summary.accounting(raw), (122 + 2000, 12))

    def test_ok_shares(self):
        m = summary.end_to_end(untraced_raw())
        self.assertAlmostEqual(m["zone_ok_share"], 1.0 - 1 / 480)
        self.assertAlmostEqual(m["ingest_ok_share"], 1.0 - 10 / 2000)
        self.assertGreater(m["zones_per_s"], 0.0)

    def test_share_rejects_impossible_counts(self):
        with self.assertRaises(summary.SummaryError):
            summary.share(5, 0)
        with self.assertRaises(summary.SummaryError):
            summary.share(6, 5)

    def test_failed_check_makes_the_run_incorrect(self):
        raw = untraced_raw(checks={"rounds_ran": True, "ingest": False})
        self.assertFalse(summary.result(raw)["correct"])
        self.assertTrue(summary.result(untraced_raw())["correct"])


class MetricTable(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_end_to_end_names_units_bounds_match(self):
        table = {m["name"]: (m["unit"], m["better"], m["bound"])
                 for m in self.bench["end_to_end"]}
        self.assertEqual(table, summary.END_TO_END)
        self.assertEqual(table["setup_s"][:2], ("s", "lower"))
        self.assertEqual(max(b for _, _, b in table.values()),
                         table["setup_s"][2])

    def test_per_layer_names_and_units_match(self):
        table = {m["name"]: (m["unit"], m["better"])
                 for m in self.bench["per_layer"]}
        self.assertEqual(table, summary.PER_LAYER)

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         summary.WORKLOADS)

    def test_result_reports_every_end_to_end_metric_nonzero(self):
        res = summary.result(untraced_raw())
        self.assertEqual(set(res["metrics"]), set(summary.END_TO_END))
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], summary.END_TO_END[name][0])
            self.assertGreater(m["value"], 0, name)

    def test_traced_result_reports_every_per_layer_metric(self):
        layers = {name: 1.0 for name in summary.PER_LAYER}
        layers["cs.solve_ms_p50"] = [float(k) for k in range(1, 21)]
        layers["gateway.ingest_p99_us"] = [1.0] * 999 + [9.0] * 11
        raw = {"trace": True, "layers": layers,
               "counts": {"rounds": 40, "frames": 1000}}
        res = summary.result(raw)
        self.assertEqual(set(res["metrics"]), set(summary.PER_LAYER))
        self.assertEqual(res["metrics"]["cs.solve_ms_p50"]["value"], 10.0)
        self.assertEqual(res["metrics"]["gateway.ingest_p99_us"]["value"],
                         9.0)
        self.assertEqual((res["attempted"], res["failed"]), (1040, 0))


if __name__ == "__main__":
    unittest.main()
