"""Self-tests of the benchmark's statistics and metric catalogue.

    python3 perfbench/test_perfbench.py

Needs no build: it checks the raw-sample percentiles and the rule on
samples beyond them, the rate over the timed window, that every metric
run.py can print is declared in BENCHMARK.json with its unit, and that a
difference from the committed digests fails a run.
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank_reads_a_sample(self):
        samples = [float(v) for v in range(100, 0, -1)]  # unsorted input
        self.assertEqual(stats.percentile(samples, 50), 50.0)
        self.assertEqual(stats.percentile(samples, 90), 90.0)
        self.assertEqual(stats.percentile(samples, 99), 99.0)
        self.assertEqual(stats.percentile(samples, 100), 100.0)
        self.assertEqual(stats.percentile([3.5], 50), 3.5)
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50), 3.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_ten_beyond_rule(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertTrue(stats.supported(100, 90))
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertFalse(stats.supported(99, 90))
        self.assertTrue(stats.supported(1000, 99))
        self.assertFalse(stats.supported(999, 99))
        self.assertFalse(stats.supported(0, 50))
        self.assertEqual(stats.beyond(10000, 99.9), 10)
        self.assertTrue(stats.supported(10000, 99.9))

    def test_report_marks_unsupported_tails(self):
        line = run.latency_line({"samples_ms": [float(v) for v in range(1, 41)]})
        self.assertIn("n=40", line)
        self.assertIn("p50=20.0000 ms", line)
        self.assertIn("p90=unsupported (4 beyond < 10)", line)
        line = run.latency_line({"samples_ms": [float(v) for v in range(1, 1001)]})
        self.assertIn("p90=900.0000 ms (100 beyond)", line)
        self.assertIn("p99=990.0000 ms (10 beyond)", line)
        self.assertIn("p99.9=unsupported", line)


class Rates(unittest.TestCase):
    def test_rate_over_window(self):
        self.assertAlmostEqual(stats.rate(500, 2.5), 200.0)
        with self.assertRaises(ValueError):
            stats.rate(1, 0.0)

    def test_windowed_rate_steady(self):
        done = [(i + 1) / 100.0 for i in range(1000)]  # 100/s for 10 s
        self.assertAlmostEqual(stats.windowed_rate(done), 100.0)

    def test_windowed_rate_ignores_one_stalled_slice(self):
        # 100/s, except that one completion in the middle waits 2 s.
        done, t = [], 0.0
        for i in range(1000):
            t += 2.0 if i == 550 else 0.01
            done.append(t)
        self.assertAlmostEqual(stats.windowed_rate(done), 100.0)
        self.assertLess(stats.rate(len(done), done[-1]), 85.0)

    def test_windowed_rate_few_samples(self):
        # Fewer completions than slices: one slice per completion.
        self.assertAlmostEqual(stats.windowed_rate([1.0, 2.0, 3.0]), 1.0)
        with self.assertRaises(ValueError):
            stats.windowed_rate([])


def fake_phase(n):
    return {
        "samples_ms": [1.0 + i / n for i in range(n)],
        "done_s": [(i + 1) / 100.0 for i in range(n)],
        "attempted": n, "ok": n, "typed_errors": 0, "rejected": 0,
        "mismatches": 0, "window_s": n / 100.0,
    }


def fake_untraced(n):
    raw = fake_phase(n)
    raw.update({"workload": "accel_sim", "seed": 1, "distinct_requests": 24,
                "setup_s": [0.3, 0.1, 0.2], "server_vm_hwm_kb": 2048.0,
                "server_cpu_ms": 50.0, "context_miss_timed": 0,
                "host_steal_frac": 0.0, "digest_mismatches": [],
                "simulated": {"wall_cycles_per_req": 5.7e7,
                              "msgs_conflict_frac": 0.06}})
    return raw


class Catalogue(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.bench[key]}

    def test_catalogue_matches_benchmark_json(self):
        self.assertEqual(self.declared("end_to_end"), stats.END_TO_END)
        self.assertEqual(self.declared("per_layer"), stats.PER_LAYER)
        gated = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(gated, list(run.WORKLOADS))

    def test_digests_cover_every_workload(self):
        with open(run.DIGESTS) as f:
            digests = json.load(f)
        # Every request a seed can draw: 4 taus x 6 (k, bits) knobs on the
        # encoder workloads, 24 hw points x 5 DRAM bandwidths on accel_sim.
        self.assertEqual({w: len(d) for w, d in digests.items()},
                         {"encoder_small": 24, "encoder_large": 24, "accel_sim": 120})
        for d in digests.values():
            for value in d.values():
                self.assertRegex(value, "^[0-9a-f]{16}$")

    def test_untraced_run_prints_every_end_to_end_metric(self):
        raw = fake_untraced(200)
        with contextlib.redirect_stdout(io.StringIO()):
            correct, attempted, failed, metrics = run.end_to_end(raw)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (200, 0))
        self.assertEqual(set(metrics), set(self.declared("end_to_end")))
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_request"], 0.25)
        self.assertAlmostEqual(metrics["throughput_rps"], 100.0)

    def test_mismatch_or_timed_context_miss_fails_the_run(self):
        raw = fake_untraced(50)
        raw.update({"mismatches": 1, "ok": 49})
        with contextlib.redirect_stdout(io.StringIO()):
            correct, _, failed, _ = run.end_to_end(raw)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)
        raw.update({"mismatches": 0, "ok": 50, "context_miss_timed": 1})
        with contextlib.redirect_stdout(io.StringIO()):
            correct, _, failed, _ = run.end_to_end(raw)
        self.assertFalse(correct)
        self.assertEqual(failed, 0)

    def test_committed_digest_difference_fails_the_run(self):
        raw = fake_untraced(50)
        raw["digest_mismatches"] = ["banks16-inter-lanes8-reuse1-dram128"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            correct, _, failed, _ = run.end_to_end(raw)
        self.assertFalse(correct)
        self.assertEqual(failed, 0)
        self.assertIn("23 of 24 distinct answers match", out.getvalue())
        self.assertIn("differs: banks16-inter-lanes8-reuse1-dram128", out.getvalue())

    def test_traced_run_prints_every_per_layer_metric(self):
        raw = fake_phase(20)
        raw.update({"workload": "encoder_large", "seed": 1,
                    "distinct_requests": 8, "digest_mismatches": [],
                    "untraced": fake_phase(20),
                    "layers": {name: 0.5 for name in stats.PER_LAYER},
                    "encoder_span_ms_per_req": 10.0,
                    "encoder_span_shares": {"value_projection": 0.5},
                    "modeled_shares": {"fig1b_benchmark": "De DETR", "fig1b_mm": 0.3,
                                       "fig1b_softmax": 0.01, "fig1b_msgs_ag": 0.66,
                                       "fig1b_other": 0.03},
                    "spans_dropped": 0})
        raw["layers"]["core.context_miss_timed"] = 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            correct, attempted, failed, metrics = run.per_layer(raw)
        # The named kernel shares plus the unattributed share cover the span.
        self.assertIn("sum                  1.0000", out.getvalue())
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (40, 0))
        self.assertEqual(set(metrics), set(self.declared("per_layer")))


if __name__ == "__main__":
    unittest.main()
