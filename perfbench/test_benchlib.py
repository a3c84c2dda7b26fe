"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class TailPercentile(unittest.TestCase):
    def test_selects_the_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.tail_percentile(samples, 90), 90)
        self.assertEqual(benchlib.tail_percentile(list(reversed(samples)), 90), 90)
        self.assertEqual(benchlib.tail_percentile(samples, 50), 50)

    def test_refuses_fewer_than_ten_samples_beyond(self):
        # p90 of 99 samples is rank 90: only 9 lie beyond it.
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(99)), 90)
        # 100 samples leave exactly 10 beyond rank 90.
        self.assertEqual(benchlib.tail_percentile(list(range(100)), 90), 89)
        # p99 needs 1000 samples.
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(999)), 99)
        self.assertEqual(benchlib.tail_percentile(list(range(1000)), 99), 989)

    def test_refuses_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(1000)), 100)

    def test_median_is_not_subject_to_the_tail_rule(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        with self.assertRaises(ValueError):
            benchlib.median([])


class Ratios(unittest.TestCase):
    # The scales tempo-perfbench emits: 1e9 for ns per record, 1e3 for ms
    # per call, 1 for a share.
    def test_ns_per_record_gives_its_base(self):
        r = benchlib.Ratio(2.5, 1_000_000, 1e9)
        self.assertAlmostEqual(r.value, 2500.0)
        self.assertEqual(r.base, 1_000_000)
        self.assertAlmostEqual(r.value * r.base / 1e9, 2.5)

    def test_ms_per_call_gives_its_base(self):
        r = benchlib.Ratio(0.3, 4, 1e3)
        self.assertAlmostEqual(r.value, 75.0)
        self.assertEqual(r.base, 4)
        self.assertAlmostEqual(r.value * r.base / 1e3, 0.3)

    def test_share_gives_its_base(self):
        r = benchlib.Ratio(1.5, 6.0)
        self.assertAlmostEqual(r.value, 0.25)
        self.assertEqual(r.base, 6.0)
        self.assertAlmostEqual(r.value * r.base, 1.5)

    def test_an_unexercised_layer_reads_zero_over_a_zero_base(self):
        r = benchlib.Ratio(0.0, 0, 1e9)
        self.assertEqual((r.value, r.base), (0.0, 0))


def raw(records=1000, passes=(1.0, 2.0, 3.0), sync=(), layers=None):
    return {
        "records_per_pass": records,
        "pass_s": list(passes),
        "sync_ms": list(sync),
        "daemon_start_s": [],
        "layers": layers or {},
    }


class Metrics(unittest.TestCase):
    def test_end_to_end_uses_medians(self):
        m = benchlib.end_to_end(raw(), [0.5, 0.9, 0.6], 2048)
        self.assertAlmostEqual(m["records_per_s"], 500.0)
        self.assertAlmostEqual(m["setup_s"], 0.6)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_daemon_start_counts_as_set_up(self):
        r = raw()
        r["daemon_start_s"] = [0.01, 0.03, 0.02]
        m = benchlib.end_to_end(r, [1.0], 1024)
        self.assertAlmostEqual(m["setup_s"], 1.02)

    def test_per_layer_divides_the_ratios_the_traced_window_carries(self):
        layers = {
            # [numerator, base, scale], summed over the traced passes.
            "trg.profile_share": [6.0, 10.0, 1.0],
            "trg.qpass_ms": [5.0, 2, 1e3],
            "trg.popularity_ns_per_record": [1.0, 4000, 1e9],
            "trg.qset_proc_evictions": [20, 2, 1.0],
        }
        m = benchlib.per_layer(raw(), raw(passes=(2.0, 2.0), layers=layers))
        self.assertAlmostEqual(benchlib.value(m["trg.profile_share"]), 0.6)
        self.assertAlmostEqual(benchlib.value(m["trg.qpass_ms"]), 2500.0)
        self.assertEqual(m["trg.qpass_ms"].base, 2)
        self.assertAlmostEqual(benchlib.value(m["trg.popularity_ns_per_record"]), 250000.0)
        self.assertAlmostEqual(benchlib.value(m["trg.qset_proc_evictions"]), 10.0)
        # Traced median pass 2 s against untraced 2 s: no overhead.
        self.assertAlmostEqual(m["bench.tracing_overhead"], 0.0)
        self.assertEqual(m["bench.traced_passes"], 2)
        self.assertNotIn("daemon.sync_p50_ms", m)

    def test_a_metric_measured_on_both_sides_is_refused(self):
        layers = {"bench.traced_passes": [1.0, 1.0, 1.0]}
        with self.assertRaises(ValueError):
            benchlib.per_layer(raw(), raw(layers=layers))

    def test_daemon_sync_tail_needs_a_hundred_samples(self):
        short = raw(sync=[1.0] * 99)
        with self.assertRaises(ValueError):
            benchlib.per_layer(short, raw())
        full = raw(sync=[float(i) for i in range(100)])
        m = benchlib.per_layer(full, raw())
        self.assertEqual(m["daemon.sync_p90_ms"], 89.0)
        self.assertEqual(m["daemon.sync_p50_ms"], 49.5)
        self.assertEqual(m["daemon.sync_samples"], 100)


class Render(unittest.TestCase):
    DECLARED = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]

    def test_units_come_from_the_declaration(self):
        out = benchlib.render({"a_ms": benchlib.Ratio(1.0, 4, 1e3), "b": 3}, self.DECLARED)
        self.assertEqual(out, {"a_ms": {"value": 250.0, "unit": "ms"},
                               "b": {"value": 3.0, "unit": "count"}})

    def test_an_undeclared_metric_is_refused(self):
        with self.assertRaises(ValueError):
            benchlib.render({"a_ms": 1.0, "b": 1.0, "a_sm": 1.0}, self.DECLARED)

    def test_a_missing_metric_is_refused_unless_unexercised_layers_are_allowed(self):
        with self.assertRaises(ValueError):
            benchlib.render({"a_ms": 1.0}, self.DECLARED)
        out = benchlib.render({"a_ms": 1.0}, self.DECLARED, unexercised_ok=True)
        self.assertEqual(out["b"], {"value": 0.0, "unit": "count"})

    def test_an_invalid_name_is_refused(self):
        with self.assertRaises(ValueError):
            benchlib.render({"bad name": 1.0}, [{"name": "bad name", "unit": "ms"}])


class Names(unittest.TestCase):
    def test_name_rule(self):
        for good in ["setup_s", "trg.qpass_ms", "core.engine.skip_ratio", "a-b", "9x"]:
            self.assertTrue(benchlib.valid_name(good), good)
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "x" * 65]:
            self.assertFalse(benchlib.valid_name(bad), bad)

    def test_every_declared_name_is_valid_and_the_sampled_ones_are_declared(self):
        s = spec()
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertTrue(benchlib.valid_name(m["name"]), m["name"])
        e2e = benchlib.end_to_end(raw(), [1.0], 1024)
        self.assertEqual(set(benchlib.render(e2e, s["end_to_end"])),
                         {m["name"] for m in s["end_to_end"]})
        sampled = benchlib.per_layer(raw(sync=[1.0] * 100), raw())
        benchlib.render(sampled, s["per_layer"], unexercised_ok=True)


class Reference(unittest.TestCase):
    def test_every_recorded_mismatch_and_missing_key_is_reported(self):
        recorded = {"a": "1", "b": "2", "c": "3"}
        computed = {"a": "1", "b": "9"}
        self.assertEqual(len(benchlib.compare_reference(recorded, computed)), 2)
        self.assertEqual(benchlib.compare_reference(recorded, dict(recorded)), [])


if __name__ == "__main__":
    unittest.main()
