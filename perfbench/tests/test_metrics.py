"""Tests of the benchmark's metric derivation (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics  # noqa: E402


def span(name, parent, start, end, op=0):
    return {"name": name, "op": op, "parent": parent, "start": start, "end": end}


class TailPercentileTest(unittest.TestCase):
    def test_ladder_boundaries(self):
        self.assertIsNone(metrics.tail_percentile(0))
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(100000), 99.99)
        self.assertEqual(metrics.tail_percentile(10**7), 99.99)

    def test_chosen_percentile_leaves_ten_samples(self):
        for count in (20, 57, 100, 250, 1000, 4321):
            p = metrics.tail_percentile(count)
            self.assertGreaterEqual(count * (100 - p) / 100 + 1e-9, 10)

    def test_percentile_interpolates(self):
        xs = list(range(1, 101))
        self.assertAlmostEqual(metrics.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(metrics.percentile(xs, 90), 90.1)
        self.assertEqual(metrics.percentile([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class NameTest(unittest.TestCase):
    def test_declared_metric_names_and_units_are_valid(self):
        for name, unit in metrics.END_TO_END + metrics.PER_LAYER:
            self.assertTrue(metrics.valid_name(name), name)
            self.assertTrue(metrics.valid_unit(unit), unit)
        names = [n for n, _ in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))

    def test_name_rules(self):
        for good in ("setup_s", "net.fault.dropped", "a-b_c.d", "9lives",
                     "x" * 64):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", ".lead", "_lead", "-lead", "has space", "semi;colon",
                    "slash/name", "x" * 65, "ünï", None, 3):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_benchmark_json_matches_declared_metrics(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            list(metrics.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]],
            list(metrics.PER_LAYER))


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span("a", -1, 1.0, 3.5)]), [2.5])

    def test_back_to_back_children(self):
        spans = [
            span("op", -1, 0.0, 10.0),
            span("build", 0, 1.0, 3.0),
            span("run", 0, 3.0, 8.0),
        ]
        self.assertEqual(metrics.self_times(spans), [3.0, 2.0, 5.0])

    def test_nested_children(self):
        spans = [
            span("op", -1, 0.0, 10.0),
            span("run", 0, 2.0, 9.0),
            span("inner", 1, 4.0, 6.0),
            span("leaf", 2, 4.5, 5.0),
        ]
        # Each span subtracts only its direct children.
        self.assertEqual(metrics.self_times(spans), [3.0, 5.0, 1.5, 0.5])

    def test_overlapping_children_count_once(self):
        spans = [
            span("op", -1, 0.0, 10.0),
            span("a", 0, 1.0, 5.0),
            span("b", 0, 4.0, 6.0),
        ]
        self.assertEqual(metrics.self_times(spans)[0], 5.0)

    def test_children_clipped_to_parent(self):
        spans = [span("op", -1, 2.0, 4.0), span("late", 0, 3.0, 7.0)]
        self.assertEqual(metrics.self_times(spans)[0], 1.0)

    def test_spans_from_rows(self):
        rows = [["exp.op", 3, -1, 0.5, 0.75]]
        self.assertEqual(metrics.spans_from_rows(rows),
                         [span("exp.op", -1, 0.5, 0.75, op=3)])


def raw_record(**overrides):
    record = {
        "workload": "sweep-sync", "seed": 1, "ops": 4, "warmup": 1,
        "timed_ops": 4, "setup_s": [0.3, 0.25, 0.2], "setup_minflt": 12,
        "op_ms": [10.0, 12.0, 11.0, 30.0], "stream_p50_ms": -1,
        "stream_p90_ms": -1, "window_s": 0.063, "fingerprint": "00ab",
        "wrong_ops": 0, "disagreements": 0,
        "peak_rss_kib": 2048, "nivcsw": 3, "steal_ticks": 0, "traced": False,
    }
    record.update(overrides)
    return record


class DerivationTest(unittest.TestCase):
    def test_end_to_end(self):
        m = metrics.end_to_end(raw_record())
        self.assertEqual(set(m), {n for n, _ in metrics.END_TO_END})
        self.assertEqual(m["setup_s"], 0.25)
        self.assertAlmostEqual(m["ops_per_s"], 4 / 0.063)
        self.assertAlmostEqual(m["op_ms_p50"], 11.5)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)

    def test_stream_quantiles_replace_missing_op_list(self):
        m = metrics.end_to_end(raw_record(op_ms=[], stream_p50_ms=5.0,
                                          stream_p90_ms=9.0))
        self.assertEqual((m["op_ms_p50"], m["op_ms_p90"]), (5.0, 9.0))

    def test_per_layer_from_spans(self):
        rows = []
        for op in range(2):
            base = 10.0 * op
            rows.append(["exp.op", op, -1, base, base + 0.010])
            parent = len(rows) - 1
            rows.append(["exp.resolve", op, parent, base, base + 0.001])
            rows.append(["aer.world_build", op, parent, base + 0.001,
                         base + 0.003])
            rows.append(["net.run", op, parent, base + 0.003, base + 0.009])
            rows.append(["exp.harvest", op, parent, base + 0.009,
                         base + 0.010])
        rows.append(["exp.report", -1, -1, 30.0, 30.002])
        layers = {k: [1.0, 3.0] for k in (
            "rows_built", "lookup_ns", "queue_peak", "sim_time",
            "fault_dropped", "acks", "dead", "bits_per_node",
            "candidates_per_node", "max_deferred", "mem_bytes_per_node",
            "op_minflt")}
        layers.update(deliveries=[600.0, 600.0], retransmits=[2.0, 2.0],
                      dups=[1.0, 0.0])
        record = raw_record(traced=True, spans=rows, layers=layers,
                            traced_op_ms=[10.0, 10.0], span_ns=2e4,
                            traced_fingerprint="00ab", traced_wrong_ops=0)
        m = metrics.per_layer(record)
        self.assertEqual(set(m), {n for n, _ in metrics.PER_LAYER})
        self.assertAlmostEqual(m["exp.op_overhead_ms"], 2.0)
        self.assertAlmostEqual(m["aer.world_build_ms"], 2.0)
        self.assertAlmostEqual(m["net.run_ms"], 6.0)
        self.assertAlmostEqual(m["exp.report_ms"], 2.0)
        self.assertAlmostEqual(m["net.ns_per_delivery"], 0.012e9 / 1200)
        self.assertAlmostEqual(m["net.recovery.dup_ratio"], 0.25)
        self.assertAlmostEqual(m["sampler.rows_built"], 2.0)
        # Five 20 us spans per op: 0.1 ms of a 10 ms traced op.
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1 / 9.9)


class GateTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(metrics.gate(raw_record(), {}), (0, []))

    def test_wrong_ops_fail(self):
        failed, reasons = metrics.gate(raw_record(wrong_ops=2), {})
        self.assertEqual(failed, 2)
        self.assertEqual(len(reasons), 1)

    def test_pin_mismatch_fails_every_op(self):
        pins = {"sweep-sync": [{"seed": 1, "ops": 4, "fingerprint": "ffff"}]}
        self.assertEqual(metrics.gate(raw_record(), pins)[0], 4)
        pins["sweep-sync"][0]["fingerprint"] = "00ab"
        self.assertEqual(metrics.gate(raw_record(), pins), (0, []))
        # A pin for another op count does not apply.
        pins["sweep-sync"][0].update(fingerprint="ffff", ops=5)
        self.assertEqual(metrics.gate(raw_record(), pins), (0, []))

    def test_find_pin(self):
        pin = {"seed": 1, "ops": 4, "fingerprint": "00ab"}
        pins = {"sweep-sync": [{"seed": 2, "ops": 4, "fingerprint": "ff"},
                               pin]}
        self.assertIs(metrics.find_pin(raw_record(), pins), pin)
        self.assertIsNone(metrics.find_pin(raw_record(seed=3), pins))
        self.assertIsNone(metrics.find_pin(raw_record(ops=5), pins))
        self.assertIsNone(metrics.find_pin(raw_record(), {}))

    def test_error_record_fails_every_op(self):
        record = {"workload": "sweep-sync", "seed": 1, "ops": 4,
                  "timed_ops": 4, "error": "boom"}
        failed, reasons = metrics.gate(record, {})
        self.assertEqual(failed, 4)
        self.assertIn("boom", reasons[0])

    def test_traced_fingerprint_must_match(self):
        record = raw_record(traced=True, traced_fingerprint="0bad",
                            traced_wrong_ops=0)
        self.assertEqual(metrics.gate(record, {})[0], 4)


class ResultLineTest(unittest.TestCase):
    def test_round_trip(self):
        values = metrics.end_to_end(raw_record())
        units = dict(metrics.END_TO_END)
        line = metrics.result_line(True, 4, 0, values, units)
        doc = metrics.parse_result(line)
        self.assertEqual(doc["attempted"], 4)
        self.assertIs(doc["correct"], True)
        for name, value in values.items():
            # Every digit survives the round trip.
            self.assertEqual(doc["metrics"][name]["value"], value)
            self.assertEqual(doc["metrics"][name]["unit"], units[name])

    def test_rejects_malformed(self):
        good = json.loads(metrics.result_line(
            True, 4, 0, {"setup_s": 0.5}, {"setup_s": "s"}))
        for mutate in (
                lambda d: d.pop("failed"),
                lambda d: d.update(extra=1),
                lambda d: d.update(attempted=0),
                lambda d: d.update(failed=5),
                lambda d: d.update(correct="yes"),
                lambda d: d["metrics"].update({"bad name": {"value": 1, "unit": "s"}}),
                lambda d: d["metrics"]["setup_s"].update(unit="seconds!"),
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with self.assertRaises(ValueError):
                metrics.parse_result(json.dumps(doc))


if __name__ == "__main__":
    unittest.main()
