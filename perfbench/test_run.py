"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_run.py
"""

import json
import os
import statistics
import unittest

import run


def span(id, parent, start, end, name="s", run_id=0):
    return {"id": id, "parent": parent, "name": name, "run": run_id,
            "start_ns": start, "end_ns": end}


class Summaries(unittest.TestCase):
    def test_median_and_quartiles_match_the_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        s = run.summarize(values)
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["q1"], s["median"], s["q3"], s["n"]), (q1, median, q3, 7))
        self.assertEqual(s["median"], 4.0)
        self.assertEqual((s["q1"], s["q3"]), (2.0, 7.0))

    def test_even_count_median_is_the_midpoint(self):
        s = run.summarize([4.0, 1.0, 3.0, 2.0])
        self.assertEqual(s["median"], 2.5)

    def test_one_sample_is_its_own_median_and_quartiles(self):
        self.assertEqual(run.summarize([2.5]), {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1})

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.summarize([])


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(0, None, 10, 25)]), {0: 15})

    def test_nested_children_are_subtracted_one_level_at_a_time(self):
        spans = [
            span(0, None, 0, 100),  # root
            span(1, 0, 10, 60),     # child
            span(2, 1, 20, 30),     # grandchild
            span(3, 1, 40, 45),     # grandchild
            span(4, 0, 70, 90),     # child
        ]
        selfs = run.self_times(spans)
        self.assertEqual(selfs[0], 100 - 50 - 20)
        self.assertEqual(selfs[1], 50 - 10 - 5)
        self.assertEqual(selfs[2], 10)
        self.assertEqual(selfs[4], 20)
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span(0, None, 0, 100),
            span(1, 0, 10, 50),
            span(2, 0, 30, 70),     # overlaps child 1 over 30..50
            span(3, 0, 90, 120),    # runs past the parent's end
        ]
        self.assertEqual(run.self_times(spans)[0], 100 - 60 - 10)


class TracingOverhead(unittest.TestCase):
    @staticmethod
    def reps(*walls):
        """Alternating untraced/traced repetitions with these wall times."""
        return [{"traced": i % 2 == 1, "setup_s": 0.5, "run_s": w - 0.5}
                for i, w in enumerate(walls)]

    def test_overhead_is_the_median_ratio_to_the_untraced_rep_before(self):
        # Pairs (2, 2.2), (4, 4.4), (1, 3): ratios 1.1, 1.1, 3.
        samples = self.reps(2.0, 2.2, 4.0, 4.4, 1.0, 3.0, 7.0)
        self.assertAlmostEqual(run.tracing_overhead(samples), 0.1)

    def test_host_drift_between_pairs_does_not_count(self):
        # The host slows 3x halfway; tracing itself costs nothing.
        samples = self.reps(1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0)
        self.assertEqual(run.tracing_overhead(samples), 0.0)

    def test_faster_traced_reps_read_negative(self):
        self.assertLess(run.tracing_overhead(self.reps(2.0, 1.9)), 0.0)

    def test_noc_shares_sum_to_the_loop_minus_its_self_time(self):
        # One traced repetition: a window with two cycles of
        # inject/tick/eject spans and 4 ns of loop bookkeeping.
        spans = [span(0, None, 0, 100, "rep"), span(1, 0, 0, 100, "noc.window")]
        t = 0
        for _ in range(2):
            for name, ns in (("noc.inject", 3), ("noc.tick", 40), ("noc.eject", 5)):
                spans.append(span(len(spans), 1, t, t + ns, name))
                t += ns
            t += 2
        raw = {
            "counters": {"noc.flit_hops": 10},
            "inputs": {"routers": 4, "window_cycles": 2},
            "samples": [
                {"traced": False, "setup_s": 0.0, "run_s": 1.0, "work": 1},
                {"traced": True, "setup_s": 0.0, "run_s": 1.02, "work": 1},
            ],
        }
        m = run.per_layer(raw, spans)
        shares = m["noc.inject_share"] + m["noc.tick_share"] + m["noc.eject_share"]
        self.assertAlmostEqual(shares, 0.96)
        self.assertAlmostEqual(m["noc.tick_ns_per_flit_hop"], 8.0)
        self.assertAlmostEqual(m["noc.tick_ns_per_router_cycle"], 10.0)
        self.assertAlmostEqual(m["trace.overhead"], 0.02)
        self.assertEqual(m["engine.started"], 0.0)


class HostScaling(unittest.TestCase):
    def test_a_slow_host_scales_rates_up_and_times_down(self):
        probe = run.PROBE_REF_S * 1.25
        raw = {
            "samples": [
                {"traced": False, "setup_s": 0.5, "run_s": 2.0, "work": 100},
                {"traced": True, "setup_s": 9.0, "run_s": 9.0, "work": 1},
            ],
            "probe_s": [probe, probe, 3 * probe],
            "peak_rss_kb": 2048,
        }
        m = run.end_to_end(raw)
        self.assertAlmostEqual(run.host_factor(raw["probe_s"]), 1.25)
        self.assertAlmostEqual(m["work_per_s"]["median"], 50 * 1.25)
        self.assertAlmostEqual(m["setup_s"]["median"], 0.5 / 1.25)
        self.assertEqual(m["work_per_s"]["n"], 1)
        self.assertEqual(m["peak_rss_mb"]["median"], 2.0)


class Definition(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
