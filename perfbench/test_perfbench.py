"""Self-tests of the benchmark's own logic; they build and run nothing.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import report  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK) as f:
            self.bench = json.load(f)

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        self.assertEqual(self.bench["command"][0], "python3")
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)
        for path in self.bench["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(os.path.dirname(HERE),
                                                       path)))

    def test_metric_name_grammar(self):
        names = []
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], report.NAME_RE)
            self.assertRegex(m["unit"], report.UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, report.NAME_RE)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_per_layer_names_match_the_summary(self):
        counts = {name: 1.0 for name in (
            "pair_ns.scorep", "xraysim.dispatch_ns", "scorepsim.cyg_pair_ns",
            "xraysim.unpatched_ns", "scorepsim.enter_exit_ns",
            "talpsim.start_stop_ns", "pair_ns.talp")}
        spans = {name: ([1.0], [1.0]) for name in (
            "apps.model_s", "cg.build_s", "cg.csr_s", "binsim.compile_s",
            "binsim.process_s", "dyncapi.construct_s")}
        raw = {"counts": counts,
               "samples": {"rep_s": [1.0], "rep_s.untraced": [1.0]}}
        layers = report.per_layer(raw, spans, {})
        self.assertEqual(set(layers),
                         {m["name"] for m in self.bench["per_layer"]})


class StatisticsTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertIsNone(report.tail(list(range(19))))
        pct, value = report.tail(list(range(100)))
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for v in range(100) if v > value), 10)

    def test_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        q1, q2, q3 = report.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))


class SpanTest(unittest.TestCase):
    # [id, parent, name, start, end]
    SPANS = [
        [1, 0, "bench.rep_s", 0, 100],
        [2, 1, "select.run_s.mpi", 10, 40],
        [3, 1, "mpisim.run_ranks_s.full", 50, 90],
        [4, 3, "binsim.run_s.full", 52, 80],   # two ranks, overlapping
        [5, 3, "binsim.run_s.full", 55, 88],
        [6, 0, "bench.setup_s", 200, 260],
        [7, 6, "cg.build_s", 200, 250],
    ]

    def test_self_time_subtracts_covered_child_interval(self):
        selfs = report.span_self_times(self.SPANS)
        self.assertEqual(selfs[1], 100 - 30 - 40)
        self.assertEqual(selfs[3], 40 - (88 - 52))  # union, not sum
        self.assertEqual(selfs[4], 28)

    def test_layer_shares_cover_repetitions_only(self):
        shares = report.layer_shares(self.SPANS)
        self.assertNotIn("cg", shares)
        self.assertAlmostEqual(sum(shares.values()), 100.0)
        # Self times: bench 30, select 30, mpisim 4, binsim 28 + 33.
        self.assertAlmostEqual(shares["select"], 100.0 * 30 / 125)


class LadderAndTableTest(unittest.TestCase):
    def test_ladder_sum_check(self):
        counts = {"pair_ns.scorep": 100.0, "xraysim.dispatch_ns": 20.0,
                  "scorepsim.cyg_pair_ns": 70.0}
        gap, holds = report.ladder_check(counts)
        self.assertAlmostEqual(gap, 10.0)
        self.assertTrue(holds)
        counts["scorepsim.cyg_pair_ns"] = 40.0
        gap, holds = report.ladder_check(counts)
        self.assertAlmostEqual(gap, 40.0)
        self.assertFalse(holds)

    def test_table2_ratios_and_shape(self):
        samples = {"run_s.vanilla": [1.0, 1.1, 0.9, 1.0]}
        factors = {"inactive": 1.0, "full_scorep": 1.5, "full_talp": 2.7,
                   "ic_scorep": 1.05, "ic_talp": 1.1}
        for config, x in factors.items():
            samples["run_s." + config] = [v * x for v in samples["run_s.vanilla"]]
        base, rows = report.table2(samples)
        self.assertAlmostEqual(base, 1.0)
        for config, x in factors.items():
            self.assertAlmostEqual(rows[config]["x"], x)
        verdicts = {name: holds for name, holds, _ in report.shape_report(rows)}
        self.assertTrue(verdicts["xray inactive ~= vanilla (IQR contains 1.0)"])
        self.assertTrue(verdicts["ic_scorep < full_scorep"])
        self.assertFalse(verdicts["full_scorep > full_talp (paper x6.7 > x3.76)"])


if __name__ == "__main__":
    unittest.main()
