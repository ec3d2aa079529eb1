#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic, readers and checks.

    python3 perfbench/selftest.py

Needs no build: it drives perfbench/run.py's functions on hand-built spans
and results, and its resource readers on small Python children.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def span(span_id, parent, name, start, end, dc=-1):
    return {"id": span_id, "parent": parent, "name": name, "dc": dc,
            "start": start, "end": end}


class SpanArithmetic(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertAlmostEqual(bench.covered([(3, 4), (0, 1), (0.5, 2)]), 3.0)
        self.assertAlmostEqual(bench.covered([(0, 5), (1, 2)]), 5.0)
        self.assertEqual(bench.covered([]), 0.0)

    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            span(0, -1, "run", 0.0, 10.0),
            span(1, 0, "a", 1.0, 4.0),
            span(2, 1, "a.child", 1.5, 2.0),
            span(3, 0, "b", 3.0, 6.0),   # overlaps a: parallel siblings
            span(4, 0, "c", 9.0, 12.0),  # ends after its parent: clipped
        ]
        self_times = bench.self_times(spans)
        # The root's children cover [1, 6] and [9, 10]: 6 of its 10 seconds.
        self.assertAlmostEqual(self_times[0], 4.0)
        self.assertAlmostEqual(self_times[1], 2.5)
        self.assertAlmostEqual(self_times[2], 0.5)
        self.assertAlmostEqual(self_times[3], 3.0)
        self.assertAlmostEqual(self_times[4], 3.0)

    def test_layer_metrics_on_a_hand_built_trace(self):
        counters = {key: 0 for key in (
            "servers", "distinct_traces", "rescale_calls", "rescale_samples",
            "rescale_rss_delta_bytes", "classes", "containers", "kills", "jobs_completed",
            "storage_reimages", "storage_rereplications", "storage_accesses",
            "storage_failed_accesses", "storage_replicas_destroyed")}
        counters.update(servers=100, rescale_calls=1, rescale_samples=1000,
                        containers=40, kills=4, storage_reimages=10,
                        storage_accesses=20, storage_rereplications=30,
                        storage_failed_accesses=5)
        trace = {"spans": [
            span(0, -1, "run", 0.0, 10.0),
            span(1, 0, "fleet.build", 0.0, 1.0, dc=0),
            span(2, 0, "sched.stage", 1.0, 6.0, dc=0),
            span(3, 2, "rescale", 1.0, 2.0, dc=0),
            span(4, 2, "sched.cosim", 2.0, 5.0, dc=0),
            span(5, 4, "sched.pt", 2.0, 5.0, dc=0),
            span(6, 4, "sched.h", 2.0, 4.0, dc=0),
            span(7, 0, "storage.durability", 6.0, 9.0, dc=0),
            span(8, 7, "storage.timeline", 6.0, 6.5, dc=0),
            span(9, 7, "storage.cells", 6.5, 9.0, dc=0),
            span(10, 9, "storage.cell", 6.5, 7.5, dc=0),
            span(11, 9, "storage.cell", 7.5, 9.0, dc=0),
            span(12, 0, "driver.render", 9.0, 9.5),
        ], "datacenters": [{"counters": counters}]}
        metrics, not_run = bench.layer_metrics(trace, wall_s=9.0, setup_s=0.75, pace=1.0)
        self.assertEqual(not_run, set())
        self.assertEqual(metrics["fleet.build_s"], 0.75)
        self.assertAlmostEqual(metrics["fleet.replay_s"], 1.0)
        self.assertAlmostEqual(metrics["rescale.s"], 1.0)
        self.assertAlmostEqual(metrics["rescale.ns_per_sample"], 1e6)
        self.assertAlmostEqual(metrics["sched.pt_h_speedup"], 5.0 / 3.0)
        self.assertAlmostEqual(metrics["sched.kill_ratio"], 0.1)
        self.assertAlmostEqual(metrics["sched.us_per_container"], 5e6 / 40)
        self.assertAlmostEqual(metrics["storage.cells_s"], 2.5)
        self.assertAlmostEqual(metrics["storage.cell_max_s"], 1.5)
        self.assertAlmostEqual(metrics["storage.events_per_s"], 60 / 2.5)
        self.assertAlmostEqual(metrics["storage.failed_access_frac"], 0.25)
        # Uncovered: [9.5, 10] of the root.
        self.assertAlmostEqual(metrics["driver.other_s"], 0.5)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 1.0)

        # At half the CPU's full pace every span time halves; counts stay.
        half, _ = bench.layer_metrics(trace, wall_s=4.5, setup_s=0.75, pace=0.5)
        self.assertAlmostEqual(half["rescale.s"], 0.5)
        self.assertAlmostEqual(half["driver.other_s"], 0.25)
        self.assertAlmostEqual(half["trace.overhead_s"], 0.5)
        self.assertAlmostEqual(half["sched.pt_h_speedup"], 5.0 / 3.0)
        self.assertEqual(half["sched.kills"], 4)

        # Drop the scheduling layer: its metrics are n/a, timed by the
        # stage call that skipped it, and the other layers are unaffected.
        trace["spans"] = [s for s in trace["spans"] if s["parent"] not in (2, 4)]
        trace["spans"][2]["end"] = 1.0 + 1e-7
        metrics, not_run = bench.layer_metrics(trace, wall_s=9.0, setup_s=0.75, pace=1.0)
        self.assertIn("sched.pt_s", not_run)
        self.assertIn("rescale.s", not_run)
        self.assertNotIn("sched.stage_s", not_run)
        self.assertNotIn("storage.cells_s", not_run)
        self.assertAlmostEqual(metrics["sched.pt_s"], 1e-7)
        self.assertEqual(metrics["sched.pt_h_speedup"], 0.0)


class Pace(unittest.TestCase):
    # (start, duration) samples: the fastest takes 1 ms.
    SAMPLES = [(0.0, 0.001), (1.0, 0.002), (2.0, 0.004), (3.0, 0.001)]

    def test_factor_averages_the_samples_inside_the_interval(self):
        self.assertAlmostEqual(bench.pace_factor(self.SAMPLES, 0.5, 2.5), (0.5 + 0.25) / 2)
        self.assertAlmostEqual(bench.pace_factor(self.SAMPLES, 0.0, 4.0), (1 + 0.5 + 0.25 + 1) / 4)

    def test_nearest_sample_stands_in_for_a_short_interval(self):
        self.assertAlmostEqual(bench.pace_factor(self.SAMPLES, 1.9, 1.95), 0.25)
        self.assertAlmostEqual(bench.pace_factor(self.SAMPLES, 9.0, 9.5), 1.0)

    def test_stop_reads_the_samples_after_closing_stdin(self):
        code = "import sys; sys.stdin.read(); print('1500000000 2000'); print('2500000000 1000')"
        sampler = subprocess.Popen([sys.executable, "-c", code],
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.assertEqual(bench.stop_pace(sampler), [(1.5, 2e-6), (2.5, 1e-6)])


class ResourceReaders(unittest.TestCase):
    def child(self, code):
        return bench.run_child([sys.executable, "-c", code], os.devnull)

    def test_peak_rss_is_the_childs_own(self):
        big = self.child("b = b'x' * (96 * 2**20)")
        self.assertEqual(big.returncode, 0)
        self.assertGreaterEqual(big.peak_rss_mib, 96)
        # wait4 reports each child alone: a small child after a big one
        # must not inherit the big one's peak.
        small = self.child("pass")
        self.assertLess(small.peak_rss_mib, 64)

    def test_cpu_seconds_count_user_time(self):
        run = self.child("import time\nt = time.process_time()\n"
                         "while time.process_time() - t < 0.3: pass")
        self.assertEqual(run.returncode, 0)
        self.assertGreaterEqual(run.cpu_s, 0.28)
        self.assertGreaterEqual(run.wall_s, 0.28)
        idle = self.child("import time; time.sleep(0.3)")
        self.assertLess(idle.cpu_s, 0.25)

    def test_stdout_and_exit_status(self):
        run = self.child("import sys; print('hello'); sys.exit(3)")
        self.assertEqual(run.returncode, 3)
        self.assertEqual(run.stdout, b"hello\n")


WORKLOAD = bench.Workload(name="x", scenario_args=("--scenario=x",), threads=1,
                          datacenters=1, servers=100)
RESULT = {
    "schema_version": 6, "scenario": "x", "seed": 7,
    "timing": {"total_seconds": 1.25},
    "datacenters": [{
        "name": "DC-0",
        "fleet": {"servers": 100},
        "scheduling": {
            "primary_aware": {"jobs_completed": 3, "total_kills": 9},
            "history": {"jobs_completed": 4, "total_kills": 8},
            "history_improvement_percent": 12.5,
        },
        "durability": {"cells": [
            {"placement": "HDFS-Stock", "lost_percent": 2.5,
             "rereplications_completed": 11, "failed_percent": 1.0},
            {"placement": "HDFS-H", "lost_percent": 0.0,
             "rereplications_completed": 12, "failed_percent": 0.5},
        ]},
    }],
}


def child_run(doc, returncode=0):
    return bench.ChildRun(returncode, json.dumps(doc).encode(), 0.0, 1.0, 1.0, 10.0)


class OutputChecker(unittest.TestCase):
    def violations(self, doc, reference=None, returncode=0):
        return bench.check_run(child_run(doc, returncode), WORKLOAD, reference)[1]

    def test_valid_result_passes(self):
        self.assertEqual(self.violations(RESULT), [])

    def test_timing_is_not_deterministic_output(self):
        other = copy.deepcopy(RESULT)
        other["timing"]["total_seconds"] = 9.0
        self.assertEqual(self.violations(other, reference=RESULT), [])

    def test_tampered_results_count_as_failed(self):
        def tampered(edit):
            doc = copy.deepcopy(RESULT)
            edit(doc)
            return doc
        cases = {
            "loss above 100%": lambda d: d["datacenters"][0]["durability"]["cells"][0]
            .update(lost_percent=120.0),
            "negative failed%": lambda d: d["datacenters"][0]["durability"]["cells"][1]
            .update(failed_percent=-1.0),
            "server count": lambda d: d["datacenters"][0]["fleet"].update(servers=99),
            "no H job": lambda d: d["datacenters"][0]["scheduling"]["history"]
            .update(jobs_completed=0),
            "extra DC": lambda d: d["datacenters"].append(copy.deepcopy(d["datacenters"][0])),
            "missing fleet": lambda d: d["datacenters"][0].pop("fleet"),
        }
        for label, edit in cases.items():
            with self.subTest(label):
                self.assertNotEqual(self.violations(tampered(edit)), [])
        with self.subTest("deterministic bytes differ between repetitions"):
            doc = tampered(lambda d: d.update(seed=8))
            self.assertEqual(self.violations(doc), [])
            self.assertNotEqual(self.violations(doc, reference=RESULT), [])

    def test_crashed_or_garbled_runs_count_as_failed(self):
        self.assertNotEqual(self.violations(RESULT, returncode=1), [])
        garbled = bench.ChildRun(0, b'{"datacenters": [', 0.0, 1.0, 1.0, 10.0)
        self.assertNotEqual(bench.check_run(garbled, WORKLOAD, None)[1], [])

    def test_probe_cross_check(self):
        stats = {"name": "DC-0", "servers": 100, "pt_jobs_completed": 3, "h_jobs_completed": 4,
                 "pt_total_kills": 9, "h_total_kills": 8,
                 "cells": [{"lost_percent": 2.5, "rereplications_completed": 11},
                           {"lost_percent": 0.0, "rereplications_completed": 12}]}
        trace = {"datacenters": [{"stats": stats}]}
        self.assertEqual(bench.cross_check(trace, RESULT), [])
        stats["cells"][1]["lost_percent"] = 0.01
        self.assertNotEqual(bench.cross_check(trace, RESULT), [])

    def test_fidelity_summary(self):
        fid = bench.fidelity(RESULT)
        self.assertEqual(fid["jobs_completed"], 7)
        self.assertEqual(fid["mean_h_vs_pt_percent"], 12.5)
        self.assertEqual(fid["worst_stock_loss_percent"], 2.5)
        self.assertEqual(fid["worst_h_loss_percent"], 0.0)


if __name__ == "__main__":
    unittest.main()
