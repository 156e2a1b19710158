#!/usr/bin/env python3
"""Tests of the benchmark's own code: python3 e2ebench/test_run.py

The digest test builds the e2ebench binary first (as run.py does).
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Arithmetic(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartile_spread(self):
        # statistics.quantiles (exclusive) of 1..10: 2.75, 5.5, 8.25.
        values = [float(v) for v in range(10, 0, -1)]
        self.assertAlmostEqual(run.quartile_spread(values), 5.5 / 5.5)
        self.assertEqual(run.quartile_spread([7.0] * 5), 0.0)
        self.assertEqual(run.quartile_spread([7.0]), 0.0)

    def test_ratio_of_zero_base(self):
        self.assertEqual(run.ratio(3.0, 0.0), 0.0)
        self.assertEqual(run.ratio(3.0, 2.0), 1.5)


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)

    def test_tables_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class Schema(unittest.TestCase):
    def test_result_line_round_trip(self):
        values = {name: 1.0 + i / 3.0 for i, name in enumerate(run.END_TO_END)}
        line = run.result_line(True, 1200, 0, values, run.END_TO_END)
        parsed = json.loads(line)
        self.assertEqual(set(parsed),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(parsed["correct"], True)
        self.assertEqual((parsed["attempted"], parsed["failed"]), (1200, 0))
        self.assertEqual(
            parsed["metrics"],
            {n: {"value": values[n], "unit": u}
             for n, u in run.END_TO_END.items()})
        self.assertEqual(run.last_json_line("log\n" + line + "\n"), parsed)

    def test_stage_rows_map_to_layer_metrics(self):
        row = {"push_blocked_ms": 1.5, "pop_blocked_ms": 2.5,
               "max_queue_depth": 7.0, "align_blocked_ms": 0.25,
               "snapshot_bytes": 100.0, "bytes_pushed": 11.0,
               "records_pushed": 3.0}
        stats = {
            "checkpoints": 4, "ingest_sps": 300.0, "avg_enum_ms": 0.5,
            "stages": {
                "source->assembler": row,
                "w0:assembler->cluster": dict(row, snapshot_bytes=0.0),
                "link:w0": row, "checkpoint": row,
            },
        }
        values = run.stage_metrics(stats)
        self.assertEqual(
            values["flow.exchange.assembler-cluster.max_queue_depth"], 7.0)
        self.assertEqual(
            values["flow.exchange.cluster-enumerate.pop_blocked_ms"], 0.0)
        self.assertEqual(values["flow.net.coord-w0.bytes_sent"], 11.0)
        self.assertEqual(values["flow.net.w0-coord.frames_sent"], 0.0)
        self.assertEqual(values["flow.checkpoint.bytes_per_barrier"], 25.0)

    def test_replay_layers_cover_per_layer_table(self):
        replay = {"snapshots": 10, "records": 100, "csv_parse_ms": 5.0,
                  "dataset_rss_mb": 1.0, "wall_ms": 10.0, "clusters": 20,
                  "cluster_members": 80, "partition_members": 50,
                  "strings_opened": 1, "candidates_peak": 1,
                  "apriori_nodes": 4, "apriori_pruned": 1, "state_bytes": 9,
                  "emitted": 8, "patterns": 6, "checkpoints": 2}
        for layer in ("flow.assembler", "cluster.other", "cluster.join",
                      "cluster.dbscan", "pattern.partition",
                      "pattern.enumerate", "pattern.sink", "flow.checkpoint"):
            replay[layer + ".self_ms"] = 1.0
        engine = {"throughput_sps": 50.0, "cpu_ms_per_snapshot": 2.0,
                  "latency_p95_ms": 3.0, "latency_p99_ms": 4.0,
                  "checkpoints": 0, "ingest_sps": 1.0, "avg_enum_ms": 1.0,
                  "stages": {}}
        stats = dict(engine, cpu_ms_per_snapshot=2.5)
        values = run.layer_values(replay, [engine], [stats])
        self.assertEqual(set(values), set(run.PER_LAYER))
        self.assertAlmostEqual(values["pattern.sink.duplicate_ratio"], 0.25)
        self.assertAlmostEqual(values["core.replay_unattributed_pct"], 20.0)
        self.assertAlmostEqual(values["flow.checkpoint.save_ms_per_barrier"],
                               0.5)
        # 10 snapshots in 10 ms sequentially: 1000/s against 50/s piped.
        self.assertAlmostEqual(values["core.pipeline_speedup"], 0.05)
        self.assertAlmostEqual(values["core.stats_overhead_pct"], 25.0)
        self.assertEqual(values["core.latency_p99_ms"], 4.0)


class Digest(unittest.TestCase):
    def test_digest_ignores_pattern_order(self):
        run.build()
        out = subprocess.run([run.BINARY, "selftest"], capture_output=True,
                             text=True, check=True).stdout
        self.assertEqual(run.last_json_line(out), {"selftest": "ok"})


if __name__ == "__main__":
    unittest.main()
