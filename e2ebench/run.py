#!/usr/bin/env python3
"""Benchmark of record for comove: one workload, one seed, one result line.

    python3 e2ebench/run.py --workload taxi-fba-k120 --seed 1 \
        --seconds 25 --trace 0

Builds e2ebench/ (CMake, into .bench_build/ under the checkout root),
generates the workload's stream from the seed, replays it layer by layer
as the reference pattern set, then runs the engine in fresh processes for
--seconds and prints, as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians across runs); --trace 1
reports the per-layer metrics from a traced layered replay plus engine runs
with stage statistics on. attempted/failed count snapshots: a run that
crashes, times out, or whose pattern digest or cluster totals differ from
the reference fails all of its snapshots. See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
DATA = os.path.join(WORK, "data")

WORKLOADS = ("taxi-fba-k120", "brinkhoff-vba-ckpt", "brinkhoff-cluster-paced")
DEFAULT_SEED = 1
MIN_RUNS = 3
RUN_TIMEOUT_S = 60

END_TO_END = {
    "throughput_sps": "snapshots/s",
    "cpu_ms_per_snapshot": "ms",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed per run and reported by --trace 1, not bounded: on a shared VM
# the paced workload's p95 moved between 1.3 and 7.8 ms across fresh runs
# of the same stream.
TAIL = ["latency_p95_ms", "latency_p99_ms"]

EDGES = ("source-assembler", "assembler-cluster", "cluster-enumerate")
LINKS = ("coord-w0", "w0-coord")
# The engine's stage-stats row of each link: the coordinator's side and
# worker 0's side.
LINK_ROWS = {"coord-w0": "link:w0", "w0-coord": "w0:link:coord"}

PER_LAYER = dict(
    [
        ("trajgen.csv_parse_ms", "ms"),
        ("trajgen.records_per_snapshot", "count"),
        ("trajgen.dataset_rss_mb", "MB"),
        ("flow.assembler.ms_per_snapshot", "ms"),
        ("cluster.join.ms_per_snapshot", "ms"),
        ("cluster.dbscan.ms_per_snapshot", "ms"),
        ("cluster.other.ms_per_snapshot", "ms"),
        ("cluster.clusters_per_snapshot", "count"),
        ("cluster.avg_cluster_size", "count"),
        ("pattern.partition.ms_per_snapshot", "ms"),
        ("pattern.partition.members_per_snapshot", "count"),
        ("pattern.enumerate.ms_per_snapshot", "ms"),
        ("pattern.enumerate.engine_avg_enum_ms", "ms"),
        ("pattern.enumerate.strings_opened", "count"),
        ("pattern.enumerate.candidates_peak", "count"),
        ("pattern.enumerate.apriori_nodes", "count"),
        ("pattern.enumerate.pruned_ratio", "ratio"),
        ("pattern.enumerate.state_bytes", "bytes"),
        ("pattern.sink.ms_per_snapshot", "ms"),
        ("pattern.sink.emitted", "count"),
        ("pattern.sink.distinct", "count"),
        ("pattern.sink.duplicate_ratio", "ratio"),
        ("flow.checkpoint.count", "count"),
        ("flow.checkpoint.bytes_per_barrier", "bytes"),
        ("flow.checkpoint.save_ms_per_barrier", "ms"),
        ("flow.checkpoint.align_blocked_ms", "ms"),
    ]
    + [
        ("flow.exchange.%s.%s" % (edge, field), unit)
        for edge in EDGES
        for field, unit in (
            ("push_blocked_ms", "ms"),
            ("pop_blocked_ms", "ms"),
            ("max_queue_depth", "count"),
        )
    ]
    + [
        ("flow.net.%s.%s" % (link, field), unit)
        for link in LINKS
        for field, unit in (
            ("bytes_sent", "bytes"),
            ("frames_sent", "count"),
            ("send_blocked_ms", "ms"),
            ("recv_blocked_ms", "ms"),
        )
    ]
    + [
        ("flow.source.achieved_rate_sps", "snapshots/s"),
        ("core.sequential_sps", "snapshots/s"),
        ("core.pipeline_speedup", "ratio"),
        ("core.stats_overhead_pct", "%"),
        ("core.replay_unattributed_pct", "%"),
        ("core.latency_p95_ms", "ms"),
        ("core.latency_p99_ms", "ms"),
    ]
)


def log(message):
    print("[e2ebench] " + message, file=sys.stderr, flush=True)


def quartile_spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def result_line(correct, attempted, failed, values, units):
    """The benchmark's output object; `values` maps metric name -> number."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in units
            },
        }
    )


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True,
        stdout=sys.stderr,
        env=env,
    )
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        env=env,
    )


def e2ebench(args, timeout=RUN_TIMEOUT_S):
    """Runs the binary once; returns its JSON result, or None on failure."""
    try:
        proc = subprocess.run(
            [BINARY] + args, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        log("timed out: %s" % " ".join(args))
        return None
    if proc.returncode != 0:
        log("exit %d: %s\n%s" % (proc.returncode, " ".join(args), proc.stderr))
        return None
    try:
        return last_json_line(proc.stdout)
    except ValueError as e:
        log("unreadable output of %s: %s" % (" ".join(args), e))
        return None


def prepare(workload, seed):
    """The stream's CSV and its layered-replay reference (cached by seed)."""
    os.makedirs(DATA, exist_ok=True)
    csv = os.path.join(DATA, "%s-%d.csv" % (workload, seed))
    if not os.path.exists(csv):
        if e2ebench(["generate", workload, str(seed), csv]) is None:
            raise RuntimeError("cannot generate " + csv)
    ref_path = csv + ".reference.json"
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            return csv, json.load(f)
    reference = e2ebench(["replay", workload, csv])
    if reference is None:
        raise RuntimeError("layered replay failed on " + csv)
    with open(ref_path + ".tmp", "w") as f:
        json.dump(reference, f)
    os.replace(ref_path + ".tmp", ref_path)
    return csv, reference


def output(result):
    """What a run must reproduce: the pattern digest, plus the cluster
    totals, which are all the clustering-only workload emits."""
    return (result["digest"], int(result["snapshots"]),
            int(result["clusters"]), int(result["cluster_members"]))


def recorded_output(workload):
    """The output recorded with the benchmark for DEFAULT_SEED."""
    with open(os.path.join(HERE, "reference_outputs.json")) as f:
        return output(json.load(f)[workload])


class Runs:
    """Fresh-process engine runs, each checked against the reference."""

    def __init__(self, workload, csv, reference, seed):
        self.workload = workload
        self.csv = csv
        self.snapshots = int(reference["snapshots"])
        self.outputs = {output(reference)}
        if seed == DEFAULT_SEED:
            self.outputs.add(recorded_output(workload))
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def run(self, stats):
        ckpt = os.path.join(WORK, "run", "ckpt-%d" % os.getpid())
        shutil.rmtree(ckpt, ignore_errors=True)
        args = ["run", self.workload, self.csv, "--checkpoint-dir", ckpt]
        if stats:
            args.append("--stats")
        self.count += 1
        result = e2ebench(args)
        shutil.rmtree(ckpt, ignore_errors=True)
        self.attempted += self.snapshots
        if result is None or not self.matches(result):
            self.failed += self.snapshots
            return None
        return result

    def matches(self, result):
        ok = len(self.outputs) == 1 and output(result) in self.outputs
        if not ok:
            log("output %s differs from reference %s"
                % (output(result), sorted(self.outputs)))
        return ok


def measure(runs, seconds, min_runs, stats_every=0):
    """Fresh-process runs until `seconds` have passed (at least `min_runs`);
    a run starts only if half of the last one's duration still fits, so
    a window overruns by half a run on average. With `stats_every` = 2
    every second run collects stage statistics. Returns the passing
    results as (plain, stats) lists."""
    plain, stats = [], []
    start = time.monotonic()
    last = 0.0
    while runs.count < min_runs or (
            time.monotonic() - start + last / 2 < seconds):
        stats_run = stats_every > 0 and runs.count % stats_every == 1
        began = time.monotonic()
        result = runs.run(stats=stats_run)
        last = time.monotonic() - began
        if result is None:
            continue
        (stats if stats_run else plain).append(result)
        log("run %d%s: " % (runs.count, " (stats)" if stats_run else "")
            + ", ".join("%s %.4g" % (name, result[name])
                        for name in list(END_TO_END) + TAIL))
    return plain, stats


def end_to_end(runs, seconds):
    results, _ = measure(runs, seconds, MIN_RUNS)
    if not results:
        return {name: 0.0 for name in END_TO_END}
    columns = {name: [r[name] for r in results]
               for name in list(END_TO_END) + TAIL}
    log("medians of %d runs (interquartile spread): " % len(results)
        + ", ".join("%s %.4g (%.3f)" % (name, median(v), quartile_spread(v))
                    for name, v in columns.items()))
    return {name: median(columns[name]) for name in END_TO_END}


def ratio(a, b):
    return a / b if b else 0.0


def stage_metrics(stats_result):
    """Per-edge, checkpoint and link counters from one --stats run."""
    rows = stats_result["stages"]

    def edge_row(edge):
        # The in-process row, or in the distributed run the row of the
        # consuming worker.
        name = edge.replace("-", "->")
        return rows.get(name) or rows.get("w0:" + name) or {}

    values = {}
    for edge in EDGES:
        row = edge_row(edge)
        prefix = "flow.exchange.%s." % edge
        values[prefix + "push_blocked_ms"] = row.get("push_blocked_ms", 0.0)
        values[prefix + "pop_blocked_ms"] = row.get("pop_blocked_ms", 0.0)
        values[prefix + "max_queue_depth"] = row.get("max_queue_depth", 0.0)
    for link in LINKS:
        row = rows.get(LINK_ROWS[link], {})
        prefix = "flow.net.%s." % link
        values[prefix + "bytes_sent"] = row.get("bytes_pushed", 0.0)
        values[prefix + "frames_sent"] = row.get("records_pushed", 0.0)
        values[prefix + "send_blocked_ms"] = row.get("push_blocked_ms", 0.0)
        values[prefix + "recv_blocked_ms"] = row.get("pop_blocked_ms", 0.0)
    # The coordinator's "checkpoint" row totals the persisted state bytes.
    count = stats_result["checkpoints"]
    values["flow.checkpoint.count"] = count
    values["flow.checkpoint.bytes_per_barrier"] = ratio(
        rows.get("checkpoint", {}).get("snapshot_bytes", 0.0), count)
    values["flow.checkpoint.align_blocked_ms"] = edge_row(
        "cluster-enumerate").get("align_blocked_ms", 0.0)
    values["flow.source.achieved_rate_sps"] = stats_result["ingest_sps"]
    values["pattern.enumerate.engine_avg_enum_ms"] = stats_result["avg_enum_ms"]
    return values


def replay_metrics(replay):
    n = replay["snapshots"]
    self_ms = {
        key[: -len(".self_ms")]: value
        for key, value in replay.items()
        if key.endswith(".self_ms")
    }
    values = {
        "trajgen.csv_parse_ms": replay["csv_parse_ms"],
        "trajgen.records_per_snapshot": replay["records"] / n,
        "trajgen.dataset_rss_mb": replay["dataset_rss_mb"],
        "cluster.clusters_per_snapshot": replay["clusters"] / n,
        "cluster.avg_cluster_size": ratio(
            replay["cluster_members"], replay["clusters"]),
        "pattern.partition.members_per_snapshot":
            replay["partition_members"] / n,
        "pattern.enumerate.strings_opened": replay["strings_opened"],
        "pattern.enumerate.candidates_peak": replay["candidates_peak"],
        "pattern.enumerate.apriori_nodes": replay["apriori_nodes"],
        "pattern.enumerate.pruned_ratio": ratio(
            replay["apriori_pruned"], replay["apriori_nodes"]),
        "pattern.enumerate.state_bytes": replay["state_bytes"],
        "pattern.sink.emitted": replay["emitted"],
        "pattern.sink.distinct": replay["patterns"],
        "pattern.sink.duplicate_ratio": (
            1.0 - ratio(replay["patterns"], replay["emitted"])
            if replay["emitted"] else 0.0),
        "flow.checkpoint.save_ms_per_barrier": ratio(
            self_ms["flow.checkpoint"], replay["checkpoints"]),
        "core.sequential_sps": n / (replay["wall_ms"] / 1e3),
        "core.replay_unattributed_pct": 100.0 * (
            replay["wall_ms"] - sum(self_ms.values())) / replay["wall_ms"],
    }
    for layer in ("flow.assembler", "cluster.join", "cluster.dbscan",
                  "cluster.other", "pattern.partition", "pattern.enumerate",
                  "pattern.sink"):
        values[layer + ".ms_per_snapshot"] = self_ms[layer] / n
    return values


def layer_values(replay, plain, stats):
    """Every per-layer metric, from one traced layered replay plus the
    plain and --stats engine runs of the same stream."""
    values = replay_metrics(replay)
    for name in stage_metrics(stats[0]):
        values[name] = median([stage_metrics(r)[name] for r in stats])
    for name in TAIL:
        values["core." + name] = median([r[name] for r in plain])
    throughput = median([r["throughput_sps"] for r in plain])
    values["core.pipeline_speedup"] = throughput / values["core.sequential_sps"]
    values["core.stats_overhead_pct"] = 100.0 * (
        median([r["cpu_ms_per_snapshot"] for r in stats])
        / median([r["cpu_ms_per_snapshot"] for r in plain]) - 1.0)
    return values


def per_layer(runs, csv, seed, seconds):
    start = time.monotonic()
    trace_dir = os.path.join(WORK, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, "%s-%d.json" % (runs.workload, seed))
    replay = e2ebench(["replay", runs.workload, csv, "--trace-out", trace_path])
    runs.attempted += runs.snapshots
    if replay is None or not runs.matches(replay):
        runs.failed += runs.snapshots
        replay = None
    # Alternate plain and --stats runs so drift on the host hits both alike.
    plain, stats = measure(runs, seconds - (time.monotonic() - start),
                           2 * MIN_RUNS, stats_every=2)
    if replay is None or not plain or not stats:
        return {name: 0.0 for name in PER_LAYER}
    values = layer_values(replay, plain, stats)
    outside = (values["pattern.enumerate.ms_per_snapshot"]
               + values["pattern.sink.ms_per_snapshot"])
    log("enumerate+sink timed from outside %.4f ms/snapshot vs engine "
        "avg_enum_ms %.4f ms (ratio %.2f); trace: %s (%d spans, %d dropped)"
        % (outside, values["pattern.enumerate.engine_avg_enum_ms"],
           ratio(outside, values["pattern.enumerate.engine_avg_enum_ms"]),
           trace_path, replay["spans"], replay["spans_dropped"]))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        setup_start = time.monotonic()
        csv, reference = prepare(args.workload, args.seed)
        log("stream ready in %.1f s: %d snapshots, %d patterns, digest %s"
            % (time.monotonic() - setup_start, reference["snapshots"],
               reference["patterns"], reference["digest"]))
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log("set-up failed: %s" % e)
        return 1

    runs = Runs(args.workload, csv, reference, args.seed)
    if args.trace:
        values, units = per_layer(runs, csv, args.seed, args.seconds), PER_LAYER
    else:
        values, units = end_to_end(runs, args.seconds), END_TO_END
    print(result_line(runs.failed == 0, runs.attempted, runs.failed, values,
                      units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
