#!/usr/bin/env python3
"""Validates a Chrome trace_event JSON file produced by `comove_tool detect
--trace` (or the bench --trace flag).

Checks that the file parses, that the traceEvents envelope is present, and
that every instrumented pipeline stage contributed at least one complete
("X") span - a stage whose instrumentation silently stops recording shows
up here as a hard failure, not as a mysteriously empty lane in Perfetto.
Timestamps must be monotone (non-decreasing) within every (pid, tid) lane,
matching what the writers guarantee.

Usage: scripts/validate_trace.py trace.json [--require-stage STAGE ...]
                                 [--processes N]

By default all seven pipeline stages are required (matching
flow::kTraceStageOrder); pass --require-stage one or more times to check a
subset instead (e.g. a run without checkpointing has no checkpoint spans).

--processes N validates a merged distributed trace: exactly N distinct
pids, each with a process_name metadata record, and every required stage
present in every process that hosts it (pid 1 is the coordinator with
the ingest subtask's source/assembler spans; pids >= 2 are workers with
join/dbscan/enumerate/flush) - so a worker whose spans were silently
dropped from the merge fails loudly instead of under-reporting.
"""

import argparse
import collections
import json
import sys

PIPELINE_STAGES = [
    "source",
    "assembler",
    "join",
    "dbscan",
    "enumerate",
    "flush",
    "checkpoint",
]

# Which stages each process role hosts in a distributed run. The
# coordinator runs only the ingest subtask, which sends snapshots one by
# one, so it records no flush spans. checkpoint spans ride with whichever
# process acks (both roles), so they are validated globally, not
# per-process.
COORDINATOR_STAGES = {"source", "assembler"}
WORKER_STAGES = {"join", "dbscan", "enumerate", "flush"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument(
        "--require-stage",
        action="append",
        default=None,
        metavar="STAGE",
        help="stage that must have >= 1 span (repeatable; "
        "default: all seven pipeline stages)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=0,
        metavar="N",
        help="validate a merged distributed trace with exactly N "
        "processes (coordinator + workers)",
    )
    args = parser.parse_args()
    required = args.require_stage or PIPELINE_STAGES

    with open(args.trace, encoding="utf-8") as f:
        doc = json.load(f)

    if "traceEvents" not in doc:
        print(f"FAIL: {args.trace} has no traceEvents envelope")
        return 1
    events = doc["traceEvents"]

    spans_per_stage: collections.Counter = collections.Counter()
    spans_per_process: dict = collections.defaultdict(collections.Counter)
    process_names: dict = {}
    lane_ts: dict = collections.defaultdict(list)
    instants = 0
    for event in events:
        phase = event.get("ph", "")
        pid = event.get("pid", 0)
        if phase == "M":
            if event.get("name") == "process_name":
                process_names[pid] = event["args"]["name"]
            continue
        stage = event.get("args", {}).get("stage", "")
        if phase == "X":
            if event.get("dur", 0) <= 0:
                print(f"FAIL: span with non-positive dur: {event}")
                return 1
            spans_per_stage[stage] += 1
            spans_per_process[pid][stage] += 1
            lane_ts[(pid, event.get("tid", 0))].append(event["ts"])
        elif phase == "i":
            instants += 1

    total_spans = sum(spans_per_stage.values())
    print(
        f"{args.trace}: {len(events)} events, {total_spans} spans, "
        f"{instants} instants, {len(spans_per_process)} process(es)"
    )
    for stage in PIPELINE_STAGES:
        print(f"  {stage:>10}: {spans_per_stage.get(stage, 0)} spans")

    missing = [s for s in required if spans_per_stage.get(s, 0) == 0]
    if missing:
        print(f"FAIL: no spans for stage(s): {', '.join(missing)}")
        return 1

    for lane, series in sorted(lane_ts.items()):
        if any(b < a for a, b in zip(series, series[1:])):
            print(f"FAIL: non-monotone timestamps in lane pid={lane[0]} "
                  f"tid={lane[1]}")
            return 1

    if args.processes > 0:
        pids = sorted(spans_per_process)
        if len(pids) != args.processes:
            print(f"FAIL: expected {args.processes} processes with spans, "
                  f"found {len(pids)} (pids {pids})")
            return 1
        unnamed = [pid for pid in pids if pid not in process_names]
        if unnamed:
            print(f"FAIL: no process_name metadata for pid(s) {unnamed}")
            return 1
        for pid in pids:
            role = COORDINATOR_STAGES if pid == 1 else WORKER_STAGES
            want = [s for s in required if s in role]
            have = spans_per_process[pid]
            gaps = [s for s in want if have.get(s, 0) == 0]
            if gaps:
                name = process_names.get(pid, "?")
                print(f"FAIL: process {name} (pid {pid}) has no spans "
                      f"for stage(s): {', '.join(gaps)}")
                return 1
        names = ", ".join(f"{process_names[p]}(pid {p})" for p in pids)
        print(f"  processes: {names}")

    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
