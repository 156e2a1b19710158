#include "apps/json_export.h"

#include <ostream>

namespace comove::apps {

namespace {

template <typename T>
void WriteIntArray(const std::vector<T>& values, std::ostream& out) {
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ',';
    out << values[i];
  }
  out << ']';
}

void WritePattern(const CoMovementPattern& p, std::ostream& out) {
  out << "{\"objects\":";
  WriteIntArray(p.objects, out);
  out << ",\"times\":";
  WriteIntArray(p.times, out);
  out << '}';
}

}  // namespace

void WritePatternsJson(const std::vector<CoMovementPattern>& patterns,
                       std::ostream& out) {
  out << "[";
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (i) out << ",";
    out << "\n  ";
    WritePattern(patterns[i], out);
  }
  out << "\n]\n";
}

void WriteResultJson(const core::IcpeResult& result, std::ostream& out) {
  out << "{\n";
  out << "  \"schema_version\": " << kResultJsonSchemaVersion << ",\n";
  out << "  \"snapshots\": " << result.snapshots.snapshots << ",\n";
  out << "  \"avg_latency_ms\": " << result.snapshots.average_latency_ms
      << ",\n";
  out << "  \"max_latency_ms\": " << result.snapshots.max_latency_ms
      << ",\n";
  out << "  \"p50_latency_ms\": " << result.snapshots.p50_latency_ms
      << ",\n";
  out << "  \"p95_latency_ms\": " << result.snapshots.p95_latency_ms
      << ",\n";
  out << "  \"p99_latency_ms\": " << result.snapshots.p99_latency_ms
      << ",\n";
  out << "  \"throughput_tps\": " << result.snapshots.throughput_tps
      << ",\n";
  out << "  \"avg_cluster_ms\": " << result.avg_cluster_ms << ",\n";
  out << "  \"avg_enum_ms\": " << result.avg_enum_ms << ",\n";
  out << "  \"avg_cluster_size\": " << result.avg_cluster_size << ",\n";
  for (const core::CounterField& f : core::kCounterFields) {
    out << "  \"" << f.name << "\": " << result.*f.value << ",\n";
  }
  out << "  \"crashed\": " << (result.crashed ? "true" : "false") << ",\n";
  out << "  \"last_checkpoint_id\": " << result.last_checkpoint_id
      << ",\n";
  out << "  \"checkpoints_completed\": " << result.checkpoints_completed
      << ",\n";
  out << "  \"checkpoints_failed\": " << result.checkpoints_failed
      << ",\n";
  out << "  \"trace_events\": " << result.trace_events << ",\n";
  out << "  \"trace_dropped\": " << result.trace_dropped << ",\n";
  if (!result.stage_stats.empty()) {
    out << "  \"stages\": ";
    WriteStageStatsJson(result.stage_stats, out);
    out << ",\n";
  }
  if (!result.time_series.empty()) {
    out << "  \"time_series\": ";
    flow::WriteTimeSeriesJson(result.time_series, out);
    out << ",\n";
  }
  if (!result.worst_snapshots.empty()) {
    out << "  \"worst_snapshots\": [";
    for (std::size_t i = 0; i < result.worst_snapshots.size(); ++i) {
      const flow::SnapshotStageBreakdown& row = result.worst_snapshots[i];
      if (i) out << ',';
      out << "\n    {\"snapshot_time\": " << row.snapshot_time
          << ", \"latency_ms\": " << row.latency_ms << ", \"stages\": {";
      for (std::size_t j = 0; j < row.stage_ms.size(); ++j) {
        if (j) out << ", ";
        out << '"' << row.stage_ms[j].first
            << "\": " << row.stage_ms[j].second;
      }
      out << "}}";
    }
    out << "\n  ],\n";
  }
  out << "  \"patterns\": ";
  WritePatternsJson(result.patterns, out);
  out << "}\n";
}

void WriteStageStatsJson(
    const std::vector<flow::StageStatsSnapshot>& stages,
    std::ostream& out) {
  // Driven by the shared field table, so the JSON keys and the text
  // table of PrintStageStats cannot diverge (export_test pins this).
  const std::vector<flow::StageStatsField>& fields =
      flow::StageStatsFields();
  out << "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const flow::StageStatsSnapshot& s = stages[i];
    if (i) out << ",";
    out << "\n    {\"stage\": \"" << s.stage << "\"";
    for (const flow::StageStatsField& f : fields) {
      out << ", \"" << f.json_name << "\": ";
      const double v = f.value(s);
      if (f.integral) {
        out << static_cast<std::int64_t>(v);
      } else {
        out << v;
      }
    }
    out << "}";
  }
  out << "\n  ]";
}

}  // namespace comove::apps
