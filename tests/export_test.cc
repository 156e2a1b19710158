#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "apps/json_export.h"
#include "apps/svg_export.h"
#include "pattern/live_index.h"
#include "trajgen/brinkhoff_generator.h"

namespace comove {
namespace {

CoMovementPattern P(std::vector<TrajectoryId> objects,
                    std::vector<Timestamp> times) {
  return CoMovementPattern{std::move(objects), std::move(times)};
}

TEST(JsonExport, PatternsArrayWellFormed) {
  std::ostringstream out;
  apps::WritePatternsJson({P({1, 2}, {0, 1, 2}), P({3, 4, 5}, {7})}, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"objects\":[1,2],\"times\":[0,1,2]}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"objects\":[3,4,5],\"times\":[7]}"),
            std::string::npos);
  // Brace/bracket balance.
  int depth = 0;
  for (const char c : json) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonExport, EmptyPatternsIsEmptyArray) {
  std::ostringstream out;
  apps::WritePatternsJson({}, out);
  EXPECT_EQ(out.str(), "[\n]\n");
}

TEST(JsonExport, ResultIncludesMetrics) {
  core::IcpeResult result;
  result.snapshots.snapshots = 10;
  result.snapshots.average_latency_ms = 1.5;
  result.snapshots.p99_latency_ms = 4.25;
  result.snapshots.throughput_tps = 123.0;
  result.patterns.push_back(P({1, 2}, {3, 4}));
  result.last_checkpoint_id = 7;
  result.checkpoints_completed = 7;
  // A distinct value per run counter, so a key paired with another row's
  // value fails.
  std::int64_t row = 0;
  for (const core::CounterField& f : core::kCounterFields) {
    result.*f.value = 1000 + 17 * ++row;
  }
  std::ostringstream out;
  apps::WriteResultJson(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema_version\": 7"), std::string::npos);
  for (const core::CounterField& f : core::kCounterFields) {
    const std::string entry = "\"" + std::string(f.name) +
                              "\": " + std::to_string(result.*f.value) + ",";
    EXPECT_NE(json.find(entry), std::string::npos) << entry;
  }
  EXPECT_NE(json.find("\"snapshots\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"crashed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"last_checkpoint_id\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints_completed\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints_failed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"throughput_tps\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"p99_latency_ms\": 4.25"), std::string::npos);
  EXPECT_NE(json.find("\"objects\":[1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\": 0"), std::string::npos);
  // No stage stats collected: the stages key is omitted entirely, as are
  // the sampler's and tracer's optional arrays.
  EXPECT_EQ(json.find("\"stages\""), std::string::npos);
  EXPECT_EQ(json.find("\"time_series\""), std::string::npos);
  EXPECT_EQ(json.find("\"worst_snapshots\""), std::string::npos);
}

TEST(JsonExport, ResultIncludesStageStatsWhenCollected) {
  core::IcpeResult result;
  flow::StageStatsSnapshot stage;
  stage.stage = "assembler->cluster";
  stage.records_pushed = 14;
  stage.records_popped = 14;
  stage.max_queue_depth = 3;
  stage.push_blocked_ms = 1.5;
  stage.barriers_pushed = 13;
  stage.barriers_popped = 13;
  stage.align_blocked_ms = 0.25;
  stage.snapshot_bytes = 4096;
  stage.last_checkpoint_id = 13;
  result.stage_stats.push_back(stage);
  std::ostringstream out;
  apps::WriteResultJson(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"stages\": ["), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"assembler->cluster\""),
            std::string::npos);
  EXPECT_NE(json.find("\"max_queue_depth\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"push_blocked_ms\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"barriers_pushed\": 13"), std::string::npos);
  EXPECT_NE(json.find("\"align_blocked_ms\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_bytes\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"last_checkpoint_id\": 13"), std::string::npos);
  int depth = 0;
  for (const char c : json) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

/// All `"key":` occurrences in `json`, in order - the literal key set of
/// the emitted objects.
std::vector<std::string> JsonKeys(const std::string& json) {
  std::vector<std::string> keys;
  for (std::size_t pos = json.find('"'); pos != std::string::npos;
       pos = json.find('"', pos + 1)) {
    const std::size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    if (json.compare(end + 1, 1, ":") == 0) {
      keys.push_back(json.substr(pos + 1, end - pos - 1));
    }
    pos = end;
  }
  return keys;
}

TEST(JsonExport, StageStatsTextAndJsonSurfacesMatch) {
  // The parity satellite: every counter in the --stats text table must
  // appear in the JSON export and vice versa. Both surfaces iterate
  // flow::StageStatsFields(), so this test diffs each surface's actual
  // output against the shared table - a field added to only one of the
  // three places fails here by construction.
  flow::StageStatsSnapshot stage;
  stage.stage = "source->assembler";

  std::ostringstream json_out;
  apps::WriteStageStatsJson({stage}, json_out);
  std::vector<std::string> json_keys = JsonKeys(json_out.str());

  std::ostringstream text_out;
  flow::PrintStageStats({stage}, text_out);
  std::istringstream header_line(text_out.str().substr(
      0, text_out.str().find('\n')));
  std::vector<std::string> columns;
  for (std::string column; header_line >> column;) {
    columns.push_back(column);
  }

  const std::vector<flow::StageStatsField>& fields =
      flow::StageStatsFields();
  ASSERT_EQ(json_keys.size(), fields.size() + 2);  // stage + histogram
  ASSERT_EQ(columns.size(), fields.size() + 1);    // stage
  EXPECT_EQ(json_keys.front(), "stage");
  EXPECT_EQ(json_keys.back(), "batch_size_histogram");
  EXPECT_EQ(columns.front(), "stage");
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(json_keys[i + 1], fields[i].json_name) << i;
    EXPECT_EQ(columns[i + 1], fields[i].column) << i;
  }
}

TEST(JsonExport, ResultIncludesTimeSeriesAndWorstSnapshots) {
  core::IcpeResult result;
  result.trace_events = 42;
  result.trace_dropped = 3;
  result.time_series.resize(1);
  result.time_series[0].t_ms = 10.0;
  result.time_series[0].interval_ms = 10.0;
  result.time_series[0].stages.resize(1);
  result.time_series[0].stages[0].stage = "source->assembler";
  result.time_series[0].stages[0].records_popped = 50;
  result.worst_snapshots.resize(1);
  result.worst_snapshots[0].snapshot_time = 9;
  result.worst_snapshots[0].latency_ms = 12.5;
  result.worst_snapshots[0].stage_ms = {{"join", 1.25}};

  std::ostringstream out;
  apps::WriteResultJson(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"trace_events\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"time_series\": ["), std::string::npos);
  EXPECT_NE(json.find("\"records_popped\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"worst_snapshots\": ["), std::string::npos);
  EXPECT_NE(json.find("\"snapshot_time\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"join\": 1.25"), std::string::npos);
  int depth = 0;
  for (const char c : json) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SvgExport, ProducesBalancedDocument) {
  trajgen::BrinkhoffOptions gen;
  gen.object_count = 30;
  gen.duration = 20;
  gen.group_count = 3;
  gen.group_size = 4;
  const trajgen::Dataset dataset = GenerateBrinkhoff(gen, 8);
  std::ostringstream out;
  apps::WriteSvg(dataset, {P({0, 1, 2}, {0, 1, 2, 3})}, out);
  const std::string svg = out.str();
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  // Pattern members get a palette colour, others grey.
  EXPECT_NE(svg.find("#cccccc"), std::string::npos);
  EXPECT_NE(svg.find("#e6194b"), std::string::npos);
}

TEST(SvgExport, EmptyDatasetStillValid) {
  trajgen::Dataset dataset;
  dataset.name = "empty";
  std::ostringstream out;
  apps::WriteSvg(dataset, {}, out);
  EXPECT_EQ(out.str().find("<svg"), 0u);
  EXPECT_NE(out.str().find("</svg>"), std::string::npos);
}

TEST(LivePatternIndex, BasicQueries) {
  pattern::LivePatternIndex index;
  auto sink = index.AsSink();
  sink(P({1, 2}, {0, 1, 2, 3}));
  sink(P({1, 2, 3}, {1, 2}));
  sink(P({4, 5}, {10, 11}));
  EXPECT_EQ(index.size(), 3u);

  EXPECT_EQ(index.PatternsContaining(1).size(), 2u);
  EXPECT_EQ(index.PatternsContaining(4).size(), 1u);
  EXPECT_TRUE(index.PatternsContaining(99).empty());

  EXPECT_EQ(index.ActiveAt(1).size(), 2u);
  EXPECT_EQ(index.ActiveAt(10).size(), 1u);
  EXPECT_TRUE(index.ActiveAt(77).empty());

  EXPECT_EQ(index.CompanionsOf(1), (std::vector<TrajectoryId>{2, 3}));
  EXPECT_EQ(index.CompanionsOf(5), (std::vector<TrajectoryId>{4}));

  EXPECT_EQ(index.StrongestPatternOf(1).times.size(), 4u);
  EXPECT_TRUE(index.StrongestPatternOf(42).objects.empty());
}

TEST(LivePatternIndex, DuplicateEmissionsKeepLongestWitness) {
  pattern::LivePatternIndex index;
  index.Add(P({1, 2}, {0, 1}));
  index.Add(P({1, 2}, {0, 1, 2, 3, 4}));
  index.Add(P({1, 2}, {5, 6}));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.StrongestPatternOf(1).times.size(), 5u);
}

TEST(LivePatternIndex, ConcurrentAddsAreSafe) {
  pattern::LivePatternIndex index;
  auto sink = index.AsSink();
  std::thread a([&] {
    for (TrajectoryId i = 0; i < 500; ++i) sink(P({i, i + 1000}, {0, 1}));
  });
  std::thread b([&] {
    for (TrajectoryId i = 0; i < 500; ++i) sink(P({i, i + 2000}, {0, 1}));
  });
  a.join();
  b.join();
  EXPECT_EQ(index.size(), 1000u);
}

}  // namespace
}  // namespace comove
