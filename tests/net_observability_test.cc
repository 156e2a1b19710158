#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serde.h"
#include "core/distributed.h"
#include "core/icpe_engine.h"
#include "flow/metrics_sampler.h"
#include "flow/net/wire.h"
#include "flow/stage_stats.h"
#include "flow/trace.h"
#include "trajgen/dataset.h"

/// Cross-process observability: the wire codecs that ship stage-stats
/// snapshots and trace events over the control link, and end-to-end
/// distributed runs whose merged timeline / time series must cover every
/// process. Like net_pipeline_test, this binary doubles as the worker
/// via the MaybeNetWorker hook in its custom main().

namespace comove::core {
namespace {

using trajgen::Dataset;
using trajgen::DatasetBuilder;

// --- Wire codec round-trips -------------------------------------------

flow::StageStatsSnapshot SampleSnapshot() {
  flow::StageStats stats("w1:cluster->enumerate");
  for (int i = 0; i < 7; ++i) stats.OnPush(/*is_watermark=*/false, 0);
  stats.OnPush(/*is_watermark=*/true, /*blocked_ns=*/1'500'000);
  stats.OnPush(/*is_watermark=*/true, 0);
  for (int i = 0; i < 5; ++i) stats.OnPop(/*is_watermark=*/false, 0);
  stats.OnPop(/*is_watermark=*/true, /*blocked_ns=*/3'000'000);
  stats.OnPop(/*is_watermark=*/true, 0);
  stats.OnWatermarkValue(29);
  stats.OnBarrierPushed(0);
  stats.OnBarrierPushed(0);
  stats.OnBarrierPopped(0);
  stats.OnBarrierPopped(0);
  stats.OnAlignBlocked(500'000);
  stats.OnSnapshot(256, 3);
  stats.OnLinkFrameSent(120, 10'000);
  stats.OnLinkFrameReceived(88, 20'000);
  stats.OnCrcReject();
  return stats.Snapshot();
}

TEST(ObservabilityWire, StageStatsSnapshotRoundTrips) {
  const flow::StageStatsSnapshot in = SampleSnapshot();
  std::string payload;
  BinaryWriter writer(&payload);
  flow::net::WriteStageStatsSnapshot(&writer, in);

  BinaryReader reader(payload);
  flow::StageStatsSnapshot out;
  ASSERT_TRUE(flow::net::ReadStageStatsSnapshot(&reader, &out));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(out.stage, in.stage);
  EXPECT_EQ(out.records_pushed, in.records_pushed);
  EXPECT_EQ(out.records_popped, in.records_popped);
  EXPECT_EQ(out.watermarks_pushed, in.watermarks_pushed);
  EXPECT_EQ(out.watermarks_popped, in.watermarks_popped);
  EXPECT_EQ(out.queue_depth, in.queue_depth);
  EXPECT_EQ(out.max_queue_depth, in.max_queue_depth);
  EXPECT_DOUBLE_EQ(out.push_blocked_ms, in.push_blocked_ms);
  EXPECT_DOUBLE_EQ(out.pop_blocked_ms, in.pop_blocked_ms);
  EXPECT_EQ(out.barriers_pushed, in.barriers_pushed);
  EXPECT_EQ(out.barriers_popped, in.barriers_popped);
  EXPECT_DOUBLE_EQ(out.align_blocked_ms, in.align_blocked_ms);
  EXPECT_EQ(out.snapshot_bytes, in.snapshot_bytes);
  EXPECT_EQ(out.last_checkpoint_id, in.last_checkpoint_id);
  EXPECT_EQ(out.last_watermark, in.last_watermark);
  EXPECT_EQ(out.bytes_pushed, in.bytes_pushed);
  EXPECT_EQ(out.bytes_popped, in.bytes_popped);
  EXPECT_EQ(out.crc_rejects, in.crc_rejects);
}

TEST(ObservabilityWire, TruncatedSnapshotFailsCleanly) {
  const flow::StageStatsSnapshot in = SampleSnapshot();
  std::string payload;
  BinaryWriter writer(&payload);
  flow::net::WriteStageStatsSnapshot(&writer, in);
  // Every strict prefix must fail the reader, never crash or fabricate.
  for (std::size_t cut = 0; cut < payload.size(); cut += 7) {
    BinaryReader reader(std::string_view(payload.data(), cut));
    flow::StageStatsSnapshot out;
    EXPECT_FALSE(flow::net::ReadStageStatsSnapshot(&reader, &out))
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ObservabilityWire, TraceEventRoundTripsAndInterns) {
  flow::net::TraceStringTable strings;
  const flow::TraceEvent a{"join", "neighbor_pairs", 3, 17, 42, 1'000, 900};
  const flow::TraceEvent b{"join", "dbscan", 1, 18, 0, 2'000, 100};
  std::string payload;
  BinaryWriter writer(&payload);
  flow::net::WriteTraceEvent(&writer, a);
  flow::net::WriteTraceEvent(&writer, b);

  BinaryReader reader(payload);
  flow::TraceEvent out_a;
  flow::TraceEvent out_b;
  ASSERT_TRUE(flow::net::ReadTraceEvent(&reader, &strings, &out_a));
  ASSERT_TRUE(flow::net::ReadTraceEvent(&reader, &strings, &out_b));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_STREQ(out_a.stage, "join");
  EXPECT_STREQ(out_a.name, "neighbor_pairs");
  EXPECT_EQ(out_a.subtask, 3);
  EXPECT_EQ(out_a.snapshot_time, 17);
  EXPECT_EQ(out_a.aux, 42);
  EXPECT_EQ(out_a.start_ns, 1'000u);
  EXPECT_EQ(out_a.dur_ns, 900u);
  // Same stage string across events interns to one stable pointer.
  EXPECT_EQ(out_a.stage, out_b.stage);

  BinaryReader truncated(std::string_view(payload.data(), 5));
  flow::TraceEvent out;
  EXPECT_FALSE(flow::net::ReadTraceEvent(&truncated, &strings, &out));
}

// --- End-to-end distributed runs --------------------------------------

/// Small deterministic stream with co-moving structure (see
/// net_pipeline_test's ConvoyDataset for the full-size variant).
Dataset SmallConvoy() {
  DatasetBuilder b("obs-convoys");
  for (Timestamp t = 0; t < 20; ++t) {
    for (int g = 0; g < 2; ++g) {
      for (TrajectoryId m = 0; m < 4; ++m) {
        b.Add(g * 4 + m, t,
              Point{150.0 * g + 0.5 * static_cast<double>(t),
                    8.0 * g + 0.1 * static_cast<double>(m)});
      }
    }
    for (TrajectoryId n = 8; n < 12; ++n) {
      const double phase = 0.3 * static_cast<double>(t + n);
      b.Add(n, t,
            Point{500.0 + 70.0 * static_cast<double>(n) +
                      20.0 * std::sin(phase),
                  400.0 + 20.0 * std::cos(phase)});
    }
  }
  return b.Finalize();
}

IcpeOptions BaseOptions() {
  IcpeOptions options;
  options.cluster_options.join =
      cluster::RangeJoinOptions{.grid_cell_width = 5.0, .eps = 1.0};
  options.cluster_options.dbscan = cluster::DbscanOptions{2};
  options.constraints = PatternConstraints{2, 5, 2, 2};
  options.parallelism = 4;
  return options;
}

DistributedOptions Deployment(std::int32_t workers) {
  DistributedOptions dist;
  dist.workers = workers;
  dist.transport = "unix";
  return dist;
}

TEST(ObservabilityEndToEnd, MergedTraceCoversEveryProcess) {
  const std::string trace_path = "/tmp/comove-obs-trace-" +
                                 std::to_string(::getpid()) + ".json";
  const Dataset dataset = SmallConvoy();
  IcpeOptions options = BaseOptions();
  options.trace_path = trace_path;
  const IcpeResult result =
      RunIcpeDistributed(dataset, options, Deployment(2));
  ASSERT_FALSE(result.crashed);
  EXPECT_GT(result.trace_events, 0);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(trace_path.c_str());

  // One lane group per process: coordinator pid 1 plus workers 2 and 3.
  EXPECT_NE(json.find("\"name\": \"coord\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"w0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"w1\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 3"), std::string::npos);
  // Coordinator-side and worker-side stages both contributed spans.
  EXPECT_NE(json.find("\"stage\": \"source\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"join\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"enumerate\""), std::string::npos);
  // Footer sums recorded events across all three processes.
  std::ostringstream footer;
  footer << "\"recorded\": " << result.trace_events;
  EXPECT_NE(json.find(footer.str()), std::string::npos);
}

TEST(ObservabilityEndToEnd, TimeSeriesCoversRemoteRows) {
  const Dataset dataset = SmallConvoy();
  IcpeOptions options = BaseOptions();
  options.sample_interval_ms = 5;
  const IcpeResult result =
      RunIcpeDistributed(dataset, options, Deployment(2));
  ASSERT_FALSE(result.crashed);
  ASSERT_FALSE(result.time_series.empty());
  ASSERT_FALSE(result.stage_stats.empty());

  // Sum of per-sample deltas reconstructs the final merged counter for
  // local rows and remote (worker-shipped) rows alike: the sampler's
  // final tick runs after the merge is complete.
  const auto total_pushed = [&](const std::string& stage) {
    std::int64_t total = 0;
    bool seen = false;
    for (const flow::MetricsSample& sample : result.time_series) {
      for (const flow::StageSample& row : sample.stages) {
        if (row.stage == stage) {
          total += row.records_pushed;
          seen = true;
        }
      }
    }
    EXPECT_TRUE(seen) << stage << " never appeared in the time series";
    return total;
  };
  const auto final_pushed = [&](const std::string& stage) -> std::int64_t {
    for (const flow::StageStatsSnapshot& row : result.stage_stats) {
      if (row.stage == stage) return row.records_pushed;
    }
    ADD_FAILURE() << stage << " missing from stage_stats";
    return -1;
  };
  for (const char* stage :
       {"link:w0", "w0:assembler->cluster", "w1:link:coord"}) {
    EXPECT_EQ(total_pushed(stage), final_pushed(stage)) << stage;
    EXPECT_GT(final_pushed(stage), 0) << stage;
  }

  // Watermark lag is defined across processes once local and merged
  // remote rows both carry watermark gauges.
  EXPECT_NE(result.time_series.back().watermark_lag, kNoTime);
}

}  // namespace
}  // namespace comove::core

/// Custom main: a spawned worker re-enters here with the sentinel argv
/// and must never reach the gtest runner.
int main(int argc, char** argv) {
  if (const auto code = comove::core::MaybeNetWorker(argc, argv)) {
    return *code;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
