#include "replay.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/clustering.h"
#include "common/serde.h"
#include "core/stage_workers.h"
#include "core/state_serde.h"
#include "digest.h"
#include "flow/snapshot_assembler.h"
#include "pattern/enumerator.h"
#include "pattern/partition.h"

namespace comove::e2ebench {

namespace {

/// Trace lane (stage) and span name of each layer. Children share their
/// parent's lane, so a trace viewer nests join/dbscan under cluster and
/// sink under enumerate.
constexpr const char* kLayerStage[kLayerCount] = {
    "assembler", "cluster", "cluster", "cluster",
    "partition", "enumerate", "enumerate", "checkpoint",
};
constexpr const char* kLayerSpan[kLayerCount] = {
    "assemble", "cluster", "join", "dbscan",
    "partition", "enumerate", "sink", "checkpoint",
};

/// Span stack over a TraceRecorder that also keeps per-layer self time:
/// a span's duration minus what its child spans cover. A span's `aux` is
/// its parent's Layer + 1 (0 at the top level); with the snapshot time it
/// names the parent span, since each layer runs once per snapshot.
class LayerClock {
 public:
  explicit LayerClock(flow::TraceRecorder& trace) : trace_(trace) {}

  void Open(Layer layer, Timestamp time) {
    open_.push_back(Frame{layer, time, trace_.NowNs(), 0});
  }

  void Close() {
    const Frame frame = open_.back();
    open_.pop_back();
    const std::uint64_t now = trace_.NowNs();
    Account(frame.layer, frame.time, frame.start_ns,
            now > frame.start_ns ? now - frame.start_ns : 0, frame.child_ns);
  }

  /// Records a child of the innermost open span that was timed elsewhere
  /// (ClusterPhaseNs), back-dated by `offset_ns` from the parent's start.
  void Child(Layer layer, std::uint64_t offset_ns, std::uint64_t dur_ns) {
    const Frame& parent = open_.back();
    Account(layer, parent.time, parent.start_ns + offset_ns, dur_ns, 0);
  }

  double SelfMs(Layer layer) const {
    return static_cast<double>(self_ns_[layer]) / 1e6;
  }

 private:
  struct Frame {
    Layer layer;
    Timestamp time;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };

  void Account(Layer layer, Timestamp time, std::uint64_t start_ns,
               std::uint64_t dur_ns, std::uint64_t child_ns) {
    self_ns_[layer] += dur_ns - std::min(child_ns, dur_ns);
    std::int64_t parent = 0;
    if (!open_.empty()) {
      open_.back().child_ns += dur_ns;
      parent = open_.back().layer + 1;
    }
    trace_.RecordSpan(kLayerStage[layer], kLayerSpan[layer], 0, time,
                      start_ns, dur_ns, parent);
  }

  flow::TraceRecorder& trace_;
  std::vector<Frame> open_;
  std::array<std::uint64_t, kLayerCount> self_ns_{};
};

void Append(std::vector<Snapshot>* out, std::vector<Snapshot> more) {
  std::move(more.begin(), more.end(), std::back_inserter(*out));
}

}  // namespace

ReplayReport LayeredReplay(const Workload& workload,
                           const trajgen::Dataset& dataset,
                           const core::IcpeOptions& options,
                           flow::TraceRecorder& trace) {
  ReplayReport report;
  LayerClock clock(trace);
  flow::SnapshotAssembler assembler;
  cluster::ClusterScratch scratch;
  pattern::PatternCollector collector;
  const bool enumerate = workload.enumerator != core::EnumeratorKind::kNone;
  Timestamp tick = kNoTime;  // sink spans carry the snapshot being fed
  std::unique_ptr<pattern::StreamingEnumerator> enumerator;
  if (enumerate) {
    enumerator = core::MakeEnumerator(
        workload.enumerator, workload.constraints,
        [&](const CoMovementPattern& p) {
          clock.Open(kSink, tick);
          collector.Add(p);
          clock.Close();
          ++report.emitted;
        });
  }

  const auto process = [&](std::vector<Snapshot> ready) {
    for (const Snapshot& snapshot : ready) {
      const Timestamp t = snapshot.time;
      tick = t;
      ++report.snapshots;
      clock.Open(kCluster, t);
      cluster::ClusterPhaseNs phases;
      const ClusterSnapshot clustered = cluster::ClusterSnapshotWith(
          options.clustering, snapshot, options.cluster_options, scratch,
          &phases);
      clock.Child(kJoin, 0, phases.join_ns);
      clock.Child(kDbscan, phases.join_ns, phases.dbscan_ns);
      clock.Close();
      for (const Cluster& c : clustered.clusters) {
        ++report.clusters;
        report.cluster_members += static_cast<std::int64_t>(c.members.size());
      }
      if (!enumerate) continue;

      clock.Open(kPartition, t);
      std::vector<pattern::Partition> parts =
          pattern::MakePartitions(clustered, workload.constraints);
      clock.Close();
      for (const pattern::Partition& part : parts) {
        report.partition_members +=
            static_cast<std::int64_t>(part.members.size());
      }

      // As the enumerate subtask does: data for the tick (if any), then
      // the watermark that finalises it.
      clock.Open(kEnumerate, t);
      if (!parts.empty()) enumerator->OnPartitions(t, std::move(parts));
      enumerator->AdvanceTime(t);
      clock.Close();

      if (workload.checkpoint_interval > 0 &&
          report.snapshots % workload.checkpoint_interval == 0) {
        // The operator state a barrier snapshots, fold included.
        clock.Open(kCheckpoint, t);
        std::string state;
        BinaryWriter writer(&state);
        assembler.SaveState(&writer);
        enumerator->SaveState(&writer);
        writer.WriteU64(collector.size());
        for (const auto& [objects, p] : collector.entries()) {
          core::WritePattern(&writer, p);
        }
        clock.Close();
        ++report.checkpoints;
      }
    }
  };

  // The source's order of events: at each new record time t the birth
  // bound advances to t - 1, then t's records arrive; the stream closes
  // with a final bound and Finish.
  const std::uint64_t start_ns = trace.NowNs();
  const std::vector<GpsRecord>& records = dataset.records;
  Timestamp current = kNoTime;
  for (std::size_t i = 0; i < records.size();) {
    current = records[i].time;
    std::vector<Snapshot> ready;
    clock.Open(kAssembler, current);
    Append(&ready, assembler.AdvanceBirthBound(current - 1));
    for (; i < records.size() && records[i].time == current; ++i) {
      Append(&ready, assembler.OnRecord(records[i]));
    }
    clock.Close();
    process(std::move(ready));
  }
  {
    std::vector<Snapshot> ready;
    clock.Open(kAssembler, current);
    if (current != kNoTime) {
      Append(&ready, assembler.AdvanceBirthBound(current));
    }
    Append(&ready, assembler.Finish());
    clock.Close();
    process(std::move(ready));
  }
  std::uint64_t wall_ns = trace.NowNs() - start_ns;

  if (enumerate) {
    // Untimed probe of the live enumerator state before the final flush.
    std::string state;
    BinaryWriter writer(&state);
    enumerator->SaveState(&writer);
    report.state_bytes = static_cast<std::int64_t>(state.size());

    const std::uint64_t flush_ns = trace.NowNs();
    tick = current + 1;
    clock.Open(kEnumerate, tick);
    enumerator->Finish();
    clock.Close();
    wall_ns += trace.NowNs() - flush_ns;
    report.enumeration = enumerator->enumeration_stats();
  }

  report.wall_ms = static_cast<double>(wall_ns) / 1e6;
  for (int l = 0; l < kLayerCount; ++l) {
    report.self_ms[l] = clock.SelfMs(static_cast<Layer>(l));
  }
  const std::vector<CoMovementPattern> patterns = collector.Patterns();
  report.patterns = static_cast<std::int64_t>(patterns.size());
  report.digest = PatternDigest(patterns);
  report.spans = trace.recorded();
  report.spans_dropped = trace.dropped();
  return report;
}

}  // namespace comove::e2ebench
