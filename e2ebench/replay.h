#ifndef COMOVE_E2EBENCH_REPLAY_H_
#define COMOVE_E2EBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <string>

#include "core/icpe_engine.h"
#include "flow/trace.h"
#include "pattern/streaming_enumerator.h"
#include "trajgen/dataset.h"
#include "workloads.h"

/// \file
/// Single-threaded layered replay of a workload's stream through the
/// layers' public entry points, in the order the engine's operators call
/// them at p = 1. Every call is one span, so each layer's self time is
/// measured from outside the engine; the emitted pattern set is the
/// reference every engine run is checked against.

namespace comove::e2ebench {

enum Layer : int {
  kAssembler,
  kCluster,  ///< parent of kJoin and kDbscan
  kJoin,
  kDbscan,
  kPartition,
  kEnumerate,  ///< parent of kSink
  kSink,
  kCheckpoint,
  kLayerCount,
};

/// Metric stem of each layer, index-aligned with Layer.
inline constexpr const char* kLayerMetric[kLayerCount] = {
    "flow.assembler", "cluster.other",     "cluster.join",
    "cluster.dbscan", "pattern.partition", "pattern.enumerate",
    "pattern.sink",   "flow.checkpoint",
};

struct ReplayReport {
  std::string digest;
  std::int64_t snapshots = 0;
  std::int64_t patterns = 0;
  double wall_ms = 0.0;
  std::array<double, kLayerCount> self_ms{};
  std::int64_t clusters = 0;
  std::int64_t cluster_members = 0;
  std::int64_t partition_members = 0;
  pattern::EnumerationStats enumeration;
  std::int64_t emitted = 0;      ///< sink calls
  std::int64_t state_bytes = 0;  ///< enumerator state before the final flush
  std::int64_t checkpoints = 0;
  std::int64_t spans = 0;
  std::int64_t spans_dropped = 0;
};

/// Replays `dataset` layer by layer with spans recorded into `trace`.
ReplayReport LayeredReplay(const Workload& workload,
                           const trajgen::Dataset& dataset,
                           const core::IcpeOptions& options,
                           flow::TraceRecorder& trace);

}  // namespace comove::e2ebench

#endif  // COMOVE_E2EBENCH_REPLAY_H_
