#include "cluster/clustering.h"

#include <chrono>

#include "cluster/gdc.h"
#include "common/check.h"

namespace comove::cluster {

const char* ClusteringMethodName(ClusteringMethod method) {
  switch (method) {
    case ClusteringMethod::kRJC:
      return "RJC";
    case ClusteringMethod::kSRJ:
      return "SRJ";
    case ClusteringMethod::kGDC:
      return "GDC";
  }
  return "unknown";
}

ClusterSnapshot ClusterSnapshotWith(ClusteringMethod method,
                                    const Snapshot& snapshot,
                                    const ClusteringOptions& options) {
  ClusterScratch scratch;
  return ClusterSnapshotWith(method, snapshot, options, scratch);
}

ClusterSnapshot ClusterSnapshotWith(ClusteringMethod method,
                                    const Snapshot& snapshot,
                                    const ClusteringOptions& options,
                                    ClusterScratch& scratch) {
  return ClusterSnapshotWith(method, snapshot, options, scratch, nullptr);
}

ClusterSnapshot ClusterSnapshotWith(ClusteringMethod method,
                                    const Snapshot& snapshot,
                                    const ClusteringOptions& options,
                                    ClusterScratch& scratch,
                                    ClusterPhaseNs* phases) {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  };
  // Produce the neighbour pairs (the method-specific phase), timing it
  // only when the caller asked - the untimed path never reads a clock.
  const Clock::time_point join_start =
      phases != nullptr ? Clock::now() : Clock::time_point{};
  const std::vector<NeighborPair>* pairs = nullptr;
  std::vector<NeighborPair> gdc_pairs;
  switch (method) {
    case ClusteringMethod::kRJC:
      pairs = &RangeJoinRJC(snapshot, options.join, {}, scratch.join);
      break;
    case ClusteringMethod::kSRJ:
      pairs = &RangeJoinSRJ(snapshot, options.join, scratch.join);
      break;
    case ClusteringMethod::kGDC:
      gdc_pairs =
          GdcNeighborPairs(snapshot, options.join.eps, options.join.metric);
      pairs = &gdc_pairs;
      break;
  }
  COMOVE_CHECK(pairs != nullptr);
  const Clock::time_point dbscan_start =
      phases != nullptr ? Clock::now() : Clock::time_point{};
  if (phases != nullptr) {
    phases->join_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dbscan_start -
                                                             join_start)
            .count());
  }
  ClusterSnapshot clustered =
      DbscanFromNeighbors(snapshot, *pairs, options.dbscan, scratch.dbscan);
  if (phases != nullptr) phases->dbscan_ns = elapsed_ns(dbscan_start);
  return clustered;
}

}  // namespace comove::cluster
