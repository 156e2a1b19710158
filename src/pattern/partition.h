#ifndef COMOVE_PATTERN_PARTITION_H_
#define COMOVE_PATTERN_PARTITION_H_

#include <vector>

#include "common/constraints.h"
#include "common/types.h"

/// \file
/// Id-based partitioning (§6.1): for every trajectory o of every
/// sufficiently large cluster (Lemma 3: |C| >= M), the partition P_t(o)
/// contains the cluster members with ids larger than o. Partitions of the
/// same owner are routed to the same subtask across time, which is the
/// whole distribution scheme - unlike SPARE's star partitioning it needs
/// no advance knowledge of which trajectories are related.

namespace comove::pattern {

/// One partition P_t(o).
struct Partition {
  TrajectoryId owner = 0;
  Timestamp time = 0;
  /// Cluster members with id > owner, ascending. May be empty (an owner
  /// whose cluster tail is empty still anchors patterns of other owners).
  std::vector<TrajectoryId> members;
};

/// The partitions of one snapshot bound for one enumerate subtask: the
/// element the cluster -> enumerate edge carries, so a channel's capacity
/// counts snapshots in flight, not partitions.
struct PartitionGroup {
  Timestamp time = 0;
  std::vector<Partition> parts;  ///< each with time == `time`
};

/// Builds all partitions of one cluster snapshot, applying Lemma 3
/// (clusters smaller than `constraints.m` cannot host a pattern and are
/// dropped).
std::vector<Partition> MakePartitions(const ClusterSnapshot& snapshot,
                                      const PatternConstraints& constraints);

}  // namespace comove::pattern

#endif  // COMOVE_PATTERN_PARTITION_H_
