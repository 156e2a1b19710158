#ifndef COMOVE_CLUSTER_DBSCAN_H_
#define COMOVE_CLUSTER_DBSCAN_H_

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/types.h"

/// \file
/// DBSCAN (§3.2 / §5.3) evaluated on the output of a range join: once the
/// eps-neighbour pairs of a snapshot are known, cores, density
/// reachability and clusters follow in a single O(n + |pairs|) pass -
/// which is why the paper concentrates all indexing effort on the join.
///
/// The evaluation runs in snapshot-index space over flat arrays: the
/// clustering path's join already emits pairs of entry indices of an
/// id-ordered snapshot (InIdOrder, join_kernel.h), so the adjacency is
/// built straight from them as CSR (degree count -> prefix sum -> fill,
/// a two-pass counting sort over the pair list - no per-node vectors),
/// and the BFS walks the CSR arrays. Entry index order is id order, so
/// seeds are visited in id order and members come out sorted. All
/// working memory lives in a reusable DbscanScratch so the streaming hot
/// path allocates nothing per snapshot beyond the returned
/// ClusterSnapshot.

namespace comove::cluster {

/// DBSCAN density parameters. A location is a core point when its
/// eps-neighbourhood (including itself, as in the reference algorithm)
/// contains at least min_pts locations.
struct DbscanOptions {
  std::int32_t min_pts = 10;
};

/// Reusable working memory for DBSCAN, carved from one Arena. Every
/// buffer's size is known up front (n or |pairs|), so each call rewinds
/// the arena once and re-reserves every buffer in a single bump - the
/// steady state touches the same addresses every snapshot and allocates
/// nothing. Owned by one worker thread; not thread-safe.
struct DbscanScratch {
  Arena arena;
  ArenaVector<std::int32_t> offsets;    ///< CSR row offsets (n + 1)
  ArenaVector<std::int32_t> cursor;     ///< CSR fill cursors
  ArenaVector<std::int32_t> adjacency;  ///< CSR column indices (2 |pairs|)
  ArenaVector<std::int32_t> cluster_of;
  ArenaVector<std::int32_t> frontier;
  ArenaVector<std::int32_t> rank;  ///< BFS cluster -> output position
  ArenaVector<std::uint8_t> core;

  /// Rewinds the arena (called once per DBSCAN call = once per snapshot
  /// on a streaming worker).
  void BeginSnapshot() {
    arena.Reset();
    offsets.Release();
    cursor.Release();
    adjacency.Release();
    cluster_of.Release();
    frontier.Release();
    rank.Release();
    core.Release();
  }
};

/// Runs DBSCAN over one snapshot given its range-join result in id pairs.
///
/// `pairs` must contain each unordered eps-neighbour pair exactly once
/// (the contract of RangeJoinRJC/SRJ/Brute), in any order and either
/// orientation; a repeated snapshot id aborts. Clusters are
/// connected components of core points plus their density-reachable
/// border points. Seeds are visited in id order, so a border point
/// reachable from several clusters joins the one whose smallest core id
/// is smallest, and the result does not depend on the order of the
/// snapshot's entries or of `pairs`. Noise points appear in no cluster.
/// Cluster members are sorted ascending; clusters are ordered by their
/// smallest member and numbered 0, 1, ... within the snapshot. A thin
/// mapping onto DbscanFromIndexPairs.
ClusterSnapshot DbscanFromNeighbors(const Snapshot& snapshot,
                                    const std::vector<NeighborPair>& pairs,
                                    const DbscanOptions& options);

/// DbscanFromNeighbors reusing `scratch` across snapshots; identical
/// output to the allocating overload.
ClusterSnapshot DbscanFromNeighbors(const Snapshot& snapshot,
                                    const std::vector<NeighborPair>& pairs,
                                    const DbscanOptions& options,
                                    DbscanScratch& scratch);

/// The clustering path's DBSCAN. `by_id` must be an InIdOrder result and
/// `pairs` must hold each unordered eps-neighbour pair of its entry
/// indices exactly once, in any order and either orientation (the raw
/// stream of RangeJoinIndexPairs). Same clusters as DbscanFromNeighbors
/// on the matching id pairs.
ClusterSnapshot DbscanFromIndexPairs(const Snapshot& by_id,
                                     const std::vector<NeighborPair>& pairs,
                                     const DbscanOptions& options,
                                     DbscanScratch& scratch);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_DBSCAN_H_
