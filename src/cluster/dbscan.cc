#include "cluster/dbscan.h"

#include <algorithm>
#include <cstring>

#include "cluster/join_kernel.h"
#include "common/check.h"

namespace comove::cluster {

ClusterSnapshot DbscanFromNeighbors(const Snapshot& snapshot,
                                    const std::vector<NeighborPair>& pairs,
                                    const DbscanOptions& options) {
  DbscanScratch scratch;
  return DbscanFromNeighbors(snapshot, pairs, options, scratch);
}

ClusterSnapshot DbscanFromNeighbors(const Snapshot& snapshot,
                                    const std::vector<NeighborPair>& pairs,
                                    const DbscanOptions& options,
                                    DbscanScratch& scratch) {
  Snapshot copy;
  const Snapshot& by_id = InIdOrder(snapshot, copy);
  const std::vector<SnapshotEntry>& entries = by_id.entries;
  const auto index_of = [&entries](TrajectoryId id) {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), id,
        [](const SnapshotEntry& e, TrajectoryId v) { return e.id < v; });
    COMOVE_CHECK_MSG(it != entries.end() && it->id == id,
                     "join pair references id outside the snapshot");
    return static_cast<TrajectoryId>(it - entries.begin());
  };
  std::vector<NeighborPair> index_pairs;
  index_pairs.reserve(pairs.size());
  for (const NeighborPair& p : pairs) {
    index_pairs.push_back(NeighborPair{index_of(p.a), index_of(p.b)});
  }
  return DbscanFromIndexPairs(by_id, index_pairs, options, scratch);
}

ClusterSnapshot DbscanFromIndexPairs(const Snapshot& by_id,
                                     const std::vector<NeighborPair>& pairs,
                                     const DbscanOptions& options,
                                     DbscanScratch& scratch) {
  COMOVE_CHECK(options.min_pts >= 1);
  const std::size_t n = by_id.entries.size();

  // One arena rewind per call; every buffer below re-reserves its full
  // footprint in a single bump (sizes are all known up front).
  scratch.BeginSnapshot();
  Arena& arena = scratch.arena;

  // CSR adjacency via two-pass counting sort straight from the index
  // pairs: degree count, prefix sum, fill.
  auto& offsets = scratch.offsets;
  offsets.Assign(arena, n + 1, 0);
  for (const NeighborPair& p : pairs) {
    ++offsets[static_cast<std::size_t>(p.a) + 1];
    ++offsets[static_cast<std::size_t>(p.b) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  auto& cursor = scratch.cursor;
  cursor.Resize(arena, n);
  if (n != 0) {
    std::memcpy(cursor.data(), offsets.data(), n * sizeof(std::int32_t));
  }
  auto& adjacency = scratch.adjacency;
  adjacency.Resize(arena, 2 * pairs.size());
  for (const NeighborPair& p : pairs) {
    const auto a = static_cast<std::size_t>(p.a);
    const auto b = static_cast<std::size_t>(p.b);
    adjacency[static_cast<std::size_t>(cursor[a]++)] =
        static_cast<std::int32_t>(b);
    adjacency[static_cast<std::size_t>(cursor[b]++)] =
        static_cast<std::int32_t>(a);
  }

  // Core test: |neighbourhood| = degree + 1 (the point itself counts).
  auto& core = scratch.core;
  core.Resize(arena, n);
  for (std::size_t i = 0; i < n; ++i) {
    core[i] = offsets[i + 1] - offsets[i] + 1 >= options.min_pts ? 1 : 0;
  }

  // Expand clusters: BFS over core-core edges from seeds in index (= id)
  // order; border points (non-core within eps of a core) join the first
  // cluster that reaches them. Which cluster that is does not depend on
  // the order of the adjacency lists: each BFS claims every unassigned
  // neighbour of its cores before the next seed starts.
  constexpr std::int32_t kUnassigned = -1;
  auto& cluster_of = scratch.cluster_of;
  cluster_of.Assign(arena, n, kUnassigned);
  std::int32_t next_cluster = 0;
  auto& frontier = scratch.frontier;
  // Each node enters a frontier at most once across all seeds (assignment
  // happens before the push), so capacity n covers every BFS.
  frontier.Reserve(arena, n);
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (!core[seed] || cluster_of[seed] != kUnassigned) continue;
    const std::int32_t cid = next_cluster++;
    cluster_of[seed] = cid;
    frontier.Clear();
    frontier.PushBack(static_cast<std::int32_t>(seed));
    while (!frontier.empty()) {
      const auto u = static_cast<std::size_t>(frontier.Back());
      frontier.PopBack();
      const std::int32_t end = offsets[u + 1];
      for (std::int32_t e = offsets[u]; e < end; ++e) {
        const std::int32_t vi = adjacency[static_cast<std::size_t>(e)];
        const auto v = static_cast<std::size_t>(vi);
        if (cluster_of[v] != kUnassigned) continue;
        cluster_of[v] = cid;
        if (core[v]) frontier.PushBack(vi);
      }
    }
  }

  // Materialise member lists in one pass in index (= id) order: members
  // arrive sorted, and a cluster's first member is its smallest, so
  // numbering clusters at first sight orders them by smallest member.
  auto& rank = scratch.rank;
  rank.Assign(arena, static_cast<std::size_t>(next_cluster), kUnassigned);
  std::vector<Cluster> clusters;
  clusters.reserve(static_cast<std::size_t>(next_cluster));
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_of[i] == kUnassigned) continue;
    std::int32_t& r = rank[static_cast<std::size_t>(cluster_of[i])];
    if (r == kUnassigned) {
      r = static_cast<std::int32_t>(clusters.size());
      clusters.push_back(Cluster{r, {}});
    }
    clusters[static_cast<std::size_t>(r)].members.push_back(
        by_id.entries[i].id);
  }

  ClusterSnapshot out;
  out.time = by_id.time;
  out.clusters = std::move(clusters);
  return out;
}

}  // namespace comove::cluster
