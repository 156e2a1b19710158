#include "cluster/dbscan.h"

#include <algorithm>
#include <cstring>

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
  COMOVE_CHECK(options.min_pts >= 1);
  const std::size_t n = snapshot.entries.size();

  // One arena rewind per call; every buffer below re-reserves its full
  // footprint in a single bump (sizes are all known up front).
  scratch.BeginSnapshot();
  Arena& arena = scratch.arena;

  // Dense indexing of the snapshot's trajectory ids: a sorted flat table
  // instead of a hash map, so lookups are cache-friendly binary searches
  // and the table's arena footprint survives across snapshots.
  auto& interner = scratch.interner;
  interner.Reserve(arena, n);
  for (std::size_t i = 0; i < n; ++i) {
    interner.PushBack(
        DbscanIdIndex{snapshot.entries[i].id, static_cast<std::int32_t>(i)});
  }
  std::sort(interner.begin(), interner.end(),
            [](const DbscanIdIndex& a, const DbscanIdIndex& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 1; i < n; ++i) {
    COMOVE_CHECK_MSG(interner[i].id != interner[i - 1].id,
                     "duplicate trajectory in snapshot");
  }
  const auto index_of = [&interner](TrajectoryId id) {
    const auto it = std::lower_bound(
        interner.begin(), interner.end(), id,
        [](const DbscanIdIndex& e, TrajectoryId v) { return e.id < v; });
    COMOVE_CHECK_MSG(it != interner.end() && it->id == id,
                     "join pair references id outside the snapshot");
    return it->index;
  };

  // Intern the pair endpoints once; both CSR passes below reuse them.
  auto& edges = scratch.edges;
  edges.Reserve(arena, pairs.size());
  for (const NeighborPair& p : pairs) {
    edges.PushBack(DbscanEdge{index_of(p.a), index_of(p.b)});
  }

  // CSR adjacency via two-pass counting sort: degree count, prefix sum,
  // fill. Each node's neighbours land in pair-list order - the order the
  // vector-of-vectors build produced - so traversal is unchanged.
  auto& offsets = scratch.offsets;
  offsets.Assign(arena, n + 1, 0);
  for (const auto& [a, b] : edges) {
    ++offsets[static_cast<std::size_t>(a) + 1];
    ++offsets[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  auto& cursor = scratch.cursor;
  cursor.Resize(arena, n);
  if (n != 0) {
    std::memcpy(cursor.data(), offsets.data(), n * sizeof(std::int32_t));
  }
  auto& adjacency = scratch.adjacency;
  adjacency.Resize(arena, 2 * edges.size());
  for (const auto& [a, b] : edges) {
    adjacency[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(a)]++)] = b;
    adjacency[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(b)]++)] = a;
  }

  // Core test: |neighbourhood| = degree + 1 (the point itself counts).
  auto& core = scratch.core;
  core.Resize(arena, n);
  for (std::size_t i = 0; i < n; ++i) {
    core[i] = offsets[i + 1] - offsets[i] + 1 >= options.min_pts ? 1 : 0;
  }

  // Expand clusters: BFS over core-core edges; border points (non-core
  // within eps of a core) join the first cluster that reaches them.
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

  // Materialise cluster member lists.
  std::vector<Cluster> clusters(static_cast<std::size_t>(next_cluster));
  for (std::int32_t c = 0; c < next_cluster; ++c) {
    clusters[static_cast<std::size_t>(c)].cluster_id = c;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_of[i] != kUnassigned) {
      clusters[static_cast<std::size_t>(cluster_of[i])].members.push_back(
          snapshot.entries[i].id);
    }
  }
  for (Cluster& c : clusters) {
    std::sort(c.members.begin(), c.members.end());
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.members.front() < b.members.front();
            });
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    clusters[c].cluster_id = static_cast<std::int32_t>(c);
  }

  ClusterSnapshot out;
  out.time = snapshot.time;
  out.clusters = std::move(clusters);
  return out;
}

}  // namespace comove::cluster
