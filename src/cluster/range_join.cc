#include "cluster/range_join.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace comove::cluster {

std::vector<GridObject> GridAllocate(const Snapshot& snapshot,
                                     const RangeJoinOptions& options,
                                     bool use_lemma1) {
  std::vector<GridObject> out;
  const GridIndex grid(options.grid_cell_width);
  GridAllocate(snapshot, grid, options.eps, use_lemma1, out);
  return out;
}

void GridAllocate(const Snapshot& snapshot, const GridIndex& grid,
                  double eps, bool use_lemma1,
                  std::vector<GridObject>& out) {
  out.clear();
  out.reserve(snapshot.entries.size() * 2);
  for (const SnapshotEntry& e : snapshot.entries) {
    const GridKey home = grid.KeyOf(e.location);
    out.push_back(GridObject{home, /*is_query=*/false, e.id, e.location});
    const Rect region = use_lemma1 ? Rect::UpperRangeRegion(e.location, eps)
                                   : Rect::RangeRegion(e.location, eps);
    grid.ForEachKeyIntersecting(region, [&](const GridKey& key) {
      if (key == home) return;
      out.push_back(GridObject{key, /*is_query=*/true, e.id, e.location});
    });
  }
}

namespace {

/// The literal Algorithm 2: per-object probes of a per-cell R-tree.
void RTreeCellJoin(const std::vector<GridObject>& cell_objects,
                   const RangeJoinOptions& options, bool use_lemma2,
                   RTree& tree, std::vector<NeighborPair>& out) {
  tree.Clear();

  if (use_lemma2) {
    // Pass 1 (Lemma 2): each data object queries the partially built tree
    // and is inserted afterwards; every within-cell pair is produced once,
    // and the index is ready when the pass ends.
    for (const GridObject& o : cell_objects) {
      if (o.is_query) continue;
      tree.QueryRect(Rect::RangeRegion(o.location, options.eps),
                     [&](TrajectoryId id, const Point& p) {
                       if (WithinDistance(options.metric, o.location, p,
                                          options.eps)) {
                         out.push_back(CanonicalPair(o.id, id));
                       }
                     });
      tree.Insert(o.location, o.id);
    }
    // Pass 2: query objects see only their Lemma 1 half-space, so the
    // owning side of each cross-cell pair reports it exactly once.
    for (const GridObject& o : cell_objects) {
      if (!o.is_query) continue;
      tree.QueryRect(Rect::RangeRegion(o.location, options.eps),
                     [&](TrajectoryId id, const Point& p) {
                       if (WithinDistance(options.metric, o.location, p,
                                          options.eps) &&
                           InUpperHalf(o.location, o.id, p, id)) {
                         out.push_back(CanonicalPair(o.id, id));
                       }
                     });
    }
    return;
  }

  // Traditional scheme (SRJ): build the full local index first, then run
  // every object's full-region query. Pairs are produced from both sides
  // and within-cell pairs twice; GridSync deduplicates.
  for (const GridObject& o : cell_objects) {
    if (!o.is_query) tree.Insert(o.location, o.id);
  }
  for (const GridObject& o : cell_objects) {
    tree.QueryRect(Rect::RangeRegion(o.location, options.eps),
                   [&](TrajectoryId id, const Point& p) {
                     if (id != o.id &&
                         WithinDistance(options.metric, o.location, p,
                                        options.eps)) {
                       out.push_back(CanonicalPair(o.id, id));
                     }
                   });
  }
}

}  // namespace

std::vector<NeighborPair> GridQuery(
    const std::vector<GridObject>& cell_objects,
    const RangeJoinOptions& options, bool use_lemma2) {
  std::vector<NeighborPair> out;
  CellQueryScratch scratch;
  GridQuery(cell_objects, options, use_lemma2, scratch, out);
  return out;
}

void GridQuery(const std::vector<GridObject>& cell_objects,
               const RangeJoinOptions& options, bool use_lemma2,
               CellQueryScratch& scratch, std::vector<NeighborPair>& out) {
  if (options.kernel == JoinKernel::kSweep) {
    SweepCellJoin(cell_objects, options.eps, options.metric, use_lemma2,
                  options.simd, scratch.sweep, out);
    return;
  }
  if (!scratch.tree.has_value()) scratch.tree.emplace();
  RTreeCellJoin(cell_objects, options, use_lemma2, *scratch.tree, out);
}

std::vector<NeighborPair> GridSync(
    std::vector<std::vector<NeighborPair>>&& per_cell) {
  std::vector<NeighborPair> out;
  std::size_t total = 0;
  for (const auto& v : per_cell) total += v.size();
  out.reserve(total);
  for (auto& v : per_cell) {
    out.insert(out.end(), v.begin(), v.end());
  }
  SortUniquePairs(out);
  return out;
}

namespace {

/// Shared driver: allocate, bucket by cell, per-cell query - all in
/// `scratch`, whose buffers (cell buckets, kernel state, result vector)
/// carry their capacity from snapshot to snapshot. Each GridObject is
/// tagged with its entry index, so the raw per-cell stream of index pairs
/// lands in scratch.pairs, unsorted.
void RunJoin(const Snapshot& snapshot, const RangeJoinOptions& options,
             const RangeJoinVariant& variant, JoinScratch& scratch) {
  if (!scratch.grid.has_value()) {
    // First call on this scratch: validate the options and derive the
    // grid geometry once for the whole run.
    COMOVE_CHECK(options.eps > 0.0);
    scratch.grid.emplace(options.grid_cell_width);
  }
  // Once-per-snapshot arena rewind of the sweep kernel's SoA columns.
  scratch.cell.sweep.BeginSnapshot();
  // Fused GridAllocate + bucketing: each object goes straight into its
  // cell's bucket in the persistent map instead of through an
  // intermediate flat vector. Buckets left over from earlier snapshots
  // are empty (cleared below), so first-touch marks a cell active;
  // iteration then follows the deterministic active list instead of map
  // order.
  scratch.active_cells.clear();
  const GridIndex& grid = *scratch.grid;
  const auto bucket_push = [&scratch](const GridKey& key,
                                      const GridObject& o) {
    std::vector<GridObject>& cell = scratch.cells.BucketFor(key);
    if (cell.empty()) scratch.active_cells.push_back(key);
    cell.push_back(o);
  };
  const std::vector<SnapshotEntry>& entries = snapshot.entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto index = static_cast<TrajectoryId>(i);
    const Point& at = entries[i].location;
    const GridKey home = grid.KeyOf(at);
    bucket_push(home, GridObject{home, /*is_query=*/false, index, at});
    const Rect region = variant.use_lemma1
                            ? Rect::UpperRangeRegion(at, options.eps)
                            : Rect::RangeRegion(at, options.eps);
    grid.ForEachKeyIntersecting(region, [&](const GridKey& key) {
      if (key == home) return;
      bucket_push(key, GridObject{key, /*is_query=*/true, index, at});
    });
  }
  scratch.pairs.clear();
  for (const GridKey& key : scratch.active_cells) {
    std::vector<GridObject>& cell_objects = scratch.cells.BucketFor(key);
    GridQuery(cell_objects, options, variant.use_lemma2, scratch.cell,
              scratch.pairs);
    cell_objects.clear();  // keep the bucket's capacity for the next snapshot
  }
}

/// GridSync over scratch.pairs, which hold index pairs of an n-entry
/// snapshot: every index is below n, so the all-ones mask under n's top
/// bit is an OR-fold of the stream.
void SortUniqueIndexPairs(std::size_t n, SimdLevel simd,
                          JoinScratch& scratch) {
  const auto fold = static_cast<TrajectoryId>(std::bit_ceil(n) - 1);
  SortUniquePairs(scratch.pairs, fold, scratch.sort, simd);
}

/// The id-pair contract of RangeJoinRJC/SRJ on the index path: join in
/// id order, sort the index pairs, map them to ids in place.
const std::vector<NeighborPair>& IdPairJoin(const Snapshot& snapshot,
                                            const RangeJoinOptions& options,
                                            const RangeJoinVariant& variant,
                                            JoinScratch& scratch) {
  const Snapshot& by_id = InIdOrder(snapshot, scratch.by_id);
  RunJoin(by_id, options, variant, scratch);
  SortUniqueIndexPairs(by_id.size(), options.simd, scratch);
  IndexPairsToIds(by_id, scratch.pairs);
  return scratch.pairs;
}

}  // namespace

const std::vector<NeighborPair>& RangeJoinIndexPairs(
    const Snapshot& by_id, const RangeJoinOptions& options,
    const RangeJoinVariant& variant, JoinScratch& scratch) {
  RunJoin(by_id, options, variant, scratch);
  if (!variant.use_lemma2) {
    SortUniqueIndexPairs(by_id.size(), options.simd, scratch);
  }
  return scratch.pairs;
}

std::vector<NeighborPair> RangeJoinRJC(const Snapshot& snapshot,
                                       const RangeJoinOptions& options,
                                       const RangeJoinVariant& variant) {
  JoinScratch scratch;
  IdPairJoin(snapshot, options, variant, scratch);
  return std::move(scratch.pairs);
}

const std::vector<NeighborPair>& RangeJoinRJC(
    const Snapshot& snapshot, const RangeJoinOptions& options,
    const RangeJoinVariant& variant, JoinScratch& scratch) {
  return IdPairJoin(snapshot, options, variant, scratch);
}

std::vector<NeighborPair> RangeJoinSRJ(const Snapshot& snapshot,
                                       const RangeJoinOptions& options) {
  JoinScratch scratch;
  IdPairJoin(snapshot, options, kSrjVariant, scratch);
  return std::move(scratch.pairs);
}

const std::vector<NeighborPair>& RangeJoinSRJ(const Snapshot& snapshot,
                                              const RangeJoinOptions& options,
                                              JoinScratch& scratch) {
  return IdPairJoin(snapshot, options, kSrjVariant, scratch);
}

std::vector<NeighborPair> RangeJoinBrute(const Snapshot& snapshot,
                                         double eps,
                                         DistanceMetric metric) {
  std::vector<NeighborPair> out;
  const auto& e = snapshot.entries;
  for (std::size_t i = 0; i < e.size(); ++i) {
    for (std::size_t j = i + 1; j < e.size(); ++j) {
      if (WithinDistance(metric, e[i].location, e[j].location, eps)) {
        out.push_back(CanonicalPair(e[i].id, e[j].id));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace comove::cluster
