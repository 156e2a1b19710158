#ifndef COMOVE_CLUSTER_RANGE_JOIN_H_
#define COMOVE_CLUSTER_RANGE_JOIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/grid_object.h"
#include "cluster/join_kernel.h"
#include "common/types.h"
#include "index/grid_index.h"
#include "index/rtree.h"

/// \file
/// GR-index based range join (§5.2). The join is decomposed exactly as in
/// the paper so the distributed pipeline can host each piece as a stage:
///
///   GridAllocate  - computes GridObjects (replication plan). With Lemma 1
///                   a location is only replicated to cells intersecting
///                   the *upper half* of its range region.
///   GridQuery     - per-cell processing. With Lemma 2 each data object is
///                   queried against the index *before* insertion, which
///                   yields every within-cell pair exactly once without
///                   building the index up front.
///   GridSync      - merges per-cell outputs (plus canonicalisation).
///
/// The clustering path (RangeJoinIndexPairs) runs the join on entry
/// indices of an id-ordered snapshot (InIdOrder) and skips GridSync's
/// sort when Lemma 2 already emits each pair once: DBSCAN takes the raw
/// per-cell index-pair stream as it is. The id-pair functions
/// (RangeJoinRJC/SRJ) run the same join, sort and deduplicate the index
/// pairs, then map indices to ids.
///
/// GridQuery runs one of two kernels (RangeJoinOptions::kernel): the
/// default flat plane sweep over sorted SoA columns (join_kernel.h), or
/// the literal per-object R-tree probes. Both produce the same pair set;
/// the R-tree path stays as the oracle of the kernel identity tests and
/// the baseline of bench_join_kernel.
///
/// All functions report each unordered neighbour pair {a, b} (a < b)
/// exactly once, excluding self pairs. Snapshot ids must be distinct.

namespace comove::cluster {

/// Knobs of the range join.
struct RangeJoinOptions {
  double grid_cell_width = 1.0;  ///< lg
  double eps = 0.1;              ///< distance threshold
  DistanceMetric metric = DistanceMetric::kL1;  ///< refinement metric
  JoinKernel kernel = JoinKernel::kSweep;  ///< per-cell execution kernel
  /// SIMD dispatch of the sweep kernel and the radix sort (see
  /// ResolveSimdLevel). Pure performance knob - every level emits the
  /// identical pair set - so it is excluded from checkpoint fingerprints
  /// like the other tuning fields.
  SimdLevel simd = SimdLevel::kAuto;
};

/// Ablation switches; production RJC uses both lemmas.
struct RangeJoinVariant {
  bool use_lemma1 = true;  ///< upper-half replication
  bool use_lemma2 = true;  ///< query-before-insert during build
};

/// The SRJ scheme [36]: full replication, index-then-query.
inline constexpr RangeJoinVariant kSrjVariant{.use_lemma1 = false,
                                              .use_lemma2 = false};

/// Per-cell working memory of GridQuery, covering both kernels: the
/// R-tree (constructed lazily, pages recycled via RTree::Clear) and the
/// sweep kernel's SoA buffers. One instance serves every cell a worker
/// processes; not thread-safe.
struct CellQueryScratch {
  std::optional<RTree> tree;  ///< kRTree kernel; built on first use
  SweepCell sweep;            ///< kSweep kernel SoA columns
};

/// Open-addressing map from grid cell to its persistent GridObject
/// bucket, used by RunJoin's bucketing pass. One linear-probe lookup per
/// object on the hot path - measurably faster than the node-based
/// std::unordered_map it replaces (one hash + pointer chase + possible
/// allocation per object). Entries are never removed and bucket storage
/// is stable, so buckets keep their capacity across snapshots exactly
/// like the map-based form did. The reference returned by BucketFor is
/// invalidated by the next BucketFor call that inserts a new cell.
class CellBucketMap {
 public:
  std::vector<GridObject>& BucketFor(const GridKey& key) {
    if ((occupied_ + 1) * 4 > slots_.size() * 3) Grow();
    Slot* s = Probe(key);
    if (s->bucket < 0) {
      s->key = key;
      s->bucket = static_cast<std::int32_t>(buckets_.size());
      buckets_.emplace_back();
      ++occupied_;
    }
    return buckets_[static_cast<std::size_t>(s->bucket)];
  }

 private:
  struct Slot {
    GridKey key;
    std::int32_t bucket = -1;  ///< index into buckets_; -1 = empty
  };

  Slot* Probe(const GridKey& key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = GridKeyHash{}(key) & mask;
    while (slots_[i].bucket >= 0 && !(slots_[i].key == key)) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }

  void Grow() {
    const std::size_t cap = slots_.empty() ? 512 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    for (const Slot& s : old) {
      if (s.bucket >= 0) *Probe(s.key) = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two table, load factor <= 3/4
  std::vector<std::vector<GridObject>> buckets_;
  std::size_t occupied_ = 0;
};

/// Reusable working memory for the per-snapshot range join. A streaming
/// pipeline joins one snapshot after another with the same options; a
/// fresh join allocates a GridObject vector, one bucket vector per touched
/// cell, per-cell kernel state, and the result vector - every snapshot. A
/// worker that keeps a JoinScratch across snapshots instead reuses all of
/// that capacity: vectors are cleared but not freed, the cell map keeps
/// its buckets (trajectories revisit the same cells), the R-tree recycles
/// its pages (RTree::Clear), and the grid geometry is validated and
/// derived once. Owned by one worker thread; not thread-safe. Assumes
/// stable RangeJoinOptions across calls.
struct JoinScratch {
  std::optional<GridIndex> grid;  ///< derived once from the options
  /// Cell buckets, filled straight from the snapshot (fused GridAllocate
  /// + bucketing), each GridObject tagged with its entry index. Entries
  /// persist across snapshots with cleared vectors; `active_cells` lists
  /// the keys actually occupied by the current call.
  CellBucketMap cells;
  std::vector<GridKey> active_cells;
  /// Join result of the last call: entry-index pairs after
  /// RangeJoinIndexPairs (or a GDC clustering call), trajectory-id pairs
  /// after RangeJoinRJC / RangeJoinSRJ, which map them in place.
  std::vector<NeighborPair> pairs;
  PairSortScratch sort;             ///< radix sort keys + histograms
  CellQueryScratch cell;            ///< per-cell kernel working memory
  Snapshot by_id;  ///< InIdOrder's copy of a snapshot passed out of order
};

/// GridAllocate (Algorithm 1): emits the GridObjects of `snapshot`. With
/// `use_lemma1` the query replication covers only the upper half of each
/// range region; otherwise the full region (the SRJ scheme).
std::vector<GridObject> GridAllocate(const Snapshot& snapshot,
                                     const RangeJoinOptions& options,
                                     bool use_lemma1 = true);

/// GridAllocate into a caller-owned buffer with a caller-owned grid:
/// `out` is cleared and refilled, retaining its capacity across
/// snapshots, and `grid` carries the cell geometry derived once per run
/// instead of once per snapshot (the hot-path form).
void GridAllocate(const Snapshot& snapshot, const GridIndex& grid,
                  double eps, bool use_lemma1, std::vector<GridObject>& out);

/// GridQuery (Algorithm 2) for the GridObjects of ONE grid cell, run with
/// the kernel selected by `options.kernel`.
///
/// With `use_lemma2`, data objects are processed query-then-insert; query
/// objects are answered against the finished data set with the Lemma 1
/// half-space predicate (strictly-above, or same-y right-of tiebreak) so
/// cross-cell pairs appear exactly once. Without `use_lemma2` every
/// object runs its full-region query against all data; the caller must
/// then deduplicate (GridSync does).
///
/// `cell_objects` may interleave data and query objects in any order.
std::vector<NeighborPair> GridQuery(const std::vector<GridObject>& cell_objects,
                                    const RangeJoinOptions& options,
                                    bool use_lemma2 = true);

/// GridQuery with caller-owned working memory: `scratch` holds the
/// selected kernel's state across cells (recycled R-tree pages or SoA
/// buffers), and pairs are APPENDED to `out` - callers chain all cells of
/// a snapshot into one result vector without a per-cell allocation.
void GridQuery(const std::vector<GridObject>& cell_objects,
               const RangeJoinOptions& options, bool use_lemma2,
               CellQueryScratch& scratch, std::vector<NeighborPair>& out);

/// GridSync: merges per-cell results, canonicalises pairs to a < b, sorts,
/// and removes duplicates (duplicates only exist for non-Lemma variants;
/// for full RJC this is a pure merge). Consumes the per-cell buffers - an
/// rvalue so call sites hand the buffers over instead of copying them.
std::vector<NeighborPair> GridSync(
    std::vector<std::vector<NeighborPair>>&& per_cell);

/// The clustering path's join. `by_id` must be an InIdOrder result; every
/// GridObject carries its entry index in place of its id, so the result
/// (in scratch.pairs, valid until the next call) holds entry-index pairs
/// {i, j}, i < j. With Lemma 2 each pair appears exactly once and the raw
/// per-cell stream is returned in emission order, with no GridSync sort:
/// DBSCAN does not depend on pair order. Without Lemma 2 (SRJ) the stream
/// is sorted and deduplicated.
const std::vector<NeighborPair>& RangeJoinIndexPairs(
    const Snapshot& by_id, const RangeJoinOptions& options,
    const RangeJoinVariant& variant, JoinScratch& scratch);

/// The complete range join RJ(snapshot, eps) over the GR-index: the
/// production path with both lemmas, or an ablation variant.
std::vector<NeighborPair> RangeJoinRJC(const Snapshot& snapshot,
                                       const RangeJoinOptions& options,
                                       const RangeJoinVariant& variant = {});

/// RangeJoinRJC reusing `scratch` across snapshots. Returns the result in
/// scratch.pairs (valid until the next call on the same scratch).
const std::vector<NeighborPair>& RangeJoinRJC(const Snapshot& snapshot,
                                              const RangeJoinOptions& options,
                                              const RangeJoinVariant& variant,
                                              JoinScratch& scratch);

/// SRJ baseline [36]: full range-region replication, index-then-query,
/// deduplication at sync. No Lemma 1 / Lemma 2 savings.
std::vector<NeighborPair> RangeJoinSRJ(const Snapshot& snapshot,
                                       const RangeJoinOptions& options);

/// RangeJoinSRJ reusing `scratch`; same contract as the RJC overload.
const std::vector<NeighborPair>& RangeJoinSRJ(const Snapshot& snapshot,
                                              const RangeJoinOptions& options,
                                              JoinScratch& scratch);

/// O(n^2) reference join used by tests and tiny snapshots.
std::vector<NeighborPair> RangeJoinBrute(
    const Snapshot& snapshot, double eps,
    DistanceMetric metric = DistanceMetric::kL1);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_RANGE_JOIN_H_
