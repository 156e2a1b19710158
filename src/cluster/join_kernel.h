#ifndef COMOVE_CLUSTER_JOIN_KERNEL_H_
#define COMOVE_CLUSTER_JOIN_KERNEL_H_

#include <cstdint>
#include <vector>

#include "cluster/grid_object.h"
#include "common/arena.h"
#include "common/cpu_features.h"
#include "common/geometry.h"
#include "common/types.h"

/// \file
/// Flat plane-sweep join kernel: the cache-friendly per-cell execution
/// path of GridQuery (Algorithm 2). Instead of probing an R-tree once per
/// object, the cell's objects are laid out in structure-of-arrays form
/// (separate x[] / y[] / id[] columns, data and query roles split so the
/// hot loops carry no role branch), sorted by y, and joined with
/// a plane sweep: advance a window while y_j - y_i <= eps, refine
/// candidates on the x band and the exact metric (WithinDistance). Every
/// filter applies the same arithmetic as the R-tree path's closed-rect
/// test followed by the same refinement predicate, so the emitted pair
/// SET is identical and GridSync produces bit-identical output.
///
/// Lemma semantics are reproduced exactly:
///  - Lemma 2 (query-before-insert): the data-data sweep pairs each data
///    object only with data objects earlier in the sorted order - the
///    sweep analogue of querying the partially built tree - yielding
///    every within-cell pair exactly once.
///  - Lemma 1 (half-space claim): query objects scan only data at
///    y >= their own y and keep the InUpperHalf tie-breaks, so each
///    cross-cell pair is claimed by exactly one side.
/// Without Lemma 2 the kernel mirrors the SRJ scheme: full-window scans
/// whose duplicates GridSync removes.
///
/// The refinement runs either as the scalar reference loops below or as
/// AVX2 kernels (simd_kernels.h) that apply the identical filter chain
/// four lanes at a time and mask-compress the survivors - same pair set
/// bit for bit, selected per call through ResolveSimdLevel. The SoA
/// columns live in a per-cell Arena (32-byte aligned, reset once per
/// snapshot), so the vector loads never split cache lines and the steady
/// state allocates nothing.

namespace comove::cluster {

/// Selects the per-cell join kernel of GridQuery.
enum class JoinKernel : std::uint8_t {
  kRTree,  ///< per-object R-tree probes (the literal Algorithm 2)
  kSweep,  ///< SoA sort + plane sweep (default; same output, faster)
};

/// Printable kernel name ("rtree" / "sweep").
const char* JoinKernelName(JoinKernel kernel);

/// True when the AVX2 kernels are usable here: compiled into the binary
/// AND supported by this CPU (with OS YMM state).
bool SimdKernelsAvailable();

/// Resolves a requested SimdLevel to the level that will actually run:
/// kScalar stays scalar; kAuto and kAvx2 pick AVX2 when available and
/// degrade to scalar otherwise (so test matrices run anywhere). Never
/// returns kAuto.
SimdLevel ResolveSimdLevel(SimdLevel requested);

/// Returns `snapshot` itself when its entries ascend strictly by id, as
/// every assembled snapshot's do (SnapshotAssembler::Drain sorts them and
/// the snapshot codec keeps the order); otherwise fills `by_id` with a
/// copy sorted by id and returns that. Either way entry index order is id
/// order, so the join and DBSCAN can run on entry indices - every id
/// comparison below (CanonicalPair, the InUpperHalf tie-break) answers the
/// same on indices - and an index pair maps to its id pair in order.
/// Aborts on a repeated id. O(n) on the ordered path.
const Snapshot& InIdOrder(const Snapshot& snapshot, Snapshot& by_id);

/// Rewrites entry-index pairs of `by_id` (an InIdOrder result) into
/// trajectory-id pairs in place. Order preserving: canonical, sorted index
/// pairs stay canonical and sorted.
void IndexPairsToIds(const Snapshot& by_id, std::vector<NeighborPair>& pairs);

/// Canonicalises an unordered neighbour pair to a < b.
inline NeighborPair CanonicalPair(TrajectoryId a, TrajectoryId b) {
  return a < b ? NeighborPair{a, b} : NeighborPair{b, a};
}

/// Lemma 1 half-space predicate: `v` lies in the half of `q`'s range
/// region that q is responsible for. Strictly above; ties on y broken by
/// x, ties on both by id (an entry index on the clustering path), so every
/// cross-cell pair is claimed by exactly one side even for coincident
/// coordinates.
inline bool InUpperHalf(const Point& q, TrajectoryId q_id, const Point& v,
                        TrajectoryId v_id) {
  if (v.y != q.y) return v.y > q.y;
  if (v.x != q.x) return v.x > q.x;
  return v_id > q_id;
}

/// One object while sorting into SoA columns, held contiguously so the
/// sort touches no other memory (sorting these beats sorting indices
/// into the GridObject vector).
struct SweepSortRec {
  double y;
  double x;
  TrajectoryId id;
};

/// Reusable SoA buffers of the sweep kernel, carved from one Arena so
/// every column is 32-byte aligned for the AVX2 loads. One instance
/// serves every cell of every snapshot; BeginSnapshot() (called once per
/// snapshot by RunJoin / the cells-mode worker) rewinds the arena and the
/// high-water marks re-reserve the full footprint in one bump each, so
/// steady state touches the same addresses every snapshot and allocates
/// nothing. Owned by one worker thread; not thread-safe.
struct SweepCell {
  Arena arena;
  // Data objects of the cell, sorted by y.
  ArenaVector<double> data_x;
  ArenaVector<double> data_y;
  ArenaVector<TrajectoryId> data_id;
  // Query objects of the cell, sorted by y.
  ArenaVector<double> query_x;
  ArenaVector<double> query_y;
  ArenaVector<TrajectoryId> query_id;
  // Sort scratch: one record per object of the role being built.
  ArenaVector<SweepSortRec> sort_recs;
  // Mask-compressed survivor indices of one sweep window (AVX2 path).
  ArenaVector<std::uint32_t> cand;
  // Fixed-size pair staging buffer of the AVX2 PairSink.
  ArenaVector<NeighborPair> pair_buf;

  /// Rewinds the arena; every vector above is re-reserved on next use.
  void BeginSnapshot() {
    arena.Reset();
    data_x.Release();
    data_y.Release();
    data_id.Release();
    query_x.Release();
    query_y.Release();
    query_id.Release();
    sort_recs.Release();
    cand.Release();
    pair_buf.Release();
  }
};

/// Joins ONE grid cell's objects with the plane sweep, appending pairs to
/// `out`. Drop-in replacement for the R-tree form of GridQuery: with
/// `use_lemma2` emits every within-cell data pair exactly once plus each
/// query object's Lemma 1 half-space matches; without it emits
/// full-region matches from both sides (the SRJ scheme - GridSync
/// deduplicates). `cell_objects` may interleave data and query objects in
/// any order. `simd` selects the refinement implementation (resolved via
/// ResolveSimdLevel); the emitted pair set is identical at every level.
void SweepCellJoin(const std::vector<GridObject>& cell_objects, double eps,
                   DistanceMetric metric, bool use_lemma2, SimdLevel simd,
                   SweepCell& scratch, std::vector<NeighborPair>& out);

/// Reusable buffers of SortUniquePairs' radix sort: the digit histograms
/// (24 KiB for the narrow tier, grown to 1 MiB - 4 x 2^16 counters - the
/// first time the wide tier runs) and the two packed-key ping-pong
/// buffers of whichever tiers have run. Without it every call
/// re-allocates them; a worker keeps one across snapshots.
struct PairSortScratch {
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> keys32, keys32_tmp;  ///< narrow-tier keys
  std::vector<std::uint64_t> keys64, keys64_tmp;  ///< wide-tier keys
};

/// Canonical GridSync finalisation: sorts `pairs` lexicographically and
/// removes duplicates, exactly like `std::sort` + `std::unique` but fast
/// on large pair streams. The pairs are packed into integer keys, the
/// KEYS are radix-sorted (a quarter to half the scatter traffic of
/// moving 16-byte pairs), and the sorted keys are unpacked back into
/// `pairs` with duplicates dropped in the same pass. Two LSD tiers,
/// picked by the id range: ids below 2^16 (the common case) pack into
/// 32-bit keys sorted in three 11-bit passes whose count tables stay L1
/// resident; ids below 2^32 pack into 64-bit keys sorted in four 16-bit
/// passes. Constant-digit passes are skipped. Comparison sort remains the
/// fallback for small inputs, for negative ids, and for ids of 32+ bits
/// (the packed key would not preserve order). The wide tier's
/// pack-and-histogram pass runs vectorized when `simd` resolves to AVX2
/// (the narrow tier's L1-resident tables are faster scalar); the
/// resulting order is identical either way.
void SortUniquePairs(std::vector<NeighborPair>& pairs,
                     PairSortScratch& scratch,
                     SimdLevel simd = SimdLevel::kAuto);

/// SortUniquePairs for callers that already hold an OR-fold of every id
/// that can appear in `pairs` (entry-index pairs of an n-entry snapshot
/// are all below n, so n's bit mask bounds them without a scan over the
/// pair stream). The fold picks the radix tier, so it may be any
/// conservative superset of the pair ids' fold: extra high bits only
/// demote to a wider (still correct) tier.
void SortUniquePairs(std::vector<NeighborPair>& pairs, TrajectoryId id_fold,
                     PairSortScratch& scratch, SimdLevel simd);

/// SortUniquePairs with call-local scratch (cold paths, tests).
void SortUniquePairs(std::vector<NeighborPair>& pairs);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_JOIN_KERNEL_H_
