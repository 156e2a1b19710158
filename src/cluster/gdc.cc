#include "cluster/gdc.h"

#include <unordered_map>

#include "cluster/join_kernel.h"
#include "common/check.h"
#include "index/grid_index.h"

namespace comove::cluster {

namespace {

/// A point replicated into one eps-cell, tagged data (home) or query.
struct GdcObject {
  TrajectoryId index;  ///< entry index in the id-ordered snapshot
  Point location;
  bool is_query;
};

}  // namespace

std::vector<NeighborPair> GdcNeighborPairs(const Snapshot& snapshot,
                                           double eps,
                                           DistanceMetric metric) {
  Snapshot copy;
  const Snapshot& by_id = InIdOrder(snapshot, copy);
  std::vector<NeighborPair> out;
  GdcIndexPairs(by_id, eps, metric, out);
  IndexPairsToIds(by_id, out);
  return out;
}

void GdcIndexPairs(const Snapshot& by_id, double eps, DistanceMetric metric,
                   std::vector<NeighborPair>& out) {
  COMOVE_CHECK(eps > 0.0);
  // GDC's grid derives from eps itself: cells of width eps, each cell a
  // keyed partition (this is the Flink adaptation the paper benchmarks -
  // [14] is a centralized algorithm). Every point is a data object in its
  // home cell and a query object in all 8 neighbouring cells, since
  // eps-neighbours can live at most one eps-cell away. The eps-derived
  // grid is exactly the weakness §7.1 observes: it creates far more
  // partitions and replicas than the lg-tuned GR-index.
  const GridIndex grid(eps);
  std::unordered_map<GridKey, std::vector<GdcObject>, GridKeyHash> cells;
  for (std::size_t i = 0; i < by_id.entries.size(); ++i) {
    const auto index = static_cast<TrajectoryId>(i);
    const Point& at = by_id.entries[i].location;
    const GridKey home = grid.KeyOf(at);
    cells[home].push_back(GdcObject{index, at, false});
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        if (dx == 0 && dy == 0) continue;
        cells[GridKey{home.cx + dx, home.cy + dy}].push_back(
            GdcObject{index, at, true});
      }
    }
  }

  // Per-cell processing: data-data pairs once per cell; query objects
  // probe the cell's data objects (duplicated across cells - GDC has no
  // Lemma 1/2 analogue, so GridSync-style dedup pays the bill). An entry
  // lands in 9 distinct cells, so two objects of one cell are always two
  // entries.
  out.clear();
  for (const auto& [key, objects] : cells) {
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const GdcObject& a = objects[i];
      if (a.is_query) continue;
      for (std::size_t j = 0; j < objects.size(); ++j) {
        if (i == j) continue;
        const GdcObject& b = objects[j];
        if (!b.is_query && j < i) continue;  // data-data pair once
        if (WithinDistance(metric, a.location, b.location, eps)) {
          out.push_back(CanonicalPair(a.index, b.index));
        }
      }
    }
  }
  SortUniquePairs(out);
}

}  // namespace comove::cluster
