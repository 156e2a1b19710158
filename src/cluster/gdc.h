#ifndef COMOVE_CLUSTER_GDC_H_
#define COMOVE_CLUSTER_GDC_H_

#include <vector>

#include "common/types.h"

/// \file
/// GDC baseline: grid-based DBSCAN (the paper's adaptation of [14] to the
/// distributed engine). The data space is divided by a grid derived from
/// eps itself - cells of width eps, each a keyed partition - and every
/// point is replicated to the 8 neighbouring cells, since eps-neighbours
/// can live at most one eps-cell away. The paper's observation (Fig.
/// 10/11) is that tying the partitioning to the small eps creates far
/// more partitions and replicas than the lg-tuned GR-index, which is
/// exactly what this implementation exhibits.

namespace comove::cluster {

/// Returns every unordered eps-neighbour pair (a < b, each once, sorted)
/// using the eps-width grid with 8-neighbour replication. A thin mapping
/// onto GdcIndexPairs.
std::vector<NeighborPair> GdcNeighborPairs(
    const Snapshot& snapshot, double eps,
    DistanceMetric metric = DistanceMetric::kL1);

/// The clustering path's GDC neighbour search: fills `out` with the
/// entry-index pairs {i, j} (i < j, each once, sorted) of `by_id`, an
/// InIdOrder result.
void GdcIndexPairs(const Snapshot& by_id, double eps, DistanceMetric metric,
                   std::vector<NeighborPair>& out);

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_GDC_H_
