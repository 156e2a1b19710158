#ifndef COMOVE_CLUSTER_GRID_OBJECT_H_
#define COMOVE_CLUSTER_GRID_OBJECT_H_

#include "common/types.h"
#include "index/grid_index.h"

/// \file
/// GridObject (Definition 12): the replication unit of the distributed
/// range join. A location is shipped to grid cells either as a *data*
/// object (it belongs to the cell and is indexed there) or as a *query*
/// object (its range region intersects the cell, so results for it may
/// live there).

namespace comove::cluster {

/// One replicated location, tagged with the destination cell and role.
struct GridObject {
  GridKey key;               ///< destination grid cell
  bool is_query = false;     ///< false: data object; true: query object
  TrajectoryId id = 0;
  Point location;
};

}  // namespace comove::cluster

#endif  // COMOVE_CLUSTER_GRID_OBJECT_H_
