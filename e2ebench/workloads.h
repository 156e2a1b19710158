#ifndef COMOVE_E2EBENCH_WORKLOADS_H_
#define COMOVE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

#include "common/constraints.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "core/icpe_engine.h"
#include "trajgen/brinkhoff_generator.h"
#include "trajgen/dataset.h"

/// \file
/// The benchmark's workloads: how each stream is generated from the seed
/// and how the engine is configured on it. Each one isolates one layer;
/// README.md in this directory records why, with measured layer shares.

namespace comove::e2ebench {

struct Workload {
  const char* name;
  bool taxi;  ///< GenerateTaxiLike fleet; else stationary Brinkhoff groups
  std::int32_t objects;
  Timestamp duration;  ///< ticks, i.e. snapshots
  core::EnumeratorKind enumerator;
  PatternConstraints constraints;
  std::int64_t checkpoint_interval;  ///< snapshots per barrier; 0 = off
  bool distributed;  ///< coordinator + 1 worker process over loopback tcp
  std::int64_t replay_delay_us;  ///< source pacing; 0 = saturated replay
};

inline constexpr Workload kWorkloads[] = {
    {"taxi-fba-k120", true, 1000, 600, core::EnumeratorKind::kFBA,
     PatternConstraints{3, 120, 3, 2}, 0, false, 0},
    {"brinkhoff-vba-ckpt", false, 1000, 1000, core::EnumeratorKind::kVBA,
     PatternConstraints{4, 18, 3, 3}, 100, false, 0},
    {"brinkhoff-cluster-paced", false, 1000, 1000,
     core::EnumeratorKind::kNone, PatternConstraints{4, 18, 3, 3}, 0, true,
     2000},
};

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Seed of the generated world every stream of a workload is drawn from.
inline constexpr std::uint64_t kWorldSeed = 1;

/// The workload's stream for `seed`. The world (road network, trips,
/// groups) is fixed; the seed draws a fresh id labelling and an
/// L1-preserving placement (quarter turns, mirror, shift). So every seed
/// feeds the engine different ids, partitions, hash routes and grid cells
/// at the same cost: across generator seeds the pattern count of the
/// Brinkhoff stream ranged 36k-701k, and the cost with it.
inline trajgen::Dataset GenerateWorkload(const Workload& w,
                                         std::uint64_t seed) {
  trajgen::Dataset world;
  if (w.taxi) {
    world = trajgen::GenerateTaxiLike(w.objects, w.duration, kWorldSeed);
  } else {
    trajgen::BrinkhoffOptions options;
    options.object_count = w.objects;
    options.duration = w.duration;
    // With the default 0.75 objects leave after a trip and a long stream
    // thins out; 1.0 keeps the snapshot size stationary.
    options.reroute_prob = 1.0;
    options.group_count = 30;
    options.group_size = 8;
    world = trajgen::GenerateBrinkhoff(options, kWorldSeed);
  }

  Rng rng(seed);
  std::vector<TrajectoryId> ids(static_cast<std::size_t>(w.objects));
  std::iota(ids.begin(), ids.end(), 0);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[static_cast<std::size_t>(rng.UniformInt(
                              0, static_cast<std::int64_t>(i) - 1))]);
  }
  const std::int64_t turns = rng.UniformInt(0, 3);
  const bool mirror = rng.Bernoulli(0.5);
  const auto place = [&](Point p) {
    if (mirror) p.x = -p.x;
    for (std::int64_t i = 0; i < turns; ++i) p = Point{-p.y, p.x};
    return p;
  };
  Rect placed = Rect::Empty();
  for (const GpsRecord& r : world.records) {
    placed.ExpandToInclude(place(r.location));
  }
  const Point shift{rng.Uniform(0, 1000) - placed.min_x,
                    rng.Uniform(0, 1000) - placed.min_y};

  trajgen::DatasetBuilder builder(w.name);
  for (const GpsRecord& r : world.records) {
    const Point p = place(r.location);
    builder.Add(ids[static_cast<std::size_t>(r.id)], r.time,
                Point{p.x + shift.x, p.y + shift.y});
  }
  return builder.Finalize(world.interval_seconds);
}

/// Engine options at p = 1. eps and lg are 0.6% and 1.6% of the loaded
/// stream's L1 extent and minPts is 4, the bench defaults and what
/// `comove_tool detect` uses.
inline core::IcpeOptions EngineOptions(const Workload& w,
                                       const trajgen::DatasetStats& stats) {
  core::IcpeOptions options;
  options.parallelism = 1;
  options.enumerator = w.enumerator;
  options.constraints = w.constraints;
  options.cluster_options.join.eps = stats.MaxDistance() * 0.006;
  options.cluster_options.join.grid_cell_width = stats.MaxDistance() * 0.016;
  options.cluster_options.dbscan.min_pts = 4;
  options.replay_delay_us = w.replay_delay_us;
  return options;
}

}  // namespace comove::e2ebench

#endif  // COMOVE_E2EBENCH_WORKLOADS_H_
