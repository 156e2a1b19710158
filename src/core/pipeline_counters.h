#ifndef COMOVE_CORE_PIPELINE_COUNTERS_H_
#define COMOVE_CORE_PIPELINE_COUNTERS_H_

#include <atomic>
#include <cstdint>

/// \file
/// The run counters of a pipeline run, listed once. Each entry of
/// COMOVE_PIPELINE_COUNTERS declares a live atomic in PipelineCounters
/// (bumped by the stage subtasks as they exit), a same-named field in
/// RunCounters (the counter block of core::IcpeResult), and a row of
/// kCounterFields. That table drives the worker RESULT codec, both result
/// folds, the result JSON and `comove_tool --stats`, so a new counter is
/// one entry here plus its increment site. List order is the wire order
/// of the RESULT frame's counter block.
///
/// - cluster_count, cluster_member_sum: clusters across all snapshots and
///   their summed member counts (IcpeResult::avg_cluster_size is the
///   ratio).
/// - snapshot_count: snapshots the assembler emitted.
/// - arena_bytes, arena_allocations: retained arena scratch bytes and
///   lifetime bump-allocation count over every cluster worker. In steady
///   state allocations stay flat per snapshot (the arenas rewind instead
///   of reallocating), so per-snapshot heap churn shows up as growth.
/// - enum_strings_opened, enum_strings_closed, enum_candidates_peak,
///   enum_apriori_nodes, enum_apriori_pruned: enumeration work summed
///   over every enumerate worker and query (all zero with
///   EnumeratorKind::kNone). Opened/closed count per-(owner, trajectory)
///   membership bit strings (FBA: presence rings, opened when the
///   trajectory enters the owner's buffered window and closed when it has
///   left every buffered tick; BA: subset candidates); peak is the
///   high-water mark of live strings (FBA: live rings; VBA: retained
///   closed candidates); apriori nodes/pruned tally enumeration tree
///   nodes expanded versus cut by the running-popcount / (K, L, G) prune.

// clang-format off
#define COMOVE_PIPELINE_COUNTERS(X) \
  X(cluster_count)                  \
  X(cluster_member_sum)             \
  X(snapshot_count)                 \
  X(arena_bytes)                    \
  X(arena_allocations)              \
  X(enum_strings_opened)            \
  X(enum_strings_closed)            \
  X(enum_candidates_peak)           \
  X(enum_apriori_nodes)             \
  X(enum_apriori_pruned)
// clang-format on

namespace comove::core {

/// Plain values of the run counters: the counter block of IcpeResult.
struct RunCounters {
#define COMOVE_COUNTER_VALUE(name) std::int64_t name = 0;
  COMOVE_PIPELINE_COUNTERS(COMOVE_COUNTER_VALUE)
#undef COMOVE_COUNTER_VALUE
};

/// The live counters one process's subtasks fold into.
struct PipelineCounters {
#define COMOVE_COUNTER_ATOMIC(name) std::atomic<std::int64_t> name{0};
  COMOVE_PIPELINE_COUNTERS(COMOVE_COUNTER_ATOMIC)
#undef COMOVE_COUNTER_ATOMIC

  /// Every counter's current value (relaxed; read after the workers join).
  RunCounters Load() const;
  /// Adds `delta` to every counter (a remote worker's RESULT block).
  void Add(const RunCounters& delta);
};

/// One counter: its name (the JSON key) and where it lives in both forms.
struct CounterField {
  const char* name;
  std::int64_t RunCounters::*value;
  std::atomic<std::int64_t> PipelineCounters::*live;
};

#define COMOVE_COUNTER_FIELD(name) \
  CounterField{#name, &RunCounters::name, &PipelineCounters::name},
/// Every run counter, in list order.
inline constexpr CounterField kCounterFields[] = {
    COMOVE_PIPELINE_COUNTERS(COMOVE_COUNTER_FIELD)};
#undef COMOVE_COUNTER_FIELD

inline RunCounters PipelineCounters::Load() const {
  RunCounters out;
  for (const CounterField& f : kCounterFields) {
    out.*f.value = (this->*f.live).load(std::memory_order_relaxed);
  }
  return out;
}

inline void PipelineCounters::Add(const RunCounters& delta) {
  for (const CounterField& f : kCounterFields) {
    (this->*f.live).fetch_add(delta.*f.value, std::memory_order_relaxed);
  }
}

}  // namespace comove::core

#endif  // COMOVE_CORE_PIPELINE_COUNTERS_H_
