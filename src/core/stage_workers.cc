#include "core/stage_workers.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/stopwatch.h"
#include "core/state_serde.h"
#include "flow/checkpoint/barrier_aligner.h"
#include "flow/checkpoint/snapshot_store.h"
#include "flow/reorder_buffer.h"
#include "flow/snapshot_assembler.h"
#include "flow/watermark_aligner.h"
#include "pattern/baseline_enumerator.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/variable_bit_enumerator.h"

namespace comove::core {
namespace {

/// The most queued elements an enumerate subtask takes per lock
/// round-trip.
constexpr std::size_t kEnumerateDrain = 64;

}  // namespace

std::unique_ptr<pattern::StreamingEnumerator> MakeEnumerator(
    EnumeratorKind kind, const PatternConstraints& constraints,
    pattern::PatternSink sink) {
  switch (kind) {
    case EnumeratorKind::kBA:
      return std::make_unique<pattern::BaselineEnumerator>(constraints,
                                                           std::move(sink));
    case EnumeratorKind::kFBA:
      return std::make_unique<pattern::FixedBitEnumerator>(constraints,
                                                           std::move(sink));
    case EnumeratorKind::kVBA:
      return std::make_unique<pattern::VariableBitEnumerator>(
          constraints, std::move(sink));
    case EnumeratorKind::kNone:
      break;
  }
  COMOVE_CHECK(false);
  return nullptr;
}

namespace {

/// Calls `fn(q, pattern)` for each pattern of WriteFolds bytes, in order.
template <typename Fn>
bool ForEachFoldPattern(BinaryReader* reader, std::size_t queries, Fn&& fn) {
  const std::uint64_t count = reader->ReadU64();
  if (!reader->ok() || count != queries) return false;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::uint64_t patterns = reader->ReadU64();
    if (!reader->ok() || patterns > reader->remaining()) return false;
    for (std::uint64_t i = 0; i < patterns; ++i) {
      CoMovementPattern pat = ReadPattern(reader);
      if (!reader->ok()) return false;
      fn(q, std::move(pat));
    }
  }
  return true;
}

}  // namespace

void PatternFolds::Commit(std::vector<pattern::PatternCollector>&& fold) {
  COMOVE_CHECK(fold.size() == collectors_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t q = 0; q < collectors_.size(); ++q) {
    if (on_commit) {
      for (const auto& [objects, pat] : fold[q].entries()) on_commit(pat);
    }
    collectors_[q].Merge(std::move(fold[q]));
  }
}

void PatternFolds::Stage(std::int32_t subtask,
                         std::vector<pattern::PatternCollector>&& epoch) {
  std::lock_guard<std::mutex> lock(staged_mu_);
  staged_[subtask].push_back(std::move(epoch));
}

void PatternFolds::CommitStaged(std::int32_t subtask) {
  std::vector<pattern::PatternCollector> epoch;
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    const auto it = staged_.find(subtask);
    COMOVE_CHECK_MSG(
        it != staged_.end() && !it->second.empty(),
        "epoch of enumerate subtask %d committed but never staged", subtask);
    epoch = std::move(it->second.front());
    it->second.pop_front();
  }
  Commit(std::move(epoch));
}

bool PatternFolds::RefoldEarlier(std::string_view epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  BinaryReader reader(epoch);
  return ForEachFoldPattern(&reader, collectors_.size(),
                            [this](std::size_t q, CoMovementPattern&& pat) {
                              collectors_[q].AddEarlier(std::move(pat));
                            }) &&
         reader.AtEnd();
}

void PatternFolds::AddTail(std::vector<pattern::PatternCollector>&& tail) {
  std::lock_guard<std::mutex> lock(mu_);
  held_.push_back(std::move(tail));
}

void PatternFolds::CommitTails() {
  std::vector<std::vector<pattern::PatternCollector>> held;
  {
    std::lock_guard<std::mutex> lock(mu_);
    held.swap(held_);
  }
  for (auto& tail : held) Commit(std::move(tail));
}

std::vector<CoMovementPattern> PatternFolds::TakePatterns(std::size_t q) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(collectors_[q]).Patterns();
}

void WriteFolds(BinaryWriter* writer,
                const std::vector<pattern::PatternCollector>& folds) {
  // WritePattern writes two length-prefixed vectors of 8-byte values.
  constexpr std::size_t kU64 = sizeof(std::uint64_t);
  std::size_t size = kU64 + folds.size() * kU64;
  for (const pattern::PatternCollector& fold : folds) {
    for (const auto& [objects, pat] : fold.entries()) {
      size += kU64 * (2 + pat.objects.size() + pat.times.size());
    }
  }
  writer->Reserve(size);
  writer->WriteU64(folds.size());
  for (const pattern::PatternCollector& fold : folds) {
    writer->WriteU64(fold.size());
    for (const auto& [objects, pat] : fold.entries()) {
      WritePattern(writer, pat);
    }
  }
}

bool ReadFolds(BinaryReader* reader, std::size_t queries,
               std::vector<pattern::PatternCollector>* out) {
  out->assign(queries, pattern::PatternCollector());
  return ForEachFoldPattern(reader, queries,
                            [out](std::size_t q, CoMovementPattern&& pat) {
                              (*out)[q].Add(std::move(pat));
                            });
}

QueryPlan BuildQueryPlan(const IcpeOptions& options) {
  QueryPlan plan;
  if (options.enumerator != EnumeratorKind::kNone) {
    plan.queries.push_back(
        PatternQuery{options.constraints, options.enumerator});
  }
  for (const PatternQuery& q : options.extra_queries) {
    COMOVE_CHECK(q.constraints.IsValid());
    COMOVE_CHECK(q.enumerator != EnumeratorKind::kNone);
    plan.queries.push_back(q);
  }
  // Partitions are computed once with the loosest significance bound; the
  // per-query M is enforced during enumeration (Lemma 3 only removes
  // work, never results).
  plan.partition_constraints = plan.enumerate()
                                   ? plan.queries.front().constraints
                                   : options.constraints;
  for (const PatternQuery& q : plan.queries) {
    plan.partition_constraints.m =
        std::min(plan.partition_constraints.m, q.constraints.m);
  }
  return plan;
}

void RunIngestSubtask(const trajgen::Dataset& dataset, const StageEnv& env,
                      SnapshotExchange& out, flow::SnapshotMetrics* metrics) {
  const IcpeOptions& options = *env.options;
  PipelineCounters* const counters = env.counters;
  flow::TraceRecorder* const tr = env.tr;
  const std::int32_t p = out.consumers();
  const std::vector<GpsRecord>& records = dataset.records;
  flow::SnapshotAssembler assembler;
  auto route = [&](std::vector<Snapshot> snapshots) {
    for (Snapshot& snapshot : snapshots) {
      const Timestamp t = snapshot.time;
      // The span covers ingest-mark to watermark broadcast - i.e. it
      // absorbs downstream backpressure on the snapshot exchange.
      const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
      metrics->MarkIngest(t);
      counters->snapshot_count.fetch_add(1, std::memory_order_relaxed);
      out.Send(0, static_cast<std::size_t>(t) % static_cast<std::size_t>(p),
               std::move(snapshot));
      out.BroadcastWatermark(0, t);
      if (tr != nullptr) {
        tr->RecordSpanSince("assembler", "route", 0, t, t0);
      }
    }
  };
  const auto throttle = [&] {
    if (options.replay_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options.replay_delay_us));
    }
  };
  const auto crashed = [&] {
    return env.crashed->load(std::memory_order_relaxed);
  };
  // A checkpoint cut falls on a time boundary of ordered replay: the
  // source resumes at the first record of `current`, and the assembler
  // holds nothing at or past it.
  Timestamp current = kNoTime;
  std::size_t start_index = 0;
  const std::string* source_state = env.restored_state("source", 0);
  const std::string* assembler_state = env.restored_state("assembler", 0);
  if (source_state != nullptr || assembler_state != nullptr) {
    COMOVE_CHECK_MSG(options.replay_shuffle_window <= 0,
                     "checkpoint restore requires ordered replay");
    COMOVE_CHECK_MSG(source_state != nullptr, "corrupt source checkpoint");
    BinaryReader reader(*source_state);
    start_index = static_cast<std::size_t>(reader.ReadU64());
    current = static_cast<Timestamp>(reader.ReadI64());
    COMOVE_CHECK_MSG(reader.ok() && reader.AtEnd() &&
                         start_index < records.size() &&
                         records[start_index].time == current &&
                         (start_index == 0 ||
                          records[start_index - 1].time < current),
                     "corrupt source checkpoint");
    COMOVE_CHECK_MSG(assembler_state != nullptr,
                     "corrupt assembler checkpoint");
    BinaryReader assembler_reader(*assembler_state);
    COMOVE_CHECK_MSG(assembler.RestoreState(&assembler_reader) &&
                         assembler_reader.AtEnd() &&
                         assembler.SitsAtBoundary(current),
                     "corrupt assembler checkpoint");
  }
  if (options.replay_shuffle_window <= 0) {
    std::int64_t next_checkpoint = env.restored_id + 1;
    std::int64_t snaps_since_barrier = 0;
    // One "emit" span per snapshot time: first record fed to last. It
    // encloses the routes of the snapshots those records complete.
    std::uint64_t emit_start_ns = tr != nullptr ? tr->NowNs() : 0;
    for (std::size_t i = start_index; i < records.size(); ++i) {
      const GpsRecord& record = records[i];
      if (record.time != current) {
        COMOVE_CHECK(record.time > current);
        if (crashed()) break;
        if (tr != nullptr && current != kNoTime) {
          tr->RecordSpanSince("source", "emit", 0, current, emit_start_ns);
        }
        // No trajectory can be born before this batch's time anymore.
        route(assembler.AdvanceBirthBound(record.time - 1));
        current = record.time;
        throttle();
        if (env.checkpointing &&
            ++snaps_since_barrier >= options.checkpoint_interval) {
          snaps_since_barrier = 0;
          // The cut: both states are saved before any record of
          // `current`, so everything before index i is the checkpoint's
          // pre-image; the barrier follows the snapshots routed above.
          std::string cursor;
          BinaryWriter cursor_writer(&cursor);
          cursor_writer.WriteU64(i);
          cursor_writer.WriteI64(current);
          env.ack(next_checkpoint, "source", 0, std::move(cursor), nullptr);
          std::string frontier;
          BinaryWriter frontier_writer(&frontier);
          assembler.SaveState(&frontier_writer);
          env.ack(next_checkpoint, "assembler", 0, std::move(frontier),
                  nullptr);
          out.BroadcastBarrier(0, next_checkpoint);
          ++next_checkpoint;
        }
        if (tr != nullptr) emit_start_ns = tr->NowNs();
      }
      route(assembler.OnRecord(record));
    }
    if (tr != nullptr && current != kNoTime && !crashed()) {
      tr->RecordSpanSince("source", "emit", 0, current, emit_start_ns);
    }
  } else {
    // Shuffled replay: feed blocks of `window` consecutive time units in
    // a random permutation; the birth bound trails each complete block.
    Rng rng(options.shuffle_seed);
    const Timestamp window = options.replay_shuffle_window;
    std::vector<GpsRecord> block;
    Timestamp block_start = kNoTime;
    auto flush = [&] {
      const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
      for (std::size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1],
                  block[static_cast<std::size_t>(rng.UniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      Timestamp max_time = kNoTime;
      for (const GpsRecord& record : block) {
        max_time = std::max(max_time, record.time);
        route(assembler.OnRecord(record));
      }
      if (max_time != kNoTime) {
        route(assembler.AdvanceBirthBound(max_time));
        // Shuffled replay has no per-time boundary; one span per fed
        // window block, tagged with the block's newest time.
        if (tr != nullptr) {
          tr->RecordSpanSince("source", "emit_block", 0, max_time, t0);
        }
      }
      block.clear();
    };
    for (const GpsRecord& record : records) {
      if (block_start == kNoTime) block_start = record.time;
      if (record.time >= block_start + window) {
        flush();
        if (crashed()) break;
        block_start = record.time;
        throttle();
      }
      block.push_back(record);
    }
    if (!crashed()) flush();
  }
  if (!crashed()) {
    route(assembler.Finish());
    out.BroadcastWatermark(0, kEndOfStreamTime);
  }
  out.CloseProducer(0);
}

void RunClusterSubtask(std::int32_t worker, const StageEnv& env,
                       flow::Channel<flow::Element<Snapshot>>& input,
                       PartitionExchange& out) {
  const IcpeOptions& options = *env.options;
  flow::TraceRecorder* const tr = env.tr;
  const std::int32_t p = out.consumers();
  PipelineCounters& counters = *env.counters;
  const bool enumerate = env.plan->enumerate();
  // Join + DBSCAN working memory, reused across this worker's snapshots.
  cluster::ClusterScratch scratch;
  // One snapshot's partitions, bucketed by destination subtask.
  std::vector<std::vector<pattern::Partition>> groups(
      static_cast<std::size_t>(p));
  while (auto element = input.Pop()) {
    if (element->is_data()) {
      const Timestamp t = element->data.time;
      Stopwatch watch;
      cluster::ClusterPhaseNs phases;
      const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
      const ClusterSnapshot clustered = cluster::ClusterSnapshotWith(
          options.clustering, element->data, options.cluster_options,
          scratch, tr != nullptr ? &phases : nullptr);
      counters.cluster_ns.fetch_add(watch.ElapsedNanos(),
                                    std::memory_order_relaxed);
      counters.cluster_samples.fetch_add(1, std::memory_order_relaxed);
      if (tr != nullptr) {
        // The two phases tile the clustering call: join first, then
        // DBSCAN back-dated to start where the join ended.
        tr->RecordSpan("join", "neighbor_pairs", worker, t, t0,
                       phases.join_ns);
        tr->RecordSpan("dbscan", "dbscan", worker, t, t0 + phases.join_ns,
                       phases.dbscan_ns);
      }
      for (const Cluster& c : clustered.clusters) {
        counters.cluster_count.fetch_add(1, std::memory_order_relaxed);
        counters.cluster_member_sum.fetch_add(
            static_cast<std::int64_t>(c.members.size()),
            std::memory_order_relaxed);
      }
      if (enumerate) {
        for (pattern::Partition& part : pattern::MakePartitions(
                 clustered, env.plan->partition_constraints)) {
          groups[OwnerPartition(part.owner, p)].push_back(std::move(part));
        }
        // One element per (snapshot, destination): the span covers the
        // push, including any backpressure from a full channel.
        for (std::size_t target = 0; target < groups.size(); ++target) {
          std::vector<pattern::Partition>& parts = groups[target];
          if (parts.empty()) continue;
          const auto count = static_cast<std::int64_t>(parts.size());
          const std::uint64_t f0 = tr != nullptr ? tr->NowNs() : 0;
          out.Send(worker, target,
                   pattern::PartitionGroup{t, std::move(parts)});
          parts.clear();  // moved-from: make it empty for the next snapshot
          if (tr != nullptr) {
            tr->RecordSpanSince("flush", "partitions", worker, t, f0, count);
          }
        }
      }
    } else if (element->is_barrier()) {
      // Single producer (the assembler): no alignment needed. The
      // worker is stateless - its scratch is derivable - so it acks
      // with an empty payload and forwards.
      const std::int64_t id = element->checkpoint;
      if (env.injector->ShouldCrash("cluster", worker, id)) {
        env.crash_all();
        return;
      }
      env.ack(id, "cluster", worker, std::string(), env.snapshot_stats);
      if (enumerate) out.BroadcastBarrier(worker, id);
    } else {
      // All of this worker's snapshots <= watermark are done (FIFO).
      if (enumerate) {
        out.BroadcastWatermark(worker, element->watermark);
      } else {
        env.progress(worker, element->watermark);
      }
    }
  }
  counters.arena_bytes.fetch_add(
      static_cast<std::int64_t>(
          scratch.join.cell.sweep.arena.block_bytes() +
          scratch.dbscan.arena.block_bytes()),
      std::memory_order_relaxed);
  counters.arena_allocations.fetch_add(
      static_cast<std::int64_t>(
          scratch.join.cell.sweep.arena.allocations() +
          scratch.dbscan.arena.allocations()),
      std::memory_order_relaxed);
  if (enumerate) out.CloseProducer(worker);
}

void RunEnumerateSubtask(
    std::int32_t worker, const StageEnv& env,
    flow::Channel<flow::Element<pattern::PartitionGroup>>& input) {
  const std::vector<PatternQuery>& queries = env.plan->queries;
  flow::TraceRecorder* const tr = env.tr;
  PipelineCounters& counters = *env.counters;
  // The partition edge's producers are the cluster subtasks.
  const std::int32_t producers = env.options->parallelism;
  // Exactly-once sinks, by epoch commit: patterns fold into per-query
  // collectors holding only the open epoch, the emissions since the
  // previous barrier (keep-longest per object set, so an epoch stages
  // distinct patterns, not every emission). At a barrier the epoch is
  // encoded and acked beside the operator state, as its own "epoch"
  // state, and its collectors are handed over (env.stage_epoch); the
  // checkpoint coordinator's committer moves them into the run's folds
  // once its bundle persisted. At a NORMAL exit the open epoch - the
  // tail - goes to env.folds. A crash discards it, and recovery
  // regenerates it from the last completed checkpoint - so the committed
  // output is bit-identical to a failure-free run. Without checkpointing
  // the whole run is one epoch.
  std::vector<pattern::PatternCollector> epoch(queries.size());
  // One enumerator per query; all consume the shared partition stream.
  std::vector<std::unique_ptr<pattern::StreamingEnumerator>> enumerators;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    enumerators.push_back(MakeEnumerator(
        queries[q].enumerator, queries[q].constraints,
        [&epoch, &env, q](const CoMovementPattern& pat) {
          epoch[q].Add(pat);
          if (env.on_pattern) env.on_pattern(pat);
        }));
  }
  flow::WatermarkAligner aligner(producers);
  using Buffer = flow::TimeReorderBuffer<pattern::Partition>;
  Buffer buffer;
  if (const std::string* bytes = env.restored_state("enumerate", worker)) {
    BinaryReader reader(*bytes);
    COMOVE_CHECK_MSG(aligner.RestoreState(&reader),
                     "corrupt enumerate checkpoint");
    // Every time at or below the aligned watermark was drained before
    // the cut, so the restored buffer may hold only later times.
    COMOVE_CHECK_MSG(buffer.RestoreState(&reader, ReadPartition) &&
                         !buffer.HoldsThrough(aligner.aligned()),
                     "corrupt enumerate checkpoint");
    const std::uint64_t query_count = reader.ReadU64();
    COMOVE_CHECK_MSG(reader.ok() && query_count == queries.size(),
                     "corrupt enumerate checkpoint");
    for (const auto& e : enumerators) {
      COMOVE_CHECK_MSG(e->RestoreState(&reader),
                       "corrupt enumerate checkpoint");
    }
    COMOVE_CHECK_MSG(reader.ok() && reader.AtEnd(),
                     "corrupt enumerate checkpoint");
  }

  // The worker is done with a time only when EVERY query is.
  auto finalized_through = [&]() {
    Timestamp through = kEndOfStreamTime;
    for (const auto& e : enumerators) {
      const Timestamp f = e->FinalizedThrough();
      through = std::min(
          through,
          f == kNoTime ? std::numeric_limits<Timestamp>::min() : f);
    }
    return through;
  };

  auto feed = [&](std::vector<Buffer::Group> ticks) {
    for (auto& [t, parts] : ticks) {
      Stopwatch watch;
      const std::uint64_t t0 = tr != nullptr ? tr->NowNs() : 0;
      for (std::size_t q = 0; q < enumerators.size(); ++q) {
        // The last query consumes the originals; earlier ones copies.
        enumerators[q]->OnPartitions(
            t, q + 1 == enumerators.size()
                   ? std::move(parts)
                   : std::vector<pattern::Partition>(parts));
      }
      counters.enum_ns.fetch_add(watch.ElapsedNanos(),
                                 std::memory_order_relaxed);
      counters.enum_samples.fetch_add(1, std::memory_order_relaxed);
      if (tr != nullptr) {
        tr->RecordSpanSince("enumerate", "tick", worker, t, t0);
      }
    }
  };

  auto handle = [&](flow::Element<pattern::PartitionGroup>&& element) {
    if (element.is_data()) {
      buffer.Add(element.data.time, std::move(element.data.parts));
    } else if (auto advanced =
                   aligner.Update(element.producer, element.watermark)) {
      const Timestamp w = *advanced;
      feed(buffer.DrainThrough(w));
      if (w != kEndOfStreamTime) {
        // Closing work for ticks already sampled by feed(): its time
        // counts, but it is not another tick.
        Stopwatch watch;
        for (const auto& e : enumerators) e->AdvanceTime(w);
        counters.enum_ns.fetch_add(watch.ElapsedNanos(),
                                   std::memory_order_relaxed);
      }
      // A snapshot counts as answered once its pattern decisions
      // are final across every query (for VBA this is deferred
      // until strings close - the §6.3 latency/throughput trade).
      env.progress(worker, finalized_through());
    }
  };
  bool alive = true;
  // Sized like the previous snapshot (plus 25% growth headroom) so the
  // serialisation pass does not redo the string's doubling reallocs on
  // every checkpoint.
  std::size_t last_state_bytes = 0;
  auto on_checkpoint = [&](std::int64_t id) {
    if (env.injector->ShouldCrash("enumerate", worker, id)) {
      env.crash_all();
      alive = false;
      return false;
    }
    std::string state;
    state.reserve(last_state_bytes + (last_state_bytes >> 2) + 1024);
    BinaryWriter writer(&state);
    aligner.SaveState(&writer);
    buffer.SaveState(&writer, WritePartition);
    writer.WriteU64(enumerators.size());
    for (const auto& e : enumerators) e->SaveState(&writer);
    last_state_bytes = state.size();
    env.ack(id, "enumerate", worker, std::move(state), env.partition_stats);
    std::string staged;
    BinaryWriter epoch_writer(&staged);
    WriteFolds(&epoch_writer, epoch);
    // The collectors travel by move; the bytes go into the bundle.
    if (env.stage_epoch) env.stage_epoch(worker, std::move(epoch));
    env.ack(id, flow::kEpochOp, worker, std::move(staged),
            env.partition_stats);
    epoch.assign(queries.size(), pattern::PatternCollector());
    return true;
  };
  flow::BarrierAligner<pattern::PartitionGroup> barriers(
      producers, env.restored_id, env.partition_stats, tr, worker);
  // Takes everything already queued, up to kEnumerateDrain elements, per
  // lock round-trip: one Pop per element measured 1.05x the CPU per
  // snapshot on taxi-fba-k120 (DESIGN.md §5.1).
  std::vector<flow::Element<pattern::PartitionGroup>> drained;
  while (alive && input.PopBatch(drained, kEnumerateDrain) > 0) {
    for (flow::Element<pattern::PartitionGroup>& element : drained) {
      if (!alive) break;
      // Without checkpointing no barrier arrives, and the aligner hands
      // every element straight to `handle`.
      barriers.OnElement(std::move(element), handle, on_checkpoint);
    }
  }
  if (env.crashed->load()) return;  // the open epoch dies with the crash
  feed(buffer.DrainAll());
  for (const auto& e : enumerators) e->Finish();
  for (const auto& e : enumerators) {
    const pattern::EnumerationStats es = e->enumeration_stats();
    counters.enum_strings_opened.fetch_add(es.strings_opened,
                                           std::memory_order_relaxed);
    counters.enum_strings_closed.fetch_add(es.strings_closed,
                                           std::memory_order_relaxed);
    counters.enum_candidates_peak.fetch_add(es.candidates_peak,
                                            std::memory_order_relaxed);
    counters.enum_apriori_nodes.fetch_add(es.apriori_nodes,
                                          std::memory_order_relaxed);
    counters.enum_apriori_pruned.fetch_add(es.apriori_pruned,
                                           std::memory_order_relaxed);
  }
  env.folds->AddTail(std::move(epoch));
  env.progress(worker, kEndOfStreamTime);
}

}  // namespace comove::core
