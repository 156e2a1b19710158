#ifndef COMOVE_FLOW_TRACE_H_
#define COMOVE_FLOW_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define COMOVE_TRACE_TSC 1
#endif

/// \file
/// Run-wide span tracing for the streaming pipeline. Where StageStats
/// answers "how much did each stage move and block in total", the trace
/// answers "which stage of which snapshot, when": every pipeline stage
/// records spans tagged with (stage, subtask, snapshot_time), so one
/// snapshot's journey through source -> assembler -> join -> dbscan ->
/// enumerate is a correlated timeline, loadable into chrome://tracing or
/// Perfetto via the Chrome trace_event JSON exporter below.
///
/// The recorder mirrors the StageStats cost model: a null recorder pointer
/// disables tracing entirely (callers guard every record with one branch),
/// and an enabled recorder writes into per-thread ring buffers - no lock,
/// no allocation on the hot path, just a relaxed-atomic cursor bump and a
/// slot write. When a ring wraps, the oldest events are overwritten
/// (drop-oldest) and counted, so a long run degrades to "the recent past"
/// instead of unbounded memory or backpressure on the pipeline.

namespace comove::flow {

namespace trace_internal {

#ifdef COMOVE_TRACE_TSC
/// Nanoseconds per TSC tick, calibrated once per process against
/// steady_clock over ~1 ms (error well under 0.1%). Modern x86 TSCs are
/// invariant (constant rate, synchronised across cores), which is why
/// every serious profiler reads them instead of clock_gettime: one rdtsc
/// is ~8 ns where the vDSO clock costs ~25 ns - the difference is what
/// keeps the recorder's hot path inside the bench-gated overhead budget.
double NsPerTscTick();
#endif

}  // namespace trace_internal

/// One recorded event. `dur_ns == 0` marks an instant event; otherwise the
/// event is a span [start_ns, start_ns + dur_ns). `stage` and `name` must
/// be string literals (or otherwise outlive the recorder) - they are
/// stored as pointers, never copied.
struct TraceEvent {
  const char* stage = "";        ///< pipeline stage, e.g. "join"
  const char* name = "";         ///< what happened, e.g. "neighbor_pairs"
  std::int32_t subtask = 0;      ///< parallel subtask index (lane)
  Timestamp snapshot_time = kNoTime;  ///< correlates one snapshot's spans
  std::int64_t aux = 0;          ///< extra id (checkpoint, batch size, ...)
  std::uint64_t start_ns = 0;    ///< since the recorder's epoch
  std::uint64_t dur_ns = 0;      ///< 0 = instant
};

/// Canonical pipeline order of the instrumented stages; used to sort the
/// exported timeline lanes top-to-bottom along the dataflow. Unknown
/// stages sort after these.
inline constexpr const char* kTraceStageOrder[] = {
    "source", "assembler", "join", "dbscan",
    "enumerate", "flush", "checkpoint",
};

/// Multi-producer span/instant recorder with per-thread ring buffers.
///
/// Writers call Record* concurrently from any thread; each thread's events
/// go to its own fixed-capacity ring (registered lazily under a mutex on
/// first use, lock-free afterwards). Readers (Events, WriteChromeTrace,
/// dropped) must only run once writers have quiesced - the engine exports
/// after joining its workers, tests after joining their threads; the join
/// provides the happens-before edge that makes the slot reads race-free.
class TraceRecorder {
 public:
  /// `capacity_per_thread` is the ring size in events (~56 bytes each),
  /// rounded up to a power of two so the hot path indexes with a mask
  /// instead of a division. The default keeps a thread's recent ~8k
  /// events (~448 KB per thread) - plenty for the laptop-scale streams,
  /// bounded for any stream length, and small enough that the rings do
  /// not crowd the pipeline's working set out of cache (the bench-gated
  /// overhead budget notices).
  explicit TraceRecorder(std::size_t capacity_per_thread = 1u << 13);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder();

  /// Nanoseconds since this recorder's construction (the trace epoch).
  /// On x86 this is one TSC read and a multiply; elsewhere a
  /// steady_clock read.
  std::uint64_t NowNs() const {
#ifdef COMOVE_TRACE_TSC
    return static_cast<std::uint64_t>(
        static_cast<double>(__rdtsc() - epoch_ticks_) * ns_per_tick_);
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
#endif
  }

  /// Records a span that started at `start_ns` (from NowNs) and ends now.
  void RecordSpanSince(const char* stage, const char* name,
                       std::int32_t subtask, Timestamp snapshot_time,
                       std::uint64_t start_ns, std::int64_t aux = 0) {
    const std::uint64_t now = NowNs();
    Record(TraceEvent{stage, name, subtask, snapshot_time, aux, start_ns,
                      now > start_ns ? now - start_ns : 1});
  }

  /// Records a span with an explicit duration (e.g. measured elsewhere and
  /// back-dated so sub-phases of one computation tile correctly).
  void RecordSpan(const char* stage, const char* name, std::int32_t subtask,
                  Timestamp snapshot_time, std::uint64_t start_ns,
                  std::uint64_t dur_ns, std::int64_t aux = 0) {
    Record(TraceEvent{stage, name, subtask, snapshot_time, aux, start_ns,
                      dur_ns == 0 ? 1 : dur_ns});
  }

  /// Records an instant event at the current time.
  void RecordInstant(const char* stage, const char* name,
                     std::int32_t subtask, Timestamp snapshot_time,
                     std::int64_t aux = 0) {
    Record(TraceEvent{stage, name, subtask, snapshot_time, aux, NowNs(), 0});
  }

  /// Low-level append to the calling thread's ring. Inline: after a
  /// thread's first call this is one thread_local compare, a masked slot
  /// write, and a relaxed cursor bump - it sits on the pipeline's
  /// per-element hot path.
  void Record(TraceEvent event) {
    ThreadCache& cache = Cache();
    ThreadBuffer& buffer = cache.recorder_id == id_
                               ? *cache.buffer
                               : RegisterThread(cache);
    // Only the owning thread writes this ring, so the cursor bump orders
    // nothing; it exists for quiesced readers to learn how far the ring
    // ran.
    const std::uint64_t cursor =
        buffer.cursor.load(std::memory_order_relaxed);
    buffer.ring[static_cast<std::size_t>(cursor) & buffer.mask] = event;
    buffer.cursor.store(cursor + 1, std::memory_order_relaxed);
  }

  /// Events recorded and still resident across all threads, merged and
  /// sorted by start time. Quiesced readers only (see class comment).
  std::vector<TraceEvent> Events() const;

  /// Total events ever recorded (including ones later overwritten).
  std::int64_t recorded() const;

  /// Events lost to ring wraparound (drop-oldest), across all threads.
  std::int64_t dropped() const;

  /// Number of per-thread rings registered so far.
  std::size_t thread_count() const;

  std::size_t capacity_per_thread() const { return capacity_; }

  /// Writes the merged events as Chrome trace_event JSON (the
  /// chrome://tracing / Perfetto "JSON Array Format" with a traceEvents
  /// envelope). Each (stage, subtask) pair becomes one named, pipeline-
  /// ordered lane; spans are "X" complete events, instants "i", and
  /// (stage, subtask, snapshot_time, aux) travel in "args" so a loaded
  /// trace can be filtered by snapshot. Quiesced readers only.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  struct ThreadBuffer {
    /// `capacity` must be a power of two (the constructor rounds).
    explicit ThreadBuffer(std::size_t capacity)
        : ring(capacity), mask(capacity - 1) {}
    std::vector<TraceEvent> ring;
    std::size_t mask;  ///< ring.size() - 1; slot = cursor & mask
    /// Total events ever written by the owning thread. Relaxed: readers
    /// run after a join.
    std::atomic<std::uint64_t> cursor{0};
  };

  /// One cache slot per thread: a (recorder id, buffer) pair. Recorder
  /// ids are process-unique, so a stale cache entry can never alias a
  /// different recorder - even one reallocated at the same address.
  struct ThreadCache {
    std::uint64_t recorder_id = 0;
    ThreadBuffer* buffer = nullptr;
  };
  static ThreadCache& Cache() {
    thread_local ThreadCache cache;
    return cache;
  }

  /// Slow path of Record: finds or creates the calling thread's ring
  /// under the registry mutex and refreshes `cache`.
  ThreadBuffer& RegisterThread(ThreadCache& cache);

  const std::size_t capacity_;
#ifdef COMOVE_TRACE_TSC
  const std::uint64_t epoch_ticks_;
  const double ns_per_tick_;
#else
  const std::chrono::steady_clock::time_point epoch_;
#endif
  const std::uint64_t id_;  ///< process-unique, validates thread caches

  mutable std::mutex mu_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<ThreadBuffer>>>
      buffers_;
};

/// RAII span: records `stage`/`name` from construction to destruction.
/// A null recorder makes both ends free.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, const char* stage, const char* name,
            std::int32_t subtask, Timestamp snapshot_time,
            std::int64_t aux = 0)
      : recorder_(recorder),
        stage_(stage),
        name_(name),
        subtask_(subtask),
        snapshot_time_(snapshot_time),
        aux_(aux),
        start_ns_(recorder != nullptr ? recorder->NowNs() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->RecordSpanSince(stage_, name_, subtask_, snapshot_time_,
                                 start_ns_, aux_);
    }
  }

 private:
  TraceRecorder* recorder_;
  const char* stage_;
  const char* name_;
  std::int32_t subtask_;
  Timestamp snapshot_time_;
  std::int64_t aux_;
  std::uint64_t start_ns_;
};

/// One process's contribution to a multi-process timeline: its events
/// (already shifted onto the coordinator's clock by the caller), the
/// Chrome pid lane group they render under, and the recorder totals for
/// the merged footer. The coordinator builds one of these per process -
/// its own recorder plus every worker's shipped events - and hands the
/// set to WriteChromeTraceMerged.
struct ProcessTrace {
  std::string process_name;  ///< e.g. "coord", "w0"
  int pid = 1;               ///< coordinator = 1, worker i = 2 + i
  std::vector<TraceEvent> events;
  std::int64_t recorded = 0;
  std::int64_t dropped = 0;
};

/// Writes several processes' events as one Chrome trace_event JSON
/// document: per-process pid lane groups (process_name /
/// process_sort_index metadata), per-(stage, subtask) tid lanes inside
/// each process in pipeline order, and a footer summing recorded/dropped
/// across processes. Events within each process must be sorted by
/// start_ns (TraceRecorder::Events() order) so every lane's timestamps
/// are monotone - validate_trace.py checks exactly that.
void WriteChromeTraceMerged(const std::vector<ProcessTrace>& processes,
                            std::ostream& out);

/// Per-stage share of one snapshot's pipeline time: where the worst
/// latencies were actually spent. Built from the trace's
/// snapshot-correlated spans, ranked by the measured ingest->emit latency.
struct SnapshotStageBreakdown {
  Timestamp snapshot_time = kNoTime;
  double latency_ms = 0.0;  ///< measured ingest->emit response time
  /// (stage, summed span milliseconds) in pipeline order; stages with no
  /// span for this snapshot are omitted.
  std::vector<std::pair<std::string, double>> stage_ms;
};

/// Selects the `k` worst snapshots by measured latency and attributes each
/// one's trace spans to stages. `latencies` holds (snapshot_time,
/// latency_ms) for every completed snapshot (see
/// SnapshotMetrics::PerSnapshot); `events` is TraceRecorder::Events().
std::vector<SnapshotStageBreakdown> BuildWorstSnapshotBreakdown(
    const std::vector<TraceEvent>& events,
    const std::vector<std::pair<Timestamp, double>>& latencies,
    std::size_t k);

/// Human-readable worst-snapshot table: one row per snapshot, one column
/// per stage that contributed span time, worst first.
void PrintSnapshotBreakdown(
    const std::vector<SnapshotStageBreakdown>& breakdown, std::ostream& out);

}  // namespace comove::flow

#endif  // COMOVE_FLOW_TRACE_H_
