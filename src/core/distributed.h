#ifndef COMOVE_CORE_DISTRIBUTED_H_
#define COMOVE_CORE_DISTRIBUTED_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/icpe_engine.h"

/// \file
/// The multi-process deployment of the ICPE pipeline - the "distributed"
/// in the paper's title made real. One coordinator process hosts the
/// ingest subtask (source and assembler), the checkpoint coordinator, and
/// all run-level accounting (latency metrics, completion tracking, pattern
/// collectors); W worker processes each host a contiguous range of the
/// cluster and enumerate subtasks. Edges that cross a process boundary run over the
/// flow/net SocketTransport (UNIX-domain or TCP loopback), with data,
/// watermarks, and checkpoint barriers all in-band - so barrier alignment
/// and exactly-once recovery work unchanged across processes, and a
/// distributed run emits the bit-identical pattern multiset of a
/// single-process run at the same parallelism (RunIcpe and
/// RunIcpeDistributed execute the very same stage bodies from
/// core/stage_workers.h; only the edges differ).
///
/// Control traffic shares the data links: workers ack checkpoints,
/// report completion progress, ship periodic and final stage-stats
/// snapshots plus their trace events, and deliver their final counters
/// and pattern folds back to the coordinator as framed control messages.

namespace comove::core {

/// How a distributed run is deployed.
struct DistributedOptions {
  /// Worker process count; each hosts ~parallelism/workers subtasks of
  /// the cluster and enumerate stages (1 <= workers <= parallelism).
  std::int32_t workers = 2;
  /// "unix" (UNIX-domain stream sockets under /tmp) or "tcp" (loopback
  /// with ephemeral ports).
  std::string transport = "unix";
  /// Binary to spawn as worker processes; it must route the sentinel
  /// argv through MaybeNetWorker early in main(). Empty uses
  /// /proc/self/exe, i.e. re-executes the calling binary.
  std::string worker_binary;
  /// Budget for every blocking handshake step (connect, HELLO, CONFIG).
  std::int64_t connect_timeout_ms = 15000;
};

/// First argv of a spawned worker process.
inline constexpr char kNetWorkerFlag[] = "--comove-net-worker";

/// Runs the pipeline across 1 + workers processes and assembles the same
/// IcpeResult a single-process run reports. Observability is merged
/// across the process boundary: stage_stats carry the coordinator rows,
/// each worker's rows prefixed "w<i>:" (including its cluster/enumerate
/// edges), and "link:*" rows with per-PeerLink transport counters
/// (frames/bytes, blocked time, CRC rejects); the trace is one Chrome
/// timeline with a lane group per process, worker clocks aligned via the
/// CONFIG handshake.
///
/// Restriction: on_pattern is not supported (live callbacks cannot cross
/// a process boundary).
IcpeResult RunIcpeDistributed(const trajgen::Dataset& dataset,
                              const IcpeOptions& options,
                              const DistributedOptions& dist);

/// Worker-process entry: connects to the coordinator, receives its
/// configuration, runs its subtask range, ships the result back. Returns
/// the process exit code (0 ok, 2 handshake failure, 1 peer crash; an
/// injected fault exits 3 without returning).
int NetWorkerMain(const std::string& coordinator_address,
                  std::int32_t worker_index);

/// Call first in main(): when argv marks this process as a spawned net
/// worker (argv[1] == kNetWorkerFlag), runs the worker and returns its
/// exit code; otherwise nullopt and main proceeds normally. This is what
/// lets any host binary (tool, test, bench) double as the worker binary.
std::optional<int> MaybeNetWorker(int argc, char** argv);

}  // namespace comove::core

#endif  // COMOVE_CORE_DISTRIBUTED_H_
