// Pattern-enumeration hot-loop benchmark: the allocation-free,
// word-parallel FBA/VBA implementations against self-contained naive
// replicas of the pre-optimisation algorithms, on duty-cycled cluster
// streams that keep the apriori recursion busy without blowing up the
// pattern count.
//
// The naive replicas reproduce the old cost model through the same
// public partition API:
//   - FBA(naive): every complete window rebuilds each anchor member's
//     eta-bit string from eta binary searches over the buffered member
//     lists, and every apriori node allocates a fresh AND byte-vector
//     plus a fresh one-times vector for the (K,L,G) check.
//   - VBA(naive): every tick walks each open string with a binary search
//     of the member list, appends an explicit zero and rescans the tail
//     for the G+1 closure test; every close deep-copies the surviving
//     candidate strings before enumerating.
// The fast paths instead keep per-trajectory presence rings inline in
// one flat open-addressing table per owner (one probe and one bit set per
// member of the entering tick, one probe and one bit clear per member of
// the leaving tick, and one word-level rotation per anchor member present
// at K or more ticks), lazy zero-run counters, and run the apriori out of
// a per-level arena scratch with word-parallel popcount/KLG kernels.
// Both sides emit identical pattern multisets per configuration (checked
// on a cold pass before timing; the process exits non-zero on mismatch).
//
// Workload: `opc` objects share one cluster; object i is present at
// time t iff ((t + i) mod period) < l+1 with period = l+1 + max(1, g-1).
// Objects with equal phase are always co-clustered (long qualifying
// patterns), while crossing phase classes starves the AND below K and
// exercises the prune path. Configs sweep m/k/l/g (window lengths eta of
// one, two and three 64-bit words) and objects-per-cluster.
//
// Output: a table on stdout and JSON (one row object per line) for
// scripts/bench_smoke.sh, default BENCH_enum.json, overridable with
// --out <path>. The smoke gate holds the headline within-run floor:
// fast >= 3x naive for FBA on the enumeration-bound m4/k18/l3/g3/opc32
// config. `--min-headline X` makes the binary itself fail below X
// (used by the CI perf-smoke job, which has no baseline file).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"
#include "common/time_sequence.h"
#include "pattern/fixed_bit_enumerator.h"
#include "pattern/partition.h"
#include "pattern/variable_bit_enumerator.h"

namespace comove::bench {
namespace {

using pattern::Partition;

struct Config {
  std::string name;
  std::int32_t m, k, l, g;
  int opc;    ///< objects per cluster
  int ticks;  ///< stream length (>= eta + slack)
};

struct Row {
  std::string algo;  ///< "fba" or "vba"
  std::string impl;  ///< "fast" or "naive"
  Config config;
  double snapshots_per_sec = 0.0;
};

/// One cluster per tick holding the duty-cycled present subset. Ticks
/// where no object is present still appear (as empty snapshots) so every
/// implementation ages its windows identically.
std::vector<ClusterSnapshot> DutyCycleStream(const Config& c) {
  const int ones = c.l + 1;
  const int period = ones + std::max(1, c.g - 1);
  std::vector<ClusterSnapshot> stream;
  for (int t = 0; t < c.ticks; ++t) {
    ClusterSnapshot s;
    s.time = t;
    std::vector<TrajectoryId> members;
    for (int i = 0; i < c.opc; ++i) {
      if ((t + i) % period < ones) {
        members.push_back(static_cast<TrajectoryId>(i));
      }
    }
    if (!members.empty()) {
      s.clusters.push_back(Cluster{0, std::move(members)});
    }
    stream.push_back(std::move(s));
  }
  return stream;
}

// ---------------------------------------------------------------------
// Naive replicas. Bits are absolute-time byte vectors; every apriori
// node allocates its AND afresh, mirroring the retired AndAligned path.
// ---------------------------------------------------------------------

struct NaiveBits {
  Timestamp start = 0;
  std::vector<unsigned char> bits;

  Timestamp end() const {
    return start + static_cast<Timestamp>(bits.size());
  }
};

NaiveBits NaiveAnd(const NaiveBits& a, const NaiveBits& b) {
  NaiveBits out;
  out.start = std::max(a.start, b.start);
  const Timestamp end = std::min(a.end(), b.end());
  for (Timestamp t = out.start; t < end; ++t) {
    out.bits.push_back(a.bits[static_cast<std::size_t>(t - a.start)] &
                       b.bits[static_cast<std::size_t>(t - b.start)]);
  }
  return out;
}

std::int32_t NaiveOnes(const NaiveBits& b) {
  std::int32_t n = 0;
  for (const unsigned char bit : b.bits) n += bit;
  return n;
}

std::vector<Timestamp> NaiveOneTimes(const NaiveBits& b) {
  std::vector<Timestamp> times;
  for (std::size_t i = 0; i < b.bits.size(); ++i) {
    if (b.bits[i]) times.push_back(b.start + static_cast<Timestamp>(i));
  }
  return times;
}

struct NaiveCandidate {
  TrajectoryId id = 0;
  NaiveBits bits;
};

/// Mirrors AprioriRunner::Recurse node for node (same visit order, same
/// prune conditions, same emissions), but with a fresh allocation per
/// AND and per (K,L,G) check.
class NaiveApriori {
 public:
  NaiveApriori(const std::vector<NaiveCandidate>& cands, TrajectoryId owner,
               const PatternConstraints& constraints, bool first_mandatory,
               const pattern::PatternSink& sink)
      : cands_(cands), owner_(owner), constraints_(constraints),
        sink_(sink) {
    if (static_cast<std::int32_t>(cands.size()) < constraints.m - 1) return;
    if (!first_mandatory) {
      Recurse(0, NaiveBits{}, true);
      return;
    }
    if (NaiveOnes(cands_[0].bits) < constraints_.k) return;
    chosen_.push_back(0);
    const NaiveBits& seed = cands_[0].bits;
    if (1 >= constraints_.m - 1) {
      if (HasQualifyingSubsequence(NaiveOneTimes(seed), constraints_)) {
        Emit(seed);
        Recurse(1, seed, false);
      }
    } else {
      Recurse(1, seed, false);
    }
    chosen_.pop_back();
  }

 private:
  void Recurse(std::size_t start, const NaiveBits& partial, bool top) {
    for (std::size_t i = start; i < cands_.size(); ++i) {
      const NaiveBits combined =
          top ? cands_[i].bits : NaiveAnd(partial, cands_[i].bits);
      if (NaiveOnes(combined) < constraints_.k) continue;
      chosen_.push_back(i);
      if (static_cast<std::int32_t>(chosen_.size()) >= constraints_.m - 1) {
        if (HasQualifyingSubsequence(NaiveOneTimes(combined), constraints_)) {
          Emit(combined);
          Recurse(i + 1, combined, false);
        }
      } else {
        Recurse(i + 1, combined, false);
      }
      chosen_.pop_back();
    }
  }

  void Emit(const NaiveBits& combined) {
    CoMovementPattern p;
    for (const std::size_t d : chosen_) p.objects.push_back(cands_[d].id);
    p.objects.push_back(owner_);
    std::sort(p.objects.begin(), p.objects.end());
    p.times = BestQualifyingSubsequence(NaiveOneTimes(combined), constraints_);
    sink_(p);
  }

  const std::vector<NaiveCandidate>& cands_;
  const TrajectoryId owner_;
  const PatternConstraints& constraints_;
  const pattern::PatternSink& sink_;
  std::vector<std::size_t> chosen_;
};

/// Pre-optimisation FBA: buffers eta member lists per owner and rebuilds
/// every anchor member's window string from eta binary searches when the
/// window completes.
class NaiveFixedBit {
 public:
  NaiveFixedBit(const PatternConstraints& constraints,
                pattern::PatternSink sink)
      : constraints_(constraints), eta_(constraints.Eta()),
        sink_(std::move(sink)) {}

  void OnClusterSnapshot(const ClusterSnapshot& snapshot) {
    if (next_time_ == kNoTime) next_time_ = snapshot.time;
    while (next_time_ < snapshot.time) Tick(next_time_++, {});
    Tick(next_time_++, pattern::MakePartitions(snapshot, constraints_));
  }

  void Finish() {
    for (std::int32_t i = 0; i < eta_ && !owners_.empty(); ++i) {
      Tick(next_time_++, {});
    }
  }

 private:
  struct OwnerState {
    Timestamp history_start = 0;
    std::deque<std::vector<TrajectoryId>> history;
  };

  void Tick(Timestamp t, std::vector<Partition> partitions) {
    for (Partition& p : partitions) {
      auto [it, inserted] = owners_.try_emplace(p.owner);
      if (inserted) it->second.history_start = t;
    }
    std::unordered_map<TrajectoryId, std::vector<TrajectoryId>> members;
    for (Partition& p : partitions) members[p.owner] = std::move(p.members);
    for (auto it = owners_.begin(); it != owners_.end();) {
      OwnerState& state = it->second;
      auto mi = members.find(it->first);
      state.history.push_back(mi == members.end()
                                  ? std::vector<TrajectoryId>{}
                                  : std::move(mi->second));
      if (static_cast<std::int32_t>(state.history.size()) == eta_) {
        if (!state.history.front().empty()) RunWindow(it->first, state);
        state.history.pop_front();
        ++state.history_start;
      }
      bool all_empty = true;
      for (const auto& entry : state.history) {
        if (!entry.empty()) { all_empty = false; break; }
      }
      it = all_empty ? owners_.erase(it) : ++it;
    }
  }

  void RunWindow(TrajectoryId owner, const OwnerState& state) {
    std::vector<NaiveCandidate> candidates;
    for (const TrajectoryId oi : state.history.front()) {
      NaiveBits bits;
      bits.start = state.history_start;
      for (const auto& entry : state.history) {
        bits.bits.push_back(
            std::binary_search(entry.begin(), entry.end(), oi) ? 1 : 0);
      }
      if (HasQualifyingSubsequence(NaiveOneTimes(bits), constraints_)) {
        candidates.push_back(NaiveCandidate{oi, std::move(bits)});
      }
    }
    NaiveApriori(candidates, owner, constraints_,
                 /*first_mandatory=*/false, sink_);
  }

  const PatternConstraints constraints_;
  const std::int32_t eta_;
  const pattern::PatternSink sink_;
  Timestamp next_time_ = kNoTime;
  std::unordered_map<TrajectoryId, OwnerState> owners_;
};

/// Pre-optimisation VBA: per tick every open string binary-searches the
/// member list, appends an explicit bit and rescans its tail zeros;
/// every close deep-copies the Lemma-8-surviving candidates.
class NaiveVariableBit {
 public:
  NaiveVariableBit(const PatternConstraints& constraints,
                   pattern::PatternSink sink)
      : constraints_(constraints), sink_(std::move(sink)) {}

  void OnClusterSnapshot(const ClusterSnapshot& snapshot) {
    if (next_time_ == kNoTime) next_time_ = snapshot.time;
    while (next_time_ < snapshot.time) Tick(next_time_++, {});
    Tick(next_time_++, pattern::MakePartitions(snapshot, constraints_));
  }

  void Finish() {
    for (auto& [owner, state] : owners_) {
      for (auto& [id, bits] : state.open) CloseString(owner, &state, bits, id);
      state.open.clear();
    }
    owners_.clear();
  }

 private:
  struct OwnerState {
    std::map<TrajectoryId, NaiveBits> open;
    std::vector<NaiveCandidate> candidates;
  };

  static std::int32_t TrailingZeros(const NaiveBits& b) {
    std::int32_t n = 0;
    for (auto it = b.bits.rbegin(); it != b.bits.rend() && !*it; ++it) ++n;
    return n;
  }

  void Tick(Timestamp t, std::vector<Partition> partitions) {
    for (Partition& p : partitions) owners_.try_emplace(p.owner);
    std::unordered_map<TrajectoryId, std::vector<TrajectoryId>> members;
    for (Partition& p : partitions) members[p.owner] = std::move(p.members);
    for (auto it = owners_.begin(); it != owners_.end();) {
      OwnerState& state = it->second;
      auto mi = members.find(it->first);
      static const std::vector<TrajectoryId> kEmpty;
      const std::vector<TrajectoryId>& present =
          mi == members.end() ? kEmpty : mi->second;
      for (auto oi = state.open.begin(); oi != state.open.end();) {
        const bool hit =
            std::binary_search(present.begin(), present.end(), oi->first);
        oi->second.bits.push_back(hit ? 1 : 0);
        if (!hit && TrailingZeros(oi->second) > constraints_.g) {
          CloseString(it->first, &state, oi->second, oi->first);
          oi = state.open.erase(oi);
        } else {
          ++oi;
        }
      }
      for (const TrajectoryId id : present) {
        auto [oi, inserted] = state.open.try_emplace(id);
        if (inserted) {
          oi->second.start = t;
          oi->second.bits.push_back(1);
        }
      }
      it = state.open.empty() && state.candidates.empty()
               ? owners_.erase(it)
               : ++it;
    }
  }

  void CloseString(TrajectoryId owner, OwnerState* state, NaiveBits bits,
                   TrajectoryId id) {
    while (!bits.bits.empty() && !bits.bits.back()) bits.bits.pop_back();
    if (bits.bits.empty() ||
        !HasQualifyingSubsequence(NaiveOneTimes(bits), constraints_)) {
      return;
    }
    // Deep copy of every surviving candidate - the retired per-close cost.
    std::vector<NaiveCandidate> filtered;
    filtered.push_back(NaiveCandidate{id, bits});
    for (const NaiveCandidate& c : state->candidates) {
      const Timestamp overlap_start = std::max(c.bits.start, bits.start);
      const Timestamp overlap_end = std::min(c.bits.end(), bits.end());
      if (overlap_end - overlap_start >= constraints_.k) {
        filtered.push_back(c);
      }
    }
    NaiveApriori(filtered, owner, constraints_,
                 /*first_mandatory=*/true, sink_);
    state->candidates.push_back(NaiveCandidate{id, std::move(bits)});
  }

  const PatternConstraints constraints_;
  const pattern::PatternSink sink_;
  Timestamp next_time_ = kNoTime;
  std::unordered_map<TrajectoryId, OwnerState> owners_;
};

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

template <typename Enumerator>
std::int64_t RunOnce(const std::vector<ClusterSnapshot>& stream,
                     const PatternConstraints& c) {
  std::int64_t emitted = 0;
  Enumerator e(c, [&emitted](const CoMovementPattern&) { ++emitted; });
  for (const ClusterSnapshot& s : stream) e.OnClusterSnapshot(s);
  e.Finish();
  return emitted;
}

template <typename Enumerator>
double TimeStream(const std::vector<ClusterSnapshot>& stream,
                  const PatternConstraints& c, double min_ms) {
  std::int64_t snapshots = 0;
  std::int64_t emitted = 0;
  Stopwatch watch;
  do {
    Enumerator e(c, [&emitted](const CoMovementPattern&) { ++emitted; });
    for (const ClusterSnapshot& s : stream) e.OnClusterSnapshot(s);
    e.Finish();
    snapshots += static_cast<std::int64_t>(stream.size());
  } while (watch.ElapsedMillis() < min_ms);
  if (emitted < 0) std::abort();  // keep the sink observable
  return static_cast<double>(snapshots) / (watch.ElapsedMillis() / 1e3);
}

template <typename Enumerator>
Row Measure(const char* algo, const char* impl, const Config& config,
            const std::vector<ClusterSnapshot>& stream, double min_ms,
            int reps) {
  const PatternConstraints c{config.m, config.k, config.l, config.g};
  Row row{algo, impl, config, 0.0};
  for (int r = 0; r < reps; ++r) {
    row.snapshots_per_sec = std::max(
        row.snapshots_per_sec, TimeStream<Enumerator>(stream, c, min_ms));
  }
  return row;
}

}  // namespace
}  // namespace comove::bench

int main(int argc, char** argv) {
  using namespace comove;         // NOLINT
  using namespace comove::bench;  // NOLINT

  std::string out_path = "BENCH_enum.json";
  double min_ms = 100.0;  // measured wall clock per (config, impl, rep)
  int reps = 3;
  double min_headline = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--min-ms" && i + 1 < argc) {
      min_ms = std::stod(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--min-headline" && i + 1 < argc) {
      min_headline = std::stod(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--out path] [--min-ms t] [--reps n]"
                << " [--min-headline x]\n";
      return 2;
    }
  }

  // eta spans one word (C0..C5, C8), two words (C6) and three (C7).
  const std::vector<Config> configs = {
      {"C0", 2, 6, 2, 2, 8, 80},     {"C1", 2, 6, 2, 2, 32, 80},
      {"C2", 4, 18, 3, 3, 8, 96},    {"C3", 4, 18, 3, 3, 32, 96},
      {"C4", 3, 12, 2, 5, 16, 96},   {"C5", 2, 10, 5, 2, 16, 80},
      {"C6", 3, 40, 2, 3, 16, 144},  {"C7", 4, 90, 2, 2, 16, 200},
      {"C8", 5, 8, 2, 2, 24, 80},
  };

  std::vector<Row> rows;
  for (const Config& config : configs) {
    const PatternConstraints c{config.m, config.k, config.l, config.g};
    const std::vector<ClusterSnapshot> stream = DutyCycleStream(config);
    // Cold-pass equivalence check: the naive replicas must do the same
    // enumeration work, or the speedup below compares different jobs.
    const std::int64_t fba_fast = RunOnce<pattern::FixedBitEnumerator>(stream, c);
    const std::int64_t fba_naive = RunOnce<NaiveFixedBit>(stream, c);
    const std::int64_t vba_fast =
        RunOnce<pattern::VariableBitEnumerator>(stream, c);
    const std::int64_t vba_naive = RunOnce<NaiveVariableBit>(stream, c);
    if (fba_fast != fba_naive || vba_fast != vba_naive) {
      std::cerr << config.name << ": emission mismatch (fba " << fba_fast
                << " vs " << fba_naive << ", vba " << vba_fast << " vs "
                << vba_naive << ")\n";
      return 1;
    }
    rows.push_back(Measure<pattern::FixedBitEnumerator>(
        "fba", "fast", config, stream, min_ms, reps));
    rows.push_back(
        Measure<NaiveFixedBit>("fba", "naive", config, stream, min_ms, reps));
    rows.push_back(Measure<pattern::VariableBitEnumerator>(
        "vba", "fast", config, stream, min_ms, reps));
    rows.push_back(Measure<NaiveVariableBit>("vba", "naive", config, stream,
                                             min_ms, reps));
  }

  std::printf("%4s %4s %6s %3s %3s %3s %3s %4s %15s\n", "cfg", "algo", "impl",
              "m", "k", "l", "g", "opc", "snapshots_per_s");
  for (const Row& row : rows) {
    std::printf("%4s %4s %6s %3d %3d %3d %3d %4d %15.1f\n",
                row.config.name.c_str(), row.algo.c_str(), row.impl.c_str(),
                row.config.m, row.config.k, row.config.l, row.config.g,
                row.config.opc, row.snapshots_per_sec);
  }

  // Headline: fast over naive for FBA on the enumeration-bound config
  // (deep windows, wide clusters -> the apriori recursion dominates).
  double headline = 0.0;
  double fast = 0.0, naive = 0.0, vfast = 0.0, vnaive = 0.0;
  for (const Row& row : rows) {
    if (row.config.name != "C3") continue;
    if (row.algo == "fba" && row.impl == "fast") fast = row.snapshots_per_sec;
    if (row.algo == "fba" && row.impl == "naive") naive = row.snapshots_per_sec;
    if (row.algo == "vba" && row.impl == "fast") vfast = row.snapshots_per_sec;
    if (row.algo == "vba" && row.impl == "naive")
      vnaive = row.snapshots_per_sec;
  }
  if (naive > 0.0) {
    headline = fast / naive;
    std::printf("headline (fba m4/k18/l3/g3/opc32): fast/naive = %.2fx\n",
                headline);
  }
  if (vnaive > 0.0) {
    std::printf("         (vba m4/k18/l3/g3/opc32): fast/naive = %.2fx\n",
                vfast / vnaive);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  for (const Row& row : rows) {
    out << "{\"workload\": \"enumerator\", \"algo\": \"" << row.algo
        << "\", \"impl\": \"" << row.impl << "\", \"m\": " << row.config.m
        << ", \"k\": " << row.config.k << ", \"l\": " << row.config.l
        << ", \"g\": " << row.config.g << ", \"opc\": " << row.config.opc
        << ", \"snapshots_per_sec\": "
        << static_cast<std::int64_t>(row.snapshots_per_sec) << "}\n";
  }
  std::cout << "wrote " << out_path << "\n";

  if (min_headline > 0.0 && headline < min_headline) {
    std::cerr << "FAIL: headline " << headline << "x below required "
              << min_headline << "x\n";
    return 1;
  }
  return 0;
}
