#ifndef TRANSEDGE_BENCH_E2E_WORKLOAD_H_
#define TRANSEDGE_BENCH_E2E_WORKLOAD_H_

// The four workloads of the end-to-end benchmark and the one function
// that runs a workload once: build the deployment, drive it through a
// warm-up and a fixed simulated measurement window, drain, check the
// correctness gates and compute the metrics.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "sim/time.h"
#include "storage/storage_kind.h"
#include "txn/types.h"

namespace transedge::e2e {

struct Metric {
  double value = 0;
  std::string unit;
};
/// Ordered by name so every listing is deterministic.
using Metrics = std::map<std::string, Metric>;

enum class OpKind : uint8_t { kRo, kRw };

/// Everything a workload pins. The topology, link latencies and cost
/// model are shared by all workloads (see MakeConfig); these are the
/// axes the workloads differ on.
struct Spec {
  std::string name;
  core::ConsensusKind consensus = core::ConsensusKind::kPbft;
  storage::StorageKind storage = storage::StorageKind::kInMemory;
  /// Keys the operations draw from: k0000000000 .. k<key_space - 1>.
  uint64_t key_space = 20000;
  /// Install the whole key space as the initial, certified state.
  bool preload = true;
  int merkle_depth = 13;
  sim::Time warmup = 0;
  sim::Time window = 0;

  // Open loop: Poisson arrivals at these rates, each op handed to the
  // next of 32 clients round-robin.
  double ro_per_s = 0;
  double rw_per_s = 0;

  // Closed loop: `closed_clients` x `closed_depth` independent loops of
  // read-write ops.
  int closed_clients = 0;
  int closed_depth = 0;

  /// Share of read-write ops (open or closed loop) that span two
  /// clusters instead of one.
  double rw_dist_share = 0;

  // Watch tier: one closed-loop single-key writer per hot key and
  // `watchers` watch clients subscribed to the hot range.
  int hot_keys = 0;
  int watchers = 0;

  /// Crash a follower of partition 0 two seconds into the window and
  /// restart it from its disk one second later.
  bool failover = false;

  /// Latency limits for slo_pct (an op that fails misses its limit).
  sim::Time ro_limit = 0;
  sim::Time rw_limit = 0;

  /// The op class the workload is about: p50_ms / p99_ms measure it.
  OpKind primary = OpKind::kRo;
};

const std::vector<Spec>& AllSpecs();
const Spec* FindSpec(const std::string& name);

/// Which keys of the key space each partition owns (a function of the
/// key names alone, so it is built once per run and shared by every
/// repeat and seed).
class KeyIndex {
 public:
  explicit KeyIndex(const Spec& spec);

  static Key KeyName(uint64_t index);

  /// Indices (into the key space) of the keys partition `p` owns.
  const std::vector<uint32_t>& owned(PartitionId p) const {
    return by_partition_[p];
  }

 private:
  std::vector<std::vector<uint32_t>> by_partition_;
};

class Probe;

/// One build + warm-up + measured window + drain of a workload.
struct RepeatResult {
  /// Host CPU seconds until the measurement window opens: building the
  /// deployment (System, preload state, clients, start, genesis
  /// certification) and the warm-up.
  double setup_s = 0;
  /// Host CPU seconds spent in each equal simulated slice of the
  /// measurement window.
  std::vector<double> slice_host_s;
  /// Simulated metrics and counters: a pure function of spec and seed.
  Metrics sim;
  /// Counters that read host time (vary run to run).
  Metrics host;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Hash of every op outcome and every replica's final log tail, so a
  /// repeat (or the traced run) can be checked for exact equality.
  uint64_t digest = 0;
  /// Failed correctness gates, human-readable; empty when correct.
  std::vector<std::string> violations;
};

/// Runs `spec` once on inputs generated from `seed`. `probe` (may be
/// null) observes the run from outside through the network's
/// registration and link-filter hooks; it never changes what the
/// simulation does.
RepeatResult RunOnce(const Spec& spec, const KeyIndex& keys, uint64_t seed,
                     Probe* probe);

}  // namespace transedge::e2e

#endif  // TRANSEDGE_BENCH_E2E_WORKLOAD_H_
