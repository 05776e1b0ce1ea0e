#ifndef TRANSEDGE_WORKLOAD_GENERATOR_H_
#define TRANSEDGE_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/partition_map.h"
#include "txn/types.h"

namespace transedge::workload {

/// Workload parameters, following §5.1's data model: keys hashed
/// uniformly across clusters, fixed-size values. The paper uses 1M keys
/// and 256-byte values; the defaults here are scaled down so the full
/// bench suite runs quickly — the protocols never branch on key-space
/// size or payload bytes, so shapes are unaffected (see EXPERIMENTS.md).
struct WorkloadOptions {
  uint64_t num_keys = 20000;
  size_t value_size = 32;
  uint64_t seed = 42;
};

/// Pre-materialized key universe, indexed by owning partition so that
/// transaction plans can target an exact number of clusters.
class KeySpace {
 public:
  KeySpace(const WorkloadOptions& options, uint32_t num_partitions);

  /// All keys paired with deterministic initial values, for preloading.
  std::vector<std::pair<Key, Value>> InitialData() const;

  const Key& RandomKey(Rng* rng) const;
  const Key& RandomKeyIn(PartitionId p, Rng* rng) const;

  Value RandomValue(Rng* rng) const;

  uint64_t size() const { return keys_.size(); }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(by_partition_.size());
  }

 private:
  WorkloadOptions options_;
  std::vector<Key> keys_;
  std::vector<std::vector<uint32_t>> by_partition_;
};

/// One planned client operation.
struct TxnPlan {
  enum class Kind { kReadOnly, kReadWrite, kWriteOnly };
  Kind kind = Kind::kReadWrite;
  std::vector<Key> read_keys;
  std::vector<WriteOp> writes;
};

/// Builds transaction plans matching the paper's workload shapes.
class PlanGenerator {
 public:
  PlanGenerator(KeySpace* keys, uint32_t num_partitions)
      : keys_(keys), num_partitions_(num_partitions) {}

  /// `reads` read ops + `writes` write ops spread over `clusters`
  /// distinct clusters (§5.1: default 5 reads, 3 writes, 5 clusters).
  TxnPlan MakeReadWrite(int reads, int writes, int clusters, Rng* rng) const;

  /// The Figure 10/11 skew shape: one write per cluster on `writes`
  /// distinct clusters, with the reads co-located on those clusters —
  /// so "R=5,W=1" degenerates to a local transaction and "R=1,W=5"
  /// coordinates across all five, exactly as §5.2 describes.
  TxnPlan MakeSkewedReadWrite(int reads, int writes, Rng* rng) const;

  /// All operations on a single random cluster.
  TxnPlan MakeLocalReadWrite(int reads, int writes, Rng* rng) const;
  TxnPlan MakeWriteOnly(int writes, Rng* rng) const;

  /// `total_keys` unique keys spread over `clusters` distinct clusters
  /// (paper default: 5 keys, 1 per cluster).
  TxnPlan MakeReadOnly(int total_keys, int clusters, Rng* rng) const;

 private:
  std::vector<PartitionId> PickClusters(int clusters, Rng* rng) const;

  KeySpace* keys_;
  uint32_t num_partitions_;
};

}  // namespace transedge::workload

#endif  // TRANSEDGE_WORKLOAD_GENERATOR_H_
