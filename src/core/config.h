#ifndef TRANSEDGE_CORE_CONFIG_H_
#define TRANSEDGE_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "crypto/signer.h"
#include "sim/time.h"
#include "storage/storage_kind.h"
#include "txn/types.h"

namespace transedge::core {

/// Simulated CPU costs of the operations a replica performs. The values
/// are calibrated so that the *shapes* of the paper's curves (batching
/// sweet spots, consensus overheads, proof-serving costs) emerge from the
/// same mechanics; ARCHITECTURE.md ("Cost-model calibrations") lists
/// these defaults beside the figure benches' paper calibration.
struct CostModel {
  /// Leader-side admission: conflict detection for one transaction
  /// (Definition 3.1) against the store and indexes.
  sim::Time admit_per_txn = sim::Micros(12);

  /// Replica-side re-validation of one transaction in a proposed batch.
  sim::Time validate_per_txn = sim::Micros(10);

  /// Applying one transaction's writes (store + Merkle tree), charged
  /// once per decided batch on the replica's apply worker, in log order,
  /// beside the protocol CPU.
  sim::Time apply_per_txn = sim::Micros(6);

  /// Fixed per-batch consensus work (digesting, certificate assembly).
  sim::Time batch_overhead = sim::Micros(200);

  /// Superlinear pressure of large batches (bigger conflict indexes,
  /// deeper Merkle churn, larger serialization): nanoseconds charged per
  /// (batch size)^2. This is what bends the throughput curve back down
  /// past the paper's 2000–2500-transaction sweet spot (Figure 9).
  double batch_quadratic_ns = 4.0;

  /// Handling any protocol message.
  sim::Time message_handling = sim::Micros(4);

  /// Serving one key of a read-only request (lookup + audit path).
  sim::Time ro_serve_per_key = sim::Micros(8);

  /// One signature creation or verification.
  sim::Time signature_op = sim::Micros(25);

  /// Has no effect: a replica applies each decided batch in one pass, so
  /// there are no apply shards to recombine. Kept only so existing
  /// configurations that assign it still compile.
  sim::Time apply_shard_recombine = sim::Micros(15);

  // Durable-storage costs (charged only under StorageKind::kPaged, on the
  // protocol CPU, from the backend's StorageIoStats deltas; the in-memory
  // backend reports zero I/O and therefore charges nothing).

  /// Building + buffering one WAL record (decision critical path).
  sim::Time wal_append = sim::Micros(4);

  /// Decoding + re-applying one WAL record during crash recovery.
  sim::Time wal_read = sim::Micros(4);

  /// One WAL group-commit fsync barrier. Page-file syncs at a checkpoint
  /// are not charged.
  sim::Time disk_fsync = sim::Micros(120);

  /// Has no effect: checkpoint page writes are not charged. Kept only so
  /// existing configurations that assign it still compile.
  sim::Time page_write = sim::Micros(30);

  /// Reading one page during crash recovery (charged on the protocol
  /// CPU, before the restarted replica handles its first message).
  sim::Time page_read = sim::Micros(25);
};

/// Which intra-cluster consensus engine certifies batches. Every engine
/// produces the same `storage::BatchCertificate` (f+1 replica signatures
/// over the batch/Merkle-root payload), so clients, 2PC proofs, and the
/// read-only verification path are engine-agnostic.
enum class ConsensusKind : uint8_t {
  /// PBFT-style all-to-all voting (§3.2): PrePrepare broadcast, then
  /// every replica broadcasts Prepare and Commit — O(n²) messages per
  /// decided batch.
  kPbft,
  /// HotStuff-style linear voting: the leader broadcasts the proposal,
  /// replicas vote *to the leader*, and the leader broadcasts quorum
  /// certificates for the prepare and commit phases — O(n) messages per
  /// phase.
  kLinearVote,
};

/// Human-readable engine name ("pbft" / "linear_vote") for benches/logs.
const char* ConsensusKindName(ConsensusKind kind);

/// Static system topology and protocol parameters. Shared by every node,
/// client, and bench harness; node ids are a pure function of
/// (partition, replica index).
struct SystemConfig {
  /// Number of partitions == number of clusters (paper default: 5).
  uint32_t num_partitions = 5;

  /// Intra-cluster consensus engine (see ConsensusKind). The default
  /// keeps the PBFT-style engine byte-for-byte identical to the
  /// pre-interface behavior.
  ConsensusKind consensus_kind = ConsensusKind::kPbft;

  /// Which storage engine backs each replica's store + log (see
  /// storage::StorageKind). The default keeps the in-memory stack
  /// byte-for-byte identical to the pre-seam behavior; kPaged adds a
  /// WAL + checkpoint on a per-replica simulated disk and survives
  /// crash-restart.
  storage::StorageKind storage_kind = storage::StorageKind::kInMemory;

  /// Durability knobs of the paged backend (page size, bucket count,
  /// group commit, checkpoint cadence). `num_partitions`/`partition`
  /// are overwritten per node; the rest are honored as configured.
  storage::StorageTuning durability;

  /// Tolerated byzantine failures per cluster (paper default: 2, i.e.
  /// 7 replicas per cluster).
  uint32_t f = 2;

  /// Leader writes a batch at least this often when there is work.
  sim::Time batch_interval = sim::Millis(10);

  /// Size trigger: the leader proposes early once the in-progress batch
  /// holds this many transactions.
  size_t max_batch_size = 2000;

  /// Merkle tree depth (2^depth leaf buckets).
  int merkle_depth = 13;

  /// Freshness window for batch timestamps (§4.4.2).
  sim::Time freshness_window = sim::Seconds(30);

  /// Replica progress timeout before initiating a view change.
  sim::Time view_change_timeout = sim::Millis(300);

  /// Client request timeout before retrying against the next replica.
  sim::Time client_timeout = sim::Seconds(2);

  /// Read-only round policy. The paper's protocol terminates after the
  /// second round (Theorem 4.6). Our reproduction found a corner the
  /// theorem's transitivity argument does not cover: the batch serving a
  /// second-round request may *collaterally* commit additional prepare
  /// groups whose dependencies no first-round CD vector reported (see the
  /// finding "Reads beside distributed writes almost never settle in two
  /// rounds" in bench/e2e/README.md). With `strict_ro_rounds` the client
  /// keeps issuing targeted rounds until the dependency check passes or
  /// Client::kMaxStrictRoRounds is reached. Reads under light
  /// cross-group load settle within the cap (read_only_test); beside
  /// about 100 distributed writes/s (bench/e2e `mixed_failover`) they did
  /// not. Without it the client behaves exactly as the paper specifies
  /// and counts the residual cases in
  /// `ClientStats::ro_third_round_would_be_needed`.
  bool strict_ro_rounds = false;

  /// Number of per-batch Merkle snapshots (and key-version history) a
  /// replica retains for historical (second-round) reads. Dependencies
  /// are always recent, so a bounded window suffices; it also bounds
  /// memory in long runs.
  size_t snapshot_history = 512;

  /// Has no effect: every replica recomputes each proposed batch's
  /// Merkle root. Kept only so existing configurations that assign it
  /// still compile.
  bool simulate_shared_merkle = false;

  CostModel cost;

  uint32_t replicas_per_cluster() const { return 3 * f + 1; }
  uint32_t quorum_size() const { return 2 * f + 1; }
  uint32_t certificate_size() const { return f + 1; }
  uint32_t total_replicas() const {
    return num_partitions * replicas_per_cluster();
  }

  /// Node id of replica `index` of partition `p`.
  crypto::NodeId ReplicaNode(PartitionId p, uint32_t index) const {
    return p * replicas_per_cluster() + index;
  }
  PartitionId PartitionOfNode(crypto::NodeId id) const {
    return id / replicas_per_cluster();
  }
  uint32_t ReplicaIndexOf(crypto::NodeId id) const {
    return id % replicas_per_cluster();
  }

  /// Leader of partition `p` in `view` (round-robin rotation).
  crypto::NodeId LeaderOf(PartitionId p, uint64_t view) const {
    return ReplicaNode(p, static_cast<uint32_t>(view % replicas_per_cluster()));
  }

  std::vector<crypto::NodeId> ClusterMembers(PartitionId p) const {
    std::vector<crypto::NodeId> members;
    members.reserve(replicas_per_cluster());
    for (uint32_t i = 0; i < replicas_per_cluster(); ++i) {
      members.push_back(ReplicaNode(p, i));
    }
    return members;
  }

  /// Client ids start above all replica ids.
  crypto::NodeId ClientNode(uint32_t client_index) const {
    return total_replicas() + client_index;
  }
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONFIG_H_
