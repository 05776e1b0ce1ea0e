#ifndef TRANSEDGE_CORE_CONFIG_H_
#define TRANSEDGE_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "crypto/key_store.h"
#include "sim/time.h"
#include "storage/storage_kind.h"
#include "txn/types.h"

namespace transedge::core {

/// Simulated CPU costs of the operations a replica performs. The values
/// are calibrated so that the *shapes* of the paper's curves (batching
/// sweet spots, consensus overheads, proof-serving costs) emerge from the
/// same mechanics; see EXPERIMENTS.md for the calibration notes.
struct CostModel {
  /// Leader-side admission: conflict detection for one transaction
  /// (Definition 3.1) against the store and indexes.
  sim::Time admit_per_txn = sim::Micros(12);

  /// Replica-side re-validation of one transaction in a proposed batch.
  sim::Time validate_per_txn = sim::Micros(10);

  /// Applying one transaction's writes (store + Merkle tree).
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

  /// Recombining one apply shard's Merkle subtree root into the batch
  /// root (only charged when SystemConfig::apply_shards > 1): the merge
  /// of independently applied leaf-index subranges is a per-shard hash
  /// up the shared spine.
  sim::Time apply_shard_recombine = sim::Micros(15);

  // Durable-storage costs (charged only under StorageKind::kPaged, from
  // the backend's StorageIoStats deltas; the in-memory backend reports
  // zero I/O and therefore charges nothing).

  /// Building + buffering one WAL record (decision critical path).
  sim::Time wal_append = sim::Micros(4);

  /// Decoding + re-applying one WAL record during crash recovery.
  sim::Time wal_read = sim::Micros(4);

  /// One fsync barrier (WAL group commit or page-file checkpoint sync).
  sim::Time disk_fsync = sim::Micros(120);

  /// Writing one page (checkpoint flush; charged on the I/O meter).
  sim::Time page_write = sim::Micros(30);

  /// Reading one page (recovery; charged on the I/O meter).
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

/// How the leader's batch pipeline routes keys to admission shards (only
/// meaningful when SystemConfig::pipeline_shards > 1).
enum class ShardRouterKind : uint8_t {
  /// Uniform hashing of the key (independent from partition choice and
  /// from the Merkle leaf index).
  kHash,
  /// Contiguous ranges of the Merkle leaf-index space, so a shard covers
  /// a contiguous slice of the authenticated tree.
  kRange,
};

/// Static system topology and protocol parameters. Shared by every node,
/// client, and bench harness; node ids are a pure function of
/// (partition, replica index).
struct SystemConfig {
  /// Number of partitions == number of clusters (paper default: 5).
  uint32_t num_partitions = 5;

  /// Number of admission shards the leader's batch construction is
  /// modelled over (keys routed by `pipeline_shard_router`). Admission
  /// always checks one conflict index, so sharding never changes a
  /// verdict; with >1 shards a proposal lists its segments by home shard
  /// and pays the superlinear construction cost per shard, and replicas
  /// re-validate at the matching per-shard cost. 1 (default) charges the
  /// whole batch as one term.
  uint32_t pipeline_shards = 1;

  /// Key -> shard routing policy of the admission shards.
  ShardRouterKind pipeline_shard_router = ShardRouterKind::kHash;

  /// Intra-cluster consensus engine (see ConsensusKind). The default
  /// keeps the PBFT-style engine byte-for-byte identical to the
  /// pre-interface behavior.
  ConsensusKind consensus_kind = ConsensusKind::kPbft;

  /// Maximum consensus instances in flight at once (chained pipelining):
  /// with depth k the leader may propose batch n+k-1 while batch n's
  /// commit QC is still collecting. 1 (default) keeps the strictly
  /// sequential decide-then-propose behavior byte-for-byte identical to
  /// the pre-pipelining code. Engines cap this at their own
  /// Consensus::MaxPipelineDepth (the PBFT engine pins 1).
  uint32_t pipeline_depth = 1;

  /// Decouple *applying* a decided batch (store writes, Merkle snapshot
  /// publication, client fan-out) from *deciding* it: decided batches
  /// land in an ordered apply queue drained by a separate sim-scheduled
  /// apply worker, so consensus advances on the decided watermark while
  /// the storage stack catches up. false (default) applies synchronously
  /// inside the decision, byte-for-byte identical to the pre-queue code.
  bool async_apply = false;

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

  /// Number of leaf-index subranges the apply work is carved into
  /// (ShardRouterKind::kRange carving). Each shard applies its subtree
  /// independently; the simulated cost charges the *slowest* shard plus
  /// a per-shard recombine term instead of the serial sum. 1 (default)
  /// charges the exact pre-sharding serial cost.
  uint32_t apply_shards = 1;

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
