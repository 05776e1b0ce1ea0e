#ifndef TRANSEDGE_CORE_NODE_H_
#define TRANSEDGE_CORE_NODE_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/node_context.h"
#include "crypto/signer.h"
#include "merkle/merkle_tree.h"
#include "sim/environment.h"
#include "storage/partition_map.h"
#include "storage/smr_log.h"
#include "storage/storage_backend.h"
#include "storage/versioned_store.h"
#include "txn/prepared_batches.h"
#include "wire/message.h"

namespace transedge::core {

class AugustusBaseline;
class BatchPipeline;
class Consensus;
class ReadOnlyService;
class TwoPcCoordinator;
class WatchService;

/// Counters exposed for tests and the bench harness. Aggregated from the
/// per-engine counters on access.
struct NodeStats {
  uint64_t local_committed = 0;
  uint64_t local_aborted = 0;
  uint64_t dist_committed = 0;
  uint64_t dist_aborted = 0;
  uint64_t batches_decided = 0;
  /// Batches whose writes reached the store/tree; trails batches_decided
  /// while the asynchronous apply queue drains.
  uint64_t batches_applied = 0;
  uint64_t ro_round1_served = 0;
  uint64_t ro_round2_served = 0;
  uint64_t ro_round2_parked = 0;
  uint64_t ro_round2_rejected = 0;
  uint64_t rw_aborted_by_ro_locks = 0;  // Augustus interference (Table 1).
  uint64_t view_changes = 0;
  uint64_t augustus_ro_served = 0;
  /// Parked round-2 requests flushed retryable (view change/truncation).
  uint64_t ro_round2_aborted = 0;
  // Watch/subscription push tier.
  uint64_t watch_subscribes = 0;
  uint64_t watch_deltas_pushed = 0;
  uint64_t watch_keys_pushed = 0;
  uint64_t watch_resubscribe_errors = 0;
  /// Protocol messages the consensus engine sent; divided by
  /// batches_decided this is the engines' message-complexity axis
  /// (bench_consensus_compare).
  uint64_t consensus_msgs_sent = 0;
};

/// One TransEdge replica (one edge node).
///
/// The replica is a thin message router over six focused subsystem
/// engines plus the storage stack it owns (versioned store + Merkle tree
/// + snapshot window + SMR log):
///
///   - Consensus:        intra-cluster consensus on batches (§3.2),
///                       selected by SystemConfig::consensus_kind
///                       (PbftConsensus or LinearVoteConsensus)
///   - BatchPipeline:    leader admission and batch building (Figure 2)
///                       over one conflict index; pipeline_shards only
///                       orders a batch by home shard and splits its
///                       construction cost
///   - TwoPcCoordinator: cross-cluster 2PC (§3.3)
///   - ReadOnlyService:  authenticated read-only serving (§4.2–4.4)
///   - AugustusBaseline: locking read-only baseline (Figures 5–7)
///   - WatchService:     certified key-range delta push (read tier
///                       inverted from pull to poll-free subscriptions)
///
/// Engines reach the node only through the NodeContext interface
/// (clock/send/sign/storage) and through hooks wired here; they never
/// include each other.
class TransEdgeNode : public sim::Actor, private NodeContext {
 public:
  /// `disk` is this replica's simulated disk; required (and borrowed,
  /// must outlive the node) under StorageKind::kPaged, ignored otherwise.
  TransEdgeNode(const SystemConfig& config, crypto::NodeId id,
                sim::Environment* env, std::unique_ptr<crypto::Signer> signer,
                const crypto::Verifier* verifier,
                storage::paged::SimDisk* disk = nullptr);
  ~TransEdgeNode() override;

  /// Installs the pre-replicated initial state (identical across the
  /// cluster). Must be called before the simulation starts.
  void Preload(const storage::VersionedStore& store,
               const merkle::MerkleTree& tree);

  void OnStart() override;
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override;

  // Introspection for tests and benches.
  crypto::NodeId id() const override { return id_; }
  PartitionId partition() const override { return partition_; }
  BatchId last_applied() const override { return last_applied_; }
  uint64_t view() const;
  bool IsLeader() const override;
  bool ReproposalPending() const override;
  const storage::SmrLog& log() const { return backend_->log(); }
  const storage::VersionedStore& store() const { return backend_->store(); }
  const storage::StorageBackend& backend() const { return *backend_; }
  const merkle::MerkleTree& tree() const { return tree_; }
  const NodeStats& stats() const;
  size_t in_progress_size() const;
  /// Key-range watches currently registered on this replica.
  size_t active_watches() const;
  /// 2PC-dedup entries the admission pipeline currently holds (drains as
  /// batches apply; bounded by in-flight work).
  size_t seen_txn_count() const;

  void SetByzantineBehavior(ByzantineBehavior behavior) {
    byzantine_ = behavior;
  }
  ByzantineBehavior byzantine_behavior() const { return byzantine_; }

  /// Permanently silences this replica (crash or replacement-by-restart):
  /// messages are dropped and every engine timer becomes a no-op, so a
  /// parked node can coexist with a successor registered under its id.
  void Halt() { halted_ = true; }
  bool halted() const { return halted_; }

  /// Rebuilds the replica's state from its durable backend: backend
  /// recovery (checkpoint + WAL replay), Merkle tree reconstruction from
  /// the recovered store, root verification against the log tail's
  /// certificate (or the checkpoint root when the log is empty), and
  /// re-seeding of the snapshot window + applied watermark. Must run
  /// before the node processes any message. Only meaningful for durable
  /// backends on a freshly constructed node.
  Status RecoverFromStorage(const storage::RecoverOptions& opts);

 private:
  // --- NodeContext implementation (the engines' window on the node) -------
  const SystemConfig& config() const override { return config_; }
  const std::vector<crypto::NodeId>& cluster_members() const override {
    return cluster_members_;
  }
  ByzantineBehavior byzantine() const override { return byzantine_; }
  sim::Time now() const override { return env_->now(); }
  sim::Time Charge(sim::Time cost) override {
    return cpu_.Charge(env_->now(), cost);
  }
  sim::Time busy_until() const override { return cpu_.busy_until(); }
  void Schedule(sim::Time delay, std::function<void()> fn) override {
    // Every engine timer routes through here; the halt gate turns them
    // all into no-ops so a parked replica never acts again even though
    // its already-scheduled closures still fire.
    env_->Schedule(delay, [this, fn = std::move(fn)] {
      if (!halted_) fn();
    });
  }
  void Send(crypto::NodeId to, const sim::MessagePtr& msg,
            sim::Time at) override;
  void BroadcastToCluster(const sim::MessagePtr& msg, sim::Time at) override;
  void SendToCluster(PartitionId p, const sim::MessagePtr& msg,
                     sim::Time at) override;
  crypto::Signature Sign(const Bytes& payload) override {
    return signer_->Sign(payload);
  }
  const crypto::Verifier& verifier() const override { return *verifier_; }
  storage::VersionedStore& mutable_store() override {
    return backend_->store();
  }
  storage::SmrLog& mutable_log() override { return backend_->log(); }
  txn::PreparedBatches& prepared_batches() override {
    return prepared_batches_;
  }
  const storage::PartitionMap& partition_map() const override {
    return partition_map_;
  }
  FootprintIndex& pending_footprint() override { return pending_index_; }
  BatchId snapshot_base() const override { return snapshot_base_; }
  const merkle::MerkleTree::Snapshot& SnapshotAt(
      BatchId batch_id) const override;
  const merkle::MerkleTree& decided_tree() override { return decided_tree_; }
  size_t ConsensusInFlight() const override;
  uint32_t EffectivePipelineDepth() const override;
  ProposalChain proposal_chain() override;
  BatchId LatestDecidedVersion(const Key& key) const override;

  /// A decided batch waiting for its storage apply: the post-state tree
  /// consensus certified and the distributed transactions its committed
  /// segment commits, in prepare-group order (resolved once at decide
  /// time, from groups popped before any later decide can touch the
  /// queue). The batch itself lives in the log.
  struct PendingApply {
    BatchId id = kNoBatch;
    merkle::MerkleTree post_tree;
    std::vector<Transaction> committed;
  };

  /// Consensus `on_decided` hook. Runs the decide-time metadata
  /// transitions (prepare-group pops, pending-footprint updates, group
  /// registration, log append, decided tree/version advance), enqueues
  /// the storage apply, drains it — inline on the replica CPU when
  /// `async_apply` is off (the pre-queue behavior), else on the apply
  /// worker — and finally advances consensus and the batch pipeline.
  void OnDecided(storage::Batch batch, storage::BatchCertificate certificate,
                 merkle::MerkleTree post_tree);

  /// Simulated cost of the storage apply for `entry`: serial batch cost
  /// for one apply shard, slowest-shard + recombine for several.
  sim::Time ApplyCostFor(const PendingApply& entry) const;

  /// Installs a decided batch into the storage stack (store writes, tree
  /// + snapshot window, applied watermark) and fans the follow-up work
  /// out to the engines.
  void InstallApply(PendingApply entry);

  /// Async mode: books the head-of-queue apply on the apply worker's CPU
  /// and schedules its completion; re-arms itself until the queue drains.
  void ScheduleApplyDrain();

  /// Converts the backend's StorageIoStats growth since the last call
  /// into simulated time (CostModel wal_append/wal_read/disk_fsync/
  /// page_write/page_read). `on_protocol_cpu` charges the replica CPU (WAL on the
  /// decision critical path, recovery); otherwise the I/O meter (the
  /// checkpoint flusher running beside the protocol). Zero deltas —
  /// the in-memory backend always — charge nothing.
  void ChargeStorageIo(bool on_protocol_cpu);

  SystemConfig config_;
  crypto::NodeId id_;
  PartitionId partition_;
  sim::Environment* env_;
  std::unique_ptr<crypto::Signer> signer_;
  const crypto::Verifier* verifier_;
  storage::PartitionMap partition_map_;
  std::vector<crypto::NodeId> cluster_members_;

  sim::CpuMeter cpu_;
  ByzantineBehavior byzantine_ = ByzantineBehavior::kNone;
  bool halted_ = false;

  // Storage stack, behind the engine seam selected by
  // SystemConfig::storage_kind.
  std::unique_ptr<storage::StorageBackend> backend_;
  /// What the node has already converted from the backend's cumulative
  /// I/O counters into simulated time (see ChargeStorageIo).
  storage::StorageIoStats charged_io_;
  /// The storage device's own meter: checkpoint flushes charge here, in
  /// parallel with the protocol CPU (mirrors apply_cpu_).
  sim::CpuMeter io_cpu_;
  merkle::MerkleTree tree_;
  /// Sliding window of per-batch snapshots: snapshots_[i] is the state
  /// after batch (snapshot_base_ + i). Bounded by
  /// SystemConfig::snapshot_history.
  std::deque<merkle::MerkleTree::Snapshot> snapshots_;
  BatchId snapshot_base_ = 0;

  // Decided-vs-applied decoupling. `tree_` above is the *applied* tree
  // (read-only serving); `decided_tree_` tracks the newest certified
  // post-state (validation, proposal sealing, catch-up).
  merkle::MerkleTree decided_tree_;
  /// key -> id of the newest decided-but-unapplied batch writing it;
  /// entries drain as the apply queue does (always empty under
  /// synchronous apply).
  std::unordered_map<Key, BatchId> decided_versions_;
  BatchId last_applied_ = kNoBatch;
  uint64_t batches_applied_ = 0;
  std::deque<PendingApply> apply_queue_;
  bool apply_inflight_ = false;
  /// The apply worker's CPU: asynchronous apply charges here, modeling a
  /// storage thread running beside the consensus/protocol CPU.
  sim::CpuMeter apply_cpu_;

  txn::PreparedBatches prepared_batches_;
  FootprintIndex pending_index_;  // Prepared-but-undecided distributed txns.

  // Subsystem engines (wired in the constructor).
  std::unique_ptr<Consensus> consensus_;
  std::unique_ptr<BatchPipeline> pipeline_;
  std::unique_ptr<TwoPcCoordinator> two_pc_;
  std::unique_ptr<ReadOnlyService> read_only_;
  std::unique_ptr<AugustusBaseline> augustus_;
  std::unique_ptr<WatchService> watch_;

  mutable NodeStats aggregated_stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_NODE_H_
