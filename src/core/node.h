#ifndef TRANSEDGE_CORE_NODE_H_
#define TRANSEDGE_CORE_NODE_H_

#include <deque>
#include <functional>
#include <memory>
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
  /// Batches whose apply charge completed, so clients see them; trails
  /// batches_decided while the apply worker's charges run.
  uint64_t batches_applied = 0;
  uint64_t ro_round1_served = 0;
  uint64_t ro_round2_served = 0;
  uint64_t ro_round2_parked = 0;
  uint64_t ro_round2_rejected = 0;
  uint64_t rw_aborted_by_ro_locks = 0;  // Augustus interference (Table 1).
  uint64_t view_changes = 0;
  uint64_t augustus_ro_served = 0;
  /// Parked round-2 requests flushed retryable by history truncation.
  uint64_t ro_round2_aborted = 0;
  // Watch/subscription push tier.
  uint64_t watch_subscribes = 0;
  uint64_t watch_deltas_pushed = 0;
  uint64_t watch_keys_pushed = 0;
  /// Subscribes answered WatchResubscribeRequired: resumes ahead of this
  /// replica's applied head, and heads with no log entry to certify an
  /// answer with. A subscribe before the first applied batch waits for
  /// it instead.
  uint64_t watch_resubscribe_errors = 0;
  /// Protocol messages the consensus engine sent; divided by
  /// batches_decided this is the engines' message-complexity axis
  /// (bench_consensus_compare).
  uint64_t consensus_msgs_sent = 0;
  /// Busy and wait time of the replica's three simulated workers: the
  /// protocol CPU, the apply worker and the read worker.
  sim::CpuTime protocol_cpu;
  sim::CpuTime apply_cpu;
  sim::CpuTime read_cpu;
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
///                       over one conflict index
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
  const storage::SmrLog& log() const override { return backend_->log(); }
  /// The store and tree hold every decided batch (through the log tail).
  const storage::VersionedStore& store() const override {
    return backend_->store();
  }
  const storage::StorageBackend& backend() const { return *backend_; }
  const merkle::MerkleTree& tree() const override { return tree_; }
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

  /// Rebuilds the replica's state from its durable backend: the
  /// checkpointed store and the log, every retained entry replayed
  /// through the install step, the Merkle tree rebuilt from the store and
  /// verified against the log tail's certificate (or the checkpoint root
  /// when the log is empty), and the snapshot window + applied watermark
  /// re-seeded at the tail. Must run before the node processes any
  /// message, on a freshly constructed node with a durable backend.
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
    return worker_->Charge(env_->now(), cost);
  }
  sim::Time busy_until() const override { return worker_->busy_until(); }
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
  txn::PreparedBatches& prepared_batches() override {
    return prepared_batches_;
  }
  const storage::PartitionMap& partition_map() const override {
    return partition_map_;
  }
  BatchId history_horizon() const override { return snapshot_base_; }
  const merkle::MerkleTree::Snapshot& SnapshotAt(
      BatchId batch_id) const override;
  size_t ConsensusInFlight() const override;

  /// The one install step, run by OnDecided for each decided batch and
  /// by RecoverFromStorage for each retained log entry (which skips the
  /// writes its checkpoint holds). When `put_writes`, puts the batch's
  /// writes, resolved against the registered prepare groups, and returns
  /// their keys, sorted and unique. Then pops the groups the batch
  /// commits and registers the one it prepares, footprint included.
  Result<std::vector<Key>> Install(const storage::Batch& batch,
                                   bool put_writes);

  /// Consensus `on_decided` hook. Runs the install step, makes the
  /// certified post-state tree and its snapshot current, appends the log
  /// entry and calls the backend's OnDecided hook, then hands the entry
  /// to 2PC for its decide-time legs. Then books the apply charge (one
  /// pass over the batch at `apply_per_txn`) on the apply worker and
  /// schedules CompleteApply, then AdvanceConsensus and
  /// MaybeProposeOnSize, for the moment it ends; and advances consensus
  /// and the batch pipeline at once.
  void OnDecided(storage::Batch batch, storage::BatchCertificate certificate,
                 merkle::MerkleTree post_tree);

  /// The apply charge for batch `id` completed: advances the applied
  /// watermark, trims the snapshot window, fans the follow-up work out
  /// to the engines and truncates history when due. `written` holds the
  /// keys the batch wrote to this partition, sorted and unique, for the
  /// watch push.
  void CompleteApply(BatchId id, const std::vector<Key>& written);

  /// The worker that runs a message handler this replica serves itself
  /// (the rule is in node.cc).
  sim::CpuMeter& WorkerFor(wire::MessageType type);

  /// Books every charge made during its lifetime on `worker`, then
  /// restores the worker it replaced.
  class WorkerScope {
   public:
    WorkerScope(TransEdgeNode* node, sim::CpuMeter* worker)
        : node_(node), saved_(node->worker_) {
      node->worker_ = worker;
    }
    ~WorkerScope() { node_->worker_ = saved_; }
    WorkerScope(const WorkerScope&) = delete;
    WorkerScope& operator=(const WorkerScope&) = delete;

   private:
    TransEdgeNode* node_;
    sim::CpuMeter* saved_;
  };

  /// Charges the protocol CPU for the backend's WAL and recovery I/O
  /// since the last call (CostModel wal_append, disk_fsync for WAL syncs,
  /// page_read, wal_read). Checkpoint page writes and page-file syncs are
  /// not charged. Zero deltas — the in-memory backend always — charge
  /// nothing.
  void ChargeStorageIo();

  SystemConfig config_;
  crypto::NodeId id_;
  PartitionId partition_;
  sim::Environment* env_;
  std::unique_ptr<crypto::Signer> signer_;
  const crypto::Verifier* verifier_;
  storage::PartitionMap partition_map_;
  std::vector<crypto::NodeId> cluster_members_;

  /// The protocol CPU: consensus, admission, 2PC, forwarding, Augustus
  /// reads and storage I/O.
  sim::CpuMeter cpu_;
  /// The read worker: the read tier's handlers and apply follow-ups,
  /// which read only applied, certified state (node.cc, WorkerFor).
  sim::CpuMeter read_cpu_;
  /// The worker `Charge` books on: `cpu_` outside a WorkerScope.
  sim::CpuMeter* worker_ = &cpu_;
  ByzantineBehavior byzantine_ = ByzantineBehavior::kNone;
  bool halted_ = false;

  // Storage stack, behind the engine seam selected by
  // SystemConfig::storage_kind.
  std::unique_ptr<storage::StorageBackend> backend_;
  /// What the node has already converted from the backend's cumulative
  /// I/O counters into simulated time (see ChargeStorageIo).
  storage::StorageIoStats charged_io_;
  /// The certified post-state of the log tail.
  merkle::MerkleTree tree_;
  /// Per-batch snapshots: snapshots_[i] is the state after batch
  /// (snapshot_base_ + i), through the log tail. The window counts
  /// applied batches: it holds at most SystemConfig::snapshot_history of
  /// them, plus the decided batches still waiting for their apply.
  std::deque<merkle::MerkleTree::Snapshot> snapshots_;
  BatchId snapshot_base_ = 0;

  BatchId last_applied_ = kNoBatch;
  uint64_t batches_applied_ = 0;
  /// The apply worker's CPU: every apply charge lands here, modeling a
  /// storage thread running beside the consensus/protocol CPU. Each
  /// charge starts when the previous one ends, so applies complete in
  /// log order.
  sim::CpuMeter apply_cpu_;

  txn::PreparedBatches prepared_batches_;

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
