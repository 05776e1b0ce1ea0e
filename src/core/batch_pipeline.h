#ifndef TRANSEDGE_CORE_BATCH_PIPELINE_H_
#define TRANSEDGE_CORE_BATCH_PIPELINE_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/node_context.h"
#include "storage/batch.h"
#include "wire/message.h"

namespace transedge::core {

/// Routes keys to admission shards (SystemConfig::pipeline_shards). Both
/// policies hash the key once with SHA-256 and carve the digest so that
/// shard choice is independent from partition ownership (digest bytes
/// 28–31) and, for kHash, from the Merkle leaf index (bytes 0–3):
///
///   kHash   — bytes 24–27 modulo the shard count (uniform spray).
///   kRange  — bytes 0–3 (the Merkle leaf-index space) split into
///             contiguous equal ranges, so one shard covers a contiguous
///             slice of the authenticated tree.
class ShardKeyRouter {
 public:
  ShardKeyRouter(uint32_t shard_count, ShardRouterKind kind)
      : shard_count_(shard_count == 0 ? 1 : shard_count), kind_(kind) {}

  uint32_t shard_count() const { return shard_count_; }
  uint32_t ShardOf(const Key& key) const;

 private:
  uint32_t shard_count_;
  ShardRouterKind kind_;
};

/// Leader-side admission and batching (Definition 3.1, Figure 2): the
/// in-progress transaction queues, the conflict footprint of everything
/// in flight, batch construction (including the committed segment, LCE,
/// and CD vector of the read-only segment), and the timer/size proposal
/// triggers.
///
/// The pipeline never talks to consensus or 2PC directly: a built batch
/// leaves through the `propose` hook, and distributed transactions that
/// pass admission are handed to `begin_coordination`.
///
/// One gate decides when a leader may propose: while fewer than
/// NodeContext::EffectivePipelineDepth consensus instances are in
/// flight and no view-change re-proposal holds the next slot.
///
/// Admission sharding (SystemConfig::pipeline_shards > 1) is a batch
/// order plus a cost over the one conflict index. Every key routes to
/// exactly one shard, so per-shard indexes holding each footprint's
/// slices would reach exactly this index's verdicts. A proposal lists
/// each segment by home shard (the lowest shard any footprint key routes
/// to; 0 for an empty footprint), admission order within a shard, and
/// pays the superlinear construction term per shard.
class BatchPipeline {
 public:
  struct Stats {
    uint64_t local_committed = 0;
    uint64_t local_aborted = 0;
    uint64_t dist_aborted = 0;
    uint64_t rw_aborted_by_ro_locks = 0;  // Augustus interference (Table 1).
  };

  struct Hooks {
    /// Hands a freshly built batch (and its post-state tree) to consensus.
    std::function<void(storage::Batch, merkle::MerkleTree)> propose;
    /// A distributed transaction passed admission with us as coordinator.
    std::function<void(const Transaction&, sim::ActorId)> begin_coordination;
    /// Consulted before dedup/admission of a commit request: true when a
    /// live (possibly handover-resumed) coordination already owns the
    /// transaction id — the 2PC layer attached the retrying client or
    /// answered it, and the request must not be re-admitted.
    std::function<bool(TxnId, sim::ActorId)> reattach_client;
    /// Augustus-baseline interference: true if a shared read lock blocks
    /// this (partition-restricted) writer.
    std::function<bool(const Transaction&)> ro_locks_block_writer;
  };

  BatchPipeline(NodeContext* ctx, Hooks hooks);

  /// Arms the batch timer and proposes the genesis batch when leader.
  void OnStart();

  /// Client commit request (leader only; the node routes).
  void HandleCommitRequest(sim::ActorId from, const wire::CommitRequest& msg);

  /// 2PC participant path: admission for a transaction another cluster
  /// coordinates. Marks the transaction seen and, on success, enqueues it
  /// for the next batch. AlreadyExists for duplicates.
  Status AdmitPrepared(const Transaction& txn);

  /// 2PC dedup across commit requests and coordinator prepares.
  bool AlreadySeen(TxnId txn_id) const { return seen_txns_.count(txn_id) > 0; }

  /// True while `txn_id`'s footprint is held in the in-progress index
  /// (admitted here and not yet applied or abandoned).
  bool HasIndexed(TxnId txn_id) const { return indexed_.count(txn_id) > 0; }

  /// Proposes when the in-progress batch reached the size trigger.
  void MaybeProposeOnSize();

  /// Post-apply bookkeeping for a decided batch `logged`: releases the
  /// footprints and dedup entries of transactions this pipeline admitted
  /// (on every replica — a demoted leader must not keep stale state) and
  /// answers local clients when leader.
  void OnBatchApplied(const storage::Batch& logged);

  /// A new view was adopted: abandon undecided admissions and abort-reply
  /// the local clients waiting on them (retryable — the client re-issues
  /// against the new leader).
  void OnViewChange();

  size_t in_progress_size() const {
    return inprog_local_.size() + inprog_prepared_.size();
  }
  /// Dedup entries currently held. Applied and view-change-abandoned
  /// admissions drain out (tests assert it); only rejected coordinator
  /// prepares are retained, as the permanent no-vote record for the f+1
  /// fan-out.
  size_t seen_txn_count() const { return seen_txns_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  /// Re-arms itself every batch_interval on every replica (only the
  /// current leader proposes, so a freshly elected leader starts
  /// batching immediately); skipped while crash-stopped.
  void ArmBatchTimer();

  /// The proposal gate: leader, no re-proposal pending, and a free
  /// consensus slot (fewer than EffectivePipelineDepth in flight).
  bool SlotFree() const;

  /// Timer policy: a free slot and work to do — the genesis batch (once),
  /// queued admissions, or a ready prepare group.
  bool ShouldPropose() const;

  /// Drains the queues into a batch, seals it and hands it to `propose`.
  void ProposeBatch();

  /// Stable-sorts `segment` by home shard and adds each shard's count
  /// to `shard_sizes`.
  void OrderByHomeShard(std::vector<Transaction>* segment,
                        std::vector<size_t>* shard_sizes) const;

  /// Builds the next batch from drained segments: assigns the next log
  /// position, attaches the committed segment (the ready prefix of
  /// prepare groups, Definition 4.1), and computes the LCE and CD vector
  /// (Algorithm 1).
  storage::Batch BuildBatch(std::vector<Transaction> local,
                            std::vector<Transaction> prepared);

  /// Definition 3.1 admission check for `txn` (full footprint; store
  /// checks restricted to this partition's keys).
  Status AdmitCheck(const Transaction& txn);

  /// Indexes an admitted transaction's footprint.
  void RecordAdmitted(const Transaction& txn);

  NodeContext* ctx_;
  Hooks hooks_;
  ShardKeyRouter router_;

  std::vector<Transaction> inprog_local_;
  std::vector<Transaction> inprog_prepared_;
  FootprintIndex inprog_index_;  // In-progress + in-flight batches.
  std::unordered_map<TxnId, sim::ActorId> local_waiting_clients_;
  std::unordered_set<TxnId> seen_txns_;  // 2PC dedup.
  /// Ids whose footprints are currently in `inprog_index_` — admitted
  /// here, neither applied nor abandoned. Kept apart from the dedup set
  /// (rejected prepares are seen but never indexed; dedup survives
  /// longer than the footprint) so the post-apply release removes
  /// exactly what this pipeline added.
  std::unordered_set<TxnId> indexed_;
  /// Ids drained out of the queues into a proposed-but-undecided batch;
  /// their footprints are still indexed, so a view change must forget
  /// them from `seen_txns_` together with the queued ids.
  std::vector<TxnId> proposed_inflight_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_BATCH_PIPELINE_H_
