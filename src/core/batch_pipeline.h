#ifndef TRANSEDGE_CORE_BATCH_PIPELINE_H_
#define TRANSEDGE_CORE_BATCH_PIPELINE_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/node_context.h"
#include "storage/batch.h"
#include "txn/footprint_index.h"
#include "wire/message.h"

namespace transedge::core {

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
/// One gate decides when a leader may propose: one batch in flight. The
/// leader proposes only when no consensus instance is in flight and no
/// view-change re-proposal holds the next slot, so every batch takes the
/// slot after the log tail and is built on the decided state.
///
/// Admission checks every footprint against one conflict index, and a
/// proposal lists each segment in admission order. Sealing a proposal
/// charges NodeContext::BatchComputeCost once over the whole batch.
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
    /// a write of this writer to a key this partition owns.
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
  /// answers the local clients this replica admitted, whatever its view.
  void OnBatchApplied(const storage::Batch& logged);

  /// A new view was adopted: abandon the admissions no decided batch
  /// carries and abort-reply the local clients waiting on them (retryable
  /// — the client re-issues against the new leader). A decided
  /// transaction's client is answered when its batch applies.
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

  /// The proposal gate: leader, no re-proposal pending, and nothing in
  /// flight.
  bool SlotFree() const;

  /// Timer policy: a free slot and work to do — the genesis batch (once),
  /// queued admissions, or a ready prepare group.
  bool ShouldPropose() const;

  /// Drains the queues into a batch, seals it and hands it to `propose`.
  void ProposeBatch();

  /// Builds the next batch from drained segments: takes the slot after
  /// the log tail, commits the ready prefix of the registered prepare
  /// groups (Definition 4.1), and derives the LCE and CD vector
  /// (Algorithm 1).
  storage::Batch BuildBatch(std::vector<Transaction> local,
                            std::vector<Transaction> prepared);

  /// Definition 3.1 admission check for `txn` (full footprint; store and
  /// lock checks skip the keys other partitions own).
  Status AdmitCheck(const Transaction& txn);

  /// Indexes an admitted transaction's footprint.
  void RecordAdmitted(const Transaction& txn);

  NodeContext* ctx_;
  Hooks hooks_;

  std::vector<Transaction> inprog_local_;
  std::vector<Transaction> inprog_prepared_;
  txn::FootprintIndex inprog_index_;  // In-progress + in-flight batches.
  std::unordered_map<TxnId, sim::ActorId> local_waiting_clients_;
  std::unordered_set<TxnId> seen_txns_;  // 2PC dedup.
  /// Ids whose footprints are currently in `inprog_index_` — admitted
  /// here, neither applied nor abandoned. Kept apart from the dedup set
  /// (rejected prepares are seen but never indexed; dedup survives
  /// longer than the footprint) so the post-apply release removes
  /// exactly what this pipeline added.
  std::unordered_set<TxnId> indexed_;
  /// Ids drained out of the queues into a proposed batch that has not
  /// applied yet; their footprints are still indexed. A view change
  /// forgets the undecided ones from `seen_txns_` together with the
  /// queued ids.
  std::vector<TxnId> proposed_inflight_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_BATCH_PIPELINE_H_
