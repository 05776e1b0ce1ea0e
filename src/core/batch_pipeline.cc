#include "core/batch_pipeline.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/batch_apply.h"

namespace transedge::core {

BatchPipeline::BatchPipeline(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

// ---------------------------------------------------------------------------
// Proposal triggers
// ---------------------------------------------------------------------------

void BatchPipeline::OnStart() {
  ArmBatchTimer();
  // The genesis batch certifies the preloaded state right away so that
  // read-only transactions have a certificate to verify against.
  if (ctx_->byzantine() != ByzantineBehavior::kCrash && ShouldPropose()) {
    ProposeBatch();
  }
}

void BatchPipeline::ArmBatchTimer() {
  ctx_->Schedule(ctx_->config().batch_interval, [this] {
    if (ctx_->byzantine() != ByzantineBehavior::kCrash && ShouldPropose()) {
      ProposeBatch();
    }
    ArmBatchTimer();
  });
}

bool BatchPipeline::SlotFree() const {
  return ctx_->IsLeader() && !ctx_->ReproposalPending() &&
         ctx_->ConsensusInFlight() == 0;
}

bool BatchPipeline::ShouldPropose() const {
  if (!SlotFree()) return false;
  // Genesis batch, certifies preload state.
  if (ctx_->log().empty()) return true;
  if (in_progress_size() > 0) return true;
  // A ready group at the head of the commit queue justifies a batch.
  const auto& groups = ctx_->prepared_batches().groups();
  return !groups.empty() && groups.front().Ready();
}

void BatchPipeline::MaybeProposeOnSize() {
  if (SlotFree() && in_progress_size() >= ctx_->config().max_batch_size) {
    ProposeBatch();
  }
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

Status BatchPipeline::AdmitCheck(const Transaction& txn) {
  // Rule 1 of Definition 3.1 applies to the keys this partition owns.
  TE_RETURN_IF_ERROR(ctx_->CheckReadVersions(txn));
  // Rules 2 and 3 use the full footprint: a conflict on a remote key is a
  // conflict the remote partition would reject anyway; catching it here
  // aborts earlier and keeps prepare groups conflict-free.
  if (inprog_index_.ConflictsWith(txn)) {
    return Status::Conflict("conflicts with in-progress batch");
  }
  if (ctx_->prepared_batches().footprint().ConflictsWith(txn)) {
    return Status::Conflict("conflicts with a prepared transaction");
  }
  // Augustus baseline: shared read locks block writers (Table 1's
  // interference). TransEdge's own read-only path never takes locks.
  if (!txn.write_set.empty() && hooks_.ro_locks_block_writer(txn)) {
    ++stats_.rw_aborted_by_ro_locks;
    return Status::Conflict("write key is read-locked (Augustus baseline)");
  }
  return Status::OK();
}

void BatchPipeline::RecordAdmitted(const Transaction& txn) {
  inprog_index_.Add(txn);
  indexed_.insert(txn.id);
}

void BatchPipeline::HandleCommitRequest(sim::ActorId from,
                                        const wire::CommitRequest& msg) {
  sim::ActorId client = msg.reply_to != 0 ? msg.reply_to : from;
  const Transaction& txn = msg.txn;
  // A retry of a transaction a (possibly handover-resumed) coordination
  // entry already owns: hand the client back to 2PC instead of dedup-
  // swallowing or — worse — re-admitting it against its own pending
  // footprint.
  if (hooks_.reattach_client && hooks_.reattach_client(txn.id, client)) return;
  if (seen_txns_.count(txn.id) > 0) return;  // Duplicate / retry.

  sim::Time done = ctx_->Charge(ctx_->config().cost.admit_per_txn);
  Status admit = AdmitCheck(txn);

  if (txn.IsLocal()) {
    if (!admit.ok()) {
      ++stats_.local_aborted;
      ctx_->ReplyCommit(client, txn.id, false, admit.message(), done);
      return;
    }
    seen_txns_.insert(txn.id);
    inprog_local_.push_back(txn);
    RecordAdmitted(txn);
    local_waiting_clients_[txn.id] = client;
  } else {
    if (txn.coordinator != ctx_->partition()) {
      ctx_->ReplyCommit(client, txn.id, false, "wrong coordinator cluster",
                        done);
      return;
    }
    if (!admit.ok()) {
      ++stats_.dist_aborted;
      ctx_->ReplyCommit(client, txn.id, false, admit.message(), done);
      return;
    }
    seen_txns_.insert(txn.id);
    inprog_prepared_.push_back(txn);
    RecordAdmitted(txn);
    hooks_.begin_coordination(txn, client);
  }

  MaybeProposeOnSize();
}

Status BatchPipeline::AdmitPrepared(const Transaction& txn) {
  if (seen_txns_.count(txn.id) > 0) {
    return Status::AlreadyExists("duplicate coordinator prepare");
  }
  // Marked seen even when the check below rejects: the no-vote we sent
  // is final for this transaction, and the id must keep absorbing the
  // f+1 fan-out duplicates (and byzantine replays of the proof-carrying
  // prepare) — a replayed prepare admitted after the coordinator already
  // decided abort would sit undecided in its prepare group forever.
  // Rejected ids are never in `indexed_`, so the footprint release
  // stays exact.
  seen_txns_.insert(txn.id);
  ctx_->Charge(ctx_->config().cost.admit_per_txn);
  TE_RETURN_IF_ERROR(AdmitCheck(txn));
  inprog_prepared_.push_back(txn);
  RecordAdmitted(txn);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Batch building
// ---------------------------------------------------------------------------

void BatchPipeline::ProposeBatch() {
  // Drain the queues; the footprints stay indexed until the decided
  // batch applies.
  for (const Transaction& t : inprog_local_) proposed_inflight_.push_back(t.id);
  for (const Transaction& t : inprog_prepared_) {
    proposed_inflight_.push_back(t.id);
  }
  storage::Batch batch = BuildBatch(std::exchange(inprog_local_, {}),
                                    std::exchange(inprog_prepared_, {}));
  ctx_->Charge(ctx_->BatchComputeCost(batch.TotalTransactions(),
                                      ctx_->config().cost.admit_per_txn / 4) +
               ctx_->config().cost.signature_op);

  // Compute the post-state Merkle root on a structural-sharing clone of
  // the tree at the log tail.
  merkle::MerkleTree post_tree = ctx_->tree().Clone();
  Status sealed =
      ApplyBatchWritesToTree(&post_tree, ctx_->partition_map(),
                             ctx_->partition(), batch, ctx_->prepared_batches());
  assert(sealed.ok());  // Every record names a registered group.
  (void)sealed;
  batch.ro.merkle_root = post_tree.RootDigest();

  hooks_.propose(std::move(batch), std::move(post_tree));
}

storage::Batch BatchPipeline::BuildBatch(std::vector<Transaction> local,
                                         std::vector<Transaction> prepared) {
  const storage::SmrLog& log = ctx_->log();
  storage::Batch batch;
  batch.partition = ctx_->partition();
  batch.id = log.LastBatchId() + 1;
  batch.local = std::move(local);
  batch.prepared = std::move(prepared);

  // Committed segment: the ready prefix of the commit queue, in prepare
  // order (Definition 4.1).
  for (const txn::PrepareGroup& group : ctx_->prepared_batches().groups()) {
    if (!group.Ready()) break;
    for (const txn::PendingTxn& pending : group.txns) {
      storage::CommitRecord rec;
      rec.txn_id = pending.txn.id;
      rec.committed = pending.state == txn::PendingTxn::State::kCommitted;
      rec.prepared_in_batch = group.prepared_in_batch;
      rec.participant_info = pending.participant_info;
      rec.coordinator = pending.txn.coordinator;
      batch.committed.push_back(std::move(rec));
    }
  }

  // Algorithm 1, chained from the log tail.
  batch.ro = DeriveLceAndCdVector(log.empty() ? nullptr : &log.back().batch.ro,
                                  batch.committed, ctx_->partition(), batch.id,
                                  ctx_->config().num_partitions);
  batch.ro.timestamp_us = ctx_->now();
  return batch;
}

// ---------------------------------------------------------------------------
// Post-apply / view-change bookkeeping
// ---------------------------------------------------------------------------

void BatchPipeline::OnBatchApplied(const storage::Batch& logged) {
  // Footprint release and dedup drain run on every replica, not just the
  // current leader: a demoted leader would otherwise keep stale
  // footprints for its in-flight batches, and seen_txns_ would grow
  // unboundedly with every transaction a replica ever admitted. The
  // release is keyed on `indexed_`, the exact record of what this
  // pipeline added (removing a foreign transaction could decrement
  // counts another in-flight admission still owns). Dedup lifetimes
  // differ by kind: a local id drains when its batch applies (the commit
  // reply goes out here), but a distributed id must keep absorbing
  // client retries and prepare-fan-out duplicates until its 2PC decision
  // is applied — i.e. until its commit record lands — or a retry during
  // the pending window would be re-admitted and abort against the
  // transaction's own pending footprint.
  for (const Transaction& t : logged.local) {
    if (indexed_.erase(t.id) > 0) inprog_index_.Remove(t);
    seen_txns_.erase(t.id);
  }
  for (const Transaction& t : logged.prepared) {
    if (indexed_.erase(t.id) > 0) inprog_index_.Remove(t);
  }
  for (const storage::CommitRecord& rec : logged.committed) {
    seen_txns_.erase(rec.txn_id);
  }
  // Release only the applied batch's ids from the proposed-in-flight set:
  // later batches may be proposed before this one's apply charge ends,
  // and their ids must survive a view change (OnViewChange un-dedups
  // them).
  if (!proposed_inflight_.empty()) {
    std::unordered_set<TxnId> applied_ids;
    for (const Transaction& t : logged.local) applied_ids.insert(t.id);
    for (const Transaction& t : logged.prepared) applied_ids.insert(t.id);
    proposed_inflight_.erase(
        std::remove_if(proposed_inflight_.begin(), proposed_inflight_.end(),
                       [&](TxnId id) { return applied_ids.count(id) > 0; }),
        proposed_inflight_.end());
  }

  // Local transactions are now committed — answer clients.
  sim::Time at = ctx_->busy_until();
  for (const Transaction& t : logged.local) {
    auto it = local_waiting_clients_.find(t.id);
    if (it != local_waiting_clients_.end()) {
      ++stats_.local_committed;
      ctx_->ReplyCommit(it->second, t.id, true, "", at);
      local_waiting_clients_.erase(it);
    }
  }
}

void BatchPipeline::OnViewChange() {
  // The view change abandons the admissions no decided batch carries:
  // the queued ones and those proposed but not decided. A decided one
  // stays with this replica whatever its view: its local client is
  // answered and its id leaves dedup when its batch applies.
  std::unordered_set<TxnId> decided;
  ctx_->ForEachUnappliedBatch([&](const storage::LogEntry& entry) {
    for (const Transaction& t : entry.batch.local) decided.insert(t.id);
    for (const Transaction& t : entry.batch.prepared) decided.insert(t.id);
  });
  std::vector<TxnId> abandoned;
  for (const Transaction& t : inprog_local_) abandoned.push_back(t.id);
  for (const Transaction& t : inprog_prepared_) abandoned.push_back(t.id);
  for (TxnId id : proposed_inflight_) {
    if (decided.count(id) == 0) abandoned.push_back(id);
  }
  // Answer in TxnId order: the abort replies are externally visible
  // messages, and their order must not depend on admission history.
  std::sort(abandoned.begin(), abandoned.end());
  sim::Time at = ctx_->busy_until();
  for (TxnId id : abandoned) {
    // Forget the id so a retry that lands back here after a re-election
    // is not swallowed by dedup. (Rejected prepares are NOT forgotten:
    // their no-vote is final.)
    seen_txns_.erase(id);
    // A waiting local client gets a retryable abort: it re-issues
    // against the new leader with the same transaction id instead of
    // hanging.
    auto waiting = local_waiting_clients_.find(id);
    if (waiting == local_waiting_clients_.end()) continue;
    ctx_->ReplyCommit(waiting->second, id, false, "view change", at,
                      /*retryable=*/true);
    local_waiting_clients_.erase(waiting);
  }
  proposed_inflight_.clear();
  inprog_local_.clear();
  inprog_prepared_.clear();
  indexed_.clear();
  inprog_index_ = txn::FootprintIndex();
}

}  // namespace transedge::core
