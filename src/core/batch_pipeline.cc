#include "core/batch_pipeline.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/batch_apply.h"
#include "crypto/sha256.h"
#include "txn/cd_vector.h"

namespace transedge::core {

namespace {

/// Prepare-group ids already committed by an in-flight (decided-pending or
/// proposed-undecided) predecessor batch. Groups in this set are spoken
/// for: a new proposal must not commit them again, and their readiness
/// must not trigger a new (otherwise empty) batch.
std::set<BatchId> WindowCommittedGroups(const ProposalChain& chain) {
  std::set<BatchId> committed;
  for (const storage::Batch* p : chain.pending) {
    for (const storage::CommitRecord& rec : p->committed) {
      committed.insert(rec.prepared_in_batch);
    }
  }
  return committed;
}

/// True when some ready prepare group is not yet committed by an in-flight
/// batch — i.e. a new proposal would carry at least one commit record.
bool HasUncommittedReadyGroup(NodeContext* ctx, const ProposalChain& chain) {
  std::set<BatchId> window_committed = WindowCommittedGroups(chain);
  for (const txn::PrepareGroup* group :
       ctx->prepared_batches().ReadyPrefix()) {
    if (window_committed.count(group->prepared_in_batch) == 0) return true;
  }
  return false;
}

}  // namespace

uint32_t ShardKeyRouter::ShardOf(const Key& key) const {
  if (shard_count_ == 1) return 0;
  crypto::Digest d = crypto::Sha256::Hash(key);
  if (kind_ == ShardRouterKind::kRange) {
    // Merkle leaf-index space (digest bytes 0-3), contiguous ranges.
    uint64_t h = (static_cast<uint64_t>(d.bytes[0]) << 24) |
                 (static_cast<uint64_t>(d.bytes[1]) << 16) |
                 (static_cast<uint64_t>(d.bytes[2]) << 8) |
                 static_cast<uint64_t>(d.bytes[3]);
    return static_cast<uint32_t>((h * shard_count_) >> 32);
  }
  // kHash: bytes 24-27, between the Merkle prefix and the partition
  // suffix, so all three placements are independent.
  uint32_t h = (static_cast<uint32_t>(d.bytes[24]) << 24) |
               (static_cast<uint32_t>(d.bytes[25]) << 16) |
               (static_cast<uint32_t>(d.bytes[26]) << 8) |
               static_cast<uint32_t>(d.bytes[27]);
  return h % shard_count_;
}

BatchPipeline::BatchPipeline(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx),
      hooks_(std::move(hooks)),
      router_(ctx->config().pipeline_shards,
              ctx->config().pipeline_shard_router) {}

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
         ctx_->ConsensusInFlight() < ctx_->EffectivePipelineDepth();
}

bool BatchPipeline::ShouldPropose() const {
  if (!SlotFree()) return false;
  if (ctx_->mutable_log().empty()) {
    // Genesis batch, certifies preload state — once; with pipelined
    // proposals the genesis instance may already be in flight.
    return ctx_->ConsensusInFlight() == 0;
  }
  if (in_progress_size() > 0) return true;
  // A ready prepare group justifies a batch only if no in-flight
  // predecessor already committed it (else the batch would be empty).
  return HasUncommittedReadyGroup(ctx_, ctx_->proposal_chain());
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
  Transaction restricted = ctx_->RestrictToPartition(txn);
  TE_RETURN_IF_ERROR(ctx_->CheckReadVersions(restricted));
  // Rules 2 and 3 use the full footprint: a conflict on a remote key is a
  // conflict the remote partition would reject anyway; catching it here
  // aborts earlier and keeps prepare groups conflict-free.
  if (inprog_index_.ConflictsWith(txn)) {
    return Status::Conflict("conflicts with in-progress batch");
  }
  if (ctx_->pending_footprint().ConflictsWith(txn)) {
    return Status::Conflict("conflicts with a prepared transaction");
  }
  // Augustus baseline: shared read locks block writers (Table 1's
  // interference). TransEdge's own read-only path never takes locks.
  if (!txn.write_set.empty() && hooks_.ro_locks_block_writer(restricted)) {
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
  std::vector<Transaction> local = std::exchange(inprog_local_, {});
  std::vector<Transaction> prepared = std::exchange(inprog_prepared_, {});
  const uint32_t shards = router_.shard_count();
  std::vector<size_t> shard_sizes(shards, 0);
  if (shards > 1) {
    OrderByHomeShard(&local, &shard_sizes);
    OrderByHomeShard(&prepared, &shard_sizes);
  }
  storage::Batch batch = BuildBatch(std::move(local), std::move(prepared));
  // One shard pays the superlinear term on the whole batch. Several pay
  // it per home shard, plus once for the committed segment, which is
  // assembled from the prepare groups rather than admitted by a shard.
  if (shards > 1) {
    shard_sizes.push_back(batch.committed.size());
  } else {
    shard_sizes = {batch.TotalTransactions()};
  }
  ctx_->Charge(ctx_->BatchComputeCost(shard_sizes,
                                      ctx_->config().cost.admit_per_txn / 4) +
               ctx_->config().cost.signature_op);

  // Compute the post-state Merkle root on a structural-sharing clone of
  // the chain head: the newest in-flight post-state when pipelining, the
  // decided tree otherwise (identical to the applied tree under
  // synchronous apply).
  ProposalChain chain = ctx_->proposal_chain();
  merkle::MerkleTree post_tree = chain.head_tree->Clone();
  ApplyBatchWritesToTree(&post_tree, ctx_->partition_map(), ctx_->partition(),
                         batch, ctx_->prepared_batches());
  batch.ro.merkle_root = post_tree.RootDigest();

  hooks_.propose(std::move(batch), std::move(post_tree));
}

void BatchPipeline::OrderByHomeShard(std::vector<Transaction>* segment,
                                     std::vector<size_t>* shard_sizes) const {
  std::vector<std::pair<uint32_t, Transaction>> homed;
  homed.reserve(segment->size());
  for (Transaction& t : *segment) {
    uint32_t home = router_.shard_count();
    for (const ReadOp& r : t.read_set) {
      home = std::min(home, router_.ShardOf(r.key));
    }
    for (const WriteOp& w : t.write_set) {
      home = std::min(home, router_.ShardOf(w.key));
    }
    if (home == router_.shard_count()) home = 0;  // Empty footprint.
    homed.emplace_back(home, std::move(t));
  }
  std::stable_sort(
      homed.begin(), homed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  segment->clear();
  for (auto& [home, t] : homed) {
    ++(*shard_sizes)[home];
    segment->push_back(std::move(t));
  }
}

storage::Batch BatchPipeline::BuildBatch(std::vector<Transaction> local,
                                         std::vector<Transaction> prepared) {
  const storage::SmrLog& log = ctx_->mutable_log();
  ProposalChain chain = ctx_->proposal_chain();
  storage::Batch batch;
  batch.partition = ctx_->partition();
  batch.id = chain.next_id;
  batch.local = std::move(local);
  batch.prepared = std::move(prepared);

  // Committed segment: the ready prefix of prepare groups, in prepare
  // order (Definition 4.1). With predecessors in flight the LCE/CD chain
  // continues from the newest pending batch, and groups it already
  // committed are excluded.
  BatchId lce;
  txn::CdVector cd;
  if (!chain.pending.empty()) {
    lce = chain.pending.back()->ro.lce;
    cd = chain.pending.back()->ro.cd_vector;
  } else {
    lce = log.empty() ? kNoBatch : log.back().batch.ro.lce;
    cd = log.empty() ? txn::CdVector(ctx_->config().num_partitions)
                     : log.back().batch.ro.cd_vector;
  }
  if (cd.empty()) cd = txn::CdVector(ctx_->config().num_partitions);

  std::set<BatchId> window_committed = WindowCommittedGroups(chain);
  for (const txn::PrepareGroup* group :
       ctx_->prepared_batches().ReadyPrefix()) {
    if (window_committed.count(group->prepared_in_batch) > 0) continue;
    for (const txn::PendingTxn& pending : group->txns) {
      storage::CommitRecord rec;
      rec.txn_id = pending.txn.id;
      rec.committed = pending.state == txn::PendingTxn::State::kCommitted;
      rec.prepared_in_batch = group->prepared_in_batch;
      rec.participant_info = pending.participant_info;
      rec.coordinator = pending.txn.coordinator;
      batch.committed.push_back(std::move(rec));
    }
    lce = group->prepared_in_batch;
  }

  // Algorithm 1: derive the CD vector from the previous batch's vector
  // and the CD vectors reported in the prepared messages of every commit
  // record in the committed segment.
  for (const storage::CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;  // Aborts introduce no dependencies.
    for (const storage::PreparedInfo& info : rec.participant_info) {
      if (info.cd_vector.size() == cd.size()) cd.PairwiseMax(info.cd_vector);
    }
  }
  cd.Set(ctx_->partition(), batch.id);

  batch.ro.cd_vector = std::move(cd);
  batch.ro.lce = lce;
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
  // with pipelined proposals, later batches are still undecided and their
  // ids must survive a view change (OnViewChange un-dedups them).
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
  // Undecided admissions are abandoned — answer the waiting local clients
  // with a retryable abort (they re-issue against the new leader with the
  // same transaction id) instead of leaving them to hang.
  sim::Time at = ctx_->busy_until();
  // Drain in TxnId order: local_waiting_clients_ is an unordered_map, and
  // the abort replies are externally visible messages — iterating the map
  // directly would make reply order (and thus the whole downstream event
  // schedule) depend on the hash implementation.
  std::vector<std::pair<TxnId, sim::ActorId>> waiting(
      local_waiting_clients_.begin(), local_waiting_clients_.end());
  std::sort(waiting.begin(), waiting.end());
  for (const auto& [txn_id, client] : waiting) {
    ctx_->ReplyCommit(client, txn_id, false, "view change", at,
                      /*retryable=*/true);
  }
  local_waiting_clients_.clear();
  // Forget the abandoned ids — queued local *and* prepared, plus the
  // proposed-but-undecided batch — so a retry that lands back here after
  // a re-election is not swallowed by dedup. (Rejected prepares are NOT
  // forgotten: their no-vote is final.)
  for (const Transaction& t : inprog_local_) seen_txns_.erase(t.id);
  for (const Transaction& t : inprog_prepared_) seen_txns_.erase(t.id);
  for (TxnId id : proposed_inflight_) seen_txns_.erase(id);
  proposed_inflight_.clear();
  inprog_local_.clear();
  inprog_prepared_.clear();
  indexed_.clear();
  inprog_index_ = FootprintIndex();
}

}  // namespace transedge::core
