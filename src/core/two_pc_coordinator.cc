#include "core/two_pc_coordinator.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace transedge::core {

TwoPcCoordinator::TwoPcCoordinator(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

void TwoPcCoordinator::BeginCoordination(const Transaction& txn,
                                         sim::ActorId client) {
  CoordinatorTxn coord;
  coord.txn = txn;
  coord.client = client;
  coord_txns_[txn.id] = std::move(coord);
}

void TwoPcCoordinator::HandleCoordPrepare(sim::ActorId from,
                                          const wire::CoordPrepareMsg& msg) {
  (void)from;
  const Transaction& txn = msg.txn;
  if (!msg.resend && hooks_.already_seen(txn.id)) {
    return;  // Duplicate (f+1 fan-out).
  }

  ctx_->Charge(ctx_->config().cost.signature_op);  // Verify the proof.
  Status proof_ok =
      msg.proof.Verify(ctx_->verifier(), ctx_->config().certificate_size(),
                       ctx_->config().ClusterMembers(msg.coordinator));
  if (!proof_ok.ok()) return;  // Unauthenticated prepare; drop.

  if (msg.resend) {
    // A resuming coordinator re-collects the votes its predecessor held.
    // Re-report from replicated state, three ways:
    //   1. prepare already logged here -> re-vote yes with the logged
    //      batch's CD vector and certificate (the original Prepared may
    //      have been addressed to the demoted coordinator and lost);
    //   2. prepare admitted but still in flight -> stay silent, the
    //      regular report goes out when its batch applies;
    //   3. seen but holding no trace -> our admission no-vote is the
    //      permanent record for this id; repeat it.
    // A replica with no memory of the id at all falls through to the
    // ordinary admission path below — for it the resend *is* the first
    // coordinator-prepare.
    if (ctx_->prepared_batches().FindTxn(txn.id) != nullptr) {
      BatchId prepared_in = ctx_->prepared_batches().GroupOf(txn.id);
      Result<const storage::LogEntry*> entry = ctx_->log().Get(prepared_in);
      if (!entry.ok()) return;  // Below the history horizon; cannot re-prove.
      wire::PreparedMsg reply;
      reply.txn_id = txn.id;
      reply.info.partition = ctx_->partition();
      reply.info.prepared_in_batch = prepared_in;
      reply.info.vote = true;
      reply.info.cd_vector = entry.value()->batch.ro.cd_vector;
      reply.proof = entry.value()->certificate;
      ctx_->SendToCluster(msg.coordinator, ShareMsg(std::move(reply)),
                          ctx_->busy_until());
      return;
    }
    if (hooks_.in_flight && hooks_.in_flight(txn.id)) return;
    if (hooks_.already_seen(txn.id)) {
      wire::PreparedMsg reply;
      reply.txn_id = txn.id;
      reply.info.partition = ctx_->partition();
      reply.info.prepared_in_batch = kNoBatch;
      reply.info.vote = false;
      reply.info.cd_vector = txn::CdVector(ctx_->config().num_partitions);
      ctx_->SendToCluster(msg.coordinator, ShareMsg(std::move(reply)),
                          ctx_->busy_until());
      return;
    }
  }

  Status admit = hooks_.admit_prepared(txn);
  if (!admit.ok()) {
    // Vote no immediately: we never prepared, so there is nothing to
    // clean up locally (§3.3.3).
    wire::PreparedMsg reply;
    reply.txn_id = txn.id;
    reply.info.partition = ctx_->partition();
    reply.info.prepared_in_batch = kNoBatch;
    reply.info.vote = false;
    reply.info.cd_vector = txn::CdVector(ctx_->config().num_partitions);
    ctx_->SendToCluster(msg.coordinator, ShareMsg(std::move(reply)),
                        ctx_->busy_until());
    return;
  }

  participant_pending_.insert(txn.id);
  hooks_.maybe_propose();
}

void TwoPcCoordinator::HandlePrepared(sim::ActorId from,
                                      const wire::PreparedMsg& msg) {
  (void)from;
  auto it = coord_txns_.find(msg.txn_id);
  if (it == coord_txns_.end()) return;
  CoordinatorTxn& coord = it->second;
  const std::vector<PartitionId>& participants = coord.txn.participants;
  if (std::find(participants.begin(), participants.end(),
                msg.info.partition) == participants.end()) {
    return;  // A partition the transaction does not involve has no vote.
  }
  if (coord.collected.count(msg.info.partition) > 0) return;  // Duplicate.

  if (msg.info.vote) {
    ctx_->Charge(ctx_->config().cost.signature_op);
    Status proof_ok = msg.proof.Verify(
        ctx_->verifier(), ctx_->config().certificate_size(),
        ctx_->config().ClusterMembers(msg.info.partition));
    if (!proof_ok.ok()) return;
  }
  coord.collected[msg.info.partition] = msg.info;
  MaybeDecide2pc(msg.txn_id);
}

void TwoPcCoordinator::MaybeDecide2pc(TxnId txn_id) {
  auto it = coord_txns_.find(txn_id);
  if (it == coord_txns_.end()) return;
  CoordinatorTxn& coord = it->second;
  if (coord.decided) return;
  if (coord.collected.size() < coord.txn.participants.size()) return;

  bool decision = true;
  std::vector<storage::PreparedInfo> infos;
  infos.reserve(coord.collected.size());
  for (const auto& [partition, info] : coord.collected) {
    decision = decision && info.vote;
    infos.push_back(info);
  }
  coord.decided = true;
  coord.decision = decision;
  // The decision enters the prepared-batches structure; the transaction
  // reaches the committed segment when its prepare group is the oldest
  // (Definition 4.1) and the next batch is built.
  Status s = ctx_->prepared_batches().RecordDecision(txn_id, decision, infos);
  (void)s;  // NotFound is impossible: we prepared it ourselves.
}

void TwoPcCoordinator::HandleCommitRecord(sim::ActorId from,
                                          const wire::CommitRecordMsg& msg) {
  (void)from;
  ctx_->Charge(ctx_->config().cost.signature_op);
  Status proof_ok =
      msg.proof.Verify(ctx_->verifier(), ctx_->config().certificate_size(),
                       ctx_->config().ClusterMembers(msg.proof.partition));
  if (!proof_ok.ok()) return;
  // AlreadyExists (duplicate fan-out) and NotFound (we voted no and never
  // prepared) are both benign.
  Status s = ctx_->prepared_batches().RecordDecision(msg.txn_id, msg.commit,
                                                     msg.participant_info);
  (void)s;
}

void TwoPcCoordinator::OnViewChange() {
  sim::Time at = ctx_->busy_until();
  const bool leader = ctx_->IsLeader();  // Under the freshly adopted view.
  for (auto it = coord_txns_.begin(); it != coord_txns_.end();) {
    const CoordinatorTxn& coord = it->second;
    // A still-present entry has not been client-replied (OnBatchApplied
    // erases on reply). A demoted coordinator can drive none of them any
    // further — votes route to the new leader, and client replies and
    // commit-record fan-out only happen on the leader. But the ones
    // whose prepare reached the replicated prepared-batches structure
    // are not lost: the new leader resumes them, so dropping silently
    // (the client's timeout retry reattaches over there) preserves a
    // commit that is already in flight. Only never-logged admissions —
    // wiped by the view change, never decidable — get the retryable
    // abort reply. A (re-elected) leader keeps everything it can still
    // drive.
    const bool logged =
        ctx_->prepared_batches().FindTxn(it->first) != nullptr;
    if (leader && (coord.decided || logged)) {
      ++it;
      continue;
    }
    if (!leader && logged) {
      it = coord_txns_.erase(it);  // Resumable by the new leader.
      continue;
    }
    ctx_->ReplyCommit(coord.client, it->first, false, "view change", at,
                      /*retryable=*/true);
    it = coord_txns_.erase(it);
  }

  if (!leader) return;
  // New-leader side of the handover: undecided prepare groups this
  // partition coordinates but nobody is driving any more (the demoted
  // leader held the coordination state) would strand every participant
  // cluster's committed segment behind them. Resume them: the prepare
  // batch's log entry supplies our own yes-vote, CD vector, and the
  // certificate to re-prove the prepare with. Re-deciding is safe —
  // votes are monotone (a prepared participant re-votes yes, a rejected
  // one re-votes no) and no commit record for the group can have been
  // certified, since only the demoted coordinator could have decided
  // and its decision never reached a batch.
  std::vector<const Transaction*> pending =
      ctx_->prepared_batches().PendingTransactions();
  for (const Transaction* txn : pending) {
    if (txn->coordinator != ctx_->partition()) continue;
    if (coord_txns_.count(txn->id) > 0) continue;  // Still driven here.
    ResumeCoordination(*txn, at);
  }
}

void TwoPcCoordinator::ResumeCoordination(const Transaction& txn,
                                          sim::Time at) {
  BatchId prepared_in = ctx_->prepared_batches().GroupOf(txn.id);
  Result<const storage::LogEntry*> entry = ctx_->log().Get(prepared_in);
  if (!entry.ok()) {
    // The prepare batch fell below the history horizon: no certificate
    // left to re-prove the prepare with. Unilateral abort — fanned out
    // through the record's participant slots when the batch carrying it
    // applies (there is no coordinator entry to consult by then).
    std::vector<storage::PreparedInfo> infos;
    infos.reserve(txn.participants.size());
    for (PartitionId p : txn.participants) {
      storage::PreparedInfo info;
      info.partition = p;
      info.prepared_in_batch = kNoBatch;
      info.vote = false;
      info.cd_vector = txn::CdVector(ctx_->config().num_partitions);
      infos.push_back(std::move(info));
    }
    Status s =
        ctx_->prepared_batches().RecordDecision(txn.id, false, std::move(infos));
    (void)s;  // The transaction is pending by construction.
    return;
  }

  CoordinatorTxn coord;
  coord.txn = txn;
  coord.client = 0;  // Orphaned: only the demoted leader knew the client.
  storage::PreparedInfo own;
  own.partition = ctx_->partition();
  own.prepared_in_batch = prepared_in;
  own.vote = true;
  own.cd_vector = entry.value()->batch.ro.cd_vector;
  coord.collected[ctx_->partition()] = std::move(own);
  coord_txns_[txn.id] = std::move(coord);

  for (PartitionId p : txn.participants) {
    if (p == ctx_->partition()) continue;
    wire::CoordPrepareMsg msg;
    msg.txn = txn;
    msg.coordinator = ctx_->partition();
    msg.proof = entry.value()->certificate;
    msg.resend = true;
    ctx_->SendToCluster(p, ShareMsg(std::move(msg)), at);
  }
  MaybeDecide2pc(txn.id);
}

bool TwoPcCoordinator::ReattachClient(TxnId txn_id, sim::ActorId client) {
  auto done = orphan_outcomes_.find(txn_id);
  if (done != orphan_outcomes_.end()) {
    // Decided and applied while orphaned; stats were counted when the
    // record applied. Answer the retry with the final outcome.
    ctx_->ReplyCommit(client, txn_id, done->second,
                      done->second ? "" : "aborted by 2PC",
                      ctx_->busy_until());
    orphan_outcomes_.erase(done);
    return true;
  }
  auto it = coord_txns_.find(txn_id);
  if (it == coord_txns_.end()) return false;
  it->second.client = client;
  return true;
}

void TwoPcCoordinator::OnBatchApplied(const storage::Batch& logged,
                                      const storage::BatchCertificate& cert) {
  if (!ctx_->IsLeader()) return;
  sim::Time at = ctx_->busy_until();

  // Freshly prepared distributed transactions: drive 2PC.
  for (const Transaction& t : logged.prepared) {
    auto coord_it = coord_txns_.find(t.id);
    if (coord_it != coord_txns_.end()) {
      // We are the coordinator: record our own prepared info and send
      // coordinator-prepares to the other participants (step 3).
      storage::PreparedInfo own;
      own.partition = ctx_->partition();
      own.prepared_in_batch = logged.id;
      own.vote = true;
      own.cd_vector = logged.ro.cd_vector;
      coord_it->second.collected[ctx_->partition()] = own;
      for (PartitionId p : t.participants) {
        if (p == ctx_->partition()) continue;
        wire::CoordPrepareMsg msg;
        msg.txn = t;
        msg.coordinator = ctx_->partition();
        msg.proof = cert;
        ctx_->SendToCluster(p, ShareMsg(std::move(msg)), at);
      }
      MaybeDecide2pc(t.id);
    } else if (participant_pending_.count(t.id) > 0) {
      // We are a participant: report prepared to the coordinator
      // (step 5), piggybacking this batch's CD vector.
      participant_pending_.erase(t.id);
      wire::PreparedMsg msg;
      msg.txn_id = t.id;
      msg.info.partition = ctx_->partition();
      msg.info.prepared_in_batch = logged.id;
      msg.info.vote = true;
      msg.info.cd_vector = logged.ro.cd_vector;
      msg.proof = cert;
      ctx_->SendToCluster(t.coordinator, ShareMsg(std::move(msg)), at);
    }
  }

  // Commit records just written: notify participants and clients
  // (steps 7 and 8).
  for (const storage::CommitRecord& rec : logged.committed) {
    auto coord_it = coord_txns_.find(rec.txn_id);
    if (coord_it == coord_txns_.end()) {
      // No coordinator entry. On a participant partition that is the
      // normal case — the coordinator already fanned the record out and
      // this copy only releases the local prepare group. Fanning out
      // again from every participant leader would flood the cluster
      // with duplicate records (and double-count the stats).
      if (rec.coordinator != ctx_->partition()) continue;
      // On the coordinating partition itself, a missing entry means the
      // decision was formed by an earlier leader (resume decided
      // elsewhere, or a horizon-loss unilateral abort) and the record
      // reached the log under this one. The fan-out duty still lands
      // here — the record's participant slots name every involved
      // partition, so the entry is not needed.
      for (const storage::PreparedInfo& info : rec.participant_info) {
        if (info.partition == ctx_->partition()) continue;
        wire::CommitRecordMsg msg;
        msg.txn_id = rec.txn_id;
        msg.commit = rec.committed;
        msg.participant_info = rec.participant_info;
        msg.proof = cert;
        ctx_->SendToCluster(info.partition, ShareMsg(std::move(msg)), at);
      }
      if (rec.committed) {
        ++stats_.dist_committed;
      } else {
        ++stats_.dist_aborted;
      }
      continue;
    }
    const Transaction& t = coord_it->second.txn;
    for (PartitionId p : t.participants) {
      if (p == ctx_->partition()) continue;
      wire::CommitRecordMsg msg;
      msg.txn_id = rec.txn_id;
      msg.commit = rec.committed;
      msg.participant_info = rec.participant_info;
      msg.proof = cert;
      ctx_->SendToCluster(p, ShareMsg(std::move(msg)), at);
    }
    if (rec.committed) {
      ++stats_.dist_committed;
    } else {
      ++stats_.dist_aborted;
    }
    if (coord_it->second.client != 0) {
      ctx_->ReplyCommit(coord_it->second.client, rec.txn_id, rec.committed,
                        rec.committed ? "" : "aborted by 2PC", at);
    } else {
      // Resumed while orphaned — nobody knows the client until its
      // timeout retry arrives; ReattachClient answers it from here.
      orphan_outcomes_[rec.txn_id] = rec.committed;
    }
    coord_txns_.erase(coord_it);
  }
}

}  // namespace transedge::core
