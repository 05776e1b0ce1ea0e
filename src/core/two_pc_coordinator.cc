#include "core/two_pc_coordinator.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

namespace transedge::core {

TwoPcCoordinator::TwoPcCoordinator(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

void TwoPcCoordinator::BeginCoordination(const Transaction& txn,
                                         sim::ActorId client) {
  clients_[txn.id] = client;
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

  // Answer from replicated state first. A prepare logged here re-votes
  // yes from its log entry: a resending coordinator lost our vote, or a
  // new coordinator leader asks again. One still in flight stays silent;
  // its vote follows its batch.
  if (ctx_->prepared_batches().FindTxn(txn.id) != nullptr) {
    BatchId prepared_in = ctx_->prepared_batches().GroupOf(txn.id);
    Result<const storage::LogEntry*> entry = ctx_->log().Get(prepared_in);
    if (!entry.ok()) return;  // Below the history horizon; cannot re-prove.
    SendVote(txn, prepared_in, entry.value()->batch.ro.cd_vector,
             entry.value()->certificate);
    return;
  }
  if (hooks_.in_flight(txn.id)) return;

  // A replica with no memory of the id admits it: for a new leader a
  // resend *is* the first prepare. A seen id with no trace is one we
  // rejected, and admission repeats the no-vote.
  Status admit = hooks_.admit_prepared(txn);
  if (!admit.ok()) {
    // Vote no immediately: we never prepared, so there is nothing to
    // clean up locally (§3.3.3).
    SendVote(txn, kNoBatch, txn::CdVector(ctx_->config().num_partitions),
             storage::BatchCertificate());
    return;
  }
  hooks_.maybe_propose();
}

void TwoPcCoordinator::HandlePrepared(sim::ActorId from,
                                      const wire::PreparedMsg& msg) {
  (void)from;
  auto it = coordinating_.find(msg.txn_id);
  if (it == coordinating_.end()) return;
  Coordinating& coord = it->second;
  const std::vector<PartitionId>& participants = coord.txn.participants;
  if (std::find(participants.begin(), participants.end(),
                msg.info.partition) == participants.end()) {
    return;  // A partition the transaction does not involve has no vote.
  }
  if (coord.votes.count(msg.info.partition) > 0) return;  // Duplicate.

  if (msg.info.vote) {
    ctx_->Charge(ctx_->config().cost.signature_op);
    Status proof_ok = msg.proof.Verify(
        ctx_->verifier(), ctx_->config().certificate_size(),
        ctx_->config().ClusterMembers(msg.info.partition));
    if (!proof_ok.ok()) return;
  }
  coord.votes[msg.info.partition] = msg.info;
  MaybeDecide(it);
}

void TwoPcCoordinator::MaybeDecide(
    std::map<TxnId, Coordinating>::iterator it) {
  const Coordinating& coord = it->second;
  if (coord.votes.size() < coord.txn.participants.size()) return;

  bool decision = true;
  std::vector<storage::PreparedInfo> infos;
  infos.reserve(coord.votes.size());
  for (const auto& [partition, info] : coord.votes) {
    decision = decision && info.vote;
    infos.push_back(info);
  }
  TxnId txn_id = it->first;
  coordinating_.erase(it);
  // The decision enters the prepared-batches structure; the transaction
  // reaches the committed segment when its prepare group is the oldest
  // (Definition 4.1) and the next batch is built.
  Status s = ctx_->prepared_batches().RecordDecision(txn_id, decision,
                                                     std::move(infos));
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
  // Only the transaction's coordinator decides it. Any partition's
  // certificate verifies, and every read-only reply hands one out. A
  // transaction we never prepared (we voted no) has nothing to decide.
  const Transaction* txn = ctx_->prepared_batches().FindTxn(msg.txn_id);
  if (txn == nullptr || txn->coordinator != msg.proof.partition) return;
  // AlreadyExists (duplicate fan-out) is benign.
  Status s = ctx_->prepared_batches().RecordDecision(msg.txn_id, msg.commit,
                                                     msg.participant_info);
  (void)s;
}

void TwoPcCoordinator::Coordinate(const Transaction& txn,
                                  BatchId prepared_in,
                                  const txn::CdVector& cd_vector,
                                  const storage::BatchCertificate& proof,
                                  bool resend) {
  auto it = coordinating_.try_emplace(txn.id).first;
  Coordinating& coord = it->second;
  coord.txn = txn;
  storage::PreparedInfo& own = coord.votes[ctx_->partition()];
  own.partition = ctx_->partition();
  own.prepared_in_batch = prepared_in;
  own.vote = true;
  own.cd_vector = cd_vector;
  SolicitVotes(coord, proof, resend, /*every_member=*/false);
  MaybeDecide(it);
}

void TwoPcCoordinator::SolicitVotes(const Coordinating& coord,
                                    const storage::BatchCertificate& proof,
                                    bool resend, bool every_member) {
  wire::CoordPrepareMsg msg;
  msg.txn = coord.txn;
  msg.coordinator = ctx_->partition();
  msg.proof = proof;
  msg.resend = resend;
  sim::MessagePtr shared = ShareMsg(std::move(msg));
  sim::Time at = ctx_->busy_until();
  for (PartitionId p : coord.txn.participants) {
    if (coord.votes.count(p) > 0) continue;  // Ours, or already in.
    if (!every_member) {
      ctx_->SendToCluster(p, shared, at);
      continue;
    }
    for (crypto::NodeId member : ctx_->config().ClusterMembers(p)) {
      ctx_->Send(member, shared, at);
    }
  }
}

void TwoPcCoordinator::SendVote(const Transaction& txn, BatchId prepared_in,
                                const txn::CdVector& cd_vector,
                                const storage::BatchCertificate& proof) {
  wire::PreparedMsg msg;
  msg.txn_id = txn.id;
  msg.info.partition = ctx_->partition();
  msg.info.prepared_in_batch = prepared_in;
  msg.info.vote = prepared_in != kNoBatch;
  msg.info.cd_vector = cd_vector;
  msg.proof = proof;
  ctx_->SendToCluster(txn.coordinator, ShareMsg(std::move(msg)),
                      ctx_->busy_until());
}

void TwoPcCoordinator::OnViewChange() {
  sim::Time at = ctx_->busy_until();
  const bool leader = ctx_->IsLeader();  // Under the freshly adopted view.
  // A commit record decided here is not lost either: its client is
  // answered when the record applies here, whatever the view.
  std::set<TxnId> recorded;
  ctx_->ForEachUnappliedBatch([&](const storage::LogEntry& entry) {
    for (const storage::CommitRecord& rec : entry.batch.committed) {
      recorded.insert(rec.txn_id);
    }
  });
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (recorded.count(it->first) > 0) {
      ++it;
      continue;
    }
    // A logged prepare is not lost: whoever leads now drives it.
    if (ctx_->prepared_batches().FindTxn(it->first) != nullptr) {
      it = leader ? std::next(it) : clients_.erase(it);
      continue;
    }
    ctx_->ReplyCommit(it->second, it->first, false, "view change", at,
                      /*retryable=*/true);
    it = clients_.erase(it);
  }
  if (!leader) {
    coordinating_.clear();  // Votes route to the new leader.
    return;
  }

  // The leader that decided these batches may be gone before its legs
  // left, and as a follower we sent none.
  ctx_->ForEachUnappliedBatch([&](const storage::LogEntry& entry) {
    OnBatchDecided(entry.batch, entry.certificate);
  });

  // An undecided group nobody drives would strand every participant's
  // commit queue behind it. Re-deciding is safe: votes are monotone (a
  // prepared participant re-votes yes, a rejected one re-votes no), and
  // no commit record for the group can have been certified, or it would
  // not be pending.
  for (const Transaction* txn :
       ctx_->prepared_batches().PendingTransactions()) {
    if (txn->coordinator != ctx_->partition()) continue;
    if (coordinating_.count(txn->id) > 0) continue;  // Still driven here.
    BatchId prepared_in = ctx_->prepared_batches().GroupOf(txn->id);
    Result<const storage::LogEntry*> entry = ctx_->log().Get(prepared_in);
    if (entry.ok()) {
      Coordinate(*txn, prepared_in, entry.value()->batch.ro.cd_vector,
                 entry.value()->certificate, /*resend=*/true);
      continue;
    }
    // Below the history horizon: unilateral abort, fanned out through
    // the record's participant slots when the batch carrying it decides.
    std::vector<storage::PreparedInfo> infos;
    infos.reserve(txn->participants.size());
    for (PartitionId p : txn->participants) {
      storage::PreparedInfo info;
      info.partition = p;
      info.prepared_in_batch = kNoBatch;
      info.vote = false;
      info.cd_vector = txn::CdVector(ctx_->config().num_partitions);
      infos.push_back(std::move(info));
    }
    Status s = ctx_->prepared_batches().RecordDecision(txn->id, false,
                                                       std::move(infos));
    (void)s;  // The transaction is pending by construction.
  }
}

bool TwoPcCoordinator::ReattachClient(TxnId txn_id, sim::ActorId client) {
  auto done = orphan_outcomes_.find(txn_id);
  if (done != orphan_outcomes_.end()) {
    // Stats were counted when the record applied. Every copy of the
    // retry gets the final outcome: the retry reaches every member, and
    // a forwarded copy must not be admitted afresh.
    const bool committed = done->second.committed;
    ctx_->ReplyCommit(client, txn_id, committed,
                      committed ? "" : "aborted by 2PC", ctx_->busy_until());
    return true;
  }
  const Transaction* logged = ctx_->prepared_batches().FindTxn(txn_id);
  const bool ours = logged != nullptr
                        ? logged->coordinator == ctx_->partition()
                        : clients_.count(txn_id) > 0;
  if (!ours) return false;
  clients_[txn_id] = client;

  auto it = coordinating_.find(txn_id);
  if (it == coordinating_.end()) return true;  // Decided, or not logged yet.
  Coordinating& coord = it->second;
  // A retry means the votes are late. Ask every member of each silent
  // participant, as Client::SendCommit widens its own retries: a
  // participant whose leader died before it prepared then arms enough
  // progress timers to change view, and a later retry reaches its new
  // leader. The copies of one retry round arrive together, and a resend
  // before the participants' view-change timers could fire reaches no
  // one new, so re-solicit at most once per view-change timeout.
  if (ctx_->now() < coord.resolicit_at) return true;
  Result<const storage::LogEntry*> entry = ctx_->log().Get(
      coord.votes.at(ctx_->partition()).prepared_in_batch);
  if (!entry.ok()) return true;  // Below the history horizon.
  coord.resolicit_at = ctx_->now() + ctx_->config().view_change_timeout;
  SolicitVotes(coord, entry.value()->certificate, /*resend=*/true,
               /*every_member=*/true);
  return true;
}

void TwoPcCoordinator::OnBatchDecided(const storage::Batch& logged,
                                      const storage::BatchCertificate& cert) {
  if (!ctx_->IsLeader()) return;
  sim::Time at = ctx_->busy_until();

  // Freshly prepared transactions another partition coordinates: the
  // leader reports our vote with this batch's CD vector (step 5), whoever
  // admitted the transaction.
  for (const Transaction& t : logged.prepared) {
    if (t.coordinator != ctx_->partition()) {
      SendVote(t, logged.id, logged.ro.cd_vector, cert);
    }
  }

  // Commit records we coordinate: the leader notifies the participants
  // the record names (step 7). A participant's copy of a record only
  // releases its local prepare group.
  for (const storage::CommitRecord& rec : logged.committed) {
    if (rec.coordinator != ctx_->partition()) continue;
    // A group resumed here may be committed by an earlier leader's
    // record; it must stop soliciting votes.
    coordinating_.erase(rec.txn_id);
    wire::CommitRecordMsg msg;
    msg.txn_id = rec.txn_id;
    msg.commit = rec.committed;
    msg.participant_info = rec.participant_info;
    msg.proof = cert;
    sim::MessagePtr shared = ShareMsg(std::move(msg));
    for (const storage::PreparedInfo& info : rec.participant_info) {
      if (info.partition == ctx_->partition()) continue;
      ctx_->SendToCluster(info.partition, shared, at);
    }
  }
}

void TwoPcCoordinator::OnBatchApplied(const storage::Batch& logged,
                                      const storage::BatchCertificate& cert) {
  std::erase_if(orphan_outcomes_, [&](const auto& kv) {
    return kv.second.logged_in < ctx_->history_horizon();
  });
  const bool leader = ctx_->IsLeader();
  sim::Time at = ctx_->busy_until();

  // Freshly prepared transactions this partition coordinates: the leader
  // coordinates (step 3), whoever admitted the transaction. One whose
  // commit record already decided here (a group a new leader resumed
  // before this batch applied) needs no votes.
  if (leader) {
    for (const Transaction& t : logged.prepared) {
      if (t.coordinator != ctx_->partition() ||
          ctx_->prepared_batches().FindTxn(t.id) == nullptr) {
        continue;
      }
      Coordinate(t, logged.id, logged.ro.cd_vector, cert, /*resend=*/false);
    }
  }

  // Commit records we coordinate: the leader counts the outcome, and the
  // replica holding the client answers it, whatever its view (step 8).
  for (const storage::CommitRecord& rec : logged.committed) {
    if (rec.coordinator != ctx_->partition()) continue;
    auto client = clients_.find(rec.txn_id);
    if (leader) {
      if (rec.committed) {
        ++stats_.dist_committed;
      } else {
        ++stats_.dist_aborted;
      }
      if (client == clients_.end()) {
        // Decided while no client was attached (its leader resumed the
        // group); ReattachClient answers the timeout retry from here.
        orphan_outcomes_[rec.txn_id] = {rec.committed, logged.id};
      }
    }
    if (client == clients_.end()) continue;
    ctx_->ReplyCommit(client->second, rec.txn_id, rec.committed,
                      rec.committed ? "" : "aborted by 2PC", at);
    clients_.erase(client);
  }
}

}  // namespace transedge::core
