#include "core/consensus/linear_vote_consensus.h"

#include <utility>

#include "core/consensus/batch_validation.h"

namespace transedge::core {

LinearVoteConsensus::LinearVoteConsensus(NodeContext* ctx, Hooks hooks)
    : ViewChangeConsensus(ctx, std::move(hooks)) {}

bool LinearVoteConsensus::OnVotingMessage(sim::ActorId from,
                                          const sim::Message& msg) {
  switch (static_cast<wire::MessageType>(msg.type())) {
    case wire::MessageType::kLinearPropose:
      if (AcceptProposal(from,
                         static_cast<const wire::LinearProposeMsg&>(msg))) {
        AdvanceConsensus();
      }
      return true;
    case wire::MessageType::kLinearVote:
      HandleVote(from, static_cast<const wire::LinearVoteMsg&>(msg));
      return true;
    case wire::MessageType::kLinearQc:
      HandleQc(static_cast<const wire::LinearQcMsg&>(msg));
      return true;
    default:
      return false;
  }
}

sim::MessagePtr LinearVoteConsensus::ProposalMessage(
    const Instance& inst, const wire::Justification* justify) {
  // No leader share travels: the leader aggregates the votes itself.
  return ShareMsg(SignedProposal<wire::LinearProposeMsg>(inst, justify));
}

Bytes LinearVoteConsensus::CommitVotePayload(
    BatchId batch_id, const crypto::Digest& digest) const {
  Encoder enc;
  enc.PutString("transedge-linear-commit");
  enc.PutU32(ctx_->partition());
  enc.PutI64(batch_id);
  enc.PutRaw(digest.bytes.data(), digest.bytes.size());
  return enc.Take();
}

// ---------------------------------------------------------------------------
// Votes and QCs
// ---------------------------------------------------------------------------

void LinearVoteConsensus::HandleVote(sim::ActorId from,
                                     const wire::LinearVoteMsg& msg) {
  // Votes aggregate at the leader only, about a proposal we actually made.
  if (!IsCurrentVote(from, msg.view, msg.batch_id) || !IsLeaderSelf()) return;
  auto it = instances_.find(msg.batch_id);
  if (it == instances_.end() || !it->second.has_batch) return;
  Instance& inst = it->second;
  if (msg.phase == wire::kLinearPhasePrepare) {
    if (!RecordPrepareVote(from, inst, msg.batch_digest, msg.share,
                           msg.view_share)) {
      return;
    }
  } else {
    // As for prepare votes: verify a share that claims our digest now, so
    // the commit tally counts only shares the commit QC can use.
    if (msg.share.signer != from ||
        (msg.batch_digest == inst.digest &&
         !ctx_->verifier().Verify(CommitVotePayload(msg.batch_id, inst.digest),
                                  msg.share))) {
      return;
    }
    inst.commit_votes[from] = msg.batch_digest;
    inst.commit_shares[from] = msg.share;
  }
  AdvanceConsensus();
}

void LinearVoteConsensus::HandleQc(const wire::LinearQcMsg& msg) {
  // QCs are self-certifying (quorums of signatures), whoever sends them.
  if (msg.view != view()) return;
  BatchId id = msg.cert.batch_id;
  if (id <= ctx_->log().LastBatchId()) return;
  // Verify on receipt — a forged QC must be dropped here, never stashed,
  // or it would displace the genuine one (the leader does not resend).
  // At most one digest per batch id can gather a quorum, so a verified QC
  // is the decision of its phase.
  const size_t quorum = ctx_->config().quorum_size();
  if (msg.phase == wire::kLinearPhasePrepare) {
    // Certificate quorum AND view-bind quorum: a prepare QC whose view
    // claim is not certified never locks anyone.
    if (!VerifyPrepareQc(id, msg.cert.batch_digest, msg.view, msg.cert,
                         msg.view_sigs)) {
      return;
    }
  } else {
    // The commit QC's embedded certificate gets logged and later serves
    // catch-up, which re-verifies it at quorum_size — so demand the full
    // 2f+1 here too (the leader always assembles that many); accepting a
    // thinner-but-valid one would wedge every future catch-up of this
    // entry.
    if (!msg.cert.Verify(ctx_->verifier(), quorum, ctx_->cluster_members())
             .ok() ||
        !msg.commit_sigs
             .VerifyQuorum(ctx_->verifier(),
                           CommitVotePayload(id, msg.cert.batch_digest),
                           quorum, ctx_->cluster_members())
             .ok()) {
      return;
    }
  }
  auto [it, inserted] = instances_.try_emplace(id, ctx_->config().merkle_depth);
  Instance& inst = it->second;
  inst.certificate = msg.cert;
  if (msg.phase == wire::kLinearPhasePrepare) {
    inst.have_prepare_qc = true;
    inst.qc_view_sigs = msg.view_sigs;
  } else {
    inst.have_commit_qc = true;
  }
  AdvanceConsensus();
}

// ---------------------------------------------------------------------------
// Phase progression
// ---------------------------------------------------------------------------

void LinearVoteConsensus::AdvanceConsensus() {
  if (MaybeReproposeLock()) return;
  const SystemConfig& config = ctx_->config();
  BatchId next = ctx_->log().LastBatchId() + 1;
  auto it = instances_.find(next);
  if (it == instances_.end() || !it->second.has_batch) return;
  Instance& inst = it->second;
  if (!Validated(inst)) return;

  const crypto::NodeId leader = config.LeaderOf(ctx_->partition(), view());

  // Replica: prepare vote to the leader — unless a lock on a conflicting
  // batch at this id forbids it and the proposal carries no adequate
  // justification. Stay silent: the progress timer carries the lock into
  // the next view change.
  if (!inst.sent_prepare_vote) {
    if (LockBlocksVote(inst)) return;
    PrepareVote vote = CastPrepareVote(inst);
    wire::LinearVoteMsg msg;
    msg.view = view();
    msg.batch_id = inst.batch.id;
    msg.phase = wire::kLinearPhasePrepare;
    msg.batch_digest = inst.digest;
    msg.share = vote.share;
    msg.view_share = vote.view_share;
    SendCounted(leader, ShareMsg(std::move(msg)),
                ctx_->Charge(config.cost.signature_op));
  }

  // Replica: prepare QC (verified on receipt) => lock, then commit vote
  // to the leader. A digest mismatch means we hold an equivocation
  // variant the quorum did not certify: stay silent and let the timer
  // force a view change.
  if (inst.have_prepare_qc && !inst.sent_commit_vote &&
      inst.certificate.batch_digest == inst.digest) {
    LockOn(inst);
    crypto::Signature share =
        ctx_->Sign(CommitVotePayload(inst.batch.id, inst.digest));
    inst.sent_commit_vote = true;
    wire::LinearVoteMsg msg;
    msg.view = view();
    msg.batch_id = inst.batch.id;
    msg.phase = wire::kLinearPhaseCommit;
    msg.batch_digest = inst.digest;
    msg.share = share;
    SendCounted(leader, ShareMsg(std::move(msg)),
                ctx_->Charge(config.cost.signature_op));
  }

  // Replica: commit QC (verified on receipt) => decide. The hook applies
  // the batch and re-enters AdvanceConsensus for the next slot.
  if (inst.have_commit_qc && inst.certificate.batch_digest == inst.digest) {
    Decide(next);
    return;
  }

  if (leader == ctx_->id()) LeaderAdvance(inst);
}

void LinearVoteConsensus::LeaderAdvance(Instance& inst) {
  const SystemConfig& config = ctx_->config();
  const BatchId batch_id = inst.batch.id;

  if (!inst.prepare_qc_sent &&
      CountMatchingVotes(inst.prepare_votes, inst.digest) >= config.quorum_size()) {
    if (!AssemblePrepareQc(inst)) return;  // Wait for more votes.
    inst.prepare_qc_sent = true;

    // The leader's own commit vote, locking like any other commit voter.
    LockOn(inst);
    inst.commit_votes[ctx_->id()] = inst.digest;
    inst.commit_shares[ctx_->id()] =
        ctx_->Sign(CommitVotePayload(batch_id, inst.digest));
    inst.sent_commit_vote = true;

    wire::LinearQcMsg msg;
    msg.view = view();
    msg.phase = wire::kLinearPhasePrepare;
    msg.cert = inst.certificate;
    msg.view_sigs = inst.qc_view_sigs;
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
  }

  if (inst.prepare_qc_sent && !inst.commit_qc_sent &&
      CountMatchingVotes(inst.commit_votes, inst.digest) >= config.quorum_size()) {
    crypto::SignatureSet commit_sigs = CollectVerifiedShares(
        ctx_, CommitVotePayload(batch_id, inst.digest), inst.commit_votes,
        inst.commit_shares, inst.digest, config.quorum_size());
    if (commit_sigs.size() < config.quorum_size()) return;
    inst.commit_qc_sent = true;

    wire::LinearQcMsg msg;
    msg.view = view();
    msg.phase = wire::kLinearPhaseCommit;
    msg.cert = inst.certificate;
    msg.commit_sigs = std::move(commit_sigs);
    // Aggregating the commit QC is crypto work like the prepare QC; an
    // uncharged broadcast would skew the engine-comparison bench.
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
    Decide(batch_id);
  }
}

}  // namespace transedge::core
