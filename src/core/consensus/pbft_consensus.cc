#include "core/consensus/pbft_consensus.h"

#include <utility>

#include "core/consensus/batch_validation.h"

namespace transedge::core {

PbftConsensus::PbftConsensus(NodeContext* ctx, Hooks hooks)
    : ViewChangeConsensus(ctx, std::move(hooks)) {}

bool PbftConsensus::OnVotingMessage(sim::ActorId from,
                                    const sim::Message& msg) {
  switch (static_cast<wire::MessageType>(msg.type())) {
    case wire::MessageType::kPrePrepare:
      HandlePrePrepare(from, static_cast<const wire::PrePrepareMsg&>(msg));
      return true;
    case wire::MessageType::kPrepare:
      HandlePrepare(from, static_cast<const wire::PrepareMsg&>(msg));
      return true;
    case wire::MessageType::kCommit:
      HandleCommit(from, static_cast<const wire::CommitMsg&>(msg));
      return true;
    default:
      return false;
  }
}

sim::MessagePtr PbftConsensus::ProposalMessage(
    const Instance& inst, const wire::Justification* justify) {
  auto msg = SignedProposal<wire::PrePrepareMsg>(inst, justify);
  msg.leader_cert_share = inst.prepare_shares.at(ctx_->id());
  msg.leader_view_share = inst.view_shares.at(ctx_->id());
  return ShareMsg(std::move(msg));
}

void PbftConsensus::HandlePrePrepare(sim::ActorId from,
                                     const wire::PrePrepareMsg& msg) {
  Instance* inst = AcceptProposal(from, msg);
  if (inst == nullptr) return;
  RecordPrepareVote(from, *inst, inst->digest, msg.leader_cert_share,
                    msg.leader_view_share);
  AdvanceConsensus();
}

void PbftConsensus::HandlePrepare(sim::ActorId from,
                                  const wire::PrepareMsg& msg) {
  if (!IsCurrentVote(from, msg.view, msg.batch_id)) return;
  auto [it, inserted] =
      instances_.try_emplace(msg.batch_id, ctx_->config().merkle_depth);
  if (RecordPrepareVote(from, it->second, msg.batch_digest, msg.cert_share,
                        msg.view_share)) {
    AdvanceConsensus();
  }
}

void PbftConsensus::HandleCommit(sim::ActorId from,
                                 const wire::CommitMsg& msg) {
  if (!IsCurrentVote(from, msg.view, msg.batch_id)) return;
  auto [it, inserted] =
      instances_.try_emplace(msg.batch_id, ctx_->config().merkle_depth);
  it->second.commit_votes[from] = msg.batch_digest;
  AdvanceConsensus();
}

void PbftConsensus::AdvanceConsensus() {
  if (MaybeReproposeLock()) return;
  const SystemConfig& config = ctx_->config();
  BatchId next = ctx_->log().LastBatchId() + 1;
  auto it = instances_.find(next);
  if (it == instances_.end() || !it->second.has_batch) return;
  Instance& inst = it->second;
  if (!Validated(inst)) return;

  // Prepare — unless a lock on a conflicting batch at this id forbids it
  // and the proposal carries no adequate justification. Stay silent: the
  // progress timer carries the lock into the next view change.
  if (!inst.sent_prepare_vote) {
    if (LockBlocksVote(inst)) return;
    PrepareVote vote = CastPrepareVote(inst);
    wire::PrepareMsg msg;
    msg.view = view();
    msg.batch_id = inst.batch.id;
    msg.batch_digest = inst.digest;
    msg.cert_share = vote.share;
    msg.view_share = vote.view_share;
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
  }

  // 2f+1 matching Prepares: assemble the prepare QC and lock on it before
  // committing, so a later view re-proposes this batch.
  if (!inst.sent_commit_vote &&
      CountMatchingVotes(inst.prepare_votes, inst.digest) >=
          config.quorum_size()) {
    if (!AssemblePrepareQc(inst)) return;  // Wait for more votes.
    LockOn(inst);
    inst.commit_votes[ctx_->id()] = inst.digest;
    inst.sent_commit_vote = true;
    wire::CommitMsg msg;
    msg.view = view();
    msg.batch_id = inst.batch.id;
    msg.batch_digest = inst.digest;
    BroadcastCounted(ShareMsg(std::move(msg)), ctx_->busy_until());
  }

  // The hook applies the batch, drives 2PC / read-only follow-ups, and
  // re-enters AdvanceConsensus for the next queued instance.
  if (inst.sent_commit_vote &&
      CountMatchingVotes(inst.commit_votes, inst.digest) >=
          config.quorum_size()) {
    Decide(next);
  }
}

}  // namespace transedge::core
