#include "core/consensus/pbft_consensus.h"

#include <utility>

#include "core/consensus/batch_validation.h"

namespace transedge::core {

PbftConsensus::PbftConsensus(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

void PbftConsensus::BroadcastCounted(const sim::MessagePtr& msg,
                                     sim::Time at) {
  stats_.messages_sent += ctx_->cluster_members().size() - 1;
  ctx_->BroadcastToCluster(msg, at);
}

size_t PbftConsensus::InFlight() const {
  BatchId tail = ctx_->mutable_log().LastBatchId();
  size_t n = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst.has_batch && !inst.decided && id > tail) ++n;
  }
  return n;
}

bool PbftConsensus::OnMessage(sim::ActorId from, const sim::Message& msg) {
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
    case wire::MessageType::kViewChange:
      HandleViewChange(from, static_cast<const wire::ViewChangeMsg&>(msg));
      return true;
    default:
      return false;
  }
}

void PbftConsensus::Propose(storage::Batch batch,
                            merkle::MerkleTree post_tree) {
  const SystemConfig& config = ctx_->config();
  auto [it, inserted] = instances_.try_emplace(batch.id, config.merkle_depth);
  ConsensusInstance& inst = it->second;
  inst.has_batch = true;
  inst.post_tree = std::move(post_tree);
  inst.digest = batch.ComputeDigest();
  inst.batch = batch;
  inst.validated = true;

  // Leader's own certificate share doubles as its prepare vote.
  storage::BatchCertificate payload =
      CertificatePayloadFor(ctx_->partition(), batch, inst.digest);
  crypto::Signature share = ctx_->Sign(payload.SignedPayload());
  inst.prepare_votes[ctx_->id()] = inst.digest;
  inst.cert_shares[ctx_->id()] = share;
  inst.sent_prepare = true;

  wire::PrePrepareMsg msg;
  msg.view = view_;
  msg.batch = std::move(batch);
  msg.leader_signature = ctx_->Sign(ProposalSignPayload(inst.digest));
  msg.leader_cert_share = share;

  sim::Time done = ctx_->busy_until();
  if (ctx_->byzantine() == ByzantineBehavior::kEquivocate) {
    // Conflicting variant for half the cluster: same transactions,
    // different timestamp => different digest.
    wire::PrePrepareMsg alt = msg;
    alt.batch.ro.timestamp_us += 1;
    crypto::Digest alt_digest = alt.batch.ComputeDigest();
    alt.leader_signature = ctx_->Sign(ProposalSignPayload(alt_digest));
    storage::BatchCertificate alt_payload = payload;
    alt_payload.batch_digest = alt_digest;
    alt_payload.ro_digest = alt.batch.ro.ComputeDigest();
    alt.leader_cert_share = ctx_->Sign(alt_payload.SignedPayload());
    stats_.messages_sent += SendEquivocatingVariants(
        ctx_, ShareMsg(std::move(msg)), ShareMsg(std::move(alt)), done);
    return;
  }

  BroadcastCounted(ShareMsg(std::move(msg)), done);
  StartViewChangeTimer(inst.batch.id);
}

void PbftConsensus::HandlePrePrepare(sim::ActorId from,
                                     const wire::PrePrepareMsg& msg) {
  if (msg.view != view_) return;
  if (from != ctx_->config().LeaderOf(ctx_->partition(), view_)) return;
  BatchId id = msg.batch.id;
  if (id <= ctx_->mutable_log().LastBatchId()) return;  // Already decided.

  auto [it, inserted] = instances_.try_emplace(id, ctx_->config().merkle_depth);
  ConsensusInstance& inst = it->second;
  if (inst.has_batch) return;  // First proposal wins; duplicates ignored.

  crypto::Digest digest = msg.batch.ComputeDigest();
  if (!ctx_->verifier().Verify(ProposalSignPayload(digest),
                               msg.leader_signature) ||
      msg.leader_signature.signer != from) {
    return;  // Forged or corrupted proposal.
  }
  inst.has_batch = true;
  inst.batch = msg.batch;
  inst.digest = digest;
  inst.prepare_votes[from] = digest;
  inst.cert_shares[from] = msg.leader_cert_share;

  StartViewChangeTimer(id);
  AdvanceConsensus();
}

void PbftConsensus::HandlePrepare(sim::ActorId from,
                                  const wire::PrepareMsg& msg) {
  if (msg.view != view_) return;
  if (msg.batch_id <= ctx_->mutable_log().LastBatchId()) return;
  auto [it, inserted] =
      instances_.try_emplace(msg.batch_id, ctx_->config().merkle_depth);
  it->second.prepare_votes[from] = msg.batch_digest;
  it->second.cert_shares[from] = msg.cert_share;
  AdvanceConsensus();
}

void PbftConsensus::HandleCommit(sim::ActorId from,
                                 const wire::CommitMsg& msg) {
  if (msg.view != view_) return;
  if (msg.batch_id <= ctx_->mutable_log().LastBatchId()) return;
  auto [it, inserted] =
      instances_.try_emplace(msg.batch_id, ctx_->config().merkle_depth);
  it->second.commit_votes[from] = msg.batch_digest;
  AdvanceConsensus();
}

void PbftConsensus::AdvanceConsensus() {
  const SystemConfig& config = ctx_->config();
  BatchId next = ctx_->mutable_log().LastBatchId() + 1;
  auto it = instances_.find(next);
  if (it == instances_.end()) return;
  ConsensusInstance& inst = it->second;
  if (!inst.has_batch) return;

  if (!inst.validated && !inst.validation_failed) {
    Status s = ValidateProposedBatch(ctx_, inst.batch, &inst.post_tree);
    if (!s.ok()) {
      // A correct replica stays silent on an invalid proposal; the
      // progress timer will trigger a view change.
      inst.validation_failed = true;
      return;
    }
    inst.validated = true;
  }
  if (inst.validation_failed) return;

  if (!inst.sent_prepare) {
    storage::BatchCertificate payload =
        CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest);
    crypto::Signature share = ctx_->Sign(payload.SignedPayload());
    inst.prepare_votes[ctx_->id()] = inst.digest;
    inst.cert_shares[ctx_->id()] = share;
    inst.sent_prepare = true;

    wire::PrepareMsg msg;
    msg.view = view_;
    msg.batch_id = inst.batch.id;
    msg.batch_digest = inst.digest;
    msg.cert_share = share;
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
  }

  if (inst.sent_prepare && !inst.sent_commit &&
      CountMatchingVotes(inst.prepare_votes, inst.digest) >= config.quorum_size()) {
    inst.commit_votes[ctx_->id()] = inst.digest;
    inst.sent_commit = true;
    wire::CommitMsg msg;
    msg.view = view_;
    msg.batch_id = inst.batch.id;
    msg.batch_digest = inst.digest;
    BroadcastCounted(ShareMsg(std::move(msg)), ctx_->busy_until());
  }

  if (inst.sent_commit && !inst.decided &&
      CountMatchingVotes(inst.commit_votes, inst.digest) >= config.quorum_size()) {
    inst.decided = true;
    storage::BatchCertificate cert = AssembleCertificateFromShares(
        ctx_, inst.batch, inst.digest, inst.prepare_votes, inst.cert_shares,
        config.certificate_size());
    Decided decided{std::move(inst.batch), std::move(cert),
                    std::move(inst.post_tree)};
    instances_.erase(it);
    ++stats_.batches_decided;
    // The hook applies the batch, drives 2PC / read-only follow-ups, and
    // re-enters AdvanceConsensus for the next queued instance.
    hooks_.on_decided(std::move(decided));
  }
}

// ---------------------------------------------------------------------------
// View changes
// ---------------------------------------------------------------------------

void PbftConsensus::StartViewChangeTimer(BatchId batch_id) {
  uint64_t view_at_start = view_;
  ctx_->Schedule(ctx_->config().view_change_timeout,
                 [this, batch_id, view_at_start] {
                   if (view_ != view_at_start) return;
                   if (ctx_->mutable_log().LastBatchId() >= batch_id) {
                     return;  // Decided in time.
                   }
                   InitiateViewChange(view_ + 1);
                 });
}

void PbftConsensus::InitiateViewChange(uint64_t new_view) {
  if (new_view <= view_) return;
  auto& votes = view_change_votes_[new_view];
  if (votes.count(ctx_->id()) > 0) return;  // Already voted for this view.
  votes.insert(ctx_->id());

  wire::ViewChangeMsg msg;
  msg.new_view = new_view;
  msg.last_committed = ctx_->mutable_log().LastBatchId();
  Encoder enc;
  enc.PutString("transedge-view-change");
  enc.PutU64(new_view);
  msg.signature = ctx_->Sign(enc.buffer());
  BroadcastCounted(ShareMsg(std::move(msg)),
                   ctx_->Charge(ctx_->config().cost.signature_op));
  MaybeAdoptView(new_view);
}

void PbftConsensus::MaybeAdoptView(uint64_t target) {
  if (target <= view_) return;
  auto it = view_change_votes_.find(target);
  if (it == view_change_votes_.end() ||
      it->second.size() < ctx_->config().quorum_size()) {
    return;
  }
  view_ = target;
  ++stats_.view_changes;
  // Undecided proposals from the old view are abandoned; clients will
  // retry against the new leader.
  instances_.clear();
  view_change_votes_.erase(target);
  hooks_.on_view_adopted();
}

void PbftConsensus::HandleViewChange(sim::ActorId from,
                                     const wire::ViewChangeMsg& msg) {
  uint64_t target = msg.new_view;
  if (target <= view_) return;
  auto& votes = view_change_votes_[target];
  votes.insert(from);

  // Join the view change once f+1 replicas demand it (at least one of
  // them is honest), adopt once 2f+1 do.
  if (votes.count(ctx_->id()) == 0 && votes.size() > ctx_->config().f) {
    InitiateViewChange(target);
    return;
  }
  MaybeAdoptView(target);
}

}  // namespace transedge::core
