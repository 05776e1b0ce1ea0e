#include "core/consensus/linear_vote_consensus.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/batch_apply.h"
#include "core/consensus/batch_validation.h"

namespace transedge::core {

LinearVoteConsensus::LinearVoteConsensus(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

void LinearVoteConsensus::SendCounted(crypto::NodeId to,
                                      const sim::MessagePtr& msg,
                                      sim::Time at) {
  ++stats_.messages_sent;
  ctx_->Send(to, msg, at);
}

void LinearVoteConsensus::BroadcastCounted(const sim::MessagePtr& msg,
                                           sim::Time at) {
  stats_.messages_sent += ctx_->cluster_members().size() - 1;
  ctx_->BroadcastToCluster(msg, at);
}

bool LinearVoteConsensus::OnMessage(sim::ActorId from,
                                    const sim::Message& msg) {
  switch (static_cast<wire::MessageType>(msg.type())) {
    case wire::MessageType::kLinearPropose:
      HandlePropose(from, static_cast<const wire::LinearProposeMsg&>(msg));
      return true;
    case wire::MessageType::kLinearVote:
      HandleVote(from, static_cast<const wire::LinearVoteMsg&>(msg));
      return true;
    case wire::MessageType::kLinearQc:
      HandleQc(from, static_cast<const wire::LinearQcMsg&>(msg));
      return true;
    case wire::MessageType::kLinearViewChange:
      HandleViewChange(from,
                       static_cast<const wire::LinearViewChangeMsg&>(msg));
      return true;
    case wire::MessageType::kLinearNewView:
      HandleNewView(from, static_cast<const wire::LinearNewViewMsg&>(msg));
      return true;
    case wire::MessageType::kLinearCatchUp:
      HandleCatchUp(from, static_cast<const wire::LinearCatchUpMsg&>(msg));
      return true;
    default:
      return false;
  }
}

bool LinearVoteConsensus::IsClusterMember(crypto::NodeId id) const {
  const auto& members = ctx_->cluster_members();
  return std::find(members.begin(), members.end(), id) != members.end();
}

void LinearVoteConsensus::PruneStaleLocks() {
  locks_.erase(locks_.begin(),
               locks_.upper_bound(ctx_->mutable_log().LastBatchId()));
}

void LinearVoteConsensus::MaybeLockOn(uint64_t view, const Instance& inst) {
  Lock& lock = locks_[inst.batch.id];
  if (lock.valid && lock.view > view) return;
  lock.valid = true;
  lock.view = view;
  lock.batch = inst.batch;
  lock.digest = inst.digest;
  lock.cert = inst.certificate;
  lock.view_sigs = inst.qc_view_sigs;
}

bool LinearVoteConsensus::LockBlocksVote(const Instance& inst) const {
  auto it = locks_.find(inst.batch.id);
  if (it == locks_.end() || !it->second.valid) return false;
  if (it->second.digest == inst.digest) return false;
  return !(inst.has_justify && inst.justify_view >= it->second.view);
}

bool LinearVoteConsensus::HasPendingReproposal() const {
  return reproposed_id_ != kNoBatch &&
         reproposed_id_ > ctx_->mutable_log().LastBatchId();
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

Bytes LinearVoteConsensus::ViewBindPayload(BatchId batch_id,
                                           const crypto::Digest& digest,
                                           uint64_t view) const {
  Encoder enc;
  enc.PutString("transedge-linear-qc-view");
  enc.PutU32(ctx_->partition());
  enc.PutI64(batch_id);
  enc.PutRaw(digest.bytes.data(), digest.bytes.size());
  enc.PutU64(view);
  return enc.Take();
}

Bytes LinearVoteConsensus::ViewChangePayload(uint64_t new_view) const {
  Encoder enc;
  enc.PutString("transedge-linear-view-change");
  enc.PutU32(ctx_->partition());
  enc.PutU64(new_view);
  return enc.Take();
}

// ---------------------------------------------------------------------------
// Pipelining introspection (NodeContext window)
// ---------------------------------------------------------------------------

size_t LinearVoteConsensus::InFlight() const {
  BatchId tail = ctx_->mutable_log().LastBatchId();
  size_t n = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst.has_batch && !inst.decided && id > tail) ++n;
  }
  return n;
}

uint32_t LinearVoteConsensus::MaxPipelineDepth() const {
  // The chained-instance machinery has no inherent window bound; the
  // node clamps to SystemConfig::pipeline_depth.
  return std::numeric_limits<uint32_t>::max();
}

ProposalChain LinearVoteConsensus::ChainUpTo(BatchId id) {
  ProposalChain chain;
  chain.next_id = id;
  for (BatchId p = ctx_->mutable_log().LastBatchId() + 1; p < id; ++p) {
    auto it = instances_.find(p);
    if (it == instances_.end() || !it->second.has_batch ||
        !it->second.validated) {
      // Broken chain below `id`; callers only ask about slots whose
      // predecessors are all live and validated.
      chain.pending.clear();
      chain.head_tree = nullptr;
      return chain;
    }
    chain.pending.push_back(&it->second.batch);
    chain.head_tree = &it->second.post_tree;
  }
  return chain;
}

ProposalChain LinearVoteConsensus::Chain() {
  BatchId id = ctx_->mutable_log().LastBatchId() + 1;
  while (true) {
    auto it = instances_.find(id);
    if (it == instances_.end() || !it->second.has_batch ||
        !it->second.validated) {
      break;
    }
    ++id;
  }
  return ChainUpTo(id);
}

// ---------------------------------------------------------------------------
// Proposal and voting
// ---------------------------------------------------------------------------

void LinearVoteConsensus::Propose(storage::Batch batch,
                                  merkle::MerkleTree post_tree) {
  const SystemConfig& config = ctx_->config();
  // A slot we hold a conflicting lock on belongs to the locked batch —
  // it may already be decided on another replica. Re-propose it instead
  // of the fresh batch (covers locks adopted past a gap, which AdoptView
  // could not re-propose when the gap was still open).
  PruneStaleLocks();
  auto lk = locks_.find(batch.id);
  if (lk != locks_.end() && lk->second.valid &&
      !(lk->second.digest == batch.ComputeDigest())) {
    ReproposeLocked();
    return;
  }
  // Defensive: the pipeline is gated off a slot held by a view-change
  // re-proposal (NodeContext::ReproposalPending), but a competing batch
  // must never displace it — the locked batch may already be decided on
  // another replica. First proposal wins.
  auto existing = instances_.find(batch.id);
  if (existing != instances_.end() && existing->second.has_batch &&
      !(existing->second.digest == batch.ComputeDigest())) {
    return;
  }
  auto [it, inserted] = instances_.try_emplace(batch.id, config.merkle_depth);
  Instance& inst = it->second;
  inst.has_batch = true;
  inst.post_tree = std::move(post_tree);
  inst.digest = batch.ComputeDigest();
  inst.batch = batch;
  inst.validated = true;

  // The leader's own certificate share doubles as its prepare vote; the
  // view-bind share rides along (one batched signing pass, no extra
  // signature_op charged).
  storage::BatchCertificate payload =
      CertificatePayloadFor(ctx_->partition(), batch, inst.digest);
  crypto::Signature share = ctx_->Sign(payload.SignedPayload());
  inst.prepare_votes[ctx_->id()] = inst.digest;
  inst.prepare_shares[ctx_->id()] = share;
  inst.view_shares[ctx_->id()] =
      ctx_->Sign(ViewBindPayload(batch.id, inst.digest, view_));
  inst.sent_prepare_vote = true;

  wire::LinearProposeMsg msg;
  msg.view = view_;
  msg.batch = std::move(batch);
  msg.leader_signature = ctx_->Sign(ProposalSignPayload(inst.digest));

  sim::Time done = ctx_->busy_until();
  if (ctx_->byzantine() == ByzantineBehavior::kEquivocate) {
    // Conflicting variants to the two halves of the cluster. Votes carry
    // the digest the voter saw, so neither variant can aggregate a
    // quorum of matching prepare shares at the (leader's own) collector.
    wire::LinearProposeMsg alt = msg;
    alt.batch.ro.timestamp_us += 1;
    crypto::Digest alt_digest = alt.batch.ComputeDigest();
    alt.leader_signature = ctx_->Sign(ProposalSignPayload(alt_digest));
    stats_.messages_sent += SendEquivocatingVariants(
        ctx_, ShareMsg(std::move(msg)), ShareMsg(std::move(alt)), done);
    return;
  }

  BroadcastCounted(ShareMsg(std::move(msg)), done);
  StartViewChangeTimer(inst.batch.id);
  AdvanceConsensus();
}

void LinearVoteConsensus::HandlePropose(sim::ActorId from,
                                        const wire::LinearProposeMsg& msg) {
  if (msg.view != view_) return;
  if (from != ctx_->config().LeaderOf(ctx_->partition(), view_)) return;
  BatchId id = msg.batch.id;
  if (id <= ctx_->mutable_log().LastBatchId()) return;  // Already decided.

  auto [it, inserted] = instances_.try_emplace(id, ctx_->config().merkle_depth);
  Instance& inst = it->second;
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

  // A re-proposal's justification (a prepare QC for this very batch from
  // an earlier view) unlocks replicas whose lock is older; an invalid
  // justification is simply ignored and the lock rule stands. The
  // claimed `justify_view` must be certified by the QC's view-bind
  // quorum — a leader cannot inflate it to defeat a newer honest lock.
  if (msg.has_justify && msg.justify_cert.batch_id == id &&
      msg.justify_cert.batch_digest == digest &&
      msg.justify_cert
          .Verify(ctx_->verifier(), ctx_->config().quorum_size(),
                  ctx_->cluster_members())
          .ok() &&
      msg.justify_view_sigs
          .VerifyQuorum(ctx_->verifier(),
                        ViewBindPayload(id, digest, msg.justify_view),
                        ctx_->config().quorum_size(), ctx_->cluster_members())
          .ok()) {
    inst.has_justify = true;
    inst.justify_view = msg.justify_view;
  }

  StartViewChangeTimer(id);
  AdvanceConsensus();
}

void LinearVoteConsensus::HandleVote(sim::ActorId from,
                                     const wire::LinearVoteMsg& msg) {
  if (msg.view != view_) return;
  if (!IsLeaderSelf()) return;  // Votes aggregate at the leader only.
  if (msg.batch_id <= ctx_->mutable_log().LastBatchId()) return;
  // A vote only counts from a cluster member speaking for itself, about
  // a proposal we actually made: anything else would occupy a vote slot
  // without ever surviving share verification, letting the quorum count
  // overshoot the verifiable shares.
  if (msg.share.signer != from || !IsClusterMember(from)) return;
  auto it = instances_.find(msg.batch_id);
  if (it == instances_.end() || !it->second.has_batch) return;
  Instance& inst = it->second;
  // Verify the share on receipt when it claims our digest, so
  // CountMatchingVotes only ever counts shares that certificate/QC
  // assembly will accept. Votes for a different digest cannot be checked
  // (their payload derives from a batch variant we do not hold); they
  // are kept as evidence of a split but never reach our quorum count.
  if (msg.phase == wire::kLinearPhasePrepare) {
    if (msg.batch_digest == inst.digest &&
        !ctx_->verifier().Verify(
            CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest)
                .SignedPayload(),
            msg.share)) {
      return;
    }
    inst.prepare_votes[from] = msg.batch_digest;
    inst.prepare_shares[from] = msg.share;
    // The view-bind share is verified at QC assembly (CollectVerified-
    // Shares); a bad one just keeps the voter out of the view quorum.
    inst.view_shares[from] = msg.view_share;
  } else {
    if (msg.batch_digest == inst.digest &&
        !ctx_->verifier().Verify(CommitVotePayload(msg.batch_id, inst.digest),
                                 msg.share)) {
      return;
    }
    inst.commit_votes[from] = msg.batch_digest;
    inst.commit_shares[from] = msg.share;
  }
  AdvanceConsensus();
}

void LinearVoteConsensus::HandleQc(sim::ActorId from,
                                   const wire::LinearQcMsg& msg) {
  (void)from;  // QCs are self-certifying: quorums of signatures.
  if (msg.view != view_) return;
  BatchId id = msg.cert.batch_id;
  if (id <= ctx_->mutable_log().LastBatchId()) return;
  // QCs are self-contained, so verify on receipt — a forged QC must be
  // dropped here, never stashed, or it would displace the genuine one
  // (the leader does not resend). At most one digest per batch id can
  // gather a quorum, so a verified QC is the decision of its phase.
  const SystemConfig& config = ctx_->config();
  if (msg.phase == wire::kLinearPhasePrepare) {
    // Certificate quorum AND view-bind quorum: a prepare QC whose view
    // claim is not certified never locks anyone.
    if (!msg.cert
             .Verify(ctx_->verifier(), config.quorum_size(),
                     ctx_->cluster_members())
             .ok() ||
        !msg.view_sigs
             .VerifyQuorum(ctx_->verifier(),
                           ViewBindPayload(id, msg.cert.batch_digest, msg.view),
                           config.quorum_size(), ctx_->cluster_members())
             .ok()) {
      return;
    }
  } else {
    // The commit QC's embedded certificate gets logged and later serves
    // catch-up, which re-verifies it at quorum_size — so demand the full
    // 2f+1 here too (the leader always assembles that many); accepting a
    // thinner-but-valid one would wedge every future catch-up of this
    // entry.
    if (!msg.cert
             .Verify(ctx_->verifier(), config.quorum_size(),
                     ctx_->cluster_members())
             .ok() ||
        !msg.commit_sigs
             .VerifyQuorum(ctx_->verifier(),
                           CommitVotePayload(id, msg.cert.batch_digest),
                           config.quorum_size(), ctx_->cluster_members())
             .ok()) {
      return;
    }
  }
  auto [it, inserted] = instances_.try_emplace(id, config.merkle_depth);
  Instance& inst = it->second;
  if (msg.phase == wire::kLinearPhasePrepare) {
    inst.have_prepare_qc = true;
    inst.certificate = msg.cert;
    inst.qc_view_sigs = msg.view_sigs;
  } else {
    inst.have_commit_qc = true;
    inst.certificate = msg.cert;
    inst.commit_qc_sigs = msg.commit_sigs;
  }
  AdvanceConsensus();
}

// ---------------------------------------------------------------------------
// Phase progression
// ---------------------------------------------------------------------------

void LinearVoteConsensus::AdvanceConsensus() {
  // A usable lock at the first slot past the live instance chain (from
  // an adopted view-change report, possibly landed after a gap filled)
  // is re-proposed before fresh pipeline proposals claim the slot.
  if (IsLeaderSelf()) {
    PruneStaleLocks();
    BatchId free_slot = ctx_->mutable_log().LastBatchId() + 1;
    while (true) {
      auto it = instances_.find(free_slot);
      if (it == instances_.end() || !it->second.has_batch) break;
      ++free_slot;
    }
    auto lk = locks_.find(free_slot);
    if (lk != locks_.end() && lk->second.valid) {
      ReproposeLocked();  // Creates the instance; re-enters this function.
      return;
    }
  }

  // Walk the in-flight window in log order. Each slot validates against
  // the chain of validated predecessors; only the head slot (the log
  // tail + 1) may decide. Deciding re-enters this function through the
  // on_decided hook, so the walk stops right after a decide — the nested
  // call already finished the rest of the window.
  BatchId tail = ctx_->mutable_log().LastBatchId();
  for (BatchId id = tail + 1;; ++id) {
    auto it = instances_.find(id);
    if (it == instances_.end() || !it->second.has_batch) return;
    if (!AdvanceSlot(id, it->second)) return;
  }
}

bool LinearVoteConsensus::AdvanceSlot(BatchId id, Instance& inst) {
  const SystemConfig& config = ctx_->config();

  if (!inst.validated && !inst.validation_failed) {
    ProposalChain chain = ChainUpTo(id);
    Status s =
        ValidateProposedBatch(ctx_, inst.batch, &inst.post_tree, &chain);
    if (!s.ok()) {
      // A correct replica stays silent on an invalid proposal; the
      // progress timer will trigger a view change.
      inst.validation_failed = true;
      return false;
    }
    inst.validated = true;
  }
  // Successors chain off this slot's post-state; an unvalidated slot
  // stops the walk.
  if (inst.validation_failed) return false;

  const crypto::NodeId leader = config.LeaderOf(ctx_->partition(), view_);

  // Replica: prepare vote to the leader — unless a lock on a conflicting
  // batch at this id forbids it and the proposal carries no adequate
  // justification. Stay silent: the progress timer carries the lock into
  // the next view change. (Successors extend the conflicting batch, so
  // the walk stops with it.)
  if (!inst.sent_prepare_vote && LockBlocksVote(inst)) return false;
  if (!inst.sent_prepare_vote) {
    storage::BatchCertificate payload =
        CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest);
    crypto::Signature share = ctx_->Sign(payload.SignedPayload());
    inst.sent_prepare_vote = true;
    wire::LinearVoteMsg msg;
    msg.view = view_;
    msg.batch_id = inst.batch.id;
    msg.phase = wire::kLinearPhasePrepare;
    msg.batch_digest = inst.digest;
    msg.share = share;
    // The view-bind share rides on the same vote (batched signing; no
    // extra signature_op).
    msg.view_share = ctx_->Sign(ViewBindPayload(id, inst.digest, view_));
    SendCounted(leader, ShareMsg(std::move(msg)),
                ctx_->Charge(config.cost.signature_op));
  }

  // Replica: prepare QC (verified on receipt) => commit vote to the
  // leader. A digest mismatch means we hold an equivocation variant the
  // quorum did not certify: stay silent and let the timer force a view
  // change.
  if (inst.have_prepare_qc && !inst.sent_commit_vote &&
      inst.certificate.batch_digest == inst.digest) {
    // Lock before voting commit: the lock survives view adoption, and a
    // commit quorum therefore implies 2f+1 replicas whose view-change
    // messages will force the next leader to re-propose this batch.
    MaybeLockOn(view_, inst);
    crypto::Signature share =
        ctx_->Sign(CommitVotePayload(inst.batch.id, inst.digest));
    inst.sent_commit_vote = true;
    wire::LinearVoteMsg msg;
    msg.view = view_;
    msg.batch_id = inst.batch.id;
    msg.phase = wire::kLinearPhaseCommit;
    msg.batch_digest = inst.digest;
    msg.share = share;
    SendCounted(leader, ShareMsg(std::move(msg)),
                ctx_->Charge(config.cost.signature_op));
  }

  // Replica: commit QC (verified on receipt) => decide — head slot only.
  // A later slot's commit QC buffers in the instance until every
  // predecessor decided (decides are strictly in log order).
  if (inst.have_commit_qc && !inst.decided &&
      inst.certificate.batch_digest == inst.digest &&
      id == ctx_->mutable_log().LastBatchId() + 1) {
    Decide(id);
    return false;
  }

  if (leader == ctx_->id() && LeaderAdvance(id, inst)) return false;
  return true;
}

bool LinearVoteConsensus::LeaderAdvance(BatchId batch_id, Instance& inst) {
  const SystemConfig& config = ctx_->config();

  if (!inst.prepare_qc_sent &&
      CountMatchingVotes(inst.prepare_votes, inst.digest) >= config.quorum_size()) {
    // Aggregate the prepare QC: a batch certificate carrying a quorum of
    // shares (any f+1 subset is the client-facing certificate), plus the
    // view-bind quorum certifying the view it formed in.
    inst.certificate = AssembleCertificateFromShares(
        ctx_, inst.batch, inst.digest, inst.prepare_votes, inst.prepare_shares,
        config.quorum_size());
    if (inst.certificate.signatures.size() < config.quorum_size()) {
      return false;  // A share failed verification; wait for more votes.
    }
    crypto::SignatureSet view_sigs = CollectVerifiedShares(
        ctx_, ViewBindPayload(batch_id, inst.digest, view_),
        inst.prepare_votes, inst.view_shares, inst.digest,
        config.quorum_size());
    if (view_sigs.size() < config.quorum_size()) {
      return false;  // A view-bind share failed; wait for more votes.
    }
    inst.qc_view_sigs = std::move(view_sigs);
    inst.prepare_qc_sent = true;

    // The leader's own commit vote, locking like any other commit voter.
    MaybeLockOn(view_, inst);
    inst.commit_votes[ctx_->id()] = inst.digest;
    inst.commit_shares[ctx_->id()] =
        ctx_->Sign(CommitVotePayload(batch_id, inst.digest));
    inst.sent_commit_vote = true;

    wire::LinearQcMsg msg;
    msg.view = view_;
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
    if (commit_sigs.size() < config.quorum_size()) return false;
    inst.commit_qc_sent = true;

    wire::LinearQcMsg msg;
    msg.view = view_;
    msg.phase = wire::kLinearPhaseCommit;
    msg.cert = inst.certificate;
    msg.commit_sigs = std::move(commit_sigs);
    // Aggregating the commit QC is crypto work like the prepare QC; an
    // uncharged broadcast would skew the engine-comparison bench.
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
    if (batch_id == ctx_->mutable_log().LastBatchId() + 1) {
      Decide(batch_id);
      return true;
    }
    // Out-of-order commit quorum: buffer; the slot decides when its
    // predecessors do.
    inst.have_commit_qc = true;
  }
  return false;
}

void LinearVoteConsensus::Decide(BatchId batch_id) {
  auto it = instances_.find(batch_id);
  if (it == instances_.end() || it->second.decided) return;
  Instance& inst = it->second;
  inst.decided = true;
  Decided decided{std::move(inst.batch), std::move(inst.certificate),
                  std::move(inst.post_tree)};
  instances_.erase(it);
  ++stats_.batches_decided;
  // The hook applies the batch, drives 2PC / read-only follow-ups, and
  // re-enters AdvanceConsensus for the next queued instance.
  hooks_.on_decided(std::move(decided));
}

// ---------------------------------------------------------------------------
// View changes (linear: requests to the prospective leader, QC broadcast)
// ---------------------------------------------------------------------------

void LinearVoteConsensus::StartViewChangeTimer(BatchId batch_id) {
  uint64_t view_at_start = view_;
  ctx_->Schedule(ctx_->config().view_change_timeout,
                 [this, batch_id, view_at_start] {
                   if (view_ != view_at_start) return;
                   if (ctx_->mutable_log().LastBatchId() >= batch_id) {
                     return;  // Decided in time.
                   }
                   RequestViewChange(view_ + 1, batch_id);
                 });
}

void LinearVoteConsensus::RequestViewChange(uint64_t target,
                                            BatchId demanded) {
  if (target <= view_) return;
  crypto::Signature sig = ctx_->Sign(ViewChangePayload(target));
  crypto::NodeId prospective =
      ctx_->config().LeaderOf(ctx_->partition(), target);
  if (prospective == ctx_->id()) {
    auto& votes = view_change_votes_[target];
    votes[ctx_->id()] = sig;
    if (votes.size() >= ctx_->config().quorum_size()) {
      // Quorum already collected from earlier requests; announce.
      wire::LinearNewViewMsg msg;
      msg.new_view = target;
      for (const auto& [node, s] : votes) msg.proof.Add(s);
      RecordNewViewProof(target, msg.proof);
      BroadcastCounted(ShareMsg(std::move(msg)),
                       ctx_->Charge(ctx_->config().cost.signature_op));
      AdoptView(target);
      return;
    }
  } else {
    wire::LinearViewChangeMsg msg;
    msg.new_view = target;
    msg.last_committed = ctx_->mutable_log().LastBatchId();
    msg.signature = sig;
    // Report every live lock so the prospective leader re-proposes
    // batches that may already be decided elsewhere (safety across the
    // view change) — one report per in-flight slot when pipelining.
    PruneStaleLocks();
    for (const auto& [id, lock] : locks_) {
      if (!lock.valid) continue;
      wire::LinearLockReport report;
      report.view = lock.view;
      report.batch = lock.batch;
      report.cert = lock.cert;
      report.view_sigs = lock.view_sigs;
      if (ctx_->byzantine() == ByzantineBehavior::kInflateLockView) {
        // Claim the lock formed in a much later view, trying to make the
        // new leader prefer it over a genuinely newer honest lock. The
        // view-bind quorum certifies the real view, so honest leaders
        // drop the report.
        report.view += 16;
      }
      msg.locks.push_back(std::move(report));
    }
    SendCounted(prospective, ShareMsg(std::move(msg)),
                ctx_->Charge(ctx_->config().cost.signature_op));
  }
  // If the prospective leader is faulty too, escalate past it after
  // another timeout. Stop as soon as any view change lands or the
  // demanded position decides (e.g. catch-up filled the gap).
  uint64_t view_at_request = view_;
  ctx_->Schedule(ctx_->config().view_change_timeout,
                 [this, target, demanded, view_at_request] {
                   if (view_ != view_at_request) return;
                   if (ctx_->mutable_log().LastBatchId() >= demanded) return;
                   RequestViewChange(target + 1, demanded);
                 });
}

void LinearVoteConsensus::HandleViewChange(
    sim::ActorId from, const wire::LinearViewChangeMsg& msg) {
  uint64_t target = msg.new_view;
  if (ctx_->config().LeaderOf(ctx_->partition(), target) != ctx_->id()) {
    return;  // Misrouted; only the prospective leader aggregates.
  }
  if (!IsClusterMember(from) ||
      !ctx_->verifier().Verify(ViewChangePayload(target), msg.signature) ||
      msg.signature.signer != from) {
    return;  // Forged request or outsider.
  }
  // State transfer for a lagging requester — even when its demanded view
  // is stale: a replica that merely missed decided batches goes quiet
  // once the log (and our latest new-view proof) reach it, with no view
  // change at all.
  ServeCatchUp(from, msg.last_committed);
  if (target <= view_) return;

  // Adopt reported locks that supersede ours, slot by slot. Each
  // certificate must be a genuine prepare QC for the reported batch, and
  // the claimed lock view must be certified by the QC's view-bind quorum
  // — a kInflateLockView replica's exaggerated claim dies here. The
  // re-proposal in AdoptView then carries, per slot, the highest lock
  // seen across the 2f+1 view-change messages.
  PruneStaleLocks();
  for (const wire::LinearLockReport& report : msg.locks) {
    BatchId id = report.batch.id;
    if (id <= ctx_->mutable_log().LastBatchId()) continue;
    auto lk = locks_.find(id);
    if (lk != locks_.end() && lk->second.valid && report.view < lk->second.view) {
      continue;
    }
    crypto::Digest digest = report.batch.ComputeDigest();
    if (report.cert.batch_id != id || !(report.cert.batch_digest == digest) ||
        !report.cert
             .Verify(ctx_->verifier(), ctx_->config().quorum_size(),
                     ctx_->cluster_members())
             .ok() ||
        !report.view_sigs
             .VerifyQuorum(ctx_->verifier(),
                           ViewBindPayload(id, digest, report.view),
                           ctx_->config().quorum_size(),
                           ctx_->cluster_members())
             .ok()) {
      continue;
    }
    Lock& lock = locks_[id];
    lock.valid = true;
    lock.view = report.view;
    lock.batch = report.batch;
    lock.digest = digest;
    lock.cert = report.cert;
    lock.view_sigs = report.view_sigs;
  }

  auto& votes = view_change_votes_[target];
  votes[from] = msg.signature;
  // Join once f+1 distinct replicas demand the change (at least one of
  // them is honest); our own signature completes or advances the quorum.
  if (votes.count(ctx_->id()) == 0 && votes.size() > ctx_->config().f) {
    votes[ctx_->id()] = ctx_->Sign(ViewChangePayload(target));
  }
  if (votes.size() < ctx_->config().quorum_size()) return;

  wire::LinearNewViewMsg announce;
  announce.new_view = target;
  for (const auto& [node, s] : votes) announce.proof.Add(s);
  RecordNewViewProof(target, announce.proof);
  BroadcastCounted(ShareMsg(std::move(announce)),
                   ctx_->Charge(ctx_->config().cost.signature_op));
  AdoptView(target);
}

void LinearVoteConsensus::HandleNewView(sim::ActorId from,
                                        const wire::LinearNewViewMsg& msg) {
  (void)from;  // The proof quorum, not the sender, legitimises the change.
  if (msg.new_view <= view_) return;
  Status quorum = msg.proof.VerifyQuorum(
      ctx_->verifier(), ViewChangePayload(msg.new_view),
      ctx_->config().quorum_size(), ctx_->cluster_members());
  if (!quorum.ok()) return;
  RecordNewViewProof(msg.new_view, msg.proof);
  AdoptView(msg.new_view);
}

void LinearVoteConsensus::RecordNewViewProof(
    uint64_t new_view, const crypto::SignatureSet& proof) {
  if (new_view <= proven_view_) return;
  proven_view_ = new_view;
  view_proof_ = proof;
}

void LinearVoteConsensus::AdoptView(uint64_t target) {
  if (target <= view_) return;
  view_ = target;
  ++stats_.view_changes;
  reproposed_id_ = kNoBatch;
  // Undecided proposals from the old view are abandoned (clients retry
  // against the new leader), but the prepare-QC lock survives: it is
  // what lets a batch the old leader may already have decided win again
  // in this view.
  instances_.clear();
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(target));
  hooks_.on_view_adopted();
  if (IsLeaderSelf()) ReproposeLocked();
}

void LinearVoteConsensus::ReproposeLocked() {
  const SystemConfig& config = ctx_->config();
  PruneStaleLocks();

  // Re-propose the contiguous locked prefix from the first undecided
  // slot, skipping slots a live validated instance already owns (e.g. a
  // re-proposal in flight). Stop at the first slot with neither: a lock
  // past a gap stays adopted but waits — the Propose() conflicting-lock
  // guard re-proposes it when the chain reaches its slot. (Safe: a slot
  // decided anywhere implies a commit quorum — hence 2f+1 locks — on it
  // and its decided predecessors, so no gap sits below a decided slot.)
  bool proposed_any = false;
  BatchId last = kNoBatch;
  for (BatchId id = ctx_->mutable_log().LastBatchId() + 1;; ++id) {
    auto it = instances_.find(id);
    if (it != instances_.end() && it->second.has_batch) {
      if (!it->second.validated) break;
      last = id;
      continue;  // Slot already owned; keep walking the prefix.
    }
    auto lk = locks_.find(id);
    if (lk == locks_.end() || !lk->second.valid) break;
    const Lock& lock = lk->second;

    auto [slot, inserted] = instances_.try_emplace(id, config.merkle_depth);
    Instance& inst = slot->second;
    inst.has_batch = true;
    inst.batch = lock.batch;
    inst.digest = lock.digest;
    ProposalChain chain = ChainUpTo(id);
    Status s =
        ValidateProposedBatch(ctx_, inst.batch, &inst.post_tree, &chain);
    if (!s.ok()) {
      // Deterministic re-validation of a quorum-certified batch against
      // the same log prefix cannot fail; treat it like any other invalid
      // proposal (silence + timer) if it somehow does.
      inst.validation_failed = true;
      break;
    }
    inst.validated = true;

    // The leader's own certificate share doubles as its prepare vote;
    // the view-bind share rides along.
    storage::BatchCertificate payload =
        CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest);
    inst.prepare_votes[ctx_->id()] = inst.digest;
    inst.prepare_shares[ctx_->id()] = ctx_->Sign(payload.SignedPayload());
    inst.view_shares[ctx_->id()] =
        ctx_->Sign(ViewBindPayload(id, inst.digest, view_));
    inst.sent_prepare_vote = true;

    wire::LinearProposeMsg msg;
    msg.view = view_;
    msg.batch = inst.batch;
    msg.leader_signature = ctx_->Sign(ProposalSignPayload(inst.digest));
    msg.has_justify = true;
    msg.justify_view = lock.view;
    msg.justify_cert = lock.cert;
    msg.justify_view_sigs = lock.view_sigs;
    BroadcastCounted(ShareMsg(std::move(msg)),
                     ctx_->Charge(config.cost.signature_op));
    proposed_any = true;
    last = id;
  }
  if (!proposed_any) return;
  // Gate the pipeline until the whole re-proposed prefix decides.
  if (reproposed_id_ == kNoBatch || last > reproposed_id_) {
    reproposed_id_ = last;
  }
  StartViewChangeTimer(last);
  AdvanceConsensus();
}

// ---------------------------------------------------------------------------
// Catch-up (decided-batch state transfer to lagging replicas)
// ---------------------------------------------------------------------------

void LinearVoteConsensus::ServeCatchUp(crypto::NodeId to, BatchId peer_last) {
  const storage::SmrLog& log = ctx_->mutable_log();
  if (to == ctx_->id() || peer_last >= log.LastBatchId()) return;
  sim::Time at = ctx_->busy_until();
  // The log only reaches back to the history horizon (TruncateHistory
  // drops entries below the snapshot base): serve the retained suffix
  // and stamp every message with the floor, so a peer lagging below it
  // learns the gap is unfillable by transfer and must recover from
  // durable storage.
  BatchId start = std::max(peer_last + 1, log.FirstBatchId());
  for (BatchId id = start; id <= log.LastBatchId(); ++id) {
    auto entry = log.Get(id);
    if (!entry.ok()) return;
    wire::LinearCatchUpMsg msg;
    msg.batch = entry.value()->batch;
    msg.cert = entry.value()->certificate;
    msg.view = proven_view_;
    msg.view_proof = view_proof_;
    msg.first_retained = log.FirstBatchId();
    SendCounted(to, ShareMsg(std::move(msg)), at);
  }
}

bool LinearVoteConsensus::ApplyCatchUpEntry(
    const storage::Batch& batch, const storage::BatchCertificate& cert) {
  const SystemConfig& config = ctx_->config();
  crypto::Digest digest = batch.ComputeDigest();
  if (cert.batch_id != batch.id || !(cert.batch_digest == digest) ||
      !cert.Verify(ctx_->verifier(), config.quorum_size(),
                   ctx_->cluster_members())
           .ok()) {
    return false;
  }
  // Quorum certification replaces the Definition 3.1 re-checks (and the
  // freshness window, which old batches legitimately fail by now), but
  // the Merkle root must still reproduce from our own state.
  ctx_->Charge(config.cost.signature_op +
               ctx_->BatchComputeCost({batch.TotalTransactions()},
                                      config.cost.validate_per_txn));
  // Replay against the decided tree, not the applied one: under async
  // apply the log tail is ahead of storage, and this entry chains off
  // the last *decided* batch's post-state.
  merkle::MerkleTree post_tree = ctx_->decided_tree().Clone();
  ApplyBatchWritesToTree(&post_tree, ctx_->partition_map(), ctx_->partition(),
                         batch, ctx_->prepared_batches());
  if (post_tree.RootDigest() != batch.ro.merkle_root) return false;

  auto [it, inserted] = instances_.try_emplace(batch.id, config.merkle_depth);
  Instance& inst = it->second;
  inst.has_batch = true;
  inst.batch = batch;
  inst.digest = digest;
  inst.certificate = cert;
  inst.post_tree = std::move(post_tree);
  inst.validated = true;
  Decide(batch.id);
  return true;
}

void LinearVoteConsensus::HandleCatchUp(sim::ActorId from,
                                        const wire::LinearCatchUpMsg& msg) {
  (void)from;  // The certificate, not the sender, carries the authority.
  // Adopt the sender's view first when its proof checks out, so voting
  // resumes in the view the cluster actually runs.
  if (msg.view > view_ &&
      msg.view_proof
          .VerifyQuorum(ctx_->verifier(), ViewChangePayload(msg.view),
                        ctx_->config().quorum_size(), ctx_->cluster_members())
          .ok()) {
    RecordNewViewProof(msg.view, msg.view_proof);
    AdoptView(msg.view);
  }
  BatchId next = ctx_->mutable_log().LastBatchId() + 1;
  if (msg.batch.id > next) {
    if (msg.first_retained > next) {
      // The sender truncated below our gap: no transfer can ever fill
      // it, so parking this entry would leak it forever. Recovery from
      // durable storage (System::RestartReplica) is the only way back.
      return;
    }
    // Jitter reordered the transfer; hold until predecessors arrive.
    pending_catchup_.emplace(msg.batch.id,
                             std::make_pair(msg.batch, msg.cert));
    return;
  }
  if (msg.batch.id < next) return;  // Already decided.
  if (!ApplyCatchUpEntry(msg.batch, msg.cert)) return;
  for (auto it = pending_catchup_.begin(); it != pending_catchup_.end();) {
    BatchId want = ctx_->mutable_log().LastBatchId() + 1;
    if (it->first < want) {
      it = pending_catchup_.erase(it);
    } else if (it->first == want &&
               ApplyCatchUpEntry(it->second.first, it->second.second)) {
      it = pending_catchup_.erase(it);
    } else {
      break;
    }
  }
  // Proposal instances the transfer overtook are settled; drop them.
  instances_.erase(instances_.begin(),
                   instances_.upper_bound(ctx_->mutable_log().LastBatchId()));
  AdvanceConsensus();
}

}  // namespace transedge::core
