#include "core/consensus/view_change.h"

#include <algorithm>

#include "core/batch_apply.h"
#include "core/consensus/batch_validation.h"

namespace transedge::core {

ViewChangeConsensus::ViewChangeConsensus(NodeContext* ctx, Hooks hooks)
    : ctx_(ctx), hooks_(std::move(hooks)) {}

void ViewChangeConsensus::SendCounted(crypto::NodeId to,
                                      const sim::MessagePtr& msg,
                                      sim::Time at) {
  ++stats_.messages_sent;
  ctx_->Send(to, msg, at);
}

void ViewChangeConsensus::BroadcastCounted(const sim::MessagePtr& msg,
                                           sim::Time at) {
  stats_.messages_sent += ctx_->cluster_members().size() - 1;
  ctx_->BroadcastToCluster(msg, at);
}

bool ViewChangeConsensus::OnMessage(sim::ActorId from,
                                    const sim::Message& msg) {
  switch (static_cast<wire::MessageType>(msg.type())) {
    case wire::MessageType::kLinearViewChange:
      HandleViewChange(from,
                       static_cast<const wire::LinearViewChangeMsg&>(msg));
      return true;
    case wire::MessageType::kLinearNewView:
      HandleNewView(static_cast<const wire::LinearNewViewMsg&>(msg));
      return true;
    case wire::MessageType::kLinearCatchUp:
      HandleCatchUp(static_cast<const wire::LinearCatchUpMsg&>(msg));
      return true;
    default:
      return OnVotingMessage(from, msg);
  }
}

bool ViewChangeConsensus::IsLeaderSelf() const {
  return ctx_->config().LeaderOf(ctx_->partition(), view_) == ctx_->id();
}

bool ViewChangeConsensus::IsClusterMember(crypto::NodeId id) const {
  const auto& members = ctx_->cluster_members();
  return std::find(members.begin(), members.end(), id) != members.end();
}

bool ViewChangeConsensus::IsCurrentVote(sim::ActorId from, uint64_t view,
                                        BatchId batch_id) const {
  return view == view_ && batch_id > ctx_->log().LastBatchId() &&
         IsClusterMember(from);
}

size_t ViewChangeConsensus::InFlight() const {
  BatchId tail = ctx_->log().LastBatchId();
  size_t n = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst.has_batch && id > tail) ++n;
  }
  return n;
}

bool ViewChangeConsensus::HasPendingReproposal() const {
  return reproposed_id_ != kNoBatch &&
         reproposed_id_ > ctx_->log().LastBatchId();
}

Bytes ViewChangeConsensus::ViewBindPayload(BatchId batch_id,
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

Bytes ViewChangeConsensus::ViewChangePayload(uint64_t new_view) const {
  Encoder enc;
  enc.PutString("transedge-linear-view-change");
  enc.PutU32(ctx_->partition());
  enc.PutU64(new_view);
  return enc.Take();
}

// ---------------------------------------------------------------------------
// Proposals
// ---------------------------------------------------------------------------

void ViewChangeConsensus::Propose(storage::Batch batch,
                                  merkle::MerkleTree post_tree) {
  const crypto::Digest digest = batch.ComputeDigest();
  // A slot we hold a conflicting lock on belongs to the locked batch — it
  // may already be decided on another replica. Re-propose it instead of
  // the fresh batch (covers locks adopted past a gap, which AdoptView
  // could not re-propose when the gap was still open).
  auto lock = locks_.find(batch.id);
  if (lock != locks_.end() && !(lock->second.digest == digest)) {
    MaybeReproposeLock();
    return;
  }
  auto [it, inserted] =
      instances_.try_emplace(batch.id, ctx_->config().merkle_depth);
  Instance& inst = it->second;
  // Defensive: the pipeline is gated off a slot held by a view-change
  // re-proposal (NodeContext::ReproposalPending), but a competing batch
  // must never displace it. First proposal wins.
  if (inst.has_batch && !(inst.digest == digest)) return;
  inst.has_batch = true;
  inst.post_tree = std::move(post_tree);
  inst.digest = digest;
  inst.batch = std::move(batch);
  inst.validated = true;
  CastPrepareVote(inst);
  sim::MessagePtr msg = ProposalMessage(inst, nullptr);

  sim::Time done = ctx_->busy_until();
  if (ctx_->byzantine() == ByzantineBehavior::kEquivocate) {
    // Conflicting variants to the two halves of the cluster: same
    // transactions, different timestamp => different digest. Votes carry
    // the digest the voter saw, so the variants split the vote.
    Instance alt(ctx_->config().merkle_depth);
    alt.batch = inst.batch;
    alt.batch.ro.timestamp_us += 1;
    alt.digest = alt.batch.ComputeDigest();
    CastPrepareVote(alt);
    stats_.messages_sent += SendEquivocatingVariants(
        ctx_, msg, ProposalMessage(alt, nullptr), done);
    return;
  }

  BroadcastCounted(msg, done);
  StartViewChangeTimer(inst.batch.id);
  AdvanceConsensus();
}

ViewChangeConsensus::Instance* ViewChangeConsensus::AcceptProposal(
    sim::ActorId from, uint64_t view, const storage::Batch& batch,
    const crypto::Signature& leader_signature,
    const wire::Justification* justify) {
  if (view != view_) return nullptr;
  if (from != ctx_->config().LeaderOf(ctx_->partition(), view_)) {
    return nullptr;
  }
  BatchId id = batch.id;
  if (id <= ctx_->log().LastBatchId()) return nullptr;  // Decided.

  auto [it, inserted] = instances_.try_emplace(id, ctx_->config().merkle_depth);
  Instance& inst = it->second;
  if (inst.has_batch) return nullptr;  // First proposal wins.

  crypto::Digest digest = batch.ComputeDigest();
  if (!ctx_->verifier().Verify(ProposalSignPayload(digest),
                               leader_signature) ||
      leader_signature.signer != from) {
    return nullptr;  // Forged or corrupted proposal.
  }
  inst.has_batch = true;
  inst.batch = batch;
  inst.digest = digest;

  // A re-proposal's justification (a prepare QC for this very batch from
  // an earlier view) unlocks replicas whose lock is older; an invalid
  // justification is simply ignored and the lock rule stands. The
  // claimed view must be certified by the QC's view-bind quorum — a
  // leader cannot inflate it to defeat a newer honest lock.
  if (justify != nullptr &&
      VerifyPrepareQc(id, digest, justify->view, justify->cert,
                      justify->view_sigs)) {
    inst.has_justify = true;
    inst.justify_view = justify->view;
  }
  StartViewChangeTimer(id);
  return &inst;
}

bool ViewChangeConsensus::Validated(Instance& inst) {
  if (!inst.validated && !inst.validation_failed) {
    Status s = ValidateProposedBatch(ctx_, inst.batch, &inst.post_tree);
    inst.validated = s.ok();
    inst.validation_failed = !s.ok();
  }
  return inst.validated;
}

// ---------------------------------------------------------------------------
// Prepare QCs and locks
// ---------------------------------------------------------------------------

ViewChangeConsensus::PrepareVote ViewChangeConsensus::CastPrepareVote(
    Instance& inst) {
  PrepareVote vote;
  vote.share = ctx_->Sign(
      CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest)
          .SignedPayload());
  vote.view_share =
      ctx_->Sign(ViewBindPayload(inst.batch.id, inst.digest, view_));
  inst.prepare_votes[ctx_->id()] = inst.digest;
  inst.prepare_shares[ctx_->id()] = vote.share;
  inst.view_shares[ctx_->id()] = vote.view_share;
  inst.sent_prepare_vote = true;
  return vote;
}

bool ViewChangeConsensus::RecordPrepareVote(
    sim::ActorId from, Instance& inst, const crypto::Digest& digest,
    const crypto::Signature& share, const crypto::Signature& view_share) {
  // Anything else would occupy a vote slot without ever surviving share
  // verification, letting the quorum count overshoot the usable shares.
  if (share.signer != from || !IsClusterMember(from)) return false;
  if (inst.has_batch && digest == inst.digest &&
      !ctx_->verifier().Verify(
          CertificatePayloadFor(ctx_->partition(), inst.batch, inst.digest)
              .SignedPayload(),
          share)) {
    return false;
  }
  inst.prepare_votes[from] = digest;
  inst.prepare_shares[from] = share;
  // The view-bind share is verified at QC assembly; a bad one just keeps
  // the voter out of the view quorum.
  inst.view_shares[from] = view_share;
  return true;
}

bool ViewChangeConsensus::AssemblePrepareQc(Instance& inst) {
  const size_t quorum = ctx_->config().quorum_size();
  inst.certificate =
      AssembleCertificateFromShares(ctx_, inst.batch, inst.digest,
                                    inst.prepare_votes, inst.prepare_shares);
  if (inst.certificate.signatures.size() < quorum) return false;
  crypto::SignatureSet view_sigs = CollectVerifiedShares(
      ctx_, ViewBindPayload(inst.batch.id, inst.digest, view_),
      inst.prepare_votes, inst.view_shares, inst.digest, quorum);
  if (view_sigs.size() < quorum) return false;
  inst.qc_view_sigs = std::move(view_sigs);
  return true;
}

bool ViewChangeConsensus::VerifyPrepareQc(
    BatchId id, const crypto::Digest& digest, uint64_t view,
    const storage::BatchCertificate& cert,
    const crypto::SignatureSet& view_sigs) const {
  const size_t quorum = ctx_->config().quorum_size();
  return cert.batch_id == id && cert.batch_digest == digest &&
         cert.Verify(ctx_->verifier(), quorum, ctx_->cluster_members())
             .ok() &&
         view_sigs
             .VerifyQuorum(ctx_->verifier(), ViewBindPayload(id, digest, view),
                           quorum, ctx_->cluster_members())
             .ok();
}

void ViewChangeConsensus::LockOn(const Instance& inst) {
  auto [it, inserted] = locks_.try_emplace(inst.batch.id);
  Lock& lock = it->second;
  if (!inserted && lock.qc.view > view_) return;
  lock.digest = inst.digest;
  lock.qc = wire::Justification{view_, inst.certificate, inst.qc_view_sigs};
  lock.batch.reset();  // `inst` holds it.
}

const storage::Batch& ViewChangeConsensus::LockedBatch(BatchId id,
                                                       const Lock& lock) const {
  return lock.batch.has_value() ? *lock.batch : instances_.at(id).batch;
}

bool ViewChangeConsensus::LockBlocksVote(const Instance& inst) const {
  auto it = locks_.find(inst.batch.id);
  if (it == locks_.end() || it->second.digest == inst.digest) return false;
  return !(inst.has_justify && inst.justify_view >= it->second.qc.view);
}

void ViewChangeConsensus::Decide(BatchId batch_id) {
  auto it = instances_.find(batch_id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  Decided decided{std::move(inst.batch), std::move(inst.certificate),
                  std::move(inst.post_tree)};
  instances_.erase(it);
  // Locks exist only past the log tail: a decided slot's lock has done
  // its job.
  locks_.erase(locks_.begin(), locks_.upper_bound(batch_id));
  ++stats_.batches_decided;
  // The hook applies the batch, drives 2PC / read-only follow-ups, and
  // re-enters AdvanceConsensus for the next queued instance.
  hooks_.on_decided(std::move(decided));
}

// ---------------------------------------------------------------------------
// View changes (requests to the prospective leader, new-view broadcast)
// ---------------------------------------------------------------------------

void ViewChangeConsensus::StartViewChangeTimer(BatchId batch_id) {
  uint64_t view_at_start = view_;
  ctx_->Schedule(ctx_->config().view_change_timeout,
                 [this, batch_id, view_at_start] {
                   if (view_ != view_at_start) return;
                   if (ctx_->log().LastBatchId() >= batch_id) {
                     return;  // Decided in time.
                   }
                   RequestViewChange(view_ + 1, batch_id);
                 });
}

void ViewChangeConsensus::RequestViewChange(uint64_t target,
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
      AnnounceView(target, votes);
      return;
    }
  } else {
    wire::LinearViewChangeMsg msg;
    msg.new_view = target;
    msg.last_committed = ctx_->log().LastBatchId();
    msg.signature = sig;
    // Report every live lock so the prospective leader re-proposes
    // batches that may already be decided elsewhere (safety across the
    // view change) — one report per locked slot.
    for (const auto& [id, lock] : locks_) {
      wire::LinearLockReport report;
      report.view = lock.qc.view;
      report.batch = LockedBatch(id, lock);
      report.cert = lock.qc.cert;
      report.view_sigs = lock.qc.view_sigs;
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
                   if (ctx_->log().LastBatchId() >= demanded) return;
                   RequestViewChange(target + 1, demanded);
                 });
}

void ViewChangeConsensus::HandleViewChange(
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

  // Adopt reported locks that supersede ours, slot by slot. Each must be
  // a genuine prepare QC for the reported batch, with the claimed view
  // certified by its view-bind quorum. The re-proposal in AdoptView then
  // carries, per slot, the highest lock seen across the 2f+1 view-change
  // messages.
  for (const wire::LinearLockReport& report : msg.locks) {
    BatchId id = report.batch.id;
    if (id <= ctx_->log().LastBatchId()) continue;
    auto lk = locks_.find(id);
    if (lk != locks_.end() && report.view < lk->second.qc.view) continue;
    crypto::Digest digest = report.batch.ComputeDigest();
    if (!VerifyPrepareQc(id, digest, report.view, report.cert,
                         report.view_sigs)) {
      continue;
    }
    locks_[id] = Lock{digest,
                      wire::Justification{report.view, report.cert,
                                          report.view_sigs},
                      report.batch};
  }

  auto& votes = view_change_votes_[target];
  votes[from] = msg.signature;
  // Join once f+1 distinct members demand the change (at least one of
  // them is honest); our own signature completes or advances the quorum.
  if (votes.count(ctx_->id()) == 0 && votes.size() > ctx_->config().f) {
    votes[ctx_->id()] = ctx_->Sign(ViewChangePayload(target));
  }
  if (votes.size() < ctx_->config().quorum_size()) return;
  AnnounceView(target, votes);
}

void ViewChangeConsensus::AnnounceView(
    uint64_t target,
    const std::map<crypto::NodeId, crypto::Signature>& votes) {
  wire::LinearNewViewMsg msg;
  msg.new_view = target;
  for (const auto& [node, sig] : votes) msg.proof.Add(sig);
  RecordNewViewProof(target, msg.proof);
  BroadcastCounted(ShareMsg(std::move(msg)),
                   ctx_->Charge(ctx_->config().cost.signature_op));
  AdoptView(target);
}

void ViewChangeConsensus::HandleNewView(const wire::LinearNewViewMsg& msg) {
  // The proof quorum, not the sender, legitimises the change.
  if (msg.new_view <= view_) return;
  Status quorum = msg.proof.VerifyQuorum(
      ctx_->verifier(), ViewChangePayload(msg.new_view),
      ctx_->config().quorum_size(), ctx_->cluster_members());
  if (!quorum.ok()) return;
  RecordNewViewProof(msg.new_view, msg.proof);
  AdoptView(msg.new_view);
}

void ViewChangeConsensus::RecordNewViewProof(
    uint64_t new_view, const crypto::SignatureSet& proof) {
  if (new_view <= proven_view_) return;
  proven_view_ = new_view;
  view_proof_ = proof;
}

void ViewChangeConsensus::AdoptView(uint64_t target) {
  if (target <= view_) return;
  view_ = target;
  ++stats_.view_changes;
  reproposed_id_ = kNoBatch;
  // Undecided proposals from the old view are abandoned (clients retry
  // against the new leader), but the prepare-QC lock survives, with its
  // batch: it is what lets a batch the old leader may already have
  // decided win again in this view.
  for (auto& [id, lock] : locks_) {
    if (!lock.batch.has_value()) {
      lock.batch = std::move(instances_.at(id).batch);
    }
  }
  instances_.clear();
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(target));
  hooks_.on_view_adopted();
  MaybeReproposeLock();
}

bool ViewChangeConsensus::MaybeReproposeLock() {
  if (!IsLeaderSelf()) return false;
  const BatchId id = ctx_->log().LastBatchId() + 1;
  auto lk = locks_.find(id);
  if (lk == locks_.end()) return false;
  auto [slot, inserted] =
      instances_.try_emplace(id, ctx_->config().merkle_depth);
  Instance& inst = slot->second;
  if (inst.has_batch) return false;  // A live proposal holds the slot.
  // With no live instance at the slot, the lock holds its batch.
  const Lock& lock = lk->second;
  inst.has_batch = true;
  inst.batch = *lock.batch;
  inst.digest = lock.digest;
  // Deterministic re-validation of a quorum-certified batch against the
  // same log prefix cannot fail; treat it like any other invalid
  // proposal (silence + timer) if it somehow does.
  if (!Validated(inst)) return false;
  CastPrepareVote(inst);
  BroadcastCounted(ProposalMessage(inst, &lock.qc),
                   ctx_->Charge(ctx_->config().cost.signature_op));
  // Gate the pipeline until the re-proposal decides.
  reproposed_id_ = id;
  StartViewChangeTimer(id);
  AdvanceConsensus();
  return true;
}

// ---------------------------------------------------------------------------
// Catch-up (decided-batch state transfer to lagging replicas)
// ---------------------------------------------------------------------------

void ViewChangeConsensus::ServeCatchUp(crypto::NodeId to, BatchId peer_last) {
  const storage::SmrLog& log = ctx_->log();
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

bool ViewChangeConsensus::ApplyCatchUpEntry(
    const storage::Batch& batch, const storage::BatchCertificate& cert) {
  const SystemConfig& config = ctx_->config();
  // Quorum certification replaces the Definition 3.1 re-checks (and the
  // freshness window, which old batches legitimately fail by now), but
  // the Merkle root must still reproduce from our own state.
  ctx_->Charge(config.cost.signature_op +
               ctx_->BatchComputeCost(batch.TotalTransactions(),
                                      config.cost.validate_per_txn));
  // The entry chains off the log tail's post-state.
  merkle::MerkleTree post_tree = ctx_->tree().Clone();
  Status replayed =
      ApplyBatchWritesToTree(&post_tree, ctx_->partition_map(),
                             ctx_->partition(), batch, ctx_->prepared_batches());
  if (!replayed.ok() || post_tree.RootDigest() != batch.ro.merkle_root) {
    return false;
  }

  auto [it, inserted] = instances_.try_emplace(batch.id, config.merkle_depth);
  Instance& inst = it->second;
  inst.has_batch = true;
  inst.batch = batch;
  inst.digest = cert.batch_digest;
  inst.certificate = cert;
  inst.post_tree = std::move(post_tree);
  inst.validated = true;
  Decide(batch.id);
  return true;
}

void ViewChangeConsensus::HandleCatchUp(const wire::LinearCatchUpMsg& msg) {
  // Any sender may transfer; the certificates, not the sender, carry the
  // authority. Adopt the sender's view first when its proof checks out,
  // so voting resumes in the view the cluster actually runs.
  const SystemConfig& config = ctx_->config();
  if (msg.view > view_ &&
      msg.view_proof
          .VerifyQuorum(ctx_->verifier(), ViewChangePayload(msg.view),
                        config.quorum_size(), ctx_->cluster_members())
          .ok()) {
    RecordNewViewProof(msg.view, msg.view_proof);
    AdoptView(msg.view);
  }
  BatchId next = ctx_->log().LastBatchId() + 1;
  if (msg.batch.id < next) return;  // Already decided.
  // Check the QC before the entry can occupy anything: a forged entry
  // parked ahead of the genuine one would shut it out (first entry per
  // id wins), and unchecked entries could grow the map without bound.
  if (msg.cert.batch_id != msg.batch.id ||
      !(msg.cert.batch_digest == msg.batch.ComputeDigest()) ||
      !msg.cert.Verify(ctx_->verifier(), config.quorum_size(),
                       ctx_->cluster_members())
           .ok()) {
    return;
  }
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
  if (!ApplyCatchUpEntry(msg.batch, msg.cert)) return;
  for (auto it = pending_catchup_.begin(); it != pending_catchup_.end();) {
    BatchId want = ctx_->log().LastBatchId() + 1;
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
                   instances_.upper_bound(ctx_->log().LastBatchId()));
  AdvanceConsensus();
}

}  // namespace transedge::core
