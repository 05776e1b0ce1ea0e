#ifndef TRANSEDGE_CORE_CONSENSUS_VIEW_CHANGE_H_
#define TRANSEDGE_CORE_CONSENSUS_VIEW_CHANGE_H_

#include <map>
#include <optional>
#include <utility>

#include "core/consensus/batch_validation.h"
#include "core/consensus/consensus.h"
#include "wire/message.h"

namespace transedge::core {

/// The view-change protocol both consensus engines share, and the slot
/// bookkeeping under it. `PbftConsensus` and `LinearVoteConsensus`
/// derive from this class and keep only their voting pattern: the
/// proposal message, how votes travel, and when a slot decides.
///
/// Prepare QCs: every engine forms, per slot, 2f+1 matching certificate
/// shares (signing `BatchCertificate::SignedPayload()`, so any f+1 of
/// them is the client certificate) plus 2f+1 view-bind shares over
/// (partition, batch id, digest, view). The view-bind quorum certifies
/// the view the QC formed in. A decided batch is logged with its QC,
/// which is what catch-up serves.
///
/// The lock rule: a replica *locks* on the prepare QC before casting its
/// commit vote, and the lock survives view adoption (unlike the slot
/// instances). A locked replica refuses to prepare-vote a conflicting
/// batch at the locked id unless the proposal is justified by a QC from
/// a view >= its lock view. A commit quorum implies 2f+1 locked
/// replicas, so every view-change quorum overlaps an honest lock report,
/// and a batch that may have been decided anywhere is the only batch a
/// later view can decide at that position.
///
/// View change: a replica whose progress timer fires sends a signed
/// LinearViewChangeMsg, reporting every live lock, to the *prospective*
/// leader of the next view. That leader joins once f+1 cluster members
/// ask, and on 2f+1 signatures broadcasts them as the new-view proof
/// (LinearNewViewMsg), which every replica adopts on verification.
/// Requests from outside the cluster or with a bad signature are
/// dropped. The new leader keeps, per slot, the highest-view lock
/// reported; a reported view must be certified by the QC's view-bind
/// quorum, so an inflated claim (ByzantineBehavior::kInflateLockView)
/// is dropped. It then re-proposes the lock on the slot after its log
/// tail with the lock's QC as justification, one lock at a time: once
/// that slot decides, the lock on the next slot, if any, goes out. The
/// batch pipeline holds off (`HasPendingReproposal`) until the
/// re-proposal decides. If the prospective leader is itself faulty, the
/// requester escalates to the following view after another timeout, and
/// stops once the demanded log position decides.
///
/// Catch-up: a LinearViewChangeMsg whose `last_committed` trails the
/// recipient's log is answered with one LinearCatchUpMsg per missing
/// entry (decided batch + QC + the sender's new-view proof), so a
/// replica that missed decisions or whole views rejoins without forcing
/// a view change. An entry's QC is verified before the entry is applied
/// or parked behind a gap.
///
/// One batch in flight: a leader proposes only after its previous batch
/// decided, and every replica validates and votes only on the slot after
/// its log tail; a proposal that arrives early waits in its instance.
/// Locks are still kept per slot, because replicas that decided
/// different prefixes report locks on different slots, and a new leader
/// may adopt several. A lock past a gap stays adopted; when the log
/// reaches its slot, the leader re-proposes it instead of a fresh batch.
/// This is safe: a slot decided anywhere implies a commit quorum (hence
/// 2f+1 locks) on it *and* on its decided predecessors, so no gap can
/// sit below a decided slot.
///
/// Locking, share checks and view-bind signing charge no simulated CPU,
/// and a fault-free run sends no view-change message.
class ViewChangeConsensus : public Consensus {
 public:
  // Timers capture `this`.
  ViewChangeConsensus(const ViewChangeConsensus&) = delete;
  ViewChangeConsensus& operator=(const ViewChangeConsensus&) = delete;

  uint64_t view() const final { return view_; }
  /// Leader path shared by both engines: signs the leader's prepare
  /// vote, broadcasts the engine's proposal message, and starts the
  /// progress timer. A slot the leader holds a conflicting lock on gets
  /// the locked batch re-proposed instead.
  void Propose(storage::Batch batch, merkle::MerkleTree post_tree) final;
  /// Handles view-change, new-view and catch-up messages; everything
  /// else goes to the engine's `OnVotingMessage`.
  bool OnMessage(sim::ActorId from, const sim::Message& msg) final;
  void StartViewChangeTimer(BatchId batch_id) final;
  bool HasPendingReproposal() const final;
  size_t InFlight() const final;
  const Stats& stats() const final { return stats_; }

 protected:
  /// One log position's consensus state. Both engines vote with the
  /// fields up to `qc_view_sigs`; the rest serve only the linear
  /// engine's leader aggregation and QC receipt.
  struct Instance {
    bool has_batch = false;
    storage::Batch batch;
    crypto::Digest digest;
    bool validated = false;
    bool validation_failed = false;
    merkle::MerkleTree post_tree;  // Tree with the batch's writes applied.
    /// Verified re-proposal justification (a prepare QC for this batch
    /// from `justify_view`); unlocks replicas holding an older lock.
    bool has_justify = false;
    uint64_t justify_view = 0;

    /// Votes carry the digest the voter saw, so an equivocating leader's
    /// two variants split the vote and neither reaches quorum.
    std::map<crypto::NodeId, crypto::Digest> prepare_votes;
    std::map<crypto::NodeId, crypto::Signature> prepare_shares;
    std::map<crypto::NodeId, crypto::Signature> view_shares;
    std::map<crypto::NodeId, crypto::Digest> commit_votes;
    bool sent_prepare_vote = false;
    bool sent_commit_vote = false;
    /// The prepare QC: the batch certificate (also the client-facing
    /// one) and its verified view-bind quorum, which the lock copies so
    /// the view claim stays provable.
    storage::BatchCertificate certificate;
    crypto::SignatureSet qc_view_sigs;

    std::map<crypto::NodeId, crypto::Signature> commit_shares;
    bool prepare_qc_sent = false;
    bool commit_qc_sent = false;
    bool have_prepare_qc = false;
    /// Commit QC received before the slot could decide (not yet the
    /// slot after the log tail, or not yet validated); replayed by
    /// AdvanceConsensus.
    bool have_commit_qc = false;

    explicit Instance(int merkle_depth) : post_tree(merkle_depth) {}
  };

  /// Our prepare vote: the certificate share and the view-bind share.
  struct PrepareVote {
    crypto::Signature share;
    crypto::Signature view_share;
  };

  ViewChangeConsensus(NodeContext* ctx, Hooks hooks);

  // --- The engine's voting pattern -----------------------------------------

  /// Consumes the engine's proposal and vote messages; returns false
  /// for any other type.
  virtual bool OnVotingMessage(sim::ActorId from, const sim::Message& msg) = 0;
  /// The engine's proposal message for `inst`, whose leader prepare vote
  /// is already cast. `justify` is set on a view-change re-proposal.
  virtual sim::MessagePtr ProposalMessage(
      const Instance& inst, const wire::Justification* justify) = 0;

  // --- Steps both voting patterns take -------------------------------------

  /// The fields every proposal message carries (PrePrepareMsg,
  /// LinearProposeMsg): view, batch, leader signature, justification.
  template <class ProposalMsg>
  ProposalMsg SignedProposal(const Instance& inst,
                             const wire::Justification* justify) {
    ProposalMsg msg;
    msg.view = view_;
    msg.batch = inst.batch;
    msg.leader_signature = ctx_->Sign(ProposalSignPayload(inst.digest));
    msg.has_justify = justify != nullptr;
    if (justify != nullptr) msg.justify = *justify;
    return msg;
  }

  bool IsLeaderSelf() const;
  bool IsClusterMember(crypto::NodeId id) const;
  /// True for a vote from a cluster member about an undecided slot of
  /// the current view.
  bool IsCurrentVote(sim::ActorId from, uint64_t view, BatchId batch_id) const;

  /// Replica: the leader-proposal checks (current view, sent by its
  /// leader, past the log tail, first proposal for the slot, valid leader
  /// signature) and the re-proposal justification check. Returns the
  /// slot now holding the batch, with its progress timer started, or
  /// nullptr when the proposal is dropped.
  template <class ProposalMsg>
  Instance* AcceptProposal(sim::ActorId from, const ProposalMsg& msg) {
    return AcceptProposal(from, msg.view, msg.batch, msg.leader_signature,
                          msg.has_justify ? &msg.justify : nullptr);
  }
  Instance* AcceptProposal(sim::ActorId from, uint64_t view,
                           const storage::Batch& batch,
                           const crypto::Signature& leader_signature,
                           const wire::Justification* justify);

  /// Validates `inst`, the slot after the log tail, once (Definition 3.1
  /// against the decided state); false while it is invalid. A correct
  /// replica stays silent on an invalid proposal, and the progress timer
  /// forces a view change.
  bool Validated(Instance& inst);

  /// Signs our prepare vote on `inst` and counts it in the slot's tally.
  PrepareVote CastPrepareVote(Instance& inst);
  /// Counts a prepare vote from `from`, which must be a cluster member
  /// signing for itself. A share that claims the batch we hold is
  /// verified now, so the tally counts only shares the QC can use; a
  /// vote for another digest is kept as evidence of a split but never
  /// reaches our quorum count. Returns false when the vote is dropped.
  bool RecordPrepareVote(sim::ActorId from, Instance& inst,
                         const crypto::Digest& digest,
                         const crypto::Signature& share,
                         const crypto::Signature& view_share);
  /// Assembles the slot's prepare QC at quorum size from the verified
  /// shares of matching votes; false while a share that failed
  /// verification leaves it short (wait for more votes).
  bool AssemblePrepareQc(Instance& inst);
  /// True when `cert` is a quorum certificate for (`id`, `digest`) and
  /// `view_sigs` a view-bind quorum proving it formed in `view`.
  bool VerifyPrepareQc(BatchId id, const crypto::Digest& digest,
                       uint64_t view, const storage::BatchCertificate& cert,
                       const crypto::SignatureSet& view_sigs) const;

  /// Locks on the slot's prepare QC in the current view. Call before
  /// casting a commit vote.
  void LockOn(const Instance& inst);
  /// True when a conflicting lock forbids prepare-voting `inst` and the
  /// proposal carries no adequate justification.
  bool LockBlocksVote(const Instance& inst) const;
  /// Leader: re-proposes the lock on the slot after the log tail, with
  /// its QC as justification, before a fresh proposal can claim the
  /// slot; nothing when no lock or a live proposal holds it. Returns true
  /// when it proposed; AdvanceConsensus then has already run again.
  bool MaybeReproposeLock();

  /// Hands the decided batch and its QC to the node (exactly once, in
  /// log order).
  void Decide(BatchId batch_id);

  /// Cluster sends with the engine's message counter maintained.
  void SendCounted(crypto::NodeId to, const sim::MessagePtr& msg,
                   sim::Time at);
  void BroadcastCounted(const sim::MessagePtr& msg, sim::Time at);

  NodeContext* ctx_;
  std::map<BatchId, Instance> instances_;

 private:
  /// A prepare-QC lock: set before any commit vote is cast, kept across
  /// view adoptions, superseded only by a higher-view QC for the same
  /// slot, dropped when the slot decides. While the slot's instance
  /// lives it holds the locked batch; AdoptView moves the batch here
  /// before it drops the instances.
  struct Lock {
    crypto::Digest digest;
    wire::Justification qc;
    std::optional<storage::Batch> batch;
  };
  const storage::Batch& LockedBatch(BatchId id, const Lock& lock) const;

  void HandleViewChange(sim::ActorId from,
                        const wire::LinearViewChangeMsg& msg);
  void HandleNewView(const wire::LinearNewViewMsg& msg);
  void HandleCatchUp(const wire::LinearCatchUpMsg& msg);

  /// `demanded` is the log position whose lack of progress triggered the
  /// request; escalation past a faulty prospective leader stops once the
  /// log reaches it.
  void RequestViewChange(uint64_t target, BatchId demanded);
  /// Prospective leader: broadcasts the new-view proof and adopts.
  void AnnounceView(uint64_t target,
                    const std::map<crypto::NodeId, crypto::Signature>& votes);
  void AdoptView(uint64_t target);
  /// Remembers the most recent verified new-view proof for catch-up.
  void RecordNewViewProof(uint64_t new_view,
                          const crypto::SignatureSet& proof);

  /// Sends the log entries past `peer_last` (plus our new-view proof) to
  /// a lagging replica.
  void ServeCatchUp(crypto::NodeId to, BatchId peer_last);
  /// Decides one transferred log entry whose QC is already verified;
  /// returns false when the replayed Merkle root does not check out.
  bool ApplyCatchUpEntry(const storage::Batch& batch,
                         const storage::BatchCertificate& cert);

  /// Bytes a view-bind share signs: ties a prepare QC to the view it
  /// formed in.
  Bytes ViewBindPayload(BatchId batch_id, const crypto::Digest& digest,
                        uint64_t view) const;
  /// Bytes a view-change vote signs.
  Bytes ViewChangePayload(uint64_t new_view) const;

  Hooks hooks_;
  Stats stats_;
  uint64_t view_ = 0;
  /// Prospective-leader aggregation of view-change signatures.
  std::map<uint64_t, std::map<crypto::NodeId, crypto::Signature>>
      view_change_votes_;
  /// Per-slot prepare-QC locks (slot id -> lock).
  std::map<BatchId, Lock> locks_;
  /// Position of the in-flight view-change re-proposal; the pipeline is
  /// gated off new proposals until it decides
  /// (NodeContext::ReproposalPending).
  BatchId reproposed_id_ = kNoBatch;
  /// Most recent verified new-view proof, piggybacked on catch-up so a
  /// replica that missed the announcement can adopt the view.
  uint64_t proven_view_ = 0;
  crypto::SignatureSet view_proof_;
  /// Verified catch-up entries awaiting their predecessors.
  std::map<BatchId, std::pair<storage::Batch, storage::BatchCertificate>>
      pending_catchup_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_VIEW_CHANGE_H_
