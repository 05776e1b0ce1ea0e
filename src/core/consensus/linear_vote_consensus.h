#ifndef TRANSEDGE_CORE_CONSENSUS_LINEAR_VOTE_CONSENSUS_H_
#define TRANSEDGE_CORE_CONSENSUS_LINEAR_VOTE_CONSENSUS_H_

#include <map>
#include <utility>

#include "core/consensus/consensus.h"
#include "wire/message.h"

namespace transedge::core {

/// HotStuff-style leader-aggregated consensus (ConsensusKind::kLinearVote):
/// two voting phases with O(n) messages each instead of PBFT's O(n²)
/// all-to-all broadcasts.
///
///   1. The leader broadcasts LinearProposeMsg (the batch).
///   2. Replicas re-validate (Definition 3.1, same checks as the PBFT
///      engine) and send a prepare vote *to the leader*. The vote's
///      share signs `BatchCertificate::SignedPayload()`, so the
///      aggregated quorum certificate is byte-compatible with the f+1
///      client certificate every other subsystem consumes.
///   3. On 2f+1 matching prepare shares the leader broadcasts the
///      prepare QC (a BatchCertificate carrying the quorum of shares).
///   4. Replicas verify the QC and send a commit vote to the leader
///      (share over the commit-vote payload).
///   5. On 2f+1 matching commit shares the leader broadcasts the commit
///      QC and decides; replicas decide on receipt. The commit QC
///      repeats the prepare certificate, so deciding does not depend on
///      having seen step 3.
///
/// View changes are linear too: a replica whose progress timer fires
/// sends a signed LinearViewChangeMsg to the *prospective* leader of the
/// next view; that leader aggregates 2f+1 signatures and broadcasts a
/// LinearNewViewMsg carrying the quorum of view-change signatures, which
/// every replica adopts on verification. If the prospective leader is
/// itself faulty, the initiator escalates to the following view after
/// another timeout (and stops once the demanded log position decides).
///
/// Safety across view changes (the lock rule): a replica *locks* on the
/// prepare QC before casting a commit vote, and the lock survives view
/// adoption. View-change messages report the lock (batch + QC + the
/// view it formed in); the new leader adopts the highest-view lock among
/// its 2f+1 view-change messages and re-proposes that batch — with the
/// QC as justification — before accepting pipeline proposals for the
/// position. A locked replica refuses to prepare-vote a conflicting
/// batch at the locked id unless the proposal is justified by a QC from
/// a view >= its lock view. A commit QC implies 2f+1 locked replicas,
/// so every view-change quorum overlaps an honest lock report and a
/// batch that may have been decided anywhere is the only batch a later
/// view can decide at that position.
///
/// Catch-up: a LinearViewChangeMsg whose `last_committed` trails the
/// recipient's log is answered with LinearCatchUpMsg per missing entry
/// (decided batch + quorum certificate + the sender's new-view proof),
/// so a replica that missed commit QCs or whole views rejoins without
/// forcing a view change.
///
/// Pipelining (chained instances): the engine runs up to
/// `SystemConfig::pipeline_depth` consensus instances concurrently.
/// Slot k+1 validates against the chain of in-flight post-states (the
/// predecessors' batches count as part of the batch window, their
/// post-trees are the Merkle base), collects prepare votes while slot
/// k's commit QC is still in flight, and *decides strictly in log
/// order*: a commit QC for a later slot buffers in its instance until
/// every predecessor has decided. Each slot locks independently
/// (`locks_` is per-slot), and view-change messages report every usable
/// lock so the new leader re-proposes the contiguous locked prefix from
/// the first undecided slot. Locks past a gap in that prefix are kept
/// but not re-proposed (safe: a slot decided anywhere implies a commit
/// quorum — hence 2f+1 locks — on it *and* its decided predecessors, so
/// no gap can sit below a decided slot); their slots are re-filled when
/// the chain reaches them.
///
/// View-bound QCs: prepare votes carry a second signature over the
/// view-bind payload (partition, batch id, digest, view), and the
/// prepare QC carries the aggregated quorum. The view a lock formed in
/// is therefore certified: a byzantine replica inflating its reported
/// lock view (ByzantineBehavior::kInflateLockView), or a byzantine
/// leader inflating a re-proposal justification, fails the view-bind
/// quorum check and the claim is dropped.
class LinearVoteConsensus : public Consensus {
 public:
  LinearVoteConsensus(NodeContext* ctx, Hooks hooks);

  uint64_t view() const override { return view_; }
  void Propose(storage::Batch batch, merkle::MerkleTree post_tree) override;
  bool OnMessage(sim::ActorId from, const sim::Message& msg) override;
  void AdvanceConsensus() override;
  void StartViewChangeTimer(BatchId batch_id) override;
  bool HasPendingReproposal() const override;
  size_t InFlight() const override;
  uint32_t MaxPipelineDepth() const override;
  ProposalChain Chain() override;
  const Stats& stats() const override { return stats_; }

 private:
  struct Instance {
    bool has_batch = false;
    storage::Batch batch;
    crypto::Digest digest;
    bool validated = false;
    bool validation_failed = false;
    merkle::MerkleTree post_tree;  // Tree with the batch's writes applied.

    // Leader-side aggregation. Votes carry the digest the voter saw, so
    // an equivocating leader's two variants split the vote.
    std::map<crypto::NodeId, crypto::Digest> prepare_votes;
    std::map<crypto::NodeId, crypto::Signature> prepare_shares;
    /// View-bind shares riding on the prepare votes (view-signed QCs).
    std::map<crypto::NodeId, crypto::Signature> view_shares;
    std::map<crypto::NodeId, crypto::Digest> commit_votes;
    std::map<crypto::NodeId, crypto::Signature> commit_shares;
    bool prepare_qc_sent = false;
    bool commit_qc_sent = false;

    // Replica-side phase progress.
    bool sent_prepare_vote = false;
    bool sent_commit_vote = false;
    bool have_prepare_qc = false;
    /// Verified re-proposal justification (prepare QC for this batch
    /// from `justify_view`); unlocks conflicting-lock replicas.
    bool has_justify = false;
    uint64_t justify_view = 0;
    /// Commit QC received before the batch finished validating; replayed
    /// by AdvanceConsensus.
    bool have_commit_qc = false;
    /// Commit-QC signature set awaiting verification.
    crypto::SignatureSet commit_qc_sigs;
    /// Client-facing certificate (from own aggregation or a received QC).
    storage::BatchCertificate certificate;
    /// Verified view-bind quorum of the prepare QC (own aggregation or
    /// received); copied into the lock so view claims stay provable.
    crypto::SignatureSet qc_view_sigs;
    bool decided = false;

    explicit Instance(int merkle_depth) : post_tree(merkle_depth) {}
  };

  /// A prepare-QC lock: set before any commit vote is cast, kept across
  /// view adoptions (unlike `instances_`), superseded only by a
  /// higher-view QC for the same slot. One lock per in-flight slot when
  /// pipelining. `view_sigs` is the QC's view-bind quorum, proving
  /// `view` to third parties.
  struct Lock {
    bool valid = false;
    uint64_t view = 0;
    storage::Batch batch;
    crypto::Digest digest;
    storage::BatchCertificate cert;
    crypto::SignatureSet view_sigs;
  };

  void HandlePropose(sim::ActorId from, const wire::LinearProposeMsg& msg);
  void HandleVote(sim::ActorId from, const wire::LinearVoteMsg& msg);
  void HandleQc(sim::ActorId from, const wire::LinearQcMsg& msg);
  void HandleViewChange(sim::ActorId from,
                        const wire::LinearViewChangeMsg& msg);
  void HandleNewView(sim::ActorId from, const wire::LinearNewViewMsg& msg);
  void HandleCatchUp(sim::ActorId from, const wire::LinearCatchUpMsg& msg);

  bool IsLeaderSelf() const {
    return ctx_->config().LeaderOf(ctx_->partition(), view_) == ctx_->id();
  }
  bool IsClusterMember(crypto::NodeId id) const;

  /// Drops locks for slots the log has already decided.
  void PruneStaleLocks();
  /// Adopts (view, inst) as the slot's lock when it is at least as
  /// recent as the current one.
  void MaybeLockOn(uint64_t view, const Instance& inst);
  /// True when a conflicting lock forbids prepare-voting `inst` and the
  /// proposal carries no adequate justification.
  bool LockBlocksVote(const Instance& inst) const;
  /// Leader: re-proposes (with each lock's QC as justification) the
  /// locked slots reachable from the first undecided position — skipping
  /// slots already owned by a live instance, stopping at the first slot
  /// with neither. No-op when the head slot has neither.
  void ReproposeLocked();
  /// Chain context for validating/building slot `id`: the validated
  /// in-flight predecessors in (tail, id) and the newest post-tree.
  ProposalChain ChainUpTo(BatchId id);
  /// Drives one slot's phases (validate, prepare vote, commit vote,
  /// leader aggregation); returns false when the walk over later slots
  /// must stop (validation failed/lock-blocked/slot decided).
  bool AdvanceSlot(BatchId id, Instance& inst);

  /// Sends the log entries past `peer_last` (plus our new-view proof) to
  /// a lagging replica.
  void ServeCatchUp(crypto::NodeId to, BatchId peer_last);
  /// Verifies and decides one transferred log entry; returns false when
  /// the certificate or the replayed Merkle root does not check out.
  bool ApplyCatchUpEntry(const storage::Batch& batch,
                         const storage::BatchCertificate& cert);
  /// Remembers the most recent verified new-view proof for catch-up.
  void RecordNewViewProof(uint64_t new_view,
                          const crypto::SignatureSet& proof);

  /// Bytes a commit-phase vote signs.
  Bytes CommitVotePayload(BatchId batch_id, const crypto::Digest& digest) const;
  /// Bytes a view-bind share signs: ties a prepare QC to the view it
  /// formed in.
  Bytes ViewBindPayload(BatchId batch_id, const crypto::Digest& digest,
                        uint64_t view) const;
  /// Bytes a view-change vote signs.
  Bytes ViewChangePayload(uint64_t new_view) const;

  /// Leader: aggregate prepare/commit quorums and broadcast QCs; decide
  /// on the commit quorum when the slot is the log head (later slots
  /// buffer their commit QC until predecessors decide). Returns true
  /// when the slot decided.
  bool LeaderAdvance(BatchId batch_id, Instance& inst);
  /// Hands the decided batch to the node (exactly once, in log order).
  void Decide(BatchId batch_id);

  /// `demanded` is the log position whose lack of progress triggered the
  /// request; escalation past a faulty prospective leader stops once the
  /// log reaches it.
  void RequestViewChange(uint64_t target, BatchId demanded);
  void AdoptView(uint64_t target);

  void SendCounted(crypto::NodeId to, const sim::MessagePtr& msg,
                   sim::Time at);
  void BroadcastCounted(const sim::MessagePtr& msg, sim::Time at);

  NodeContext* ctx_;
  Hooks hooks_;

  uint64_t view_ = 0;
  std::map<BatchId, Instance> instances_;
  /// Prospective-leader aggregation of view-change signatures.
  std::map<uint64_t, std::map<crypto::NodeId, crypto::Signature>>
      view_change_votes_;
  /// Per-slot prepare-QC locks (slot id -> lock).
  std::map<BatchId, Lock> locks_;
  /// Newest position of an in-flight view-change re-proposal; the
  /// pipeline is gated off new proposals until the whole re-proposed
  /// prefix decides (NodeContext::ReproposalPending).
  BatchId reproposed_id_ = kNoBatch;
  /// Most recent verified new-view proof, piggybacked on catch-up so a
  /// replica that missed the announcement can adopt the view.
  uint64_t proven_view_ = 0;
  crypto::SignatureSet view_proof_;
  /// Out-of-order catch-up entries awaiting their predecessors.
  std::map<BatchId, std::pair<storage::Batch, storage::BatchCertificate>>
      pending_catchup_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_LINEAR_VOTE_CONSENSUS_H_
