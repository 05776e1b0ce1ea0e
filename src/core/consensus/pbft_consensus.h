#ifndef TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_
#define TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_

#include <map>
#include <set>

#include "core/consensus/consensus.h"
#include "wire/message.h"

namespace transedge::core {

/// PBFT-style intra-cluster consensus on batches (§3.2) — the paper's
/// protocol and the default `ConsensusKind::kPbft` engine: PrePrepare /
/// Prepare / Commit voting on one batch at a time with all-to-all vote
/// broadcasts (O(n²) messages per decided batch), batch re-validation
/// against Definition 3.1 and the read-only segment rules, certificate
/// assembly from the prepare-phase shares, and symmetric broadcast view
/// changes.
class PbftConsensus : public Consensus {
 public:
  PbftConsensus(NodeContext* ctx, Hooks hooks);

  uint64_t view() const override { return view_; }
  void Propose(storage::Batch batch, merkle::MerkleTree post_tree) override;
  bool OnMessage(sim::ActorId from, const sim::Message& msg) override;
  void AdvanceConsensus() override;
  void StartViewChangeTimer(BatchId batch_id) override;
  const Stats& stats() const override { return stats_; }
  /// Undecided proposals past the log tail. PBFT keeps the Consensus
  /// default MaxPipelineDepth() == 1 (one batch at a time), so this is
  /// 0 or 1 outside of queued out-of-order proposals.
  size_t InFlight() const override;

 private:
  struct ConsensusInstance {
    bool has_batch = false;
    storage::Batch batch;
    crypto::Digest digest;
    bool validated = false;
    bool validation_failed = false;
    merkle::MerkleTree post_tree;  // Tree with the batch's writes applied.
    /// Votes carry the digest the voter saw, so an equivocating leader's
    /// two batch variants split the vote and neither reaches quorum.
    std::map<crypto::NodeId, crypto::Digest> prepare_votes;
    std::map<crypto::NodeId, crypto::Digest> commit_votes;
    std::map<crypto::NodeId, crypto::Signature> cert_shares;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool decided = false;

    explicit ConsensusInstance(int merkle_depth) : post_tree(merkle_depth) {}
  };

  void HandlePrePrepare(sim::ActorId from, const wire::PrePrepareMsg& msg);
  void HandlePrepare(sim::ActorId from, const wire::PrepareMsg& msg);
  void HandleCommit(sim::ActorId from, const wire::CommitMsg& msg);
  void HandleViewChange(sim::ActorId from, const wire::ViewChangeMsg& msg);

  void InitiateViewChange(uint64_t new_view);
  void MaybeAdoptView(uint64_t target);

  /// Network sends with the engine's message counter maintained.
  void SendCounted(crypto::NodeId to, const sim::MessagePtr& msg,
                   sim::Time at);
  void BroadcastCounted(const sim::MessagePtr& msg, sim::Time at);

  NodeContext* ctx_;
  Hooks hooks_;

  uint64_t view_ = 0;
  std::map<BatchId, ConsensusInstance> instances_;
  std::map<uint64_t, std::set<crypto::NodeId>> view_change_votes_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_
