#ifndef TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_
#define TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_

#include "core/consensus/view_change.h"

namespace transedge::core {

/// PBFT-style intra-cluster consensus on batches (§3.2) — the paper's
/// protocol and the default `ConsensusKind::kPbft` engine: PrePrepare /
/// Prepare / Commit voting on one batch at a time with all-to-all vote
/// broadcasts (O(n²) messages per decided batch) and batch re-validation
/// against Definition 3.1 and the read-only segment rules.
///
/// Each Prepare carries the voter's certificate share and view-bind
/// share. On 2f+1 matching Prepares a replica assembles the prepare QC,
/// locks on it, and broadcasts Commit; on 2f+1 matching Commits it
/// decides and logs the QC as the batch certificate. View changes,
/// locks, re-proposal and catch-up are the shared protocol of
/// view_change.h; a re-proposal is a PrePrepareMsg with a justification.
class PbftConsensus : public ViewChangeConsensus {
 public:
  PbftConsensus(NodeContext* ctx, Hooks hooks);

  /// Advances the head slot only (the log tail + 1).
  void AdvanceConsensus() override;

 protected:
  bool OnVotingMessage(sim::ActorId from, const sim::Message& msg) override;
  sim::MessagePtr ProposalMessage(const Instance& inst,
                                  const wire::Justification* justify) override;

 private:
  void HandlePrePrepare(sim::ActorId from, const wire::PrePrepareMsg& msg);
  void HandlePrepare(sim::ActorId from, const wire::PrepareMsg& msg);
  void HandleCommit(sim::ActorId from, const wire::CommitMsg& msg);
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_PBFT_CONSENSUS_H_
