#ifndef TRANSEDGE_CORE_CONSENSUS_LINEAR_VOTE_CONSENSUS_H_
#define TRANSEDGE_CORE_CONSENSUS_LINEAR_VOTE_CONSENSUS_H_

#include "core/consensus/view_change.h"

namespace transedge::core {

/// HotStuff-style leader-aggregated consensus (ConsensusKind::kLinearVote):
/// two voting phases with O(n) messages each instead of PBFT's O(n²)
/// all-to-all broadcasts.
///
///   1. The leader broadcasts LinearProposeMsg (the batch).
///   2. Replicas re-validate (Definition 3.1, same checks as the PBFT
///      engine) and send a prepare vote *to the leader*: the certificate
///      share and the view-bind share.
///   3. On 2f+1 matching prepare votes the leader broadcasts the prepare
///      QC (ViewChangeConsensus), which doubles as the client-facing
///      batch certificate.
///   4. Replicas verify the QC, lock on it, and send a commit vote to the
///      leader (share over the commit-vote payload).
///   5. On 2f+1 matching commit shares the leader broadcasts the commit
///      QC and decides; replicas decide on receipt. The commit QC
///      repeats the prepare certificate, so deciding does not depend on
///      having seen step 3.
///
/// View changes, locks, re-proposal and catch-up are the shared protocol
/// of view_change.h. Like PBFT, the engine advances the head slot only
/// (the log tail + 1): a proposal or QC for a later slot waits in its
/// instance until the log reaches it.
class LinearVoteConsensus : public ViewChangeConsensus {
 public:
  LinearVoteConsensus(NodeContext* ctx, Hooks hooks);

  void AdvanceConsensus() override;

 protected:
  bool OnVotingMessage(sim::ActorId from, const sim::Message& msg) override;
  sim::MessagePtr ProposalMessage(const Instance& inst,
                                  const wire::Justification* justify) override;

 private:
  void HandleVote(sim::ActorId from, const wire::LinearVoteMsg& msg);
  void HandleQc(const wire::LinearQcMsg& msg);

  /// Leader: aggregate the head slot's prepare/commit quorums, broadcast
  /// the QCs, and decide on the commit quorum.
  void LeaderAdvance(Instance& inst);

  /// Bytes a commit-phase vote signs.
  Bytes CommitVotePayload(BatchId batch_id, const crypto::Digest& digest) const;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_LINEAR_VOTE_CONSENSUS_H_
