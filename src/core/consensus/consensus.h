#ifndef TRANSEDGE_CORE_CONSENSUS_CONSENSUS_H_
#define TRANSEDGE_CORE_CONSENSUS_CONSENSUS_H_

#include <functional>
#include <memory>

#include "core/node_context.h"
#include "merkle/merkle_tree.h"
#include "storage/batch.h"

namespace transedge::core {

/// Abstract intra-cluster consensus on batches (§3.2).
///
/// TransEdge's contribution — commit-free authenticated read-only
/// transactions — only needs *a* certified batch log: every engine must
/// (a) decide batches in log order, exactly once per position, and
/// (b) hand each decided batch to `Hooks::on_decided` together with a
/// `storage::BatchCertificate` carrying at least f+1 replica signatures
/// over the standard certificate payload (partition, batch id, batch
/// digest, Merkle root, read-only-segment digest). Clients, 2PC proofs,
/// and the read-only verification path consume only that certificate,
/// so engines are interchangeable underneath them.
///
/// The engine owns the view number: leadership
/// (`SystemConfig::LeaderOf`) is a pure function of (partition, view),
/// and the hosting node consults the engine's view for routing. The
/// engine never applies state itself — the `on_decided` hook wires it to
/// the storage stack and the other subsystem engines.
///
/// Engines are selected by `SystemConfig::consensus_kind` through
/// `MakeConsensus`. Both derive from `ViewChangeConsensus`
/// (view_change.h), the one view-change protocol they share: locks on
/// 2f+1 prepare QCs, the new-view proof, re-proposal of locked batches,
/// and catch-up of lagging replicas. Each keeps only its voting pattern:
///
///   - `PbftConsensus` (pbft_consensus.h): PBFT-style all-to-all voting,
///     O(n²) messages per decided batch.
///   - `LinearVoteConsensus` (linear_vote_consensus.h): HotStuff-style
///     leader-aggregated two-phase voting with broadcast quorum
///     certificates, O(n) messages per phase.
class Consensus {
 public:
  struct Stats {
    uint64_t batches_decided = 0;
    uint64_t view_changes = 0;
    /// Protocol messages this engine handed to the network (proposals,
    /// votes, quorum certificates, view changes). The bench harness
    /// divides by `batches_decided` to compare message complexity
    /// across engines.
    uint64_t messages_sent = 0;
  };

  /// A batch that reached a decision quorum, ready to be applied.
  struct Decided {
    storage::Batch batch;
    storage::BatchCertificate certificate;
    merkle::MerkleTree post_tree;
  };

  struct Hooks {
    /// Fired exactly once per decided batch, in log order. The handler
    /// installs the batch and drives all follow-up work (2PC, parked
    /// read-only requests, re-proposals).
    std::function<void(Decided)> on_decided;
    /// Fired after the engine adopts a higher view; the handler resets
    /// leader-side batching and coordination state.
    std::function<void()> on_view_adopted;
  };

  virtual ~Consensus() = default;

  /// The engine's current view; leadership follows from it.
  virtual uint64_t view() const = 0;

  /// Leader path: signs and broadcasts `batch` as the next proposal and
  /// seeds the local instance with the leader's own vote. `post_tree` is
  /// the batch's post-state tree computed by the batch pipeline.
  virtual void Propose(storage::Batch batch, merkle::MerkleTree post_tree) = 0;

  /// Typed message dispatch: consumes `msg` when it is one of this
  /// engine's protocol messages and returns true; returns false (without
  /// side effects) otherwise. The hosting node routes every message it
  /// does not handle itself through this seam, so an engine's wire
  /// surface is private to the engine.
  virtual bool OnMessage(sim::ActorId from, const sim::Message& msg) = 0;

  /// Re-evaluates the instance for the next undecided batch id:
  /// validates a pending proposal, emits our votes, and decides when
  /// quorums are reached. Also called by the node after each applied
  /// batch to advance the next queued instance.
  virtual void AdvanceConsensus() = 0;

  /// Demands progress on `batch_id`: if the log has not reached it when
  /// the timer fires (in the same view), a view change is initiated.
  virtual void StartViewChangeTimer(BatchId batch_id) = 0;

  /// True while the engine itself occupies the next log position with a
  /// view-change re-proposal (a batch carried over from the previous
  /// view for safety). The batch pipeline must not build a competing
  /// proposal for that id; it resumes once the re-proposal decides.
  virtual bool HasPendingReproposal() const = 0;

  /// Number of proposed-but-undecided instances currently in flight
  /// (ids above the log tail that carry a proposal). The batch pipeline
  /// proposes only while `InFlight() == 0`: one batch in flight.
  virtual size_t InFlight() const = 0;

  virtual const Stats& stats() const = 0;
};

/// Builds the engine selected by `ctx->config().consensus_kind`.
std::unique_ptr<Consensus> MakeConsensus(NodeContext* ctx,
                                         Consensus::Hooks hooks);

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CONSENSUS_CONSENSUS_H_
