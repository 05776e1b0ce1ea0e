#ifndef TRANSEDGE_CORE_NODE_CONTEXT_H_
#define TRANSEDGE_CORE_NODE_CONTEXT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/footprint_index.h"
#include "crypto/signer.h"
#include "merkle/merkle_tree.h"
#include "sim/actor.h"
#include "sim/time.h"
#include "storage/partition_map.h"
#include "storage/smr_log.h"
#include "storage/versioned_store.h"
#include "txn/prepared_batches.h"

namespace transedge::core {

/// Fault-injection behaviours for byzantine tests. All of them operate
/// strictly with the node's own signing capability — a byzantine node can
/// lie about content but cannot forge other nodes' signatures.
enum class ByzantineBehavior {
  kNone,
  /// Leader tampers with the value bytes of read-only responses; clients
  /// must detect this through Merkle verification.
  kTamperReadValue,
  /// Leader serves read-only responses from an old (but certified)
  /// snapshot; detectable only through the freshness window (§4.4.2).
  kStaleSnapshot,
  /// Leader proposes different batches to different halves of the
  /// cluster; consensus must not certify either.
  kEquivocate,
  /// Crash-stop: the node ignores all input.
  kCrash,
  /// During view changes the replica reports its prepare-QC lock with an
  /// inflated view number, trying to make the new leader prefer its
  /// (possibly stale) batch over a genuinely newer lock. Defeated by the
  /// view signatures embedded in prepare QCs.
  kInflateLockView,
};

/// The leader's view of the proposal chain while consensus instances are
/// pipelined: the id the next proposal must take, the proposed-but-not-
/// yet-decided batches in log order, and the Merkle tree positioned
/// after the last of them (the decided tree when none are in flight).
/// Pointers borrow from the consensus engine and are only valid for the
/// duration of the call that obtained them.
struct ProposalChain {
  BatchId next_id = 0;
  std::vector<const storage::Batch*> pending;
  const merkle::MerkleTree* head_tree = nullptr;
};

/// The narrow seam between the replica's subsystem engines and the node
/// that hosts them: identity, simulated clock/CPU, network primitives,
/// signing, and the shared storage stack. Engines (consensus, batching,
/// 2PC, read-only serving, baselines) talk only to this interface and to
/// hooks the node wires at construction — never to each other.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  // --- Identity & topology -----------------------------------------------
  virtual const SystemConfig& config() const = 0;
  virtual crypto::NodeId id() const = 0;
  virtual PartitionId partition() const = 0;
  virtual const std::vector<crypto::NodeId>& cluster_members() const = 0;
  /// Leader status under the node's current view (owned by consensus).
  virtual bool IsLeader() const = 0;
  /// True while the consensus engine holds a view-change re-proposal for
  /// the next log position (Consensus::HasPendingReproposal); the batch
  /// pipeline must not build a competing batch for that slot.
  virtual bool ReproposalPending() const { return false; }
  virtual ByzantineBehavior byzantine() const = 0;

  // --- Simulated clock & CPU ---------------------------------------------
  virtual sim::Time now() const = 0;
  /// Books `cost` on the replica's single CPU; returns completion time.
  virtual sim::Time Charge(sim::Time cost) = 0;
  virtual sim::Time busy_until() const = 0;
  virtual void Schedule(sim::Time delay, std::function<void()> fn) = 0;

  // --- Network -------------------------------------------------------------
  virtual void Send(crypto::NodeId to, const sim::MessagePtr& msg,
                    sim::Time at) = 0;
  virtual void BroadcastToCluster(const sim::MessagePtr& msg,
                                  sim::Time at) = 0;
  /// Sends `msg` to f+1 replicas of cluster `p` (the paper's redundancy
  /// against a malicious receiver dropping 2PC traffic, §3.3.1).
  virtual void SendToCluster(PartitionId p, const sim::MessagePtr& msg,
                             sim::Time at) = 0;

  // --- Crypto ---------------------------------------------------------------
  virtual crypto::Signature Sign(const Bytes& payload) = 0;
  virtual const crypto::Verifier& verifier() const = 0;

  // --- Shared storage stack (owned by the node) ----------------------------
  virtual storage::VersionedStore& mutable_store() = 0;
  virtual storage::SmrLog& mutable_log() = 0;
  virtual txn::PreparedBatches& prepared_batches() = 0;
  virtual const storage::PartitionMap& partition_map() const = 0;
  /// Footprint of prepared-but-undecided distributed transactions (rule 3
  /// of Definition 3.1); shared by admission and batch re-validation.
  virtual FootprintIndex& pending_footprint() = 0;

  /// Sliding window of per-batch Merkle snapshots for historical
  /// (second-round) reads. `SnapshotAt` requires
  /// `batch_id >= snapshot_base()`.
  virtual BatchId snapshot_base() const = 0;
  virtual const merkle::MerkleTree::Snapshot& SnapshotAt(
      BatchId batch_id) const = 0;

  /// The ONE authoritative history horizon: Merkle snapshots, key-version
  /// history, and log-entry retention are all bounded below by this id
  /// (StorageBackend::TruncateHistory is driven with it), so historical
  /// serving — including the RO service's out-of-window floor — must
  /// floor here, never at a structure-specific notion of "oldest". Equals
  /// the snapshot window base under every backend.
  virtual BatchId history_horizon() const { return snapshot_base(); }

  // --- Decided vs. applied watermarks --------------------------------------
  /// Highest batch id whose writes have reached the store and the
  /// applied Merkle tree; kNoBatch before the first apply. Trails
  /// `mutable_log().LastBatchId()` — the *decided* watermark — while the
  /// apply queue drains.
  virtual BatchId last_applied() const = 0;

  /// The Merkle tree positioned after the newest *decided* batch.
  /// Validation, proposal sealing, and catch-up chain from this tree;
  /// read-only serving stays on the applied tree's snapshots.
  virtual const merkle::MerkleTree& decided_tree() = 0;

  /// Number of proposed-but-undecided consensus instances in flight.
  virtual size_t ConsensusInFlight() const { return 0; }

  /// min(config().pipeline_depth, engine's MaxPipelineDepth).
  virtual uint32_t EffectivePipelineDepth() const { return 1; }

  /// Chain state for building the next proposal on top of in-flight
  /// instances; degenerates to (log tail + 1, {}, decided tree) when
  /// nothing is in flight.
  virtual ProposalChain proposal_chain() = 0;

  /// Latest version of `key` in the *decided* log prefix: the applied
  /// store overlaid with the writes of decided-but-unapplied batches.
  /// A pure function of the log, so identical on every replica — unlike
  /// the applied store, whose watermark is timing-dependent once apply
  /// is asynchronous. Read-version checks (admission and batch
  /// re-validation) must resolve through this so all replicas reach the
  /// same verdict on a proposal.
  virtual BatchId LatestDecidedVersion(const Key& key) const = 0;

  // --- Shared helpers (implemented on top of the virtuals) -----------------
  /// Restricts `txn`'s read/write sets to keys owned by this partition.
  Transaction RestrictToPartition(const Transaction& txn) const;

  /// Simulated cost of per-batch work over `shard_sizes` transactions
  /// per admission shard: the fixed and linear terms are paid once, the
  /// superlinear pressure term (conflict-index churn, Definition 3.1
  /// re-checks) per shard — Σᵢ quad(nᵢ). Unsharded work passes one size.
  sim::Time BatchComputeCost(const std::vector<size_t>& shard_sizes,
                             sim::Time per_txn) const;

  /// Simulated cost of applying a decided batch of `batch_size` write
  /// transactions when the write set is carved into `shard_write_loads`
  /// (write ops per apply shard, MerkleTree::LeafShardOf carving). One
  /// shard returns exactly BatchComputeCost({batch_size}, apply_per_txn);
  /// k shards pay the fixed overhead, the variable term scaled by the
  /// slowest shard's share of the write ops, and a per-shard recombine
  /// charge for hashing the shared spine back together.
  sim::Time ShardedApplyCost(size_t batch_size,
                             const std::vector<size_t>& shard_write_loads)
      const;

  /// Rule 1 of Definition 3.1: every read of `txn` must still be at the
  /// latest version, resolved through `LatestDecidedVersion` rather than
  /// the applied store, so every replica reaches the same verdict even
  /// while the apply queue lags.
  Status CheckReadVersions(const Transaction& txn) const;

  /// Sends a CommitReply to `client`. `retryable` marks aborts the client
  /// should transparently re-issue against the next leader (e.g. a view
  /// change abandoning undecided admissions) rather than surface.
  void ReplyCommit(sim::ActorId client, TxnId txn_id, bool committed,
                   const std::string& reason, sim::Time at,
                   bool retryable = false);
};

/// Wraps a wire message for the simulated network.
template <typename T>
std::shared_ptr<const T> ShareMsg(T msg) {
  return std::make_shared<const T>(std::move(msg));
}

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_NODE_CONTEXT_H_
