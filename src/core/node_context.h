#ifndef TRANSEDGE_CORE_NODE_CONTEXT_H_
#define TRANSEDGE_CORE_NODE_CONTEXT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "crypto/signer.h"
#include "merkle/merkle_tree.h"
#include "sim/actor.h"
#include "sim/time.h"
#include "storage/partition_map.h"
#include "storage/smr_log.h"
#include "storage/versioned_store.h"
#include "txn/prepared_batches.h"
#include "wire/message.h"

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
  virtual bool ReproposalPending() const = 0;
  virtual ByzantineBehavior byzantine() const = 0;

  // --- Simulated clock & CPU ---------------------------------------------
  virtual sim::Time now() const = 0;
  /// Books `cost` on the worker that runs the current handler, and
  /// returns its completion time: the read worker for the read tier, the
  /// protocol CPU for everything else. The node picks the worker
  /// (TransEdgeNode::WorkerFor); engines never name one.
  virtual sim::Time Charge(sim::Time cost) = 0;
  /// Completion time of all work booked on that same worker.
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
  /// The replica's one state: the store and the Merkle tree hold every
  /// decided batch, installed at decide time. Client-facing reads go
  /// through `ReadApplied` and `CertifiedReads`, which answer as of
  /// `last_applied()`.
  virtual const storage::VersionedStore& store() const = 0;
  /// The Merkle tree after the log tail. Validation, proposal sealing
  /// and catch-up chain from it.
  virtual const merkle::MerkleTree& tree() const = 0;
  /// The certified log; the node's install step is its one writer.
  virtual const storage::SmrLog& log() const = 0;
  /// The prepare groups and their footprint (Definition 3.1, rule 3).
  /// Engines only record 2PC decisions; the install step does the rest.
  virtual txn::PreparedBatches& prepared_batches() = 0;
  virtual const storage::PartitionMap& partition_map() const = 0;

  /// The ONE authoritative history horizon: Merkle snapshots, key-version
  /// history, and log-entry retention are all bounded below by this id
  /// (StorageBackend::TruncateHistory is driven with it), so historical
  /// serving — including the RO service's out-of-window floor — must
  /// floor here, never at a structure-specific notion of "oldest". It is
  /// the base of the sliding window of per-batch Merkle snapshots under
  /// every backend.
  virtual BatchId history_horizon() const = 0;
  /// The Merkle snapshot of a batch in the window, for historical
  /// (second-round) reads. Requires `batch_id >= history_horizon()`.
  virtual const merkle::MerkleTree::Snapshot& SnapshotAt(
      BatchId batch_id) const = 0;

  // --- Applied watermark -------------------------------------------------
  /// Highest batch whose apply charge has completed; kNoBatch before the
  /// first. Clients see a batch once it is applied: every client-facing
  /// read answers as of this batch. Trails `log().LastBatchId()` while
  /// the apply worker's charges run.
  virtual BatchId last_applied() const = 0;

  /// Number of proposed-but-undecided consensus instances in flight. A
  /// leader proposes only when it is 0, so the next batch always takes
  /// the slot after the log tail and chains from `tree()`.
  virtual size_t ConsensusInFlight() const = 0;

  // --- Shared helpers (implemented on top of the virtuals) -----------------
  /// True when this partition owns `key`.
  bool Owns(const Key& key) const {
    return partition_map().OwnerOf(key) == partition();
  }

  /// Calls `fn` on the log entry of each decided batch whose apply has
  /// not completed, in log order. A view change abandons no transaction
  /// these carry: each is answered when its batch applies, whatever the
  /// view.
  void ForEachUnappliedBatch(
      const std::function<void(const storage::LogEntry&)>& fn) const;

  /// Simulated cost of one pass of per-batch work over `n` transactions:
  /// the fixed batch overhead, `per_txn` per transaction, and the
  /// superlinear pressure term quad(n) (conflict-index churn, Merkle
  /// churn, serialization). The leader's proposal seal, follower
  /// re-validation, catch-up replay and the storage apply each charge
  /// it once per batch with their own `per_txn` rate.
  sim::Time BatchComputeCost(size_t n, sim::Time per_txn) const;

  /// Rule 1 of Definition 3.1: every read of `txn` of a key this
  /// partition owns must still be at the latest version in the store. The
  /// store holds every decided batch, a pure function of the log, so
  /// every replica reaches the same verdict however far its apply lags.
  Status CheckReadVersions(const Transaction& txn) const;

  /// Single-key read as of `last_applied()` (the read-write read phase
  /// and Augustus). Before the first apply it sees the preloaded state,
  /// version 0.
  Result<storage::VersionedValue> ReadApplied(const Key& key) const;

  /// Certified (value, version, proof) entries for `keys` at `batch_id`,
  /// provable against that batch's certified root: round-1 and round-2
  /// replies, and every watch delta. Requires
  /// `history_horizon() <= batch_id <= last_applied()`.
  std::vector<wire::AuthenticatedRead> CertifiedReads(
      BatchId batch_id, const std::vector<Key>& keys) const;

  /// Sends a CommitReply to `client`. `retryable` marks aborts the client
  /// should transparently re-issue against the next leader (e.g. a view
  /// change abandoning undecided admissions) rather than surface.
  void ReplyCommit(sim::ActorId client, TxnId txn_id, bool committed,
                   const std::string& reason, sim::Time at,
                   bool retryable = false);
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_NODE_CONTEXT_H_
