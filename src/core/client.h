#ifndef TRANSEDGE_CORE_CLIENT_H_
#define TRANSEDGE_CORE_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "txn/cd_vector.h"
#include "core/config.h"
#include "crypto/signer.h"
#include "sim/environment.h"
#include "storage/partition_map.h"
#include "wire/message.h"

namespace transedge::core {

/// Outcome of a read-write transaction (or of a read-only transaction
/// executed as a regular transaction — the 2PC/BFT baseline).
struct RwResult {
  TxnId txn_id = 0;
  bool committed = false;
  std::string reason;
  sim::Time latency = 0;
  /// Values observed during the read phase.
  std::map<Key, std::optional<Value>> reads;
};

/// Outcome of a snapshot read-only transaction (TransEdge's protocol or
/// the Augustus baseline).
struct RoResult {
  Status status;  // Non-OK on authentication failure or timeout.
  int rounds = 1;
  sim::Time latency = 0;
  sim::Time round1_latency = 0;  // Time until round-1 replies verified.
  std::map<Key, std::optional<Value>> values;
  /// Theorem 4.6: must always be false. Counted, never acted on.
  bool needed_third_round = false;
  /// §4.4.2: all replies within the freshness window. Informational: a
  /// stale reply does not fail the read.
  bool fresh = true;
};

/// Client stats for the bench harness.
struct ClientStats {
  uint64_t rw_committed = 0;
  uint64_t rw_aborted = 0;
  uint64_t ro_completed = 0;
  uint64_t ro_two_round = 0;
  uint64_t ro_verification_failures = 0;
  uint64_t ro_third_round_would_be_needed = 0;  // Must stay 0.
  uint64_t timeouts = 0;
};

/// TransEdge client: builds transactions, talks to cluster leaders, and
/// runs the client side of the read-only protocol — Merkle/certificate
/// verification (§4.2) and the dependency check of Algorithm 2 with the
/// targeted second round (§4.3.4).
class Client : public sim::Actor {
 public:
  Client(const SystemConfig& config, crypto::NodeId id,
         sim::Environment* env, const crypto::Verifier* verifier);

  void OnStart() override {}
  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override;

  using RwCallback = std::function<void(RwResult)>;
  using RoCallback = std::function<void(RoResult)>;

  /// Executes a read-write transaction: reads `read_keys` (from the
  /// leaders of the owning partitions), buffers `writes`, then commits
  /// through the coordinator cluster (§3.3.1).
  void ExecuteReadWrite(std::vector<Key> read_keys, std::vector<WriteOp> writes,
                        RwCallback done);

  /// Executes a snapshot read-only transaction over `keys` using the
  /// TransEdge protocol: one authenticated round, plus a targeted second
  /// round when Algorithm 2 detects unsatisfied dependencies.
  void ExecuteReadOnly(std::vector<Key> keys, RoCallback done);

  /// Baseline: runs the same read-only workload as a regular transaction
  /// through 2PC + BFT (the paper's 2PC/BFT comparator, §3.5).
  void ExecuteReadOnlyAsRegular(std::vector<Key> keys, RwCallback done);

  /// Baseline: Augustus-style locking read-only transaction.
  void ExecuteAugustusReadOnly(std::vector<Key> keys, RoCallback done);

  /// Round cap of a read-only transaction under
  /// SystemConfig::strict_ro_rounds.
  static constexpr int kMaxStrictRoRounds = 8;

  crypto::NodeId id() const { return id_; }
  const ClientStats& stats() const { return stats_; }

  /// Ablation knob: disables Algorithm 2 entirely (Merkle verification
  /// only, no cross-partition dependency check, never a second round).
  /// Used by bench_ablation_dependency to show the torn snapshots the
  /// paper's Figure 1 warns about.
  void set_verify_dependencies(bool on) { verify_dependencies_ = on; }

 private:
  /// One read-write transaction, under its transaction id, across every
  /// attempt: a retry resets the attempt where it is.
  struct RwOp {
    std::vector<Key> read_keys;
    std::vector<WriteOp> writes;
    RwCallback done;
    sim::Time start = 0;
    /// This attempt's read phase: the reads answered so far, and the
    /// request ids of the unanswered ones.
    std::map<Key, std::pair<std::optional<Value>, BatchId>> reads;
    std::vector<uint64_t> unanswered_reads;
    bool commit_sent = false;
    int retries_left = 3;
    uint64_t epoch = 0;  // Invalidates stale timeout callbacks.
  };

  /// What one TransEdge read-only request asked.
  struct RoAsk {
    /// Its reply must answer exactly this partition's keys.
    PartitionId partition = 0;
    /// Set for a round-2 request (RoBatchRequest::min_lce).
    std::optional<BatchId> min_lce;
  };

  struct RoOp {
    RoCallback done;
    sim::Time start = 0;
    int rounds = 1;
    /// partition -> keys of that partition.
    std::map<PartitionId, std::vector<Key>> by_partition;
    /// Unanswered TransEdge request id -> what it asked.
    std::map<uint64_t, RoAsk> asked;
    /// Verified replies, round 1 then overwritten by round 2.
    std::map<PartitionId, wire::RoReply> replies;
    std::map<PartitionId, wire::AugustusRoReply> augustus_replies;
    /// Every Augustus request sent: each holds shared locks until the op
    /// finishes.
    std::map<PartitionId, uint64_t> augustus_request_ids;
    size_t outstanding = 0;
    sim::Time round1_done = 0;
    bool fresh = true;
    int retries_left = 3;
    uint64_t epoch = 0;  // Invalidates stale timeout callbacks.
  };

  void HandleClientReadReply(const wire::ClientReadReply& msg);
  void HandleCommitReply(const wire::CommitReply& msg);
  void HandleRoReply(const wire::RoReply& msg);
  void HandleAugustusRoReply(const wire::AugustusRoReply& msg);

  /// One attempt of read-write transaction `txn_id`: sends its read phase
  /// to the leaders the view hints name, or its commit when it reads
  /// nothing, and arms the attempt's timeout.
  void AttemptRw(TxnId txn_id, RwOp& op);
  void SendCommit(TxnId txn_id, RwOp& op);
  /// Forgets the attempt's unanswered read requests.
  void DropReadRequests(RwOp& op);
  void FinishRw(TxnId txn_id, RwResult result);
  void FinishRo(uint64_t op_id, RoResult result);

  /// Re-issues a read-write transaction against the next leader (same
  /// transaction id) if it has retries left; used by the timeout path and
  /// by retryable aborts (view changes). False when retries are
  /// exhausted.
  bool RetryRw(TxnId txn_id);

  /// Starts a read-only op over `keys`: round 1 of TransEdge's protocol,
  /// or the Augustus baseline's locking reads when `augustus`.
  void StartRo(std::vector<Key> keys, RoCallback done, bool augustus);

  /// Certificate + Merkle verification of one read-only reply (§4.2).
  Status VerifyRoReply(const wire::RoReply& reply);

  /// Algorithm 2 over `replies`; returns partition -> required LCE for
  /// each unsatisfied dependency (empty when consistent).
  std::map<PartitionId, BatchId> VerifyDependencies(
      const std::map<PartitionId, wire::RoReply>& replies) const;

  void StartRoRound2(uint64_t op_id,
                     const std::map<PartitionId, BatchId>& needed);

  /// Sends `op`'s request for `ask.partition`'s keys to the replica its
  /// view hint names (any replica answers) under a fresh request id: an
  /// RoRequest, or an RoBatchRequest when `ask.min_lce` is set.
  void SendRoRequest(uint64_t op_id, RoOp& op, const RoAsk& ask);

  /// Timeout path of a TransEdge read: rotates the leader hint of every
  /// partition whose request is unanswered, and only those, and re-sends
  /// those requests. False when retries are exhausted, and always for an
  /// Augustus read, which fails at its first timeout.
  bool RetryRo(uint64_t op_id);

  crypto::NodeId LeaderOf(PartitionId p) const {
    return config_.LeaderOf(p, view_hint_[p]);
  }
  void ArmRwTimeout(TxnId txn_id, RwOp& op);
  void ArmRoTimeout(uint64_t op_id);

  SystemConfig config_;
  crypto::NodeId id_;
  sim::Environment* env_;
  const crypto::Verifier* verifier_;
  storage::PartitionMap partition_map_;
  mutable std::vector<uint64_t> view_hint_;

  uint64_t next_request_id_;
  uint32_t next_txn_seq_ = 1;
  std::unordered_map<TxnId, RwOp> rw_ops_;
  std::unordered_map<uint64_t, RoOp> ro_ops_;  // by op id
  /// Unanswered request id -> its op, one table per kind of op: a
  /// transaction id and a read-only op id may be equal numbers, and a
  /// reply must never reach an op of the other kind.
  std::unordered_map<uint64_t, TxnId> read_phase_requests_;
  std::unordered_map<uint64_t, uint64_t> ro_requests_;

  bool verify_dependencies_ = true;
  ClientStats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CLIENT_H_
