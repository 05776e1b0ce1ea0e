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
  /// §4.4.2: all replies within the freshness window.
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

  /// When true (default), round-trip verification failures fail the
  /// transaction; tests toggle freshness checking.
  void set_check_freshness(bool on) { check_freshness_ = on; }

  /// Ablation knob: disables Algorithm 2 entirely (Merkle verification
  /// only, no cross-partition dependency check, never a second round).
  /// Used by bench_ablation_dependency to show the torn snapshots the
  /// paper's Figure 1 warns about.
  void set_verify_dependencies(bool on) { verify_dependencies_ = on; }

 private:
  struct RwOp {
    std::vector<Key> read_keys;
    std::vector<WriteOp> writes;
    RwCallback done;
    sim::Time start = 0;
    TxnId txn_id = 0;
    std::map<Key, std::pair<std::optional<Value>, BatchId>> reads;
    size_t reads_outstanding = 0;
    std::unordered_map<uint64_t, Key> read_request_keys;
    bool commit_sent = false;
    int retries_left = 3;
    uint64_t epoch = 0;  // Invalidates stale timeout callbacks.
  };

  struct RoOp {
    std::vector<Key> keys;
    RoCallback done;
    sim::Time start = 0;
    int rounds = 1;
    bool augustus = false;
    /// partition -> keys of that partition.
    std::map<PartitionId, std::vector<Key>> by_partition;
    /// Verified replies, round 1 then overwritten by round 2.
    std::map<PartitionId, wire::RoReply> replies;
    std::map<PartitionId, wire::AugustusRoReply> augustus_replies;
    std::map<PartitionId, uint64_t> augustus_request_ids;
    size_t outstanding = 0;
    bool second_round = false;
    sim::Time round1_done = 0;
    bool fresh = true;
    int retries_left = 3;
    uint64_t epoch = 0;
  };

  void HandleClientReadReply(const wire::ClientReadReply& msg);
  void HandleCommitReply(const wire::CommitReply& msg);
  void HandleRoReply(const wire::RoReply& msg);
  void HandleAugustusRoReply(const wire::AugustusRoReply& msg);

  void SendCommit(RwOp* op);
  void FinishRw(uint64_t op_id, RwResult result);
  void FinishRo(uint64_t op_id, RoResult result);

  /// Re-issues a read-write op against the next leader (same transaction
  /// id) if it has retries left; used by the timeout path and by
  /// retryable aborts (view changes). False when retries are exhausted.
  bool RetryRw(uint64_t op_id);

  /// Certificate + Merkle verification of one read-only reply (§4.2).
  Status VerifyRoReply(const wire::RoReply& reply);

  /// Algorithm 2 over `replies`; returns partition -> required LCE for
  /// each unsatisfied dependency (empty when consistent).
  std::map<PartitionId, BatchId> VerifyDependencies(
      const std::map<PartitionId, wire::RoReply>& replies) const;

  void StartRoRound2(uint64_t op_id,
                     const std::map<PartitionId, BatchId>& needed);

  crypto::NodeId LeaderOf(PartitionId p) const {
    return config_.LeaderOf(p, view_hint_[p]);
  }
  void ArmRwTimeout(uint64_t op_id);
  void ArmRoTimeout(uint64_t op_id);

  SystemConfig config_;
  crypto::NodeId id_;
  sim::Environment* env_;
  const crypto::Verifier* verifier_;
  storage::PartitionMap partition_map_;
  mutable std::vector<uint64_t> view_hint_;

  uint64_t next_request_id_;
  uint32_t next_txn_seq_ = 1;
  std::unordered_map<uint64_t, RwOp> rw_ops_;         // by op id
  std::unordered_map<uint64_t, RoOp> ro_ops_;         // by op id
  std::unordered_map<uint64_t, uint64_t> request_op_;  // request id -> op id
  std::unordered_map<TxnId, uint64_t> txn_op_;         // txn id -> op id

  bool check_freshness_ = false;
  bool verify_dependencies_ = true;
  ClientStats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_CLIENT_H_
