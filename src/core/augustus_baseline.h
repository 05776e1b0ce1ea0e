#ifndef TRANSEDGE_CORE_AUGUSTUS_BASELINE_H_
#define TRANSEDGE_CORE_AUGUSTUS_BASELINE_H_

#include <set>
#include <unordered_map>
#include <vector>

#include "core/node_context.h"
#include "core/ro_lock_table.h"
#include "wire/message.h"

namespace transedge::core {

/// Augustus-style locking read-only baseline (Figures 5–7, Table 1):
/// shared read locks plus replica voting. The lock table interferes with
/// read-write admission through a hook the batch pipeline queries;
/// TransEdge's own read-only path never takes locks.
class AugustusBaseline {
 public:
  struct Stats {
    uint64_t augustus_ro_served = 0;
  };

  explicit AugustusBaseline(NodeContext* ctx);

  void HandleRoRequest(sim::ActorId from, const wire::AugustusRoRequest& msg);
  void HandleVoteRequest(sim::ActorId from,
                         const wire::AugustusVoteRequest& msg);
  void HandleVoteReply(sim::ActorId from, const wire::AugustusVoteReply& msg);
  void HandleRelease(sim::ActorId from, const wire::AugustusRelease& msg);

  /// True if a key in `txn`'s write set that this partition owns is
  /// share-locked (Table 1's interference with read-write admission).
  bool BlocksWriter(const Transaction& txn) const {
    return lock_table_.BlocksWriter(
        txn, [this](const Key& key) { return ctx_->Owns(key); });
  }

  const RoLockTable& lock_table() const { return lock_table_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    sim::ActorId client = 0;
    std::vector<Key> keys;
    /// Cluster members whose yes vote was counted, the leader's own
    /// included; a member counts once however often it replies.
    std::set<crypto::NodeId> voters;
    bool replied = false;
  };

  NodeContext* ctx_;
  RoLockTable lock_table_;
  std::unordered_map<uint64_t, Pending> pending_;
  Stats stats_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_AUGUSTUS_BASELINE_H_
