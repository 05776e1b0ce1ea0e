#ifndef TRANSEDGE_CORE_RO_LOCK_TABLE_H_
#define TRANSEDGE_CORE_RO_LOCK_TABLE_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "txn/types.h"

namespace transedge::core {

/// Tracks the shared read locks of Augustus-style read-only transactions
/// (baseline for Figures 5–7 and Table 1). TransEdge itself never locks.
class RoLockTable {
 public:
  void Lock(uint64_t request_id, const std::vector<Key>& keys);
  void Release(uint64_t request_id);

  /// True if a key in `txn`'s write set that `owned` accepts is
  /// share-locked. `owned` is asked only about locked keys.
  bool BlocksWriter(const Transaction& txn,
                    const std::function<bool(const Key&)>& owned) const;

  size_t locked_key_count() const { return shared_.size(); }

 private:
  std::unordered_map<Key, int> shared_;
  std::unordered_map<uint64_t, std::vector<Key>> by_request_;
};

}  // namespace transedge::core

#endif  // TRANSEDGE_CORE_RO_LOCK_TABLE_H_
