#include "core/ro_lock_table.h"

namespace transedge::core {

void RoLockTable::Lock(uint64_t request_id, const std::vector<Key>& keys) {
  // A re-lock under the same request id (client retry / duplicate
  // delivery) replaces the old entry; releasing it first keeps the
  // shared counts balanced — overwriting `by_request_` would leak the
  // first call's counts and block writers on those keys forever.
  Release(request_id);
  for (const Key& k : keys) ++shared_[k];
  by_request_[request_id] = keys;
}

void RoLockTable::Release(uint64_t request_id) {
  auto it = by_request_.find(request_id);
  if (it == by_request_.end()) return;
  for (const Key& k : it->second) {
    auto sit = shared_.find(k);
    if (sit != shared_.end() && --sit->second <= 0) shared_.erase(sit);
  }
  by_request_.erase(it);
}

bool RoLockTable::BlocksWriter(
    const Transaction& txn,
    const std::function<bool(const Key&)>& owned) const {
  if (shared_.empty()) return false;
  for (const WriteOp& w : txn.write_set) {
    if (shared_.count(w.key) > 0 && owned(w.key)) return true;
  }
  return false;
}

}  // namespace transedge::core
