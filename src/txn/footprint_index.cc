#include "txn/footprint_index.h"

namespace transedge::txn {

void FootprintIndex::Add(const Transaction& txn) {
  for (const ReadOp& r : txn.read_set) ++readers_[r.key];
  for (const WriteOp& w : txn.write_set) ++writers_[w.key];
}

void FootprintIndex::Remove(const Transaction& txn) {
  for (const ReadOp& r : txn.read_set) {
    auto it = readers_.find(r.key);
    if (it != readers_.end() && --it->second <= 0) readers_.erase(it);
  }
  for (const WriteOp& w : txn.write_set) {
    auto it = writers_.find(w.key);
    if (it != writers_.end() && --it->second <= 0) writers_.erase(it);
  }
}

bool FootprintIndex::ConflictsWith(const Transaction& txn) const {
  for (const WriteOp& w : txn.write_set) {
    if (writers_.count(w.key) > 0 || readers_.count(w.key) > 0) return true;
  }
  for (const ReadOp& r : txn.read_set) {
    if (writers_.count(r.key) > 0) return true;
  }
  return false;
}

}  // namespace transedge::txn
