#ifndef TRANSEDGE_TXN_FOOTPRINT_INDEX_H_
#define TRANSEDGE_TXN_FOOTPRINT_INDEX_H_

#include <unordered_map>

#include "txn/types.h"

namespace transedge::txn {

/// Key-indexed footprint of a set of in-flight transactions, used for
/// rules 2 and 3 of Definition 3.1 without quadratic scans.
class FootprintIndex {
 public:
  void Add(const Transaction& txn);
  void Remove(const Transaction& txn);

  /// True if `txn` has a rw/wr/ww conflict with any indexed transaction.
  bool ConflictsWith(const Transaction& txn) const;

  size_t indexed_reads() const { return readers_.size(); }
  size_t indexed_writes() const { return writers_.size(); }

 private:
  std::unordered_map<Key, int> readers_;
  std::unordered_map<Key, int> writers_;
};

}  // namespace transedge::txn

#endif  // TRANSEDGE_TXN_FOOTPRINT_INDEX_H_
