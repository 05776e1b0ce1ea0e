#include "txn/types.h"

#include <algorithm>

namespace transedge {

bool Conflicts(const Transaction& a, const Transaction& b) {
  // Two transactions conflict when one writes a key the other reads or
  // writes. Linear scans: transaction footprints are small (the paper's
  // workloads use 5 reads + 3 writes).
  auto writes_key = [](const Transaction& t, const Key& k) {
    return std::any_of(t.write_set.begin(), t.write_set.end(),
                       [&k](const WriteOp& w) { return w.key == k; });
  };
  for (const WriteOp& w : a.write_set) {
    if (writes_key(b, w.key)) return true;  // ww
    if (std::any_of(b.read_set.begin(), b.read_set.end(),
                    [&w](const ReadOp& r) { return r.key == w.key; })) {
      return true;  // wr / rw
    }
  }
  for (const ReadOp& r : a.read_set) {
    if (writes_key(b, r.key)) return true;  // rw
  }
  return false;
}

}  // namespace transedge
