#ifndef TRANSEDGE_TXN_CD_VECTOR_H_
#define TRANSEDGE_TXN_CD_VECTOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "txn/types.h"

namespace transedge::txn {

/// Conflict-Dependency vector (§3.4, §4.3.3): for every partition, the
/// batch number this state depends on.
///
/// Entry semantics: `V[Y] = j` means "this batch's committed state
/// depends on the transactions of partition Y up to (and including) the
/// batch where those transactions *prepared*, b^Y_j". -1 encodes "no
/// dependency". Tracking the prepare batch rather than the commit batch
/// is what lets local transactions keep committing at arbitrary
/// frequency (challenge 2 of §4.3.2); the reader compares entries against
/// the *LCE* of the responses it holds.
class CdVector {
 public:
  CdVector() = default;

  /// A vector over `num_partitions` entries, all -1 (no dependencies).
  explicit CdVector(size_t num_partitions)
      : deps_(num_partitions, kNoBatch) {}

  size_t size() const { return deps_.size(); }
  bool empty() const { return deps_.empty(); }

  BatchId Get(PartitionId p) const { return deps_[p]; }
  void Set(PartitionId p, BatchId b) { deps_[p] = b; }

  /// Entry-wise maximum with `other` — the merge step of Algorithm 1.
  /// Both vectors must have the same size.
  void PairwiseMax(const CdVector& other);

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.deps_);
  }

  /// "[2,-1,5]" — for logs and EXPERIMENTS.md extracts.
  std::string ToString() const;

  bool operator==(const CdVector&) const = default;

 private:
  std::vector<BatchId> deps_;
};

/// What a read-only client learned from one partition's response: the CD
/// vector and LCE of the batch it was served from.
struct RoPartitionView {
  CdVector cd_vector;
  BatchId lce = kNoBatch;
};

/// Algorithm 2 (§4.3.4): checks every cross-partition dependency
/// `V_i[j]` against partition j's LCE. Returns, for each partition with
/// an unsatisfied dependency, the minimum LCE the second round must
/// obtain (the max over all demanding partitions). Empty result = the
/// snapshot is consistent.
std::map<PartitionId, BatchId> ComputeUnsatisfiedDependencies(
    const std::map<PartitionId, RoPartitionView>& views);

}  // namespace transedge::txn

#endif  // TRANSEDGE_TXN_CD_VECTOR_H_
