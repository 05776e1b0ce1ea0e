#include "txn/cd_vector.h"

#include <algorithm>
#include <cassert>

namespace transedge::txn {

void CdVector::PairwiseMax(const CdVector& other) {
  assert(deps_.size() == other.deps_.size());
  for (size_t i = 0; i < deps_.size(); ++i) {
    deps_[i] = std::max(deps_[i], other.deps_[i]);
  }
}

bool CdVector::CoveredBy(const CdVector& other) const {
  assert(deps_.size() == other.deps_.size());
  for (size_t i = 0; i < deps_.size(); ++i) {
    if (deps_[i] > other.deps_[i]) return false;
  }
  return true;
}

std::map<PartitionId, BatchId> ComputeUnsatisfiedDependencies(
    const std::map<PartitionId, RoPartitionView>& views) {
  std::map<PartitionId, BatchId> needed;
  for (const auto& [pi, view_i] : views) {
    if (view_i.cd_vector.empty()) continue;
    for (const auto& [pj, view_j] : views) {
      if (pi == pj) continue;
      BatchId dep = view_i.cd_vector.Get(pj);
      if (dep > view_j.lce) {
        auto it = needed.find(pj);
        if (it == needed.end() || it->second < dep) needed[pj] = dep;
      }
    }
  }
  return needed;
}

std::string CdVector::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < deps_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(deps_[i]);
  }
  out += "]";
  return out;
}

}  // namespace transedge::txn
