#include "storage/versioned_store.h"

#include <algorithm>
#include <cassert>

namespace transedge::storage {

void VersionedStore::Put(const Key& key, Value value, BatchId version) {
  Chain& chain = chains_[key];
  assert(chain.empty() || chain.back().version <= version);
  if (!chain.empty() && chain.back().version == version) {
    // Same-batch overwrite (two txns in one batch never conflict, but a
    // batch may legitimately carry blind writes to one key across
    // non-conflicting txn sets is excluded by OCC; keep last-write-wins
    // for robustness).
    chain.back().value = std::move(value);
    return;
  }
  chain.push_back(VersionedValue{std::move(value), version});
  ++total_versions_;
}

Result<VersionedValue> VersionedStore::Get(const Key& key) const {
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  return it->second.back();
}

Result<VersionedValue> VersionedStore::GetAsOf(const Key& key,
                                               BatchId as_of) const {
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  const Chain& chain = it->second;
  // Last element with version <= as_of.
  auto pos = std::upper_bound(
      chain.begin(), chain.end(), as_of,
      [](BatchId v, const VersionedValue& vv) { return v < vv.version; });
  if (pos == chain.begin()) {
    return Status::NotFound("key has no version at or before requested batch");
  }
  return *(pos - 1);
}

BatchId VersionedStore::LatestVersion(const Key& key) const {
  auto it = chains_.find(key);
  return it == chains_.end() ? kNoBatch : it->second.back().version;
}

void VersionedStore::ForEachLatest(const LatestFn& fn,
                                   const KeyFilter& select) const {
  std::vector<const std::pair<const Key, Chain>*> selected;
  // check:allow(unordered-iter): only collects the selected entries;
  // they are sorted by key below before `fn` sees any of them.
  for (const auto& entry : chains_) {
    if (!select || select(entry.first)) selected.push_back(&entry);
  }
  std::sort(selected.begin(), selected.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : selected) {
    const VersionedValue& latest = entry->second.back();
    fn(entry->first, latest.value, latest.version);
  }
}

size_t VersionedStore::TruncateHistory(BatchId horizon) {
  size_t dropped = 0;
  // check:allow(unordered-iter): trims each chain on its own and only
  // sums a count; no result depends on the order of the keys.
  for (auto& [key, chain] : chains_) {
    // Find the last version <= horizon; everything before it can go.
    auto pos = std::upper_bound(
        chain.begin(), chain.end(), horizon,
        [](BatchId v, const VersionedValue& vv) { return v < vv.version; });
    if (pos == chain.begin()) continue;
    size_t keep_from = static_cast<size_t>((pos - 1) - chain.begin());
    if (keep_from == 0) continue;
    chain.erase(chain.begin(), chain.begin() + keep_from);
    dropped += keep_from;
  }
  total_versions_ -= dropped;
  return dropped;
}

}  // namespace transedge::storage
