#include "storage/versioned_store.h"

#include <algorithm>
#include <cassert>

namespace transedge::storage {

namespace {

/// The last of `versions` (ascending) with version <= `as_of`; end() when
/// there is none.
template <class It>
It LastAtOrBelow(It begin, It end, BatchId as_of) {
  It pos = std::upper_bound(
      begin, end, as_of,
      [](BatchId v, const VersionedValue& vv) { return v < vv.version; });
  return pos == begin ? end : pos - 1;
}

}  // namespace

void VersionedStore::Put(const Key& key, Value value, BatchId version) {
  auto [it, inserted] = chains_.try_emplace(key);
  Chain& chain = it->second;
  if (!inserted) {
    assert(chain.latest.version <= version);
    if (chain.latest.version == version) {
      // Same-batch overwrite (two txns in one batch never conflict, but a
      // batch may legitimately carry blind writes to one key across
      // non-conflicting txn sets is excluded by OCC; keep last-write-wins
      // for robustness).
      chain.latest.value = std::move(value);
      return;
    }
    chain.older.push_back(std::move(chain.latest));
  }
  chain.latest = VersionedValue{std::move(value), version};
  ++total_versions_;
}

Result<VersionedValue> VersionedStore::Get(const Key& key) const {
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  return it->second.latest;
}

Result<VersionedValue> VersionedStore::GetAsOf(const Key& key,
                                               BatchId as_of) const {
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    return Status::NotFound("key not found: " + key);
  }
  const Chain& chain = it->second;
  if (chain.latest.version <= as_of) return chain.latest;
  auto pos = LastAtOrBelow(chain.older.begin(), chain.older.end(), as_of);
  if (pos == chain.older.end()) {
    return Status::NotFound("key has no version at or before requested batch");
  }
  return *pos;
}

BatchId VersionedStore::LatestVersion(const Key& key) const {
  auto it = chains_.find(key);
  return it == chains_.end() ? kNoBatch : it->second.latest.version;
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
    const VersionedValue& latest = entry->second.latest;
    fn(entry->first, latest.value, latest.version);
  }
}

size_t VersionedStore::TruncateHistory(BatchId horizon) {
  size_t dropped = 0;
  // check:allow(unordered-iter): trims each chain on its own and only
  // sums a count; no result depends on the order of the keys.
  for (auto& [key, chain] : chains_) {
    std::vector<VersionedValue>& older = chain.older;
    if (older.empty()) continue;
    // The last version <= horizon stays; everything before it can go.
    size_t keep_from;
    if (chain.latest.version <= horizon) {
      keep_from = older.size();
    } else {
      auto pos = LastAtOrBelow(older.begin(), older.end(), horizon);
      if (pos == older.end()) continue;
      keep_from = static_cast<size_t>(pos - older.begin());
    }
    if (keep_from == 0) continue;
    if (keep_from == older.size()) {
      std::vector<VersionedValue>().swap(older);
    } else {
      older.erase(older.begin(), older.begin() + keep_from);
    }
    dropped += keep_from;
  }
  total_versions_ -= dropped;
  return dropped;
}

}  // namespace transedge::storage
